"""Client/server demo: drive the backend through the JSON protocol.

SystemD's client and backend talk JSON; this script plays the client role
against the in-process :class:`~repro.server.SystemDServer`, issuing the same
sequence of requests a browser session would generate while the sales manager
walks through the deal-closing use case.  Over HTTP the same actions are
reached through the ``/api/v1`` routes (see the README's route table).

Run with::

    python examples/server_demo.py
"""

import json

from repro.server import SystemDServer


def show(title: str, response) -> None:
    """Pretty-print one response."""
    status = "ok" if response.ok else f"ERROR: {response.error}"
    print(f"\n== {title} [{status}, {response.elapsed_ms:.0f} ms] ==")
    if response.ok:
        print(json.dumps(response.data, indent=2)[:900])


def main() -> None:
    server = SystemDServer()

    # (A) which use cases does the backend support?
    show("list_use_cases", server.request("list_use_cases"))

    # (A)+(B) load the deal-closing dataset
    show(
        "load_use_case",
        server.request(
            "load_use_case",
            use_case="deal_closing",
            dataset_kwargs={"n_prospects": 500},
            max_rows=3,
        ),
    )

    # (D) the sales manager deselects a driver she does not act on
    show("set_drivers (exclude)", server.request("set_drivers", exclude=["Webinar Attended"]))

    # (E) driver importance
    importance = server.request("driver_importance", verify=False)
    show("driver_importance", importance)

    # (F)/(G)/(H) sensitivity: +40% marketing emails opened
    show(
        "sensitivity",
        server.request(
            "sensitivity",
            perturbations={"Open Marketing Email": 40.0},
            track_as="emails +40%",
        ),
    )

    # (H) per-data drill-down on prospect 7
    show(
        "per_data",
        server.request("per_data", row_index=7, perturbations={"Call": 50.0}),
    )

    # (I) constrained analysis: the best +40..80% change in marketing emails
    show(
        "constrained",
        server.request(
            "constrained",
            bounds={"Open Marketing Email": [40.0, 80.0]},
            n_calls=15,
            track_as="constrained max",
        ),
    )

    # scenario ledger accumulated across the requests above
    show("list_scenarios", server.request("list_scenarios"))

    # error handling: malformed requests get structured errors, not crashes
    show("error handling", server.request("sensitivity"))

    # ---------------------------------------------------------------- #
    # multi-session serving: two analysts, one server, one model cache
    # ---------------------------------------------------------------- #
    alice = server.request(
        "create_session", use_case="deal_closing", dataset_kwargs={"n_prospects": 500}
    ).data["session_id"]
    bob = server.request(
        "create_session", use_case="deal_closing", dataset_kwargs={"n_prospects": 500}
    ).data["session_id"]
    print(f"\ntwo concurrent sessions: alice={alice} bob={bob}")

    # both analyse the same configuration: the second fit is a cache hit
    show(
        f"sensitivity (session {alice})",
        server.request(
            "sensitivity", session_id=alice, perturbations={"Open Marketing Email": 40.0}
        ),
    )
    show(
        f"sensitivity (session {bob}, model reused from cache)",
        server.request(
            "sensitivity", session_id=bob, perturbations={"Open Marketing Email": 40.0}
        ),
    )

    # bob diverges without disturbing alice's analysis
    server.request("set_drivers", session_id=bob, exclude=["Webinar Attended"])
    show("list_sessions", server.request("list_sessions"))
    show("server_stats (note model_cache hits)", server.request("server_stats"))
    server.request("close_session", session_id=bob)

    print("\nper-request latency log:")
    for entry in server.request_log:
        print(f"  {entry['action']:<18} ok={entry['ok']} {entry['elapsed_ms']:.0f} ms")


if __name__ == "__main__":
    main()
