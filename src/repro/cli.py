"""Command-line interface for the what-if analysis library.

The paper's §5 "Specification and Reuse" motivates running analyses outside
the interactive UI — from saved specifications, scripts, and other platforms.
The CLI covers the non-interactive entry points:

``python -m repro list-use-cases``
    Show the registered business use cases.
``python -m repro importance --use-case deal_closing``
    Driver importance analysis, printed as a table (optionally JSON).
``python -m repro sensitivity --use-case deal_closing --perturb "Open Marketing Email=40"``
    Sensitivity analysis for one or more driver perturbations.
``python -m repro goal --use-case deal_closing --goal maximize --bound "Open Marketing Email=40:80"``
    Goal inversion / constrained analysis.
``python -m repro sweep --use-case deal_closing --axis "Call=-40:40:20" --axis "Renewal=0,20,40"``
    Scenario-space sweep: enumerate and rank a whole option space.
``python -m repro run-spec experiment.json``
    Execute a declarative experiment specification and print its results.
``python -m repro serve --port 8765``
    Start the JSON HTTP backend.
``python -m repro bench-sessions --sessions 4 --requests 16``
    Throughput check: concurrent sessions sharing one model cache.
``python -m repro jobs --port 8765``
    Inspect (or cancel) async analysis jobs on a running HTTP backend.
``python -m repro trace JOB_ID --port 8765``
    Render one job's span timeline (request → job → worker units → reduce).
``python -m repro bench-engine --jobs 4 --workers 4``
    Async engine check: concurrent sweeps vs serialized execution.

Every command accepts ``--json`` to emit machine-readable output instead of
tables, so the CLI composes with other tooling the way the paper envisions.
"""

from __future__ import annotations

import argparse
import json
import sys
from collections.abc import Sequence
from typing import Any

from .core import WhatIfSession
from .datasets import get_use_case, list_use_cases
from .server import to_json_safe
from .spec import SpecError, execute_spec, load_spec, spec_to_sql

__all__ = ["main", "build_parser"]


# --------------------------------------------------------------------------- #
# argument parsing helpers
# --------------------------------------------------------------------------- #
def _parse_assignment(text: str) -> tuple[str, float]:
    """Parse ``"Driver Name=40"`` into ``("Driver Name", 40.0)``."""
    if "=" not in text:
        raise argparse.ArgumentTypeError(
            f"expected DRIVER=AMOUNT, got {text!r}"
        )
    name, _, value = text.partition("=")
    try:
        return name.strip(), float(value)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"invalid amount in {text!r}") from exc


def _parse_axis(text: str) -> tuple[str, dict]:
    """Parse ``"Driver=-40:40:20"`` (grid) or ``"Driver=0,10,25"`` (values)."""
    if "=" not in text:
        raise argparse.ArgumentTypeError(f"expected DRIVER=SPEC, got {text!r}")
    name, _, spec = text.partition("=")
    spec = spec.strip()
    try:
        if ":" in spec:
            start, stop, step = spec.split(":")
            axis = {"start": float(start), "stop": float(stop), "step": float(step)}
        else:
            axis = {"amounts": [float(part) for part in spec.split(",") if part.strip()]}
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"invalid axis spec in {text!r}") from exc
    return name.strip(), axis


def _parse_bound(text: str) -> tuple[str, tuple[float, float]]:
    """Parse ``"Driver Name=40:80"`` into ``("Driver Name", (40.0, 80.0))``."""
    name, amount = text.partition("=")[::2]
    if ":" not in amount:
        raise argparse.ArgumentTypeError(f"expected DRIVER=LOW:HIGH, got {text!r}")
    low, _, high = amount.partition(":")
    try:
        return name.strip(), (float(low), float(high))
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"invalid bound in {text!r}") from exc


def build_parser() -> argparse.ArgumentParser:
    """Build the top-level argument parser."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Interactive what-if analysis (CIDR 2022 reproduction) — CLI",
    )
    subparsers = parser.add_subparsers(dest="command", required=True)

    subparsers.add_parser("list-use-cases", help="list the registered business use cases")

    def add_session_arguments(sub: argparse.ArgumentParser) -> None:
        sub.add_argument("--use-case", required=True, help="use case key (see list-use-cases)")
        sub.add_argument("--rows", type=int, default=None, help="synthetic dataset size")
        sub.add_argument("--seed", type=int, default=0, help="random seed")
        sub.add_argument("--json", action="store_true", help="emit JSON instead of a table")

    importance = subparsers.add_parser("importance", help="driver importance analysis")
    add_session_arguments(importance)
    importance.add_argument("--no-verify", action="store_true", help="skip verification measures")

    sensitivity = subparsers.add_parser("sensitivity", help="sensitivity analysis")
    add_session_arguments(sensitivity)
    sensitivity.add_argument(
        "--perturb", type=_parse_assignment, action="append", required=True,
        metavar="DRIVER=AMOUNT", help="perturbation (repeatable)",
    )
    sensitivity.add_argument(
        "--mode", choices=("percentage", "absolute"), default="percentage"
    )

    goal = subparsers.add_parser("goal", help="goal inversion / constrained analysis")
    add_session_arguments(goal)
    goal.add_argument("--goal", choices=("maximize", "minimize", "target"), default="maximize")
    goal.add_argument("--target-value", type=float, default=None)
    goal.add_argument(
        "--bound", type=_parse_bound, action="append", default=[],
        metavar="DRIVER=LOW:HIGH", help="per-driver perturbation bound (repeatable)",
    )
    goal.add_argument("--n-calls", type=int, default=40)
    goal.add_argument("--optimizer", choices=("bayesian", "random", "grid"), default="bayesian")

    run_spec = subparsers.add_parser("run-spec", help="execute a declarative experiment spec")
    run_spec.add_argument("path", help="path to the JSON specification")
    run_spec.add_argument("--json", action="store_true", help="emit JSON instead of a summary")
    run_spec.add_argument("--sql", action="store_true", help="print the SQL data slice and exit")

    serve = subparsers.add_parser("serve", help="start the JSON HTTP backend")
    serve.add_argument("--host", default="127.0.0.1")
    serve.add_argument("--port", type=int, default=8765)
    serve.add_argument(
        "--executor",
        choices=("thread", "process"),
        default="thread",
        help="async-engine executor: 'process' fans CPU-bound jobs across "
        "worker processes (falls back to threads where spawn is unavailable)",
    )
    serve.add_argument(
        "--workers", type=int, default=4, help="async-engine worker count"
    )
    serve.add_argument(
        "--state-dir",
        default=None,
        help="directory for the durable SQLite state (sessions, scenario "
        "ledgers, and finished job results survive restarts); omit for "
        "in-memory state",
    )
    serve.add_argument(
        "--recover",
        action="store_true",
        help="eagerly rebuild every dormant session from --state-dir at "
        "startup (sessions otherwise recover lazily on first touch)",
    )

    bench = subparsers.add_parser(
        "bench-sessions",
        help="drive concurrent sessions through one in-process server",
    )
    bench.add_argument("--use-case", default="deal_closing", help="use case key")
    bench.add_argument("--rows", type=int, default=400, help="synthetic dataset size")
    bench.add_argument("--sessions", type=int, default=4, help="number of concurrent sessions")
    bench.add_argument("--requests", type=int, default=16, help="sensitivity requests per session")
    bench.add_argument("--seed", type=int, default=0, help="random seed")
    bench.add_argument("--json", action="store_true", help="emit JSON instead of a table")

    jobs = subparsers.add_parser(
        "jobs", help="inspect async analysis jobs on a running HTTP backend"
    )
    jobs.add_argument("--host", default="127.0.0.1")
    jobs.add_argument("--port", type=int, default=8765)
    jobs.add_argument("--session", default=None, help="only jobs of this session id")
    jobs.add_argument("--status", metavar="JOB_ID", default=None, help="show one job")
    jobs.add_argument("--cancel", metavar="JOB_ID", default=None, help="cancel one job")
    jobs.add_argument(
        "--follow",
        metavar="JOB_ID",
        default=None,
        help="stream one job's events live over SSE until it finishes",
    )
    jobs.add_argument(
        "--after",
        type=int,
        default=0,
        help="with --follow: resume the stream after this sequence id",
    )
    jobs.add_argument(
        "--limit", type=int, default=None, help="page size for the job listing"
    )
    jobs.add_argument(
        "--offset", type=int, default=0, help="page offset for the job listing"
    )
    jobs.add_argument("--json", action="store_true", help="emit JSON instead of a table")

    trace = subparsers.add_parser(
        "trace", help="render one job's span timeline from a running HTTP backend"
    )
    trace.add_argument("job_id", help="job id whose trace to render")
    trace.add_argument("--host", default="127.0.0.1")
    trace.add_argument("--port", type=int, default=8765)
    trace.add_argument("--json", action="store_true", help="emit the raw span records")

    sweep = subparsers.add_parser(
        "sweep", help="scenario-space sweep: enumerate and rank whole option spaces"
    )
    add_session_arguments(sweep)
    sweep.add_argument(
        "--axis",
        type=_parse_axis,
        action="append",
        required=True,
        metavar="DRIVER=SPEC",
        help="axis spec: 'Driver=-40:40:20' (start:stop:step grid) or "
        "'Driver=0,10,25' (value list); repeatable",
    )
    sweep.add_argument(
        "--mode",
        choices=("percentage", "absolute"),
        default="percentage",
        help="perturbation mode shared by every axis",
    )
    sweep.add_argument("--goal", choices=("maximize", "minimize"), default="maximize")
    sweep.add_argument("--top-k", type=int, default=10, help="frontier size")
    sweep.add_argument(
        "--budget",
        type=float,
        default=None,
        help="prune scenarios whose total absolute change exceeds this budget",
    )
    sweep.add_argument(
        "--sample",
        type=int,
        default=None,
        help="evaluate this many sampled scenarios instead of the full grid",
    )
    sweep.add_argument(
        "--sample-method",
        choices=("random", "halton"),
        default="random",
        help="sampling strategy for --sample (halton = low-discrepancy)",
    )
    sweep.add_argument(
        "--cohort", default=None, help="break the frontier down by this column"
    )

    bench_engine = subparsers.add_parser(
        "bench-engine",
        help="async engine benchmark: concurrent sweeps vs serialized execution",
    )
    bench_engine.add_argument("--use-case", default="deal_closing", help="use case key")
    bench_engine.add_argument("--rows", type=int, default=1000, help="synthetic dataset size")
    bench_engine.add_argument("--jobs", type=int, default=4, help="concurrent sweep jobs")
    bench_engine.add_argument("--workers", type=int, default=4, help="engine worker threads")
    bench_engine.add_argument(
        "--executor",
        choices=("thread", "process"),
        default="thread",
        help="async-engine executor to benchmark",
    )
    bench_engine.add_argument(
        "--amounts", type=int, default=10, help="perturbation amounts per sweep"
    )
    bench_engine.add_argument("--seed", type=int, default=0, help="random seed")
    bench_engine.add_argument("--json", action="store_true", help="emit JSON instead of a table")

    check = subparsers.add_parser(
        "check",
        help="project-specific static analysis: lock discipline, determinism, "
        "pickle-safety, registry drift",
    )
    check.add_argument(
        "--rule",
        action="append",
        dest="rules",
        metavar="ID",
        help="run only this rule id (repeatable, e.g. --rule LCK001 --rule REG004)",
    )
    check.add_argument(
        "--format",
        choices=("text", "json"),
        default="text",
        dest="output_format",
        help="findings output format",
    )
    check.add_argument(
        "--root",
        default=None,
        help="source root to analyse (default: the installed repro package)",
    )
    check.add_argument(
        "--show-suppressed",
        action="store_true",
        help="include suppressed findings in text output",
    )
    check.add_argument(
        "--output",
        default=None,
        metavar="PATH",
        help="also write the report to this file (the exit code still reflects "
        "unsuppressed findings, so CI can gate and archive in one step)",
    )

    return parser


# --------------------------------------------------------------------------- #
# output helpers
# --------------------------------------------------------------------------- #
def _emit(payload: Any, as_json: bool, printer) -> None:
    if as_json:
        print(json.dumps(to_json_safe(payload), indent=2))
    else:
        printer(payload)


def _print_table(rows: list[dict[str, Any]]) -> None:
    if not rows:
        print("(no rows)")
        return
    headers = list(rows[0])
    widths = {h: max(len(h), *(len(_format(r[h])) for r in rows)) for h in headers}
    print(" | ".join(h.ljust(widths[h]) for h in headers))
    print("-+-".join("-" * widths[h] for h in headers))
    for row in rows:
        print(" | ".join(_format(row[h]).ljust(widths[h]) for h in headers))


def _format(value: Any) -> str:
    if isinstance(value, float):
        return f"{value:.3f}"
    return str(value)


def _session_from_args(args: argparse.Namespace) -> WhatIfSession:
    return WhatIfSession.from_use_case(
        args.use_case,
        dataset_kwargs=get_use_case(args.use_case).size_kwargs(args.rows),
        random_state=args.seed,
    )


# --------------------------------------------------------------------------- #
# commands
# --------------------------------------------------------------------------- #
def _command_list_use_cases(_args: argparse.Namespace) -> int:
    _print_table(
        [
            {"key": u.key, "title": u.title, "kpi": u.kpi, "kind": u.kpi_kind}
            for u in list_use_cases()
        ]
    )
    return 0


def _command_importance(args: argparse.Namespace) -> int:
    session = _session_from_args(args)
    result = session.driver_importance(verify=not args.no_verify)
    _emit(
        result,
        args.json,
        lambda r: _print_table(
            [
                {"rank": e.rank, "driver": e.driver, "importance": e.importance,
                 **({"pearson": e.verification.get("pearson")} if e.verification else {})}
                for e in r.drivers
            ]
        ),
    )
    if not args.json:
        print(f"model confidence: {result.model_confidence:.3f}")
    return 0


def _command_sensitivity(args: argparse.Namespace) -> int:
    session = _session_from_args(args)
    perturbations = dict(args.perturb)
    result = session.sensitivity(perturbations, mode=args.mode)
    _emit(
        result,
        args.json,
        lambda r: _print_table(
            [
                {"kpi": r.kpi, "original": r.original_kpi, "perturbed": r.perturbed_kpi,
                 "uplift": r.uplift, "direction": r.direction}
            ]
        ),
    )
    return 0


def _command_goal(args: argparse.Namespace) -> int:
    session = _session_from_args(args)
    bounds = dict(args.bound)
    if bounds:
        result = session.constrained_analysis(
            bounds,
            goal=args.goal,
            target_value=args.target_value,
            n_calls=args.n_calls,
            optimizer=args.optimizer,
        )
    else:
        result = session.goal_inversion(
            args.goal,
            target_value=args.target_value,
            n_calls=args.n_calls,
            optimizer=args.optimizer,
        )
    _emit(
        result,
        args.json,
        lambda r: (
            _print_table(
                [{"kpi": r.kpi, "goal": r.goal, "original": r.original_kpi,
                  "best": r.best_kpi, "uplift": r.uplift, "confidence": r.model_confidence}]
            ),
            _print_table(
                [{"driver": d, "change": c} for d, c in r.driver_changes.items()]
            ),
        ),
    )
    return 0


def _command_sweep(args: argparse.Namespace) -> int:
    from .scenarios import Axis, BudgetConstraint, ScenarioSpace

    session = _session_from_args(args)
    axes = [
        Axis.from_dict({"driver": driver, "mode": args.mode, **spec})
        for driver, spec in args.axis
    ]
    constraints = [BudgetConstraint.of(args.budget)] if args.budget is not None else []
    space = ScenarioSpace(axes, constraints=constraints)
    if args.sample is not None:
        space = space.sampled(args.sample, method=args.sample_method, seed=args.seed)
    result = session.sweep(
        space, goal=args.goal, top_k=max(1, args.top_k), cohort=args.cohort
    )
    _emit(
        result,
        args.json,
        lambda r: (
            _print_table(
                [
                    {"rank": e.rank, "scenario": e.label, "kpi": e.kpi_value,
                     "uplift": e.uplift}
                    for e in r.top
                ]
            ),
            print(
                f"baseline {r.baseline_kpi:.3f}{r.kpi_unit} | "
                f"{r.n_scenarios} scenarios scored"
                + (f" ({r.n_pruned} pruned)" if r.n_pruned else "")
                + f" | space {space.describe()}"
            ),
        ),
    )
    return 0


def _command_run_spec(args: argparse.Namespace) -> int:
    try:
        spec = load_spec(args.path)
    except SpecError as error:
        print(f"error: {error}", file=sys.stderr)
        return 2
    if args.sql:
        print(spec_to_sql(spec))
        return 0
    try:
        run = execute_spec(spec)
    except SpecError as error:
        print(f"error: {error}", file=sys.stderr)
        return 2
    if args.json:
        print(json.dumps(to_json_safe(run.to_dict()), indent=2))
    else:
        print(f"experiment: {spec.name}")
        for name, result in run.results.items():
            summary = to_json_safe(result.to_dict())
            headline_keys = (
                "best_kpi",
                "uplift",
                "original_kpi",
                "perturbed_kpi",
                "model_confidence",
            )
            headline = {
                key: summary[key] for key in headline_keys if key in summary
            }
            print(f"  {name}: {headline or 'completed'}")
    return 0


def _command_serve(args: argparse.Namespace) -> int:  # pragma: no cover - blocking loop
    from .server import serve_http

    httpd = serve_http(
        args.host,
        args.port,
        executor=args.executor,
        workers=max(1, args.workers),
        state_dir=args.state_dir,
        recover=args.recover,
    )
    print(
        f"SystemD backend listening on http://{args.host}:{httpd.server_address[1]} "
        f"(executor={httpd.backend.engine.executor_kind}, "
        f"state={httpd.backend.registry.backend.kind})"
    )
    try:
        httpd.serve_forever()
    except KeyboardInterrupt:
        pass
    finally:
        httpd.server_close()
    return 0


def _command_bench_sessions(args: argparse.Namespace) -> int:
    import threading
    import time

    from .server import SessionRegistry, SystemDServer

    n_sessions = max(1, args.sessions)
    # size the registry to the fleet so no session is LRU-evicted mid-run
    server = SystemDServer(registry=SessionRegistry(capacity=max(64, n_sessions)))
    try:
        dataset_kwargs = get_use_case(args.use_case).size_kwargs(args.rows)
    except KeyError as error:
        print(f"error: {error.args[0]}", file=sys.stderr)
        return 2

    session_ids: list[str] = []
    for _ in range(n_sessions):
        response = server.request(
            "create_session",
            use_case=args.use_case,
            dataset_kwargs=dataset_kwargs,
            random_state=args.seed,
        )
        if not response.ok:
            print(f"error: {response.error}", file=sys.stderr)
            return 2
        session_ids.append(response.data["session_id"])

    drivers = server.request("describe_dataset", session_id=session_ids[0]).data["drivers"]
    driver = drivers[0]
    failures: list[str] = []

    def worker(session_id: str) -> None:
        for i in range(max(1, args.requests)):
            response = server.request(
                "sensitivity",
                session_id=session_id,
                perturbations={driver: 10.0 + i},
            )
            if not response.ok:
                failures.append(response.error)

    started = time.perf_counter()
    threads = [threading.Thread(target=worker, args=(sid,)) for sid in session_ids]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    elapsed = time.perf_counter() - started

    total_requests = len(session_ids) * max(1, args.requests)
    stats = server.stats()
    summary = {
        "use_case": args.use_case,
        "sessions": len(session_ids),
        "requests": total_requests,
        "failures": len(failures),
        "elapsed_s": elapsed,
        "throughput_rps": total_requests / elapsed if elapsed else float("inf"),
        "models_trained": stats["model_cache"]["misses"],
        "cache_hits": stats["model_cache"]["hits"],
    }
    _emit(summary, args.json, lambda s: _print_table([s]))
    if failures:
        print(f"error: {failures[0]}", file=sys.stderr)
        return 2
    return 0


def _post_backend(host: str, port: int, payload: dict[str, Any]) -> dict[str, Any]:
    """POST one request envelope to a running HTTP backend, return the
    response envelope (4xx bodies are structured JSON too)."""
    import urllib.error
    import urllib.request

    data = json.dumps(payload).encode("utf-8")
    request = urllib.request.Request(
        f"http://{host}:{port}/",
        data=data,
        headers={"Content-Type": "application/json"},
    )
    try:
        with urllib.request.urlopen(request, timeout=60) as response:
            return json.loads(response.read().decode("utf-8"))
    except urllib.error.HTTPError as error:
        return json.loads(error.read().decode("utf-8"))
    except urllib.error.URLError as error:
        return {"ok": False, "error": f"cannot reach backend at {host}:{port}: {error.reason}"}


def _follow_job(args: argparse.Namespace) -> int:
    """Stream one job's events over SSE, rendering them as they arrive."""
    from .server.stream import StreamClient, StreamError

    client = StreamClient(args.host, args.port)
    terminal = "failed"
    try:
        for event in client.stream_job(
            args.session or "", args.follow, after_seq=args.after or None
        ):
            if args.json:
                print(json.dumps(event.data))
                continue
            payload = event.payload
            if event.type == "progress":
                print(f"[{event.event_id:>4}] progress {payload.get('progress', 0.0):.0%}")
            elif event.type == "gap":
                print(f"[  --] gap: {payload.get('missed', '?')} events evicted")
            elif event.type in ("done", "failed", "cancelled"):
                terminal = event.type
                detail = payload.get("error") or ""
                print(f"[{event.event_id:>4}] {event.type}" + (f": {detail}" if detail else ""))
            else:
                summary = {k: v for k, v in payload.items() if not isinstance(v, (dict, list))}
                print(f"[{event.event_id:>4}] {event.type} {summary}")
            if event.type in ("done", "failed", "cancelled"):
                break
    except StreamError as error:
        print(f"error: {error}", file=sys.stderr)
        return 2
    except (ConnectionError, OSError) as error:
        print(f"error: stream dropped: {error}", file=sys.stderr)
        return 2
    return 0 if terminal == "done" else 1


def _command_jobs(args: argparse.Namespace) -> int:
    exclusive = [name for name in ("status", "cancel", "follow") if getattr(args, name)]
    if len(exclusive) > 1:
        flags = ", ".join(f"--{name}" for name in exclusive)
        print(f"error: {flags} are mutually exclusive", file=sys.stderr)
        return 2
    if args.follow:
        return _follow_job(args)
    if args.status:
        envelope = _post_backend(
            args.host, args.port, {"action": "job_status", "params": {"job_id": args.status}}
        )
    elif args.cancel:
        envelope = _post_backend(
            args.host, args.port, {"action": "cancel_job", "params": {"job_id": args.cancel}}
        )
    else:
        params: dict[str, Any] = {}
        if args.session:
            params["session_id"] = args.session
        if args.limit is not None:
            params["limit"] = args.limit
        if args.offset:
            params["offset"] = args.offset
        envelope = _post_backend(args.host, args.port, {"action": "list_jobs", "params": params})
    if not envelope.get("ok"):
        print(f"error: {envelope.get('error', 'request failed')}", file=sys.stderr)
        return 2
    data = envelope["data"]
    if args.json:
        print(json.dumps(data, indent=2))
        return 0
    jobs = data["jobs"] if "jobs" in data else [data["job"]]
    _print_table(
        [
            {
                "job_id": job["job_id"],
                "action": job["action"],
                "session": job["session_id"],
                "state": job["state"],
                "progress": job["progress"],
                "attached": job["attached"],
            }
            for job in jobs
        ]
    )
    if "engine" in data:
        engine = data["engine"]
        print(
            f"engine: {engine['submitted_total']} submitted, "
            f"{engine['coalesced_total']} coalesced, "
            f"{engine['executed_total']} executed, "
            f"queue depth {engine['pool']['queue_depth']}"
        )
    return 0


def _render_trace(spans: list[dict[str, Any]]) -> None:
    """Render span records as an indented tree ordered by start time.

    Offsets are milliseconds from the earliest span; children indent under
    their parent (spans whose parent is not in the record set — e.g. an
    already-evicted request span — render as roots).
    """
    if not spans:
        print("(no spans recorded for this trace)")
        return
    by_id = {span["span_id"]: span for span in spans}
    children: dict[str, list[dict[str, Any]]] = {}
    roots: list[dict[str, Any]] = []
    for span in sorted(spans, key=lambda s: (s["start_ts"], s["span_id"])):
        parent = span.get("parent_span_id") or ""
        if parent in by_id:
            children.setdefault(parent, []).append(span)
        else:
            roots.append(span)
    origin = min(span["start_ts"] for span in spans)

    def emit(span: dict[str, Any], depth: int) -> None:
        offset_ms = (span["start_ts"] - origin) * 1000.0
        duration = span.get("duration_ms")
        duration_text = f"{duration:8.2f}ms" if duration is not None else "      open"
        tags = span.get("tags") or {}
        tag_text = " ".join(f"{k}={v}" for k, v in tags.items())
        indent = "  " * depth
        print(
            f"{offset_ms:10.2f}ms {duration_text}  {indent}{span['name']}"
            + (f"  [{tag_text}]" if tag_text else "")
        )
        for child in children.get(span["span_id"], []):
            emit(child, depth + 1)

    print(f"trace {spans[0]['trace_id']} — {len(spans)} span(s)")
    print(f"{'offset':>12} {'duration':>10}  name")
    for root in roots:
        emit(root, 0)


def _command_trace(args: argparse.Namespace) -> int:
    """Fetch and render one job's span timeline from a running backend."""
    envelope = _post_backend(
        args.host, args.port, {"action": "job_status", "params": {"job_id": args.job_id}}
    )
    if not envelope.get("ok"):
        print(f"error: {envelope.get('error', 'request failed')}", file=sys.stderr)
        return 2
    data = envelope["data"]
    spans = data.get("trace") or []
    if args.json:
        print(json.dumps(spans, indent=2))
        return 0
    job = data.get("job", {})
    print(
        f"job {job.get('job_id', args.job_id)} "
        f"({job.get('action', '?')}, {job.get('state', '?')})"
    )
    _render_trace(spans)
    return 0


def _command_bench_engine(args: argparse.Namespace) -> int:
    from .engine.bench import run_engine_benchmark

    try:
        summary = run_engine_benchmark(
            use_case=args.use_case,
            rows=args.rows,
            n_jobs=max(1, args.jobs),
            workers=max(1, args.workers),
            amounts_per_job=max(2, args.amounts),
            seed=args.seed,
            executor=args.executor,
        )
    except RuntimeError as error:
        print(f"error: {error}", file=sys.stderr)
        return 2
    _emit(
        summary,
        args.json,
        lambda s: _print_table(
            [
                {
                    "jobs": s["n_jobs"],
                    "executor": s["executor"],
                    "workers": s["workers"],
                    "cpus": s["cpu_count"],
                    "serial_s": s["serial_s"],
                    "parallel_s": s["parallel_s"],
                    "speedup": s["speedup"],
                    "coalesced": s["coalescing"]["attached"],
                    "bitwise_equal": s["bitwise_equal"],
                }
            ]
        ),
    )
    return 0


def _command_check(args: argparse.Namespace) -> int:
    """Run the static analyzer; exit 1 on any unsuppressed finding."""
    from pathlib import Path

    from .check import format_json, format_text, run

    root = Path(args.root) if args.root else None
    findings = run(root, rule_ids=args.rules)
    if args.output_format == "json":
        report = format_json(findings)
    else:
        report = format_text(findings, show_suppressed=args.show_suppressed)
    print(report)
    if args.output:
        Path(args.output).write_text(report + "\n", encoding="utf-8")
    return 1 if any(not finding.suppressed for finding in findings) else 0


_COMMANDS = {
    "list-use-cases": _command_list_use_cases,
    "importance": _command_importance,
    "sensitivity": _command_sensitivity,
    "goal": _command_goal,
    "sweep": _command_sweep,
    "run-spec": _command_run_spec,
    "serve": _command_serve,
    "bench-sessions": _command_bench_sessions,
    "jobs": _command_jobs,
    "trace": _command_trace,
    "bench-engine": _command_bench_engine,
    "check": _command_check,
}


def main(argv: Sequence[str] | None = None) -> int:
    """CLI entry point; returns the process exit code."""
    args = build_parser().parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except (ValueError, KeyError) as error:
        print(f"error: {error}", file=sys.stderr)
        return 2
