"""P1 (performance): the single-perturbation interactions stay interactive.

The paper's future-work section highlights "fast real-time response when the
data is large" as a requirement for the what-if interactions.  This check
times the server path (request -> handler -> model -> response) of a
one-driver sensitivity and a per-data drill-down at 500 rows, and the
sensitivity again at 8,000 rows: both stay well under a second at the small
size, and latency grows with dataset size rather than exploding
unpredictably.  ``perfbench/`` reports the per-action latency of every
interaction over HTTP.
"""

from __future__ import annotations

from repro.server import SystemDServer


def _loaded(n_prospects: int) -> SystemDServer:
    server = SystemDServer()
    response = server.request(
        "load_use_case", use_case="deal_closing", dataset_kwargs={"n_prospects": n_prospects}
    )
    assert response.ok, response.error
    assert server.state.session.model is not None  # fit outside the timed requests
    return server


def _elapsed_ms(server: SystemDServer, action: str, **params) -> float:
    response = server.request(action, **params)
    assert response.ok, response.error
    return response.elapsed_ms


def test_interactive_latency_by_dataset_size():
    small = _loaded(500)
    sensitivity_500 = _elapsed_ms(
        small, "sensitivity", perturbations={"Open Marketing Email": 40.0}
    )
    per_data_500 = _elapsed_ms(small, "per_data", row_index=0, perturbations={"Call": 20.0})
    sensitivity_8000 = _elapsed_ms(
        _loaded(8000), "sensitivity", perturbations={"Open Marketing Email": 40.0}
    )

    assert sensitivity_500 < 1000.0
    assert per_data_500 < 500.0
    assert sensitivity_8000 >= sensitivity_500 * 0.5
