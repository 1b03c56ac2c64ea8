"""Run ``repro serve`` with the served path's layer calls wrapped in spans.

Usage (from the repository root, ``src`` on ``PYTHONPATH``)::

    python perfbench/traced_serve.py --spans SPANS.json [repro serve flags]

Every call :func:`install` names is replaced, at the name it is called
through, by a wrapper that records one span: layer name, start and end
(``time.monotonic_ns``, the clock the benchmark's clients use), its own id,
the id of the enclosing span on the same thread, the thread, and the job id
of the analysis it serves.  The job id comes from the job argument of
``AnalysisEngine._run`` and ``AnalysisEngine.result`` and from the return
value of ``AnalysisEngine.submit``; spans opened while a job runs inherit it.
Spans stay in memory and are written to ``--spans`` when the server is
interrupted.  The server itself is built by ``repro.server.serve_http`` with
the same flags the untraced run passes to ``repro serve``.
"""

from __future__ import annotations

import argparse
import functools
import importlib
import itertools
import json
import threading
import time
from typing import Any, Callable

#: ``(layer, start_ns, end_ns, span_id, parent_id, thread, job_id, extra)``
_SPANS: list[tuple] = []
_IDS = itertools.count(1)
_LOCAL = threading.local()


def _wrap(module: str, path: str, layer: str, annotate: Callable[..., Any] | None = None,
          *, job_arg: bool = False, job_result: bool = False) -> None:
    owner: Any = importlib.import_module(module)
    *parents, attr = path.split(".")
    for name in parents:
        owner = getattr(owner, name)
    original = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)

    @functools.wraps(original)
    def wrapper(*args: Any, **kwargs: Any) -> Any:
        stack = getattr(_LOCAL, "stack", None)
        if stack is None:
            stack = _LOCAL.stack = []
            _LOCAL.job = ""
        span_id = next(_IDS)
        parent = stack[-1] if stack else 0
        outer_job = _LOCAL.job
        if job_arg:
            job = args[1]
            _LOCAL.job = job if isinstance(job, str) else job.job_id
        stack.append(span_id)
        result = None
        start = time.monotonic_ns()
        try:
            result = original(*args, **kwargs)
            return result
        finally:
            end = time.monotonic_ns()
            stack.pop()
            job_id = _LOCAL.job
            if job_result and result is not None:
                job_id = result[0].job_id
            _LOCAL.job = outer_job
            extra = annotate(args, result) if annotate is not None else None
            thread = threading.get_ident()
            _SPANS.append((layer, start, end, span_id, parent, thread, job_id, extra))

    setattr(owner, attr, wrapper)


def _rows_trees(args: tuple, result: Any) -> list[int]:
    return [int(args[1].shape[0]), int(args[0].n_trees)]


def _rest_target(args: tuple, result: Any) -> list[Any]:
    return [args[1], args[2], sorted(args[3] or {})]


def install() -> None:
    """Wrap every layer call of the served path."""
    _wrap("repro.server.app", "SystemDServer.handle_rest", "server.dispatch", _rest_target)
    _wrap("repro.server.app", "SystemDServer.handle", "server.dispatch")
    for module in ("repro.server.app", "repro.server.handlers", "repro.engine.engine"):
        _wrap(module, "to_json_safe", "server.serialize")
    _wrap("repro.engine.engine", "AnalysisEngine.submit", "engine.submit", job_result=True)
    _wrap("repro.engine.engine", "AnalysisEngine._run", "engine.run", job_arg=True)
    _wrap("repro.engine.engine", "AnalysisEngine.result", "engine.result_wait", job_arg=True)
    _wrap("repro.engine.process", "ProcessExecutor.run_units", "engine.process.run_units",
          lambda args, result: len(args[2]))
    _wrap("repro.core.session", "model_fingerprint", "core.fingerprint")
    _wrap("repro.core.cache", "ModelCache.get_or_create", "core.model_fetch")
    _wrap("repro.core.model_manager", "ModelManager.fit", "core.fit")
    _wrap("repro.core.model_manager", "ModelManager.confidence", "core.confidence")
    _wrap("repro.core.model_manager", "ModelManager.predict_kpi_batch", "core.batch")
    _wrap("repro.core.perturbation", "PerturbationSet.apply_to_matrix", "core.perturb")
    _wrap("repro.core.perturbation", "Perturbation.apply_to_matrix", "core.perturb")
    _wrap("repro.core.kpi", "KPI.aggregate", "core.aggregate")
    _wrap("repro.ml.kernel", "ForestKernel.predict_proba", "ml.traverse", _rows_trees)
    _wrap("repro.ml.kernel", "ForestKernel.predict", "ml.traverse", _rows_trees)
    _wrap("repro.scenarios.planner", "grid_sweep_kpis", "scenarios.grid")
    for module in ("repro.scenarios.kernel", "repro.scenarios.planner"):
        _wrap(module, "grid_kernel_applies", "scenarios.grid_check", lambda _, result: bool(result))
    _wrap("repro.scenarios.planner", "SweepPlanner.run", "scenarios.plan",
          lambda args, result: None if result is None else int(result.n_scenarios))
    _wrap("repro.optimize.gp", "GaussianProcessRegressor.fit", "optimize.gp_fit")
    _wrap("repro.optimize.bayesian", "BayesianOptimizer.ask", "optimize.ask")
    _wrap_gp_minimize()
    for name, layer in (
        ("global_shapley_importance", "stats.shapley"),
        ("permutation_importance", "stats.permutation"),
        ("pearson_correlation", "stats.correlation"),
        ("spearman_correlation", "stats.correlation"),
    ):
        _wrap("repro.core.driver_importance", name, layer)
    for method in ("save_session", "append_scenario", "save_version", "save_job",
                   "delete_session", "delete_job"):
        _wrap("repro.persist.backend", f"StateBackend.{method}", "persist.write")
    _wrap("repro.datasets.registry", "UseCase.load", "datasets.load")
    _wrap("repro.server.handlers", "frame_preview", "frame.preview")
    _wrap("repro.frame.dataframe", "DataFrame.to_matrix", "frame.to_matrix")


def _wrap_gp_minimize() -> None:
    """``gp_minimize`` as ``repro.core.goal_inversion`` calls it, with its
    objective counted: the span's extra is the number of evaluations."""
    module = importlib.import_module("repro.core.goal_inversion")
    original = module.gp_minimize
    counts = threading.local()

    @functools.wraps(original)
    def counted(objective: Callable[..., float], *args: Any, **kwargs: Any) -> Any:
        counts.evals = 0

        def evaluate(*eval_args: Any, **eval_kwargs: Any) -> float:
            counts.evals += 1
            return objective(*eval_args, **eval_kwargs)

        return original(evaluate, *args, **kwargs)

    module.gp_minimize = counted
    _wrap("repro.core.goal_inversion", "gp_minimize", "optimize.loop", lambda *_: counts.evals)


def write_spans(path: str) -> None:
    with open(path, "w", encoding="utf-8") as handle:
        json.dump({"spans": list(_SPANS)}, handle)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--spans", required=True, help="file the spans are written to at shutdown")
    parser.add_argument("--host", default="127.0.0.1")
    parser.add_argument("--port", type=int, default=8765)
    parser.add_argument("--executor", choices=("thread", "process"), default="thread")
    parser.add_argument("--workers", type=int, default=4)
    parser.add_argument("--state-dir", default=None)
    args = parser.parse_args()

    install()
    from repro.server import serve_http

    httpd = serve_http(
        args.host,
        args.port,
        executor=args.executor,
        workers=max(1, args.workers),
        state_dir=args.state_dir,
    )
    print(
        f"SystemD backend listening on http://{args.host}:{httpd.server_address[1]} "
        f"(executor={httpd.backend.engine.executor_kind}, traced)",
        flush=True,
    )
    try:
        httpd.serve_forever()
    except KeyboardInterrupt:
        pass
    finally:
        httpd.server_close()
        write_spans(args.spans)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
