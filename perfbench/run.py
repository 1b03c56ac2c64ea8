"""End-to-end benchmark: analyst workloads against ``repro serve`` over HTTP.

Usage, from the repository root::

    python3 perfbench/run.py --workload slider_8k --seed 1 --seconds 12 --trace 0

``--trace 0`` starts three fresh plain servers one after the other, sets each
up and drives it for a third of ``--seconds``, and reports every end-to-end
metric as the median over the three.  ``--trace 1`` drives a plain server and
then the traced launcher (``traced_serve.py``) for half the time each, and
reports the per-layer table.  Both check every response and compare a seeded
sample of results bitwise with in-process ``WhatIfSession`` results.
Human-readable lines come first; the last line of standard output is one
JSON object with ``correct``, ``attempted``, ``failed`` and ``metrics``.
The workloads are described in ``WORKLOADS.md``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any

sys.path.insert(0, str(Path(__file__).resolve().parent))

from harness import ROOT, SRC, BenchError, ServerProcess, request  # noqa: E402
from workloads import WORKLOADS, Analyst, Interaction, Workload  # noqa: E402

CLIENTS = 2
#: servers per untraced run; each is set up and timed once
SERVERS = 3
UNITS = {
    "latency_p50_ms": "ms",
    "latency_p90_ms": "ms",
    "throughput_rps": "interactions/s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}
#: program counters whose timed-phase deltas are reported
COUNTERS = (
    "repro_model_cache_events_total",
    "repro_jobs_finished_total",
    "repro_worker_units_total",
    "repro_worker_model_ships_total",
    "repro_persist_writes_total",
    "repro_persist_write_latency_ms",
)


@dataclass
class Phase:
    """One timed phase: what the clients saw plus the program's counters."""

    start: int
    end: int
    interactions: list[Interaction]
    analysts: list[Analyst]
    counters: dict[tuple[str, tuple], float]
    peak_rss_mb: float
    state_growth: int | None
    flags: list[str] = field(default_factory=list)

    def counter(self, name: str, **labels: str) -> float:
        """Sum of a counter's deltas over every child matching ``labels``."""
        want = set(labels.items())
        return sum(v for (n, lab), v in self.counters.items() if n == name and want <= set(lab))

    @property
    def ok(self) -> list[Interaction]:
        return [it for it in self.interactions if it.ok]


def _scrape(host: str, port: int) -> dict[tuple[str, tuple], float]:
    status, payload = request(host, port, "GET", "/api/v1/metrics?format=json")
    if status != 200 or not payload.get("ok"):
        raise BenchError(f"metrics endpoint answered HTTP {status}")
    flat: dict[tuple[str, tuple], float] = {}
    for name in COUNTERS:
        for sample in payload["data"]["metrics"][name]["samples"]:
            labels = tuple(sorted(sample["labels"].items()))
            if "value" in sample:
                flat[(name, labels)] = float(sample["value"])
            else:
                flat[(name, labels + (("stat", "count"),))] = float(sample["count"])
                flat[(name, labels + (("stat", "sum"),))] = float(sample["sum"])
    return flat


def _dir_bytes(path: Path | None) -> int | None:
    if path is None:
        return None
    return sum(f.stat().st_size for f in path.rglob("*") if f.is_file())


class Bench:
    """Server launches and timed phases of one invocation."""

    def __init__(self, workload: Workload, seed: int, workdir: Path):
        self.workload, self.seed, self.workdir = workload, seed, workdir
        self.launches = 0
        self.server_flags: list[str] = []

    def launch(self, *, traced: bool) -> tuple[ServerProcess, dict[str, Any], float, Path | None]:
        """Start a fresh server and set it up; also returns the set-up seconds."""
        self.launches += 1
        tag = str(self.launches)
        flags = ["--port", "0", *self.workload.flags]
        state_dir = None
        if self.workload.durable:
            state_dir = self.workdir / f"state-{tag}"
            flags += ["--state-dir", str(state_dir)]
        if traced:
            spans = str(self.workdir / f"spans-{tag}.json")
            command = [str(Path(__file__).with_name("traced_serve.py")), "--spans", spans, *flags]
        else:
            command = ["-m", "repro", "serve", *flags]
        self.server_flags = flags
        started = time.monotonic()
        server = ServerProcess(command, log_path=self.workdir / f"server-{tag}.log")
        try:
            state = self.workload.setup(server.host, server.port, self.seed)
        except BaseException:
            server.stop()
            raise
        return server, state, time.monotonic() - started, state_dir

    def timed(
        self,
        server: ServerProcess,
        state: dict[str, Any],
        seconds: float,
        state_dir: Path | None,
        *,
        job_traces: bool = False,
    ) -> Phase:
        """Drive ``server`` with the workload's clients for ``seconds``."""
        before = _scrape(server.host, server.port)
        size_before = _dir_bytes(state_dir)
        analysts = [
            Analyst(server.host, server.port, i, self.seed, job_traces=job_traces)
            for i in range(CLIENTS)
        ]
        start = time.monotonic_ns()
        deadline = start + int(seconds * 1e9)
        threads = [
            threading.Thread(target=self.workload.drive, args=(a, state, deadline), daemon=True)
            for a in analysts
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(seconds + 150)
        if any(thread.is_alive() for thread in threads):
            raise BenchError("a client did not finish within 150 s of the deadline")
        end = time.monotonic_ns()
        after = _scrape(server.host, server.port)
        counters = {key: after.get(key, 0.0) - before.get(key, 0.0) for key in after}
        size_after = _dir_bytes(state_dir)
        growth = None if size_before is None else size_after - size_before
        interactions = sorted((it for a in analysts for it in a.log), key=lambda it: it.start)
        phase = Phase(start, end, interactions, analysts, counters, server.peak_rss_mb(), growth)
        for what, count in (
            ("model cache misses", phase.counter("repro_model_cache_events_total", event="miss")),
            ("model ships", phase.counter("repro_worker_model_ships_total")),
            ("coalesced jobs", sum(it.coalesced for it in interactions)),
        ):
            if count:
                phase.flags.append(f"{int(count)} {what} during the timed phase")
        return phase


def _declared(kind: str) -> list[str]:
    """Metric names the JSON line carries: ``end_to_end`` or ``per_layer``
    of ``BENCHMARK.json``."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return [metric["name"] for metric in spec[kind]]


def _p(values: list[float], q: int) -> float:
    if len(values) < 2:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def _context(workload: Workload, seed: int, seconds: float, flags: list[str]) -> dict[str, Any]:
    import numpy

    digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        digest.update(path.relative_to(SRC).as_posix().encode())
        digest.update(path.read_bytes())
    # the ceiling keeps git from reporting an enclosing repository's commit
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            cwd=ROOT, env=env, capture_output=True, text=True, timeout=10, check=True,
        ).stdout.strip()  # fmt: skip
    except (OSError, subprocess.SubprocessError):
        commit = "unknown (not a git checkout)"
    return {
        "workload": workload.name,
        "seed": seed,
        "seconds": seconds,
        "clients": CLIENTS,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "server_flags": ["<fresh dir>" if f.startswith(str(ROOT)) else f for f in flags],
        "datasets": [c.label for c in workload.configs()],
        "commit": commit,
        "src_sha256": digest.hexdigest()[:16],
    }


def _print_metric(name: str, value: float, unit: str, note: str = "") -> None:
    print(f"  {name:<30} {value:>14.4f} {unit:<15} {note}")


def _figures(phase: Phase) -> dict[str, float]:
    """Headline end-to-end figures of one timed phase."""
    ok = phase.ok
    if not ok:
        first = phase.interactions[0].error if phase.interactions else "none sent"
        raise BenchError(f"no interaction succeeded; first error: {first}")
    latencies = [it.latency_ms for it in ok]
    # each closed-loop client's own rate: its completions over the time up to
    # its last one, so no client waits on the other's last answer
    throughput = 0.0
    for analyst in phase.analysts:
        if analyst.log:
            done = sum(it.ok for it in analyst.log)
            throughput += done / ((analyst.log[-1].end - phase.start) / 1e9)
    return {
        "latency_p50_ms": statistics.median(latencies),
        "latency_p90_ms": _p(latencies, 90),
        "throughput_rps": throughput,
        "peak_rss_mb": phase.peak_rss_mb,
    }


def _print_phase(label: str, workload: Workload, phase: Phase, figures: dict[str, float]) -> None:
    summary = ", ".join(f"{k} {v:.4f}" for k, v in figures.items())
    print(f"{label}: {summary}, interactions {len(phase.ok)}/{len(phase.interactions)} ok")
    perturbing = [it for it in phase.interactions if it.perturbed]
    single = sum(it.perturbed == 1 for it in perturbing)
    shares = {
        "single_driver_share": single / max(1, len(perturbing)),
        "perturbing_interactions": len(perturbing),
        "sweep_sizes": sorted({it.scenarios for it in phase.interactions if it.scenarios}),
    }
    print("  shares " + json.dumps(shares))
    deltas: dict[str, Any] = {}
    for name in COUNTERS:
        if name == "repro_persist_write_latency_ms":
            count = phase.counter(name, stat="count")
            mean = phase.counter(name, stat="sum") / count if count else 0.0
            deltas[name] = {"count": count, "mean_ms": mean}
            continue
        by_label: dict[str, float] = {}
        for (metric, labels), value in phase.counters.items():
            if metric == name and value:
                key = ",".join(f"{k}={v}" for k, v in labels if k != "worker") or "total"
                by_label[key] = by_label.get(key, 0.0) + value
        deltas[name] = by_label
    print("  counters " + json.dumps(deltas, sort_keys=True))
    for flag in phase.flags:
        print(f"  FLAGGED: {flag} -- the run no longer measures what {workload.name} says")


def _print_actions(workload: Workload, phases: list[Phase]) -> None:
    """Error ratio and per-action medians pooled over ``phases``."""
    interactions = [it for phase in phases for it in phase.interactions]
    failed = sum(not it.ok for it in interactions)
    ratio = failed / max(1, len(interactions))
    _print_metric("error_ratio", ratio, "failed/attempted", f"{failed}/{len(interactions)}")
    for metric, kind in workload.action_metrics:
        if kind == "session_open":
            values = [v for phase in phases for a in phase.analysts for v in a.sessions_open]
        else:
            values = [it.latency_ms for it in interactions if it.ok and it.kind == kind]
        if values:
            _print_metric(metric, statistics.median(values), "ms", f"n={len(values)}")


def _untraced(bench: Bench, seconds: float) -> tuple[list[Phase], dict[str, dict[str, Any]]]:
    # a burst of machine noise during one server's set-up or timed phase
    # does not move the median of three
    phases, setups = [], []
    for _ in range(SERVERS):
        server, state, setup_s, state_dir = bench.launch(traced=False)
        setups.append(setup_s)
        try:
            phases.append(bench.timed(server, state, seconds / SERVERS, state_dir))
        finally:
            server.stop()
    workload = bench.workload
    print("context " + json.dumps(_context(workload, bench.seed, seconds, bench.server_flags)))
    per_server = []
    for i, (phase, setup_s) in enumerate(zip(phases, setups), 1):
        figures = _figures(phase)
        _print_phase(f"server {i}", workload, phase, figures)
        per_server.append(dict(figures, setup_s=setup_s))
    n = sum(len(phase.ok) for phase in phases)
    print(f"end-to-end (median of {SERVERS} servers; {n} interactions in all):")
    metrics = {}
    for name in _declared("end_to_end"):
        values = [figures[name] for figures in per_server]
        metrics[name] = {"value": statistics.median(values), "unit": UNITS[name]}
        note = "of " + ", ".join(f"{v:.4f}" for v in values)
        _print_metric(name, metrics[name]["value"], UNITS[name], note)
    _print_actions(workload, phases)
    return phases, metrics


def _traced(bench: Bench, seconds: float) -> tuple[list[Phase], dict[str, dict[str, Any]]]:
    from layers import UNITS as LAYER_UNITS
    from layers import layer_table

    workload = bench.workload
    phases = []
    for traced in (False, True):
        server, state, _, state_dir = bench.launch(traced=traced)
        job_traces = traced and "process" in workload.flags
        try:
            phases.append(bench.timed(server, state, seconds / 2, state_dir, job_traces=job_traces))
        finally:
            server.stop()
    print("context " + json.dumps(_context(workload, bench.seed, seconds, bench.server_flags)))
    plain, traced_figures = _figures(phases[0]), _figures(phases[1])
    _print_phase("untraced server", workload, phases[0], plain)
    _print_phase("traced server", workload, phases[1], traced_figures)
    _print_actions(workload, phases[1:])
    spans_path = bench.workdir / f"spans-{bench.launches}.json"
    spans = json.loads(spans_path.read_text(encoding="utf-8"))["spans"]
    table, problems = layer_table(
        workload, spans, phases[1], plain["latency_p50_ms"], traced_figures["latency_p50_ms"]
    )
    print("per-layer (self time per interaction; core.fit*/core.confidence per traced set-up):")
    for name, unit in LAYER_UNITS.items():
        if name in table:
            _print_metric(name, table[name], unit)
    declared = _declared("per_layer")
    problems += [f"per-layer metric {name} was not reached" for name in declared
                 if name not in table]
    if problems:
        raise BenchError("; ".join(problems))
    return phases, {name: {"value": table[name], "unit": LAYER_UNITS[name]} for name in declared}


def _compare_phases(phases: list[Phase]) -> list[str]:
    """Every phase replays one seeded stream, so the results sampled in the
    later phases must equal the first phase's."""

    def key(sample) -> tuple[str, str]:
        return sample.interaction.kind, json.dumps(sample.params, sort_keys=True)

    first = {
        key(s): json.dumps(s.result, sort_keys=True) for a in phases[0].analysts for s in a.samples
    }
    problems = []
    for phase in phases[1:]:
        for sample in (s for a in phase.analysts for s in a.samples):
            expected = first.get(key(sample))
            if expected is not None and expected != json.dumps(sample.result, sort_keys=True):
                sample.interaction.ok = False
                problems.append(f"{sample.action}: servers disagree on one seeded request")
    return problems


def run(
    workload: Workload, seed: int, seconds: float, trace: bool, workdir: Path
) -> dict[str, Any]:
    """One benchmark invocation; returns the result object of the last line."""
    print(f"workload {workload.name} seed {seed} seconds {seconds:g} trace {int(trace)}")
    bench = Bench(workload, seed, workdir)
    phases, metrics = (_traced if trace else _untraced)(bench, seconds)

    from reference import check_samples

    checked = time.monotonic()
    samples = [s for a in phases[0].analysts for s in a.samples]
    problems = check_samples(samples) + _compare_phases(phases)
    interactions = [it for phase in phases for it in phase.interactions]
    failed = [it for it in interactions if not it.ok]
    for it in failed[:5]:
        print(f"  FAILED {it.kind}: {it.error}")
    print(
        f"reference check: {len(samples)} sampled results compared bitwise with WhatIfSession "
        f"({time.monotonic() - checked:.1f} s), {len(problems)} mismatches"
    )
    return {
        "correct": not failed and not problems,
        "attempted": len(interactions),
        "failed": len(failed),
        "metrics": metrics,
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"error: no repro package under {SRC}; run from a full checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    base = ROOT / ".perfbench"
    base.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix="run-", dir=base))
    started = time.monotonic()
    try:
        result = run(WORKLOADS[args.workload], args.seed, args.seconds, bool(args.trace), workdir)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print(f"wall {time.monotonic() - started:.1f} s")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
