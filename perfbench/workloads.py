"""The three analyst workloads and the closed-loop client that drives them.

Every workload runs two client threads in one process.  Each client is a
closed loop with no think time: it sends an interaction, waits for the
answer, checks it, and sends the next.  An interaction is one analyst
action: for an analysis, the job submit plus ``GET .../jobs/{jid}?result=1``
(timed from sending the submit to receiving the result); for a session or
ledger action, the single request.  Only ``/api/v1`` routes are used.

The request stream is a function of the seed alone: each client draws every
parameter from ``random.Random`` seeded by ``(seed, client)``.  Analysis
mixes follow a fixed smooth interleave (the two clients half a cycle apart),
so any stretch of a run holds each action's share to within one interaction
and a short run does not swing with the luck of the draw.  Why each
workload exists and what it exercises is in ``WORKLOADS.md``.
"""

from __future__ import annotations

import http.client
import math
import random
import threading
import time
from dataclasses import dataclass, field
from typing import Any, Callable

from harness import BenchError, request

#: ``timeout_s`` passed to the blocking result fetch; expiry is a failure.
JOB_TIMEOUT_S = 60
#: Socket timeout of one HTTP round trip (above ``JOB_TIMEOUT_S``).
HTTP_TIMEOUT_S = 90.0

SIZE_PARAM = {
    "deal_closing": "n_prospects",
    "customer_retention": "n_customers",
    "marketing_mix": "n_days",
}

#: Perturbation amounts (percent) clients draw from: nonzero, within ±50%.
AMOUNTS = [a for a in range(-50, 51) if a != 0]

#: Keys every successful job result must carry, per job action.
RESULT_KEYS = {
    "sensitivity": ("original_kpi", "perturbed_kpi", "uplift", "perturbations"),
    "per_data": ("original_prediction", "perturbed_prediction", "row_index"),
    "comparison": ("original_kpi", "points"),
    "run_sweep": ("baseline_kpi", "n_scenarios", "top", "marginals"),
    "goal_inversion": ("best_kpi", "original_kpi", "driver_changes", "model_confidence"),
    "driver_importance": ("drivers", "model_confidence", "agreement"),
}

#: What a failed request can raise on the client side.
_CLIENT_ERRORS = (OSError, http.client.HTTPException, KeyError, TypeError, ValueError)


class Mismatch(Exception):
    """A response with the wrong status, envelope or shape."""


@dataclass(frozen=True)
class Config:
    """One dataset + model configuration a session can be opened on."""

    use_case: str
    rows: int
    model_seed: int

    def session_body(self, dataset_seed: int) -> dict[str, Any]:
        kwargs = {SIZE_PARAM[self.use_case]: self.rows, "random_state": dataset_seed}
        return {
            "use_case": self.use_case,
            "dataset_kwargs": kwargs,
            "random_state": self.model_seed,
        }

    @property
    def label(self) -> str:
        return f"{self.use_case}/{self.rows}/m{self.model_seed}"


@dataclass
class Interaction:
    """One timed analyst action as the client saw it."""

    kind: str
    start: int
    end: int = 0
    ok: bool = False
    error: str = ""
    requests: list[tuple[int, int]] = field(default_factory=list)
    job_id: str = ""
    wait_s: float = 0.0
    run_s: float = 0.0
    coalesced: bool = False
    units: list[float] = field(default_factory=list)
    #: drivers the request perturbs, and scenarios a sweep scores
    perturbed: int = 0
    scenarios: int = 0

    @property
    def latency_ms(self) -> float:
        return (self.end - self.start) / 1e6


@dataclass
class Sample:
    """A served job result kept for the in-process reference comparison."""

    config: Config
    dataset_seed: int
    action: str
    params: dict[str, Any]
    result: Any
    interaction: Interaction


def _finite(value: Any) -> bool:
    return isinstance(value, (int, float)) and math.isfinite(value)


def _check_result(action: str, params: dict[str, Any], result: Any) -> None:
    if not isinstance(result, dict):
        raise Mismatch(f"{action}: result is {type(result).__name__}, not an object")
    missing = [key for key in RESULT_KEYS[action] if key not in result]
    if missing:
        raise Mismatch(f"{action}: result lacks {missing}")
    if action == "sensitivity":
        if not (_finite(result["perturbed_kpi"]) and _finite(result["original_kpi"])):
            raise Mismatch("sensitivity: non-finite KPI")
    elif action == "per_data":
        if not _finite(result["perturbed_prediction"]):
            raise Mismatch("per_data: non-finite prediction")
    elif action == "comparison":
        points = result["points"]
        expected = len(params["drivers"]) * len(params["amounts"])
        if len(points) != expected or not all(_finite(p["kpi_value"]) for p in points):
            raise Mismatch(f"comparison: {len(points)} points, expected {expected}")
    elif action == "run_sweep":
        expected = math.prod(len(axis["amounts"]) for axis in params["space"]["axes"])
        if result["n_scenarios"] != expected or not result["top"]:
            raise Mismatch(f"run_sweep: {result['n_scenarios']} scenarios, expected {expected}")
    elif action == "goal_inversion":
        if not _finite(result["best_kpi"]):
            raise Mismatch("goal_inversion: non-finite best KPI")
    elif action == "driver_importance":
        drivers = result["drivers"]
        verified = all(d.get("verification") for d in drivers)
        if not drivers or (params.get("verify", True) and not verified):
            raise Mismatch("driver_importance: drivers or verification missing")


class Analyst:
    """One closed-loop client with its own seeded request stream."""

    def __init__(self, host: str, port: int, index: int, seed: int, *, job_traces: bool = False):
        self.host, self.port, self.index = host, port, index
        self.rng = random.Random(f"{seed}:{index}")
        self.job_traces = job_traces
        self.log: list[Interaction] = []
        self.samples: list[Sample] = []
        self.sessions_open: list[float] = []

    # -- transport ----------------------------------------------------------
    def _send(
        self, it: Interaction, method: str, path: str, body: Any, status: int
    ) -> dict[str, Any]:
        started = time.monotonic_ns()
        try:
            code, payload = request(
                self.host, self.port, method, path, body, timeout=HTTP_TIMEOUT_S
            )
        finally:
            it.requests.append((started, time.monotonic_ns()))
        if code != status or payload.get("ok") is not True or payload.get("api_version") != "1":
            raise Mismatch(
                f"{method} {path}: HTTP {code}, expected {status}: {payload.get('error')}"
            )
        data = payload.get("data")
        if not isinstance(data, dict):
            raise Mismatch(f"{method} {path}: envelope without a data object")
        return data

    def _interaction(self, kind: str, body: Callable[[Interaction], Any]) -> Any:
        it = Interaction(kind, time.monotonic_ns())
        result = None
        try:
            result = body(it)
            it.ok = True
        except (Mismatch, *_CLIENT_ERRORS) as exc:
            it.error = f"{type(exc).__name__}: {exc}"
        finally:
            it.end = time.monotonic_ns()
            self.log.append(it)
        return result if it.ok else None

    # -- actions ------------------------------------------------------------
    def job(
        self, kind: str, sid: str, action: str, params: dict[str, Any]
    ) -> dict[str, Any] | None:
        """Submit one analysis job and block on its result."""

        def body(it: Interaction) -> dict[str, Any]:
            it.perturbed = len(params.get("perturbations", ()))
            if action == "run_sweep":
                it.scenarios = math.prod(len(a["amounts"]) for a in params["space"]["axes"])
            submit = {"action": action, "params": params}
            data = self._send(it, "POST", f"/api/v1/sessions/{sid}/jobs", submit, 201)
            job_id = str(data["job"]["job_id"])
            it.job_id, it.coalesced = job_id, bool(data["coalesced"])
            wait = f"?result=1&wait=1&timeout_s={JOB_TIMEOUT_S}"
            data = self._send(it, "GET", f"/api/v1/sessions/{sid}/jobs/{job_id}{wait}", None, 200)
            snapshot = data["job"]
            if snapshot["state"] != "done" or snapshot["job_id"] != job_id:
                raise Mismatch(f"job {job_id} came back {snapshot['state']}")
            it.wait_s = float(snapshot["wait_seconds"])
            it.run_s = float(snapshot["run_seconds"])
            _check_result(action, params, data["result"])
            return data["result"]

        result = self._interaction(kind, body)
        if result is not None and self.job_traces:
            self._fetch_units(self.log[-1], sid)
        return result

    def _fetch_units(self, it: Interaction, sid: str) -> None:
        """Worker ``unit`` span durations the program reports for a job
        (traced runs only; outside the interaction's timing)."""
        path = f"/api/v1/sessions/{sid}/jobs/{it.job_id}"
        try:
            code, payload = request(self.host, self.port, "GET", path, timeout=HTTP_TIMEOUT_S)
        except _CLIENT_ERRORS:
            return
        if code == 200 and payload.get("ok"):
            it.units = [
                float(span["duration_ms"])
                for span in payload["data"].get("trace", [])
                if span.get("name") == "unit" and span.get("duration_ms") is not None
            ]

    def create_session(self, config: Config, dataset_seed: int) -> tuple[str, list[str]] | None:
        def body(it: Interaction) -> tuple[str, list[str]]:
            request_body = config.session_body(dataset_seed)
            data = self._send(it, "POST", "/api/v1/sessions", request_body, 201)
            drivers = data["drivers"]
            if data.get("use_case") != config.use_case or not drivers or not data.get("table"):
                raise Mismatch(f"create_session: unexpected payload for {config.label}")
            return str(data["session_id"]), list(drivers)

        return self._interaction("session_create", body)

    def simple(
        self,
        kind: str,
        method: str,
        path: str,
        request_body: Any,
        status: int,
        check: Callable[[dict[str, Any]], None],
    ) -> bool:
        """One single-request interaction whose data ``check`` validates."""

        def body(it: Interaction) -> bool:
            check(self._send(it, method, path, request_body, status))
            return True

        return bool(self._interaction(kind, body))


# --------------------------------------------------------------------------- #
# request generators
# --------------------------------------------------------------------------- #
def _levels(rng: random.Random, count: int) -> list[float]:
    return sorted(float(a) for a in rng.sample(AMOUNTS, count))


def _perturb(rng: random.Random, drivers: list[str], count: int) -> dict[str, float]:
    return {d: float(rng.choice(AMOUNTS)) for d in rng.sample(drivers, count)}


def _cycle(counts: dict[str, int], offset: int):
    """Endless smooth weighted round robin over ``counts``: every stretch of
    the sequence holds each action's share to within one interaction."""
    total = sum(counts.values())
    score = dict.fromkeys(counts, 0)
    order = []
    for _ in range(total):
        for kind, weight in counts.items():
            score[kind] += weight
        pick = max(score, key=score.get)
        score[pick] -= total
        order.append(pick)
    step = offset % total
    while True:
        yield order[step]
        step = (step + 1) % total


def _axis(driver: str, levels: list[float]) -> dict[str, Any]:
    return {"driver": driver, "amounts": levels}


def _require(analyst: Analyst, value: Any) -> Any:
    """``value``, or a set-up failure naming the analyst's last error."""
    if value is None:
        it = analyst.log[-1]
        raise BenchError(f"set-up {it.kind} failed: {it.error}")
    return value


class Workload:
    """A server configuration plus what its two clients send."""

    name = ""
    flags: tuple[str, ...] = ()
    durable = False
    #: layer spans that must record calls in this workload's traced run
    expected_layers: tuple[str, ...] = ()
    #: per-action medians printed for this workload: (metric, kind)
    action_metrics: tuple[tuple[str, str], ...] = ()

    def configs(self) -> list[Config]:
        raise NotImplementedError

    def setup(self, host: str, port: int, seed: int) -> dict[str, Any]:
        raise NotImplementedError

    def drive(self, analyst: Analyst, state: dict[str, Any], deadline: int) -> None:
        raise NotImplementedError

    def _keep(
        self,
        analyst: Analyst,
        kind: str,
        config: Config,
        seed: int,
        action: str,
        params: dict[str, Any],
        result: Any,
    ) -> None:
        """Keep client 0's first result of each kind for the reference check."""
        if result is None or analyst.index != 0:
            return
        if all(s.interaction.kind != kind for s in analyst.samples):
            sample = Sample(config, seed, action, params, result, analyst.log[-1])
            analyst.samples.append(sample)


class _SharedModelWorkload(Workload):
    """Two sessions on one ``deal_closing`` configuration, one per client."""

    rows = 0

    def configs(self) -> list[Config]:
        return [Config("deal_closing", self.rows, 0)]

    def warmups(self, drivers: list[str]) -> list[tuple[str, dict[str, Any]]]:
        """Jobs run once on the first session before timing: they fit the
        shared model, fill its lazy state (baseline, ``confidence()``) and
        pay every first-call cost of the timed mix."""
        return []

    def setup(self, host: str, port: int, seed: int) -> dict[str, Any]:
        config = self.configs()[0]
        boot = Analyst(host, port, -1, seed)
        sessions = []
        for _ in range(2):
            sid, drivers = _require(boot, boot.create_session(config, seed))
            sessions.append(sid)
        for action, params in self.warmups(drivers):
            _require(boot, boot.job(f"warm-up {action}", sessions[0], action, params))
        for sid in sessions:  # bind the fitted model to both sessions
            params = {"row_index": 0, "perturbations": {drivers[0]: 10.0}}
            _require(boot, boot.job("warm-up per_data", sid, "per_data", params))
        return {"config": config, "sessions": sessions, "drivers": drivers, "seed": seed}


class Slider8k(_SharedModelWorkload):
    """The paper's core loop: drag one slider, watch the KPI."""

    name = "slider_8k"
    rows = 8000
    expected_layers = (
        "server.dispatch", "server.serialize", "engine.submit", "engine.run",
        "engine.result_wait", "core.fingerprint", "core.fit", "core.perturb", "core.aggregate",
        "ml.traverse", "frame.to_matrix", "persist.write",
    )  # fmt: skip
    action_metrics = (("sensitivity_p50_ms", "sensitivity"), ("per_data_p50_ms", "per_data"))

    def warmups(self, drivers: list[str]) -> list[tuple[str, dict[str, Any]]]:
        return [("sensitivity", {"perturbations": {drivers[0]: 10.0}})]

    def drive(self, analyst: Analyst, state: dict[str, Any], deadline: int) -> None:
        rng, config, drivers = analyst.rng, state["config"], state["drivers"]
        sid = state["sessions"][analyst.index]
        deck = _cycle({"sensitivity": 3, "per_data": 1}, 2 * analyst.index)
        while time.monotonic_ns() < deadline:
            kind = next(deck)
            params: dict[str, Any] = {"perturbations": _perturb(rng, drivers, 1)}
            if kind == "per_data":
                params["row_index"] = rng.randrange(config.rows)
            result = analyst.job(kind, sid, kind, params)
            self._keep(analyst, kind, config, state["seed"], kind, params, result)


class Explore2k(_SharedModelWorkload):
    """The heavy analyses: comparison, two sweep shapes, goal inversion,
    verified driver importance."""

    name = "explore_2k"
    rows = 2000
    expected_layers = (
        "server.dispatch", "server.serialize", "engine.submit", "engine.run",
        "engine.result_wait", "core.fingerprint", "core.fit", "core.confidence", "core.perturb",
        "core.batch", "core.aggregate", "ml.traverse", "scenarios.grid", "scenarios.grid_check",
        "scenarios.plan", "optimize.gp_fit", "optimize.ask", "optimize.loop", "stats.shapley",
        "stats.permutation", "stats.correlation", "persist.write",
    )  # fmt: skip
    action_metrics = (
        ("comparison_p50_ms", "comparison"),
        ("sweep_small_p50_ms", "sweep_small"),
        ("sweep_grid_p50_ms", "sweep_grid"),
        ("goal_inversion_p50_ms", "goal_inversion"),
        ("importance_p50_ms", "importance"),
    )
    MIX = {"comparison": 5, "sweep_small": 4, "sweep_grid": 3, "goal_inversion": 5, "importance": 3}

    def warmups(self, drivers: list[str]) -> list[tuple[str, dict[str, Any]]]:
        return [
            ("driver_importance", {"verify": False}),
            ("comparison", {"drivers": drivers[:1], "amounts": [20.0]}),
            ("run_sweep", {"space": {"axes": [_axis(drivers[0], [-10.0, 10.0])]}}),
            ("goal_inversion", {"goal": "maximize", "drivers": drivers[:2], "n_calls": 10}),
        ]

    def drive(self, analyst: Analyst, state: dict[str, Any], deadline: int) -> None:
        rng, config, drivers = analyst.rng, state["config"], state["drivers"]
        sid = state["sessions"][analyst.index]
        deck = _cycle(self.MIX, 10 * analyst.index)
        while time.monotonic_ns() < deadline:
            kind = next(deck)
            params: dict[str, Any]
            if kind == "comparison":
                action = "comparison"
                params = {"drivers": rng.sample(drivers, 3), "amounts": [-40.0, -20.0, 20.0, 40.0]}
            elif kind == "sweep_small":
                action = "run_sweep"
                params = {"space": {"axes": [_axis(rng.choice(drivers), _levels(rng, 5))]}}
            elif kind == "sweep_grid":
                action = "run_sweep"
                chosen = rng.sample(drivers, 3)
                axes = [_axis(d, _levels(rng, n)) for d, n in zip(chosen, (6, 5, 4))]
                params = {"space": {"axes": axes}}
            elif kind == "goal_inversion":
                action = "goal_inversion"
                params = {"goal": "maximize", "drivers": rng.sample(drivers, 3), "n_calls": 20}
            else:
                action, params = "driver_importance", {"verify": True}
            result = analyst.job(kind, sid, action, params)
            self._keep(analyst, kind, config, state["seed"], action, params, result)


class VisitsDurable(Workload):
    """Short analyst visits on fresh sessions against durable state."""

    name = "visits_durable"
    flags = ("--executor", "process", "--workers", "2")
    durable = True
    expected_layers = (
        "server.dispatch", "server.serialize", "engine.submit", "engine.run",
        "engine.result_wait", "engine.process.run_units", "core.fingerprint", "core.model_fetch",
        "core.fit", "ml.traverse", "datasets.load", "frame.preview", "frame.to_matrix",
        "persist.write",
    )  # fmt: skip
    action_metrics = (
        ("sensitivity_p50_ms", "sensitivity"),
        ("per_data_p50_ms", "per_data"),
        ("sweep_small_p50_ms", "sweep_small"),
        ("session_open_p50_ms", "session_open"),
    )
    TRACKED = ["s1", "s2", "s3", "sweep"]

    def configs(self) -> list[Config]:
        # 3 use cases x 2 sizes x model seeds 0/1 = 12 models, well inside
        # the 32-entry ModelCache, all fitted and shipped during set-up
        sizes = {
            "deal_closing": (120, 400),
            "customer_retention": (120, 400),
            "marketing_mix": (180, 800),
        }
        return [
            Config(use_case, rows, model_seed)
            for use_case, pair in sizes.items()
            for rows in pair
            for model_seed in (0, 1)
        ]

    def setup(self, host: str, port: int, seed: int) -> dict[str, Any]:
        configs = self.configs()
        drivers: dict[Config, list[str]] = {}
        state = {"configs": configs, "drivers": drivers, "seed": seed}
        warm = [Analyst(host, port, -1, seed) for _ in range(2)]

        def run(analyst: Analyst, mine: list[Config]) -> None:
            for config in mine:
                self._visit(analyst, state, config)

        # one warm-up client starts on the linear models, whose instant fits
        # send the first jobs to the pool and so start its workers while the
        # other client's forests are being fitted
        ordered = sorted(configs, key=lambda c: (c.use_case != "marketing_mix", c.rows))
        halves = (ordered[:6], ordered[6:][::-1])
        threads = [
            threading.Thread(target=run, args=(analyst, half), daemon=True)
            for analyst, half in zip(warm, halves)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(300)
        errors = [it.error for analyst in warm for it in analyst.log if not it.ok]
        if errors or len(drivers) != len(configs):
            raise BenchError(f"set-up failed: {errors[:1] or 'warm-up visits incomplete'}")
        return state

    def _visit(self, analyst: Analyst, state: dict[str, Any], config: Config) -> None:
        rng, seed = analyst.rng, state["seed"]
        opened = analyst.create_session(config, seed)
        if opened is None:
            return
        sid, drivers = opened
        state["drivers"].setdefault(config, drivers)
        started = analyst.log[-1].start
        try:
            for i, name in enumerate(self.TRACKED[:3]):
                params = {"perturbations": _perturb(rng, drivers, 2), "track_as": name}
                result = analyst.job("sensitivity", sid, "sensitivity", params)
                if result is None:
                    return
                if i == 0:
                    analyst.sessions_open.append((analyst.log[-1].end - started) / 1e6)
                self._keep(analyst, "sensitivity", config, seed, "sensitivity", params, result)
            params = {
                "row_index": rng.randrange(config.rows),
                "perturbations": _perturb(rng, drivers, 2),
            }
            result = analyst.job("per_data", sid, "per_data", params)
            self._keep(analyst, "per_data", config, seed, "per_data", params, result)
            axes = [_axis(rng.choice(drivers), _levels(rng, 5))]
            params = {"space": {"axes": axes}, "track_as": self.TRACKED[3]}
            result = analyst.job("sweep_small", sid, "run_sweep", params)
            self._keep(analyst, "sweep_small", config, seed, "run_sweep", params, result)
            if result is None:
                return
            self._check_ledger(analyst, sid)
        finally:

            def closed(data: dict[str, Any]) -> None:
                if data["closed"]["session_id"] != sid:
                    raise Mismatch(f"closed {data['closed']['session_id']}, not {sid}")

            analyst.simple("session_delete", "DELETE", f"/api/v1/sessions/{sid}", None, 200, closed)

    def _check_ledger(self, analyst: Analyst, sid: str) -> None:
        """The version and the scenario list hold exactly the tracked scenarios."""
        tracked = self.TRACKED

        def version(data: dict[str, Any]) -> None:
            summary = data["version"]
            if summary["scenario_count"] != len(tracked) or summary["name"] != "visit":
                raise Mismatch(f"version holds {summary['scenario_count']} scenarios")

        def ledger(data: dict[str, Any]) -> None:
            names = [s["name"] for s in data["scenarios"]]
            if names != tracked or data["total"] != len(tracked):
                raise Mismatch(f"scenario list {names} != tracked {tracked}")

        path = f"/api/v1/sessions/{sid}"
        analyst.simple("version", "POST", f"{path}/versions", {"name": "visit"}, 201, version)
        analyst.simple("scenarios", "GET", f"{path}/scenarios", None, 200, ledger)

    def drive(self, analyst: Analyst, state: dict[str, Any], deadline: int) -> None:
        # visits cycle through a seeded order of the whole working set, so
        # every stretch of a run opens each configuration equally often
        order = analyst.rng.sample(state["configs"], len(state["configs"]))
        visits = 0
        while time.monotonic_ns() < deadline:
            self._visit(analyst, state, order[visits % len(order)])
            visits += 1


WORKLOADS: dict[str, Workload] = {w.name: w for w in (Slider8k(), Explore2k(), VisitsDurable())}
