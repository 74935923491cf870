"""The in-process workloads: ``dense`` and ``wide``.

Each round issues one primary, ``PAR_PER_ROUND`` secondary and one
tertiary operation, each on a rule set of its own (no Σ repeats within a
run, so a result cache keyed on Σ cannot turn repetition into a gain). The
program only ever sees DSL text, rendered before timing:

* primary: ``parse_gfds`` + ``seq_sat``;
* secondary: ``parse_gfds`` + one-shot ``par_sat`` on the process backend
  with 2 workers;
* tertiary: a redundancy query, ``parse_gfds`` + ``parse_gfd`` +
  ``seq_imp``, where φ is one rule of Σ and Σ is the rest.

The same three names carry the ``serve_rw`` numbers (validate p50, mutate
p50, validate p95), because every workload reports every metric.

Every answer is checked: sat verdicts against the generator's expected
verdict, every implication verdict against ``par_imp`` on the simulated
backend for the same query.
"""

from __future__ import annotations

import gc
import json
import os
import random
import resource
import time
from typing import Callable, Dict, List, Optional, Tuple

from repro import (
    build_canonical_graph,
    build_implication_canonical,
    parse_gfd,
    parse_gfds,
    render_gfd,
    render_gfds,
    seq_imp,
    seq_sat,
)
from repro.bench.harness import synthetic_sat_workload
from repro.gfd.generator import (
    GFDGenerator,
    GFDVocabulary,
    add_random_conflicts,
    straggler_workload,
)
from repro.matching.homomorphism import MatcherRun
from repro.matching.plan import get_plan
from repro.matching.simulation import simulation_candidates
from repro.parallel import RuntimeConfig, get_backend, par_imp, par_sat
from repro.parallel.parsat import PreparedSat

from refclock import QuietWindowError, RefClock, median
from tracer import Tracer

WORKERS = 2

#: ``dense``: the anchor/seeker core is drawn once from this seed and kept
#: for every run; only the 20 background rules vary. Redrawing the anchors
#: per seed changes one check's cost 5x (71k to 206k matches).
DENSE_SHAPE = dict(num_anchor=2, num_seekers=3, anchor_size=11, seeker_length=6, seed=11)
DENSE_BACKGROUND = 20

#: ``wide``: |Σ| = 200, k = 6, l = 5; every CONFLICT_EVERY-th sat check
#: carries 3 injected conflict rules and must come back unsatisfiable.
WIDE_SIZE = 200
CONFLICT_EVERY = 4

#: ``par_sat`` operations per round. On ``wide`` one call varies up to 1.7x
#: on the same Σ (many tiny units, ~150 sync rounds), so it gets more samples.
PAR_PER_ROUND = {"dense": 1, "wide": 2}


def op_seed(seed: int, round_index: int, kind: str) -> int:
    return random.Random(f"{seed}:{round_index}:{kind}").randrange(2**31)


class Inputs:
    """Rule sets of one workload, derived from the workload seed."""

    def __init__(self, workload: str, seed: int) -> None:
        self.workload = workload
        self.seed = seed
        if workload == "dense":
            self._core = straggler_workload(num_background=0, **DENSE_SHAPE)
            self._vocab = GFDVocabulary.default()

    def sigma(self, round_index: int, kind: str) -> list:
        seed = op_seed(self.seed, round_index, kind)
        if self.workload == "dense":
            background = GFDGenerator(self._vocab, seed=seed).generate(
                DENSE_BACKGROUND, max_pattern_nodes=5, max_literals=4, prefix="bg"
            )
            return self._core + background
        return synthetic_sat_workload(WIDE_SIZE, k=6, l=5, seed=seed).sigma

    def sat_case(self, round_index: int, kind: str) -> Tuple[str, bool]:
        """DSL text of a fresh Σ and its expected verdict."""
        sigma = self.sigma(round_index, kind)
        if self.workload == "wide" and round_index % CONFLICT_EVERY == CONFLICT_EVERY - 1:
            sigma = add_random_conflicts(
                sigma, num_conflicts=3, seed=op_seed(self.seed, round_index, f"{kind}:conflict")
            )
            return render_gfds(sigma), False
        return render_gfds(sigma), True

    def imp_case(self, round_index: int) -> Tuple[str, str]:
        """DSL text of Σ minus one rule, and of that rule (φ). On ``dense``
        φ is the second anchor, so the seekers explode inside ``G^X_Q``; on
        ``wide`` it is a rule drawn from the seed."""
        sigma = self.sigma(round_index, "imp")
        pick = 1
        if self.workload == "wide":
            pick = random.Random(op_seed(self.seed, round_index, "phi")).randrange(len(sigma))
        rest = sigma[:pick] + sigma[pick + 1:]
        return render_gfds(rest), render_gfd(sigma[pick])


class OpLog:
    """Normalized and raw per-operation timings, plus failure counts."""

    def __init__(self) -> None:
        self.norm: Dict[str, List[float]] = {}
        self.raw: Dict[str, List[float]] = {}
        self.traced: Dict[str, List[float]] = {}
        self.untraced: Dict[str, List[float]] = {}
        self.attempted = 0
        self.failed = 0
        self.errors: List[str] = []

    def fail(self, message: str) -> None:
        self.failed += 1
        if len(self.errors) < 20:
            self.errors.append(message)


def timed_op(
    log: OpLog,
    clock: RefClock,
    tracer: Tracer,
    kind: str,
    call: Callable[[], object],
    check: Callable[[object], Optional[str]],
) -> Tuple[Optional[object], float]:
    """Run one operation between two reference windows; returns its result
    (None when it failed) and its normalization factor."""
    log.attempted += 1
    gc.collect()
    window = clock.before()
    started = time.perf_counter()
    try:
        with tracer.span(kind):
            result = call()
    except Exception as exc:  # a raising operation counts as failed
        clock.after(window)
        log.fail(f"{kind}: {type(exc).__name__}: {exc}")
        return None, 1.0
    raw = time.perf_counter() - started
    factor = clock.after(window)
    try:
        window.check_quiet()
    except QuietWindowError as exc:
        log.fail(f"{kind}: {exc}")
        return None, factor
    problem = check(result)
    if problem is not None:
        log.fail(f"{kind}: {problem}")
        return None, factor
    log.raw.setdefault(kind, []).append(raw)
    log.norm.setdefault(kind, []).append(raw * factor)
    side = log.traced if tracer.enabled else log.untraced
    side.setdefault(kind, []).append(raw * factor)
    return result, factor


class LayerProbe:
    """Per-layer numbers for the traced run, one value per operation."""

    def __init__(self) -> None:
        self.samples: Dict[str, List[float]] = {}

    def add(self, name: str, value: float) -> None:
        self.samples.setdefault(name, []).append(value)

    def median(self, name: str) -> float:
        return median(self.samples.get(name, []))


def probe_sat(tracer: Tracer, probe: LayerProbe, text: str, result, factor: float) -> None:
    """Layer breakdown of one traced ``seq_sat`` operation."""
    stats = result.stats
    enforcement = stats.enforcement
    probe.add("matching.matches", stats.matches)
    probe.add("matching.match_ticks", stats.match_ticks)
    probe.add("matching.pruned_by_simulation", stats.pruned_by_simulation)
    probe.add("reasoning.enforced", enforcement.enforced)
    probe.add("reasoning.deferred", enforcement.deferred)
    probe.add("reasoning.rechecks", enforcement.rechecks)
    delta_ops = len(result.eq.delta_since(0))
    probe.add("eq.delta_ops", delta_ops)
    probe.add("reasoning.useful_ratio", delta_ops / enforcement.enforced if enforcement.enforced else 0.0)
    probe_results(tracer, probe, result.results, factor)

    sigma = parse_gfds(text)
    canonical, canonical_s = tracer.timed("gfd.canonical", lambda: build_canonical_graph(sigma))
    probe.add("gfd.canonical_s", canonical_s * factor)
    probe.add("gfd.canonical_nodes", canonical.graph.num_nodes)
    graph = canonical.graph
    probe.add("graph.index_build_s", tracer.timed("graph.index_build", graph.index)[1] * factor)
    enumerate_s = match_layers(tracer, probe, sigma, graph, factor)
    op_span = tracer.last("primary")
    _, op_start, op_end, _, _ = tracer.spans[op_span]
    probe.add("gfd.parse_s", tracer.child_time(op_span, "gfd.parse") * factor)
    probe.add("reasoning.residual_s", (op_end - op_start - canonical_s - enumerate_s) * factor)


def probe_results(tracer: Tracer, probe: LayerProbe, store, factor: float) -> None:
    """Size and serialization time of a run's layered result store."""
    doc, seconds = tracer.timed("results.store", store.to_json)
    probe.add("results.store_s", seconds * factor)
    probe.add("results.evidence_records", len(doc["evidence"]))
    probe.add("results.json_bytes", len(json.dumps(doc, default=str)))


def match_layers(tracer: Tracer, probe: LayerProbe, sigma, graph, factor: float) -> float:
    """Plan, simulation and enumeration of every rule on *graph*, without
    enforcement; returns the raw enumeration seconds."""
    plan_s = simulation_s = enumerate_s = 0.0
    matches = 0
    for gfd in sigma:
        if gfd.is_trivial():
            continue
        plan, seconds = tracer.timed("matching.plan", lambda: get_plan(gfd.pattern, graph))
        plan_s += seconds
        candidates, seconds = tracer.timed(
            "matching.simulation", lambda: simulation_candidates(gfd.pattern, graph)
        )
        simulation_s += seconds
        if candidates is None:
            continue
        run = MatcherRun(gfd.pattern, graph, candidate_sets=candidates, plan=plan)
        count, seconds = tracer.timed("matching.enumerate", lambda: sum(1 for _ in run.matches()))
        matches += count
        enumerate_s += seconds
    probe.add("matching.plan_s", plan_s * factor)
    probe.add("matching.simulation_s", simulation_s * factor)
    probe.add("matching.enumerate_s", enumerate_s * factor)
    probe.add("matching.enumerated", matches)
    return enumerate_s


class BatchRun:
    """One run of ``dense`` or ``wide``: rounds of operations until the
    deadline. Each operation lives in its own method, so its result is freed
    before the next one starts (a live result would, for one, be copied into
    every ``par_sat`` worker the next operation forks)."""

    def __init__(self, workload: str, seed: int, tracer: Tracer) -> None:
        self.inputs = Inputs(workload, seed)
        self.clock = RefClock()
        self.log = OpLog()
        self.probe = LayerProbe()
        self.tracer = tracer
        self.config = RuntimeConfig(workers=WORKERS)
        self.par_per_round = PAR_PER_ROUND[workload]

    def run(self, seconds: float) -> Dict[str, object]:
        tracer = self.tracer
        traced_run = tracer.enabled
        deadline = time.perf_counter() + seconds
        round_index = 0
        while round_index < 3 or time.perf_counter() < deadline:
            # The traced run alternates traced and untraced rounds, so
            # tracing overhead is measured inside one process.
            tracer.enabled = traced_run and round_index % 2 == 1
            tracer.op = round_index
            self.sat_op(round_index)
            for repeat in range(self.par_per_round):
                self.par_op(round_index, f"par{repeat}")
            self.imp_op(round_index)
            round_index += 1
        tracer.enabled = traced_run
        return {
            "rounds": round_index,
            "peak_rss_mb": vm_hwm_mb(os.getpid()),
            "worker_rss_mb": resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0,
        }

    def sat_op(self, round_index: int) -> None:
        """Primary: parse + ``seq_sat`` on a fresh Σ."""
        text, expected = self.inputs.sat_case(round_index, "sat")
        result, factor = timed_op(
            self.log, self.clock, self.tracer, "primary",
            lambda: traced_seq_sat(self.tracer, text),
            lambda r: None if r.satisfiable == expected else f"seq_sat said {r.satisfiable}, expected {expected}",
        )
        if result is not None and self.tracer.enabled:
            probe_sat(self.tracer, self.probe, text, result, factor)

    def par_op(self, round_index: int, kind: str) -> None:
        """Secondary: parse + one-shot ``par_sat`` on a fresh Σ."""
        text, expected = self.inputs.sat_case(round_index, kind)
        if self.tracer.enabled:
            call = lambda: traced_par_sat(self.tracer, text, self.config)  # noqa: E731
        else:
            call = lambda: par_sat(parse_gfds(text), self.config, backend="process")  # noqa: E731
        result, factor = timed_op(
            self.log, self.clock, self.tracer, "secondary", call,
            lambda r: None if r.satisfiable == expected else f"par_sat said {r.satisfiable}, expected {expected}",
        )
        if result is not None and self.tracer.enabled:
            op_span = self.tracer.last("secondary")
            for phase in ("prepare", "run"):
                seconds = self.tracer.child_time(op_span, f"parallel.{phase}")
                self.probe.add(f"parallel.{phase}_s", seconds * factor)
            outcome = result.outcome
            for name in ("units_executed", "splits", "broadcast_volume", "sync_rounds",
                         "enforce_ops", "retries", "worker_deaths"):
                self.probe.add(f"parallel.{name}", getattr(outcome, name))

    def imp_op(self, round_index: int) -> None:
        """Tertiary: parse + ``seq_imp`` of one rule of Σ against the rest."""
        tracer = self.tracer
        rest_text, phi_text = self.inputs.imp_case(round_index)

        def call():
            with tracer.span("gfd.parse"):
                rest = parse_gfds(rest_text)
                phi = parse_gfd(phi_text)
            with tracer.span("reasoning.seq_imp"):
                return rest, phi, seq_imp(rest, phi)

        def check(answer) -> Optional[str]:
            rest, phi, verdict = answer
            oracle = par_imp(rest, phi, RuntimeConfig(workers=WORKERS), backend="simulated")
            if oracle.implied != verdict.implied:
                return f"seq_imp said {verdict.implied}, par_imp said {oracle.implied}"
            return None

        result, factor = timed_op(self.log, self.clock, tracer, "tertiary", call, check)
        if result is not None and tracer.enabled:
            _, seconds = tracer.timed("gfd.imp_canonical", lambda: build_implication_canonical(result[1]))
            self.probe.add("gfd.imp_canonical_s", seconds * factor)


def traced_parse(tracer: Tracer, text: str):
    with tracer.span("gfd.parse"):
        return parse_gfds(text)


def traced_seq_sat(tracer: Tracer, text: str):
    sigma = traced_parse(tracer, text)
    with tracer.span("reasoning.seq_sat"):
        return seq_sat(sigma)


def traced_par_sat(tracer: Tracer, text: str, config: RuntimeConfig):
    """``par_sat`` as its two public phases, so each gets a span."""
    sigma = traced_parse(tracer, text)
    with tracer.span("parallel.prepare"):
        prepared = PreparedSat.build(sigma, config)
    with tracer.span("parallel.run"):
        return prepared.run(get_backend("process", config))


def vm_hwm_mb(pid: int) -> float:
    """Peak resident set (``VmHWM``) of *pid*, in MB."""
    with open(f"/proc/{pid}/status") as handle:
        for line in handle:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    return 0.0
