"""The geoshift benchmark workloads, run in one fresh interpreter per call.

`run.py` starts this file with thread pools pinned and reads the JSON object
it prints as its only line of standard output.  A workload is a list of
reports, each produced by the public functions the CLI handlers and the
battery call, rendered with `render_report` exactly as the CLI renders its
stdout, and checked against values that do not depend on the seed.

    python3 bench/workloads.py --workload tau --seed 1 --seconds 50

The seed reaches the library only through its ``seed`` parameters.
"""

from __future__ import annotations

import argparse
import functools
import hashlib
import json
import math
import resource
import statistics
import sys
from collections import defaultdict
from contextlib import contextmanager
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path
from time import perf_counter
from typing import Callable, Optional

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
GROUPS = ROOT / "groups"
sys.path.insert(0, str(ROOT / "src"))

import geoshift as gs  # noqa: E402

from speed import SpeedProbe, reference_seconds  # noqa: E402
from tracing import Instrumentation, Tracer  # noqa: E402

EXPECTED_FILE = BENCH / "expected.json"
MC_STDERRS = 4.0          # MC at n=8 and the drift must lie this close
SETUP_REPEATS = 3


def load_expected(path: Path = EXPECTED_FILE) -> dict:
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def _close(a: float, b: float, tol: float = 1e-9) -> bool:
    return abs(a - b) <= tol


# ---------------------------------------------------------------------------
# One iteration
# ---------------------------------------------------------------------------

class Clock:
    """Time per phase of one iteration, read from `now`; a span per phase
    when traced."""

    def __init__(self, tracer: Optional[Tracer] = None,
                 now: Callable[[], float] = perf_counter):
        self.tracer = tracer
        self.now = now
        self.times: dict = {}

    @contextmanager
    def phase(self, name: str):
        tr = self.tracer
        if tr is not None:
            outer, tr.phase = tr.phase, name
            tr.enter("phase." + name)
        t0 = self.now()
        try:
            yield
        finally:
            self.times[name] = self.times.get(name, 0.0) + self.now() - t0
            if tr is not None:
                tr.leave()
                tr.phase = outer


@dataclass
class Run:
    """What a report function may use: set-up state, earlier results."""

    state: dict
    seed: int
    expected: dict
    clock: Clock
    ctx: dict = field(default_factory=dict)


@dataclass
class Outcome:
    label: str
    sha256: Optional[str]
    failed_checks: list
    error: Optional[str]

    @property
    def ok(self) -> bool:
        return self.error is None and not self.failed_checks

    def describe(self) -> str:
        return f"{self.label}: {self.error or ', '.join(self.failed_checks)}"


@dataclass(frozen=True)
class Report:
    label: str
    phase: str
    make: Callable     # Run -> (command, config, report, [(check, bool)])


def render(command: str, config: dict, report: dict) -> str:
    """The CLI's stdout body for one report."""
    return gs.render_report({
        "tool": {"name": "geoshift", "version": gs.__version__},
        "command": command,
        "config": config,
        "report": report,
    })


def run_iteration(reports, state: dict, seed: int, expected: dict,
                  tracer: Optional[Tracer] = None,
                  now: Callable[[], float] = perf_counter):
    """Produce, render and check every report once; a report that raises
    counts as failed and the iteration goes on.  Times are read from
    `now`."""
    run = Run(state, seed, expected, Clock(tracer, now))
    outcomes = []
    t0 = now()
    for rep in reports:
        with run.clock.phase(rep.phase):
            try:
                command, config, report, checks = rep.make(run)
                body = render(command, config, report)
            except Exception as exc:  # a failed report, not a crash
                outcomes.append(Outcome(rep.label, None, [],
                                        f"{type(exc).__name__}: {exc}"))
                continue
        digest = hashlib.sha256(body.encode("utf-8")).hexdigest()
        failed = [name for name, ok in checks if not ok]
        outcomes.append(Outcome(rep.label, digest, failed, None))
    return now() - t0, run.clock.times, outcomes


def probed_iteration(workload, state: dict, seed: int, expected: dict,
                     tracer: Optional[Tracer] = None):
    """`run_iteration` under a `SpeedProbe`: the wall and phase times come
    back in reference seconds, with the speed factor that scaled them."""
    with SpeedProbe(tracer.exclude if tracer is not None else None) as probe:
        wall, times, outcomes = run_iteration(workload.reports, state, seed,
                                              expected, tracer, probe.now)
    f = probe.factor()
    return wall * f, {k: v * f for k, v in times.items()}, outcomes, f


# ---------------------------------------------------------------------------
# structure: engines, ball oracle, automata, validation, thermo
# ---------------------------------------------------------------------------

# (group file, n_check, sphere counts up to)
STRUCTURE_AUTOMATA = (("f2", 10, 15), ("psl2z", 16, 16), ("s3", 8, 8),
                      ("genus2", 6, 6))
VALIDATE_F2_N = 11
VARIATIONAL_TRIALS = 500
GIBBS_N_MAX = 10
GROWTH_RATES = {"f2": math.log(3.0), "psl2z": 0.5 * math.log(2.0)}


def _automaton_report(gname: str, n_check: int, n_counts: int):
    def make(run: Run):
        path = GROUPS / f"{gname}.grp"
        spec = gs.parse_group_file(path)
        T = spec.resolve(None)
        aut = gs.build_geodesic_automaton(spec, T, n_check=n_check,
                                          seed=run.seed)
        run.ctx[gname] = aut
        counts = [gs.sphere_count(aut, n) for n in range(n_counts + 1)]
        want = run.expected["automata"][gname]
        if gname == "f2":
            closed = [1] + [4 * 3 ** (n - 1) for n in range(1, n_counts + 1)]
            counts_ok = counts == closed
        else:
            counts_ok = counts == want["sphere_counts"]
        report = {
            "group": spec.name, "genset": T.name, "states": aut.n_states,
            "transitions": len(aut.transitions), "level": aut.level_used,
            "tail": aut.tail_used, "validated_to": aut.validated_to,
            "conflicts": aut.conflicts, "sphere_counts": counts,
        }
        config = {"group_file": f"groups/{gname}.grp", "gens": T.name,
                  "n_check": n_check, "seed": run.seed}
        return "automaton", config, report, [
            ("sphere_counts", counts_ok),
            ("states", aut.n_states == want["states"]),
            ("validated_to", aut.validated_to == n_check),
        ]
    return Report(f"automaton {gname}", "automaton", make)


def _validate_report(run: Run):
    aut = run.ctx["f2"]
    vr = gs.validate_automaton(aut, VALIDATE_F2_N, seed=run.seed)
    report = {
        "group": aut.group.name, "genset": aut.genset.name,
        "rows": [{"n": n, "paths": a, "oracle": b, "match": a == b}
                 for n, a, b in vr.rows],
        "geodesic_failures": vr.geodesic_failures,
        "injectivity_failures": vr.injectivity_failures,
        "checked_to": vr.checked_to, "ok": vr.ok,
    }
    config = {"group_file": "groups/f2.grp", "gens": aut.genset.name,
              "n": VALIDATE_F2_N, "seed": run.seed}
    return "validate", config, report, [("ok", vr.ok)]


def _gibbs_report(gname: str):
    def make(run: Run):
        aut = run.ctx[gname]
        dec = gs.components(gs.sft_from_automaton(aut))
        mp = gs.maximal_components(dec)
        C = dec.components[mp.maximal[0]]
        v = mp.max_pressure
        psi = gs.word_length_potential(v)
        m = gs.parry_gibbs_measure(C, psi)
        vr = gs.check_variational(C, psi, trials=VARIATIONAL_TRIALS,
                                  seed=run.seed)
        gsr = gs.gibbs_ratio_scan(m, n_max=GIBBS_N_MAX)
        h = gs.entropy(m)
        report = {
            "group": aut.group.name, "genset": aut.genset.name,
            "components": len(dec.components), "component": mp.maximal[0],
            "growth_rate": v, "pressure": m.pressure, "entropy": h,
            "nodes": len(m.nodes), "memory": m.memory,
            "variational": {"trials": vr.n_trials,
                            "best_random_value": vr.best_trial,
                            "violation": vr.max_violation,
                            "parry_gap": vr.parry_gap, "ok": vr.ok},
            "gibbs": {"block_length": gsr.n_max,
                      "cylinders": gsr.n_cylinders, "c1": gsr.c_lower,
                      "c2": gsr.c_upper, "truncated": gsr.truncated},
        }
        config = {"group_file": f"groups/{gname}.grp",
                  "gens": aut.genset.name, "n_check": aut.validated_to,
                  "n_max": GIBBS_N_MAX, "trials": VARIATIONAL_TRIALS,
                  "seed": run.seed}
        return "gibbs", config, report, [
            ("growth_rate", _close(v, GROWTH_RATES[gname])),
            ("parry_entropy", _close(h, v)),
            ("variational", vr.ok),
            ("gibbs_bounds", gsr.c_lower > 0.0 and math.isfinite(gsr.c_upper)
             and not gsr.truncated),
        ]
    return Report(f"gibbs {gname}", "gibbs", make)


STRUCTURE = (
    [_automaton_report(*args) for args in STRUCTURE_AUTOMATA]
    + [Report("validate f2", "validate", _validate_report)]
    + [_gibbs_report(g) for g in ("f2", "psl2z")]
)


def structure_setup(seed: int) -> dict:
    # Every iteration parses afresh: the Dehn engine's normal-form cache
    # would otherwise make later genus-2 builds several times faster than
    # any single CLI call.
    return {}


# ---------------------------------------------------------------------------
# tau: samplers, length oracles, distortion, dimension on PSL2Z and F2
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class TauSpec:
    group: str
    to: str
    mc_n: tuple
    samples: int
    dim_n: int
    rays: int
    lln_n: tuple = ()
    lln_samples: int = 0
    scan_to: str = ""
    scan_radius: int = 0
    exact_n: int = 8
    n_check: int = 8
    diag_rays: int = 8

    @property
    def sampled(self) -> int:
        """Sphere points and rays whose S*-length is computed."""
        return (len(self.mc_n) * self.samples
                + len(self.lln_n) * self.lln_samples + self.rays)


# PSL2Z: the length oracle's bidirectional search does nearly all the work.
TAU_PSL2Z = TauSpec("psl2z", "Sstar_st", (8, 16, 24), 500, dim_n=24, rays=200)
# F2: cheap tiling lengths, so the exact big-int sampler dominates; the
# scan enumerates a whole ball instead of sampling.
TAU_F2 = TauSpec("f2", "Sstar_ab", (8, 16, 28, 40), 5000, dim_n=40, rays=800,
                 lln_n=(10, 20, 40), lln_samples=5000,
                 scan_to="Sstar_a2", scan_radius=11)
TAU_SPECS = (TAU_PSL2Z, TAU_F2)


def tau_setup(seed: int) -> dict:
    """Per group: parse, both automata at n_check, and the Parry measure."""
    state = {}
    for spec in TAU_SPECS:
        g = gs.parse_group_file(GROUPS / f"{spec.group}.grp")
        S = g.resolve(None)
        star = g.resolve(spec.to)
        aut_s = gs.build_geodesic_automaton(g, S, n_check=spec.n_check,
                                            seed=seed)
        aut_star = gs.build_geodesic_automaton(g, star, n_check=spec.n_check,
                                               seed=seed)
        dec = gs.components(gs.sft_from_automaton(aut_s))
        mp = gs.maximal_components(dec)
        C = dec.components[mp.maximal[0]]
        psi = gs.word_length_potential(mp.max_pressure)
        state[spec.group] = {"group": g, "S": S, "star": star,
                             "aut_s": aut_s, "aut_star": aut_star,
                             "measure": gs.parry_gibbs_measure(C, psi)}
    return state


def _tau_config(spec: TauSpec, run: Run, **extra) -> dict:
    return {"group_file": f"groups/{spec.group}.grp", "from": "S",
            "to": spec.to, "n_check": spec.n_check, "seed": run.seed, **extra}


def _distortion_report(spec: TauSpec, run: Run):
    st = run.state[spec.group]
    want = [Fraction(v) for v in run.expected[spec.group]["exact_means"]]
    exact = gs.mean_distortion_exact(st["aut_s"], st["star"], spec.exact_n)
    with run.clock.phase(f"{spec.group}.mc"):
        mc = gs.mean_distortion_mc(st["aut_s"], st["star"], spec.mc_n,
                                   spec.samples, seed=run.seed)
    gr_s = gs.growth_rate(st["aut_s"])
    gr_star = gs.growth_rate(st["aut_star"])
    verdict = gs.check_growth_inequality(mc, gr_s, gr_star)
    run.ctx[spec.group] = mc
    row8 = mc.row(8)
    report = {
        "group": st["group"].name, "from": st["S"].name, "to": spec.to,
        "gr_s": gr_s, "gr_sstar": gr_star,
        "exact": [{"n": n, "mean_length": exact[n]}
                  for n in range(1, len(exact))],
        "mc": [{"n": r.n, "mean": r.mean, "stderr": r.stderr,
                "samples": r.samples} for r in mc.rows],
        "tau_hat": mc.tau_hat, "half_width": mc.half_width,
        "inequality": {"ratio": verdict.ratio, "margin": verdict.margin,
                       "passed": verdict.passed},
    }
    checks = [
        ("exact_means", exact == want),
        ("mc_n8_within_4_stderr", abs(row8.mean - float(exact[8]) / 8)
         <= MC_STDERRS * row8.stderr),
        ("inequality", verdict.passed),
        ("growth_rate", _close(gr_s, GROWTH_RATES[spec.group])),
    ]
    config = _tau_config(spec, run, exact_n=spec.exact_n, n=list(spec.mc_n),
                         samples=spec.samples)
    return "distortion", config, report, checks


def _lln_report(spec: TauSpec, run: Run):
    st = run.state[spec.group]
    rep = gs.lln_check(st["aut_s"], st["star"], run.ctx[spec.group].tau_hat,
                       n_list=spec.lln_n, samples=spec.lln_samples,
                       seed=run.seed)
    report = {
        "samples": rep.samples,
        "fractions": {f"n={n}": {f"eps={e:g}": rep.fractions[(n, e)]
                                 for e in rep.eps_list} for n in rep.n_list},
        "monotone": {f"eps={e:g}": rep.monotone[e] for e in rep.eps_list},
    }
    config = _tau_config(spec, run, lln_n=list(spec.lln_n),
                         lln_samples=spec.lln_samples)
    return "distortion", config, report, [("monotone_eps_0.05",
                                           rep.monotone[0.05])]


def _dimension_report(spec: TauSpec, run: Run):
    st = run.state[spec.group]
    mc = run.ctx[spec.group]
    est = gs.ps_dimension_estimate(st["aut_s"], st["star"], st["measure"],
                                   n=spec.dim_n, samples=spec.rays,
                                   seed=run.seed, diag_rays=spec.diag_rays)
    combined = math.hypot(est.drift.stderr, mc.rows[-1].stderr)
    report = {
        "group": st["group"].name, "from": st["S"].name, "to": spec.to,
        "gr_s": est.gr_s,
        "drift": {"n": est.drift.n, "samples": est.drift.samples,
                  "mean": est.drift.mean, "stderr": est.drift.stderr},
        "dim_hat": est.dim_hat, "width": est.width,
        "tau_hat": mc.tau_hat, "dim_via_tau": est.gr_s / mc.tau_hat,
        "diagnostics": [list(row) for row in est.diagnostics],
    }
    config = _tau_config(spec, run, n=spec.dim_n, samples=spec.rays,
                         rays=spec.diag_rays)
    return "dimension", config, report, [
        ("drift_within_4_stderr",
         abs(est.drift.mean - mc.tau_hat) <= MC_STDERRS * combined),
    ]


def _scan_report(spec: TauSpec, run: Run):
    st = run.state[spec.group]
    tau = run.expected[spec.group]["scan_tau"]
    want = run.expected[spec.group]["scan_deviations"]
    scan = gs.rough_similarity_scan(st["S"], st["group"].resolve(spec.scan_to),
                                    tau, spec.scan_radius)
    report = {"radii": scan.radii, "deviations": scan.deviations,
              "witnesses": scan.witnesses, "verdict": scan.verdict,
              "tolerance": scan.tolerance}
    config = _tau_config(spec, run, to=spec.scan_to, tau=tau,
                         scan=spec.scan_radius)
    return "distortion", config, report, [
        ("deviations", len(scan.deviations) == len(want) and all(
            _close(a, b) for a, b in zip(scan.deviations, want))),
        ("verdict_growing", scan.verdict == "GROWING"),
    ]


def _tau_reports(spec: TauSpec) -> list:
    steps = [("distortion", _distortion_report)]
    if spec.lln_n:
        steps.append(("lln", _lln_report))
    steps.append(("dimension", _dimension_report))
    if spec.scan_radius:
        steps.append(("scan", _scan_report))
    return [Report(f"{spec.group} {name}", f"{spec.group}.{name}",
                   functools.partial(make, spec))
            for name, make in steps]


TAU = [rep for spec in TAU_SPECS for rep in _tau_reports(spec)]


@dataclass(frozen=True)
class Workload:
    reports: list
    setup: Callable       # seed -> state dict
    sampled: int = 0      # sphere points and rays whose S*-length is computed


WORKLOADS = {
    "structure": Workload(STRUCTURE, structure_setup),
    "tau": Workload(TAU, tau_setup, sum(s.sampled for s in TAU_SPECS)),
}


# ---------------------------------------------------------------------------
# Metrics
# ---------------------------------------------------------------------------

PHASES = tuple(dict.fromkeys([r.phase for r in STRUCTURE + TAU]
                             + [f"{spec.group}.mc" for spec in TAU_SPECS]))
SAMPLING_PHASES = ("mc", "lln", "dimension")


def phase_metrics(times: dict, workload: Workload) -> dict:
    """Per-phase wall times of one untraced iteration, and sampling rate."""
    out = {f"{p}_s": times[p] for p in PHASES if p in times}
    if workload.sampled:
        busy = sum(t for p, t in times.items()
                   if p.rpartition(".")[2] in SAMPLING_PHASES)
        out["samples_per_s"] = workload.sampled / busy
    return out


def layer_metrics(tr: Tracer, wall: float, times: dict,
                  factor: float) -> dict:
    """Per-layer metrics of one traced iteration; `_s` values are self
    times, `phase.*` the traced wall time of each phase, all in reference
    seconds: `wall` and `times` already are, the tracer's self times are
    scaled by the iteration's speed `factor`."""
    n, c = tr.calls, tr.counts
    s = defaultdict(float, {k: v * factor for k, v in tr.self_s.items()})
    by_phase = defaultdict(float, {k: v * factor
                                   for k, v in tr.self_by_phase.items()})
    lookups = c["groups.nf_lookups"]
    draws = c["randomness.draws"]
    length_calls = n["distortion.length"]
    out = {
        "grammar.parse_s": s["grammar.parse"],
        "groups.mult_calls": c["groups.mult"],
        "groups.nf_cache_hit_ratio": (c["groups.nf_hits"] / lookups
                                      if lookups else 0.0),
        "groups.nf_cache_entries": tr.peaks.get("groups.nf_entries", 0),
        "geometry.ball_tree_s": s["geometry.ball_tree"],
        "geometry.ball_nodes": c["geometry.ball_nodes"],
        "geometry.word_length_calls": n["geometry.word_length"],
        "geometry.word_length_s": s["geometry.word_length"],
        "automaton.build_s": s["automaton.build"],
        "automaton.levels_tried": c["automaton.levels_tried"],
        "automaton.states": c["automaton.states"],
        "automaton.validate_s": s["automaton.validate"],
        "automaton.sample_s": s["automaton.sample"],
        "automaton.samples": c["automaton.samples"],
        "automaton.enumerate_s": s["automaton.enumerate"],
        "automaton.enumerated": c["automaton.enumerated"],
        "randomness.draws": draws,
        "randomness.bigint_share": (c["randomness.bigint_draws"] / draws
                                    if draws else 0.0),
        "sft.components_s": s["sft.components"],
        "thermo.parry_s": s["thermo.parry"],
        "thermo.variational_s": s["thermo.variational"],
        "thermo.gibbs_scan_s": s["thermo.gibbs_scan"],
        "thermo.gibbs_cylinders": c["thermo.gibbs_cylinders"],
        "thermo.growth_rate_s": s["thermo.growth_rate"],
        "distortion.length_calls.tiling": c["distortion.length.tiling"],
        "distortion.length_calls.table": c["distortion.length.table"],
        "distortion.length_calls.search": c["distortion.length.search"],
        "distortion.length_s": s["distortion.length"],
        "distortion.length_us": (1e6 * s["distortion.length"] / length_calls
                                 if length_calls else 0.0),
        "distortion.length_init_s": s["distortion.length_init"],
        "distortion.exact_s": s["distortion.exact"],
        "distortion.mc_s": s["distortion.mc"],
        "distortion.lln_s": s["distortion.lln"],
        "distortion.scan_s": s["distortion.scan"],
        "dimension.drift_s": s["dimension.drift"],
        "dimension.estimate_s": s["dimension.estimate"],
        "dimension.rays": c["dimension.rays"],
        "reports.render_s": s["reports.render"],
        "trace.spans": len(tr.spans),
        "trace.wall_s": wall,
    }
    for p in PHASES:
        out[f"phase.{p}_s"] = times.get(p, 0.0)
    for g in (spec.group for spec in TAU_SPECS):
        # The length oracle and the sampler inside the distortion report
        # (exact means, MC, inequality) and inside the MC call alone.
        out[f"distortion.{g}.length_s"] = sum(
            by_phase[(f"{g}.{p}", "distortion.length")]
            for p in ("distortion", "mc"))
        out[f"distortion.{g}.mc_length_s"] = by_phase[(f"{g}.mc",
                                                       "distortion.length")]
        out[f"automaton.{g}.mc_sample_s"] = by_phase[(f"{g}.mc",
                                                      "automaton.sample")]
    return out


def _median_dict(rows: list) -> dict:
    """Median of each metric; counts keep an observed whole value."""
    out = {}
    for k in rows[0]:
        values = [r[k] for r in rows]
        whole = all(isinstance(v, int) for v in values)
        out[k] = (statistics.median_low if whole
                  else statistics.median)(values)
    return out


# ---------------------------------------------------------------------------
# Running a workload
# ---------------------------------------------------------------------------

def measure(workload: Workload, seed: int, seconds: float, trace: bool,
            expected: dict, trace_file: Optional[Path] = None) -> dict:
    """Set up, then run iterations while the next one, if it takes as long
    as the last, still ends within `seconds` (at least one).  With tracing,
    untraced and traced iterations alternate, starting untraced, and there
    is at least one of each: the traced ones give the per-layer metrics,
    the difference of the two medians the overhead.  Every time in the
    result is in reference seconds (see `speed.py`); the budget is kept in
    plain seconds."""
    setups = []
    for _ in range(SETUP_REPEATS):
        seconds_ref, state = reference_seconds(lambda: workload.setup(seed))
        setups.append(seconds_ref)

    outcomes, walls, factors, phases, layers, spans = [], [], [], [], [], []
    peak_rss_mb = None
    start = perf_counter()
    while True:
        t0 = perf_counter()
        if trace and len(layers) < len(walls):
            tracer = Tracer()
            with Instrumentation(tracer):
                wall, times, outs, f = probed_iteration(workload, state, seed,
                                                        expected, tracer)
            layers.append(layer_metrics(tracer, wall, times, f))
            spans.append(tracer.spans)
        else:
            wall, times, outs, f = probed_iteration(workload, state, seed,
                                                    expected)
            walls.append(wall)
            factors.append(f)
            phases.append(phase_metrics(times, workload))
        outcomes.append(outs)
        if peak_rss_mb is None:
            # What one process pays for set-up and one pass.  Later passes
            # raise the high-water mark by whatever garbage of the one before
            # is still uncollected, which varies from run to run.
            peak_rss_mb = resource.getrusage(
                resource.RUSAGE_SELF).ru_maxrss / 1024.0
        now = perf_counter()
        if (layers or not trace) and now - start + (now - t0) > seconds:
            break

    result = {
        "iterations": len(outcomes),
        "walls": walls,
        "speed_factors": factors,
        "wall_s": statistics.median(walls),
        "phases": _median_dict(phases),
        "state_setup_s": statistics.median(setups),
        "state_setups": setups,
        "peak_rss_mb": peak_rss_mb,
        "attempted": sum(len(o) for o in outcomes),
        "failed": sum(1 for o in outcomes for x in o if not x.ok),
        "failures": sorted({x.describe() for o in outcomes for x in o
                            if not x.ok}),
        "fingerprints": {x.label: x.sha256 for x in outcomes[0]},
    }
    if trace:
        per_layer = _median_dict(layers)
        per_layer["trace.untraced_wall_s"] = result["wall_s"]
        per_layer["trace.overhead_s"] = (per_layer["trace.wall_s"]
                                         - result["wall_s"])
        result["per_layer"] = per_layer
        if trace_file is not None:
            write_spans(trace_file, spans)
    return result


def write_spans(path: Path, iterations: list):
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", encoding="utf-8") as fh:
        for it, spans in enumerate(iterations):
            for sid, name, start, end, parent in spans:
                fh.write(json.dumps({"iteration": it, "id": sid, "name": name,
                                     "start": start, "end": end,
                                     "parent": parent}) + "\n")


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--trace-file", type=Path, default=None)
    args = p.parse_args(argv)
    src = (ROOT / "src").resolve()
    if Path(gs.__file__).resolve().parent.parent != src:
        print(f"geoshift was imported from {gs.__file__}, not from {src}",
              file=sys.stderr)
        return 2
    result = measure(WORKLOADS[args.workload], args.seed, args.seconds,
                     bool(args.trace), load_expected()[args.workload],
                     args.trace_file)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
