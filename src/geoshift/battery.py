"""Self-test battery behind `geoshift battery`.

Twelve numbered criteria exercise the whole pipeline on the two stock
examples (the rank-2 free group and the order-2 * order-3 free product):
automaton counts, growth anchors, pressure and entropy identities, mean
distortion against exhaustive averages, the growth inequality, a strictness
demonstration, an empirical law of large numbers, the dimension identity,
sampler correctness, and byte-level determinism.  Each criterion returns a
pass flag plus a detail dictionary that renders deterministically, so two
runs with one seed produce identical reports.

`run_battery` drives all of it; `BatteryContext` caches the automata and
measures the criteria share, and each pair's band product its exact mean
distortion, so the battery does not rebuild them twelve times.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .automaton import (build_geodesic_automaton, enumerate_sphere,
                        sample_uniform_sphere, sphere_count)
from .dimension import drift, ps_dimension_estimate, regular_growth_check
from .distortion import (_BandProduct, _ForeignLength, TauEstimate,
                         check_growth_inequality, lln_check,
                         mean_distortion_exact, mean_distortion_mc,
                         rough_similarity_scan)
from .groups import GeneratingSet, free_group, free_product_group
from .randomness import make_rng
from .reports import render_report
from .thermo import (check_variational, entropy, gibbs_ratio_scan,
                     growth_rate, parry_measure)

__all__ = [
    "Profile",
    "PROFILES",
    "BatteryContext",
    "CriterionResult",
    "BatteryReport",
    "run_criterion",
    "run_battery",
    "battery_report_dict",
    "battery_lines",
    "CRITERION_COUNT",
]

CRITERION_COUNT = 12

BUILD_BUDGET_S = 5.0      # criterion 1: automaton construction + count checks
DISTORTION_BUDGET_S = 60.0  # criterion 6: exhaustive vs Monte Carlo comparison


@dataclass(frozen=True)
class Profile:
    """Sample sizes and depths for one battery run.

    `full` is the documented scale; `quick` shrinks every knob so the whole
    battery finishes in seconds for smoke tests and the determinism check.
    """

    name: str
    variational_trials: int
    gibbs_n_max: int
    exact_n_max: int
    c6_samples: int
    lln_n: tuple
    lln_samples: int
    scan_radius: int
    drift_n: int
    drift_samples: int
    chi_samples: int


PROFILES = {
    "full": Profile("full", 500, 10, 8, 100_000, (10, 20, 40), 10_000, 12,
                    40, 800, 40_000),
    "quick": Profile("quick", 100, 6, 6, 2000, (10, 20, 40), 1000, 8, 12,
                     150, 8000),
}


# ---------------------------------------------------------------------------
# Stock groups and generating sets
# ---------------------------------------------------------------------------

def _f2_spec():
    spec = free_group(2, name="F2")
    spec.gensets["Sstar_ab"] = GeneratingSet(
        ("a", "a^-1", "b", "b^-1", "ab", "ab^-1"),
        {"a": "a^-1", "b": "b^-1", "ab": "ab^-1"},
        words={"ab": ("a", "b"), "ab^-1": ("b^-1", "a^-1")},
        name="Sstar_ab",
    )
    spec.gensets["Sstar_a2"] = GeneratingSet(
        ("a", "a^-1", "b", "b^-1", "aa", "aa^-1"),
        {"a": "a^-1", "b": "b^-1", "aa": "aa^-1"},
        words={"aa": ("a", "a"), "aa^-1": ("a^-1", "a^-1")},
        name="Sstar_a2",
    )
    return spec


def _psl2z_spec():
    z2 = ((0, 1), (1, 0))
    z3 = ((0, 1, 2), (1, 2, 0), (2, 0, 1))
    spec = free_product_group(
        (z2, z3), ("s", "t", "t^-1"),
        {"s": (0, 1), "t": (1, 1), "t^-1": (1, 2)},
        {"s": "s", "t": "t^-1"},
        name="PSL2Z",
    )
    spec.gensets["Sstar_st"] = GeneratingSet(
        ("s", "t", "t^-1", "st", "st^-1"),
        {"s": "s", "t": "t^-1", "st": "st^-1"},
        words={"st": ("s", "t"), "st^-1": ("t^-1", "s")},
        name="Sstar_st",
    )
    return spec


class BatteryContext:
    """Shared lazily-built state for one battery run."""

    def __init__(self, seed: int, profile: Profile):
        self.seed = seed
        self.profile = profile
        self._groups: dict = {}
        self._automata: dict = {}
        self._thermo: dict = {}

    def group(self, gname: str):
        if gname not in self._groups:
            self._groups[gname] = _f2_spec() if gname == "f2" else _psl2z_spec()
        return self._groups[gname]

    def genset(self, gname: str, sname: str):
        spec = self.group(gname)
        return spec.resolve(None if sname == "S" else sname)

    def automaton(self, gname: str, sname: str):
        key = (gname, sname)
        if key not in self._automata:
            spec = self.group(gname)
            T = self.genset(gname, sname)
            self._automata[key] = build_geodesic_automaton(spec, T)
        return self._automata[key]

    def thermo(self, gname: str):
        """(growth rate, Parry measure) of the group's base automaton."""
        if gname not in self._thermo:
            self._thermo[gname] = parry_measure(self.automaton(gname, "S"))
        return self._thermo[gname]


def _exact_tau(ctx: BatteryContext, gname: str, sname: str) -> float:
    """The exact mean distortion tau(S*/S) of a battery pair."""
    return _BandProduct.of(ctx.genset(gname, "S"),
                           ctx.genset(gname, sname)).tau


# ---------------------------------------------------------------------------
# The criteria
# ---------------------------------------------------------------------------

def _c1(ctx: BatteryContext):
    """Fresh free-group automaton agrees with the breadth-first oracle and
    with the closed-form sphere counts 4 * 3^(n-1)."""
    spec = ctx.group("f2")
    t0 = time.perf_counter()
    aut = build_geodesic_automaton(spec, n_check=10)
    counts = [sphere_count(aut, n) for n in range(16)]
    elapsed = time.perf_counter() - t0
    ctx._automata[("f2", "S")] = aut  # later criteria reuse the deep build
    expected = [1] + [4 * 3 ** (n - 1) for n in range(1, 16)]
    within_budget = elapsed < BUILD_BUDGET_S
    ok = aut.validated_to >= 10 and counts == expected and within_budget
    return ok, {
        "states": aut.n_states,
        "transitions": len(aut.transitions),
        "oracle_checked_to": aut.validated_to,
        "closed_form_checked_to": 15,
        "counts": counts,
        "counts_match": counts == expected,
        "time_budget_s": BUILD_BUDGET_S,
        "within_time_budget": within_budget,
    }


def _c2(ctx: BatteryContext):
    """Spectral growth rate of the free group hits log 3, and the count
    estimate log(|S_25| / |S_24|) lands within 5e-3 of it."""
    aut = ctx.automaton("f2", "S")
    v = growth_rate(aut)
    anchor = math.log(3.0)
    est = math.log(sphere_count(aut, 25)) - math.log(sphere_count(aut, 24))
    ok = abs(v - anchor) <= 1e-9 and abs(est - v) <= 5e-3
    return ok, {
        "growth_rate": v,
        "log_3": anchor,
        "anchor_gap": abs(v - anchor),
        "count_estimate": est,
        "estimate_gap": abs(est - v),
        "estimate_radius": 25,
    }


def _c3(ctx: BatteryContext):
    """sphere_count(n) e^(-v n) is the constant 4/3 on the free group and
    stays within a factor 10 band on the free product."""
    rg_f = regular_growth_check(ctx.automaton("f2", "S"), 25)
    target = 4.0 / 3.0
    gap = max(abs(rg_f.c1 - target), abs(rg_f.c2 - target))
    rg_p = regular_growth_check(ctx.automaton("psl2z", "S"), 25)
    spread = rg_p.c2 / rg_p.c1
    ok = gap <= 1e-9 and spread < 10.0
    return ok, {
        "f2": {"c1": rg_f.c1, "c2": rg_f.c2, "target": target, "gap": gap},
        "psl2z": {"c1": rg_p.c1, "c2": rg_p.c2, "spread": spread},
        "n_max": 25,
    }


def _c4(ctx: BatteryContext):
    """Random Markov measures never beat the pressure, the Parry measure
    attains it, and cylinder/Gibbs-weight ratios stay pinched."""
    details = {}
    ok = True
    for gname in ("f2", "psl2z"):
        m = ctx.thermo(gname)[1]
        vr = check_variational(m.component, m.potential,
                               trials=ctx.profile.variational_trials,
                               seed=ctx.seed)
        gs = gibbs_ratio_scan(m, n_max=ctx.profile.gibbs_n_max)
        spread = gs.c_upper / gs.c_lower if gs.c_lower > 0 else math.inf
        good = (vr.max_violation <= 1e-9 and vr.parry_gap <= 1e-9
                and gs.c_lower > 0.0 and math.isfinite(gs.c_upper)
                and spread < 100.0)
        ok = ok and good
        details[gname] = {
            "pressure": vr.pressure,
            "random_measure_violation": vr.max_violation,
            "parry_gap": vr.parry_gap,
            "trials": vr.n_trials,
            "gibbs_c1": gs.c_lower,
            "gibbs_c2": gs.c_upper,
            "gibbs_spread": spread,
            "cylinders": gs.n_cylinders,
            "block_length": gs.n_max,
            "ok": good,
        }
    return ok, details


def _c5(ctx: BatteryContext):
    """Entropy of the Parry measure equals the growth rate."""
    details = {}
    ok = True
    for gname in ("f2", "psl2z"):
        rate, m = ctx.thermo(gname)
        h = entropy(m)
        gap = abs(h - rate)
        details[gname] = {"entropy": h, "growth_rate": rate, "gap": gap}
        ok = ok and gap <= 1e-9
    return ok, details


def _c6(ctx: BatteryContext):
    """Monte Carlo mean distortion matches exhaustive sphere averages
    within four standard errors."""
    t0 = time.perf_counter()
    aut = ctx.automaton("f2", "S")
    star = ctx.genset("f2", "Sstar_ab")
    n_exact = ctx.profile.exact_n_max
    exact = mean_distortion_exact(aut, star, n_exact)
    grid = tuple(n for n in (4, 6, 8) if n <= n_exact)
    mc = mean_distortion_mc(aut, star, grid, ctx.profile.c6_samples,
                            seed=ctx.seed)
    rows = []
    ok = True
    for n in grid:
        r = mc.row(n)
        target = float(exact[n]) / n
        if r.stderr > 0:
            z = abs(r.mean - target) / r.stderr
        else:
            z = 0.0 if r.mean == target else math.inf
        rows.append({"n": n, "exact_mean_length": exact[n],
                     "exact_over_n": target, "mc_mean": r.mean,
                     "stderr": r.stderr, "z": z})
        ok = ok and z <= 4.0
    elapsed = time.perf_counter() - t0
    within_budget = elapsed < DISTORTION_BUDGET_S
    ok = ok and within_budget
    return ok, {
        "rows": rows,
        "samples": ctx.profile.c6_samples,
        "time_budget_s": DISTORTION_BUDGET_S,
        "within_time_budget": within_budget,
    }


_PAIRS = (("f2", "S"), ("f2", "Sstar_ab"), ("f2", "Sstar_a2"),
          ("psl2z", "Sstar_st"))


def _exact_verdict(ctx: BatteryContext, gname: str, sname: str):
    """The growth inequality for the exact tau of a pair: half-width 0."""
    gr_s = ctx.thermo(gname)[0]
    gr_star = (gr_s if sname == "S"
               else growth_rate(ctx.automaton(gname, sname)))
    exact = TauEstimate([], _exact_tau(ctx, gname, sname), 0.0, ctx.seed)
    return check_growth_inequality(exact, gr_s, gr_star)


def _c7(ctx: BatteryContext):
    """The exact tau clears gr(S)/gr(S*) on every battery pair, and the
    identity pair S -> S is flat: tau 1, deviations 0."""
    rows = []
    ok = True
    for gname, sname in _PAIRS:
        verdict = _exact_verdict(ctx, gname, sname)
        rows.append({"group": gname, "to_genset": sname,
                     "tau": verdict.tau_hat,
                     "gr_ratio": verdict.ratio,
                     "margin": verdict.margin,
                     "passed": verdict.passed})
        ok = ok and verdict.passed
    tau_same = _exact_tau(ctx, "f2", "S")
    same_gap = abs(tau_same - 1.0)
    # the Parry float is 1 + 2e-16, which would put r * 2e-16 in the scan
    scan = rough_similarity_scan(ctx.genset("f2", "S"), ctx.genset("f2", "S"),
                                 round(tau_same, 12), ctx.profile.scan_radius)
    max_dev = max(scan.deviations)
    same_ok = (same_gap <= 1e-12 and scan.verdict == "BOUNDED-LOOKING"
               and max_dev == 0.0)
    ok = ok and same_ok
    return ok, {
        "pairs": rows,
        "identity_pair": {"tau_gap": same_gap, "scan_verdict": scan.verdict,
                          "max_deviation": max_dev, "ok": same_ok},
    }


def _c8(ctx: BatteryContext):
    """Doubling one letter gives a strict inequality gap and a linearly
    growing deviation along the powers of that letter."""
    verdict = _exact_verdict(ctx, "f2", "Sstar_a2")
    tau = verdict.tau_hat
    strict = verdict.margin > verdict.half_width

    S = ctx.genset("f2", "S")
    star = ctx.genset("f2", "Sstar_a2")
    R = ctx.profile.scan_radius
    scan = rough_similarity_scan(S, star, tau, R)
    growing = scan.verdict == "GROWING"

    # Along a, a^2, a^3, ... the second metric only needs about half the
    # letters, so the deviation climbs like (tau - 1/2) r.
    spec = ctx.group("f2")
    length = _ForeignLength(S, star)
    radii = list(range(1, R + 1))
    devs = [abs(length(spec.element(("a",) * r).key) - tau * r)
            for r in radii]
    slope = float(np.polyfit(radii, devs, 1)[0])
    expected = abs(tau - 0.5)
    rel_gap = abs(slope - expected) / expected
    ok = strict and growing and rel_gap <= 0.10
    return ok, {
        "tau": tau,
        "gr_ratio": verdict.ratio,
        "margin": verdict.margin,
        "strict": strict,
        "scan_verdict": scan.verdict,
        "ray_deviations": devs,
        "ray_slope": slope,
        "expected_slope": expected,
        "slope_rel_gap": rel_gap,
    }


def _c9(ctx: BatteryContext):
    """Outlier fractions for | |x|_Sstar - n tau | > 0.05 n shrink (within
    binomial noise) as the sphere radius grows."""
    rep = lln_check(ctx.automaton("f2", "S"), ctx.genset("f2", "Sstar_ab"),
                    _exact_tau(ctx, "f2", "Sstar_ab"),
                    n_list=ctx.profile.lln_n,
                    samples=ctx.profile.lln_samples, seed=ctx.seed)
    ok = rep.monotone[0.05]
    table = {}
    for n in rep.n_list:
        table[f"n={n}"] = {f"eps={eps:g}": rep.fractions[(n, eps)]
                           for eps in rep.eps_list}
    return ok, {
        "fractions": table,
        "monotone": {f"eps={eps:g}": rep.monotone[eps]
                     for eps in rep.eps_list},
        "samples": rep.samples,
        "decision_eps": 0.05,
    }


def _c10(ctx: BatteryContext):
    """Growth rate over ray drift reproduces the boundary dimension: equal
    to gr(S) in the group's own gauge, and in a foreign gauge a drift
    consistent with its expectation E_n/n: on F2 the ray chain's x_n is
    uniform on the n-sphere, so E_n is the exact sphere mean."""
    rate, m = ctx.thermo("f2")
    prof = ctx.profile
    same = drift(m, ctx.genset("f2", "S"),
                 prof.drift_n, prof.drift_samples, seed=ctx.seed)
    dim_same = rate / same.mean
    same_ok = abs(dim_same - rate) <= 1e-12

    star = ctx.genset("f2", "Sstar_ab")
    aut = ctx.automaton("f2", "S")
    n = prof.drift_n
    est = ps_dimension_estimate(aut, star, m, n=n, samples=prof.drift_samples,
                                seed=ctx.seed, diag_rays=4)
    tau = _exact_tau(ctx, "f2", "Sstar_ab")
    expected = float(mean_distortion_exact(aut, star, n)[n] / n)
    allowance = 4.0 * est.drift.stderr
    drift_gap = abs(est.drift.mean - expected)
    tau_ok = drift_gap <= allowance
    gr_star = growth_rate(ctx.automaton("f2", "Sstar_ab"))
    frostman = est.dim_hat <= gr_star + est.width + 1e-9
    ok = same_ok and tau_ok
    return ok, {
        "own_gauge": {"drift_mean": same.mean, "drift_stderr": same.stderr,
                      "dim": dim_same, "growth_rate": rate,
                      "ok": same_ok},
        "foreign_gauge": {"drift_mean": est.drift.mean,
                          "drift_stderr": est.drift.stderr,
                          "tau": tau,
                          "exact_mean_over_n": expected,
                          "gap": drift_gap,
                          "gap_allowance": allowance,
                          "dim_hat": est.dim_hat,
                          "dim_via_tau": rate / tau,
                          "width": est.width,
                          "ok": tau_ok},
        "upper_bound_vs_target_growth": {"gr_sstar": gr_star,
                                         "holds": frostman},
        "diagnostics": [list(row) for row in est.diagnostics],
    }


def _chi_square(observed) -> tuple[float, float]:
    """``scipy.stats.chisquare(observed)``'s statistic and p-value, bit for
    bit, by its operations in its order, without its half-second import."""
    from scipy.special import chdtrc

    obs = np.asarray(observed, dtype=np.float64)
    expected = obs.mean(keepdims=True)
    statistic = float(((obs - expected) ** 2 / expected).sum())
    return statistic, float(chdtrc(len(obs) - 1, statistic))


def _c11(ctx: BatteryContext):
    """The exact sphere sampler is uniform: chi-square on the 108-element
    radius-4 sphere of the free group."""
    aut = ctx.automaton("f2", "S")
    population = list(enumerate_sphere(aut, 4))
    index = {x.key: i for i, x in enumerate(population)}
    rng = make_rng(ctx.seed, stream=911)
    xs = sample_uniform_sphere(aut, 4, rng, count=ctx.profile.chi_samples)
    observed = np.bincount([index[x.key] for x in xs],
                           minlength=len(population))
    statistic, p_value = _chi_square(observed)
    ok = len(population) == 108 and p_value >= 0.001
    return ok, {
        "categories": len(population),
        "samples": ctx.profile.chi_samples,
        "statistic": statistic,
        "p_value": p_value,
        "dof": len(population) - 1,
        "min_count": int(observed.min()),
        "max_count": int(observed.max()),
        "significance": 0.001,
    }


def _determinism_core(seed: int) -> str:
    """A fresh, seeded end-to-end slice of the pipeline, rendered to text.

    Every stochastic stage appears: automaton construction, the Parry
    measure, random measures in the variational check, sphere sampling,
    Monte Carlo distortion, and ray drift.
    """
    ctx = BatteryContext(seed, PROFILES["quick"])
    aut = ctx.automaton("f2", "S")
    star = ctx.genset("f2", "Sstar_ab")
    m = ctx.thermo("f2")[1]
    mc = mean_distortion_mc(aut, star, (4, 8), 200, seed=seed)
    vr = check_variational(m.component, m.potential, trials=30, seed=seed)
    gs = gibbs_ratio_scan(m, n_max=5)
    dr = drift(m, star, n=8, samples=60, seed=seed)
    rng = make_rng(seed, stream=911)
    xs = sample_uniform_sphere(aut, 4, rng, count=24)
    return render_report({
        "automaton": {"states": aut.n_states,
                      "transitions": len(aut.transitions),
                      "spheres": [sphere_count(aut, n) for n in range(9)]},
        "thermo": {"pressure": m.pressure,
                   "entropy": entropy(m),
                   "variational_best": vr.best_trial,
                   "gibbs": [gs.c_lower, gs.c_upper]},
        "mc": [[r.n, r.mean, r.stderr] for r in mc.rows],
        "drift": [dr.mean, dr.stderr],
        "samples": [" ".join(x.word()) for x in xs],
    })


def _c12(ctx: BatteryContext):
    """Two fresh runs of the seeded pipeline render byte-identical text."""
    first = _determinism_core(ctx.seed)
    second = _determinism_core(ctx.seed)
    ok = first == second
    return ok, {
        "identical": ok,
        "rendered_bytes": len(first.encode("utf-8")),
        "stages": ["automaton", "thermo", "mc", "drift", "samples"],
    }


# ---------------------------------------------------------------------------
# Driver
# ---------------------------------------------------------------------------

_CRITERIA = {1: _c1, 2: _c2, 3: _c3, 4: _c4, 5: _c5, 6: _c6,
             7: _c7, 8: _c8, 9: _c9, 10: _c10, 11: _c11, 12: _c12}

_NAMES = {
    1: ("sphere-counts",
        "automaton path counts match the oracle and the closed form"),
    2: ("growth-anchor",
        "spectral growth rate hits log 3 and the finite-count estimate"),
    3: ("regular-growth",
        "sphere counts stay pinched against the exponential envelope"),
    4: ("variational-gibbs",
        "random measures never beat the pressure; cylinder ratios pinched"),
    5: ("entropy-identity", "Parry entropy equals the growth rate"),
    6: ("distortion-consistency",
        "Monte Carlo distortion matches exhaustive sphere averages"),
    7: ("growth-inequality",
        "exact tau clears the growth-rate ratio on every pair"),
    8: ("strict-distortion",
        "a doubled letter gives a strict gap and a growing deviation"),
    9: ("lln-outliers", "outlier fractions shrink as spheres grow"),
    10: ("dimension-identity",
         "growth over drift reproduces the boundary dimension"),
    11: ("sampler-chi-square", "uniform sphere sampler passes chi-square"),
    12: ("determinism", "the seeded pipeline renders byte-identical text"),
}


@dataclass
class CriterionResult:
    index: int
    name: str
    check: str
    passed: bool
    details: dict
    elapsed_s: float     # informational; kept out of the canonical report


@dataclass
class BatteryReport:
    seed: int
    profile: str
    results: list
    passed: bool


def run_criterion(index: int, ctx: BatteryContext) -> CriterionResult:
    """Run one numbered criterion; failures of any kind become a red row."""
    name, check = _NAMES[index]
    t0 = time.perf_counter()
    try:
        passed, details = _CRITERIA[index](ctx)
    except Exception as exc:
        passed = False
        details = {"error": f"{type(exc).__name__}: {exc}"}
    return CriterionResult(index, name, check, passed, details,
                           time.perf_counter() - t0)


def run_battery(seed: int = 0, profile: str = "full",
                indices: Optional[Sequence[int]] = None) -> BatteryReport:
    if profile not in PROFILES:
        raise ValueError(f"unknown profile {profile!r}; "
                         f"choose from {sorted(PROFILES)}")
    ctx = BatteryContext(seed, PROFILES[profile])
    todo = sorted(set(indices)) if indices else list(range(1, CRITERION_COUNT + 1))
    if any(i not in _CRITERIA for i in todo):
        raise ValueError(f"criterion indices must lie in 1..{CRITERION_COUNT}")
    results = [run_criterion(i, ctx) for i in todo]
    return BatteryReport(seed, PROFILES[profile].name, results,
                         all(r.passed for r in results))


def battery_report_dict(rep: BatteryReport) -> dict:
    """Canonical, deterministically renderable form of a battery run."""
    return {
        "battery": {
            "seed": rep.seed,
            "profile": rep.profile,
            "passed": rep.passed,
            "criteria_run": [r.index for r in rep.results],
        },
        "criteria": [
            {"index": r.index, "name": r.name, "check": r.check,
             "passed": r.passed, "details": r.details}
            for r in rep.results
        ],
    }


def battery_lines(rep: BatteryReport) -> list[str]:
    """One human-readable verdict line per criterion plus a total."""
    lines = []
    for r in rep.results:
        mark = "PASS" if r.passed else "FAIL"
        lines.append(f"[{r.index:2d}] {mark}  {r.name}: {r.check}")
    n_pass = sum(1 for r in rep.results if r.passed)
    word = "PASS" if rep.passed else "FAIL"
    lines.append(f"battery {word} ({n_pass}/{len(rep.results)} criteria, "
                 f"profile {rep.profile}, seed {rep.seed})")
    return lines
