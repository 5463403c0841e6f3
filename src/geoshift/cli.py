"""Command-line front end.

Eight subcommands drive the library end to end: `automaton`, `growth`,
`components`, `gibbs`, `distortion`, `dimension`, `validate`, and `battery`.
Every run prints a deterministic structured-text report to stdout (tool
version, config echo including the seed, then the results); wall-clock time
goes to stderr so identical configs stay byte-identical on stdout and in the
artifact files written under `--out`.

Exit codes: 0 success, 1 verdict failure (a check that ran and failed),
2 input error (bad flags, unreadable files, malformed presentations).
"""

from __future__ import annotations

import argparse
import os
import sys
import time
from typing import Optional, Sequence

from . import __version__
from .automaton import (build_geodesic_automaton, serialize_automaton,
                        sphere_count, validate_automaton)
from .battery import (CRITERION_COUNT, PROFILES, battery_lines,
                      battery_report_dict, run_battery)
from .dimension import ps_dimension_estimate, regular_growth_check
from .distortion import (check_growth_inequality, cross_lipschitz,
                         lln_check, mean_distortion_exact, mean_distortion_mc,
                         rough_similarity_scan)
from .errors import (FormatError, GeoshiftError, StabilizationFailure,
                     UnknownLetter)
from .grammar import parse_group_file
from .reports import csv_text, render_report, write_artifact
from .sft import components, sft_from_automaton
from .thermo import (check_variational, entropy, gibbs_ratio_scan,
                     growth_rate, maximal_components, parry_gibbs_measure,
                     word_length_potential)

__all__ = ["build_parser", "main"]


class EmptyDecomposition(GeoshiftError):
    """The automaton has no recurrent part to build a measure on."""


# ---------------------------------------------------------------------------
# Argument helpers
# ---------------------------------------------------------------------------

def _positive(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"{text!r} is not an integer")
    if value <= 0:
        raise argparse.ArgumentTypeError("must be a positive integer")
    return value


def _int_list(text: str) -> list[int]:
    try:
        values = [int(tok) for tok in text.replace(",", " ").split()]
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"{text!r} is not a comma-separated list of integers")
    if not values:
        raise argparse.ArgumentTypeError("the list must not be empty")
    return values


def _add_io(sp, with_gens=True):
    sp.add_argument("--group", required=True, metavar="FILE",
                    help="group presentation file")
    if with_gens:
        sp.add_argument("--gens", default=None, metavar="NAME",
                        help="named generating set (default: the base set)")
    sp.add_argument("--seed", type=int, default=0)
    sp.add_argument("--out", default=None, metavar="DIR",
                    help="directory to write artifact files into")


def _emit(args, command: str, config: dict, report: dict,
          extra_artifacts: Optional[dict] = None):
    """Print the canonical body and write artifact files under --out."""
    body = render_report({
        "tool": {"name": "geoshift", "version": __version__},
        "command": command,
        "config": config,
        "report": report,
    })
    sys.stdout.write(body)
    if args.out:
        os.makedirs(args.out, exist_ok=True)
        write_artifact(os.path.join(args.out, f"{command}.txt"), body)
        for fname, text in (extra_artifacts or {}).items():
            write_artifact(os.path.join(args.out, fname), text)


def _build(spec, T, args, n_check):
    return build_geodesic_automaton(spec, T, n_check=n_check, seed=args.seed)


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------

def _cmd_automaton(args) -> int:
    spec = parse_group_file(args.group)
    T = spec.resolve(args.gens)
    aut = _build(spec, T, args, args.n_check)
    counts = [sphere_count(aut, n) for n in range(args.n_check + 1)]
    report = {
        "group": spec.name,
        "genset": T.name,
        "states": aut.n_states,
        "transitions": len(aut.transitions),
        "level": aut.level_used,
        "tail": aut.tail_used,
        "validated_to": aut.validated_to,
        "conflicts": aut.conflicts,
        "sphere_counts": counts,
    }
    config = {"group_file": args.group, "gens": T.name,
              "n_check": args.n_check, "seed": args.seed}
    _emit(args, "automaton", config, report,
          {"automaton.aut": serialize_automaton(aut)})
    return 0


def _cmd_growth(args) -> int:
    spec = parse_group_file(args.group)
    T = spec.resolve(args.gens)
    aut = _build(spec, T, args, args.n_check)
    dec = components(sft_from_automaton(aut))
    mp = maximal_components(dec)
    rg = regular_growth_check(aut, args.n_max)
    report = {
        "group": spec.name,
        "genset": T.name,
        "growth_rate": growth_rate(aut, dec),
        "component_pressures": list(mp.pressures),
        "maximal_components": list(mp.maximal),
        "semisimple": mp.semisimple,
        "envelope": {"n_min": rg.n_min, "n_max": rg.n_max,
                     "c1": rg.c1, "c2": rg.c2},
    }
    config = {"group_file": args.group, "gens": T.name,
              "n_check": args.n_check, "n_max": args.n_max,
              "seed": args.seed}
    _emit(args, "growth", config, report)
    return 0


def _cmd_components(args) -> int:
    spec = parse_group_file(args.group)
    T = spec.resolve(args.gens)
    aut = _build(spec, T, args, args.n_check)
    sft = sft_from_automaton(aut)
    dec = components(sft)
    mp = maximal_components(dec)
    rows = []
    for i, C in enumerate(dec.components):
        parts = [sorted(p) for p in C.cyclic_parts()]
        rows.append({
            "index": i,
            "states": sorted(C.states),
            "edge_count": len(C.edge_ids),
            "period": C.period,
            "cyclic_parts": parts,
            "pressure": mp.pressures[i],
        })
    report = {
        "group": spec.name,
        "genset": T.name,
        "alphabet": len(sft.edges),
        "components": rows,
        "maximal": list(mp.maximal),
        "semisimple": mp.semisimple,
        "growth_rate": growth_rate(aut, dec),
    }
    config = {"group_file": args.group, "gens": T.name,
              "n_check": args.n_check, "seed": args.seed}
    _emit(args, "components", config, report)
    return 0


def _cmd_gibbs(args) -> int:
    spec = parse_group_file(args.group)
    T = spec.resolve(args.gens)
    aut = _build(spec, T, args, args.n_check)
    dec = components(sft_from_automaton(aut))
    mp = maximal_components(dec)
    if not mp.maximal:
        raise EmptyDecomposition("no recurrent component; nothing to measure")
    C = dec.components[mp.maximal[0]]
    v = mp.max_pressure
    psi = word_length_potential(v)
    m = parry_gibbs_measure(C, psi)
    vr = check_variational(C, psi, trials=args.trials, seed=args.seed)
    gs = gibbs_ratio_scan(m, n_max=args.n_max)
    report = {
        "group": spec.name,
        "genset": T.name,
        "component": mp.maximal[0],
        "growth_rate": v,
        "pressure": m.pressure,
        "entropy": entropy(m),
        "nodes": len(m.nodes),
        "memory": m.memory,
        "variational": {
            "trials": vr.n_trials,
            "best_random_value": vr.best_trial,
            "violation": vr.max_violation,
            "parry_gap": vr.parry_gap,
            "ok": vr.ok,
        },
        "gibbs": {
            "block_length": gs.n_max,
            "cylinders": gs.n_cylinders,
            "c1": gs.c_lower,
            "c2": gs.c_upper,
            "truncated": gs.truncated,
        },
    }
    config = {"group_file": args.group, "gens": T.name,
              "n_check": args.n_check, "n_max": args.n_max,
              "trials": args.trials, "seed": args.seed}
    _emit(args, "gibbs", config, report)
    return 0 if vr.ok else 1


def _cmd_distortion(args) -> int:
    spec = parse_group_file(args.group)
    S = spec.resolve(args.frm)
    Sstar = spec.resolve(args.to)
    aut_s = _build(spec, S, args, args.n_check)
    aut_star = _build(spec, Sstar, args, args.n_check)
    exact = (mean_distortion_exact(aut_s, Sstar, args.exact_n)
             if args.exact_n >= 1 else [])
    mc = mean_distortion_mc(aut_s, Sstar, args.n, args.samples,
                            seed=args.seed)
    gr_s = growth_rate(aut_s)
    gr_sstar = growth_rate(aut_star)
    verdict = check_growth_inequality(mc, gr_s, gr_sstar)
    lln = (lln_check(aut_s, Sstar, mc.tau_hat, args.lln_n,
                     samples=args.lln_samples, seed=args.seed)
           if args.lln_n else None)
    scan = (rough_similarity_scan(S, Sstar, mc.tau_hat, args.scan)
            if args.scan >= 1 else None)
    report = {
        "group": spec.name,
        "from": S.name,
        "to": Sstar.name,
        "lipschitz": cross_lipschitz(S, Sstar),
        "gr_s": gr_s,
        "gr_sstar": gr_sstar,
        "exact": [{"n": n, "mean_length": exact[n]}
                  for n in range(1, len(exact))],
        "mc": [{"n": r.n, "mean": r.mean, "stderr": r.stderr,
                "samples": r.samples} for r in mc.rows],
        "tau_hat": mc.tau_hat,
        "half_width": mc.half_width,
        "inequality": {
            "ratio": verdict.ratio,
            "margin": verdict.margin,
            "passed": verdict.passed,
        },
        "lln": None,
        "scan": None,
    }
    if lln is not None:
        report["lln"] = {
            "samples": lln.samples,
            "fractions": {f"n={n}": {f"eps={eps:g}": lln.fractions[(n, eps)]
                                     for eps in lln.eps_list}
                          for n in lln.n_list},
            "monotone": {f"eps={eps:g}": lln.monotone[eps]
                         for eps in lln.eps_list},
        }
    if scan is not None:
        report["scan"] = {
            "radii": scan.radii,
            "deviations": scan.deviations,
            "witnesses": scan.witnesses,
            "verdict": scan.verdict,
            "tolerance": scan.tolerance,
        }

    # Plot-ready CSV: one row per radius, exact column where available.
    # Both length columns are per-letter means so they can be compared.
    radii = sorted(set(range(1, len(exact))) | {r.n for r in mc.rows})
    by_n = {r.n: r for r in mc.rows}
    csv_rows = []
    for n in radii:
        mean = exact[n] / n if n < len(exact) else ""
        r = by_n.get(n)
        csv_rows.append([n, mean,
                         r.mean if r else "", r.stderr if r else "",
                         r.samples if r else ""])
    csv = csv_text(["n", "exact", "mc_mean", "mc_stderr", "samples"], csv_rows)

    config = {"group_file": args.group, "from": S.name, "to": Sstar.name,
              "n_check": args.n_check, "exact_n": args.exact_n,
              "n": list(args.n), "samples": args.samples,
              "lln_n": list(args.lln_n) if args.lln_n else None,
              "lln_samples": args.lln_samples, "scan": args.scan,
              "seed": args.seed}
    _emit(args, "distortion", config, report, {"distortion.csv": csv})
    return 0 if verdict.passed else 1


def _cmd_dimension(args) -> int:
    spec = parse_group_file(args.group)
    S = spec.resolve(args.frm)
    Sstar = spec.resolve(args.to)
    aut_s = _build(spec, S, args, args.n_check)
    aut_star = _build(spec, Sstar, args, args.n_check)
    dec = components(sft_from_automaton(aut_s))
    mp = maximal_components(dec)
    if not mp.maximal:
        raise EmptyDecomposition("no recurrent component; nothing to measure")
    C = dec.components[mp.maximal[0]]
    m = parry_gibbs_measure(C, word_length_potential(mp.max_pressure))
    est = ps_dimension_estimate(aut_s, Sstar, m, n=args.n,
                                samples=args.samples, seed=args.seed,
                                diag_rays=args.rays)
    mc = mean_distortion_mc(aut_s, Sstar, (max(2, args.n // 2), args.n),
                            args.mc_samples, seed=args.seed)
    gr_star = growth_rate(aut_star)
    report = {
        "group": spec.name,
        "from": S.name,
        "to": Sstar.name,
        "gr_s": est.gr_s,
        "gr_sstar": gr_star,
        "drift": {"n": est.drift.n, "samples": est.drift.samples,
                  "mean": est.drift.mean, "stderr": est.drift.stderr},
        "dim_hat": est.dim_hat,
        "width": est.width,
        "tau_hat": mc.tau_hat,
        "tau_half_width": mc.half_width,
        "dim_via_tau": est.gr_s / mc.tau_hat,
    }
    csv = csv_text(["ray", "k", "length_sstar", "local_dim"],
                   [list(row) for row in est.diagnostics])
    config = {"group_file": args.group, "from": S.name, "to": Sstar.name,
              "n_check": args.n_check, "n": args.n, "samples": args.samples,
              "rays": args.rays, "mc_samples": args.mc_samples,
              "seed": args.seed}
    _emit(args, "dimension", config, report,
          {"dimension_diagnostics.csv": csv})
    return 0


def _cmd_validate(args) -> int:
    spec = parse_group_file(args.group)
    T = spec.resolve(args.gens)
    aut = _build(spec, T, args, args.n)
    vr = validate_automaton(aut, args.n, seed=args.seed)
    rows = [{"n": n, "paths": a, "oracle": b, "match": a == b}
            for n, a, b in vr.rows]
    report = {
        "group": spec.name,
        "genset": T.name,
        "rows": rows,
        "geodesic_failures": vr.geodesic_failures,
        "injectivity_failures": vr.injectivity_failures,
        "checked_to": vr.checked_to,
        "ok": vr.ok,
    }
    config = {"group_file": args.group, "gens": T.name, "n": args.n,
              "seed": args.seed}
    _emit(args, "validate", config, report)
    return 0 if vr.ok else 1


def _cmd_battery(args) -> int:
    rep = run_battery(seed=args.seed, profile=args.profile,
                      indices=args.only)
    for line in battery_lines(rep):
        print(line)
    config = {"profile": args.profile, "seed": args.seed,
              "only": list(args.only) if args.only else None}
    _emit(args, "battery", config, battery_report_dict(rep))
    return 0 if rep.passed else 1


# ---------------------------------------------------------------------------
# Parser and entry point
# ---------------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="geoshift",
        description="Geodesic automata, shift thermodynamics, and "
                    "word-metric distortion for hyperbolic groups.",
    )
    p.add_argument("--version", action="version",
                   version=f"geoshift {__version__}")
    sub = p.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("automaton", help="build and validate an automaton")
    _add_io(sp)
    sp.add_argument("-N", "--n-check", type=_positive, default=8,
                    help="validation radius (default 8)")
    sp.set_defaults(handler=_cmd_automaton)

    sp = sub.add_parser("growth", help="growth rate and envelope constants")
    _add_io(sp)
    sp.add_argument("-N", "--n-check", type=_positive, default=8)
    sp.add_argument("--n-max", type=_positive, default=20,
                    help="envelope scan depth (default 20)")
    sp.set_defaults(handler=_cmd_growth)

    sp = sub.add_parser("components",
                        help="recurrent components, periods, pressures")
    _add_io(sp)
    sp.add_argument("-N", "--n-check", type=_positive, default=8)
    sp.set_defaults(handler=_cmd_components)

    sp = sub.add_parser("gibbs",
                        help="Parry measure, variational and Gibbs checks")
    _add_io(sp)
    sp.add_argument("-N", "--n-check", type=_positive, default=8)
    sp.add_argument("--n-max", type=_positive, default=8,
                    help="cylinder scan block length (default 8)")
    sp.add_argument("--trials", type=_positive, default=200,
                    help="random measures for the variational check")
    sp.set_defaults(handler=_cmd_gibbs)

    sp = sub.add_parser("distortion",
                        help="mean distortion of one word metric in another")
    _add_io(sp, with_gens=False)
    sp.add_argument("--from", dest="frm", default=None, metavar="NAME",
                    help="source generating set (default: the base set)")
    sp.add_argument("--to", dest="to", required=True, metavar="NAME",
                    help="target generating set")
    sp.add_argument("-N", "--n-check", type=_positive, default=8)
    sp.add_argument("--exact-n", type=int, default=6,
                    help="exhaustive averages up to this radius (0 disables)")
    sp.add_argument("--n", type=_int_list, default=[4, 8, 12, 16],
                    help="Monte Carlo radii (comma separated)")
    sp.add_argument("--samples", type=_positive, default=2000)
    sp.add_argument("--lln-n", type=_int_list, default=None,
                    help="radii for the outlier-fraction table")
    sp.add_argument("--lln-samples", type=_positive, default=2000)
    sp.add_argument("--scan", type=int, default=0,
                    help="rough-similarity scan radius (0 disables)")
    sp.set_defaults(handler=_cmd_distortion)

    sp = sub.add_parser("dimension",
                        help="boundary dimension via growth over drift")
    _add_io(sp, with_gens=False)
    sp.add_argument("--from", dest="frm", default=None, metavar="NAME")
    sp.add_argument("--to", dest="to", required=True, metavar="NAME")
    sp.add_argument("-N", "--n-check", type=_positive, default=8)
    sp.add_argument("-n", "--n", type=_positive, default=32,
                    help="ray length (default 32)")
    sp.add_argument("--samples", type=_positive, default=200)
    sp.add_argument("--rays", type=_positive, default=8,
                    help="rays in the diagnostics CSV")
    sp.add_argument("--mc-samples", type=_positive, default=400,
                    help="sphere samples for the tau cross-check")
    sp.set_defaults(handler=_cmd_dimension)

    sp = sub.add_parser("validate",
                        help="re-check an automaton against the oracle")
    _add_io(sp)
    sp.add_argument("-N", "--n", type=_positive, default=12,
                    help="oracle radius (default 12)")
    sp.set_defaults(handler=_cmd_validate)

    sp = sub.add_parser("battery", help="run the acceptance battery")
    sp.add_argument("--profile", choices=sorted(PROFILES), default="full")
    sp.add_argument("--only", type=_int_list, default=None,
                    help=f"criterion indices (1..{CRITERION_COUNT})")
    sp.add_argument("--seed", type=int, default=0)
    sp.add_argument("--out", default=None, metavar="DIR")
    sp.set_defaults(handler=_cmd_battery)
    return p


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 2
    t0 = time.perf_counter()
    try:
        code = args.handler(args)
    except StabilizationFailure as exc:
        print(f"verdict failure: {exc}", file=sys.stderr)
        if exc.report is not None:
            print(exc.report.summary(), file=sys.stderr)
        code = 1
    except (FormatError, UnknownLetter) as exc:
        print(f"input error: {exc}", file=sys.stderr)
        code = 2
    except OSError as exc:
        print(f"file error: {exc}", file=sys.stderr)
        code = 2
    except ValueError as exc:
        print(f"input error: {exc}", file=sys.stderr)
        code = 2
    except GeoshiftError as exc:
        print(f"error: {exc}", file=sys.stderr)
        code = 1
    print(f"wall-clock {time.perf_counter() - t0:.3f} s", file=sys.stderr)
    return code


if __name__ == "__main__":
    sys.exit(main())
