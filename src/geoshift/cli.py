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
from .automaton import (_build_with_report, build_geodesic_automaton,
                        serialize_automaton, sphere_count)
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
                     growth_rate, maximal_components, parry_measure)

__all__ = ["build_parser", "main"]


# ---------------------------------------------------------------------------
# Argument helpers
# ---------------------------------------------------------------------------

def _at_least(least: int, what: str):
    def parse(text: str) -> int:
        try:
            value = int(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"{text!r} is not an integer")
        if value < least:
            raise argparse.ArgumentTypeError(f"must be a {what} integer")
        return value
    return parse


_positive = _at_least(1, "positive")
_nonnegative = _at_least(0, "nonnegative")


def _int_list(text: str) -> list[int]:
    try:
        values = [int(tok) for tok in text.replace(",", " ").split()]
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"{text!r} is not a comma-separated list of integers")
    if not values:
        raise argparse.ArgumentTypeError("the list must not be empty")
    return values


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


# Parsed options that the config echo leaves out, and the report names of
# those it renames.
_NOT_ECHOED = ("command", "handler", "out")
_ECHO_NAMES = {"group": "group_file", "frm": "from"}


def _config(args, **sets: str) -> dict:
    """The config echo: every parsed option under its report name, with each
    generating-set option in `sets` replaced by the name it resolved to."""
    options = {**vars(args), **sets}
    return {_ECHO_NAMES.get(dest, dest): value
            for dest, value in options.items() if dest not in _NOT_ECHOED}


def _load(args, *names):
    """Every handler's first step: parse --group, resolve each named
    generating set, and build its automaton to --n-check with --seed."""
    spec = parse_group_file(args.group)
    sets = [spec.resolve(name) for name in names]
    return spec, sets, [build_geodesic_automaton(spec, T, n_check=args.n_check,
                                                 seed=args.seed)
                        for T in sets]


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------

def _cmd_automaton(args) -> int:
    spec, [T], [aut] = _load(args, args.gens)
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
    _emit(args, "automaton", _config(args, gens=T.name), report,
          {"automaton.aut": serialize_automaton(aut)})
    return 0


def _cmd_growth(args) -> int:
    spec, [T], [aut] = _load(args, args.gens)
    dec = components(sft_from_automaton(aut))
    mp = maximal_components(dec)
    v = growth_rate(aut, mp=mp)
    rg = regular_growth_check(aut, args.n_max, v=v)
    report = {
        "group": spec.name,
        "genset": T.name,
        "growth_rate": v,
        "component_pressures": list(mp.pressures),
        "maximal_components": list(mp.maximal),
        "semisimple": mp.semisimple,
        "envelope": {"n_min": rg.n_min, "n_max": rg.n_max,
                     "c1": rg.c1, "c2": rg.c2},
    }
    _emit(args, "growth", _config(args, gens=T.name), report)
    return 0


def _cmd_components(args) -> int:
    spec, [T], [aut] = _load(args, args.gens)
    sft = sft_from_automaton(aut)
    dec = components(sft)
    mp = maximal_components(dec)
    rows = []
    for i, C in enumerate(dec.components):
        rows.append({
            "index": i,
            "states": sorted(C.states),
            "edge_count": len(C.edge_ids),
            "period": C.period,
            "cyclic_parts": C.cyclic_parts(),
            "pressure": mp.pressures[i],
        })
    report = {
        "group": spec.name,
        "genset": T.name,
        "alphabet": len(sft.edges),
        "components": rows,
        "maximal": list(mp.maximal),
        "semisimple": mp.semisimple,
        "growth_rate": growth_rate(aut, mp=mp),
    }
    _emit(args, "components", _config(args, gens=T.name), report)
    return 0


def _cmd_gibbs(args) -> int:
    spec, [T], [aut] = _load(args, args.gens)
    v, m = parry_measure(aut)
    vr = check_variational(m.component, m.potential, trials=args.trials,
                           seed=args.seed)
    gs = gibbs_ratio_scan(m, n_max=args.n_max)
    report = {
        "group": spec.name,
        "genset": T.name,
        "component": m.component.index,
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
    _emit(args, "gibbs", _config(args, gens=T.name), report)
    return 0 if vr.ok else 1


def _cmd_distortion(args) -> int:
    spec, [S, Sstar], [aut_s, aut_star] = _load(args, args.frm, args.to)
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

    config = _config(args, frm=S.name, to=Sstar.name)
    _emit(args, "distortion", config, report, {"distortion.csv": csv})
    return 0 if verdict.passed else 1


def _cmd_dimension(args) -> int:
    spec, [S, Sstar], [aut_s, aut_star] = _load(args, args.frm, args.to)
    m = parry_measure(aut_s)[1]
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
    config = _config(args, frm=S.name, to=Sstar.name)
    _emit(args, "dimension", config, report,
          {"dimension_diagnostics.csv": csv})
    return 0


def _cmd_validate(args) -> int:
    spec = parse_group_file(args.group)
    T = spec.resolve(args.gens)
    # The build validates against the radius-N ball with this seed; its
    # accepting report is what a second validation would print.
    vr = _build_with_report(spec, T, args.n, args.seed)[1]
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
    _emit(args, "validate", _config(args, gens=T.name), report)
    return 0 if vr.ok else 1


def _cmd_battery(args) -> int:
    rep = run_battery(seed=args.seed, profile=args.profile,
                      indices=args.only)
    for line in battery_lines(rep):
        print(line)
    for r in rep.results:
        print(f"criterion {r.index} {r.name}: {r.elapsed_s:.3f} s",
              file=sys.stderr)
    _emit(args, "battery", _config(args), battery_report_dict(rep))
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
    # Options shared by every subcommand; by those that read a group; by
    # those that build its automata; by those that read one generating set
    # or a pair of them.
    seeded = argparse.ArgumentParser(add_help=False)
    seeded.add_argument("--seed", type=_nonnegative, default=0)
    seeded.add_argument("--out", default=None, metavar="DIR",
                        help="directory to write artifact files into")
    grouped = argparse.ArgumentParser(add_help=False, parents=[seeded])
    grouped.add_argument("--group", required=True, metavar="FILE",
                         help="group presentation file")
    built = argparse.ArgumentParser(add_help=False, parents=[grouped])
    built.add_argument("-N", "--n-check", type=_positive, default=8,
                       help="validation radius (default 8)")
    one = argparse.ArgumentParser(add_help=False)
    one.add_argument("--gens", default=None, metavar="NAME",
                     help="named generating set (default: the base set)")
    pair = argparse.ArgumentParser(add_help=False, parents=[built])
    pair.add_argument("--from", dest="frm", default=None, metavar="NAME",
                      help="source generating set (default: the base set)")
    pair.add_argument("--to", dest="to", required=True, metavar="NAME",
                      help="target generating set")

    sp = sub.add_parser("automaton", parents=[built, one],
                        help="build and validate an automaton")
    sp.set_defaults(handler=_cmd_automaton)

    sp = sub.add_parser("growth", parents=[built, one],
                        help="growth rate and envelope constants")
    sp.add_argument("--n-max", type=_positive, default=20,
                    help="envelope scan depth (default 20)")
    sp.set_defaults(handler=_cmd_growth)

    sp = sub.add_parser("components", parents=[built, one],
                        help="recurrent components, periods, pressures")
    sp.set_defaults(handler=_cmd_components)

    sp = sub.add_parser("gibbs", parents=[built, one],
                        help="Parry measure, variational and Gibbs checks")
    sp.add_argument("--n-max", type=_positive, default=8,
                    help="longest cylinder length (default 8)")
    sp.add_argument("--trials", type=_positive, default=200,
                    help="random measures for the variational check")
    sp.set_defaults(handler=_cmd_gibbs)

    sp = sub.add_parser("distortion", parents=[pair],
                        help="mean distortion of one word metric in another")
    sp.add_argument("--exact-n", type=_nonnegative, default=6,
                    help="exhaustive averages up to this radius (0 disables)")
    sp.add_argument("--n", type=_int_list, default=[4, 8, 12, 16],
                    help="Monte Carlo radii (comma separated)")
    sp.add_argument("--samples", type=_positive, default=2000)
    sp.add_argument("--lln-n", type=_int_list, default=None,
                    help="radii for the outlier-fraction table")
    sp.add_argument("--lln-samples", type=_positive, default=2000)
    sp.add_argument("--scan", type=_nonnegative, default=0,
                    help="rough-similarity scan radius (0 disables)")
    sp.set_defaults(handler=_cmd_distortion)

    sp = sub.add_parser("dimension", parents=[pair],
                        help="boundary dimension via growth over drift")
    sp.add_argument("-n", "--n", type=_positive, default=32,
                    help="ray length (default 32)")
    sp.add_argument("--samples", type=_positive, default=200)
    sp.add_argument("--rays", type=_positive, default=8,
                    help="rays in the diagnostics CSV")
    sp.add_argument("--mc-samples", type=_positive, default=400,
                    help="sphere samples for the tau cross-check")
    sp.set_defaults(handler=_cmd_dimension)

    sp = sub.add_parser("validate", parents=[grouped, one],
                        help="re-check an automaton against the oracle")
    sp.add_argument("-N", "--n", type=_positive, default=12,
                    help="oracle radius (default 12)")
    sp.set_defaults(handler=_cmd_validate)

    sp = sub.add_parser("battery", parents=[seeded],
                        help="run the acceptance battery")
    sp.add_argument("--profile", choices=sorted(PROFILES), default="full")
    sp.add_argument("--only", type=_int_list, default=None,
                    help=f"criterion indices (1..{CRITERION_COUNT})")
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
