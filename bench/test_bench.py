"""Self-tests of the benchmark harness (not part of the package's suite).

    python3 -m pytest -q bench/test_bench.py
"""

import copy
import json
import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH))

import workloads as wl  # noqa: E402
from speed import REFERENCE_S, SpeedProbe  # noqa: E402
from tracing import Instrumentation, Tracer, package_modules  # noqa: E402

from geoshift import automaton, distortion, geometry, groups  # noqa: E402

S3_ONLY = wl.Workload([wl._automaton_report("s3", 8, 8)], wl.structure_setup)


def leftover_wrappers() -> list[str]:
    """Names in the package that still hold a benchmark wrapper."""
    found = []
    for mod in package_modules():
        for key, value in vars(mod).items():
            if getattr(value, "_bench_wrapper", False):
                found.append(f"{mod.__name__}.{key}")
            if isinstance(value, type) and value.__module__ == mod.__name__:
                for attr, member in vars(value).items():
                    if getattr(member, "_bench_wrapper", False):
                        found.append(f"{mod.__name__}.{key}.{attr}")
    return found


def _structure_expected():
    return wl.load_expected()["structure"]


def test_wrappers_are_removed_and_untraced_runs_record_nothing():
    originals = [
        (geometry, "ball_tree", geometry.ball_tree),
        (automaton, "ball_tree", automaton.ball_tree),
        (distortion, "ball_tree", distortion.ball_tree),
        (wl.gs, "build_geodesic_automaton", wl.gs.build_geodesic_automaton),
        (groups._FreeEngine, "mult", groups._FreeEngine.__dict__["mult"]),
        (distortion._ForeignLength, "__call__",
         distortion._ForeignLength.__dict__["__call__"]),
    ]
    tracer = Tracer()
    with Instrumentation(tracer):
        assert all(getattr(owner, name) is not orig
                   for owner, name, orig in originals
                   if not isinstance(owner, type))
        assert leftover_wrappers()
        _, _, outs = wl.run_iteration(S3_ONLY.reports, {}, 0,
                                      _structure_expected(), tracer)
    assert all(o.ok for o in outs)
    assert {"phase.automaton", "grammar.parse", "automaton.build",
            "geometry.ball_tree", "automaton.validate"} <= {
                span[1] for span in tracer.spans}
    assert tracer.counts["groups.mult"] > 0
    assert tracer.counts["automaton.levels_tried"] >= 1

    assert leftover_wrappers() == []
    for owner, name, orig in originals:
        current = (owner.__dict__[name] if isinstance(owner, type)
                   else getattr(owner, name))
        assert current is orig
    spans, counts = list(tracer.spans), dict(tracer.counts)
    _, _, outs = wl.run_iteration(S3_ONLY.reports, {}, 0,
                                  _structure_expected())
    assert all(o.ok for o in outs)
    assert tracer.spans == spans and dict(tracer.counts) == counts


def _spin(seconds: float):
    end = time.perf_counter() + seconds
    while time.perf_counter() < end:
        pass


def test_speed_probe_keeps_its_kernel_out_of_measured_time():
    tracer = Tracer()
    tracer.enter("outer")
    with SpeedProbe(tracer.exclude) as probe:
        t0, c0 = time.perf_counter(), probe.now()
        _spin(0.45)
        tracer.enter("inner")
        _spin(0.25)
        tracer.leave()
        wall, measured = time.perf_counter() - t0, probe.now() - c0
    tracer.leave()
    # entry, exit and about one timer sample per 0.1 s
    assert len(probe.samples) >= 6
    assert probe.paused == sum(probe.samples)
    assert measured == pytest.approx(wall - sum(probe.samples[1:-1]),
                                     abs=1e-4)
    assert probe.factor() == pytest.approx(
        sum(REFERENCE_S / d for d in probe.samples) / len(probe.samples))
    # Every sample fell inside "outer"; none is any span's self time.
    spans = {name: end - start for _, name, start, end, _ in tracer.spans}
    assert sum(tracer.self_s.values()) == pytest.approx(
        spans["outer"] - probe.paused, abs=1e-6)


def test_corrupted_stored_value_makes_fail_ratio_nonzero():
    good = wl.measure(S3_ONLY, 0, 0.0, False, _structure_expected())
    assert good["failed"] == 0 and good["attempted"] >= 1

    bad = copy.deepcopy(_structure_expected())
    bad["automata"]["s3"]["sphere_counts"][2] += 1
    res = wl.measure(S3_ONLY, 0, 0.0, False, bad)
    assert res["failed"] / res["attempted"] > 0
    assert res["failures"] == ["automaton s3: sphere_counts"]


def test_traced_run_reports_every_declared_per_layer_metric(tmp_path):
    trace_file = tmp_path / "spans.jsonl"
    res = wl.measure(S3_ONLY, 0, 0.0, True, _structure_expected(), trace_file)
    with open(BENCH.parent / "BENCHMARK.json", encoding="utf-8") as fh:
        declared = {m["name"] for m in json.load(fh)["per_layer"]}
    assert declared == set(res["per_layer"])
    assert res["per_layer"]["automaton.levels_tried"] >= 1
    assert res["failed"] == 0
    rows = [json.loads(line) for line in trace_file.read_text().splitlines()]
    assert rows and {"iteration", "id", "name", "start", "end",
                     "parent"} == set(rows[0])


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(BENCH.parent / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    out = subprocess.run([sys.executable, "bench/run.py", "--workload",
                          "tau", "--seed", "1", "--seconds", "1",
                          "--trace", "0"], cwd=tmp_path, capture_output=True,
                         text=True, timeout=120)
    assert out.returncode != 0
    assert out.stdout == ""
