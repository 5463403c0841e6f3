"""The command-line surface: reports on stdout, artifacts, exit codes.

stdout must be a deterministic function of the arguments; anything
wall-clock-ish goes to stderr.
"""

import json
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

F2 = "groups/f2.grp"
PSL = "groups/psl2z.grp"
S3 = "groups/s3.grp"
# Stand for presentation files whose table is a number, not a list of rows,
# and whose name is a list, not a string.
BAD_TABLE = "<bad table file>"
BAD_NAME = "<bad name file>"
BAD_FILES = {
    BAD_TABLE: """\
family: finite_table
table: 7
generators:
  letters: [a]
  inverses: {a: a}
  elements: {a: 1}
""",
    BAD_NAME: """\
name: [[0]]
family: free
rank: 1
generators:
  letters: [a, A]
  inverses: {a: A, A: a}
""",
}


# The package may be importable only through pytest's `pythonpath`, which a
# child interpreter does not inherit.
SRC = str(Path(__file__).resolve().parent.parent / "src")


def run(*args):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (SRC, env.get("PYTHONPATH")) if p)
    return subprocess.run(
        [sys.executable, "-m", "geoshift.cli", *args],
        capture_output=True, text=True, cwd=".", env=env,
    )


def test_version():
    r = run("--version")
    assert r.returncode == 0
    assert "geoshift" in r.stdout


def test_automaton_report():
    r = run("automaton", "--group", F2, "-N", "8")
    assert r.returncode == 0
    doc = json.loads(r.stdout)
    assert doc["tool"]["name"] == "geoshift"
    assert doc["command"] == "automaton"
    assert doc["config"]["seed"] == 0
    assert doc["report"]["states"] == 5
    assert doc["report"]["transitions"] == 16
    assert doc["report"]["sphere_counts"][:5] == [1, 4, 12, 36, 108]


def test_stdout_is_deterministic():
    a = run("automaton", "--group", F2)
    b = run("automaton", "--group", F2)
    assert a.stdout == b.stdout
    # timing chatter goes to stderr only
    assert "wall-clock" in a.stderr
    assert "wall-clock" not in a.stdout


def test_artifacts_match_stdout(tmp_path):
    out = str(tmp_path / "art")
    r = run("automaton", "--group", F2, "--out", out)
    assert r.returncode == 0
    assert (tmp_path / "art" / "automaton.txt").read_text() == r.stdout
    serialized = (tmp_path / "art" / "automaton.aut").read_text()
    assert serialized.startswith("geodesic-automaton v1")


def test_growth_report():
    r = run("growth", "--group", PSL, "--n-max", "12")
    doc = json.loads(r.stdout)
    assert r.returncode == 0
    assert doc["report"]["growth_rate"] == pytest.approx(0.34657359027997264,
                                                   abs=1e-12)
    assert doc["report"]["envelope"]["c2"] >= doc["report"]["envelope"]["c1"] > 0


def test_growth_report_past_the_largest_float():
    # |S_n| = (4/3) 3^n passes the largest float near n = 646; past it the
    # envelope scales the counts in logs
    r = run("growth", "--group", F2, "--n-max", "700")
    assert r.returncode == 0
    envelope = json.loads(r.stdout)["report"]["envelope"]
    assert envelope["c1"] == pytest.approx(4.0 / 3.0, abs=1e-9)
    assert envelope["c2"] == pytest.approx(4.0 / 3.0, abs=1e-9)


@pytest.mark.parametrize("command", ["growth", "components"])
def test_growth_and_components_build_the_shift_once(command, monkeypatch,
                                                    capsys):
    # the growth rate and the envelope read the one decomposition and the
    # one set of component pressures the handler computes
    from geoshift import cli, thermo

    calls = {"sft_from_automaton": 0, "maximal_components": 0}

    def counted(name):
        f = getattr(thermo, name)

        def call(*args, **kwargs):
            calls[name] += 1
            return f(*args, **kwargs)
        return call

    for module in (cli, thermo):
        for name in calls:
            monkeypatch.setattr(module, name, counted(name))
    assert cli.main([command, "--group", PSL, "-N", "8"]) == 0
    assert calls == {"sft_from_automaton": 1, "maximal_components": 1}
    assert json.loads(capsys.readouterr().out)["report"]["growth_rate"] == (
        pytest.approx(0.5 * math.log(2.0), abs=1e-12))


def test_components_report():
    r = run("components", "--group", PSL)
    doc = json.loads(r.stdout)
    assert r.returncode == 0
    comps = doc["report"]["components"]
    assert len(comps) == 1
    assert comps[0]["period"] == 2


def test_gibbs_report():
    r = run("gibbs", "--group", F2, "--n-max", "6", "--trials", "50")
    doc = json.loads(r.stdout)
    assert r.returncode == 0
    assert doc["report"]["pressure"] == pytest.approx(0.0, abs=1e-9)
    assert doc["report"]["gibbs"]["c1"] == pytest.approx(0.25, abs=1e-9)
    assert doc["report"]["gibbs"]["c2"] == pytest.approx(0.25, abs=1e-9)
    assert doc["report"]["variational"]["ok"] is True


def test_long_gibbs_report_counts_every_cylinder():
    # 12 (3^20 - 1) / 2 cylinders, each with the ratio 1/4
    r = run("gibbs", "--group", F2, "--n-max", "20", "--trials", "10")
    assert r.returncode == 0
    gibbs = json.loads(r.stdout)["report"]["gibbs"]
    assert gibbs["block_length"] == 20
    assert gibbs["cylinders"] == 20_920_706_400
    assert gibbs["truncated"] is False
    assert gibbs["c1"] == pytest.approx(0.25, abs=1e-12)
    assert gibbs["c2"] == pytest.approx(0.25, abs=1e-12)


@pytest.mark.parametrize("args, message", [
    (("gibbs",), "no recurrent component"),
    (("dimension", "--to", "S"), "no recurrent component"),
    # the sphere of radius 3 is empty; then gr(S*) = 0 divides the ratio
    (("distortion", "--to", "S"), "no elements at distance 3"),
    (("distortion", "--to", "S", "--exact-n", "2", "--n", "2"),
     "gr(S*) is 0"),
], ids=["gibbs", "dimension", "distortion-exact", "distortion-ratio"])
def test_commands_fail_on_a_finite_group(args, message):
    r = run(args[0], "--group", S3, *args[1:])
    assert r.returncode == 1
    assert message in r.stderr
    assert "Traceback" not in r.stderr
    assert "Warning" not in r.stderr


def test_growth_of_a_finite_group_is_quiet():
    # a growth rate of 0 is exact for a finite group: nothing to warn about
    r = run("growth", "--group", S3)
    assert r.returncode == 0
    (line,) = r.stderr.splitlines()
    assert line.startswith("wall-clock ")


@pytest.mark.parametrize("command", ["growth", "components"])
def test_finite_group_reports_growth_rate_zero(command):
    # no recurrent component: the rate is the exact 0 of thermo.growth_rate,
    # not the maximum of an empty set of pressures
    r = run(command, "--group", S3)
    assert r.returncode == 0
    doc = json.loads(r.stdout)
    assert doc["report"]["growth_rate"] == 0.0


def test_validate():
    r = run("validate", "--group", F2, "-N", "9")
    doc = json.loads(r.stdout)
    assert r.returncode == 0
    assert doc["report"]["ok"] is True
    assert doc["report"]["checked_to"] == 9


def test_distortion_csv(tmp_path):
    out = str(tmp_path / "d")
    r = run("distortion", "--group", F2, "--to", "Sstar_ab", "--exact-n", "4",
            "--n", "4,8", "--samples", "200", "--out", out)
    assert r.returncode == 0
    doc = json.loads(r.stdout)
    assert doc["report"]["inequality"]["passed"] is True
    lines = (tmp_path / "d" / "distortion.csv").read_text().splitlines()
    assert lines[0] == "n,exact,mc_mean,mc_stderr,samples"
    # row n=4 carries both columns, in the same per-letter scale
    row4 = dict(zip(lines[0].split(","), lines[4].split(",")))
    assert row4["exact"] == "7/8"
    assert abs(float(row4["mc_mean"]) - 7 / 8) < 0.05
    assert row4["samples"] == "200"


def test_distortion_report_wiring():
    r = run("distortion", "--group", F2, "--to", "Sstar_ab", "--exact-n", "4",
            "--n", "4,8", "--samples", "300", "--lln-n", "6,10",
            "--lln-samples", "200", "--scan", "5")
    assert r.returncode == 0
    rep = json.loads(r.stdout)["report"]
    assert [row["mean_length"] for row in rep["exact"]] == [
        "1/1", "11/6", "8/3", "7/2"]
    assert rep["lipschitz"] == 2
    assert rep["gr_s"] == pytest.approx(math.log(3.0), abs=1e-12)
    assert rep["gr_sstar"] == pytest.approx(math.log(4.0), abs=1e-9)
    assert rep["inequality"]["passed"] is True
    assert set(rep["lln"]["fractions"]) == {"n=6", "n=10"}
    assert rep["scan"]["radii"] == [1, 2, 3, 4, 5]


def test_exact_means_budget_applies_only_to_enumeration():
    # a band pair walks the product, so radius 16 is no longer out of reach
    r = run("distortion", "--group", F2, "--to", "Sstar_ab", "--exact-n", "16",
            "--n", "4,8", "--samples", "200")
    assert r.returncode == 0, r.stderr
    exact = json.loads(r.stdout)["report"]["exact"]
    assert [row["n"] for row in exact] == list(range(1, 17))
    # from S* to S the spheres are enumerated; all are checked first
    r = run("distortion", "--group", F2, "--from", "Sstar_ab", "--to", "S",
            "-N", "6", "--exact-n", "16", "--n", "4", "--samples", "100")
    assert r.returncode == 1
    assert "error: sphere of radius 11 exceeds budget 2000000" in r.stderr


def test_dimension_report(tmp_path):
    out = str(tmp_path / "dim")
    r = run("dimension", "--group", F2, "--to", "Sstar_ab", "-n", "12",
            "--samples", "80", "--rays", "2", "--mc-samples", "100",
            "--out", out)
    assert r.returncode == 0
    doc = json.loads(r.stdout)
    assert 1.1 < doc["report"]["dim_hat"] < 1.5
    header = (tmp_path / "dim" / "dimension_diagnostics.csv").read_text().splitlines()[0]
    assert header == "ray,k,length_sstar,local_dim"


def test_battery_quick_subset():
    r = run("battery", "--profile", "quick", "--only", "1,2,5")
    assert r.returncode == 0
    lines = r.stdout.splitlines()
    assert lines[0].startswith("[ 1] PASS")
    assert any(l.startswith("battery PASS (3/3 criteria") for l in lines)
    # one timing line per criterion that ran, on stderr only
    timings = [l for l in r.stderr.splitlines() if l.startswith("criterion ")]
    assert [l.split()[1] for l in timings] == ["1", "2", "5"]
    assert all(l.endswith(" s") for l in timings)
    assert "criterion " not in r.stdout


def test_battery_stdout_is_byte_identical():
    a = run("battery", "--profile", "quick")
    b = run("battery", "--profile", "quick")
    assert a.returncode == 0 and b.returncode == 0
    assert a.stdout == b.stdout


@pytest.mark.parametrize("args", [
    ("automaton", "--group", "/definitely/not/there.grp"),
    ("automaton", "--group", F2, "--gens", "nope"),
    ("automaton", "--no-such-flag"),
    ("distortion", "--group", F2, "--to", "Sstar_ab", "--n", "4,banana"),
    ("distortion", "--group", F2, "--to", "Sstar_ab", "--lln-n=0,10"),
    ("distortion", "--group", F2, "--to", "Sstar_ab", "--lln-n=-4,10"),
    ("battery", "--profile", "nonsense"),
    ("automaton", "--group", BAD_TABLE),
    ("automaton", "--group", BAD_NAME),
    ("distortion", "--group", F2, "--to", "Sstar_ab", "--exact-n", "-3"),
    ("distortion", "--group", F2, "--to", "Sstar_ab", "--scan", "-2"),
    # a negative seed stops at argument parsing, before any build
    ("automaton", "--group", F2, "--seed", "-1"),
    ("growth", "--group", F2, "--seed", "-1"),
    ("components", "--group", F2, "--seed", "-1"),
    ("gibbs", "--group", F2, "--seed", "-1"),
    ("distortion", "--group", F2, "--to", "Sstar_ab", "--seed", "-1"),
    ("dimension", "--group", F2, "--to", "Sstar_ab", "--seed", "-1"),
    ("validate", "--group", F2, "--seed", "-1"),
    ("battery", "--seed", "-1", "--only", "11"),
])
def test_input_errors_exit_2(args, tmp_path):
    bad = tmp_path / "bad.grp"
    for a in args:
        if a in BAD_FILES:
            bad.write_text(BAD_FILES[a])
    r = run(*(str(bad) if a in BAD_FILES else a for a in args))
    assert r.returncode == 2
    assert r.stdout == ""
    if "--seed" in args:
        assert "argument --seed" in r.stderr
        assert "wall-clock" not in r.stderr  # no handler ran


def test_malformed_group_file_exits_2(tmp_path):
    bad = tmp_path / "bad.grp"
    bad.write_text("name: X\nfamily: wat\n")
    r = run("automaton", "--group", str(bad))
    assert r.returncode == 2
    assert "input error" in r.stderr
