from fractions import Fraction

import numpy as np

from geoshift import csv_text, make_rng, render_report
from geoshift.reports import render_value


def test_keys_come_out_sorted():
    assert render_value({"b": 1, "a": 2}) == '{\n  "a": 2,\n  "b": 1\n}'


def test_scalar_forms():
    assert render_value(Fraction(11, 6)) == '"11/6"'
    assert render_value(None) == "null"
    assert render_value(True) == "true"
    assert render_value(0.25) == "0.25"
    assert render_value("x") == '"x"'


def test_floats_round_trip():
    v = 1.0986122886681098
    assert float(render_value(v)) == v


def test_rendering_is_stable():
    doc = {"z": [1.5, Fraction(1, 3)], "a": {"nested": None, "ok": False}}
    assert render_report(doc) == render_report(doc)
    assert render_report(doc).endswith("\n")


def test_csv_quoting():
    text = csv_text(["n", "name"], [[1, "plain"], [2, 'with "quotes", and commas']])
    lines = text.splitlines()
    assert lines[0] == "n,name"
    assert lines[2] == '2,"with ""quotes"", and commas"'


def test_rng_streams_are_reproducible_and_distinct():
    a = make_rng(42, stream=7).integers(0, 10**9, size=8)
    b = make_rng(42, stream=7).integers(0, 10**9, size=8)
    c = make_rng(42, stream=8).integers(0, 10**9, size=8)
    d = make_rng(43, stream=7).integers(0, 10**9, size=8)
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)
    assert not np.array_equal(a, d)
