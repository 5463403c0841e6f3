import sys
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


def decimal_digits(n):
    """Digits of n >= 0 read off in blocks of 100, without ``str(n)``."""
    blocks = []
    while True:
        n, r = divmod(n, 10 ** 100)
        blocks.append(r)
        if not n:
            break
    return str(blocks[-1]) + "".join(f"{b:0100d}" for b in blocks[-2::-1])


def test_integers_past_the_conversion_limit_render_exactly():
    # the free group's cylinder count up to length 10,000 has 4,772 digits
    n = 12 * (3 ** 10000 - 1) // 2
    limit = sys.get_int_max_str_digits()
    digits = decimal_digits(n)
    assert len(digits) == 4772
    assert render_value({"cylinders": n}) == (
        '{\n  "cylinders": ' + digits + "\n}")
    assert render_value(-n) == "-" + digits
    assert render_value(Fraction(n, n + 1)) == (
        f'"{digits}/{decimal_digits(n + 1)}"')
    assert csv_text(["n"], [[n]]) == f"n\n{digits}\n"
    assert sys.get_int_max_str_digits() == limit
    assert render_value(10 ** 4299) == str(10 ** 4299)


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
