"""Group description files: parsing, validation, and error reporting."""

import copy
import json

import pytest
import yaml

from geoshift import FormatError, UnknownLetter, parse_group_file
from geoshift.grammar import parse_group_text

FREE = """\
name: F2
family: free
rank: 2
generators:
  letters: [a, a^-1, b, b^-1]
  inverses: {a: a^-1, a^-1: a, b: b^-1, b^-1: b}
"""


def test_parse_free():
    spec = parse_group_text(FREE)
    assert spec.name == "F2"
    assert spec.family == "free"
    assert spec.base.letters == ("a", "a^-1", "b", "b^-1")
    assert spec.element(["a", "a^-1"]).is_identity()


def test_parse_file_matches_text(tmp_path):
    p = tmp_path / "f.grp"
    p.write_text(FREE)
    spec = parse_group_file(p)
    assert spec.name == "F2"
    assert spec.base.letters == parse_group_text(FREE).base.letters


@pytest.mark.parametrize("path,name,family", [
    ("groups/f2.grp", "F2", "free"),
    ("groups/psl2z.grp", "PSL2Z", "free_product"),
    ("groups/s3.grp", "S3", "finite_table"),
    ("groups/genus2.grp", "Genus2", "dehn"),
])
def test_shipped_files_load(path, name, family):
    spec = parse_group_file(path)
    assert spec.name == name
    assert spec.family == family


def test_shipped_gensets_resolve(f2):
    star = f2.resolve("Sstar_ab")
    assert star.name == "Sstar_ab"
    assert len(star.letters) == 6
    ab = star.elements[star.letters.index("ab")]
    assert ab == f2.element(["a", "b"])


def test_base_set_resolves_by_name_and_none(f2):
    assert f2.resolve(None).letters == f2.resolve("S").letters
    assert f2.resolve(None).is_base


C2 = """\
name: C2
family: finite_table
table: [[0, 1], [1, 0]]
generators:
  letters: [a]
  inverses: {a: a}
  elements: {a: 1}
"""

Z2_Z3 = """\
name: Z2*Z3
family: free_product
factors:
  - [[0, 1], [1, 0]]
  - [[0, 1, 2], [1, 2, 0], [2, 0, 1]]
generators:
  letters: [s, t, t^-1]
  inverses: {s: s, t: t^-1}
  elements: {s: [0, 1], t: [1, 1], t^-1: [1, 2]}
"""


@pytest.mark.parametrize("text,fragment", [
    ("not: [valid", "YAML"),
    ("[1, 2]", "mapping"),
    (FREE.replace("rank: 2", "rank: 3"), "letters"),
    (FREE.replace("family: free", "family: nonsense"), "family"),
    (FREE.replace("b^-1: b}", "b^-1: a}"), "involution"),
    (FREE.replace("{a: a^-1, a^-1: a, ", "{"), "no inverse"),
    (FREE.replace("[a, a^-1, b, b^-1]", "[a, a^-1, b, b]"), "distinct"),
    # wrongly typed values
    (C2.replace("[[0, 1], [1, 0]]", "[[0,1],[1,'x']]"), "not square"),
    (C2.replace("[[0, 1], [1, 0]]", "7"), "list of rows"),
    (C2.replace("elements: {a: 1}", "elements: {b: 1}"), "no table element"),
    (C2.replace("elements: {a: 1}", "elements: [1]"), "mapping"),
    (C2.replace("elements: {a: 1}", "elements: {a: x}"), "nontrivial"),
    (FREE.replace("rank: 2", "rank: [2]"), "rank"),
    (Z2_Z3.replace("{s: [0, 1],", "{s: 1,"), "[factor, element]"),
    (Z2_Z3[:Z2_Z3.index("factors:")] + "factors: 3\n"
     + Z2_Z3[Z2_Z3.index("generators:"):], "factors"),
    (FREE.replace("{a: a^-1, a^-1: a,", "{a: [A], a^-1: a,"), "letter names"),
    (FREE.replace("name: F2", "name: null"), "name"),
    (FREE.replace("name: F2", "name: -1"), "name"),
    (FREE.replace("name: F2", "name: [[0]]"), "name"),
])
def test_malformed_inputs(text, fragment):
    with pytest.raises(FormatError) as err:
        parse_group_text(text)
    assert fragment.lower() in str(err.value).lower()


def test_genset_with_unknown_letter_rejected():
    text = FREE + """\
gensets:
  T:
    letters: [a, a^-1, q]
    inverses: {a: a^-1, a^-1: a, q: q}
    words: {q: [z, z]}
"""
    with pytest.raises(UnknownLetter):
        parse_group_text(text)


def test_genset_letter_resolving_to_identity_rejected():
    text = FREE + """\
gensets:
  T:
    letters: [a, a^-1, q, q^-1]
    inverses: {a: a^-1, a^-1: a, q: q^-1, q^-1: q}
    words: {q: [a, a^-1], q^-1: [a, a^-1]}
"""
    with pytest.raises(FormatError):
        parse_group_text(text)


STOCK_FILES = ["groups/f2.grp", "groups/psl2z.grp", "groups/s3.grp",
               "groups/genus2.grp"]
MUTANTS = (None, -1, "x", [[0]])


def _node_paths(node, prefix=()):
    """The path to every node of a parsed document, the root included."""
    yield prefix
    if isinstance(node, dict):
        for key, child in node.items():
            yield from _node_paths(child, prefix + (key,))
    elif isinstance(node, list):
        for i, child in enumerate(node):
            yield from _node_paths(child, prefix + (i,))


def _replaced(doc, path, value):
    if not path:
        return value
    out = copy.deepcopy(doc)
    parent = out
    for key in path[:-1]:
        parent = parent[key]
    parent[path[-1]] = value
    return out


@pytest.mark.parametrize("path", STOCK_FILES)
def test_mutated_stock_files_parse_or_fail_cleanly(path):
    # every mutant either parses or raises one of the two classes the
    # command line reports as an input error (exit 2)
    with open(path) as fh:
        doc = yaml.safe_load(fh)
    others = []
    for where in _node_paths(doc):
        for value in MUTANTS:
            try:
                parse_group_text(json.dumps(_replaced(doc, where, value)))
            except (FormatError, UnknownLetter):
                pass
            except Exception as exc:
                others.append((where, value, repr(exc)))
    assert others == []
