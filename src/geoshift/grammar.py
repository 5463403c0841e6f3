"""Parser for group presentation files.

A presentation file is YAML with a fixed schema; unknown keys are rejected.
Top-level keys:

* ``name``       -- optional display name, a string.
* ``family``     -- one of ``free``, ``finite_table``, ``free_product``,
                    ``dehn``.
* ``generators`` -- mapping with ``letters`` (list of names), ``inverses``
                    (letter -> letter), and for table families ``elements``
                    (letter -> table index, or [factor, element] for free
                    products).
* family payload -- ``rank`` (free), ``table`` (finite_table),
                    ``factors`` (free_product), ``relators`` (dehn).
* ``gensets``    -- optional named foreign generating sets; each has
                    ``letters``, ``inverses``, and ``words`` mapping the
                    letters that are not base letters to words over base
                    letters.

See the repository README for complete examples.
"""

from __future__ import annotations

from typing import Mapping

import yaml

from .errors import FormatError
from .groups import (
    GeneratingSet,
    GroupSpec,
    dehn_group,
    finite_table_group,
    free_group,
    free_product_group,
)

__all__ = ["parse_group_text", "parse_group_file"]

# libyaml's parser where PyYAML was built with it: the same safe constructor
# and resolver as yaml.SafeLoader, so the same documents, about eight times
# faster on the stock files
_Loader = getattr(yaml, "CSafeLoader", yaml.SafeLoader)


def _require_mapping(node, where: str) -> dict:
    if not isinstance(node, Mapping):
        raise FormatError(f"{where} must be a mapping")
    return dict(node)


def _check_keys(node: dict, allowed: set[str], where: str):
    unknown = set(node) - allowed
    if unknown:
        raise FormatError(f"unknown keys {sorted(unknown)} in {where}")


def _str_list(node, where: str) -> list[str]:
    if not isinstance(node, list) or not all(isinstance(x, str) for x in node):
        raise FormatError(f"{where} must be a list of letter names")
    return list(node)


def _letter_pairs(node, where: str) -> dict:
    pairs = _require_mapping(node, where)
    if not all(isinstance(a, str) and isinstance(b, str)
               for a, b in pairs.items()):
        raise FormatError(f"{where} must pair letter names with letter names")
    return pairs


def _generators_block(node, family: str) -> dict:
    gens = _require_mapping(node, "generators")
    allowed = {"letters", "inverses"}
    if family in ("finite_table", "free_product"):
        allowed.add("elements")
    _check_keys(gens, allowed, "generators")
    if "letters" not in gens or "inverses" not in gens:
        raise FormatError("generators needs letters and inverses")
    gens["letters"] = _str_list(gens["letters"], "generators.letters")
    gens["inverses"] = _letter_pairs(gens["inverses"], "generators.inverses")
    return gens


def parse_group_text(text: str) -> GroupSpec:
    """Parse a presentation document and build the group."""
    try:
        doc = yaml.load(text, Loader=_Loader)
    except (yaml.YAMLError, UnicodeEncodeError) as exc:
        # libyaml encodes the text as UTF-8 first, which fails on a lone
        # surrogate
        raise FormatError(f"not valid YAML: {exc}") from None
    doc = _require_mapping(doc, "presentation file")
    # each family and the key of its payload, which a file gives for its
    # own family and for no other
    payload_keys = {"free": "rank", "finite_table": "table",
                    "free_product": "factors", "dehn": "relators"}
    _check_keys(doc, {"name", "family", "generators", "gensets",
                      *payload_keys.values()}, "presentation file")
    family = doc.get("family")
    name = doc.get("name", "G")
    if not isinstance(name, str):
        raise FormatError("name must be a string")
    if not isinstance(family, str) or family not in payload_keys:
        raise FormatError(f"unknown family {family!r}")
    if "generators" not in doc:
        raise FormatError("presentation file needs a generators block")
    gens = _generators_block(doc["generators"], family)
    letters = gens["letters"]
    inverses = gens["inverses"]

    key = payload_keys[family]
    if key not in doc:
        raise FormatError(f"{family} family needs {key}")
    for other in payload_keys.values():
        if other != key and other in doc:
            raise FormatError(f"{family} family does not take {other}")
    payload = doc[key]
    if family == "free":
        spec = free_group(payload, letters, inverses, name=name)
    elif family == "dehn":
        if not isinstance(payload, list):
            raise FormatError("relators must be a list of words")
        relators = [_str_list(r, "relator") for r in payload]
        spec = dehn_group(relators, letters, inverses, name=name)
    else:
        if "elements" not in gens:
            raise FormatError(f"{family} generators need elements")
        build = (finite_table_group if family == "finite_table"
                 else free_product_group)
        spec = build(payload, letters, gens["elements"], inverses, name=name)

    gensets = doc.get("gensets")
    if gensets is not None:
        gensets = _require_mapping(gensets, "gensets")
        for gname, node in gensets.items():
            block = _require_mapping(node, f"genset {gname}")
            _check_keys(block, {"letters", "inverses", "words"}, f"genset {gname}")
            if "letters" not in block or "inverses" not in block:
                raise FormatError(f"genset {gname} needs letters and inverses")
            words = None
            if "words" in block:
                words = {
                    k: tuple(_str_list(v, f"word for {k}"))
                    for k, v in _require_mapping(
                        block["words"], f"genset {gname} words").items()
                }
            gs = GeneratingSet(
                tuple(_str_list(block["letters"], f"genset {gname} letters")),
                _letter_pairs(block["inverses"], f"genset {gname} inverses"),
                words=words,
                name=str(gname),
            )
            spec.resolve(gs)  # validates letters, words, and the involution
            spec.gensets[str(gname)] = gs
    return spec


def parse_group_file(path) -> GroupSpec:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_group_text(fh.read())
