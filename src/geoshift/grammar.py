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
        doc = yaml.safe_load(text)
    except yaml.YAMLError as exc:
        raise FormatError(f"not valid YAML: {exc}") from None
    doc = _require_mapping(doc, "presentation file")
    _check_keys(
        doc,
        {"name", "family", "generators", "gensets", "rank", "table", "factors",
         "relators"},
        "presentation file",
    )
    family = doc.get("family")
    name = doc.get("name", "G")
    if not isinstance(name, str):
        raise FormatError("name must be a string")
    if family not in ("free", "finite_table", "free_product", "dehn"):
        raise FormatError(f"unknown family {family!r}")
    if "generators" not in doc:
        raise FormatError("presentation file needs a generators block")
    gens = _generators_block(doc["generators"], family)
    letters = gens["letters"]
    inverses = gens["inverses"]

    if family == "free":
        if "rank" not in doc:
            raise FormatError("free family needs rank")
        for key in ("table", "factors", "relators"):
            if key in doc:
                raise FormatError(f"free family does not take {key}")
        spec = free_group(doc["rank"], letters, inverses, name=name)
    elif family == "finite_table":
        if "table" not in doc:
            raise FormatError("finite_table family needs table")
        for key in ("rank", "factors", "relators"):
            if key in doc:
                raise FormatError(f"finite_table family does not take {key}")
        if "elements" not in gens:
            raise FormatError("finite_table generators need elements")
        spec = finite_table_group(doc["table"], letters, gens["elements"],
                                  inverses, name=name)
    elif family == "free_product":
        if "factors" not in doc:
            raise FormatError("free_product family needs factors")
        for key in ("rank", "table", "relators"):
            if key in doc:
                raise FormatError(f"free_product family does not take {key}")
        if "elements" not in gens:
            raise FormatError("free_product generators need elements")
        spec = free_product_group(doc["factors"], letters, gens["elements"],
                                  inverses, name=name)
    else:
        if "relators" not in doc:
            raise FormatError("dehn family needs relators")
        for key in ("rank", "table", "factors"):
            if key in doc:
                raise FormatError(f"dehn family does not take {key}")
        relators = doc["relators"]
        if not isinstance(relators, list):
            raise FormatError("relators must be a list of words")
        relators = [_str_list(r, "relator") for r in relators]
        spec = dehn_group(relators, letters, inverses, name=name)

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
