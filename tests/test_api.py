"""The package exports only what its users reach for.

A name belongs in ``geoshift.__all__`` when the README, the command line,
the battery or the benchmark workloads use it, or when it is one of the
exception classes callers catch, which the package must raise.  Everything
else is imported from its submodule.
"""

import re
from pathlib import Path

import geoshift

ROOT = Path(__file__).resolve().parent.parent
USERS = ["README.md", "src/geoshift/cli.py", "src/geoshift/battery.py",
         "bench/workloads.py"]


def test_every_export_has_a_user():
    text = "\n".join((ROOT / f).read_text() for f in USERS)
    unused = []
    for name in geoshift.__all__:
        obj = getattr(geoshift, name)
        if isinstance(obj, type) and issubclass(obj, Exception):
            continue
        if not re.search(rf"(?<!\w){re.escape(name)}(?!\w)", text):
            unused.append(name)
    assert unused == []


def test_every_exported_exception_is_raised():
    # directly, or through a subclass; GeoshiftError is the common base
    text = "\n".join(p.read_text()
                     for p in (ROOT / "src" / "geoshift").glob("*.py"))
    raised = [getattr(geoshift.errors, name)
              for name in set(re.findall(r"raise (\w+)\(", text))
              if hasattr(geoshift.errors, name)]
    unraised = []
    for name in geoshift.__all__:
        obj = getattr(geoshift, name)
        if (isinstance(obj, type) and issubclass(obj, Exception)
                and obj is not geoshift.GeoshiftError
                and not any(issubclass(r, obj) for r in raised)):
            unraised.append(name)
    assert unraised == []
