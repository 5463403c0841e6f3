"""Golden fingerprints of small CLI reports.

Lengths are exact integers and every draw is seeded, so a refactor of a
length oracle, a sampler or an engine must leave each report byte-identical.
Each digest is the sha256 of ``json.dumps(doc["report"], sort_keys=True)``
as recorded before the banded length transducer replaced the A* search and
the tiling pattern; the last three were recorded before the band pairs'
exact means and scan became walks over the product of the key acceptor and
the band rows.  The two search-mode digests were recorded before the
length search lost its cap.  A changed digest means a changed number.
"""

import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = str(Path(__file__).resolve().parent.parent / "src")

GOLDEN = [
    ("distortion --group groups/psl2z.grp --to Sstar_st --exact-n 6 "
     "--n 8,16 --samples 200 --scan 8",
     "7069962e74fd4a76da5b0db9ae4b13a3f5f376de40208514d33266660218ed7e"),
    ("distortion --group groups/f2.grp --to Sstar_a2 --exact-n 4 --n 4,8 "
     "--samples 200 --lln-n 6,10 --lln-samples 200 --scan 6",
     "5a639a888c7fb75a865a4e698e43402871a05286ada5cb62e787473ab21d3f22"),
    ("dimension --group groups/psl2z.grp --to Sstar_st -n 12 --samples 80 "
     "--rays 2 --mc-samples 100",
     "df22dce750df0b2e99c35d3474e715cde559d2f6130ecbcc12e162ed1513e817"),
    ("dimension --group groups/f2.grp --to Sstar_ab -n 12 --samples 80 "
     "--rays 2 --mc-samples 100",
     "1205d6f2a959b3c002f4d6d9d9fa5ee035b08d398526d76e83597bd68e5222d2"),
    ("distortion --group groups/f2.grp --to Sstar_a2 --exact-n 2 --n 4,8 "
     "--samples 200 --scan 11",
     "7880bcedf076bc7f2daa905fc3b451660c2c9145e3d03d5d2ac5b19321eacf06"),
    ("distortion --group groups/f2.grp --to Sstar_ab --exact-n 10 --n 4,8 "
     "--samples 200",
     "7b7084444e72a856e3e7e71be721a2e1da9c4490b67434ab1c685585fb897892"),
    ("distortion --group groups/psl2z.grp --to Sstar_st --exact-n 16 "
     "--n 8,16 --samples 200 --scan 16",
     "0befb7946f76968d4a523680857b85fdce89d4a43c8bed659e64260db0cf17e3"),
    # a foreign source set: every length comes from the A* search
    ("distortion --group groups/f2.grp --from Sstar_ab --to Sstar_a2 "
     "--exact-n 4 --n 4,8 --samples 200 --scan 5",
     "73031b3430b13860cdf54aaadae6691efd67e46ebd1af0a5cff7ca00ebb4652a"),
    ("dimension --group groups/f2.grp --from Sstar_ab --to Sstar_a2 -n 8 "
     "--samples 40 --rays 2 --mc-samples 100",
     "a76c1ec14faa2750c7c9ddf53f4f5823e0a5b6434fa30176de2276ddb255635b"),
]


# the first four ids name only the command and the group file; later
# entries share those, so their ids add the pair and the radii
IDS = [a.split(" --")[0] + ":" + a.split()[2] for a, _ in GOLDEN[:4]] + [
    "distortion:f2-Sstar_a2-scan11", "distortion:f2-Sstar_ab-exact10",
    "distortion:psl2z-Sstar_st-exact16-scan16",
    "distortion:f2-Sstar_ab-Sstar_a2-search",
    "dimension:f2-Sstar_ab-Sstar_a2-search"]


@pytest.mark.parametrize("args, digest", GOLDEN, ids=IDS)
def test_report_fingerprint_is_unchanged(args, digest):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (SRC, env.get("PYTHONPATH")) if p)
    r = subprocess.run([sys.executable, "-m", "geoshift.cli", *args.split()],
                       capture_output=True, text=True, env=env)
    assert r.returncode == 0, r.stderr
    report = json.loads(r.stdout)["report"]
    got = hashlib.sha256(json.dumps(report, sort_keys=True).encode())
    assert got.hexdigest() == digest
