"""Golden fingerprints of small CLI reports and artifacts.

Lengths are exact integers and every draw is seeded, so a refactor of a
length oracle, a sampler, an engine or the command line must leave each
report byte-identical.  A report's digest is the sha256 of
``json.dumps(doc["report"], sort_keys=True)``; an artifact's is the sha256
of the file's bytes.  The first seven were recorded before the banded
length transducer replaced the A* search and the tiling pattern (the
fifth to seventh before the band pairs' exact means and scan became walks
over the product of the key acceptor and the band rows); the two
search-mode digests before the length search lost its cap; the rest, for
the commands that build one automaton, before the handlers shared one
parse, resolve and build step.  Genus 2 is left out: its machine is known
to overcount from radius 7 on.  A changed digest means a changed number.
"""

import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = str(Path(__file__).resolve().parent.parent / "src")

# (id, command line, artifact file or None for the report, sha256)
GOLDEN = [
    ("distortion:groups/psl2z.grp",
     "distortion --group groups/psl2z.grp --to Sstar_st --exact-n 6 "
     "--n 8,16 --samples 200 --scan 8", None,
     "7069962e74fd4a76da5b0db9ae4b13a3f5f376de40208514d33266660218ed7e"),
    ("distortion:groups/f2.grp",
     "distortion --group groups/f2.grp --to Sstar_a2 --exact-n 4 --n 4,8 "
     "--samples 200 --lln-n 6,10 --lln-samples 200 --scan 6", None,
     "5a639a888c7fb75a865a4e698e43402871a05286ada5cb62e787473ab21d3f22"),
    ("dimension:groups/psl2z.grp",
     "dimension --group groups/psl2z.grp --to Sstar_st -n 12 --samples 80 "
     "--rays 2 --mc-samples 100", None,
     "df22dce750df0b2e99c35d3474e715cde559d2f6130ecbcc12e162ed1513e817"),
    ("dimension:groups/f2.grp",
     "dimension --group groups/f2.grp --to Sstar_ab -n 12 --samples 80 "
     "--rays 2 --mc-samples 100", None,
     "1205d6f2a959b3c002f4d6d9d9fa5ee035b08d398526d76e83597bd68e5222d2"),
    ("distortion:f2-Sstar_a2-scan11",
     "distortion --group groups/f2.grp --to Sstar_a2 --exact-n 2 --n 4,8 "
     "--samples 200 --scan 11", None,
     "7880bcedf076bc7f2daa905fc3b451660c2c9145e3d03d5d2ac5b19321eacf06"),
    ("distortion:f2-Sstar_ab-exact10",
     "distortion --group groups/f2.grp --to Sstar_ab --exact-n 10 --n 4,8 "
     "--samples 200", None,
     "7b7084444e72a856e3e7e71be721a2e1da9c4490b67434ab1c685585fb897892"),
    ("distortion:psl2z-Sstar_st-exact16-scan16",
     "distortion --group groups/psl2z.grp --to Sstar_st --exact-n 16 "
     "--n 8,16 --samples 200 --scan 16", None,
     "0befb7946f76968d4a523680857b85fdce89d4a43c8bed659e64260db0cf17e3"),
    # a foreign source set: every length comes from the A* search
    ("distortion:f2-Sstar_ab-Sstar_a2-search",
     "distortion --group groups/f2.grp --from Sstar_ab --to Sstar_a2 "
     "--exact-n 4 --n 4,8 --samples 200 --scan 5", None,
     "73031b3430b13860cdf54aaadae6691efd67e46ebd1af0a5cff7ca00ebb4652a"),
    ("dimension:f2-Sstar_ab-Sstar_a2-search",
     "dimension --group groups/f2.grp --from Sstar_ab --to Sstar_a2 -n 8 "
     "--samples 40 --rays 2 --mc-samples 100", None,
     "a76c1ec14faa2750c7c9ddf53f4f5823e0a5b6434fa30176de2276ddb255635b"),
    ("automaton:f2", "automaton --group groups/f2.grp -N 6", None,
     "066c715898327b0a89b797fd0e22d0f0c0211849cbf6ecc7ea2e8e6c790ba39a"),
    ("automaton:psl2z", "automaton --group groups/psl2z.grp -N 6", None,
     "6de24a59830924e25bc291d5c9ded281519244dc5777bab97ef13659c96807fa"),
    ("automaton:s3", "automaton --group groups/s3.grp -N 6", None,
     "e14e22e631a4b9de01055670c4e1134b16b3983cb034db4c0378a19ae0cd3c63"),
    ("automaton.aut:f2", "automaton --group groups/f2.grp -N 6",
     "automaton.aut",
     "2a8f1230da8978d37afb9a238f33d12f2108e1a21cf4aea51a0e03be60ae4d04"),
    ("automaton.aut:psl2z", "automaton --group groups/psl2z.grp -N 6",
     "automaton.aut",
     "d692bd3ce272d21981af571b983f4f4553e12b79af677def3a26db7028ba66c2"),
    ("automaton.aut:s3", "automaton --group groups/s3.grp -N 6",
     "automaton.aut",
     "9b05f38947ae2c192b67620eb5fb753dfbb2a7a120d4dd4af8621c0f8ee65ae3"),
    ("growth:f2", "growth --group groups/f2.grp -N 6 --n-max 10", None,
     "6f1dd73910eb9211080182671b5a879d3ab704ee8bbfe3b836c36e4bf8709973"),
    ("growth:psl2z", "growth --group groups/psl2z.grp -N 6 --n-max 10", None,
     "3665bb3270daeba3ea8a3ee79763248fe47fc40aafa2a3902319389f5b2968f1"),
    ("growth:s3", "growth --group groups/s3.grp -N 6 --n-max 10", None,
     "bb4b1a617f5d735b0e3dad30f67504414b87a1c13899d90ad7edfd5955621e2b"),
    ("components:f2", "components --group groups/f2.grp -N 6", None,
     "147fd68ab9e0439679a1dea80aa2b81a190fd2dbaef7c8495f5c8fb40ab6c2ae"),
    ("components:psl2z", "components --group groups/psl2z.grp -N 6", None,
     "6ff7917b7fc604541f1c9316a97cb82bae0970e9e2006a860240d778701b1b04"),
    ("components:s3", "components --group groups/s3.grp -N 6", None,
     "978e8715e2d52854a888394b42c8506653d784b2dd9fc0b14adb7aac77625006"),
    ("validate:f2", "validate --group groups/f2.grp -N 6", None,
     "69bf5bb3fd3ea739cdd82c3c9cc3a10f89da7307f16a964d5e386908eb81e249"),
    ("validate:psl2z", "validate --group groups/psl2z.grp -N 6", None,
     "8eb61c786ddaeecaf8bac65e32e6ffd3c037eeec51f568e4ebf0a93fb61ab78c"),
    ("validate:s3", "validate --group groups/s3.grp -N 6", None,
     "b118736d2986635137a514bdef314b66cbe0869a93ff39f1006c6763b8ea74e0"),
    ("gibbs:f2", "gibbs --group groups/f2.grp -N 6 --n-max 5 --trials 40",
     None, "d754a2ca95aa07d4711fb34a02d234e071e6224670161dd2ce1ddd890749f555"),
    ("gibbs:psl2z",
     "gibbs --group groups/psl2z.grp -N 6 --n-max 5 --trials 40", None,
     "1705b367f8bd0f6c37b3e01f751eda861fa60b77c57ea58973880aad38fe22b9"),
]


@pytest.mark.parametrize("args, artifact, digest",
                         [pytest.param(*g[1:], id=g[0]) for g in GOLDEN])
def test_report_fingerprint_is_unchanged(args, artifact, digest, tmp_path):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (SRC, env.get("PYTHONPATH")) if p)
    r = subprocess.run([sys.executable, "-m", "geoshift.cli", *args.split(),
                        "--out", str(tmp_path)],
                       capture_output=True, text=True, env=env)
    assert r.returncode == 0, r.stderr
    if artifact is None:
        report = json.loads(r.stdout)["report"]
        data = json.dumps(report, sort_keys=True).encode()
    else:
        data = (tmp_path / artifact).read_bytes()
    assert hashlib.sha256(data).hexdigest() == digest
