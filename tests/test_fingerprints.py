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
parse, resolve and build step.  The two `gibbs` digests were recorded
again when the Gibbs constants came to be read from the Perron vectors
in closed form rather than multiplied out cylinder by cylinder: c1 and
c2 moved in their last digits.  They were recorded a third time when the
Parry chain came to be read from the Perron vectors of the state graph
rather than of the dense edge graph, and the variational check to draw
its random measures as chains on states: best_random_value changed, and
c1, c2, parry_gap and the PSL2Z entropy moved in their last digits.  The
nine digests of reports with Monte Carlo rows were recorded again when
the sphere sampler came to draw one integer per sample and unrank it,
rather than one per letter: the samples moved, and with them every field
computed from them (the Monte Carlo rows, tau_hat and its half width, the
inequality margin, the LLN fractions, dim_via_tau, and the scan
deviations, which are read at tau_hat).
Genus 2 is left out: its machine is known to overcount from radius 7 on.
A changed digest means a changed number.
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
     "9a06cb733263e14a97049ef1cfe189fab308ccce044b21e42f58245ffa688d4e"),
    ("distortion:groups/f2.grp",
     "distortion --group groups/f2.grp --to Sstar_a2 --exact-n 4 --n 4,8 "
     "--samples 200 --lln-n 6,10 --lln-samples 200 --scan 6", None,
     "cb95f97558057e665baf73ae03cc55d560dab8793a88053385690870c829d898"),
    ("dimension:groups/psl2z.grp",
     "dimension --group groups/psl2z.grp --to Sstar_st -n 12 --samples 80 "
     "--rays 2 --mc-samples 100", None,
     "48f78a0542579151894cfc96200dc1fbc3d256cd73f56f8a20b6dc145b39b325"),
    ("dimension:groups/f2.grp",
     "dimension --group groups/f2.grp --to Sstar_ab -n 12 --samples 80 "
     "--rays 2 --mc-samples 100", None,
     "8bbef8cd41f0dc7bed4aa91be3da068422085d9dfdda3863d6b0e5b54639be12"),
    ("distortion:f2-Sstar_a2-scan11",
     "distortion --group groups/f2.grp --to Sstar_a2 --exact-n 2 --n 4,8 "
     "--samples 200 --scan 11", None,
     "d4b8cd61805e1c9c6b36c37e80b7c781b988e818bc2e4b6e3209707e6abbe749"),
    ("distortion:f2-Sstar_ab-exact10",
     "distortion --group groups/f2.grp --to Sstar_ab --exact-n 10 --n 4,8 "
     "--samples 200", None,
     "bfcb24ce0b1fe82526c6cc59598cbdd8137cd2cfba53e34d76301a64d1f03ba5"),
    ("distortion:psl2z-Sstar_st-exact16-scan16",
     "distortion --group groups/psl2z.grp --to Sstar_st --exact-n 16 "
     "--n 8,16 --samples 200 --scan 16", None,
     "fd6c0d33de7380642e8736d211d53754b3430a50eac103a6bb56cbf5cf79b2d2"),
    # a foreign source set: every length comes from the A* search
    ("distortion:f2-Sstar_ab-Sstar_a2-search",
     "distortion --group groups/f2.grp --from Sstar_ab --to Sstar_a2 "
     "--exact-n 4 --n 4,8 --samples 200 --scan 5", None,
     "2859038de298507384dab450cfa0711bad79c98994132684a81d1b4bbd33e9a7"),
    ("dimension:f2-Sstar_ab-Sstar_a2-search",
     "dimension --group groups/f2.grp --from Sstar_ab --to Sstar_a2 -n 8 "
     "--samples 40 --rays 2 --mc-samples 100", None,
     "e7fc23f50286efe5f9612307cf0699e264e42d25c539a37727379c6066d006e7"),
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
     None, "9cf63c5657b960223f73f094e0bfc1ee7d0f11e78d2b15609081888daf7a9deb"),
    ("gibbs:psl2z",
     "gibbs --group groups/psl2z.grp -N 6 --n-max 5 --trials 40", None,
     "07cf44cbacc6f66c3c3aaf58fe0fd59a12178d56906495adf42bab99ac061ab8"),
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
