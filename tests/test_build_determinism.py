"""Printed binaries do not depend on hash seed or build order.

Registers and opcodes hash by identity, so the iteration order of a set
of them follows object addresses, which differ with the hash seed and
with whatever was built before.  No binary may depend on that order.
Each build runs in a fresh interpreter, so the two runs share no caches
and no interned objects.
"""

import json
import os
import subprocess
import sys

import repro

BUILD_DIGESTS = """
import hashlib, json, sys
from repro.eval.pipeline import build_binary
from repro.isa import print_program
from repro.transform.protect import PAPER_TECHNIQUES, Technique
from repro.workloads import build

cells = [(bench, tech) for bench in ("crc32", "adpcmdec")
         for tech in PAPER_TECHNIQUES + (Technique.SWIFT,)]
if sys.argv[1] == "reversed":
    cells.reverse()
digests = {}
for bench, tech in cells:
    text = print_program(build_binary(build(bench), tech))
    digests[f"{bench}/{tech.value}"] = hashlib.sha256(text.encode()).hexdigest()
print(json.dumps(digests, sort_keys=True))
"""

SRC = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))


def _digests(hash_seed: str, order: str) -> dict:
    env = dict(os.environ, PYTHONHASHSEED=hash_seed, PYTHONPATH=SRC)
    out = subprocess.run(
        [sys.executable, "-c", BUILD_DIGESTS, order],
        env=env, capture_output=True, text=True, check=True,
    ).stdout
    return json.loads(out)


def test_binaries_independent_of_hash_seed_and_build_order():
    forward = _digests("0", "forward")
    backward = _digests("1", "reversed")
    assert len(forward) == 14
    assert forward == backward
