"""Every narrative demo runs to completion and prints its pinned output."""

import hashlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent

# SHA-256 of each demo's stdout; the demos are deterministic, so a change
# here is a change in what the library computes or prints.
STDOUT_SHA256 = {
    "01_blocks_and_measures": "153dcb9a0fa94dfe9f6650ca0db0d7f08142a48ef7d425ce672569da6a010ee0",
    "02_request_trees": "9e60e9119fac8c4d52bae9f7b97e701f410dcc2a06b7dbec38349686ae623414",
    "03_membership_killer": "8156fba5794d209e9122758a940f7d8878097f9e3b91c5b09582d0b2558c6143",
    "04_counting_killer": "9d25299de97298dbaf3544a1d15400b17c3ed8e319b67da5bc39ebe45f3e58f0",
    "05_products_and_extraction": "c55ecf2f0b0f0d99d0327013859f39dfea73bbc2d7e403133129df0dffcd3caf",
}


@pytest.mark.parametrize("demo", sorted((ROOT / "demos").glob("*.py")), ids=lambda path: path.stem)
def test_demo_runs(demo):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        part for part in (str(ROOT / "src"), env.get("PYTHONPATH")) if part
    )
    result = subprocess.run(
        [sys.executable, str(demo)], cwd=ROOT, env=env,
        capture_output=True, timeout=120,
    )
    assert result.returncode == 0, result.stderr.decode()
    assert hashlib.sha256(result.stdout).hexdigest() == STDOUT_SHA256[demo.stem]
