"""The demos' outputs, byte for byte.

Each demo runs in a child process with a fresh working directory. Its
stdout and every CSV it writes there must hash as they did when these
digests were recorded (numpy 2.4 on x86-64), on the compiled kernels and on
numpy alike.
"""

import hashlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

import metricdepth

DEMOS = Path(__file__).resolve().parents[1] / "demos"
# Demo -> SHA-256 prefixes of its stdout and of each CSV it writes.
DEMO_DIGESTS = {
    "breakdown_experiment.py": {"stdout": "321c027082ced676"},
    "depth_rank_tests.py": {"stdout": "6885e6699f7e3299"},
    "spd_median_robustness.py": {"stdout": "f185b974d9bf1b45"},
    "sphere_center_outward.py": {"stdout": "bd4523f54c720576",
                                 "sphere_depth.csv": "c7a3a48b15efbee9"},
    "spider_tree_depth.py": {"stdout": "b8a1eabad0a0c94d",
                             "spider_depth.csv": "7674417311a890a7"},
}


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()[:16]


def run_demo(name: str, cwd: Path) -> dict:
    """SHA-256 prefixes of a demo's stdout and of the CSVs it writes in ``cwd``."""
    src = str(Path(metricdepth.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")]))}
    ran = subprocess.run([sys.executable, str(DEMOS / name)], cwd=cwd, env=env,
                         capture_output=True, check=True)
    digests = {"stdout": _sha(ran.stdout)}
    digests.update((path.name, _sha(path.read_bytes())) for path in sorted(cwd.glob("*.csv")))
    return digests


def test_every_demo_has_digests():
    assert sorted(DEMO_DIGESTS) == sorted(path.name for path in DEMOS.glob("*.py"))


@pytest.mark.parametrize("name", sorted(DEMO_DIGESTS))
def test_demo_outputs(name, tmp_path):
    assert run_demo(name, tmp_path) == DEMO_DIGESTS[name]
