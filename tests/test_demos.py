"""The four demos print exactly their recorded output.

Each demo runs in a fresh interpreter with the package on its path; its
stdout is compared byte for byte with tests/golden/demos/<name>.txt.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
GOLDEN = Path(__file__).resolve().parent / "golden" / "demos"
DEMOS = sorted((ROOT / "demos").glob("*.py"))


def test_every_demo_has_a_golden():
    assert [d.stem for d in DEMOS] == sorted(g.stem for g in GOLDEN.glob("*.txt"))
    assert len(DEMOS) == 4


@pytest.mark.parametrize("demo", DEMOS, ids=lambda d: d.stem)
def test_demo_output_is_unchanged(demo):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    result = subprocess.run(
        [sys.executable, str(demo)], capture_output=True, env=env, cwd=ROOT,
    )
    assert result.returncode == 0, result.stderr.decode()
    assert result.stdout == (GOLDEN / f"{demo.stem}.txt").read_bytes()
