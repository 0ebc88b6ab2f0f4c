"""Every walkthrough under demos/ runs to completion."""

import subprocess
import sys
from pathlib import Path

import pytest

DEMOS = sorted((Path(__file__).parent.parent / "demos").glob("*.py"))


def test_demos_are_found():
    assert len(DEMOS) >= 5


@pytest.mark.parametrize("demo", DEMOS, ids=lambda p: p.name)
def test_demo_exits_cleanly(demo):
    r = subprocess.run([sys.executable, str(demo)], capture_output=True, text=True)
    assert r.returncode == 0, r.stderr
