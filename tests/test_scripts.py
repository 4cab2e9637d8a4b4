"""The experiment scripts run to completion (exit 0)."""

import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


@pytest.mark.parametrize("script", ["run_omega_survey.py", "run_measure_demo.py",
                                    "run_coleman_demo.py"])
def test_script_runs(script):
    out = subprocess.run([sys.executable, str(ROOT / "scripts" / script)],
                         cwd=ROOT, capture_output=True, text=True, timeout=120)
    assert out.returncode == 0, out.stderr
