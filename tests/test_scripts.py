import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


@pytest.mark.parametrize("script, lines", [
    ("run_decomposition.py", ("budget = ", "step 0: ", "recovered ")),
    ("spectrum_report.py", ("growth fit: C = ", "negative-frequency energy ratio: ",
                            "reconstruction at z = ")),
])
def test_script_runs_with_its_defaults(script, lines):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    out = subprocess.run(
        [sys.executable, "-W", "error::RuntimeWarning", str(ROOT / "scripts" / script)],
        capture_output=True, text=True, env=env, timeout=300)
    assert out.returncode == 0, out.stderr
    for line in lines:
        assert line in out.stdout, line
