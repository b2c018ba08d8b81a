"""The demo scripts run end to end on small arguments."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


@pytest.mark.parametrize("script, args", [
    ("fragment_scan.py", ["--quantifiers", "E,mod[2,0]", "--depth", "1",
                          "--maxlen", "4"]),
    ("recognizer_walkthrough.py", ["--maxlen", "4"]),
    ("substitution_demo.py", ["--maxlen", "4"]),
])
def test_script_runs_cleanly(script, args):
    path = os.pathsep.join(p for p in (str(ROOT / "src"),
                                       os.environ.get("PYTHONPATH")) if p)
    proc = subprocess.run([sys.executable, str(ROOT / "scripts" / script),
                           *args], capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": path}, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert "Traceback" not in proc.stderr
    assert proc.stdout.strip()
