"""Smoke run of the benchmark harness: every workload once, outputs checked, no timing."""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_bench_self_check_passes():
    done = subprocess.run(
        [sys.executable, str(ROOT / "bench" / "bench.py"), "--self-check"],
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert done.returncode == 0, done.stdout + done.stderr
    assert "self-check passed" in done.stdout.splitlines()
