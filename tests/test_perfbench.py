"""The benchmark's smallest four-train pipeline, run as a correctness check.

``perfbench/run.py`` checks every CLI output it produces, including eval
``log_prob`` rows against its own Kraus-product and unscaled-HMM oracles.
"""

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_four_train_tiny_run_is_correct():
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "four-train", "--seed", "1",
         "--seconds", "1", "--trace", "0", "--tiny"],
        cwd=ROOT, capture_output=True, text=True, timeout=600)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["correct"] is True
    assert result["failed"] == 0
    assert result["attempted"] > 0
