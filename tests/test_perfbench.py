"""The benchmark's smallest pipelines, run as correctness checks.

``perfbench/run.py`` checks every CLI output it produces, including eval
``log_prob`` rows against its own Kraus-product and unscaled-HMM oracles.
"""

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def run_tiny(workload, trace):
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "1",
         "--seconds", "1", "--trace", str(trace), "--tiny"],
        cwd=ROOT, capture_output=True, text=True, timeout=600)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


def test_four_train_tiny_run_is_correct():
    result = run_tiny("four-train", 0)
    assert result["correct"] is True
    assert result["failed"] == 0
    assert result["attempted"] > 0


def test_four_score_tiny_run_is_correct():
    # the read path: eval log_prob against the benchmark's own oracle, and
    # byte-identical reruns
    result = run_tiny("four-score", 0)
    assert result["correct"] is True
    assert result["failed"] == 0
    assert result["attempted"] > 0


def test_wide_tiny_run_is_correct():
    # K=16, mu=2 sampling end to end, with the benchmark's rerun-identity check
    result = run_tiny("wide", 0)
    assert result["correct"] is True
    assert result["failed"] == 0
    assert result["attempted"] > 0


def test_desk_tiny_trace_run():
    # the tracer sees training through the traced trainer.cayley_step
    result = run_tiny("desk", 1)
    assert result["correct"] is True
    assert result["metrics"]["trainer.cayley_step.calls"]["value"] > 0
