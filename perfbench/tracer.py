"""In-process span tracing of scengen's layers, from outside the package.

The tracer rebinds each traced public function in every ``scengen.*``
module namespace that holds it (``scengen.trainer.nll_loss``,
``scengen.metrics.hmm_forward``, ...), so calls made inside the package
are recorded too. Spans ``(name, start, end, parent)`` stay in memory
until the run ends; nothing under ``src/`` changes. Self time is a span's
duration minus the time its child spans cover.
"""

from __future__ import annotations

import importlib
import inspect
import statistics
import sys
import time
from collections import defaultdict

# module -> public functions whose calls and self time are reported
TRACED = {
    "trainer": ("nll_loss", "nll_gradient", "cayley_step", "train_qhmm"),
    "hmm": ("hmm_forward", "hmm_backward", "baum_welch_fit", "hmm_sample"),
    "qhmm": ("qhmm_log_likelihood", "qhmm_sample", "validate_kraus"),
    "metrics": ("da_score", "sequence_log_prob"),
    "classifier": ("classify",),
    "psa": ("enumerate_scenarios", "load_dataset", "decode_scenario"),
    "serialization": ("save_model", "load_model"),
}
# functions whose per-call latency quantiles are reported
LATENCY = ("trainer.nll_loss", "trainer.nll_gradient")
CLI_COMMANDS = ("make-dataset", "train", "eval", "classify", "generate", "compare")
# real floating-point operations of one complex K x K matrix product
COMPLEX_MATMUL_FLOPS = 8


def _count_nll_loss(signature, counts, args, kwargs, result):
    bound = signature.bind(*args, **kwargs)
    batch = bound.arguments["batch"]
    mu = bound.arguments.get("multiplicity", 1)
    kappa = bound.arguments["kappa"]
    dim = (kappa.matrix if hasattr(kappa, "matrix") else kappa).shape[1]
    # the model's own count: two K x K products per operator and symbol
    products = sum(len(seq) for seq in batch) * mu * 2
    counts["trainer.nll_loss.seqs"] += len(batch)
    counts["trainer.nll_loss.flops"] += products * COMPLEX_MATMUL_FLOPS * dim ** 3


def _count_em_iters(signature, counts, args, kwargs, result):
    counts["hmm.em_iters"] += len(result.log_likelihoods)


def _count_scenarios(signature, counts, args, kwargs, result):
    probable, no_probable = result
    counts["psa.scenarios"] += len(probable) + len(no_probable)


COUNTERS = {
    "trainer.nll_loss": _count_nll_loss,
    "hmm.baum_welch_fit": _count_em_iters,
    "psa.enumerate_scenarios": _count_scenarios,
}


class Tracer:
    """Records spans and counters while installed; restores the package on removal."""

    def __init__(self):
        self.spans = []          # [name, start, end, parent index or -1]
        self.counts = defaultdict(float)
        self._stack = []
        self._bindings = []      # (module, attribute, original)

    def _wrap(self, name, func, counter=None):
        spans, stack, counts = self.spans, self._stack, self.counts
        clock = time.perf_counter
        signature = inspect.signature(func) if counter else None

        def traced(*args, **kwargs):
            span_name = name(args) if callable(name) else name
            span = [span_name, clock(), 0.0, stack[-1] if stack else -1]
            stack.append(len(spans))
            spans.append(span)
            try:
                result = func(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()
            if counter is not None:
                counter(signature, counts, args, kwargs, result)
            return result

        return traced

    def _rebind(self, original, wrapper):
        for mod_name, module in list(sys.modules.items()):
            if mod_name != "scengen" and not mod_name.startswith("scengen."):
                continue
            for attr, value in list(vars(module).items()):
                if value is original:
                    self._bindings.append((module, attr, original))
                    setattr(module, attr, wrapper)

    def install(self) -> None:
        for module, names in TRACED.items():
            mod = importlib.import_module(f"scengen.{module}")
            for fname in names:
                key = f"{module}.{fname}"
                original = getattr(mod, fname)
                self._rebind(original, self._wrap(key, original, COUNTERS.get(key)))
        cli = importlib.import_module("scengen.cli")
        self._rebind(cli.main, self._wrap(lambda args: f"cli.{args[0][0]}", cli.main))

    def remove(self) -> None:
        while self._bindings:
            module, attr, original = self._bindings.pop()
            setattr(module, attr, original)

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.remove()
        return False

    def summary(self, loss_steps: int, factors) -> dict:
        """Per-layer numbers of the traced window.

        ``loss_steps`` is the number of accepted training steps read from
        the ``loss.csv`` files the window's ``train`` commands wrote.
        ``factors[i]`` scales the spans of the i-th CLI call to the
        reference core speed, as the end-to-end times are.
        """
        root = [0] * len(self.spans)
        scale = [1.0] * len(self.spans)
        calls_seen = 0
        for i, (_, _, _, parent) in enumerate(self.spans):
            if parent >= 0:
                root[i], scale[i] = root[parent], scale[parent]
            else:
                root[i], scale[i] = i, factors[calls_seen]
                calls_seen += 1
        child_time = [0.0] * len(self.spans)
        for i, (_, start, end, parent) in enumerate(self.spans):
            if parent >= 0:
                child_time[parent] += (end - start) * scale[i]
        calls = defaultdict(int)
        self_s = defaultdict(float)
        durations = defaultdict(list)
        cayley_in_train = 0
        for i, (name, start, end, _) in enumerate(self.spans):
            duration = (end - start) * scale[i]
            calls[name] += 1
            self_s[name] += duration - child_time[i]
            if name in LATENCY:
                durations[name].append(duration * 1e3)
            if name == "trainer.cayley_step" and self.spans[root[i]][0] == "cli.train":
                cayley_in_train += 1

        out = {}
        for module, names in TRACED.items():
            for fname in names:
                key = f"{module}.{fname}"
                out[f"{key}.calls"] = calls[key]
                out[f"{key}.self_s"] = self_s[key]
        for key in LATENCY:
            samples = durations[key]
            out[f"{key}.p50_ms"] = statistics.median(samples) if samples else 0.0
            out[f"{key}.p90_ms"] = (statistics.quantiles(samples, n=10)[-1]
                                    if len(samples) > 1 else out[f"{key}.p50_ms"])
        out["trainer.nll_loss.seqs"] = int(self.counts["trainer.nll_loss.seqs"])
        loss_self = self_s["trainer.nll_loss"]
        out["trainer.loss_gflop_per_s"] = (
            self.counts["trainer.nll_loss.flops"] / loss_self / 1e9 if loss_self else 0.0)
        out["trainer.step_accept_ratio"] = (
            loss_steps / cayley_in_train if cayley_in_train else 0.0)
        out["hmm.em_iters"] = int(self.counts["hmm.em_iters"])
        out["psa.scenarios"] = int(self.counts["psa.scenarios"])
        for command in CLI_COMMANDS:
            out[f"cli.{command}.self_s"] = self_s[f"cli.{command}"]
        return out
