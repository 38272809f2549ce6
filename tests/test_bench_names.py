"""Every function the benchmark tracer rebinds must exist in the package.

The tracer in ``perfbench/tracer.py`` looks its functions up by name, so a
renamed one breaks ``perfbench/run.py --trace 1`` without failing any other
test. The tracer is loaded from its file, as the benchmark loads it.
"""

import importlib
import importlib.util
from pathlib import Path

import pytest

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


NAMES = [(module, name) for module, names in load_tracer().TRACED.items()
         for name in names] + [("cli", "main")]


@pytest.mark.parametrize("module, name", NAMES, ids=[f"{m}.{n}" for m, n in NAMES])
def test_traced_name_resolves(module, name):
    assert callable(getattr(importlib.import_module(f"scengen.{module}"), name, None))
