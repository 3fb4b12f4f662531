"""The names the benchmark's tracer looks up must exist in dhsim.

`perfbench/tracing.py` wraps functions by module and name.  A name that
disappears from dhsim would only fail a traced benchmark run, so these
checks make it fail the test suite instead.  The tracer module is
loaded from its file and not modified.
"""
import importlib
import importlib.util
from pathlib import Path

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_spanned_functions_resolve():
    missing = [
        f"dhsim.{module}.{func}"
        for module, func in load_tracing().SPANNED
        if not callable(getattr(importlib.import_module(f"dhsim.{module}"), func, None))
    ]
    assert missing == []


def test_counted_infoflow_names_exist():
    infoflow = importlib.import_module("dhsim.infoflow")
    assert callable(infoflow.evolve)
    assert callable(infoflow.global_density)


def test_gate_kind_sets_exist():
    circuit = importlib.import_module("dhsim.circuit")
    assert "H" in circuit.FIXED_1Q
    assert "CNOT" in circuit.FIXED_2Q
