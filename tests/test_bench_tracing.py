"""The benchmark's trace harness names its spans by module and attribute;
every name must resolve on the imported package, or a traced benchmark run
fails when it installs its wrappers."""

import importlib
import importlib.util
from pathlib import Path

TRACING = Path(__file__).resolve().parent.parent / "bench" / "tracing.py"


def load_tracing():
    spec = importlib.util.spec_from_file_location("bench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_trace_target_resolves():
    tracing = load_tracing()
    assert tracing.TARGETS
    for module in tracing.MODULES:
        importlib.import_module(f"prismatic.{module}")
    for module, path, _, _ in tracing.TARGETS:
        assert module in tracing.MODULES, (module, path)
        owner = importlib.import_module(f"prismatic.{module}")
        for part in path.split("."):
            assert hasattr(owner, part), f"prismatic.{module}.{path}"
            owner = getattr(owner, part)
        assert callable(owner), f"prismatic.{module}.{path}"
