"""The benchmark's tracer wraps slicegb functions by name; every name it
looks up must still exist, or a traced benchmark run crashes."""

import importlib
import importlib.util
from pathlib import Path

TRACING = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"


def load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_name_resolves():
    tracing = load_tracing()
    missing = []
    for span, (module_name, attr) in tracing.TARGETS.items():
        owner = importlib.import_module(module_name)
        for part in attr.split("."):
            owner = getattr(owner, part, None)
        if not callable(owner):
            missing.append(f"{span}: {module_name}.{attr}")
    # the fan-out is timed through the pool class that sections looks up
    if not callable(getattr(importlib.import_module("slicegb.sections"), "ProcessPoolExecutor", None)):
        missing.append("slicegb.sections.ProcessPoolExecutor")
    assert not missing
