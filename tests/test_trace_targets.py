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


def test_traced_slice_commands_run(capsys):
    # the tracer reads arguments too: the slice count of each lift is the
    # length of the second argument of common_lifting
    tracing = load_tracing()
    data = Path(__file__).resolve().parent / "data"
    recorder = tracing.Recorder()
    installed = tracing.Installed(recorder)
    try:
        cli = importlib.import_module("slicegb.cli")
        codes = [cli.main(["reconstruct", str(data / "lemon_slices.json")]),
                 cli.main(["implicitize", "--mode", "slice", str(data / "cubic_map.json")])]
    finally:
        installed.uninstall()
    assert codes == [0, 0]
    assert recorder.observed["lifted_slices"][0] == 8
    assert recorder.calls["sections.common_lifting"] >= 2
