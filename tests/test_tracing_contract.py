"""The benchmark's traced run wraps ckn functions by module attribute; a
rename under src/ckn would break it. Install and uninstall the wrappers
here so that such a rename fails the suite."""
import importlib.util
from pathlib import Path

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def _load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracing_wraps_and_restores_every_attribute():
    tracing = _load_tracing()
    inst = tracing.Instrumentation()
    inst.install()
    try:
        wrapped = list(inst._saved)
        assert wrapped
        for mod, key, original in wrapped:
            assert getattr(mod, key) is not original, f"{mod.__name__}.{key}"
        wrapped_names = {(mod.__name__, key) for mod, key, _ in wrapped}
        for module, attr, _ in tracing.SPANS:
            assert (module, attr) in wrapped_names
    finally:
        inst.uninstall()
    for mod, key, original in wrapped:
        assert getattr(mod, key) is original, f"{mod.__name__}.{key}"
