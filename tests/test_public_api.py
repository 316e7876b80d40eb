import importlib.util
import inspect
from pathlib import Path

import qlab


def test_public_names_match_all():
    bound = [name for name, value in vars(qlab).items() if not name.startswith("_") and not inspect.ismodule(value)]
    assert sorted(qlab.__all__) == sorted(bound)


def test_traced_methods_are_the_classes_own_attributes():
    """The benchmark's tracer wraps these by name in each class's own dict, so a rename must fail here too."""
    path = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"
    spec = importlib.util.spec_from_file_location("tracing_under_test", path)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    for module, cls, attr in tracing.METHODS + tracing.HOT_METHODS:
        assert attr in vars(getattr(importlib.import_module(module), cls)), (module, cls, attr)
