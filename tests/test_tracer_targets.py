"""The benchmark tracer (perfbench/spans.py) wraps teneig names from outside.

It replaces module attributes by name, so every name it lists must stay
importable from the teneig module it names, even where the solver no longer
calls it; otherwise `perfbench/run.py --trace 1` fails to install.
"""

import importlib
import importlib.util
from pathlib import Path

SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def load_spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_name_resolves():
    spans = load_spans()
    missing = [
        (mod, attr)
        for mod, attr, _, _ in spans.TARGETS
        if not callable(getattr(importlib.import_module("teneig." + mod), attr, None))
    ]
    assert not missing


def test_tracer_installs_and_restores():
    spans = load_spans()
    names = {mod for mod, _, _, _ in spans.TARGETS}
    modules = {mod: importlib.import_module("teneig." + mod) for mod in names}
    before = {(mod, attr): getattr(modules[mod], attr) for mod, attr, _, _ in spans.TARGETS}
    tracer = spans.Tracer(modules)
    tracer.install()
    try:
        assert all(getattr(modules[m], a) is not fn for (m, a), fn in before.items())
    finally:
        tracer.uninstall()
    assert all(getattr(modules[m], a) is fn for (m, a), fn in before.items())
