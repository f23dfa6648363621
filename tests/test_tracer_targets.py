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


def test_solve_reaches_the_wrapped_homotopy_names(monkeypatch):
    # the tracer wraps these names in teneig.homotopy; a solve that stopped
    # looking them up there would leave their layer spans empty
    import teneig
    from teneig import homotopy

    names = (
        "predict",
        "newton_correct",
        "endgame",
        "weak_irreducibility_check",
        "require_essentially_nonnegative",
    )
    wrapped = {attr for mod, attr, _, _ in load_spans().TARGETS if mod == "homotopy"}
    assert set(names) <= wrapped
    reached = set()
    for name in names:
        real = getattr(homotopy, name)

        def called(*args, _name=name, _real=real, **kwargs):
            reached.add(_name)
            return _real(*args, **kwargs)

        monkeypatch.setattr(homotopy, name, called)
    rep = teneig.solve_dominant(teneig.dense_demo())
    assert rep.status == "converged"
    assert reached == set(names)
