"""The benchmark tracer (perfbench/spans.py) wraps teneig names from outside.

It replaces module attributes by name, so every name it lists must stay
importable from the teneig module it names, even where the solver no longer
calls it; otherwise `perfbench/run.py --trace 1` fails to install.
"""

import importlib
import importlib.util
import threading
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
    # the ring has zero off-diagonal entries, so the input scan leaves the
    # pattern scan to run; a zero-free input such as dense_demo() skips it
    rep = teneig.solve_dominant(teneig.sparse_ring_demo())
    assert rep.status == "converged"
    assert reached == set(names)


def test_pta_reaches_the_wrapped_pta_names_and_no_pattern_scan(monkeypatch):
    # the tracer wraps these names in teneig.pta; PTA always perturbs, so it
    # has no use for the irreducibility pattern scan, under any module name
    import teneig
    from teneig import homotopy, pta, tensor

    names = ("require_essentially_nonnegative", "tvp")
    wrapped = {attr for mod, attr, _, _ in load_spans().TARGETS if mod == "pta"}
    assert set(names) <= wrapped
    reached = set()
    for name in names:
        real = getattr(pta, name)

        def called(*args, _name=name, _real=real, **kwargs):
            reached.add(_name)
            return _real(*args, **kwargs)

        monkeypatch.setattr(pta, name, called)

    def pattern_scan(A):
        raise AssertionError("pta_solve made the pattern scan")

    for module in (teneig, tensor, homotopy, pta):
        monkeypatch.setattr(module, "weak_irreducibility_check", pattern_scan, raising=False)
    rep = teneig.pta_solve(teneig.sparse_ring_demo())
    assert rep.status == "converged"
    assert reached == set(names)


def test_traced_names_run_on_the_calling_thread(monkeypatch):
    # the tracer keeps one span stack, so it needs every name it wraps to be
    # called on the solve's own thread, even where the kernel spreads its
    # blocks over worker threads
    import teneig
    from teneig import tensor

    monkeypatch.setattr(tensor, "KERNEL_BLOCK_ENTRIES", 64)
    threads = []
    for mod, attr, _, _ in load_spans().TARGETS:
        module = importlib.import_module("teneig." + mod)
        real = getattr(module, attr)

        def recorded(*args, _name=mod + "." + attr, _real=real, **kwargs):
            threads.append((_name, threading.get_ident()))
            return _real(*args, **kwargs)

        monkeypatch.setattr(module, attr, recorded)
    workers = set()
    for rows in ("_tvp_rows", "_jacobian_rows"):
        real_rows = getattr(tensor, rows)

        def kernel_rows(*args, _real=real_rows):
            workers.add(threading.get_ident())
            return _real(*args)

        monkeypatch.setattr(tensor, rows, kernel_rows)
    A = teneig.random_instance(3, 12, seed=3)
    assert len(tensor._slice_blocks(A, tensor.KERNEL_BLOCK_ENTRIES)) > 1
    assert teneig.homotopy.solve_dominant(A).status == "converged"
    assert teneig.pta.pta_solve(A).status == "converged"
    me = threading.get_ident()
    assert me not in workers
    called = {name for name, _ in threads}
    assert {"homotopy.predict", "homotopy.eigen_residual", "pta.tvp"} <= called
    assert {ident for _, ident in threads} == {me}
