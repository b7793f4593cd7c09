"""The traced benchmark run rebinds adjointkit functions by name: every
name it lists must exist, and uninstalling must put every binding back."""

import sys

from conftest import perfbench_module


def _bindings():
    """Every module-level binding of the adjointkit modules."""
    return {(name, key): value for name, mod in list(sys.modules.items())
            if mod is not None and (name == "adjointkit" or name.startswith("adjointkit."))
            for key, value in vars(mod).items()}


def test_span_names_resolve_and_are_restored():
    spans = perfbench_module("spans")
    import adjointkit

    targets = [(m, a) for m, a, *_ in spans.SPANS] + [(m, a) for m, a, _ in spans.COUNTED]
    originals = {}
    for modname, attr in targets:
        owner, last = spans._resolve(getattr(adjointkit, modname), attr)
        originals[(modname, attr)] = (owner, last, owner.__dict__[last])
    before = _bindings()
    undo = spans.install(spans.Recorder())
    try:
        for owner, last, original in originals.values():
            assert owner.__dict__[last] is not original
    finally:
        spans.uninstall(undo)
    for owner, last, original in originals.values():
        assert owner.__dict__[last] is original
    after = _bindings()
    assert after.keys() == before.keys()
    assert all(after[k] is before[k] for k in before)
