"""perfbench's tracer wraps grlogic functions by name; every name must resolve."""

from pathlib import Path

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def test_every_traced_function_resolves(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import tracer

    missing = []
    for name, targets in tracer.TRACED.items():
        for owner, attr in targets:
            # looked up as `Tracer.install` does: in a class's own dict, else as an attribute
            fn = owner.__dict__.get(attr) if isinstance(owner, type) else getattr(owner, attr, None)
            if not callable(fn):
                missing.append(f"{name}: {getattr(owner, '__name__', owner)}.{attr}")
    assert not missing, missing
