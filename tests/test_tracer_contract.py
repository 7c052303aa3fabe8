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


def test_staudt_arithmetic_evaluates_through_the_module_name(monkeypatch):
    # the tracer's formula.evaluate figures cover staudt steps only while
    # mul/sub/adjoint look `staudt.evaluate` up by name at call time
    from grlogic import staudt

    calls = []
    original = staudt.evaluate

    def counted(*args, **kwargs):
        calls.append(args[0])
        return original(*args, **kwargs)

    monkeypatch.setattr(staudt, "evaluate", counted)
    fr = staudt.standard_frame(1)
    a, b = staudt.encode_scalar(2, fr), staudt.encode_scalar(3, fr)
    for step in (lambda: staudt.mul(a, b, fr), lambda: staudt.sub(a, b, fr), lambda: staudt.adjoint(a, fr)):
        calls.clear()
        step()
        assert len(calls) == 1
