"""Self-time arithmetic of nested spans and attribute wrapping."""

import types

from perfbench import spans
from perfbench.checks import dominated


def ticking_clock(times):
    it = iter(times)
    return lambda: next(it)


def test_self_time_subtracts_direct_children_only():
    tracer = spans.Tracer(clock=ticking_clock([0, 1, 2, 3, 4, 5, 9, 10]))
    with tracer.span("outer"):
        with tracer.span("a"):
            with tracer.span("a.inner"):
                pass
        with tracer.span("b"):
            pass
    names = [s[spans.NAME] for s in tracer.spans]
    assert names == ["outer", "a", "a.inner", "b"]
    assert [s[spans.PARENT] for s in tracer.spans] == [-1, 0, 1, 0]
    # outer 0-10 minus a (1-4) and b (5-9); a 1-4 minus a.inner (2-3).
    assert spans.self_times(tracer.spans) == [3, 2, 1, 4]
    assert spans.descendants(tracer.spans, 0) == [1, 2, 3]
    assert spans.descendants(tracer.spans, 1) == [2]


def test_install_wraps_and_restore_puts_back():
    module = types.SimpleNamespace(double=lambda x: 2 * x)
    original = module.double
    tracer = spans.Tracer(clock=ticking_clock(range(100)))
    tracer.install([(module, "double", "m.double")])
    with tracer.span("root"):
        assert module.double(4) == 8
    tracer.restore()
    assert module.double is original
    assert [(s[spans.NAME], s[spans.PARENT]) for s in tracer.spans] == [
        ("root", -1),
        ("m.double", 0),
    ]


def test_dominated_rows():
    errors = [[0, 1], [1, 1], [1, 0], [1, 1], [0, 2]]
    # Row 1 (and its copy, row 3) is beaten by rows 0 and 2, row 4 by
    # row 0; equal rows do not dominate each other.
    assert dominated(errors, [0, 1, 2, 3, 4]).tolist() == [False, True, False, True, True]
