"""Span recorder: self-time arithmetic, wrapping, absent targets."""

import sys
import types

import pytest

from layers import METRICS, pass_metrics
from spans import COUNT_SPAN, Recorder, Span, install, self_times, uninstall


def test_self_time_subtracts_child_coverage():
    spans = [
        Span("a", 0.0, 10.0, -1),
        Span("b", 1.0, 4.0, 0),
        Span("c", 2.0, 3.0, 1),
        Span("d", 5.0, 9.0, 0),
        Span("e", 6.0, 7.0, 3),
        Span("f", 11.0, 12.0, -1),
    ]
    assert self_times(spans) == pytest.approx([3.0, 2.0, 1.0, 3.0, 1.0, 1.0])


def test_self_time_counts_overlapping_children_once():
    spans = [Span("a", 0.0, 10.0, -1), Span("b", 1.0, 5.0, 0), Span("c", 4.0, 6.0, 0)]
    assert self_times(spans)[0] == pytest.approx(5.0)


def _ticking_clock():
    now = [0.0]

    def clock():
        now[0] += 1.0
        return now[0]

    return clock


def test_wrapped_calls_nest_and_counters_get_their_own_span():
    rec = Recorder(clock=_ticking_clock())
    inner = rec.wrap("inner", lambda x: x + 1, count=lambda r, a, k, res: r.add("n", res))
    outer = rec.wrap("outer", lambda x: inner(x) * 2)
    assert outer(1) == 4
    names = [s.name for s in rec.spans]
    assert names == ["outer", "inner", COUNT_SPAN]
    assert [s.parent for s in rec.spans] == [-1, 0, 0]
    assert rec.counters["n"] == 2
    # outer: ticks 1..6, inner 2..3, counter 4..5 -> self 5 - 1 - 1
    assert self_times(rec.spans) == pytest.approx([3.0, 1.0, 1.0])


def test_counter_errors_are_counted_not_raised():
    rec = Recorder()

    def bad(r, a, k, res):
        raise AttributeError("renamed field")

    assert rec.wrap("f", lambda: 3, count=bad)() == 3
    assert rec.counter_errors == 1


@pytest.fixture
def fake_package(monkeypatch):
    pkg = types.ModuleType("fakepkg")
    a = types.ModuleType("fakepkg.a")
    b = types.ModuleType("fakepkg.b")

    def work(x):
        return x * 3

    a.work = work
    b.work = work  # as after ``from .a import work``
    b.late = lambda x: sys.modules["fakepkg.a"].work(x)  # function-local import
    for mod in (pkg, a, b):
        monkeypatch.setitem(sys.modules, mod.__name__, mod)
    return a, b, work


def test_install_wraps_every_binding_and_lists_absent_targets(fake_package):
    a, b, work = fake_package
    rec = Recorder()
    targets = [("fakepkg.a", "work", None), ("fakepkg.a", "gone", None),
               ("fakepkg.missing", "work", None)]
    absent, undo = install(rec, targets, package="fakepkg")
    assert absent == ["a.gone", "missing.work"]
    assert b.work(1) == 3 and b.late(2) == 6 and a.work(3) == 9
    assert [s.name for s in rec.spans] == ["a.work"] * 3
    uninstall(undo)
    assert a.work is work and b.work is work


def test_pass_metrics_charges_self_time_to_layers():
    rec = Recorder()
    rec.spans = [
        Span("cli.main", 0.0, 10.0, -1),
        Span("cli.cmd_repro", 0.5, 9.5, 0),
        Span("oracle.spectrum_pipeline", 1.0, 8.0, 1),
        Span("hamiltonian.build_hamiltonian", 1.0, 2.0, 2),
        Span("oracle.eigensolve", 2.0, 7.0, 2),
        Span(COUNT_SPAN, 7.0, 7.5, 2),
    ]
    out = pass_metrics(rec, wall=10.0, absent=["x.y"])
    assert set(out) == set(METRICS) - {"trace.overhead_s"}
    assert out["cli.self_s"] == pytest.approx(3.0)
    assert out["oracle.pipeline_self_s"] == pytest.approx(0.5)
    assert out["oracle.eigensolve_s"] == pytest.approx(5.0)
    assert out["hamiltonian.build_s"] == pytest.approx(1.0)
    assert out["trace.top_coverage"] == pytest.approx(1.0)
    assert out["trace.absent_targets"] == 1
    assert out["oracle.sweep_solves"] == 0
