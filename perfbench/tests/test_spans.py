"""Ledger arithmetic and the tracer's span bookkeeping.

Run with ``python3 -m pytest perfbench/tests``.
"""

import asyncio
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1]))

import spans  # noqa: E402
from spans import Span, Tracer, ledger, ledger_gap, merge, overlap, self_time  # noqa: E402


def make(name, segments, parent=None):
    span = Span(name, parent)
    span.segments = list(segments)
    span.start = min(start for start, _ in segments)
    span.end = max(end for _, end in segments)
    return span


def test_merge_joins_overlapping_and_touching_intervals():
    assert merge([(5, 6), (0, 2), (1, 3), (3, 4), (7, 7)]) == [(0, 4), (5, 6)]


def test_overlap_of_disjoint_lists():
    assert overlap([(0, 4), (6, 10)], [(2, 7), (9, 12)]) == 2 + 1 + 1


def test_self_time_subtracts_the_union_of_children():
    parent = make("p", [(0, 10)])
    # Two children overlap each other on [3, 4]: that second counts once.
    children = [make("a", [(2, 4)], parent), make("b", [(3, 6)], parent)]
    assert self_time(parent, children) == pytest.approx(10 - 4)


def test_self_time_ignores_child_time_outside_the_parent_segments():
    # An async parent ran on [0, 2] and [8, 10]; its child ran on [1, 9]
    # but only [1, 2] and [8, 9] fall inside the parent's own segments.
    parent = make("p", [(0, 2), (8, 10)])
    child = make("c", [(1, 9)], parent)
    assert self_time(parent, [child]) == pytest.approx(4 - 2)


def test_ledger_self_times_partition_a_nested_tree():
    root = make("root", [(0, 10)])
    mid = make("mid", [(1, 7)], root)
    leaf = make("leaf", [(2, 3)], mid)
    totals = ledger([root, mid, leaf])
    assert totals["root"].self == pytest.approx(4)
    assert totals["mid"].self == pytest.approx(5)
    assert totals["leaf"].self == pytest.approx(1)
    assert sum(row.self for row in totals.values()) == pytest.approx(10)
    assert ledger_gap(totals, 20.0) == pytest.approx(0.5)


def test_wrapped_calls_nest_and_count_items():
    tracer = Tracer()

    def inner(keys):
        return list(keys)

    traced_inner = tracer.wrap("inner", inner, items=lambda args, out: len(out))
    traced_outer = tracer.wrap("outer", lambda: traced_inner("abc"))
    traced_outer()
    by_name = {span.name: span for span in tracer.spans}
    assert by_name["inner"].parent is by_name["outer"]
    assert by_name["inner"].items == 3
    totals = tracer.totals()
    assert totals["outer"].calls == totals["inner"].calls == 1


def test_async_span_excludes_the_time_it_waits():
    tracer = Tracer()

    async def slow():
        await asyncio.sleep(0.05)
        return 7

    traced = tracer.wrap_async("slow", slow)
    assert asyncio.run(traced()) == 7
    row = tracer.totals()["slow"]
    assert row.wall >= 0.05
    assert row.busy < 0.01
    assert row.self == pytest.approx(row.busy)


def test_task_steps_are_charged_to_the_span_that_spawned_them():
    tracer = Tracer()

    def burn(seconds):
        end = spans.clock() + seconds
        while spans.clock() < end:
            pass

    async def child():
        await asyncio.sleep(0)
        burn(0.02)

    async def parent():
        await asyncio.gather(child(), child())

    async def main():
        asyncio.get_running_loop().set_task_factory(tracer.task_factory)
        await tracer.wrap_async("parent", parent)()

    asyncio.run(main())
    row = tracer.totals()["parent"]
    assert row.self >= 0.04


def test_generator_steps_are_spans_and_stop_iteration_passes_through():
    tracer = Tracer()

    def plan():
        answer = yield "round-1"
        answer = yield f"round-2 after {answer}"
        return answer

    steps = tracer.wrap_generator("plan", plan)()
    assert steps.send(None) == "round-1"
    assert steps.send("a") == "round-2 after a"
    with pytest.raises(StopIteration) as stop:
        steps.send("b")
    assert stop.value.value == "b"
    row = tracer.totals()["plan"]
    assert row.calls == 3
    assert row.items == 2  # two rounds planned


def test_folding_keeps_the_totals_of_an_unfolded_trace(monkeypatch):
    def run(fold_at):
        monkeypatch.setattr(Tracer, "FOLD_AT", fold_at)
        tracer = Tracer()
        leaf = tracer.wrap("leaf", lambda: None)
        root = tracer.wrap("root", lambda: [leaf() for _ in range(3)])
        for _ in range(10):
            root()
        return tracer, tracer.totals()

    folded_tracer, folded = run(fold_at=4)
    _, whole = run(fold_at=10_000)
    assert folded_tracer.fold_seconds > 0
    for name in ("root", "leaf"):
        assert folded[name].calls == whole[name].calls
        assert folded[name].items == whole[name].items


def test_patch_and_restore_leave_the_original_in_place():
    class Thing:
        def hello(self):
            return "hi"

    original = Thing.__dict__["hello"]
    thing = Thing()
    tracer = Tracer()
    tracer.patch(Thing, "hello", lambda fn: tracer.wrap("hello", fn))
    tracer.patch(thing, "hello", lambda fn: tracer.wrap("instance", fn))
    assert thing.hello() == "hi"
    tracer.restore()
    assert Thing.__dict__["hello"] is original
    assert "hello" not in vars(thing)
    names = sorted(span.name for span in tracer.spans)
    assert names == ["hello", "instance"]
