"""Self-time accounting on synthetic span trees, with a hand-driven clock."""

import asyncio
import types

import pytest

from tracer import GcWatch, Tracer


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now

    def advance(self, seconds):
        self.now += seconds


@pytest.fixture
def clock():
    return FakeClock()


@pytest.fixture
def tracer(clock):
    return Tracer(clock=clock, cpu_clock=clock)


def test_self_time_is_duration_minus_child_spans(tracer, clock):
    # outer: 1 + [middle: 2 + [leaf: 4] + 3] + [leaf: 5] + 6  = 21 total
    def leaf(seconds):
        clock.advance(seconds)

    leaf = tracer.wrap("leaf", leaf)

    def middle():
        clock.advance(2)
        leaf(4)
        clock.advance(3)

    middle = tracer.wrap("middle", middle)

    def outer():
        clock.advance(1)
        middle()
        leaf(5)
        clock.advance(6)

    tracer.wrap("outer", outer)()
    assert tracer.self_s == {"leaf": 9, "middle": 5, "outer": 7}
    assert sum(tracer.self_s.values()) == 21  # nothing lost, nothing twice
    assert tracer.calls == {"leaf": 2, "middle": 1, "outer": 1}


def test_same_layer_nesting_and_names(tracer, clock):
    def inner():
        clock.advance(2)

    inner = tracer.wrap("codec", inner, name="codec:encode_payload")

    def outer():
        clock.advance(1)
        inner()

    tracer.wrap("codec", outer, name="codec:encode")()
    assert tracer.self_s == {"codec": 3}
    assert tracer.calls == {"codec:encode": 1, "codec:encode_payload": 1}


def test_exception_still_closes_the_span(tracer, clock):
    def boom():
        clock.advance(2)
        raise KeyError("x")

    wrapped = tracer.wrap("layer", boom)
    with pytest.raises(KeyError):
        wrapped()
    assert tracer.self_s["layer"] == 2
    assert tracer._stack == []


def test_tally_sees_arguments_and_result(tracer):
    def feed(_self, data):
        return ["m"] * (len(data) // 2)

    def tally(counts, args, result):
        counts["bytes"] += len(args[1])
        counts["msgs"] += len(result)

    wrapped = tracer.wrap("codec", feed, tally=tally)
    wrapped(None, b"abcd")
    wrapped(None, b"ab")
    assert tracer.counts == {"bytes": 6, "msgs": 3}


def test_blocking_span_charges_cpu_but_relieves_parent_of_wall():
    wall, cpu = FakeClock(), FakeClock()
    tracer = Tracer(clock=wall, cpu_clock=cpu)

    def fsync(records):
        wall.advance(10)  # asleep in the kernel ...
        cpu.advance(1)  # ... for all but one second
        return records

    fsync = tracer.wrap_blocking("commit", fsync, sample=bool)

    def activation():
        wall.advance(2)
        cpu.advance(2)
        fsync(3)
        fsync(0)

    tracer.wrap("persist", activation)()
    assert tracer.self_s == {"commit": 2, "persist": 2}
    assert tracer.wall["commit"] == [10]  # the empty commit is not a sample
    assert tracer.calls["commit"] == 2


def test_coroutine_is_charged_per_resumption_not_while_suspended(tracer, clock):
    def decode():
        clock.advance(3)

    decode = tracer.wrap("codec", decode)

    @types.coroutine
    def suspend():
        yield

    async def client():
        clock.advance(1)
        await suspend()
        decode()
        clock.advance(2)
        return "done"

    traced = tracer.wrap_async("loadgen", client)
    stepper = traced().__await__()
    next(stepper)  # runs to the first suspension
    clock.advance(100)  # the loop is busy elsewhere
    with pytest.raises(StopIteration) as stop:
        next(stepper)
    assert stop.value.value == "done"
    assert tracer.self_s == {"loadgen": 3, "codec": 3}
    assert tracer.calls["loadgen"] == 1


def test_traced_coroutine_runs_on_a_real_loop_and_forwards_cancellation(tracer):
    seen = []

    async def worker():
        try:
            await asyncio.sleep(30)
        except asyncio.CancelledError:
            seen.append("cancelled")
            raise

    async def main():
        task = asyncio.ensure_future(tracer.wrap_async("loadgen", worker)())
        await asyncio.sleep(0.01)
        task.cancel()
        with pytest.raises(asyncio.CancelledError):
            await task
        return await tracer.wrap_async("loadgen", asyncio.sleep)(0, "value")

    assert asyncio.run(main()) == "value"
    assert seen == ["cancelled"]
    assert tracer._stack == []


def test_count_reset_freeze_install_uninstall(tracer, clock):
    class Thing:
        def hit(self):
            clock.advance(1)
            return "hit"

    tracer.install(Thing, "hit", tracer.count("obs:hit", Thing.hit))
    assert Thing().hit() == "hit" and Thing().hit() == "hit"
    assert tracer.counts == {"obs:hit": 2}
    frozen = tracer.freeze()
    Thing().hit()
    assert frozen.counts == {"obs:hit": 2} and tracer.counts == {"obs:hit": 3}
    tracer.reset()
    assert tracer.counts == {} and tracer.self_s == {}
    tracer.uninstall()
    Thing().hit()
    assert tracer.counts == {}


def test_gc_watch_accumulates_pauses(clock):
    watch = GcWatch(clock=clock)
    for generation, pause in ((0, 0.001), (2, 0.050), (1, 0.002)):
        watch._callback("start", {"generation": generation})
        clock.advance(pause)
        watch._callback("stop", {"generation": generation})
    assert watch.gen2 == 1
    assert watch.pause_s == pytest.approx(0.053)
    assert watch.max_pause_s == pytest.approx(0.050)
    watch.reset()
    assert watch.pause_s == 0.0 and watch.gen2 == 0


def test_missing_wrap_target_is_a_warning_and_a_null_layer(monkeypatch, capsys):
    import sut

    gone = sut.WrapTarget("consensus", "repro.protocols.twostep", "TwoStepProcess", "renamed_away")
    lost_module = sut.WrapTarget("shard", "repro.shard.no_such_module", None, "route")
    kept = sut.WrapTarget("kvstore", "repro.smr.kvstore", "KVStore", "apply")
    monkeypatch.setattr(sut, "WRAP_TARGETS", (gone, lost_module, kept))
    tracer = Tracer()
    try:
        missing = sut.install_wrappers(tracer)
        from repro.smr.kvstore import KVStore

        assert hasattr(KVStore.apply, "__wrapped__")
    finally:
        tracer.uninstall()
    assert not hasattr(KVStore.apply, "__wrapped__")
    assert missing == ["consensus", "shard"]
    warnings = [line for line in capsys.readouterr().err.splitlines() if line.startswith("warning:")]
    assert len(warnings) == 2
    assert "renamed_away" in warnings[0] and "consensus.*" in warnings[0]


def test_every_wrap_target_exists_today():
    import sut

    tracer = Tracer()
    try:
        assert sut.install_wrappers(tracer) == []
    finally:
        tracer.uninstall()
