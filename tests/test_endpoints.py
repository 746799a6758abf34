"""The stream endpoints: ``ArraySource`` and ``CollectSink`` / ``Collected``.

On the batched path both are ndarray-native — the source pushes slices of a
float64 ring, the sink keeps float64 chunks — and nobody may be able to
tell: ``Collected`` is a list to every reader, ``work_batch`` is ``n``
``work()`` calls, and every engine still equals the scalar one however a
run is chopped and however its output is read.  The one thing that *is*
observable, and pinned here as a count, is that a run no longer leaves a
Python float per item behind.
"""

import copy
import functools
import gc
import json
import sys
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.apps import ALL_APPS
from repro.errors import EngineDowngradeWarning
from repro.graph import Pipeline
from repro.graph.builtins import ArraySource, Collected, CollectSink, Identity
from repro.linear import apply_selection
from repro.runtime import ArrayChannel, Interpreter

# -- Collected against a plain list -------------------------------------------

_items = st.one_of(
    st.integers(-5, 5),
    st.floats(allow_nan=False, allow_infinity=False, width=32),
    st.just(-0.0),
)
_floats = st.lists(st.floats(allow_nan=False, width=32) | st.just(-0.0), max_size=9)
_index = st.integers(-12, 12)
_bound = st.none() | _index
_slices = st.builds(slice, _bound, _bound, st.sampled_from([None, 1, 2, -1, -3]))

_ops = st.one_of(
    st.tuples(st.just("append"), _items),
    st.tuples(st.just("block"), _floats),
    st.tuples(st.just("extend"), st.lists(_items, max_size=5)),
    st.tuples(st.just("extend self")),
    st.tuples(st.just("iadd"), st.lists(_items, max_size=3)),
    st.tuples(st.just("clear")),
    st.tuples(st.just("del"), _index | _slices),
    st.tuples(st.just("set"), _index, _items),
    st.tuples(st.just("insert"), _index, _items),
    st.tuples(st.just("pop"), _index),
    st.tuples(st.just("read")),
    st.tuples(st.just("deepcopy")),
)


def _apply(op, seq, is_model):
    """One mutation, the same way on either sequence; returns what it returned."""
    kind, *args = op
    if kind == "append":
        return seq.append(args[0])
    if kind == "block":
        return seq.extend(args[0] if is_model else np.array(args[0], dtype=np.float64))
    if kind == "extend":
        return seq.extend(iter(args[0]))
    if kind == "extend self":
        return seq.extend(seq) if len(seq) < 200 else None
    if kind == "iadd":
        seq += args[0]
        return None
    if kind == "clear":
        return seq.clear()
    if kind == "del":
        del seq[args[0]]
        return None
    if kind == "set":
        seq[args[0]] = args[1]
        return None
    if kind == "insert":
        return seq.insert(*args)
    if kind == "pop":
        return seq.pop(args[0])
    raise AssertionError(kind)


def _same_items(got, want):
    """Equal item for item, and the same kind of item (sign of zero too)."""
    assert got == want
    assert [(type(v), str(v)) for v in got] == [(type(v), str(v)) for v in want]


def _assert_reads_alike(seq, model, probe):
    assert len(seq) == len(model) and bool(seq) == bool(model)
    as_array = np.asarray(seq)
    assert as_array.dtype == np.asarray(model).dtype
    assert np.array_equal(as_array, np.asarray(model))
    assert np.array_equal(np.asarray(seq, dtype=np.float64), np.asarray(model, dtype=np.float64))
    # np.asarray neither boxed the store nor aliases it.
    as_array[...] = 99
    assert seq == model and model == seq and not seq != model
    assert (seq == model + [1.0]) is False and seq != model + [1.0]
    assert (seq == tuple(model)) == (model == tuple(model))
    _same_items(list(seq), model)
    _same_items(list(reversed(seq)), model[::-1])
    assert repr(seq) == repr(model) and json.dumps(list(seq)) == json.dumps(model)
    for index in (0, -1, probe, -probe):
        if -len(model) <= index < len(model):
            _same_items([seq[index]], [model[index]])
        else:
            with pytest.raises(IndexError):
                seq[index]
    for cut in (slice(None), slice(None, 8), slice(probe, None), slice(None, None, -2)):
        assert type(seq[cut]) is list
        _same_items(seq[cut], model[cut])
    if model:
        assert (model[-1] in seq) and seq.index(model[0]) == 0
        assert seq.count(model[0]) == model.count(model[0])


class TestCollectedIsAList:
    @settings(max_examples=150, deadline=None)
    @given(ops=st.lists(_ops, max_size=25), probe=st.integers(0, 12))
    def test_same_observable_behaviour_as_a_list(self, ops, probe):
        seq, model = Collected(), []
        for op in ops:
            if op[0] == "read":
                _assert_reads_alike(seq, model, probe)
                continue
            if op[0] == "deepcopy":
                twin = copy.deepcopy(seq)
                twin.append(1.5)
                twin.extend(np.ones(3))
                _same_items(list(twin), model + [1.5, 1.0, 1.0, 1.0])
                continue
            try:
                want = _apply(op, model, is_model=True)
            except IndexError:
                with pytest.raises(IndexError):
                    _apply(op, seq, is_model=False)
                continue
            _same_items([_apply(op, seq, is_model=False)], [want])
            assert len(seq) == len(model)
        _assert_reads_alike(seq, model, probe)

    def test_construction_and_both_operand_orders(self):
        assert Collected() == [] and [] == Collected() and not Collected()
        seq = Collected([1, 2.0])
        seq.extend(np.array([3.0]))
        assert seq == [1, 2.0, 3.0] and [1, 2.0, 3.0] == seq
        assert seq != [1, 2.0] and [1, 2.0] != seq
        assert seq == Collected([1.0, 2.0, 3.0])
        del seq[:]
        assert seq == [] and len(seq) == 0

    def test_a_block_is_copied(self):
        block = np.arange(4.0)
        seq = Collected()
        seq.extend(block[:2])
        block[:] = -1.0  # a channel reusing the buffer pop_block() viewed
        seq.extend(block[2:])
        assert seq == [0.0, 1.0, -1.0, -1.0]

    def test_one_item_blocks_share_chunks(self):
        seq = Collected()
        gc.collect()
        before = sys.getallocatedblocks()
        for k in range(5000):
            seq.extend(np.array([float(k)]))
        # An ndarray per block would be two allocations for every item.
        assert sys.getallocatedblocks() - before < 200
        assert np.array_equal(np.asarray(seq), np.arange(5000.0))

    def test_blocks_larger_than_a_chunk(self):
        seq, model = Collected(), []
        for k, size in enumerate((3, 70_000, 1, 140_000, 65_536)):
            block = np.arange(size, dtype=np.float64) + 0.25 * k
            seq.extend(block)
            model.extend(block.tolist())
            assert len(seq) == len(model)
            assert np.array_equal(np.asarray(seq), np.asarray(model))
        seq.append(-1)
        assert list(seq) == model + [-1]

    def test_sink_init_rebinds_collected(self):
        sink = CollectSink()
        first = sink.collected
        first.append(1.0)
        sink.init()
        assert sink.collected is not first and sink.collected == [] and first == [1.0]


# -- ArraySource.work_batch against the cycling index --------------------------


def _source(data):
    source = ArraySource(data)
    source.output = ArrayChannel()
    return source


def _drain(source):
    return source.output.pop_block(source.output.occupancy).tolist()


def _cycle(data, pos, n):
    return [float(data[(pos + k) % len(data)]) for k in range(n)]


@pytest.mark.parametrize("size", [1, 2, 7, 256])
def test_work_batch_is_the_cycling_index(size):
    data = [float(v) for v in np.random.default_rng(size).standard_normal(size)]
    source = _source(data)
    source.init()
    pos = 0
    # Chained: every call starts where the last one stopped.
    for n in (1, size - 1, size, size + 1, 10 * size + 3, 65_536, 5, size):
        source.work_batch(n)
        assert _drain(source) == _cycle(data, pos, n), (size, n, pos)
        pos += n


@pytest.mark.parametrize("size", [1, 2, 7, 256])
def test_work_batch_interleaves_with_scalar_work(size):
    data = list(range(size))
    source = _source(data)
    source.init()
    rng = np.random.default_rng(3)
    pos = 0
    for n in rng.integers(0, 3 * size + 2, 40).tolist():
        if n % 2:
            for _ in range(n):
                source.work()
        else:
            source.work_batch(n)
        assert _drain(source) == _cycle(data, pos, n)
        pos += n


def test_init_resets_position_and_rereads_data():
    source = _source([1.0, 2.0, 3.0])
    source.init()
    source.work_batch(5)
    assert _drain(source) == [1.0, 2.0, 3.0, 1.0, 2.0]
    # The ledger permutes ``data`` in place between construction and the run.
    source.data[:] = [7.0, 8.0, 9.0]
    source.init()
    source.work_batch(4)
    source.work()
    assert _drain(source) == [7.0, 8.0, 9.0, 7.0, 8.0]
    assert type(source.data) is list


def test_pushed_slices_cannot_be_written_through():
    """A pushed block is a read-only view of the source's ring, so nothing
    downstream can write through it into the items the source streams."""
    source = ArraySource([1.0, 2.0, 3.0, 4.0])
    source.output = tape = ArrayChannel()
    source.init()
    source.work_batch(4)
    block = tape.pop_block(4)
    assert block.tolist() == [1.0, 2.0, 3.0, 4.0]
    assert not source._ring.flags.writeable
    for _ in range(3):
        source.work()
    assert tape.pop_block(3).tolist() == [1.0, 2.0, 3.0]
    source.work_batch(6)
    assert tape.pop_block(6).tolist() == [4.0, 1.0, 2.0, 3.0, 4.0, 1.0]


@pytest.mark.parametrize("data", [[1.0, 2.0, 3.0, 4.0], [1, 2, 3, 4]], ids=["float", "int"])
def test_data_edited_after_init_streams_alike_on_both_engines(data):
    """``ArraySource`` streams ``data`` as of ``init()`` on every engine:
    an in-place edit after it changes neither engine's items, and the
    scalar engine keeps each item's type."""
    streams = {}
    for engine in ("scalar", "codegen"):
        source, sink = ArraySource(list(data)), CollectSink()
        interp = Interpreter(Pipeline(source, Identity(), sink), check=False, engine=engine)
        interp.run_init()
        source.data[:] = [9.0] * 4
        interp.run_steady(8)
        for _ in range(4):
            interp.run_steady(1)
        streams[engine] = list(sink.collected)
    assert streams["scalar"] == streams["codegen"] == list(data) * 3
    assert [type(x) for x in streams["scalar"]] == [type(x) for x in data] * 3


# -- every engine, however the run is chopped and however it is read ----------

PERIODS = 5


def _sink(app):
    return next(f for f in app.filters() if isinstance(f, CollectSink))


def _drive(name, calls, clear_after=None, **options):
    """``run_init()`` then one ``run_steady`` per entry of ``calls``; returns
    (what the sink holds at the end, items it held at the ``clear()``)."""
    app = ALL_APPS[name]()
    sink = _sink(app)
    dropped = 0
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", EngineDowngradeWarning)
        with Interpreter(app, check=False, **options) as interp:
            interp.run_init()
            for k, count in enumerate(calls):
                if k == clear_after:
                    dropped = len(sink.collected)
                    sink.collected.clear()
                interp.run_steady(count)
            engine = options["engine"]
            assert interp.engine_used == {"batched": "codegen"}.get(engine, engine)
        if interp.parallel is not None:
            assert interp.parallel.alive_workers == 0
    return sink.collected, dropped


@functools.lru_cache(maxsize=None)
def _scalar(name):
    return list(_drive(name, [PERIODS], engine="scalar")[0])


def _assert_reads_as(collected, want):
    as_array = np.asarray(collected)  # before anything turns it into a list
    assert as_array.dtype == np.float64 and len(collected) == len(want)
    assert np.array_equal(as_array, np.asarray(want, dtype=np.float64))
    assert np.array_equal(np.signbit(as_array), np.signbit(np.asarray(want, dtype=np.float64)))
    assert list(collected) == want and collected == want and want == collected
    assert collected[:8] == want[:8] and collected[-1] == want[-1]


def _assert_chopping_and_reading_never_show(name, **options):
    want = _scalar(name)
    assert len(want) > 0
    long_run, _ = _drive(name, [PERIODS], **options)
    _assert_reads_as(long_run, want)
    chopped, _ = _drive(name, [1] * PERIODS, **options)
    _assert_reads_as(chopped, want)
    cleared, dropped = _drive(name, [2, PERIODS - 2], clear_after=1, **options)
    assert 0 < dropped < len(want)
    _assert_reads_as(cleared, want[dropped:])


@pytest.mark.parametrize("engine", ["batched", "codegen"])
@pytest.mark.parametrize("name", sorted(ALL_APPS))
def test_every_app_equals_scalar(name, engine, tmp_path, monkeypatch):
    monkeypatch.setenv("REPRO_CODEGEN_CACHE", str(tmp_path / "cgc"))
    _assert_chopping_and_reading_never_show(name, engine=engine)


@pytest.mark.parametrize("name", ["FMRadio", "FilterBank"])
def test_parent_held_sink_of_the_parallel_engine(name):
    _assert_chopping_and_reading_never_show(
        name, engine="parallel", strategy="softpipe", cores=2
    )


# -- the gain is removed, not deferred -----------------------------------------


def test_a_run_leaves_no_python_object_per_item(tmp_path, monkeypatch):
    """The parent of this contract: +99 911 blocks after the run (one float
    per item, freed only by ``clear()``)."""
    monkeypatch.setenv("REPRO_CODEGEN_CACHE", str(tmp_path / "cgc"))
    periods = 100_000
    app = ALL_APPS["FIR"]()
    sink = _sink(app)
    with Interpreter(app, check=False, engine="codegen") as interp:
        interp.run_init()
        interp.run_steady(periods)  # warm: module bound, tapes and ring grown
        assert interp.engine_used == "codegen"
        first = np.asarray(sink.collected)
        sink.collected.clear()
        gc.collect()
        before = sys.getallocatedblocks()
        interp.run_steady(periods)
        after_run = sys.getallocatedblocks() - before
        count = len(sink.collected)
        second = np.asarray(sink.collected)
        after_reads = sys.getallocatedblocks() - before
    assert after_run < 1000 and after_reads < 1000, (after_run, after_reads)
    assert count == periods and second.shape == (periods,)
    # What was counted is the real output: the two windows are one run.
    whole = np.asarray(_drive("FIR", [2 * periods], engine="batched")[0])
    assert np.array_equal(np.concatenate([first, second]), whole)
    prefix = _scalar("FIR")
    assert first[: len(prefix)].tolist() == prefix


def test_a_linear_replaced_run_leaves_no_python_object_per_item(tmp_path, monkeypatch):
    """The same contract on compiler-made kernels: FilterBank as
    ``apply_selection`` rewrites it (``LinearFilter`` / ``FrequencyFilter``)."""
    monkeypatch.setenv("REPRO_CODEGEN_CACHE", str(tmp_path / "cgc"))
    periods = 50_000
    want = np.asarray(_drive("FilterBank", [20], engine="batched")[0])
    app = apply_selection(ALL_APPS["FilterBank"]())[0]
    sink = _sink(app)
    with Interpreter(app, check=False, engine="codegen") as interp:
        interp.run(periods=periods)  # warm: module bound, tapes grown
        assert interp.engine_used == "codegen"
        got = np.asarray(sink.collected)
        sink.collected.clear()
        gc.collect()
        before = sys.getallocatedblocks()
        interp.run_steady(periods)
        count = len(sink.collected)
        window = np.asarray(sink.collected)
        grown = sys.getallocatedblocks() - before
    assert len(want) > 0 and np.abs(got[: len(want)] - want).max() <= 1e-9
    assert count == len(window) >= periods
    assert grown < 1000, grown
