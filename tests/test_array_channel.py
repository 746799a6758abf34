"""Edge cases every channel kind must satisfy.

Parametrized over the list-based ``Channel`` and the numpy ``ArrayChannel``
so the batched engine's tape honors exactly the contract the scalar
interpreter relies on: FIFO order, history counters, underflow errors, and
behavior across internal compaction/slide boundaries.
"""

import numpy as np
import pytest

from repro.runtime.array_channel import ArrayChannel
from repro.runtime.channel import _COMPACT_THRESHOLD, Channel, ChannelUnderflow

CHANNEL_KINDS = [Channel, ArrayChannel]


def _invariant(chan) -> None:
    assert chan.pushed_count - chan.popped_count == chan.occupancy


@pytest.mark.parametrize("cls", CHANNEL_KINDS, ids=lambda c: c.__name__)
def test_fifo_order_and_counters(cls):
    chan = cls(name="t")
    chan.push(1.0)
    chan.push_many([2.0, 3.0, 4.0])
    _invariant(chan)
    assert chan.pop() == 1.0
    assert chan.peek(0) == 2.0
    assert chan.peek(2) == 4.0
    assert chan.pop_many(2) == [2.0, 3.0]
    _invariant(chan)
    assert chan.snapshot() == [4.0]
    assert len(chan) == 1


@pytest.mark.parametrize("cls", CHANNEL_KINDS, ids=lambda c: c.__name__)
def test_initial_items_count_as_pushed(cls):
    chan = cls(name="delay", initial=[9.0, 8.0])
    assert chan.pushed_count == 2
    assert chan.popped_count == 0
    assert chan.occupancy == 2
    assert chan.pop() == 9.0
    _invariant(chan)


@pytest.mark.parametrize("cls", CHANNEL_KINDS, ids=lambda c: c.__name__)
def test_push_many_accepts_generator(cls):
    chan = cls(name="gen")
    chan.push_many(float(i) for i in range(10))
    assert chan.pushed_count == 10
    assert chan.pop_many(10) == [float(i) for i in range(10)]
    _invariant(chan)


@pytest.mark.parametrize("cls", CHANNEL_KINDS, ids=lambda c: c.__name__)
def test_compaction_boundary_preserves_order(cls):
    # Drive the head index through the list Channel's compaction threshold
    # (and the ArrayChannel's slide-to-front) while items remain live.
    n = _COMPACT_THRESHOLD + 64
    chan = cls(name="compact")
    chan.push_many(float(i) for i in range(n))
    popped = [chan.pop() for _ in range(_COMPACT_THRESHOLD + 1)]
    assert popped == [float(i) for i in range(_COMPACT_THRESHOLD + 1)]
    _invariant(chan)
    # The survivors must be intact and in order after any internal move.
    assert chan.peek(0) == float(_COMPACT_THRESHOLD + 1)
    assert chan.snapshot() == [float(i) for i in range(_COMPACT_THRESHOLD + 1, n)]
    chan.push(-1.0)
    assert chan.pop_many(chan.occupancy)[-1] == -1.0
    _invariant(chan)


@pytest.mark.parametrize("cls", CHANNEL_KINDS, ids=lambda c: c.__name__)
def test_peek_beyond_occupancy_after_pop_many(cls):
    chan = cls(name="under")
    chan.push_many([1.0, 2.0, 3.0, 4.0])
    chan.pop_many(3)
    assert chan.peek(0) == 4.0
    with pytest.raises(ChannelUnderflow):
        chan.peek(1)
    with pytest.raises(ChannelUnderflow):
        chan.pop_many(2)
    with pytest.raises(ChannelUnderflow):
        chan.peek(-1)
    _invariant(chan)


@pytest.mark.parametrize("cls", CHANNEL_KINDS, ids=lambda c: c.__name__)
def test_pop_from_empty_raises(cls):
    chan = cls(name="empty")
    with pytest.raises(ChannelUnderflow):
        chan.pop()


@pytest.mark.parametrize("cls", CHANNEL_KINDS, ids=lambda c: c.__name__)
def test_block_roundtrip(cls):
    chan = cls(name="block")
    chan.push_block(np.arange(6.0).reshape(2, 3))  # flattened in C order
    assert chan.pushed_count == 6
    window = chan.peek_block(4)
    assert window.tolist() == [0.0, 1.0, 2.0, 3.0]
    assert chan.occupancy == 6  # peek does not consume
    got = chan.pop_block(2)
    assert got.tolist() == [0.0, 1.0]
    chan.drop(2)
    assert chan.popped_count == 4
    assert chan.pop_block(2).tolist() == [4.0, 5.0]
    _invariant(chan)
    with pytest.raises(ChannelUnderflow):
        chan.peek_block(1)
    with pytest.raises(ChannelUnderflow):
        chan.drop(1)


@pytest.mark.parametrize("cls", CHANNEL_KINDS, ids=lambda c: c.__name__)
def test_block_and_scalar_interleave(cls):
    chan = cls(name="mix")
    total_in = 0.0
    total_out = 0.0
    for round_ in range(50):
        block = np.full(37, float(round_))
        chan.push_block(block)
        total_in += block.sum()
        chan.push(float(round_))
        total_in += round_
        out = chan.pop_block(19)
        total_out += out.sum()
        total_out += chan.pop()
        _invariant(chan)
    total_out += chan.pop_block(chan.occupancy).sum()
    assert total_in == pytest.approx(total_out)
    assert chan.occupancy == 0
    assert chan.pushed_count == chan.popped_count == 50 * 38


def test_array_channel_growth_keeps_views_contiguous():
    # Interleaved pushes/pops force both geometric growth and the
    # slide-to-front path; peek windows must stay contiguous C arrays.
    chan = ArrayChannel(name="grow")
    expect = 0.0
    pushed = 0.0
    for i in range(2000):
        chan.push_block(np.arange(i % 7 + 1, dtype=np.float64))
        if chan.occupancy >= 5:
            window = chan.peek_block(5)
            assert window.flags["C_CONTIGUOUS"]
            chan.drop(3)
    assert chan.pushed_count - chan.popped_count == chan.occupancy


# -- one-copy push_block, alloc_block, trim ---------------------------------


@pytest.mark.parametrize(
    "block, flat",
    [
        (np.arange(24.0).reshape(4, 6)[:, 1:4], None),  # strided 2-D
        (np.asfortranarray(np.arange(12.0).reshape(3, 4)), None),  # Fortran order
        (np.arange(10.0)[1::3], None),  # strided 1-D
        (np.arange(6, dtype=np.int32).reshape(2, 3), None),  # int dtype
        ([1, 2.5, 3], [1.0, 2.5, 3.0]),  # list
        ([[1, 2], [3, 4]], [1.0, 2.0, 3.0, 4.0]),  # nested list
        (np.float64(7.0), [7.0]),  # 0-d
        (np.empty((0, 3)), []),  # nothing
    ],
    ids=["strided2d", "fortran", "strided1d", "int", "list", "nested", "scalar", "empty"],
)
def test_push_block_flattens_any_layout_in_c_order(block, flat):
    if flat is None:
        flat = np.asarray(block, dtype=np.float64).reshape(-1).tolist()
    chan = ArrayChannel(name="layout", initial=[-1.0])
    chan.push_block(block)
    assert chan.snapshot() == [-1.0] + flat
    assert chan.pushed_count == 1 + len(flat)
    _invariant(chan)


def test_push_block_does_not_alias_its_argument():
    block = np.arange(6.0).reshape(2, 3)
    chan = ArrayChannel(name="alias")
    chan.push_block(block[:, ::2])
    block[:] = -1.0
    assert chan.snapshot() == [0.0, 2.0, 3.0, 5.0]


def test_alloc_block_is_a_writable_view_counted_as_pushed():
    chan = ArrayChannel(name="alloc", initial=[1.0, 2.0])
    view = chan.alloc_block(6)
    assert view.shape == (6,) and view.flags.writeable
    assert chan.pushed_count == 8 and chan.occupancy == 8
    view.reshape(2, 3)[:, 1] = [10.0, 20.0]  # filled in place, any order
    view.reshape(2, 3)[:, 0] = [5.0, 6.0]
    view.reshape(2, 3)[:, 2] = [7.0, 8.0]
    assert chan.snapshot() == [1.0, 2.0, 5.0, 10.0, 7.0, 6.0, 20.0, 8.0]
    assert chan.alloc_block(0).size == 0
    _invariant(chan)


def test_alloc_and_strided_push_across_slide_and_growth():
    # Interleave with pops so _reserve takes both the slide-to-front and
    # the reallocation path while live items sit in the buffer.
    chan = ArrayChannel(name="reserve")
    expect = []
    rng = np.random.default_rng(7)
    for step in range(400):
        n = int(rng.integers(1, 40))
        if step % 2:
            values = rng.uniform(-1, 1, size=n)
            chan.alloc_block(n)[:] = values
        else:
            wide = rng.uniform(-1, 1, size=(n, 3))
            values = wide[:, 1]
            chan.push_block(wide[:, 1:2])
        expect.extend(values.tolist())
        take = int(rng.integers(0, len(expect) + 1))
        assert chan.pop_block(take).tolist() == expect[:take]
        del expect[:take]
        _invariant(chan)
    assert chan.snapshot() == expect


def test_trim_keeps_contents_and_counters():
    chan = ArrayChannel(name="trim")
    chan.push_block(np.arange(5000.0))
    chan.drop(4990)
    chan.trim()
    assert chan._buf.size == 16  # _MIN_CAPACITY floor
    assert chan.snapshot() == [float(v) for v in range(4990, 5000)]
    assert (chan.pushed_count, chan.popped_count) == (5000, 4990)
    chan.push_block(np.arange(100.0))  # regrows on demand
    assert chan.occupancy == 110
    chan.trim()
    assert chan._buf.size == 110
    _invariant(chan)
