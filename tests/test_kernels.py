"""``runtime.kernels``: the primitives batch kernels are built from.

``ordered_mac``'s contract is bit-identity — sign of zero included — with
the scalar loop ``total = 0.0; for i: total += window[j*stride+i] *
coeffs[i]``, in both of its forms (the tap loop and the product table).
The reference here is that loop in pure Python floats; nothing below
tolerates a last-digit difference.  ``firing_windows`` is checked against
the ``sliding_window_view`` formulation it replaced (kept here, and only
here, as the reference); ``const_array`` against a fresh conversion.
"""

import re
from pathlib import Path

import numpy as np
import pytest

from numpy.lib.stride_tricks import sliding_window_view

from repro.apps import ALL_APPS, des, fft
from repro.apps.channelvocoder import EnvelopeFollower
from repro.apps.common import Adder, FIRFilter, MatrixFilter
from repro.apps.radar import BeamFirFilter
from repro.graph.base import Filter
from repro.graph.builtins import CollectSink
from repro.linear import apply_selection
from repro.runtime import ArrayChannel, Interpreter, kernels, vectorize
from repro.runtime.kernels import (
    LOOP_BLOCK_ABOVE,
    TABLE_MAX_FIRINGS,
    const_array,
    firing_windows,
    ordered_mac,
    unit_taps,
)

from .helpers import assert_same_bits, run_stream


def scalar_mac(window, coeffs, n, stride):
    items = [float(v) for v in window]
    out = []
    for j in range(n):
        total = 0.0
        for i in range(len(coeffs)):
            total += items[j * stride + i] * coeffs[i]
        out.append(total)
    return np.array(out, dtype=np.float64)


@pytest.fixture
def table_calls(monkeypatch):
    """Counts runs of the table form (the only caller of ``_column``)."""
    calls = []
    real = kernels._column

    def counting(coeffs):
        calls.append(len(coeffs))
        return real(coeffs)

    monkeypatch.setattr(kernels, "_column", counting)
    return calls


#: Firing counts on both sides of the crossover, and at it.
FIRINGS = (1, 2, 7, TABLE_MAX_FIRINGS - 1, TABLE_MAX_FIRINGS, TABLE_MAX_FIRINGS + 1,
           3 * TABLE_MAX_FIRINGS + 5)


def _mixed(rng, size):
    """Magnitudes 1e-8 ... 1e8, both signs: every addition rounds."""
    return rng.standard_normal(size) * 10.0 ** rng.integers(-8, 9, size)


@pytest.mark.parametrize("stride", [1, 2, 3, 4])
def test_matches_scalar_loop_in_both_forms(stride, table_calls):
    rng = np.random.default_rng(100 + stride)
    loops = 0
    for taps in [1, 2, 3, 8, 9, 31, 64, 129] + rng.integers(1, 130, 6).tolist():
        coeffs = tuple(float(c) for c in _mixed(rng, taps))
        for n in FIRINGS:
            window = _mixed(rng, (n - 1) * stride + taps)
            before = len(table_calls)
            assert_same_bits(
                ordered_mac(window, coeffs, n, stride),
                scalar_mac(window, coeffs, n, stride),
            )
            took_table = len(table_calls) > before
            assert took_table == (n <= TABLE_MAX_FIRINGS)
            loops += not took_table
    assert table_calls and loops  # both forms ran


@pytest.mark.parametrize("stride", [1, 2, 3, 4])
def test_blocked_tap_loop_matches_scalar_loop(stride, monkeypatch):
    """Above ``LOOP_BLOCK_ABOVE`` the loop runs block by block; a block is an
    ``ordered_mac`` call of its own (whose tail may even take the table)."""
    block = kernels._LOOP_BLOCK
    calls = []

    def recording(window, coeffs, n, stride):
        calls.append(n)
        return ordered_mac(window, coeffs, n, stride)

    monkeypatch.setattr(kernels, "ordered_mac", recording)
    rng = np.random.default_rng(200 + stride)
    cases = [
        (LOOP_BLOCK_ABOVE - 1, None),
        (LOOP_BLOCK_ABOVE, None),
        (LOOP_BLOCK_ABOVE + 1, [block] * (LOOP_BLOCK_ABOVE // block) + [1]),
        (4 * block + 131, [block] * 4 + [131]),
    ]
    for n, blocks in cases:
        coeffs = tuple(float(c) for c in _mixed(rng, 3)) + (1.0,)
        window = _mixed(rng, (n - 1) * stride + len(coeffs))
        del calls[:]
        got = kernels.ordered_mac(window, coeffs, n, stride)
        assert calls == [n] + (blocks or [])
        assert_same_bits(got, scalar_mac(window, coeffs, n, stride))


@pytest.mark.parametrize("n", [1, 5, TABLE_MAX_FIRINGS, TABLE_MAX_FIRINGS + 1])
@pytest.mark.parametrize("stride", [1, 2])
def test_all_negative_zero_products_sum_to_positive_zero(n, stride):
    # 0.0 + -0.0 is +0.0; a sum that starts at the first product is -0.0.
    taps = 6
    window = np.full((n - 1) * stride + taps, -0.0)
    got = ordered_mac(window, (1.0,) * taps, n, stride)
    assert_same_bits(got, scalar_mac(window, (1.0,) * taps, n, stride))
    assert not np.signbit(got).any()
    # ... and through a negative coefficient times +0.0.
    window = np.zeros((n - 1) * stride + taps)
    got = ordered_mac(window, (-2.0,) * taps, n, stride)
    assert not np.signbit(got).any()


@pytest.mark.parametrize("n", [1, 4, TABLE_MAX_FIRINGS + 3])
def test_zero_sign_of_a_coefficient_is_kept_apart(n):
    # (0.0,) == (-0.0,) and they hash alike: a by-value column cache would
    # hand one filter the other's sign.
    window = np.full(n, -3.0)
    plus = ordered_mac(window, (0.0,), n, 1)
    minus = ordered_mac(window, (-0.0,), n, 1)
    assert_same_bits(plus, scalar_mac(window, (0.0,), n, 1))
    assert_same_bits(minus, scalar_mac(window, (-0.0,), n, 1))


@pytest.mark.parametrize("n", [1, 3, TABLE_MAX_FIRINGS, TABLE_MAX_FIRINGS + 2])
def test_non_finite_and_denormal_operands(n):
    rng = np.random.default_rng(5)
    taps, stride = 7, 2
    size = (n - 1) * stride + taps
    coeffs = tuple(float(c) for c in rng.standard_normal(taps))
    specials = [np.inf, -np.inf, np.nan, 5e-324, -5e-324, 2.2e-308, 1.7e308, -0.0]
    for special in specials:
        window = rng.standard_normal(size)
        window[rng.integers(0, size, max(1, size // 4))] = special
        with np.errstate(all="ignore"):
            got = ordered_mac(window, coeffs, n, stride)
        assert_same_bits(got, scalar_mac(window, coeffs, n, stride))
    denormal = rng.standard_normal(size) * 1e-310
    assert_same_bits(
        ordered_mac(denormal, coeffs, n, stride), scalar_mac(denormal, coeffs, n, stride)
    )


def test_window_layouts_the_table_form_cannot_alias():
    rng = np.random.default_rng(6)
    coeffs = tuple(float(c) for c in rng.standard_normal(5))
    backing = rng.standard_normal(64)
    want = scalar_mac(backing[::2], coeffs, 4, 2)
    assert_same_bits(ordered_mac(backing[::2], coeffs, 4, 2), want)  # strided view
    ints = np.arange(12)
    assert_same_bits(ordered_mac(ints, coeffs, 4, 2), scalar_mac(ints, coeffs, 4, 2))
    with pytest.raises((TypeError, ValueError)):  # a short window is refused,
        ordered_mac(backing[:8], coeffs, 4, 2)    # never read out of bounds


def test_degenerate_sizes():
    window = np.arange(8.0)
    assert ordered_mac(window, (), 3, 2).tolist() == [0.0, 0.0, 0.0]
    assert ordered_mac(window, (1.0, 2.0), 0, 1).shape == (0,)
    assert unit_taps(4) is unit_taps(4) and unit_taps(4) == (1.0,) * 4


def test_mutable_coefficients_are_never_cached():
    window = np.arange(1.0, 6.0)
    coeffs = [1.0, 2.0]
    first = ordered_mac(window, coeffs, 2, 1)
    coeffs[1] = -4.0
    assert_same_bits(ordered_mac(window, coeffs, 2, 1), scalar_mac(window, coeffs, 2, 1))
    assert first.tolist() == [5.0, 8.0]


def test_add_reduce_is_not_the_ordered_sum():
    """``np.add.reduce`` over the product table is *not* the contract.

    numpy sums a contiguous run pairwise (and a strided view's product
    table comes out with the tap axis contiguous), so ``reduce`` associates
    differently from the scalar loop.  This pins that fact: if it ever
    fails, reduce has become sequential in this numpy — which still would
    not make it the documented order, so do not "simplify" to it.
    """
    rng = np.random.default_rng(42)
    taps, n, stride = 64, 5, 2
    coeffs = tuple(float(c) for c in _mixed(rng, taps))
    window = _mixed(rng, (n - 1) * stride + taps)
    want = scalar_mac(window, coeffs, n, stride)
    view = np.ndarray((taps, n), np.float64, window, 0, (8, 8 * stride))
    table = view * np.array(coeffs).reshape(-1, 1)
    reduced = np.add.reduce(table, axis=0) + 0.0
    assert not np.array_equal(reduced, want)
    np.testing.assert_allclose(reduced, want, rtol=1e-9, atol=1e-6)  # same sum, other order
    assert_same_bits(ordered_mac(window, coeffs, n, stride), want)


# -- the five kernels that call it ------------------------------------------------------


def _drive(make, data, n):
    """``n`` scalar firings and one ``work_batch(n)`` over the same input."""
    outs = []
    for batched in (False, True):
        filt = make()
        filt.init()
        filt.input = ArrayChannel(name="in")
        filt.output = ArrayChannel(name="out")
        filt.input.push_block(np.asarray(data, dtype=np.float64))
        if batched:
            filt.work_batch(n)
        else:
            for _ in range(n):
                filt.work()
        outs.append((np.array(filt.output.snapshot()), filt.input.popped_count))
    (want, want_popped), (got, got_popped) = outs
    assert_same_bits(got, want)
    assert got_popped == want_popped


@pytest.mark.parametrize("n", [1, 3, TABLE_MAX_FIRINGS, TABLE_MAX_FIRINGS + 9])
def test_fir_decimating_past_its_taps(n):
    # decimation > len(coeffs): the window is decimation wide, the taps cover
    # only its head, and consecutive firings skip the rest.
    rng = np.random.default_rng(n)
    few, many = _mixed(rng, 3), _mixed(rng, 9)
    _drive(lambda: FIRFilter(few, decimation=5), _mixed(rng, 5 * n), n)
    _drive(lambda: FIRFilter(many, decimation=2), _mixed(rng, 2 * n + 7), n)


@pytest.mark.parametrize("n", [1, 15, 16, TABLE_MAX_FIRINGS + 1])
def test_adder_matrix_and_envelope(n):
    rng = np.random.default_rng(10 + n)
    _drive(lambda: Adder(7), _mixed(rng, 7 * n), n)
    matrix = _mixed(rng, (3, 5))
    _drive(lambda: MatrixFilter(matrix.tolist()), _mixed(rng, 5 * n), n)
    _drive(lambda: EnvelopeFollower(6), _mixed(rng, n + 5), n)


@pytest.mark.parametrize("n", [1, 2, 5, TABLE_MAX_FIRINGS + 4])
@pytest.mark.parametrize("decimation", [1, 2, 3])
def test_beam_fir_delay_line(n, decimation):
    rng = np.random.default_rng(20 + n)
    taps = _mixed(rng, 8).tolist()
    data = _mixed(rng, 3 * decimation * n)

    def run(split):
        filt = BeamFirFilter(taps, decimation)
        filt.init()
        filt.input = ArrayChannel(name="in")
        filt.output = ArrayChannel(name="out")
        filt.input.push_block(data)
        for count in split:
            if count:
                filt.work_batch(count)
            else:
                filt.work()
        return np.array(filt.output.snapshot()), list(filt.history), filt.pos

    want = run([0] * (3 * n))  # 3n scalar firings
    for split in ([3 * n], [n, n, n], [1, 0, 3 * n - 2]):
        out, history, pos = run(split)
        assert_same_bits(out, want[0])
        assert history == want[1] and pos == want[2]


# -- firing_windows ---------------------------------------------------------------------


@pytest.mark.parametrize("peek", range(1, 10))
@pytest.mark.parametrize("pop", range(1, 10))  # pop > peek: items between windows are skipped
def test_firing_windows_equal_the_sliding_window_formulation(peek, pop):
    rng = np.random.default_rng(100 * peek + pop)
    for n in (1, 2, 3, 8, 33, 64, 65):
        base = rng.standard_normal((n - 1) * pop + peek + int(rng.integers(0, 4)))
        got = firing_windows(base, peek, pop, n)
        want = sliding_window_view(base, peek)[::pop][:n]
        assert got.shape == (n, peek) and got.strides == (8 * pop, 8)
        assert_same_bits(got, want)
        assert np.shares_memory(got, base)  # a view: nothing was copied
        assert not got.flags.writeable and base.flags.writeable
        with pytest.raises(ValueError):
            got[0, 0] = 1.0


def test_firing_windows_never_read_past_the_base():
    base = np.arange(10.0)
    assert firing_windows(base, 4, 3, 3)[-1].tolist() == [6.0, 7.0, 8.0, 9.0]
    for peek, pop, n in ((4, 3, 4), (11, 1, 1), (1, 1, 11), (5, 6, 2)):
        with pytest.raises((TypeError, ValueError)):
            firing_windows(base, peek, pop, n)
    # The bound is the slice handed in, not the buffer it is a view of.
    with pytest.raises((TypeError, ValueError)):
        firing_windows(np.arange(64.0)[:10], 4, 3, 4)


def test_firing_windows_copy_a_base_they_cannot_stride_over():
    ints = np.arange(12)
    strided = np.arange(24.0)[::2]
    for base in (ints, strided, ints.astype(np.float32)):
        got = firing_windows(base, 3, 2, 5)
        assert not np.shares_memory(got, base)
        assert_same_bits(got, sliding_window_view(base.astype(np.float64), 3)[::2][:5])


def test_src_builds_firing_windows_one_way_only():
    """``firing_windows`` is the only strided-window construction under
    ``src/``: the numpy helpers it replaced must not come back beside it."""
    banned = re.compile("sliding_window_" + "view|as_" + "strided")
    src = Path(__file__).resolve().parents[1] / "src"
    hits = [str(p) for p in src.rglob("*.py") if banned.search(p.read_text())]
    assert hits == []


def test_compiler_made_kernels_call_no_numpy_window_helper(monkeypatch):
    """The dynamic twin of the grep: FMRadio as the linear optimiser
    rewrites it, one period a call, with numpy's helper set to raise."""

    def refuse(*args, **kwargs):
        raise AssertionError("sliding_window_view called under src/")

    want = np.asarray(run_stream(ALL_APPS["FMRadio"](), periods=2000))
    monkeypatch.setattr(np.lib.stride_tricks, "sliding_window_view", refuse)
    app = apply_selection(ALL_APPS["FMRadio"]())[0]
    sink = next(f for f in app.filters() if isinstance(f, CollectSink))
    with Interpreter(app, check=False, engine="codegen", strict=True) as interp:
        interp.run_init()
        for _ in range(200):
            interp.run_steady(1)
    got = np.asarray(sink.collected)
    assert interp.engine_used == "codegen"
    assert len(got) >= len(want) > 0
    assert np.abs(got[: len(want)] - want).max() <= 1e-9


class _Taps3(Filter):
    """Peeking and decimating: pop 2, peek 3, push 2 (one column a scalar)."""

    def __init__(self):
        super().__init__(peek=3, pop=2, push=2)

    def work(self):
        self.push(self.peek(0) * 0.5 + self.peek(2))
        self.pop()
        self.pop()
        self.push(1.25)


class _Pairs(Filter):
    """pop == peek: the windows are a plain reshape of the tape."""

    def __init__(self):
        super().__init__(pop=2, push=1)

    def work(self):
        a = self.pop()
        self.push(a - self.pop())


class _InPlace(Filter):
    """A body that would write into its input window if it could."""

    def __init__(self):
        super().__init__(pop=1, push=1)

    def work(self):
        x = self.pop()
        x += 1.0
        self.push(x)


@pytest.mark.parametrize("make", [_Taps3, _Pairs])
def test_run_lifted_writes_the_output_tape_in_place(make):
    rng = np.random.default_rng(3)
    n = 9
    filt = make()
    rate = filt.rate
    data = _mixed(rng, (n - 1) * rate.pop + rate.peek)
    want = make()
    want.input, want.output = ArrayChannel("in", data), ArrayChannel("out")
    for _ in range(n):
        want.work()
    filt.input, filt.output = ArrayChannel("in", data), ArrayChannel("out", [7.0])
    vectorize.run_lifted(filt, vectorize.lift_work(make), n)
    assert_same_bits(np.array(filt.output.snapshot()[1:]), np.array(want.output.snapshot()))
    assert filt.output.pushed_count == 1 + n * rate.push
    assert filt.input.popped_count == n * rate.pop


def test_run_lifted_leaves_the_channels_alone_when_a_check_fails():
    filt = _Taps3()
    filt.rate = type(filt.rate)(peek=3, pop=2, push=3)  # declares one push too many
    data = np.arange(11.0)
    filt.input, filt.output = ArrayChannel("in", data), ArrayChannel("out")
    with pytest.raises(vectorize._LiftError):
        vectorize.run_lifted(filt, vectorize.lift_work(_Taps3), 5)
    assert filt.input.popped_count == 0 and filt.output.pushed_count == 0
    # A window is read-only whichever way it was built, so an in-place
    # update of a popped column fails instead of rewriting the input tape.
    filt = _InPlace()
    filt.input, filt.output = ArrayChannel("in", data), ArrayChannel("out")
    with pytest.raises(ValueError):
        vectorize.run_lifted(filt, vectorize.lift_work(_InPlace, trusted=True), 11)
    assert filt.input.snapshot() == data.tolist() and len(filt.output) == 0


# -- const_array ------------------------------------------------------------------------


def test_const_array_is_built_once_per_tuple_and_dtype():
    table = (3, 1, 2)
    first = const_array(table, np.int64)
    assert first is const_array(table, np.int64)
    assert first.dtype == np.int64 and first.tolist() == [3, 1, 2]
    assert not first.flags.writeable
    as_index = const_array(table, np.intp)
    floats = const_array(table, np.float64)
    assert floats is not first and floats.dtype == np.float64 and as_index.dtype == np.intp
    # Identity, not value: an equal tuple is another constant, and the sign
    # of a zero survives.
    assert const_array(tuple([3, 1, 2]), np.int64) is not first
    zeros, negative = (0.0, 1.0), (-0.0, 1.0)
    assert np.signbit(const_array(negative, np.float64)[0])
    assert not np.signbit(const_array(zeros, np.float64)[0])
    # A coefficient column of the same tuple is a separate entry.
    assert kernels._column(zeros).shape == (2, 1)
    assert const_array(zeros, np.float64).shape == (2,)


def test_const_array_never_caches_a_mutable_sequence():
    values = [1, 2, 3]
    first = const_array(values, np.int64)
    values[0] = 9
    assert const_array(values, np.int64).tolist() == [9, 2, 3]
    assert first.tolist() == [1, 2, 3]


@pytest.mark.parametrize("n", [1, 2, 17])
def test_kernels_with_constant_tables_match_their_work(n):
    """The DES and FFT kernels that read their tables through
    ``const_array`` — on a first call and on a cached one."""
    rng = np.random.default_rng(40 + n)
    bits = lambda size: (rng.random(size) > 0.5).astype(np.float64)
    for _ in range(2):
        _drive(lambda: des.SBox(3), bits(6 * n), n)
        _drive(lambda: des.KeyXor(des._round_key(2)), bits(48 * n), n)
        _drive(lambda: des.PermuteBits(des._PPERM), bits(32 * n), n)
        _drive(lambda: des.PermuteBits(des._EXPANSION, pop=32), bits(32 * n), n)
        _drive(lambda: des.PermuteBits([5, 0, 3], pop=2), bits(2 * n + 4), n)  # peek > pop
        _drive(lambda: fft.CombineDFT(4), _mixed(rng, 16 * n), n)
