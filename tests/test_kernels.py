"""``ordered_mac``: the one ordered multiply-accumulate primitive.

Its contract is bit-identity — sign of zero included — with the scalar loop
``total = 0.0; for i: total += window[j*stride+i] * coeffs[i]``, in both of
its forms (the tap loop and the product table).  The reference here is that
loop in pure Python floats; nothing below tolerates a last-digit difference.
"""

import numpy as np
import pytest

from repro.apps.channelvocoder import EnvelopeFollower
from repro.apps.common import Adder, FIRFilter, MatrixFilter
from repro.apps.radar import BeamFirFilter
from repro.runtime import ArrayChannel, kernels
from repro.runtime.kernels import (
    LOOP_BLOCK_ABOVE,
    TABLE_MAX_FIRINGS,
    ordered_mac,
    unit_taps,
)

from .helpers import assert_same_bits


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
