"""DES — the Data Encryption Standard block cipher over bit streams.

Blocks of 64 bits (items are 0.0/1.0) pass through an initial permutation,
16 Feistel rounds, and a final permutation.  Each round duplicates the
block to three extractor branches (the new left half, the F-function path
with expansion / round-key XOR / S-boxes / P-permutation, and the old left
half) and recombines with a bitwise XOR — reproducing the "somewhat
complicated graph repeated between filters" structure the evaluation
describes.  Round keys are derived from a fixed seed key; permutations are
deterministic pseudo-DES tables (the exact tables do not affect compiler
behaviour, only the bit shuffling structure, which is preserved).
"""

from __future__ import annotations

from typing import List, Optional, Sequence

import numpy as np

from repro.apps.common import signal, source_and_sink
from repro.graph.base import Filter
from repro.graph.composites import Pipeline, SplitJoin
from repro.graph.splitjoin import duplicate, joiner_roundrobin, roundrobin
from repro.runtime.kernels import const_array, firing_windows

N_ROUNDS = 16
BLOCK = 64
HALF = 32


def _permutation(n: int, seed: int) -> List[int]:
    rng = np.random.default_rng(seed)
    return [int(v) for v in rng.permutation(n)]


def _round_key(round_index: int) -> List[int]:
    rng = np.random.default_rng(1000 + round_index)
    return [int(v) for v in rng.integers(0, 2, size=48)]


#: Eight S-boxes, each mapping 6 input bits to 4 output bits.
def _sbox_table(box: int) -> List[int]:
    rng = np.random.default_rng(2000 + box)
    return [int(v) for v in rng.integers(0, 16, size=64)]


_EXPANSION = _permutation(HALF, seed=77)[:48] + [
    int(v) for v in np.random.default_rng(78).integers(0, HALF, size=16)
]
_EXPANSION = _EXPANSION[:48]
_PPERM = _permutation(HALF, seed=79)
_IP = _permutation(BLOCK, seed=80)
_FP = _permutation(BLOCK, seed=81)


class PermuteBits(Filter):
    """Pushes ``peek(perm[i])`` for each output position (linear)."""

    def __init__(self, perm: Sequence[int], pop: Optional[int] = None, name: Optional[str] = None) -> None:
        perm = [int(p) for p in perm]
        pop = pop if pop is not None else len(perm)
        super().__init__(peek=max(pop, max(perm) + 1), pop=pop, push=len(perm), name=name)
        self.perm = tuple(perm)

    def work(self) -> None:
        for i in range(len(self.perm)):
            self.push(self.peek(self.perm[i]))
        for _ in range(self.rate.pop):
            self.pop()

    supports_work_batch = True

    def work_batch(self, n: int) -> None:
        # Pure data movement: gather the permuted columns in one fancy index.
        peek, pop = self.rate.peek, self.rate.pop
        perm = const_array(self.perm, np.intp)
        if peek == pop:
            windows = self.input.pop_block(n * pop).reshape(n, pop)
            self.output.push_block(windows[:, perm])
        else:
            base = self.input.peek_block((n - 1) * pop + peek)
            out = firing_windows(base, peek, pop, n)[:, perm]
            self.input.drop(n * pop)
            self.output.push_block(out)


class SelectHalf(Filter):
    """Extracts the left (0) or right (1) half of a 64-bit block (linear)."""

    def __init__(self, half: int, name: Optional[str] = None) -> None:
        super().__init__(pop=BLOCK, push=HALF, name=name)
        self.offset = half * HALF

    def work(self) -> None:
        for i in range(HALF):
            self.push(self.peek(self.offset + i))
        for _ in range(BLOCK):
            self.pop()

    supports_work_batch = True

    def work_batch(self, n: int) -> None:
        blocks = self.input.pop_block(n * BLOCK).reshape(n, BLOCK)
        self.output.push_block(blocks[:, self.offset : self.offset + HALF])


class KeyXor(Filter):
    """XOR with a constant round key: affine over bits (k=0 -> x, k=1 -> 1-x)."""

    def __init__(self, key: Sequence[int], name: Optional[str] = None) -> None:
        key = [int(k) for k in key]
        super().__init__(pop=len(key), push=len(key), name=name)
        self.key = tuple(key)

    def work(self) -> None:
        for i in range(len(self.key)):
            bit = self.peek(i)
            if self.key[i] == 1:
                self.push(1.0 - bit)
            else:
                self.push(bit)
        for _ in range(len(self.key)):
            self.pop()

    supports_work_batch = True

    def work_batch(self, n: int) -> None:
        # k=1 columns compute 1.0 - bit (the scalar's exact expression);
        # k=0 columns pass through untouched.
        length = len(self.key)
        blocks = self.input.pop_block(n * length).reshape(n, length)
        flip = const_array(self.key, np.int64) == 1
        self.output.push_block(np.where(flip, 1.0 - blocks, blocks))


#: Place values of an S-box's six input bits, most significant first.
_SBOX_WEIGHTS = (32.0, 16.0, 8.0, 4.0, 2.0, 1.0)


class SBox(Filter):
    """One DES S-box: 6 bits in, 4 bits out via table lookup (nonlinear)."""

    def __init__(self, box: int, name: Optional[str] = None) -> None:
        super().__init__(pop=6, push=4, name=name)
        self.table = tuple(_sbox_table(box))

    def work(self) -> None:
        index = 0
        for i in range(6):
            index = index * 2 + int(self.pop())
        value = self.table[index]
        for shift in (8, 4, 2, 1):
            if value >= shift:
                self.push(1.0)
                value -= shift
            else:
                self.push(0.0)

    supports_work_batch = True

    def work_batch(self, n: int) -> None:
        # Bits are exact 0.0/1.0 floats, so the weighted sum reproduces the
        # scalar accumulation exactly; output bits are table bit extraction.
        bits = self.input.pop_block(n * 6).reshape(n, 6)
        index = (bits @ const_array(_SBOX_WEIGHTS, np.float64)).astype(np.intp)
        values = const_array(self.table, np.int64)[index]
        out = np.empty((n, 4))
        for j, bit in enumerate((3, 2, 1, 0)):
            out[:, j] = (values >> bit) & 1
        self.output.push_block(out)


class XorHalves(Filter):
    """Combines (newL | F | oldL) -> (newL | oldL XOR F): the Feistel merge."""

    def __init__(self, name: Optional[str] = None) -> None:
        super().__init__(pop=HALF * 3, push=BLOCK, name=name)

    def work(self) -> None:
        for i in range(HALF):
            self.push(self.peek(i))
        for i in range(HALF):
            f_bit = self.peek(HALF + i)
            l_bit = self.peek(2 * HALF + i)
            self.push(l_bit + f_bit - 2.0 * l_bit * f_bit)
        for _ in range(HALF * 3):
            self.pop()

    supports_work_batch = True

    def work_batch(self, n: int) -> None:
        blocks = self.input.pop_block(n * HALF * 3).reshape(n, HALF * 3)
        f = blocks[:, HALF : 2 * HALF]
        l = blocks[:, 2 * HALF :]
        out = np.empty((n, BLOCK))
        out[:, :HALF] = blocks[:, :HALF]
        out[:, HALF:] = l + f - 2.0 * l * f
        self.output.push_block(out)


def f_function(round_index: int) -> Pipeline:
    """Expansion -> round-key XOR -> 8 S-boxes -> P permutation."""
    sboxes = SplitJoin(
        roundrobin(*([6] * 8)),
        [SBox(b, name=f"r{round_index}_sbox{b}") for b in range(8)],
        joiner_roundrobin(*([4] * 8)),
        name=f"r{round_index}_sboxes",
    )
    return Pipeline(
        SelectHalf(1, name=f"r{round_index}_selR"),
        PermuteBits(_EXPANSION, pop=HALF, name=f"r{round_index}_expand"),
        KeyXor(_round_key(round_index), name=f"r{round_index}_keyxor"),
        sboxes,
        PermuteBits(_PPERM, name=f"r{round_index}_pperm"),
        name=f"r{round_index}_f",
    )


def feistel_round(round_index: int) -> Pipeline:
    branches = SplitJoin(
        duplicate(),
        [
            SelectHalf(1, name=f"r{round_index}_newL"),
            f_function(round_index),
            SelectHalf(0, name=f"r{round_index}_oldL"),
        ],
        joiner_roundrobin(HALF, HALF, HALF),
        name=f"r{round_index}_split",
    )
    return Pipeline(branches, XorHalves(name=f"r{round_index}_merge"), name=f"round{round_index}")


class Binarize(Filter):
    """Quantizes the analog test signal to a bit stream (nonlinear)."""

    def __init__(self, name: Optional[str] = None) -> None:
        super().__init__(pop=1, push=1, name=name)

    def work(self) -> None:
        value = self.pop()
        if value > 0.0:
            self.push(1.0)
        else:
            self.push(0.0)

    supports_work_batch = True

    def work_batch(self, n: int) -> None:
        values = self.input.pop_block(n)
        self.output.push_block(np.where(values > 0.0, 1.0, 0.0))


def build(n_rounds: int = N_ROUNDS, input_length: int = 256) -> Pipeline:
    source, sink = source_and_sink(signal(max(input_length, BLOCK)))
    rounds = [feistel_round(r) for r in range(n_rounds)]
    return Pipeline(
        source,
        Binarize(name="binarize"),
        PermuteBits(_IP, name="initial_perm"),
        *rounds,
        PermuteBits(_FP, name="final_perm"),
        sink,
        name="DES",
    )


def reference(x: np.ndarray, n_rounds: int = N_ROUNDS) -> np.ndarray:
    """Numpy model of the (pseudo-keyed) cipher over 64-bit blocks."""
    bits = (np.asarray(x) > 0).astype(np.float64)
    n_blocks = len(bits) // BLOCK
    out = np.empty(n_blocks * BLOCK)
    for blk in range(n_blocks):
        block = bits[blk * BLOCK : (blk + 1) * BLOCK][np.asarray(_IP)]
        for r in range(n_rounds):
            left, right = block[:HALF], block[HALF:]
            expanded = right[np.asarray(_EXPANSION)]
            keyed = np.abs(expanded - np.asarray(_round_key(r)))
            f_out = np.empty(HALF)
            for b in range(8):
                six = keyed[b * 6 : (b + 1) * 6]
                index = int(six @ np.array([32, 16, 8, 4, 2, 1]))
                val = _sbox_table(b)[index]
                f_out[b * 4 : (b + 1) * 4] = [(val >> s) & 1 for s in (3, 2, 1, 0)]
            f_out = f_out[np.asarray(_PPERM)]
            block = np.concatenate([right, np.abs(left - f_out)])
        out[blk * BLOCK : (blk + 1) * BLOCK] = block[np.asarray(_FP)]
    return out
