"""Region lowering: a certified splitjoin as one vectorised steady phase.

The paper's fine-grained benchmarks (BitonicSort, DES, Serpent, DCT) are
mostly *structure* — roundrobin splitters, Identity reorderings, rows of
identical S-boxes, joiners.  A flat splitjoin that the whole-graph analysis
certifies (``SL405``: every branch a chain of pure, exact-rate SISO
filters), whose internal edges carry no peek window and no init residue, is
pure item routing around per-branch kernels, so
:class:`~repro.runtime.plan.ExecutionPlan` runs it as ONE
:class:`RegionPhase` by the strongest tier that is sound (DESIGN.md,
"Region lowering"):

* **collapse** — k interchangeable stateless branches behind a uniform
  roundrobin are the data-parallel *fission* of one filter; fire that filter
  ``k * r`` times per splitter cycle on the unsplit tape (no splitter or
  joiner copy at all);
* **permute** — lone ``Identity`` branches only reorder items: one static
  gather;
* **columns** — each branch chain reads its column of the input block and
  its last stage writes its column of the joiner's output block in place.

The compiled engine walks the phase and the traced path gives it one span:
one implementation.
"""

from __future__ import annotations

from itertools import accumulate
from operator import getitem, is_
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.errors import StreamItError
from repro.graph.base import Rate
from repro.graph.builtins import Identity
from repro.graph.splitjoin import DUPLICATE
from repro.runtime.plan import CompiledPhase, _FusionTape

#: Instance attributes that are identity or wiring, never filter state.
_WIRING_ATTRS = frozenset({"name", "_uid", "parent", "input", "output", "_rt_owner"})


class _ColumnOut:
    """Write-through tape: what a branch's last stage pushes lands in that
    branch's column slice of the joiner's output block."""

    __slots__ = ("dest", "cursor")

    def __init__(self) -> None:
        self.dest: Optional[np.ndarray] = None
        self.cursor = 0

    def push_block(self, block: np.ndarray) -> None:
        dest = self.dest
        if type(block) is not np.ndarray:
            block = np.asarray(block, dtype=np.float64)
        n = block.size
        cursor = self.cursor
        if cursor + n > dest.size:
            raise StreamItError(
                f"region branch pushed past its {dest.size}-item column slice"
            )
        if n == dest.size:
            dest[...] = block.reshape(dest.shape)
        else:
            dest.flat[cursor : cursor + n] = block.reshape(-1)
        self.cursor = cursor + n

    def push(self, item: float) -> None:
        self.push_block(np.float64(item))


def _offsets(rates: Sequence[int]) -> List[int]:
    """Where each port's items start within one splitter/joiner cycle."""
    return list(accumulate(rates, initial=0))


def gather_map(region, splits: int, joins: int) -> np.ndarray:
    """Input index of every output item over one period of a region whose
    branches pass items through: ``out[i] = in[map[i]]``.  A function of
    weights and repetition counts only, so the plan cache may hold it."""
    splitter, joiner = region.splitter, region.joiner
    total_in = splitter.in_rates[0]
    cycles = np.arange(splits * total_in, dtype=np.intp).reshape(splits, total_in)
    split_at = _offsets(splitter.out_rates)
    join_at = _offsets(joiner.in_rates)
    out = np.empty((joins, joiner.out_rates[0]), dtype=np.intp)
    for edge, branch in zip(splitter.out_edges, region.branches):
        if splitter.flavor == DUPLICATE:
            stream = cycles
        else:
            lo = split_at[edge.src_port]
            stream = cycles[:, lo : lo + edge.push_rate]
        port = branch[-1].out_edges[0].dst_port
        width = joiner.in_rates[port]
        out[:, join_at[port] : join_at[port] + width] = stream.reshape(joins, width)
    return out.reshape(-1)


_IMMUTABLE_TYPES = frozenset({int, float, complex, bool, str, bytes, type(None), Rate})


def _immutable(value) -> bool:
    if type(value) is tuple:
        return all(_immutable(v) for v in value)
    return type(value) in _IMMUTABLE_TYPES


def _interchangeable(filters: Sequence[object]) -> Optional[Callable[[], bool]]:
    """A guard proving ``filters`` still hold the state they were compared
    with, or None when their live state is not provably equal.

    Every instance attribute but identity/wiring is compared: the same
    object on every instance is equal whatever it is; distinct objects
    must be immutable (a private list or ndarray could be rewritten in
    place behind the guard's back) with equal value fingerprints
    (:func:`repro.analysis.rates.value_fingerprint` — type-tagged, so
    ``1``, ``1.0`` and ``True`` differ; opaque values have none).  The
    guard then only has to see the *same objects* still in place (rates
    excepted: the schedule already pins them).
    """
    from repro.analysis.rates import value_fingerprint

    first = vars(filters[0])
    keys = [k for k in first if k not in _WIRING_ATTRS]
    prints = {key: value_fingerprint(first[key]) for key in keys}
    for filt in filters[1:]:
        state = vars(filt)
        if len(state) != len(first):
            return None
        for key in keys:
            if key not in state:
                return None
            value, ref = state[key], first[key]
            if value is not ref and not (
                _immutable(value)
                and _immutable(ref)
                and prints[key] is not None
                and value_fingerprint(value) == prints[key]
            ):
                return None
    dicts = [vars(filt) for filt in filters]
    sizes = [len(first)] * len(dicts)
    watched = [key for key in keys if key != "rate"]
    states = [state for state in dicts for _ in watched]
    names = watched * len(dicts)
    values = [state[key] for state in dicts for key in watched]

    def intact() -> bool:
        # C-level passes: ~30 ns per watched attribute.
        try:
            return list(map(len, dicts)) == sizes and all(
                map(is_, map(getitem, states, names), values)
            )
        except KeyError:
            return False

    return intact


class RegionPhase:
    """One certified splitjoin region run as a single steady phase.

    ``members`` are the region's flat phases in schedule order (splitter,
    branch stages, joiner); they are what a demoted region runs.  History
    counters of the bypassed internal edges are bumped in bulk after every
    fire (the :class:`FusedPhase` convention).
    """

    __slots__ = (
        "name",
        "tier",
        "reason",
        "members",
        "_fire",
        "_guard",
        "_bumps",
        "_items",
    )

    kind = "region"

    def __init__(
        self,
        region,
        members: Sequence[CompiledPhase],
        channels,
        cache: Dict[str, np.ndarray],
    ) -> None:
        """``cache`` is this region's slot in the plan cache: whatever is
        stored there must depend on weights and repetition counts only."""
        self.name: str = region.name
        self.members: Tuple[CompiledPhase, ...] = tuple(members)
        self.reason: Optional[str] = None
        self._guard: Optional[Callable[[], bool]] = None
        by_node = {ph.node: ph for ph in self.members}
        branches = [[by_node[n] for n in branch] for branch in region.branches]
        splits = by_node[region.splitter].count
        joins = by_node[region.joiner].count
        in_chan = channels[region.splitter.in_edges[0]]
        out_chan = channels[region.joiner.out_edges[0]]
        self._items = joins * region.joiner.out_rates[0]
        internal = list(region.splitter.out_edges) + [
            st.node.out_edges[0] for branch in branches for st in branch
        ]
        # Bypassed channels grouped by items per period (one or two groups
        # in practice), so the per-fire loop is two increments per edge.
        groups: Dict[int, List[object]] = {}
        for e in internal:
            per_period = by_node[e.src].count * e.push_rate
            groups.setdefault(per_period, []).append(channels[e])
        self._bumps = tuple(groups.items())
        collapse = _collapse_plan(region, branches)
        if collapse is not None:
            self.tier = "collapse"
            firings, self._guard = collapse
            self._fire = _collapse_fire(branches[0][0], firings, in_chan, out_chan)
        elif all(
            len(branch) == 1 and type(branch[0].node.filter) is Identity
            for branch in branches
        ):
            self.tier = "permute"
            if "gather" not in cache:
                cache["gather"] = gather_map(region, splits, joins)
            self._fire = _permute_fire(
                cache["gather"],
                splits * region.splitter.in_rates[0],
                in_chan,
                out_chan,
            )
        else:
            self.tier = "columns"
            self._fire = _columns_fire(
                region, branches, splits, joins, in_chan, out_chan
            )

    def span(self, scale: int) -> Tuple[str, str, Dict[str, int]]:
        from repro.obs.tracer import CAT_REGION

        firings = sum(ph.count for ph in self.members) * scale
        return self.name, CAT_REGION, {"firings": firings, "items": self._items * scale}

    def run(self, scale: int) -> None:
        if self._guard is not None and not self._guard():
            self._demote("live state of a collapsed branch changed")
        self._fire(scale)
        for per_period, chans in self._bumps:
            items = per_period * scale
            for chan in chans:
                chan.pushed_count += items
                chan.popped_count += items

    def _demote(self, why: str) -> None:
        """Permanently fall back to the member phases on the real edges."""
        self.tier = None
        self.reason = why
        self._guard = None
        self._bumps = ()
        self._fire = self._run_members

    def _run_members(self, scale: int) -> None:
        for phase in self.members:
            phase.run(scale)


def _collapse_plan(region, branches) -> Optional[Tuple[int, Callable[[], bool]]]:
    """``(branch firings per period, state guard)`` when the region is the
    fission of one stateless filter, else None.

    Needs: a uniform roundrobin splitter whose weight is a whole number
    ``r`` of pop windows, the matching joiner weight ``r * push``, one
    filter per branch, all of one class (hence one ``work``/``work_batch``)
    and with provably equal live state.  Then output item order equals
    input window order, and firing any one of them ``k * r`` times per
    splitter cycle over the unsplit tape is the same computation.
    """
    splitter, joiner = region.splitter, region.joiner
    if splitter.flavor == DUPLICATE or any(len(b) != 1 for b in branches):
        return None
    filters = [b[0].node.filter for b in branches]
    rate = filters[0].rate
    weight, width = splitter.out_rates[0], joiner.in_rates[0]
    if (
        any(type(f) is not type(filters[0]) for f in filters)
        or any(w != weight for w in splitter.out_rates)
        or any(w != width for w in joiner.in_rates)
        or not rate.pop
        or weight % rate.pop
        or width != weight // rate.pop * rate.push
    ):
        return None
    guard = _interchangeable(filters)
    if guard is None:
        return None
    return sum(b[0].count for b in branches), guard


def _collapse_fire(rep: CompiledPhase, firings: int, in_chan, out_chan):
    filt, fire = rep.node.filter, rep.fire

    def fire_collapse(scale: int) -> None:
        old_in, old_out = filt.input, filt.output
        filt.input, filt.output = in_chan, out_chan
        try:
            fire(firings * scale)
        finally:
            filt.input, filt.output = old_in, old_out

    return fire_collapse


def _permute_fire(gather: np.ndarray, n_in: int, in_chan, out_chan):
    n_out = gather.size

    def fire_permute(scale: int) -> None:
        src = in_chan.pop_block(scale * n_in).reshape(scale, n_in)
        dst = out_chan.alloc_block(scale * n_out).reshape(scale, n_out)
        # Indices are in range by construction; "clip" skips take()'s
        # bounce buffer for checked modes.
        np.take(src, gather, axis=1, out=dst, mode="clip")

    return fire_permute


def _columns_fire(region, branches, splits: int, joins: int, in_chan, out_chan):
    splitter, joiner = region.splitter, region.joiner
    duplicate = splitter.flavor == DUPLICATE
    total_in, total_out = splitter.in_rates[0], joiner.out_rates[0]
    split_at = _offsets(splitter.out_rates)
    join_at = _offsets(joiner.in_rates)
    lanes = []
    scratch: List[_FusionTape] = []
    for edge, branch in zip(splitter.out_edges, branches):
        port = branch[-1].node.out_edges[0].dst_port
        head = _FusionTape(name=f"region:{branch[0].node.name}")
        tail = _ColumnOut()
        tapes = [head] + [
            _FusionTape(name=f"region:{st.node.name}") for st in branch[:-1]
        ]
        scratch.extend(tapes)
        sinks = tapes[1:] + [tail]
        steps = [
            (st.node.filter, st.fire, st.count, tapes[i], sinks[i])
            for i, st in enumerate(branch)
        ]
        lo, to = split_at[edge.src_port], join_at[port]
        lanes.append(
            (
                slice(lo, lo + edge.push_rate),
                slice(to, to + joiner.in_rates[port]),
                head,
                tail,
                steps,
            )
        )
    last_lane = lanes[-1]

    def fire_columns(scale: int) -> None:
        block = in_chan.pop_block(splits * scale * total_in)
        rows = block if duplicate else block.reshape(splits * scale, total_in)
        out = out_chan.alloc_block(joins * scale * total_out).reshape(
            joins * scale, total_out
        )
        try:
            for lane in lanes:
                cols, dest, head, tail, steps = lane
                if not duplicate:
                    head.adopt_block(rows[:, cols])
                elif lane is last_lane:
                    head.adopt_block(rows)
                else:
                    # A kernel may scribble on what it popped: only the
                    # last branch may have the original.
                    head.adopt_block(rows.copy())
                tail.dest = out[:, dest]
                tail.cursor = 0
                for filt, fire, count, tin, tout in steps:
                    old_in, old_out = filt.input, filt.output
                    filt.input, filt.output = tin, tout
                    try:
                        fire(count * scale)
                    finally:
                        filt.input, filt.output = old_in, old_out
                if len(head) or tail.cursor != tail.dest.size:
                    raise StreamItError(
                        f"region {region.name!r}: branch {steps[0][0].name!r} "
                        "broke its declared rates"
                    )
        finally:
            for tape in scratch:
                tape.release()
            for lane in lanes:
                lane[3].dest = None

    return fire_columns
