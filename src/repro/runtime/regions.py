"""Region lowering: a certified splitjoin as one vectorised steady phase.

The paper's fine-grained benchmarks (BitonicSort, DES, Serpent, DCT) are
mostly *structure* — roundrobin splitters, Identity reorderings, rows of
identical S-boxes, joiners.  A flat splitjoin that the whole-graph analysis
certifies (``SL405``: every branch a chain of pure, exact-rate SISO
filters), whose internal edges carry no peek window and no init residue, is
pure item routing around per-branch kernels.  :func:`region_tier` decides
whether one of two tiers fits it (DESIGN.md, "Region lowering"); if one
does, :class:`~repro.runtime.plan.ExecutionPlan` runs the splitjoin as ONE
:class:`RegionPhase`:

* **collapse** — k interchangeable stateless branches behind a uniform
  roundrobin are the data-parallel *fission* of one filter; fire that filter
  ``k * r`` times per splitter cycle on the unsplit tape (no splitter or
  joiner copy at all);
* **permute** — lone ``Identity`` branches only reorder items: one static
  gather.

Any other splitjoin's splitter, branch stages and joiner stay blocks of the
walk on their own tapes.  The compiled engine walks the phase and the traced
path gives it one span: one implementation.
"""

from __future__ import annotations

from itertools import accumulate
from operator import getitem, is_
from typing import Callable, Dict, List, Optional, Sequence, Tuple, Union

import numpy as np

from repro.graph.base import immutable
from repro.graph.builtins import Identity
from repro.graph.splitjoin import DUPLICATE
from repro.runtime.plan import CompiledPhase

#: Instance attributes that are identity or wiring, never filter state.
_WIRING_ATTRS = frozenset({"name", "_uid", "parent", "input", "output", "_rt_owner"})


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
                immutable(value)
                and immutable(ref)
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


#: Why a certified splitjoin that no tier fits is not lowered.
WALKED = (
    "branches are neither interchangeable copies nor lone Identity filters: "
    "its members run on the walk"
)


def region_tier(region, members: Sequence[CompiledPhase]) -> Union[Tuple[str, object], str]:
    """How a certified splitjoin whose flat phases are ``members`` lowers:
    ``("collapse", (a branch's phase, branch firings per period, state
    guard))``, ``("permute", None)``, or the reason no tier fits (a str).

    Collapse needs a uniform roundrobin splitter whose weight is a whole
    number ``r`` of pop windows, the matching joiner weight ``r * push``,
    one filter per branch, all of one class (hence one
    ``work``/``work_batch``) and with provably equal live state.  Then
    output item order equals input window order, and firing any one of
    them ``k * r`` times per splitter cycle over the unsplit tape is the
    same computation.  Permute needs one ``Identity`` per branch.
    """
    if any(len(branch) != 1 for branch in region.branches):
        return WALKED
    by_node = {ph.node: ph for ph in members}
    heads = [by_node[branch[0]] for branch in region.branches]
    filters = [ph.node.filter for ph in heads]
    splitter, joiner = region.splitter, region.joiner
    rate = filters[0].rate
    weight, width = splitter.out_rates[0], joiner.in_rates[0]
    if not (
        splitter.flavor == DUPLICATE
        or any(type(f) is not type(filters[0]) for f in filters)
        or any(w != weight for w in splitter.out_rates)
        or any(w != width for w in joiner.in_rates)
        or not rate.pop
        or weight % rate.pop
        or width != weight // rate.pop * rate.push
    ):
        guard = _interchangeable(filters)
        if guard is not None:
            return "collapse", (heads[0], sum(ph.count for ph in heads), guard)
    if all(type(f) is Identity for f in filters):
        return "permute", None
    return WALKED


class RegionPhase:
    """One certified splitjoin region run as a single steady phase.

    ``members`` are the region's flat phases in schedule order (splitter,
    branch stages, joiner); they are what a demoted region runs.  History
    counters of the bypassed internal edges are bumped in bulk after every
    fire.
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
        tier: Tuple[str, object],
    ) -> None:
        """``tier`` is what :func:`region_tier` chose; ``cache`` is this
        region's slot in the plan cache: whatever is stored there must
        depend on weights and repetition counts only."""
        self.name: str = region.name
        self.members: Tuple[CompiledPhase, ...] = tuple(members)
        self.reason: Optional[str] = None
        self._guard: Optional[Callable[[], bool]] = None
        counts = {ph.node: ph.count for ph in self.members}
        splits = counts[region.splitter]
        joins = counts[region.joiner]
        in_chan = channels[region.splitter.in_edges[0]]
        out_chan = channels[region.joiner.out_edges[0]]
        self._items = joins * region.joiner.out_rates[0]
        internal = list(region.splitter.out_edges) + [
            node.out_edges[0] for branch in region.branches for node in branch
        ]
        # Bypassed channels grouped by items per period (one or two groups
        # in practice), so the per-fire loop is two increments per edge.
        groups: Dict[int, List[object]] = {}
        for e in internal:
            per_period = counts[e.src] * e.push_rate
            groups.setdefault(per_period, []).append(channels[e])
        self._bumps = tuple(groups.items())
        self.tier, detail = tier
        if self.tier == "collapse":
            rep, firings, self._guard = detail
            self._fire = _collapse_fire(rep, firings, in_chan, out_chan)
        else:
            if "gather" not in cache:
                cache["gather"] = gather_map(region, splits, joins)
            self._fire = _permute_fire(
                cache["gather"],
                splits * region.splitter.in_rates[0],
                in_chan,
                out_chan,
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
