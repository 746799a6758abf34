"""Whole-program linear optimization and automatic selection.

Three optimization levels, matching the paper's experiments:

* :func:`apply_combination` ("linear replacement") — collapse every maximal
  linear region into a single direct-form :class:`LinearFilter`.
* :func:`apply_frequency` ("frequency replacement") — collapse every
  maximal linear region and implement it in the frequency domain,
  unconditionally (the paper shows this can *hurt* for narrow windows).
* :func:`apply_selection` ("automatic selection") — a dynamic program over
  the stream hierarchy (including all contiguous sub-runs of each
  pipeline) choosing, per region, the cheapest of {keep original, direct
  linear replacement, frequency replacement} under the FLOPs cost model.

All three return a **new** stream tree; the input tree is never mutated
(untouched subtrees are cloned).

Nothing inside a :class:`FeedbackLoop` is ever replaced: the loop's delay
fixes the legal rates, so only a rate-preserving replacement of one filter
by its own :class:`LinearFilter` would be legal there.  That combines
nothing, and it swaps a few scalar flops the engines inline for a per-firing
matrix-vector product they cannot (DToA's 3-flop loop body ran 0.05x).
Loops are cloned unchanged; everything outside them is still optimised.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable, List, Optional, Sequence, Tuple

from repro.errors import StreamItError
from repro.estimate.work import work_per_firing
from repro.graph.base import Filter, Stream
from repro.graph.composites import FeedbackLoop, Pipeline, SplitJoin
from repro.linear.combination import combine_pipeline_all, combine_splitjoin
from repro.linear.costmodel import (
    best_block,
    direct_flops_per_firing,
    freq_flops_per_block,
)
from repro.linear.extraction import extract_linear
from repro.linear.frequency import FrequencyFilter
from repro.linear.linrep import LinearFilter, LinearRep
from repro.transforms.clone import clone_stream


# ---------------------------------------------------------------------------
# Whole-subtree collapse
# ---------------------------------------------------------------------------


def collapse_linear(stream: Stream) -> Optional[LinearRep]:
    """The linear rep of an entire subtree, or None if any part is not linear."""
    if isinstance(stream, LinearFilter):
        return stream.rep
    if isinstance(stream, FrequencyFilter):
        return stream.rep.expand(stream.block)
    if isinstance(stream, Filter):
        return extract_linear(stream)
    if isinstance(stream, Pipeline):
        reps = [collapse_linear(child) for child in stream.children()]
        if any(rep is None for rep in reps):
            return None
        return combine_pipeline_all(reps)  # type: ignore[arg-type]
    if isinstance(stream, SplitJoin):
        reps = [collapse_linear(child) for child in stream.children()]
        if any(rep is None for rep in reps):
            return None
        try:
            return combine_splitjoin(reps, stream.splitter, stream.joiner)  # type: ignore[arg-type]
        except StreamItError:
            return None
    return None  # feedback loops are never collapsed


# ---------------------------------------------------------------------------
# Cost accounting
# ---------------------------------------------------------------------------


def _filter_cost_per_firing(filt: Filter) -> float:
    """Flops-equivalent cost of one firing (exact for linear nodes)."""
    if isinstance(filt, FrequencyFilter):
        return freq_flops_per_block(filt.rep, filt.block)
    if isinstance(filt, LinearFilter):
        return direct_flops_per_firing(filt.rep)
    return work_per_firing(filt)


def subtree_cost_per_item(stream: Stream) -> float:
    """Estimated flops per item *entering* the subtree.

    For source-led subtrees (no input), the cost is per item *leaving*.
    Used to compare implementation choices for the same region, which by
    construction share I/O rates.
    """
    in_items, out_items, cost = _period_profile(stream)
    base = in_items if in_items > 0 else out_items
    if base == 0:
        return float(cost)
    return float(cost / base)


def _period_profile(stream: Stream) -> Tuple[Fraction, Fraction, Fraction]:
    """(input items, output items, cost) per local steady period."""
    if isinstance(stream, Filter):
        return (
            Fraction(stream.rate.pop),
            Fraction(stream.rate.push),
            Fraction(_filter_cost_per_firing(stream)).limit_denominator(10**6),
        )
    if isinstance(stream, Pipeline):
        rate = Fraction(1)
        total_cost = Fraction(0)
        in_items = Fraction(0)
        out_items = Fraction(0)
        for index, child in enumerate(stream.children()):
            c_in, c_out, c_cost = _period_profile(child)
            if index == 0:
                in_items = rate * c_in
            else:
                if c_in == 0:
                    raise StreamItError(
                        f"source filter {child.name} in pipeline interior"
                    )
                rate = out_items / c_in
            total_cost += rate * c_cost
            out_items = rate * c_out
        return in_items, out_items, total_cost
    if isinstance(stream, SplitJoin):
        ws = stream.split_weights()
        wj = stream.join_weights()
        split_in = stream.splitter.pop_per_cycle(stream.n_branches)
        join_out = stream.joiner.push_per_cycle(stream.n_branches)
        total_cost = Fraction(0)
        join_cycles: Optional[Fraction] = None
        for i, child in enumerate(stream.children()):
            c_in, c_out, c_cost = _period_profile(child)
            if ws[i] == 0 and c_in == 0:
                continue
            rate = Fraction(ws[i]) / c_in if c_in else Fraction(0)
            total_cost += rate * c_cost
            if wj[i]:
                branch_join = rate * c_out / Fraction(wj[i])
                join_cycles = branch_join if join_cycles is None else join_cycles
        return (
            Fraction(split_in),
            (join_cycles or Fraction(0)) * join_out,
            total_cost,
        )
    if isinstance(stream, FeedbackLoop):
        wj0, wj1 = stream.join_weights()
        ws0, ws1 = stream.split_weights()
        join_out = stream.joiner.push_per_cycle(2)
        split_in = stream.splitter.pop_per_cycle(2)
        b_in, b_out, b_cost = _period_profile(stream.body)
        l_in, l_out, l_cost = _period_profile(stream.loopback)
        body_rate = Fraction(join_out) / b_in
        split_rate = body_rate * b_out / split_in
        loop_rate = split_rate * ws1 / l_in if l_in else Fraction(0)
        cost = body_rate * b_cost + loop_rate * l_cost
        return Fraction(wj0), split_rate * ws0, cost
    raise StreamItError(f"cannot profile stream type {type(stream)!r}")


# ---------------------------------------------------------------------------
# Rewriters
# ---------------------------------------------------------------------------


@dataclass
class OptimizationReport:
    """What the optimizer did, for logging and the benchmark harness."""

    replacements: List[str] = field(default_factory=list)

    def note(self, message: str) -> None:
        self.replacements.append(message)


def _is_io_filter(stream: Stream) -> bool:
    return isinstance(stream, Filter) and (
        stream.rate.pop == 0 or stream.rate.push == 0
    )


def _rewrite_pipeline(
    pipe: Pipeline,
    rewrite: Callable[[Stream], Stream],
    run_builder: Callable[[Sequence[Stream], LinearRep], Stream],
    report: OptimizationReport,
) -> Pipeline:
    """Replace maximal linear runs of a pipeline's children."""
    children = list(pipe.children())
    new_children: List[Stream] = []
    i = 0
    while i < len(children):
        if _is_io_filter(children[i]):
            new_children.append(clone_stream(children[i]))
            i += 1
            continue
        # Find the longest run starting at i that collapses to linear.
        best_j: Optional[int] = None
        best_rep: Optional[LinearRep] = None
        reps: List[LinearRep] = []
        j = i
        while j < len(children):
            rep_j = None if _is_io_filter(children[j]) else collapse_linear(children[j])
            if rep_j is None:
                break
            reps.append(rep_j)
            try:
                combined = combine_pipeline_all(reps)
            except StreamItError:
                break
            best_j, best_rep = j, combined
            j += 1
        if best_rep is not None and best_j is not None:
            run = children[i : best_j + 1]
            new_children.append(run_builder(run, best_rep))
            report.note(
                f"collapsed {'+'.join(c.name for c in run)} -> "
                f"peek={best_rep.peek} pop={best_rep.pop} push={best_rep.push}"
            )
            i = best_j + 1
        else:
            new_children.append(rewrite(children[i]))
            i += 1
    return Pipeline(*new_children, name=pipe.name)


def _make_rewriter(
    run_builder: Callable[[Sequence[Stream], LinearRep], Stream],
    report: OptimizationReport,
) -> Callable[[Stream], Stream]:
    def rewrite(stream: Stream) -> Stream:
        if isinstance(stream, Pipeline):
            return _rewrite_pipeline(stream, rewrite, run_builder, report)
        if isinstance(stream, SplitJoin):
            rep = collapse_linear(stream)
            if rep is not None:
                replacement = run_builder([stream], rep)
                report.note(f"collapsed {stream.name}")
                return replacement
            new_children = [rewrite(child) for child in stream.children()]
            return SplitJoin(stream.splitter, new_children, stream.joiner, name=stream.name)
        if isinstance(stream, Filter) and not _is_io_filter(stream):
            rep = collapse_linear(stream)
            if rep is not None:
                return run_builder([stream], rep)
        # Feedback loops land here whole (see the module docstring).
        return clone_stream(stream)

    return rewrite


def apply_combination(stream: Stream) -> Tuple[Stream, OptimizationReport]:
    """Linear replacement: maximal linear regions become LinearFilters."""
    report = OptimizationReport()

    def builder(run: Sequence[Stream], rep: LinearRep) -> Stream:
        return LinearFilter(rep, name=f"linear[{'+'.join(s.name for s in run)}]")

    rewrite = _make_rewriter(builder, report)
    return rewrite(stream), report


def apply_frequency(stream: Stream) -> Tuple[Stream, OptimizationReport]:
    """Frequency replacement: maximal linear regions run via FFT."""
    report = OptimizationReport()

    def builder(run: Sequence[Stream], rep: LinearRep) -> Stream:
        return FrequencyFilter(rep, name=f"freq[{'+'.join(s.name for s in run)}]")

    rewrite = _make_rewriter(builder, report)
    return rewrite(stream), report


# ---------------------------------------------------------------------------
# Automatic selection (dynamic programming)
# ---------------------------------------------------------------------------


def _region_options(region_cost: float, rep: Optional[LinearRep]) -> List[Tuple[float, str]]:
    options = [(region_cost, "keep")]
    if rep is not None:
        options.append((direct_flops_per_firing(rep) / rep.pop, "linear"))
        block = best_block(rep)
        options.append((freq_flops_per_block(rep, block) / (block * rep.pop), "freq"))
    return options


def apply_selection(stream: Stream) -> Tuple[Stream, OptimizationReport]:
    """Automatic optimization selection over the hierarchy.

    For every pipeline, a suffix dynamic program considers every contiguous
    child run; each run (and each whole split-join/filter) may be kept,
    replaced by a direct-form linear node, or frequency-translated —
    whichever minimizes estimated flops per input item.
    """
    report = OptimizationReport()

    def choose(stream_: Stream) -> Tuple[Stream, float]:
        if isinstance(stream_, Pipeline):
            return choose_pipeline(stream_)
        base_cost = _safe_cost(stream_)
        rep = None if _is_io_filter(stream_) else collapse_linear(stream_)
        options = _region_options(base_cost, rep)
        cost, kind = min(options, key=lambda t: t[0])
        if kind == "linear":
            assert rep is not None
            report.note(f"{stream_.name}: direct linear replacement")
            return LinearFilter(rep, name=f"linear[{stream_.name}]"), cost
        if kind == "freq":
            assert rep is not None
            report.note(f"{stream_.name}: frequency replacement")
            return FrequencyFilter(rep, name=f"freq[{stream_.name}]"), cost
        # keep: recurse into split-joins to optimize their insides; a
        # feedback loop is kept whole (see the module docstring).
        if isinstance(stream_, SplitJoin):
            kids = [choose(c) for c in stream_.children()]
            new = SplitJoin(
                stream_.splitter, [k[0] for k in kids], stream_.joiner, name=stream_.name
            )
            return new, _safe_cost(new)
        return clone_stream(stream_), base_cost

    def choose_pipeline(pipe: Pipeline) -> Tuple[Stream, float]:
        children = list(pipe.children())
        n = len(children)
        # Pre-compute reps of every contiguous run [i, j].
        run_rep: dict = {}
        for i in range(n):
            reps: List[LinearRep] = []
            for j in range(i, n):
                rep_j = (
                    None
                    if _is_io_filter(children[j])
                    else collapse_linear(children[j])
                )
                if rep_j is None:
                    break
                reps.append(rep_j)
                try:
                    run_rep[(i, j)] = combine_pipeline_all(reps)
                except StreamItError:
                    break
        # Gains scale per-item costs downstream of rate changers.
        gains: List[float] = []
        scale = 1.0
        scales = [1.0]
        for child in children:
            c_in, c_out, _ = _period_profile(child)
            gain = float(c_out / c_in) if c_in else 1.0
            scale *= gain
            scales.append(scale)
        # Suffix DP over (choice at position i).
        INF = float("inf")
        best_cost: List[float] = [INF] * (n + 1)
        best_plan: List[Optional[Tuple[str, int, object]]] = [None] * (n + 1)
        best_cost[n] = 0.0
        for i in range(n - 1, -1, -1):
            # Option: handle child i alone (recursively optimized).
            child_new, child_cost = choose(children[i])
            total = scales[i] * child_cost + best_cost[i + 1]
            best_cost[i] = total
            best_plan[i] = ("single", i, child_new)
            # Option: collapse run [i, j].
            for j in range(i, n):
                rep = run_rep.get((i, j))
                if rep is None:
                    continue
                for impl_cost, kind in _region_options(INF, rep)[1:]:
                    total = scales[i] * impl_cost + best_cost[j + 1]
                    if total < best_cost[i]:
                        best_cost[i] = total
                        best_plan[i] = (kind, j, rep)
        # Reconstruct.
        new_children: List[Stream] = []
        i = 0
        while i < n:
            plan = best_plan[i]
            assert plan is not None
            kind, j, payload = plan
            if kind == "single":
                new_children.append(payload)  # type: ignore[arg-type]
                i += 1
            else:
                rep = payload  # type: ignore[assignment]
                run_names = "+".join(c.name for c in children[i : j + 1])
                if kind == "linear":
                    new_children.append(LinearFilter(rep, name=f"linear[{run_names}]"))
                    report.note(f"{run_names}: direct linear replacement")
                else:
                    new_children.append(FrequencyFilter(rep, name=f"freq[{run_names}]"))
                    report.note(f"{run_names}: frequency replacement")
                i = j + 1
        return Pipeline(*new_children, name=pipe.name), best_cost[0]

    new_stream, _ = choose(stream)
    return new_stream, report


def _safe_cost(stream: Stream) -> float:
    try:
        return subtree_cost_per_item(stream)
    except StreamItError:
        return 0.0
