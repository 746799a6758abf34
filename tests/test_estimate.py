"""Tests for static work estimation and benchmark characteristics."""

import json

import pytest

from repro.estimate import (
    characterize,
    characteristics_table,
    format_table,
    node_work,
    steady_state_work,
    work_per_firing,
)
from repro.graph import ArraySource, NullSink, Pipeline, flatten
from repro.scheduling import repetitions
from tests.helpers import FIR, Accumulator, Gain, Square


class TestWorkEstimation:
    def test_fir_scales_with_taps(self):
        small = work_per_firing(FIR([1.0] * 4))
        large = work_per_firing(FIR([1.0] * 64))
        assert large > 8 * small

    def test_deterministic(self):
        assert work_per_firing(Gain(2.0)) == work_per_firing(Gain(3.0))

    def test_cache_respects_rate_signature(self):
        # Same class, different loop bounds -> different (cached) costs.
        assert work_per_firing(FIR([1.0] * 8)) != work_per_firing(FIR([1.0] * 32))

    def test_a_branch_the_executor_decides_is_costed_per_instance(self):
        """Equal-length keys, different bits: each instance is charged the
        arms its own key takes."""
        from repro.apps.des import KeyXor

        assert work_per_firing(KeyXor([1, 1, 0, 0])) == work_per_firing(KeyXor([1, 0, 0, 0])) + 1

    def test_a_run_that_gives_up_is_at_least_the_rate_estimate(self, monkeypatch):
        from repro.analysis import executor
        from repro.analysis.rates import BUDGET_EXCEEDED, analyze_rates

        class Long(FIR):  # a class of its own: no report is memoised for it
            pass

        monkeypatch.setattr(executor, "_MAX_STEPS", 50)
        filt = Long([1.0] * 64)
        report = analyze_rates(filt)
        assert BUDGET_EXCEEDED in report.dynamic and report.work > 0
        assert work_per_firing(filt) == max(report.work, 2.0 * (64 + 1) + 4.0)

    def test_a_run_that_gives_up_keeps_what_it_charged(self, monkeypatch):
        """A compute loop too long for the budget is charged the trips run
        before the run gave up, not a rate-proportional few cycles."""
        from repro.analysis import executor
        from repro.analysis.rates import BUDGET_EXCEEDED, analyze_rates
        from repro.graph import Filter

        class Heavy(Filter):
            def __init__(self, n):
                super().__init__(pop=1, push=1)
                self.n = n

            def work(self):
                x = self.pop()
                acc = 0.0
                for i in range(self.n):
                    acc += x * i
                self.push(acc)

        monkeypatch.setattr(executor, "_MAX_STEPS", 2_000)
        filt = Heavy(10**6)
        report = analyze_rates(filt)
        assert BUDGET_EXCEEDED in report.dynamic
        assert work_per_firing(filt) == report.work > 1_000 > 2.0 * (1 + 1) + 4.0

    def test_a_while_the_run_bounds_is_charged_its_trips(self):
        from repro.graph import Filter

        class Halve(Filter):
            def __init__(self, n):
                super().__init__(pop=1, push=1)
                self.n = n

            def work(self):
                x = self.pop()
                i = 0
                while i < self.n:
                    x = x * 0.5
                    i += 1
                self.push(x)

        three, six, nine = (work_per_firing(Halve(n)) for n in (3, 6, 9))
        # A trip is its test (1) plus ``x = x * 0.5`` (2) plus ``i += 1`` (2).
        assert six - three == nine - six == 3 * 5

    def test_transcendental_costed(self):
        from repro.apps.vocoder import RectToPolar

        assert work_per_firing(RectToPolar()) > work_per_firing(Gain(1.0))

    def test_positive_for_all_app_filters(self):
        from repro.apps import ALL_APPS

        for name, builder in ALL_APPS.items():
            for filt in builder().filters():
                assert work_per_firing(filt) >= 1.0, (name, filt.name)

    def test_router_work_proportional_to_items(self):
        from repro.graph import Identity, SplitJoin, duplicate, joiner_roundrobin

        app = Pipeline(
            ArraySource([1.0]),
            SplitJoin(duplicate(), [Identity(), Identity()], joiner_roundrobin()),
            NullSink(),
        )
        graph = flatten(app)
        joiner = next(n for n in graph.nodes if n.kind == "joiner")
        splitter = next(n for n in graph.nodes if n.kind == "splitter")
        assert node_work(joiner) == 4  # 2 in + 2 out
        assert node_work(splitter) == 3  # 1 in + 2 out

    def test_steady_state_work(self):
        app = Pipeline(ArraySource([1.0]), Gain(1.0), NullSink())
        graph = flatten(app)
        reps = repetitions(graph)
        work = steady_state_work(graph, reps)
        assert all(v >= 1 for v in work.values())


def test_estimates_match_the_pinned_table():
    """One ``work_per_firing`` value per app instance and crafted filter,
    as ``tests/work_estimates.py`` pinned them."""
    from tests.executor_digests import CRAFTED
    from tests.work_estimates import ESTIMATE_FILE, estimates

    pinned = json.loads(ESTIMATE_FILE.read_text())
    assert len(pinned) == 879 + len(CRAFTED)
    got = estimates()
    assert [name for name, _ in got] == [name for name, _ in pinned]
    differ = [
        f"{name}: {want} -> {value}"
        for (name, value), (_, want) in zip(got, pinned)
        if value != want
    ]
    assert not differ, f"{len(differ)} instance(s) differ: {differ}"


class TestCharacteristics:
    def test_fir_app_row(self):
        from repro.apps import fir

        row = characterize("FIR", fir.build())
        assert row.filters == 3  # source, fir, sink
        assert row.peeking == 1
        assert row.stateful == 0
        assert row.shortest_path == row.longest_path == 3

    def test_stateful_accounting_excludes_io(self):
        from repro.apps import radar

        row = characterize("Radar", radar.build())
        assert row.stateful > 0
        assert 0 < row.stateful_work_pct <= 100

    def test_table_sorted_by_stateful_work(self):
        from repro.apps import EVALUATION_SUITE

        rows = characteristics_table(
            {k: EVALUATION_SUITE[k] for k in ("FIR" if False else "DCT", "Radar", "Vocoder")}
        )
        pcts = [r.stateful_work_pct for r in rows]
        assert pcts == sorted(pcts)

    def test_format_table_renders_all_rows(self):
        from repro.apps import dct, fft

        rows = characteristics_table({"DCT": dct.build, "FFT": fft.build})
        text = format_table(rows)
        assert "DCT" in text and "FFT" in text
        assert "Comp/Comm" in text

    def test_paths_count_filters(self):
        from repro.apps import des

        row = characterize("DES", des.build())
        assert row.longest_path > row.shortest_path  # identity-vs-sbox branches
