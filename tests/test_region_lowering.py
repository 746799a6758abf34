"""Region lowering: certified splitjoins run as one vectorised phase.

A flat SL405-certified splitjoin whose internal edges carry no peek window
and no init residue, and whose members are one contiguous run of a
single-sweep schedule, becomes one :class:`~repro.runtime.regions.RegionPhase`
lowered by the strongest sound tier (collapse / permute / columns).  The
scalar engine is the oracle throughout: items bit for bit (sign of zero
included), ``fired`` for every node and both history counters of every
edge.
"""

import warnings

import numpy as np
import pytest

from repro.apps import ALL_APPS
from repro.apps.bitonic import CompareExchange
from repro.errors import EngineDowngradeWarning
from repro.graph import ArraySource, CollectSink, Filter, Pipeline
from repro.graph.builtins import Identity
from repro.graph.composites import SplitJoin
from repro.graph.splitjoin import combine, duplicate, joiner_roundrobin, roundrobin
from repro.runtime import Interpreter, Portal, clear_codegen_cache
from repro.runtime.array_channel import _MIN_CAPACITY
from repro.runtime.codegen_emit import plan_fingerprint
from repro.runtime.plan import _plan_signature, clear_plan_cache, plan_cache_stats
from tests.helpers import FIR, Accumulator, Gain

DATA = [0.5, -1.25, 3.0, -0.0, 2.5, 0.0, -4.0, 1.75, 6.0, -2.0, 0.25, 9.0]
ENGINES = ("batched", "codegen")


@pytest.fixture(autouse=True)
def _isolated_caches(tmp_path, monkeypatch):
    monkeypatch.setenv("REPRO_CODEGEN_CACHE", str(tmp_path / "cgc"))
    clear_codegen_cache()
    clear_plan_cache()
    yield
    clear_codegen_cache()


# -- filters (module level so the analyzer can read their source) --------------


class Lookup(Filter):
    """Stateless table lookup; ``init()`` may rewrite the table of the
    instances whose *name* asks for it (names are not compared state)."""

    def __init__(self, table, name=None):
        super().__init__(pop=1, push=1, name=name)
        self.table = tuple(float(t) for t in table)

    def init(self):
        if self.name.endswith("_rewired"):
            self.table = tuple(reversed(self.table))

    def work(self):
        self.push(self.table[int(abs(self.pop())) % len(self.table)])


class Triple(Filter):
    """pop 1 / push 3: a rate changer that leaves init residue behind."""

    def __init__(self, name=None):
        super().__init__(pop=1, push=3, name=name)

    def work(self):
        x = self.pop()
        self.push(x)
        self.push(x + 1.0)
        self.push(x * 2.0)


class Tunable(Filter):
    """Teleport receiver with a pure ``work()``."""

    def __init__(self, name=None):
        super().__init__(pop=1, push=1, name=name)
        self.factor = 1.0

    def set_factor(self, factor):
        self.factor = factor

    def work(self):
        self.push(self.pop() * self.factor)


class Sender(Filter):
    def __init__(self, portal, name=None):
        super().__init__(pop=1, push=1, name=name)
        self.portal = portal
        self.count = 0

    def work(self):
        self.count += 1
        if self.count == 3:
            self.portal.set_factor(10.0, interval=None)
        self.push(self.pop())


# -- helpers ---------------------------------------------------------------------


def _app(*stages, data=DATA):
    return Pipeline(ArraySource(data), *stages, CollectSink())


def _sink(app):
    return next(f for f in app.filters() if isinstance(f, CollectSink))


def _interp(app, engine):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", EngineDowngradeWarning)
        return Interpreter(app, check=False, engine=engine)


def _books(interp):
    """``fired`` per node and both history counters per edge, in graph
    order (auto-generated names differ between two builds of one app)."""
    fired = [interp.fired[node] for node in interp.graph.nodes]
    edges = [
        (interp.channels[e].pushed_count, interp.channels[e].popped_count)
        for e in interp.graph.edges
    ]
    return fired, edges


def _same_bits(got, want):
    got, want = np.asarray(got), np.asarray(want)
    return np.array_equal(got, want) and np.array_equal(
        np.signbit(got), np.signbit(want)
    )


def _run(build, engine, periods=5):
    app = build()
    interp = _interp(app, engine)
    with warnings.catch_warnings():  # SL305: Lookup is not vector-certified
        warnings.simplefilter("ignore", EngineDowngradeWarning)
        interp.run(periods)
    return list(_sink(app).collected), interp


def _check_against_scalar(build, expect_tier, periods=5):
    """Both engines, oracle-exact items and bookkeeping; returns the
    lowered interpreters."""
    want, oracle = _run(build, "scalar", periods)
    assert want
    lowered = []
    for engine in ENGINES:
        got, interp = _run(build, engine, periods)
        assert interp.engine_used == engine
        assert _same_bits(got, want), engine
        assert _books(interp) == _books(oracle), engine
        assert [r["tier"] for r in interp.engine_report()["regions"]] == [expect_tier]
        regions = [b for b in interp.plan.blocks if b.kind == "region"]
        assert len(regions) == (expect_tier is not None)
        lowered.append(interp)
    return lowered


# -- the three tiers ----------------------------------------------------------------


class TestTiers:
    def test_collapse_identical_lanes(self):
        def build():
            lanes = [CompareExchange(True) for _ in range(3)]
            return _app(SplitJoin(roundrobin(2, 2, 2), lanes, joiner_roundrobin(2, 2, 2)))

        _check_against_scalar(build, "collapse")

    def test_collapse_with_r_greater_than_one(self):
        # weight 4 = two pop windows per cycle; joiner takes r * push = 4.
        def build():
            lanes = [CompareExchange(False) for _ in range(2)]
            return _app(SplitJoin(roundrobin(4, 4), lanes, joiner_roundrobin(4, 4)))

        _check_against_scalar(build, "collapse")

    def test_collapse_needs_whole_pop_windows(self):
        # weight 3 is not a multiple of pop 2: a firing would straddle cycles.
        def build():
            lanes = [CompareExchange(True) for _ in range(2)]
            return _app(SplitJoin(roundrobin(3, 3), lanes, joiner_roundrobin(3, 3)))

        _check_against_scalar(build, "columns", periods=4)

    def test_mixed_state_lanes_take_columns_not_collapse(self):
        def build():
            lanes = [CompareExchange(True), CompareExchange(False)]
            return _app(SplitJoin(roundrobin(2, 2), lanes, joiner_roundrobin(2, 2)))

        _check_against_scalar(build, "columns")

    @pytest.mark.parametrize(
        "split, join",
        [
            (roundrobin(1, 1), joiner_roundrobin(2, 2)),  # uniform scatter
            (roundrobin(2, 4), joiner_roundrobin(1, 2)),  # non-uniform weights
            (duplicate(), joiner_roundrobin(1, 1)),
            (duplicate(), joiner_roundrobin(3, 3)),
        ],
        ids=["scatter", "nonuniform", "duplicate", "duplicate-wide"],
    )
    def test_permute_identity_branches(self, split, join):
        def build():
            return _app(SplitJoin(split, [Identity(), Identity()], join))

        _check_against_scalar(build, "permute")

    def test_columns_uniform(self):
        def build():
            lanes = [Gain(2.0), Gain(-0.5), Gain(3.0)]
            return _app(SplitJoin(roundrobin(1, 1, 1), lanes, joiner_roundrobin(1, 1, 1)))

        _check_against_scalar(build, "columns")

    def test_columns_nonuniform_weights_and_rates(self):
        def build():
            lanes = [CompareExchange(True), Gain(-1.0), Triple()]
            return _app(SplitJoin(roundrobin(2, 1, 1), lanes, joiner_roundrobin(2, 1, 3)))

        _check_against_scalar(build, "columns")

    def test_columns_multi_stage_branches(self):
        def build():
            lanes = [
                Pipeline(Gain(2.0), CompareExchange(True), Gain(0.5)),
                Pipeline(Triple(), Gain(-1.0)),
                Identity(),
            ]
            return _app(SplitJoin(roundrobin(2, 2, 1), lanes, joiner_roundrobin(2, 6, 1)))

        _check_against_scalar(build, "columns")

    def test_columns_duplicate_with_non_peeking_heads(self):
        def build():
            lanes = [Gain(2.0), Pipeline(Gain(3.0), Gain(-1.0)), Lookup([1, 2, 3])]
            return _app(SplitJoin(duplicate(), lanes, joiner_roundrobin(1, 1, 1)))

        _check_against_scalar(build, "columns")

    def test_region_between_other_stages_keeps_their_fused_chains(self):
        def build():
            lanes = [Gain(2.0), Gain(3.0)]
            return _app(
                Gain(0.5),
                Gain(4.0),
                SplitJoin(roundrobin(1, 1), lanes, joiner_roundrobin(1, 1)),
                Gain(-1.0),
            )

        batched, _ = _check_against_scalar(build, "columns")
        assert len(batched.plan.fused_chains) == 2


# -- refusals: the plan is unchanged and says why -----------------------------------


class TestRefusals:
    def _refused(self, build, why, periods=5):
        for interp in _check_against_scalar(build, None, periods):
            [row] = interp.engine_report()["regions"]
            assert why in row["reason"], row
            assert row["branches"] >= 2 and row["name"]

    def test_peeking_head(self):
        def build():
            lanes = [FIR([0.5, 0.25]), FIR([1.0, -1.0])]
            return _app(SplitJoin(duplicate(), lanes, joiner_roundrobin(1, 1)))

        self._refused(build, "peeking head")

    def test_init_residue(self):
        # The peeking consumer makes init fire the joiner once: each Triple
        # fires once, pushes 3, the joiner takes 2, one item stays behind.
        def build():
            return _app(
                SplitJoin(roundrobin(1, 1), [Triple(), Triple()], joiner_roundrobin(2, 2)),
                FIR([1.0, 0.5]),
            )

        self._refused(build, "init residue")

    def test_stateful_branch_is_not_certified(self):
        def build():
            lanes = [Accumulator(), Gain(2.0)]
            return _app(SplitJoin(roundrobin(1, 1), lanes, joiner_roundrobin(1, 1)))

        self._refused(build, "not certified")

    def test_combine_joiner(self):
        def build():
            return _app(SplitJoin(duplicate(), [Gain(2.0), Gain(3.0)], combine()))

        self._refused(build, "COMBINE")

    def test_teleport_receiver_inside_a_branch(self):
        def build():
            portal = Portal()
            receiver = Tunable(name="recv")
            portal.register(receiver)
            return _app(
                SplitJoin(roundrobin(1, 1), [receiver, Gain(2.0)], joiner_roundrobin(1, 1)),
                Sender(portal, name="send"),
            )

        want, oracle = _run(build, "scalar", 6)
        got, interp = _run(build, "batched", 6)
        assert _same_bits(got, want) and _books(interp) == _books(oracle)
        [row] = interp.engine_report()["regions"]
        assert row["tier"] is None and "messaging endpoint" in row["reason"]

    def test_lowered_region_next_to_messaging_endpoints(self):
        """A portal-bound plan still lowers the regions that hold no
        endpoint (they run between delivery checks like fused chains)."""

        def build():
            portal = Portal()
            receiver = Tunable(name="recv")
            portal.register(receiver)
            return _app(
                receiver,
                SplitJoin(roundrobin(1, 1), [Gain(2.0), Gain(3.0)], joiner_roundrobin(1, 1)),
                Sender(portal, name="send"),
            )

        want, oracle = _run(build, "scalar", 6)
        got, interp = _run(build, "batched", 6)
        assert _same_bits(got, want) and _books(interp) == _books(oracle)
        assert interp.engine_report()["regions"][0]["tier"] == "columns"


# -- soundness of collapse against live state ----------------------------------------


class TestCollapseSoundness:
    TABLE = [4.0, -1.0, 0.5, 7.0]

    def test_init_rewriting_one_table_is_seen(self):
        """Tiers are decided after init(): equal tables at construction,
        one rewritten by init() — collapse would be wrong."""

        def build(rewired):
            names = ["lk_a", "lk_b_rewired" if rewired else "lk_b", "lk_c"]
            lanes = [Lookup(self.TABLE, name=n) for n in names]
            return _app(SplitJoin(roundrobin(1, 1, 1), lanes, joiner_roundrobin(1, 1, 1)))

        _check_against_scalar(lambda: build(False), "collapse")
        _check_against_scalar(lambda: build(True), "columns")

    @pytest.mark.parametrize("engine", ENGINES)
    def test_mutation_between_calls_demotes(self, engine):
        def build():
            lanes = [Lookup(self.TABLE, name=f"lk{i}") for i in range(3)]
            return _app(SplitJoin(roundrobin(1, 1, 1), lanes, joiner_roundrobin(1, 1, 1)))

        def drive(engine):
            app = build()
            interp = _interp(app, engine)
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", EngineDowngradeWarning)
                interp.run(2)
                middle = next(f for f in app.filters() if f.name == "lk1")
                middle.table = (9.0, 8.0, 7.0, 6.0)
                interp.run_steady(3)
            return list(_sink(app).collected), interp

        want, oracle = drive("scalar")
        got, interp = drive(engine)
        assert _same_bits(got, want)
        assert _books(interp) == _books(oracle)
        [row] = interp.engine_report()["regions"]
        assert row["tier"] is None and "live state" in row["reason"]

    def test_private_mutable_state_does_not_collapse(self):
        """Equal but distinct lists could be rewritten in place behind an
        identity guard; a shared list cannot diverge."""

        def build(shared):
            table = list(self.TABLE)
            lanes = [Lookup(self.TABLE, name=f"lk{i}") for i in range(2)]
            for lane in lanes:
                lane.table = table if shared else list(table)
            return _app(SplitJoin(roundrobin(1, 1), lanes, joiner_roundrobin(1, 1)))

        _check_against_scalar(lambda: build(False), "columns")
        _check_against_scalar(lambda: build(True), "collapse")

    def test_type_tagged_comparison(self):
        # 2 == 2.0 == True in Python; the fingerprints tell them apart.
        def build():
            lanes = [Gain(2.0), Gain(2.0)]
            lanes[1].k = 2
            return _app(SplitJoin(roundrobin(1, 1), lanes, joiner_roundrobin(1, 1)))

        _check_against_scalar(build, "columns")


# -- caches hold only what their key covers -------------------------------------------


class TestCaches:
    @staticmethod
    def _build(directions):
        def build():
            lanes = [CompareExchange(d) for d in directions]
            return _app(SplitJoin(roundrobin(2, 2), lanes, joiner_roundrobin(2, 2)))

        return build

    def test_plan_cache_hit_still_decides_tier_per_plan(self):
        same, mixed = self._build([True, True]), self._build([True, False])
        want_same, _ = _run(same, "scalar")
        want_mixed, _ = _run(mixed, "scalar")
        got, first = _run(same, "batched")
        assert plan_cache_stats["misses"] == 1 and _same_bits(got, want_same)
        got, second = _run(mixed, "batched")
        assert second.plan.cache_stats["hit"]  # same structural signature
        assert _same_bits(got, want_mixed)
        assert first.plan.region_tiers() == {"collapse": 1}
        assert second.plan.region_tiers() == {"columns": 1}

    def test_fingerprint_covers_the_tier(self):
        prints = []
        for build in (self._build([True, True]), self._build([True, False])):
            _, interp = _run(build, "codegen")
            plan = interp.plan
            signature = _plan_signature(
                plan.graph, interp.program, plan._senders, plan._receivers
            )
            prints.append(plan_fingerprint(plan, signature, "test"))
            assert plan.fingerprint is not None
        assert prints[0] != prints[1]

    def test_cached_module_rebinds_to_an_equal_lowering(self):
        build = self._build([False, False])
        want, _ = _run(build, "scalar")
        _, first = _run(build, "codegen")
        got, second = _run(build, "codegen")
        assert first.plan.cache_outcome == "miss"
        assert second.plan.cache_outcome == "mem_hit"
        assert _same_bits(got, want)

    def test_meta_rows_and_report_shapes(self):
        _, interp = _run(self._build([True, True]), "codegen")
        blocks = interp.plan.codegen_meta["blocks"]
        [region] = [b for b in blocks if b["kind"] == "region"]
        assert region["mode"] == "call" and region["tier"] == "collapse"
        for block in blocks:
            assert "kind" in block
            if block["kind"] != "fused":
                assert block["mode"] in ("inline", "call", "fallback")
        assert all("kind" in r for r in interp.plan.vectorization_report().values())
        [row] = [b for b in interp.engine_report()["codegen"]["blocks"] if b["kind"] == "region"]
        assert row["tier"] == "collapse"


# -- chunking invariance ------------------------------------------------------------------


def _three_tier_app():
    return _app(
        SplitJoin(roundrobin(2, 2), [Identity(), Identity()], joiner_roundrobin(1, 1)),
        SplitJoin(
            roundrobin(2, 2),
            [CompareExchange(True), CompareExchange(True)],
            joiner_roundrobin(2, 2),
        ),
        SplitJoin(
            roundrobin(1, 2),
            [Pipeline(Gain(2.0), Triple()), CompareExchange(False)],
            joiner_roundrobin(3, 2),
        ),
    )


@pytest.mark.parametrize("engine", ENGINES)
@pytest.mark.parametrize("chunk", [1, 2, 3])
def test_chunking_invariance(engine, chunk):
    total, first = 7, 3
    want, _ = _run(_three_tier_app, "scalar", total)

    def drive(calls):
        app = _three_tier_app()
        interp = _interp(app, engine)
        interp.plan.chunk_periods = chunk
        interp.run_init()
        for periods in calls:
            interp.run_steady(periods)
        assert sorted(interp.plan.region_tiers()) == ["collapse", "columns", "permute"]
        return list(_sink(app).collected)

    assert _same_bits(drive([total]), want)
    assert _same_bits(drive([1] * total), want)
    assert _same_bits(drive([first, total - first]), want)


# -- bookkeeping and tracing ---------------------------------------------------------------


def test_traced_run_emits_one_span_per_region():
    app = _three_tier_app()
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", EngineDowngradeWarning)
        interp = Interpreter(app, check=False, engine="batched", trace=True)
    interp.run(4)
    regions = [b for b in interp.plan.blocks if b.kind == "region"]
    assert len(regions) == 3
    spans = [e for e in interp.tracer.events if e.get("cat") == "region"]
    assert sorted({e["name"] for e in spans}) == sorted(r.name for r in regions)
    assert len(spans) == 3  # 4 periods superbatch into one chunk
    for span in spans:
        assert span["args"]["firings"] > 0 and span["args"]["items"] > 0
    member_names = {ph.node.name for r in regions for ph in r.members}
    assert not member_names & {e["name"] for e in interp.tracer.events}
    interp.close()


def test_report_is_empty_until_init_then_one_row_per_splitjoin():
    interp = _interp(_three_tier_app(), "batched")
    assert interp.engine_report()["regions"] == []
    interp.run_init()
    rows = interp.engine_report()["regions"]
    assert [r["tier"] for r in rows] == ["permute", "collapse", "columns"]
    assert all(r["reason"] is None and r["branches"] == 2 for r in rows)


# -- the application suite --------------------------------------------------------------------

#: Steady block ceilings; before region lowering: 86/281/273/39/27.
BLOCK_CEILINGS = {
    "BitonicSort": 24,
    "Serpent": 20,
    "DES": 140,
    "DCT": 8,
    "MPEG2Decoder": 12,
}


@pytest.mark.parametrize("app_name", sorted(ALL_APPS), ids=str)
def test_apps_bit_exact_including_sign_of_zero(app_name):
    builder = ALL_APPS[app_name]
    want, oracle = _run(builder, "scalar", 3)
    for engine in ENGINES:
        got, interp = _run(builder, engine, 3)
        assert _same_bits(got, want), engine
        assert _books(interp) == _books(oracle), engine
        if app_name in BLOCK_CEILINGS:
            assert interp.engine_used == engine
            assert interp.plan.region_tiers(), "a lowered app has a tier histogram"
            assert len(interp.plan.blocks) <= BLOCK_CEILINGS[app_name]


# -- close() hands the tapes back ---------------------------------------------------------------


@pytest.mark.parametrize("engine", ENGINES)
def test_close_trims_every_tape(engine):
    app = ALL_APPS["BitonicSort"]()
    sink = _sink(app)
    interp = _interp(app, engine)
    interp.run(4000)
    grown = sum(c._buf.nbytes for c in interp.channels.values())
    before = _books(interp), [c.snapshot() for c in interp.channels.values()]
    pushed = interp.items_pushed(next(iter(app.filters())))
    interp.close()
    interp.close()  # idempotent
    live = sum(len(c) for c in interp.channels.values())
    held = sum(c._buf.nbytes for c in interp.channels.values())
    assert held <= 8 * (live + _MIN_CAPACITY * len(interp.channels)) < grown
    assert (_books(interp), [c.snapshot() for c in interp.channels.values()]) == before
    assert interp.items_pushed(next(iter(app.filters()))) == pushed
    # A closed session is still a session: tapes simply regrow.
    n = len(sink.collected)
    interp.run_steady(3)
    assert len(sink.collected) > n
