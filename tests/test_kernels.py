"""Kernel-acceleration layer: equivalence, caching, and invalidation.

Every kernel (cached join indexes, zone-map pruned scans, lazy
selection vectors) is a pure acceleration — these tests pin the
results against the independent reference evaluator on the SSB and
TPC-H grids (and against numpy expectations for hand-built plans),
and the invalidation contract of the cache registry.
"""

from contextlib import contextmanager

import numpy as np
import pytest

from repro.engine import Planner, caches, execute_reference, kernels, plan_cache
from repro.engine.execution import execute_functional
from repro.engine.expressions import (
    And,
    Between,
    ColumnRef,
    Comparison,
    InList,
    Literal,
    Not,
    Or,
)
from repro.engine.frame import Frame
from repro.engine.intermediates import SelectionVector, TidSet
from repro.engine.operators import (
    HashJoin,
    Materialize,
    PhysicalPlan,
    ScanSelect,
    TidIntersect,
)
from repro.harness.runner import canonical_row, compare_rows
from repro.sql import bind
from repro.storage import ColumnType, Database, build_zone_map
from repro.storage.compression import compress_database
from repro.workloads import micro, ssb, tpch


@contextmanager
def zone_blocks(database, block_rows):
    """Run the block with ``database``'s zone maps at ``block_rows``
    rows per block, so the tiny test tables prune."""
    cache = kernels.cache_for(database)
    saved = cache.block_rows
    cache.block_rows = block_rows
    try:
        yield
    finally:
        cache.block_rows = saved


def stat_deltas(action):
    """Kernel counter increments while ``action()`` runs."""
    before = kernels.snapshot_stats()
    action()
    return {key: value - before[key]
            for key, value in kernels.snapshot_stats().items()}


def assert_matches_reference(database, sql, rows, name="query"):
    """``rows`` (in any order) equal the reference evaluator's answer."""
    want = execute_reference(bind(sql, database, name=name), database)
    compare_rows(name, sorted(map(canonical_row, rows)),
                 sorted(map(canonical_row, want)))


def run_query(database, sql, name):
    """Fresh plan + functional execution (no cross-plan memoisation)."""
    plan_cache.invalidate(database)
    spec = bind(sql, database, name=name)
    plan = Planner(database).plan(spec)
    return execute_functional(plan, database).payload.row_tuples()


# ---------------------------------------------------------------------------
# SelectionVector
# ---------------------------------------------------------------------------

class TestSelectionVector:
    def test_mask_materialises_lazily(self):
        mask = np.array([True, False, True, True, False])
        sel = SelectionVector(mask)
        assert sel._tids is None
        assert len(sel) == 3
        assert sel.tids.tolist() == [0, 2, 3]
        assert sel.tids.dtype == np.int64
        assert not sel.is_all

    def test_full_table_selection(self):
        sel = SelectionVector(n=4)
        assert sel.mask is None
        assert sel.is_all
        assert len(sel) == 4
        assert sel.tids.tolist() == [0, 1, 2, 3]

    def test_all_true_mask_is_all(self):
        sel = SelectionVector(np.ones(6, dtype=bool))
        assert sel.is_all

    def test_needs_mask_or_count(self):
        with pytest.raises(ValueError):
            SelectionVector()

    def test_tidset_positions_and_gather(self, toy_db):
        sel = SelectionVector(np.arange(500) % 3 == 0)
        tids = TidSet({"sales": sel})
        assert np.array_equal(tids.positions("sales"), sel.tids)
        column = toy_db.column("sales.amount")
        assert np.array_equal(
            tids.gather("sales", column), column.values[sel.tids]
        )
        # Full-table selections gather nothing: the base array itself
        # comes back.
        full = TidSet({"sales": SelectionVector(n=500)})
        assert tids.selection("sales") is sel
        assert full.gather("sales", column) is column.values


# ---------------------------------------------------------------------------
# Zone maps
# ---------------------------------------------------------------------------

class TestZoneMaps:
    def test_build_matches_blockwise_loop(self):
        rng = np.random.default_rng(7)
        values = rng.integers(-50, 50, 1000).astype(np.int32)
        zone_map = build_zone_map(values, 64)
        assert zone_map.n_blocks == (1000 + 63) // 64
        for block in range(zone_map.n_blocks):
            start, stop = zone_map.block_bounds(block)
            assert zone_map.mins[block] == values[start:stop].min()
            assert zone_map.maxs[block] == values[start:stop].max()

    def test_empty_column(self):
        zone_map = build_zone_map(np.empty(0, dtype=np.int32), 64)
        assert zone_map.n_blocks == 0

    @pytest.mark.parametrize("predicate", [
        Comparison("<", ColumnRef("t", "sorted"), Literal(2500)),
        Comparison(">=", ColumnRef("t", "sorted"), Literal(9000)),
        Comparison("=", ColumnRef("t", "sorted"), Literal(123)),
        Comparison("<>", ColumnRef("t", "sorted"), Literal(123)),
        Comparison(">", Literal(2500), ColumnRef("t", "sorted")),
        Between(ColumnRef("t", "sorted"), Literal(100), Literal(900)),
        InList(ColumnRef("t", "sorted"), [5, 700, 99999]),
        Not(Comparison("<", ColumnRef("t", "sorted"), Literal(2500))),
        And([
            Comparison(">=", ColumnRef("t", "sorted"), Literal(1000)),
            Comparison("<", ColumnRef("t", "random"), Literal(40)),
        ]),
        Or([
            Comparison("<", ColumnRef("t", "sorted"), Literal(300)),
            Comparison(">", ColumnRef("t", "sorted"), Literal(9700)),
        ]),
        Comparison("<=", ColumnRef("t", "name"), Literal("m")),
        Comparison("=", ColumnRef("t", "name"), Literal("s0042")),
        InList(ColumnRef("t", "name"), ["s0001", "s0002", "zzz"]),
    ])
    def test_pruned_scan_mask_identical(self, predicate):
        db = Database("zones")
        table = db.create_table("t", nominal_rows=10_000)
        table.add_column("sorted", ColumnType.INT32, np.arange(10_000))
        rng = np.random.default_rng(11)
        table.add_column("random", ColumnType.INT32,
                         rng.integers(0, 100, 10_000))
        table.add_string_column(
            "name", ["s{:04d}".format(i % 300) for i in range(10_000)]
        )
        cache = kernels.KernelCache(block_rows=128)
        expected = np.asarray(predicate.evaluate(Frame(db)), dtype=bool)
        mask = kernels.scan_mask(db, "t", predicate, cache)
        if mask is not None:
            assert np.array_equal(mask, expected)

    def test_clustered_scan_skips_blocks(self):
        db = Database("zones")
        table = db.create_table("t", nominal_rows=10_000)
        table.add_column("sorted", ColumnType.INT32, np.arange(10_000))
        cache = kernels.KernelCache(block_rows=128)
        predicate = Comparison("<", ColumnRef("t", "sorted"), Literal(1000))
        masks = []
        deltas = stat_deltas(
            lambda: masks.append(kernels.scan_mask(db, "t", predicate,
                                                   cache)))
        assert masks[0] is not None
        assert deltas["scans_pruned"] == 1
        assert deltas["blocks_skipped"] > 0
        assert deltas["blocks_short_circuited"] > 0

    def test_unclustered_predicate_declines(self):
        db = Database("zones")
        table = db.create_table("t", nominal_rows=10_000)
        rng = np.random.default_rng(3)
        table.add_column("random", ColumnType.INT32,
                         rng.integers(0, 100, 10_000))
        cache = kernels.KernelCache(block_rows=128)
        predicate = Comparison("<", ColumnRef("t", "random"), Literal(50))
        # Every block straddles the bound: pruning must decline rather
        # than pay per-block evaluation.
        assert kernels.scan_mask(db, "t", predicate, cache) is None


# ---------------------------------------------------------------------------
# Cached join indexes
# ---------------------------------------------------------------------------

def _join_plan(database):
    scan = ScanSelect("sales")
    dim = ScanSelect(
        "store", Comparison("<", ColumnRef("store", "size"), Literal(120))
    )
    join = HashJoin(scan, dim, ColumnRef("sales", "skey"),
                    ColumnRef("store", "id"))
    root = Materialize(join, [
        ("amount", ColumnRef("sales", "amount")),
        ("size", ColumnRef("store", "size")),
        ("region", ColumnRef("store", "region")),
    ])
    return PhysicalPlan(root, name="join")


JOIN_SQL = ("select sales.amount, store.size, store.region from sales, "
            "store where sales.skey = store.id and store.size < 120")


class TestCachedJoinIndexes:
    def _rows(self, database):
        plan_cache.invalidate(database)
        return execute_functional(_join_plan(database),
                                  database).payload.row_tuples()

    def test_filtered_dense_build_matches_seed(self, toy_db):
        rows = []
        deltas = stat_deltas(lambda: rows.extend(self._rows(toy_db)))
        assert_matches_reference(toy_db, JOIN_SQL, rows)
        # store.id is a dense ascending key: the join must have taken
        # the positional path.
        assert deltas["dense_joins"] >= 1

    def test_repeated_join_hits_cache(self, toy_db):
        self._rows(toy_db)
        deltas = stat_deltas(lambda: self._rows(toy_db))
        assert deltas["join_index_builds"] == 0
        assert deltas["join_index_hits"] >= 1

    def test_non_dense_build_matches_seed(self):
        db = Database("nd")
        rng = np.random.default_rng(9)
        fact = db.create_table("f", nominal_rows=4000)
        fact.add_column("k", ColumnType.INT32, rng.integers(0, 60, 4000))
        fact.add_column("v", ColumnType.INT32, rng.integers(0, 9, 4000))
        dim = db.create_table("d", nominal_rows=200)
        # Shuffled, duplicated keys: exercises the sorted-index path
        # with 1:N matches and mask filtering.
        dim.add_column("k", ColumnType.INT32, rng.integers(0, 60, 200))
        dim.add_column("w", ColumnType.INT32, rng.integers(0, 5, 200))

        def rows():
            plan_cache.invalidate(db)
            scan = ScanSelect("f")
            build = ScanSelect(
                "d", Comparison("<", ColumnRef("d", "w"), Literal(3))
            )
            join = HashJoin(scan, build, ColumnRef("f", "k"),
                            ColumnRef("d", "k"))
            root = Materialize(join, [
                ("v", ColumnRef("f", "v")),
                ("w", ColumnRef("d", "w")),
            ])
            result = execute_functional(PhysicalPlan(root, name="nd"), db)
            return result.payload.row_tuples()

        got = []
        deltas = stat_deltas(lambda: got.extend(rows()))
        assert_matches_reference(
            db, "select f.v, d.w from f, d where f.k = d.k and d.w < 3",
            got)
        assert deltas["dense_joins"] == 0
        assert deltas["join_index_builds"] >= 1

    def test_ssb_queries_match_reference_under_small_zone_blocks(
            self, ssb_db):
        """Every SSB query under small zone-map blocks (so pruning
        runs) against the reference evaluator."""
        def run():
            for name, sql in ssb.QUERIES.items():
                assert_matches_reference(
                    ssb_db, sql, run_query(ssb_db, sql, name), name)

        with zone_blocks(ssb_db, 96):
            deltas = stat_deltas(run)
        assert deltas["scans_pruned"] > 0

    def test_tpch_queries_match_reference_under_small_zone_blocks(
            self, tpch_db):
        """Every TPC-H query under small zone-map blocks against the
        reference evaluator.  (At this size every TPC-H scan has too
        many undecided blocks, so the zone maps decline to prune.)"""
        with zone_blocks(tpch_db, 96):
            for name, sql in tpch.QUERIES.items():
                assert_matches_reference(
                    tpch_db, sql, run_query(tpch_db, sql, name), name)

    def test_ssb_agrees_with_reference_under_kernels(self, ssb_db):
        name = "Q2.1"
        spec = bind(ssb.QUERIES[name], ssb_db, name=name)
        with zone_blocks(ssb_db, 96):
            plan = Planner(ssb_db).plan(spec)
            engine_rows = execute_functional(plan,
                                             ssb_db).payload.row_tuples()
        reference_rows = execute_reference(spec, ssb_db)
        assert sorted(engine_rows) == sorted(reference_rows)


# ---------------------------------------------------------------------------
# Lazy selection vectors through operator chains
# ---------------------------------------------------------------------------

class TestLazySelectionChains:
    def test_refine_chain_matches_seed(self, ssb_db):
        def run():
            plan_cache.invalidate(ssb_db)
            plan = micro.build_parallel_selection_plan(ssb_db)
            got.extend(execute_functional(plan, ssb_db).payload.row_tuples())

        got = []
        deltas = stat_deltas(run)
        assert_matches_reference(
            ssb_db, "select * from lineorder where lo_discount between 4 "
            "and 6 and lo_quantity between 26 and 35", got)
        assert deltas["masked_refines"] >= 3

    def test_tid_intersect_combines_masks(self, toy_db):
        amount = ColumnRef("sales", "amount")
        price = ColumnRef("sales", "price")

        def run():
            left = ScanSelect("sales", Comparison(">", amount, Literal(30)))
            right = ScanSelect("sales", Comparison("<", price, Literal(25)))
            intersect = TidIntersect(left, right, "sales")
            root = Materialize(intersect,
                               [("amount", amount), ("price", price)])
            plan = PhysicalPlan(root, name="and")
            got.extend(execute_functional(plan, toy_db).payload.row_tuples())

        got = []
        deltas = stat_deltas(run)
        amounts = toy_db.column("sales.amount").values
        prices = toy_db.column("sales.price").values
        keep = (amounts > 30) & (prices < 25)
        assert got == list(zip(amounts[keep].tolist(), prices[keep].tolist()))
        assert deltas["masked_intersects"] >= 1

    def test_scan_without_predicate_is_lazy(self, toy_db):
        result = ScanSelect("sales").run(toy_db, [])
        selection = result.payload.selection("sales")
        assert selection is not None and selection.is_all
        assert result.actual_rows == 500
        assert result.row_width_bytes == 0


# ---------------------------------------------------------------------------
# Invalidation
# ---------------------------------------------------------------------------

class TestInvalidation:
    def test_registry_contains_both_caches(self):
        assert "plan" in caches.registered()
        assert "kernels" in caches.registered()

    def test_compress_drops_kernel_cache(self, toy_db):
        self_rows = execute_functional(_join_plan(toy_db), toy_db)
        assert self_rows is not None
        assert kernels.cache_size(toy_db) > 0
        compress_database(toy_db)
        assert kernels.cache_size(toy_db) == 0
        assert plan_cache.cache_size(toy_db) == 0

    def test_clear_database_caches_drops_everything(self, toy_db):
        execute_functional(_join_plan(toy_db), toy_db)
        assert kernels.cache_size() > 0
        from repro.harness.experiments import clear_database_caches

        clear_database_caches()
        assert kernels.cache_size() == 0
        assert plan_cache.cache_size() == 0

    def test_results_stay_correct_after_compression(self, toy_db):
        before = execute_functional(_join_plan(toy_db),
                                    toy_db).payload.row_tuples()
        compress_database(toy_db)
        plan_cache.invalidate(toy_db)
        after = execute_functional(_join_plan(toy_db),
                                   toy_db).payload.row_tuples()
        assert before == after


# ---------------------------------------------------------------------------
# Satellite kernels: word-level bit packing, dictionary fast paths
# ---------------------------------------------------------------------------

class TestWordLevelBitPack:
    @pytest.mark.parametrize("width_span", [
        1, 2, 3, 5, 7, 8, 13, 16, 31, 33, 40, 63,
    ])
    def test_round_trip_every_width(self, width_span):
        from repro.storage.compression import BitPackCodec

        codec = BitPackCodec()
        rng = np.random.default_rng(width_span)
        values = rng.integers(0, 2 ** width_span, 999,
                              dtype=np.int64) - 12345
        # Force the width: include the span endpoints.
        values[0] = -12345
        values[1] = 2 ** width_span - 1 - 12345
        payload = codec.encode(values)
        assert payload[0].dtype == np.uint64
        decoded = codec.decode(payload, np.int64, len(values))
        assert np.array_equal(decoded, values)

    def test_no_bit_matrix_blowup(self):
        from repro.storage.compression import BitPackCodec

        codec = BitPackCodec()
        values = np.arange(100_000, dtype=np.int64)
        words, base, width = codec.encode(values)
        assert width == 17
        # Word-level layout: ~width/64 words per value (plus spill).
        assert len(words) <= 100_000 * width // 64 + 2

    def test_delta_codec_still_exact(self):
        from repro.storage.compression import DeltaBitPackCodec

        codec = DeltaBitPackCodec()
        rng = np.random.default_rng(2)
        values = np.cumsum(rng.integers(0, 7, 5000)).astype(np.int32)
        decoded = codec.decode(codec.encode(values), np.int32, len(values))
        assert np.array_equal(decoded, values)


class TestDictionaryFastPaths:
    def test_encode_uses_cached_map(self, toy_db):
        column = toy_db.column("store.region")
        assert column.encode("north") == column.dictionary.index("north")
        assert column.encode("nowhere") == -1
        assert column._code_of is not None

    def test_bounds_cached_and_correct(self, toy_db):
        import bisect

        column = toy_db.column("store.region")
        for probe in ("east", "m", "aaa", "zzz"):
            assert column.encode_lower_bound(probe) == bisect.bisect_left(
                column.dictionary, probe
            )
            assert column.encode_upper_bound(probe) == (
                bisect.bisect_right(column.dictionary, probe) - 1
            )
        # Second lookup comes from the memo.
        assert ("m", False) in column._bound_cache

    def test_decode_vectorised_keeps_list_of_str(self, toy_db):
        column = toy_db.column("store.region")
        decoded = column.decode(column.values[:5])
        assert isinstance(decoded, list)
        assert all(isinstance(s, str) for s in decoded)
        assert decoded == [column.dictionary[int(c)]
                           for c in column.values[:5]]
        assert column.decode([]) == []
        assert column.decode(int(column.values[0])) == decoded[0]

    def test_result_frame_decoded_matches_loop(self, toy_db):
        from repro.engine.intermediates import ResultFrame

        frame = ResultFrame(
            {"region": toy_db.column("store.region").values.copy()},
            {"region": toy_db.column("store.region").dictionary},
        )
        expected = [frame.dictionaries["region"][int(c)]
                    for c in frame.columns["region"]]
        assert frame.decoded("region") == expected
        assert all(isinstance(s, str) for s in frame.decoded("region"))
