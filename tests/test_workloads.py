"""Tests for TPC-H-lite generation and the paper workload mixes."""

import zlib

import numpy as np
import pytest

from repro import DatabaseServer
from repro.workloads import (TPCHConfig, WorkloadMix, mixed_paper_workload,
                             register_order_procedures,
                             short_select_workload)
from repro.workloads.generator import join_query, lineitem_key_sample
from repro.workloads.tpch import (create_tpch_schema, load_tpch, round2,
                                  setup_tpch, uniform)


class TestTPCHGeneration:
    def test_row_counts_match_config(self, tpch_server, tiny_tpch_config):
        counts = tpch_server.tpch_counts
        assert counts["orders"] == tiny_tpch_config.orders_rows
        assert counts["part"] == tiny_tpch_config.part_rows
        assert counts["customer"] == tiny_tpch_config.customer_rows
        assert counts["lineitem"] == tiny_tpch_config.lineitem_rows

    def test_deterministic_generation(self, tiny_tpch_config):
        s1 = DatabaseServer()
        s2 = DatabaseServer()
        setup_tpch(s1, tiny_tpch_config)
        setup_tpch(s2, tiny_tpch_config)
        rows1 = [r for __, r in s1.table("lineitem").scan()]
        rows2 = [r for __, r in s2.table("lineitem").scan()]
        assert rows1 == rows2

    def test_lineitem_pk_unique(self, tpch_server):
        table = tpch_server.table("lineitem")
        keys = {(r[0], r[1]) for __, r in table.scan()}
        assert len(keys) == table.row_count

    def test_foreign_keys_resolve(self, tpch_server):
        session = tpch_server.create_session()
        orphans = session.execute(
            "SELECT COUNT(*) FROM lineitem l "
            "LEFT JOIN orders o ON l.l_orderkey = o.o_orderkey "
            "WHERE o.o_orderkey IS NULL"
        )
        assert orphans.rows == [(0,)]

    def test_scaled_config(self):
        config = TPCHConfig().scaled(0.5)
        assert config.lineitem_rows == 30_000
        assert config.seed == TPCHConfig().seed

    def test_indexes_created(self, tpch_server):
        lineitem = tpch_server.table("lineitem")
        assert "pk_lineitem" in lineitem.indexes
        assert "ix_lineitem_partkey" in lineitem.indexes


class TestTPCHGolden:
    """The generated data is pinned bit for bit: a CRC32 over each
    table's rows in rowid order (``repr`` shows every float exactly)."""

    GOLDEN = {
        0.2: {"customer": 0x1a07c9a9, "orders": 0x9ea96a6d,
              "part": 0x2d952663, "lineitem": 0xfddcfc91},
        1.0: {"customer": 0xe2c4bace, "orders": 0xc89a33aa,
              "part": 0xa13a6979, "lineitem": 0x78bb9216},
    }

    @pytest.mark.parametrize("scale", sorted(GOLDEN))
    def test_rows_match_golden_crc32(self, scale):
        server = DatabaseServer()
        setup_tpch(server, TPCHConfig().scaled(scale))
        digests = {
            name: zlib.crc32(repr(
                [row for __, row in server.table(name).scan()]).encode())
            for name in self.GOLDEN[scale]}
        assert digests == self.GOLDEN[scale]

    def test_round2_is_numpy_round(self):
        rng = np.random.default_rng(5)
        values = list(rng.uniform(-1e5, 1e5, 5000)) + list(
            rng.uniform(-1.0, 1.0, 5000))
        # round-half ties, negatives, and values that round to -0.0
        values += [k / 1000 for k in range(-3005, 3006, 10)]
        values += [2.675, 1.005, 0.125, -0.125, 0.005, -0.005, -0.004,
                   -0.0049999, -1e-300, -0.0, 0.0, 1e15 + 0.125]
        for value in map(float, values):
            assert round2(value).hex() == float(np.round(value, 2)).hex(), \
                value

    def test_uniform_is_numpy_uniform(self):
        ours, theirs = np.random.default_rng(9), np.random.default_rng(9)
        bounds = [(-999.99, 9999.99), (850.0, 500_000.0), (0.0, 2.4e6),
                  (900.0, 105_000.0), (0.0, 0.10), (-5.0, -1.0)]
        for i in range(3000):
            low, high = bounds[i % len(bounds)]
            assert uniform(ours, low, high).hex() == \
                float(theirs.uniform(low, high)).hex()
            # interleaved integer draws stay in step too
            assert int(ours.integers(1, 51)) == int(theirs.integers(1, 51))


class TestWorkloadMixes:
    def test_short_workload_statement_count(self, tpch_server):
        keys = lineitem_key_sample(tpch_server, 50)
        statements = short_select_workload(
            100, orders_rows=tpch_server.tpch_counts["orders"],
            lineitem_keys=keys)
        assert len(statements) == 100

    def test_short_workload_deterministic(self, tpch_server):
        keys = lineitem_key_sample(tpch_server, 50)
        a = short_select_workload(
            50, orders_rows=100, lineitem_keys=keys, seed=3)
        b = short_select_workload(
            50, orders_rows=100, lineitem_keys=keys, seed=3)
        assert [s.sql for s in a] == [s.sql for s in b]

    def test_short_queries_are_single_row(self, tpch_server):
        keys = lineitem_key_sample(tpch_server, 20)
        statements = short_select_workload(
            20, orders_rows=tpch_server.tpch_counts["orders"],
            lineitem_keys=keys, distinct_templates=20)
        session = tpch_server.create_session()
        for statement in statements[:10]:
            result = session.execute(statement.sql)
            assert len(result.rows) <= 1

    def test_mixed_workload_interleaves_joins(self, tpch_server):
        counts = tpch_server.tpch_counts
        keys = lineitem_key_sample(tpch_server, 20)
        mix = WorkloadMix(short_queries=50, join_queries=5,
                          join_rows_low=20, join_rows_high=40)
        statements = mixed_paper_workload(
            mix, orders_rows=counts["orders"],
            lineitem_rows=counts["lineitem"], lineitem_keys=keys)
        assert len(statements) == 55
        joins = [i for i, s in enumerate(statements) if "JOIN" in s.sql]
        assert len(joins) == 5
        assert joins[0] > 0 and joins[-1] < len(statements) - 1

    def test_join_query_returns_requested_magnitude(self, tpch_server):
        counts = tpch_server.tpch_counts
        keys = lineitem_key_sample(tpch_server, 20)
        mix = WorkloadMix(short_queries=5, join_queries=2,
                          join_rows_low=30, join_rows_high=60)
        statements = mixed_paper_workload(
            mix, orders_rows=counts["orders"],
            lineitem_rows=counts["lineitem"], lineitem_keys=keys)
        session = tpch_server.create_session()
        for statement in statements:
            if "JOIN" not in statement.sql:
                continue
            rows = session.execute(statement.sql).rows
            assert 5 <= len(rows) <= 200  # right order of magnitude

    def test_workload_scaling(self):
        mix = WorkloadMix().scaled(0.01)
        assert mix.short_queries == 200
        assert mix.join_queries == 1


class TestProcedures:
    def test_registration(self, tpch_server):
        names = register_order_procedures(tpch_server)
        assert "get_order" in names
        for name in names:
            assert tpch_server.catalog.has_procedure(name)

    def test_get_order_lookup(self, tpch_server):
        register_order_procedures(tpch_server)
        session = tpch_server.create_session()
        result = session.execute("EXEC get_order @okey = 1")
        assert len(result.rows) == 1

    def test_order_report_code_paths(self, tpch_server):
        register_order_procedures(tpch_server)
        session = tpch_server.create_session()
        detail = session.execute("EXEC order_report @okey = 1, @detail = 1")
        summary = session.execute("EXEC order_report @okey = 1, @detail = 0")
        assert detail.ok and summary.ok
        # the summary path returns one aggregate row
        assert len(summary.rows) == 1

    def test_slow_scan_is_slower_than_point_lookup(self, tpch_server):
        register_order_procedures(tpch_server)
        session = tpch_server.create_session()
        fast = session.execute("EXEC get_order @okey = 5")
        slow = session.execute("EXEC slow_scan @minprice = 0.0")
        assert slow.query.duration_at(tpch_server.clock.now) > \
            fast.query.duration_at(tpch_server.clock.now)
