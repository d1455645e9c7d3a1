"""Scaled-down TPC-H-like schema and deterministic data generation.

The paper's experiments run on the TPC-H schema with 6 million lineitem
rows; a laptop-scale reproduction keeps the same shape (lineitem ≫ orders ≫
part/customer, clustered keys, skewless uniform values) at a configurable
scale.  All randomness flows from one seeded numpy generator, so two loads
with the same config are byte-identical.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from repro.engine.catalog import ColumnDef, IndexDef, TableSchema
from repro.engine.types import SQLType

_SEGMENTS = ("AUTOMOBILE", "BUILDING", "FURNITURE", "HOUSEHOLD", "MACHINERY")
_STATUSES = ("F", "O", "P")


def round2(value: float) -> float:
    """``float(np.round(value, 2))`` for a finite float, without numpy.

    numpy computes ``rint(value * 100) / 100``; ``round`` is the same
    round-half-even, and ``copysign`` keeps the ``-0.0`` that ``rint``
    keeps for small negatives.
    """
    return math.copysign(round(value * 100.0) / 100.0, value)


def uniform(rng: np.random.Generator, low: float, high: float) -> float:
    """``float(rng.uniform(low, high))`` without the numpy call.

    This is numpy's own formula, drawing one double from the stream.
    """
    return low + (high - low) * rng.random()


@dataclass(frozen=True)
class TPCHConfig:
    """Scale knobs. Defaults are 1/100 of the paper's data (6M → 60k)."""

    lineitem_rows: int = 60_000
    orders_rows: int = 15_000
    part_rows: int = 2_000
    customer_rows: int = 1_500
    lines_per_order_max: int = 7
    seed: int = 42

    def scaled(self, factor: float) -> "TPCHConfig":
        """A proportionally smaller/larger config (keeps the seed)."""
        return TPCHConfig(
            lineitem_rows=max(10, int(self.lineitem_rows * factor)),
            orders_rows=max(5, int(self.orders_rows * factor)),
            part_rows=max(5, int(self.part_rows * factor)),
            customer_rows=max(5, int(self.customer_rows * factor)),
            lines_per_order_max=self.lines_per_order_max,
            seed=self.seed,
        )


def create_tpch_schema(server) -> None:
    """Create the four tables and their indexes."""
    server.create_table(TableSchema("customer", [
        ColumnDef("c_custkey", SQLType.INTEGER, nullable=False),
        ColumnDef("c_name", SQLType.STRING),
        ColumnDef("c_mktsegment", SQLType.STRING),
        ColumnDef("c_acctbal", SQLType.FLOAT),
    ], primary_key=["c_custkey"]))

    server.create_table(TableSchema("orders", [
        ColumnDef("o_orderkey", SQLType.INTEGER, nullable=False),
        ColumnDef("o_custkey", SQLType.INTEGER),
        ColumnDef("o_orderstatus", SQLType.STRING),
        ColumnDef("o_totalprice", SQLType.FLOAT),
        ColumnDef("o_orderdate", SQLType.DATETIME),
    ], primary_key=["o_orderkey"]))
    server.create_index(IndexDef("ix_orders_custkey", "orders",
                                 ("o_custkey",)))

    server.create_table(TableSchema("part", [
        ColumnDef("p_partkey", SQLType.INTEGER, nullable=False),
        ColumnDef("p_name", SQLType.STRING),
        ColumnDef("p_retailprice", SQLType.FLOAT),
    ], primary_key=["p_partkey"]))

    server.create_table(TableSchema("lineitem", [
        ColumnDef("l_orderkey", SQLType.INTEGER, nullable=False),
        ColumnDef("l_linenumber", SQLType.INTEGER, nullable=False),
        ColumnDef("l_partkey", SQLType.INTEGER),
        ColumnDef("l_quantity", SQLType.FLOAT),
        ColumnDef("l_extendedprice", SQLType.FLOAT),
        ColumnDef("l_discount", SQLType.FLOAT),
        ColumnDef("l_shipdate", SQLType.DATETIME),
    ], primary_key=["l_orderkey", "l_linenumber"]))
    server.create_index(IndexDef("ix_lineitem_partkey", "lineitem",
                                 ("l_partkey",)))


def load_tpch(server, config: TPCHConfig | None = None) -> dict[str, int]:
    """Generate and bulk-load data; returns per-table row counts."""
    config = config or TPCHConfig()
    rng = np.random.default_rng(config.seed)

    customers = []
    for key in range(1, config.customer_rows + 1):
        customers.append([
            key,
            f"Customer#{key:09d}",
            _SEGMENTS[int(rng.integers(len(_SEGMENTS)))],
            round2(uniform(rng, -999.99, 9999.99)),
        ])
    server.bulk_load("customer", customers)

    orders = []
    for key in range(1, config.orders_rows + 1):
        orders.append([
            key,
            int(rng.integers(1, config.customer_rows + 1)),
            _STATUSES[int(rng.integers(len(_STATUSES)))],
            round2(uniform(rng, 850.0, 500_000.0)),
            uniform(rng, 0.0, 2.4e6),  # order date as virtual seconds
        ])
    server.bulk_load("orders", orders)

    parts = []
    for key in range(1, config.part_rows + 1):
        parts.append([
            key,
            f"part {key} burnished steel",
            round2(900.0 + (key % 1000) + key / 10.0),
        ])
    server.bulk_load("part", parts)

    lineitems = []
    order_key = 1
    line_number = 1
    for __ in range(config.lineitem_rows):
        lineitems.append([
            order_key,
            line_number,
            int(rng.integers(1, config.part_rows + 1)),
            float(rng.integers(1, 51)),
            round2(uniform(rng, 900.0, 105_000.0)),
            round2(uniform(rng, 0.0, 0.10)),
            uniform(rng, 0.0, 2.4e6),
        ])
        line_number += 1
        if line_number > config.lines_per_order_max or \
                rng.random() < 0.25:
            order_key = order_key % config.orders_rows + 1 \
                if order_key >= config.orders_rows else order_key + 1
            line_number = 1
    # ensure PK uniqueness even after the key wraps: deduplicate
    seen: set[tuple[int, int]] = set()
    unique_rows = []
    for row in lineitems:
        key = (row[0], row[1])
        while key in seen:
            row[1] += config.lines_per_order_max
            key = (row[0], row[1])
        seen.add(key)
        unique_rows.append(row)
    server.bulk_load("lineitem", unique_rows)

    return {
        "customer": len(customers),
        "orders": len(orders),
        "part": len(parts),
        "lineitem": len(unique_rows),
    }


def setup_tpch(server, config: TPCHConfig | None = None) -> dict[str, int]:
    """Create schema and load data in one call."""
    create_tpch_schema(server)
    return load_tpch(server, config)
