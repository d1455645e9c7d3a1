"""The benchmark's four workloads, each built only through the public API.

A workload is a *rig*.  Constructing it is the set-up (TPC-H load, rule,
LAT and stream install, trace recording, service start) from inputs the
seed generates; ``run()`` is the closed loop the runner times from
outside; ``check()`` is the workload's independent oracle.  ``service_ops``, the
one workload with a durability directory, also times
``DurabilityManager.recover`` on it (``recover()``) and checks the
recovered state digest against the live one.

Why these four (see also BENCHMARK.json):

* ``rule_storm`` -- the paper's Figure 2 shape: the engine does almost
  nothing and dispatch, probes, conditions and LAT eviction do the rest.
* ``topk_mixed`` -- the Figure 3 shape: parser, planner, executor and
  joins do the work and the monitor almost none, so monitor-side changes
  must read as flat here.
* ``service_ops`` -- the deployed shape (``python -m repro serve
  --durable DIR``): obs, governor, journal, checkpoints, streams,
  incidents and the TCP service tier all run.
* ``shard_replay`` -- a recorded event trace replayed through
  ``ShardedSQLCM``: monitor only, no engine in the loop.
"""

from __future__ import annotations

import gc
import os
import shutil
import statistics
import tempfile
import threading
import time
import zlib
from collections import deque

import numpy as np

from repro import (SQLCM, DatabaseServer, EventTrace, GovernorPolicy,
                   IncidentPolicy, InsertAction, LATDefinition,
                   MonitorService, Rule, ServerConfig, ServiceClient,
                   ServiceConfig, ServiceRunner, ShardedSQLCM,
                   ThreadShardExecutor)
from repro.apps import TopKTracker
from repro.apps.auto_remediation import AutoRemediator
from repro.core.durability import DurabilityManager
from repro.errors import ServiceError
from repro.monitoring import top_k_ground_truth
from repro.workloads.generator import join_query, lineitem_key_sample
from repro.workloads.tpch import TPCHConfig, setup_tpch

#: 12k lineitem rows, the scale the repo's other benches use
TPCH = TPCHConfig().scaled(0.2)

#: service clients and shards: one per core, at most two
WORKERS = max(1, min(2, os.cpu_count() or 1))

#: recoveries timed per run: at least 3, and more (up to 5000) while
#: less than RECOVERY_BUDGET_S has passed.  recovery_s is their mean: the
#: machine's speed shifts between levels every few seconds, and a mean
#: over seconds of repetitions averages the levels where a median of
#: them would jump from one level to the other
RECOVERIES = (3, 5000)
RECOVERY_BUDGET_S = 2.0


def _tpch_server(track_completed: bool) -> tuple[DatabaseServer, dict]:
    server = DatabaseServer(ServerConfig(
        track_completed_queries=track_completed))
    return server, setup_tpch(server, TPCH)


def _point_selects(server, rng, n: int) -> list[str]:
    """``n`` distinct clustered-index point selects on lineitem."""
    keys = lineitem_key_sample(server, max(400, n),
                               seed=int(rng.integers(1 << 30)))
    picks = rng.choice(len(keys), size=n, replace=False)
    return ["SELECT l_extendedprice, l_quantity FROM lineitem "
            f"WHERE l_orderkey = {keys[i][0]} "
            f"AND l_linenumber = {keys[i][1]}" for i in picks]


def time_recoveries(directory: str, live_digest: int, now: float,
                    setup=None) -> tuple[float, bool]:
    """Recover from ``directory`` repeatedly; returns (mean wall
    seconds, every recovered digest equalled ``live_digest``).  The
    collector is off inside each timed recovery, so a collection the
    previous one left due does not land in the next one's time."""
    least, most = RECOVERIES
    walls: list[float] = []
    ok = True
    gc.collect()
    began = time.perf_counter()
    while len(walls) < least or (
            time.perf_counter() - began < RECOVERY_BUDGET_S
            and len(walls) < most):
        gc.disable()
        try:
            start = time.perf_counter()
            report = DurabilityManager.recover(directory, setup=setup)
            walls.append(time.perf_counter() - start)
        finally:
            gc.enable()
        report.sqlcm.server.clock.advance_to(now)
        ok = ok and report.sqlcm.state_digest() == live_digest
    return statistics.fmean(walls), ok


class Rig:
    """Common surface; subclasses fill in the workload."""

    name = ""
    #: operations in one traced phase (fixed, so counts repeat exactly)
    traced_ops = 0
    def __init__(self, seed: int, workdir: str):
        self.seed = seed
        self.workdir = workdir
        self.rng = np.random.default_rng(seed)
        #: everything generated from the seed that the program is fed
        self.inputs: list = []
        #: index of the next operation; the timed loop continues where
        #: the warm-up stopped
        self.next_op = 0

    def inputs_digest(self) -> int:
        """CRC32 of the generated inputs (a new seed must change it)."""
        return zlib.crc32(repr(self.inputs).encode())

    def warmup(self) -> None:
        """Fill plan caches and LATs before timing."""

    def op(self, i: int) -> tuple[int, int]:
        """Operation ``i``; returns (operations done, operations failed)."""
        raise NotImplementedError

    def run(self, ops: int | None = None, deadline: float | None = None,
            samples: list | None = None, hook=None) -> tuple[int, int]:
        """The closed loop: one operation after another until ``ops`` are
        done or the wall ``deadline`` passes.  ``hook(fn, *args)`` calls
        each operation (the traced run wraps it in a span); each operation
        appends (end time, latency, units) to ``samples``, in seconds.
        Returns (operations attempted, failed)."""
        call = hook or (lambda fn, *args: fn(*args))
        attempted = failed = 0
        while ops is None or attempted < ops:
            start = time.perf_counter()
            if deadline is not None and start >= deadline:
                break
            units, bad = call(self.op, self.next_op)
            if samples is not None:
                end = time.perf_counter()
                samples.append((end, end - start, units))
            attempted += units
            failed += bad
            self.next_op += 1
        return attempted, failed

    def check(self) -> list[str]:
        """Oracle failures (empty when every answer is right)."""
        return []

    def recover(self) -> tuple[float, bool] | None:
        """Time DurabilityManager.recover on the rig's state on disk;
        returns (mean wall seconds, recovered digest == live digest), or
        None for a workload that keeps no durable state."""
        return None

    def monitors(self) -> list:
        """Every live SQLCM instance (shards included) of the rig."""
        return [self.sqlcm]

    def rule_counters(self) -> tuple[int, int]:
        """Cumulative (rule evaluations, rule firings)."""
        evals = sum(rule.evaluation_count for monitor in self.monitors()
                    for rule in monitor.rules.values())
        return evals, sum(monitor.rule_firings for monitor in self.monitors())

    def virtual(self) -> tuple[float, float]:
        """Cumulative virtual (engine seconds, monitor cost seconds)."""
        cost = self.server.monitor_cost_total
        return self.server.clock.now - cost, cost

    def journals(self) -> list:
        """Open durability journals (only the service keeps one)."""
        return []

    def service_counters(self) -> tuple[int, int]:
        """Cumulative (requests queued, requests shed) of the service."""
        return 0, 0

    def close(self) -> None:
        """Release sockets, threads and files."""


class RuleStorm(Rig):
    """300 rules x 5 conditions on every Query.Commit, each into its own
    10-row LAT keyed by Query.ID, newest first, so every insert evicts."""

    name = "rule_storm"
    traced_ops = 60
    RULES = 300
    CONDITIONS = 5
    POOL = 50

    def __init__(self, seed: int, workdir: str):
        super().__init__(seed, workdir)
        self.server, __ = _tpch_server(track_completed=False)
        self.sqlcm = SQLCM(self.server)
        condition = " AND ".join(f"Query.Duration >= {-float(j)}"
                                 for j in range(self.CONDITIONS))
        for i in range(self.RULES):
            self.sqlcm.create_lat(LATDefinition(
                name=f"Storm_LAT_{i}",
                monitored_class="Query",
                grouping=["Query.ID AS Qid"],
                aggregations=[
                    "LAST(Query.Query_Text) AS Text",
                    "LAST(Query.Duration) AS Duration",
                    "LAST(Query.Estimated_Cost) AS Cost",
                    "LAST(Query.Query_Type) AS Qtype",
                ],
                ordering=["Qid DESC"],
                max_rows=10,
            ))
            self.sqlcm.add_rule(Rule(
                name=f"storm_rule_{i}", event="Query.Commit",
                condition=condition,
                actions=[InsertAction(f"Storm_LAT_{i}")]))
        self.statements = self.inputs = _point_selects(
            self.server, self.rng, self.POOL)
        self.session = self.server.create_session(application="storm")
        self.commits = 0
        self.recent: deque[int] = deque(maxlen=10)

    def warmup(self) -> None:
        self.run(ops=self.POOL)

    def op(self, i: int) -> tuple[int, int]:
        result = self.session.execute(self.statements[i % self.POOL])
        if result.error:
            return 1, 1
        self.commits += 1
        self.recent.append(result.query.query_id)
        return 1, 0

    def check(self) -> list[str]:
        failures = []
        expected = self.RULES * self.commits
        if self.sqlcm.rule_firings != expected:
            failures.append(f"firings {self.sqlcm.rule_firings} != "
                            f"rules x commits {expected}")
        last = sorted(self.recent, reverse=True)
        for lat in self.sqlcm.lats():
            held = [row["Qid"] for row in lat.rows()]
            if held != last:
                failures.append(f"{lat.definition.name} holds {held[:3]}..."
                                f" not the last 10 query ids")
                break
        return failures


class TopKMixed(Rig):
    """Short selects and range joins 250:1, completed-query tracking on,
    one TopKTracker (1 rule, k=10 LAT), signatures on.

    One short select in four comes from HOT texts that stay in the plan
    cache; the other three cycle through COLD texts, more than the plan
    cache holds, so under its LRU order each one has been evicted before
    it comes round again and is parsed, planned and signed every time.
    The warm-up runs one full cycle of joins (which also covers every
    hot text), so from then on every operation -- timed or traced --
    sees the same steady mix: three shorts in four compile, the other
    shorts and the joins hit the plan cache.  The median statement is a
    compiled lineitem select, well inside that population.  The engine
    side (parser, planner, plan cache, executor, signatures) does the
    work; the monitor almost none."""

    name = "topk_mixed"
    traced_ops = 1004
    SHORTS = 250
    JOINS = 4
    K = 10
    #: hot texts recur every 4 * HOT shorts, well within the plan cache
    HOT = 100
    #: more than the default plan cache holds (2048 plans)
    COLD = 2200

    def __init__(self, seed: int, workdir: str):
        super().__init__(seed, workdir)
        self.server, counts = _tpch_server(track_completed=True)
        if self.COLD <= self.server.config.plan_cache_entries:
            raise ValueError("COLD texts must outnumber the plan cache")
        self.sqlcm = SQLCM(self.server)
        self.sqlcm.enable_signatures()
        self.tracker = TopKTracker(self.sqlcm, k=self.K)
        # lineitem and orders selects 9:1, so the median statement is
        # well inside one population, not on the border of two
        texts = self.HOT + self.COLD
        shorts = _point_selects(self.server, self.rng, texts * 9 // 10)
        order_keys = self.rng.choice(counts["orders"],
                                     size=texts - len(shorts),
                                     replace=False) + 1
        shorts += ["SELECT o_totalprice, o_orderstatus FROM orders "
                   f"WHERE o_orderkey = {int(k)}" for k in order_keys]
        self.rng.shuffle(shorts)
        # every join spans the same number of orders (~1500 lineitem
        # rows, the paper's 1000-2000); the seed moves only its position,
        # so a new seed changes the inputs but not the work
        span = int(1500 * counts["orders"] / counts["lineitem"])
        joins = []
        for __ in range(self.JOINS):
            low = int(self.rng.integers(1, counts["orders"] - span))
            joins.append(join_query(low, low + span - 1))
        self.hot = shorts[:self.HOT]
        self.cold = shorts[self.HOT:]
        self.joins = joins
        self.inputs = shorts + joins
        self.session = self.server.create_session(application="topk")

    def statement(self, i: int) -> str:
        cycle, slot = divmod(i, self.SHORTS + 1)
        if slot == self.SHORTS:
            return self.joins[cycle % self.JOINS]
        group, slot = divmod(i - cycle, 4)
        if slot:
            return self.cold[(3 * group + slot - 1) % self.COLD]
        return self.hot[group % self.HOT]

    def warmup(self) -> None:
        self.run(ops=self.JOINS * (self.SHORTS + 1))

    def op(self, i: int) -> tuple[int, int]:
        result = self.session.execute(self.statement(i))
        return 1, 1 if result.error else 0

    def check(self) -> list[str]:
        truth = top_k_ground_truth(self.server, self.K)
        answer = self.tracker.top_k()
        by_id = {q.query_id: q for q in self.server.completed_queries}
        now = self.server.clock.now
        failures = []
        if [row[2] for row in answer] != [row[2] for row in truth]:
            failures.append("top-k durations differ from ground truth")
        for qid, text, duration in answer:
            query = by_id.get(qid)
            if query is None or query.text != text \
                    or query.duration_at(now) != duration:
                failures.append(f"top-k row for query {qid} is wrong")
                break
        return failures


class ServiceOps(Rig):
    """MonitorService on ServiceRunner with a durability directory, obs,
    governor, 10 sliding-window streams, AutoRemediator and 50 rules that
    look up an unbounded per-signature LAT.  CLIENTS client connections
    run a closed loop of 80% point selects and 20% single-row updates,
    with a seeded think time of 0-2 ms between a reply and the next
    request."""

    name = "service_ops"
    traced_ops = 600
    #: client connections, each on its own thread
    CLIENTS = WORKERS
    WATCH_RULES = 50
    STREAMS = 10
    #: requests per client pool; warm-up runs every one of them once, so
    #: the timed loop starts with every plan cached
    POOL = 100
    #: longest think time between a reply and the client's next request
    THINK_S = 0.002
    #: requests journaled after the restart, before the timed recovery
    TAIL = 100
    #: virtual seconds between periodic checkpoints (a few per run)
    CHECKPOINT_INTERVAL = 5.0
    #: the envelope is set far above this load so the ladder stays NORMAL
    #: and no request is ever queued or shed; the governor still admits,
    #: observes and notes every evaluation
    GOVERNOR = GovernorPolicy(target_overhead=0.9, exit_overhead=0.5)
    REMEDIATOR = dict(sweep_interval=0.5, block_wait_threshold=5.0,
                      cancel_blockers=False)
    INCIDENTS = IncidentPolicy(sweep_interval=0.5, clear_after=2.0,
                               escalation_timeout=1e9)

    def __init__(self, seed: int, workdir: str):
        super().__init__(seed, workdir)
        self.server, counts = _tpch_server(track_completed=True)
        self.requests = self.inputs = self._generate(counts["orders"])
        self.initial = self._read_prices()
        self.server.enable_observability()
        self.sqlcm = SQLCM(self.server)
        self.sqlcm.enable_governor(self.GOVERNOR)
        self._install(self.sqlcm)
        self.directory = tempfile.mkdtemp(prefix="service-", dir=workdir)
        self.service = MonitorService(
            self.server, self.sqlcm,
            ServiceConfig(checkpoint_interval=self.CHECKPOINT_INTERVAL),
            durable_dir=self.directory)
        self.service.recovery_setup = self._remediator
        self.runner = ServiceRunner(self.service)
        self.runner.start()
        self.clients = [ServiceClient("127.0.0.1", self.service.port,
                                      user=f"bench{c}", timeout=60.0)
                        for c in range(self.CLIENTS)]
        # per client, so each thread writes only its own slot
        self.updates: list[dict[int, int]] = [{} for __ in range(self.CLIENTS)]
        self.unanswered = [0] * self.CLIENTS

    def _generate(self, orders: int) -> list[list[tuple[str, int, float]]]:
        """Per-client pools of (kind, order key, think seconds).

        Client c owns the order keys equal to c modulo CLIENTS, so updates
        of two clients never share a row.  After each reply a client
        thinks for up to THINK_S before its next request: without it the
        two clients lock into one of two phases against the service's
        pump (replies in the same pump pass or in alternate ones), and
        throughput jumps by a third between runs depending on which."""
        pools = []
        for c in range(self.CLIENTS):
            keys = self.rng.integers(0, orders // self.CLIENTS, size=self.POOL)
            kinds = self.rng.random(self.POOL) < 0.2
            thinks = self.rng.uniform(0.0, self.THINK_S, size=self.POOL)
            pools.append([("update" if is_update else "select",
                           int(k) * self.CLIENTS + c + 1, float(think))
                          for k, is_update, think
                          in zip(keys, kinds, thinks)])
        return pools

    def _remediator(self, sqlcm) -> None:
        AutoRemediator(sqlcm, policy=self.INCIDENTS, **self.REMEDIATOR)

    def _install(self, sqlcm) -> None:
        sqlcm.create_lat(LATDefinition(
            name="Sig_Profile", monitored_class="Query",
            grouping=["Query.Logical_Signature AS Sig"],
            aggregations=["AVG(Query.Duration) AS Avg_D",
                          "COUNT(Query.ID) AS N"]))
        sqlcm.add_rule(Rule(name="profile", event="Query.Commit",
                            actions=[InsertAction("Sig_Profile")]))
        for i in range(5):
            sqlcm.create_lat(LATDefinition(
                name=f"Watch_LAT_{i}", monitored_class="Query",
                grouping=["Query.Logical_Signature AS Sig"],
                aggregations=["COUNT(Query.ID) AS N",
                              "MAX(Query.Duration) AS Max_D"]))
        for i in range(self.WATCH_RULES):
            factor = 0.5 + 0.05 * i
            sqlcm.add_rule(Rule(
                name=f"watch_{i}", event="Query.Commit",
                condition=(f"Sig_Profile.N >= 2 AND "
                           f"Query.Duration >= Sig_Profile.Avg_D * "
                           f"{factor:.2f}"),
                actions=[InsertAction(f"Watch_LAT_{i % 5}")]))
        streams = sqlcm.stream_engine()
        groupers = ["Query.User AS G", "Query.Query_Type AS G",
                    "Query.Application AS G"]
        for i in range(self.STREAMS):
            streams.register(
                f"STREAM svc_{i} FROM Query.Commit "
                f"WHERE Query.Duration >= 0 "
                f"GROUP BY {groupers[i % len(groupers)]} "
                f"WINDOW SLIDING({2.0 + i:g}, 1) "
                f"AGG AVG(Query.Duration) AS Avg_D, COUNT(*) AS N "
                f"HAVING Window.Avg_D > 3600")
        self._remediator(sqlcm)

    def _sql(self, client, kind: str, key: int) -> dict:
        if kind == "update":
            return client.sql("UPDATE orders SET o_totalprice = "
                              f"o_totalprice + 1 WHERE o_orderkey = {key}")
        return client.sql("SELECT o_totalprice, o_orderstatus FROM orders "
                          f"WHERE o_orderkey = {key}")

    def _read_prices(self) -> dict[int, float]:
        keys = {key for requests in self.requests
                for __, key, __ in requests}
        session = self.server.create_session(application="oracle")
        prices = {}
        try:
            for key in sorted(keys):
                rows = session.execute(
                    "SELECT o_totalprice FROM orders "
                    f"WHERE o_orderkey = {key}").rows
                prices[key] = rows[0][0]
        finally:
            self.server.close_session(session)
        return prices

    def request(self, c: int, i: int) -> tuple[int, int]:
        """Client ``c``'s request ``i``; returns (1, failed)."""
        kind, key, __ = self.requests[c][i % self.POOL]
        try:
            reply = self._sql(self.clients[c], kind, key)
        except ServiceError as err:
            if err.code == "connection_closed":
                self.unanswered[c] += 1
            return 1, 1
        if kind == "update":
            if reply.get("rows_affected") != 1:
                return 1, 1
            self.updates[c][key] = self.updates[c].get(key, 0) + 1
        elif len(reply.get("rows", [])) != 1:
            return 1, 1
        return 1, 0

    def run(self, ops: int | None = None, deadline: float | None = None,
            samples: list | None = None, hook=None) -> tuple[int, int]:
        """The closed loop on every client thread at once; each client
        stops after ``ops // CLIENTS`` requests or at ``deadline``."""
        call = hook or (lambda fn, *args: fn(*args))
        per_client = None if ops is None else ops // self.CLIENTS
        totals = [[0, 0] for __ in range(self.CLIENTS)]
        timings: list[list[tuple]] = [[] for __ in range(self.CLIENTS)]
        errors: list[BaseException] = []

        def loop(c: int) -> None:
            i = 0
            try:
                while per_client is None or i < per_client:
                    start = time.perf_counter()
                    if deadline is not None and start >= deadline:
                        return
                    units, failed = call(self.request, c, i)
                    end = time.perf_counter()
                    timings[c].append((end, end - start, units))
                    totals[c][0] += units
                    totals[c][1] += failed
                    time.sleep(self.requests[c][i % self.POOL][2])
                    i += 1
            except BaseException as err:  # re-raised on the caller's thread
                errors.append(err)

        threads = [threading.Thread(target=loop, args=(c,),
                                    name=f"client-{c}")
                   for c in range(self.CLIENTS)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(150.0)
        if any(thread.is_alive() for thread in threads):
            raise RuntimeError("a client thread did not finish")
        if errors:
            raise errors[0]
        if samples is not None:
            for part in timings:
                samples.extend(part)
            samples.sort()
        return sum(t[0] for t in totals), sum(t[1] for t in totals)

    def warmup(self) -> None:
        self.run(ops=self.POOL * self.CLIENTS)

    def check(self) -> list[str]:
        failures = []
        if sum(self.unanswered):
            failures.append(f"{sum(self.unanswered)} requests got no reply")
        # independent oracle for the updates: replay the increments on
        # the prices read before the load
        with ServiceClient("127.0.0.1", self.service.port, user="oracle",
                           timeout=60.0) as client:
            for c in range(self.CLIENTS):
                for key, n in sorted(self.updates[c].items()):
                    expected = self.initial[key]
                    for __ in range(n):
                        expected += 1.0
                    rows = client.sql("SELECT o_totalprice FROM orders "
                                      f"WHERE o_orderkey = {key}")["rows"]
                    if rows != [[expected]]:
                        failures.append(f"order {key}: {rows} != "
                                        f"{expected} after {n} updates")
                        return failures
        return failures

    def stop_service(self) -> None:
        for client in self.clients:
            client.close()
        self.clients = []
        self.runner.stop()

    def recover(self) -> tuple[float, bool]:
        """Time recovery from the run's own directory, after a fixed tail.

        A supervised restart first starts a fresh checkpoint generation,
        then ``TAIL`` requests fill its journal and the service stops: the
        journal recovery replays is the same length on every run, not
        whatever the periodic checkpoint left behind."""
        with ServiceClient("127.0.0.1", self.service.port, user="admin",
                           timeout=60.0) as admin:
            restarts = self.service.restarts
            admin.call("restart")
            deadline = time.monotonic() + 60.0
            while self.service.restarts == restarts \
                    or self.service.state != "running":
                if time.monotonic() > deadline:
                    raise RuntimeError("the supervised restart never ended")
                time.sleep(0.005)
        attempted, failed = self.run(ops=self.TAIL)
        self.stop_service()
        if failed or attempted != self.TAIL:
            raise RuntimeError(f"{failed} of {attempted} tail requests "
                               f"failed")
        return time_recoveries(self.directory,
                               self.service.sqlcm.state_digest(),
                               self.server.clock.now, self._remediator)

    def journals(self) -> list:
        durability = self.service.durability
        return [] if durability is None else [durability.journal]

    def service_counters(self) -> tuple[int, int]:
        described = self.service.describe()
        return described["requests_queued_total"], described["requests_shed"]

    def close(self) -> None:
        self.stop_service()
        shutil.rmtree(self.directory, ignore_errors=True)


class ShardReplay(Rig):
    """Replay of a recorded live trace through ShardedSQLCM with WORKERS
    shards on ThreadShardExecutor.  One operation is one replayed event;
    each step of the loop replays the whole trace on a fresh facade.

    The executor gets one worker thread.  Shard replay is pure Python, so
    under the interpreter lock a second worker adds no parallel work,
    only lock hand-offs between two cores, and on a shared host their
    cost swings the replay rate by up to 2x from one minute to the next;
    one worker measures the shard tier itself."""

    name = "shard_replay"
    #: whole-trace replays (not events) in one traced phase
    traced_ops = 2
    STATEMENTS = 35
    JOINS = 1
    RULES = 12
    CONDITIONS = 12

    def __init__(self, seed: int, workdir: str):
        super().__init__(seed, workdir)
        self.server, counts = _tpch_server(track_completed=False)
        self.sqlcm = SQLCM(self.server)
        self._install(self.sqlcm)
        shorts = _point_selects(self.server, self.rng, 100)
        statements = [shorts[int(i)] for i in
                      self.rng.integers(0, len(shorts), self.STATEMENTS)]
        for j in range(self.JOINS):
            low = int(self.rng.integers(1, counts["orders"] - 300))
            statements.insert((j + 1) * self.STATEMENTS // (self.JOINS + 1),
                              join_query(low, low + 299))
        self.inputs = statements
        cost_before = self.server.monitor_cost_total
        self.trace = EventTrace().attach(self.server)
        session = self.server.create_session(application="live")
        for sql in statements:
            if session.execute(sql).error:
                raise RuntimeError(f"live statement failed: {sql}")
        self.trace.detach()
        self.live_digest = self.sqlcm.state_digest()
        self.replay_server = DatabaseServer(ServerConfig(
            track_completed_queries=False))
        # engine virtual time of the live run: its span minus the live
        # monitor's charges
        self.trace_span = (self.trace.end_time - self.trace.events[0][2]
                           - (self.server.monitor_cost_total - cost_before))
        self.facade: ShardedSQLCM | None = None
        self.digest_failures = 0
        self.last_result: dict = {}
        # totals over every replay so far: (engine virtual s, monitor
        # cost s) and (rule evaluations, rule firings)
        self.replayed_virtual = [0.0, 0.0]
        self.replayed_rules = [0, 0]

    def _install(self, monitor) -> None:
        """Partition-aligned monitoring: everything groups by Query.ID."""
        condition = " AND ".join(f"Query.Duration >= {-float(j)}"
                                 for j in range(self.CONDITIONS))
        monitor.create_lat(LATDefinition(
            name="Replay_Profile", monitored_class="Query",
            grouping=["Query.ID AS Qid"],
            aggregations=["AVG(Query.Duration) AS Avg_D",
                          "MAX(Query.Duration) AS Max_D",
                          "COUNT(Query.ID) AS N",
                          "LAST(Query.Query_Type) AS Qtype"]))
        monitor.add_rule(Rule(name="replay_profile", event="Query.Commit",
                              actions=[InsertAction("Replay_Profile")]))
        for i in range(self.RULES):
            monitor.create_lat(LATDefinition(
                name=f"Replay_LAT_{i}", monitored_class="Query",
                grouping=["Query.ID AS Qid"],
                aggregations=["LAST(Query.Duration) AS Duration",
                              "LAST(Query.Estimated_Cost) AS Cost"]))
            monitor.add_rule(Rule(
                name=f"replay_rule_{i}", event="Query.Commit",
                condition=condition,
                actions=[InsertAction(f"Replay_LAT_{i}")]))

    def prepare(self) -> None:
        """Build the next replay's facade (outside the timed operation)."""
        self.facade = ShardedSQLCM(self.replay_server, n_shards=WORKERS,
                                   subscribe=False)
        self._install(self.facade)

    def replay(self) -> dict:
        return self.facade.run_trace(
            self.trace, executor=ThreadShardExecutor(max_workers=1))

    def verify(self) -> int:
        """Digest-check the last replay; returns 1 when it diverged."""
        if self.facade.state_digest() != self.live_digest:
            self.digest_failures += 1
            return 1
        return 0

    def run(self, ops: int | None = None, deadline: float | None = None,
            samples: list | None = None, hook=None) -> tuple[int, int]:
        """Whole-trace replays until ``ops`` replays are done or the
        ``deadline`` passes; the latency of a replay is its wall time.
        Building the facade and checking its digest are not timed."""
        call = hook or (lambda fn, *args: fn(*args))
        attempted = failed = replays = 0
        origin = time.perf_counter()
        while ops is None or replays < ops:
            if deadline is not None and time.perf_counter() >= deadline:
                break
            self.prepare()
            start = time.perf_counter()
            result = call(self.replay)
            if samples is not None:
                # the sample timeline counts replay time only: building
                # the facade and the digest check are not the workload
                took = time.perf_counter() - start
                clock = samples[-1][0] if samples else origin
                samples.append((clock + took, took, result["events"]))
            self.last_result = result
            self.replayed_virtual[0] += self.trace_span
            self.replayed_virtual[1] += sum(result["shard_costs"])
            for name in self.facade.rules:
                fires, evals = self.facade.rule_stats(name)
                self.replayed_rules[0] += evals
                self.replayed_rules[1] += fires
            attempted += result["events"]
            failed += result["events"] * self.verify()
            replays += 1
        return attempted, failed

    def warmup(self) -> None:
        self.run(ops=1)

    def check(self) -> list[str]:
        if self.digest_failures:
            return [f"{self.digest_failures} replays diverged from the "
                    f"serial live digest"]
        return []

    def monitors(self) -> list:
        return [] if self.facade is None else \
            [shard.sqlcm for shard in self.facade.shards]

    def rule_counters(self) -> tuple[int, int]:
        return tuple(self.replayed_rules)

    def virtual(self) -> tuple[float, float]:
        return tuple(self.replayed_virtual)


RIGS = {rig.name: rig for rig in (RuleStorm, TopKMixed, ServiceOps,
                                  ShardReplay)}
