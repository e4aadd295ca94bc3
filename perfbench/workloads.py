"""The three workloads: set-up, closed loops, write probes.

``served_hot``    1 client thread sends Q1/Q2 SQL (k in 1, 5, 10, 20,
                  ``auto``) to a ``QueryServer(workers=2)``; no writes.
``served_mixed``  1 client thread sends Q2 SQL (k in 1 .. 100); one
                  operation in 25 is a small write batch cut from the TPC-H
                  refresh sets, applied through ``QueryServer.maintenance``
                  and ``MaintainedRelation``; each run of writes is followed
                  by a Q2 k=10 read.
``paper_grid``    1 client runs every two-way algorithm on Q1/Q2 and the
                  three n-way strategies on a 3-way partkey chain, with an
                  explicit algorithm, on a 4-server platform.

Every workload object offers the same calls: ``read(key)`` runs one query
and returns ``(result, queue wait)``, ``writer.write()`` applies the next
write batch, ``expected(epoch, key)`` is the oracle score list after
``epoch`` writes.  Each loop returns its loop time.  Loops whose data
changes (served_mixed) or whose operations are few and long (paper_grid)
run a number of cycles or passes fixed by ``--seconds``, not by how fast
the host happens to be, so every run of a seed does the same work; the
read-only served_hot loop runs for ``--seconds``.
"""

from __future__ import annotations

import contextlib
import gc
import itertools
import random
from time import perf_counter

from repro import EC2_PROFILE, Platform, RankJoinEngine
from repro.core.bfhm.algorithm import BFHMRankJoin
from repro.core.bfhm.blobcache import blob_cache
from repro.core.bfhm.updates import WriteBackPolicy
from repro.maintenance.interceptor import MaintainedRelation
from repro.query.spec import RankJoinQuery
from repro.relational.binding import RelationBinding
from repro.serving import QueryServer
from repro.tpch import generate, load_tpch
from repro.tpch.loader import lineitem_by_order_binding, orders_binding
from repro.tpch.queries import Q1_SQL, Q2_SQL, q1, q2
from repro.tpch.updates import generate_refresh_sets

from perfbench.measure import Sample
from perfbench.oracle import Model

#: the TPC-H tables and their refresh stream are the same in every run,
#: like a benchmark database; ``--seed`` drives the order in which the
#: clients issue their queries.  Seeded tables or refresh sets move the
#: work per query by 10-40 % between seeds, more than any bound absorbs
DATA_SEED = 7
SERVED_SCALE = 1.0
#: at micro_scale 0.3 a grid pass took 6-7 s, so a run read each shape
#: 3-4 times and the baselines' 0.4-1.6 s queries took in the host's
#: interference: query_best_ms spread 0.15-0.26 between runs of one
#: commit.  At 0.1 a pass takes about 3 s
GRID_SCALE = 0.1
GRID_SERVERS = 4
SERVER_WORKERS = 2
HOT_KS = (1, 5, 10, 20)
MIXED_KS = (1, 5, 10, 20, 50, 100)
#: a write cycle writes this many batches and then reads Q2 k=PROBE_K once
CYCLE_WRITES = 4
#: served_mixed: each cycle is a write cycle, one round that re-plans
#: every shape and then READ_ROUNDS warm rounds over the 6 shapes, each in
#: a fresh seeded order: 101 operations, 4 of them writes
READ_ROUNDS = 15
#: served_mixed runs one cycle per this many seconds of ``--seconds``
#: (a cycle takes about that long on a 2-vCPU host), at least MIN_CYCLES.
#: Every write makes later writes and statistics gathers slower (the
#: store keeps tombstones), so the cycle count must not depend on host
#: speed, or a slow host would measure cheaper operations
MIXED_CYCLE_S = 2.0
MIN_CYCLES = 4
#: a write batch inserts new orders and deletes old ones, each with its
#: lineitems (one small TPC-H refresh, RF1 + RF2): whole orders, until
#: each half holds at least this many rows, so batches cost about the same
BATCH_ROWS = 16
#: refresh sets cut into write batches at micro_scale 1.0, more than any
#: run consumes; a smaller scale cuts proportionally more sets, because
#: each set holds fewer orders
REFRESH_SETS = 24
#: write cycles run on each set-up that is discarded, and after the loop
#: of a workload whose loop does not write
PROBE_CYCLES = 3
#: the read after a write is always Q2 with this k
PROBE_K = 10
GRID_TWO_WAY = ("hive", "pig", "ijlmr", "isl", "bfhm", "drjn")
GRID_KS = (1, 10, 100)
#: paper_grid runs one pass per this many seconds of ``--seconds``
GRID_PASS_S = 2.0
MIN_PASSES = 2
CHAIN_STRATEGIES = ("isl", "hrjn", "bfhm")
CHAIN_KS = (1, 10, 25)
BASELINES = ("hive", "pig", "drjn")
#: grid keys whose simulated metrics differ between identical reads in
#: one process: Hive and Pig bill network bytes and simulated time that
#: depend on the queries run before them, and the n-way BFHM cascade
#: bills a few hundred network bytes more or less from one run of the
#: same query to the next (causes not found; see layers.json).  Their
#: answers still must match
UNREPEATABLE = frozenset(
    [(name, query, k) for name in ("hive", "pig") for query in ("Q1", "Q2")
     for k in GRID_KS]
    + [("bfhm", "chain", k) for k in CHAIN_KS]
)
#: the 3-way partkey chain of benchmarks/test_multiway.py
CHAIN = (
    RelationBinding("part", join_column="partkey", score_column="retailprice", alias="P"),
    RelationBinding("lineitem", join_column="partkey", score_column="extendedprice", alias="L1"),
    RelationBinding("lineitem", join_column="partkey", score_column="discount", alias="L2"),
)


def chain(k: int) -> RankJoinQuery:
    return RankJoinQuery.of(list(CHAIN), "sum", k)


class Writer:
    """Cuts TPC-H refresh sets into small batches and applies them to
    orders and lineitem (joined on orderkey) with their ISL, IJLMR and
    BFHM indexes kept current."""

    def __init__(self, platform, model: Model, data, scale: float, catalog,
                 bfhm_manager, guard) -> None:
        self.model = model
        self.guard = guard
        self.relations = {
            binding.table: MaintainedRelation(
                platform, binding, maintain_ijlmr=True, maintain_isl=True,
                bfhm_manager=bfhm_manager, statistics_catalog=catalog,
            )
            for binding in (orders_binding(), lineitem_by_order_binding())
        }
        lines_of: "dict[str, list]" = {}
        for item in data.lineitems:
            lines_of.setdefault(item["orderkey"], []).append(item)
        inserts, delete_orders = [], []
        for refresh in generate_refresh_sets(data, round(REFRESH_SETS / scale)):
            for item in refresh.insert_lineitems:
                lines_of.setdefault(item["orderkey"], []).append(item)
            inserts += _batches(refresh.insert_orders, lines_of, lambda o: o["orderkey"])
            # at a small scale one set deletes fewer than BATCH_ROWS rows
            delete_orders += refresh.delete_orders
        deletes = _batches(delete_orders, lines_of, lambda key: key)
        self._batches = iter(zip(inserts, deletes))

    def write(self) -> None:
        """Apply the next batch: its inserts, then its deletes."""
        (orders, items), (order_keys, lines) = next(self._batches)
        item_keys = [item["rowkey"] for item in lines]
        relations = self.relations
        with self.guard():
            relations["orders"].insert_batch([(o["orderkey"], o) for o in orders])
            relations["lineitem"].insert_batch([(i["rowkey"], i) for i in items])
            deleted = relations["lineitem"].delete_batch(item_keys)
            deleted += relations["orders"].delete_batch(order_keys)
        if deleted != len(order_keys) + len(item_keys):
            raise RuntimeError(f"delete batch removed {deleted} of "
                               f"{len(order_keys) + len(item_keys)} rows")
        self.model.insert("orders", orders)
        self.model.insert("lineitem", items)
        self.model.delete("lineitem", item_keys)
        self.model.delete("orders", order_keys)


def _batches(orders: list, lines_of: dict, key_of) -> list:
    """Cut ``orders`` into (orders, their lineitems) batches of at least
    BATCH_ROWS rows each; a short remainder is dropped."""
    batches, batch, items = [], [], []
    for order in orders:
        batch.append(order)
        items += lines_of.get(key_of(order), ())
        if len(batch) + len(items) >= BATCH_ROWS:
            batches.append((batch, items))
            batch, items = [], []
    return batches


class _Base:
    """Shared oracle bookkeeping: expected scores per (epoch, key)."""

    scale: float
    topology: str

    def __init__(self, data, keys) -> None:
        self.model = Model(data)
        self.keys = list(keys)
        self.epoch = 0
        self._expected: "dict[tuple[int, object], tuple]" = {}

    def query_of(self, key) -> RankJoinQuery:
        raise NotImplementedError

    def refresh_oracle(self, keys=None) -> None:
        """Compute the oracle for ``keys`` (default: all) at this epoch.
        Keys that differ only in k share one join: the top-k scores are a
        prefix of the deepest key's."""
        queries = {key: self.query_of(key) for key in (self.keys if keys is None else keys)}
        groups: "dict[tuple, list]" = {}
        for key, query in queries.items():
            groups.setdefault((query.inputs, repr(query.function)), []).append(key)
        for group in groups.values():
            deepest = max(group, key=lambda key: queries[key].k)
            scores = self.model.expected_scores(queries[deepest])
            for key in group:
                self._expected[(self.epoch, key)] = scores[:queries[key].k]

    def expected(self, epoch: int, key) -> tuple:
        return self._expected[(epoch, key)]

    def index_bytes_per_base_byte(self) -> float:
        store = self.platform.store
        base = index = 0
        for name in store.table_names():
            size = store.table(name).disk_size
            if name in self.model.tables:
                base += size
            else:
                index += size
        return index / base

    def close(self) -> None:
        pass


class Served(_Base):
    """A single-server EC2 platform behind ``QueryServer(workers=2)``;
    ISL and BFHM prebuilt for Q1 and Q2, IJLMR for Q2 (kept current by
    the writes)."""

    scale = SERVED_SCALE
    topology = f"1 server, QueryServer(workers={SERVER_WORKERS})"
    probe_key = Q2_SQL.format(k=PROBE_K)

    def __init__(self, keys) -> None:
        data = generate(micro_scale=SERVED_SCALE, seed=DATA_SEED)
        super().__init__(data, keys)
        self.platform = Platform(EC2_PROFILE)
        load_tpch(self.platform.store, data)
        self.server = QueryServer(self.platform, workers=SERVER_WORKERS)
        for query in (q1(1), q2(1)):
            self.server.prepare(query, algorithms=["isl", "bfhm"])
        self.server.prepare(q2(1), algorithms=["ijlmr"])
        maintainer = BFHMRankJoin(self.platform, write_back=WriteBackPolicy.OFFLINE)
        maintainer.prepare(q2(1))
        self.writer = Writer(
            self.platform, self.model, data, SERVED_SCALE, self.server.statistics,
            maintainer.update_manager,
            lambda: self.server.maintenance("orders", "lineitem"),
        )
        # warm-up: plan and statement caches filled, blobs decoded
        for _ in range(2):
            for key in self.keys:
                self.read(key)

    def query_of(self, sql: str) -> RankJoinQuery:
        k = int(sql.rsplit(" ", 1)[1])
        return q1(k) if sql.startswith(Q1_SQL.split("{")[0]) else q2(k)

    def read(self, sql: str):
        served = self.server.submit(sql).result()
        if served.error is not None:
            raise served.error
        return served.result, served.waited_s

    def close(self) -> None:
        self.server.close()


class Grid(_Base):
    """A 4-server EC2 platform (thread scatter) with every index of Q1, Q2
    and the 3-way chain prebuilt; queries name their algorithm."""

    scale = GRID_SCALE
    topology = f"{GRID_SERVERS} servers, thread scatter, RankJoinEngine"
    #: the read after a write lets the planner choose (``auto``)
    probe_key = ("auto", "Q2", PROBE_K)

    def __init__(self) -> None:
        keys = [
            (name, query, k)
            for name in GRID_TWO_WAY for query in ("Q1", "Q2") for k in GRID_KS
        ] + [(name, "chain", k) for name in CHAIN_STRATEGIES for k in CHAIN_KS]
        data = generate(micro_scale=GRID_SCALE, seed=DATA_SEED)
        super().__init__(data, keys)
        self.platform = Platform(EC2_PROFILE, num_servers=GRID_SERVERS)
        load_tpch(self.platform.store, data)
        self.engine = RankJoinEngine(self.platform)
        self.engine.prepare(q1(1))
        self.engine.prepare(q2(1))
        self.engine.prepare(chain(1), algorithms=["isl", "bfhm"])
        self.writer = Writer(
            self.platform, self.model, data, GRID_SCALE, self.engine.statistics,
            self.engine.algorithm("bfhm").update_manager, contextlib.nullcontext,
        )
        # warm-up: every indexed cell once, each baseline once
        for key in self.keys:
            if key[0] not in BASELINES:
                self.read(key)
        for name in BASELINES:
            self.read((name, "Q1", 1))

    def query_of(self, key) -> RankJoinQuery:
        _, query, k = key
        return {"Q1": q1, "Q2": q2, "chain": chain}[query](k)

    def read(self, key):
        return self.engine.execute(self.query_of(key), algorithm=key[0]), 0.0


def hot_keys() -> list:
    return [sql.format(k=k) for sql in (Q1_SQL, Q2_SQL) for k in HOT_KS]


def mixed_keys() -> list:
    return [Q2_SQL.format(k=k) for k in MIXED_KS]


SETUPS = {
    "served_hot": lambda: Served(hot_keys()),
    "served_mixed": lambda: Served(mixed_keys()),
    "paper_grid": Grid,
}


def setup(workload: str):
    """Build a loaded, warmed platform for ``workload``.  The process-wide
    decoded-blob cache is emptied first, so every set-up pays the same
    decoding."""
    blob_cache.clear()
    return SETUPS[workload]()


# -- operations ---------------------------------------------------------------


class Runner:
    """Times operations against one workload object and keeps the samples."""

    def __init__(self, env, tracer=None) -> None:
        self.env = env
        self.tracer = tracer
        self.samples: "list[Sample]" = []
        self._qids = itertools.count(1)

    def _call(self, fn, *args):
        if self.tracer is None:
            return fn(*args)
        return self.tracer.op(next(self._qids), fn, *args)

    def read(self, key, after_write: bool = False) -> Sample:
        epoch = self.env.epoch
        start = perf_counter()
        try:
            result, waited = self._call(self.env.read, key)
            end = perf_counter()
            sample = Sample("read", key, end - start, end, epoch, after_write,
                            result, waited)
        except Exception as error:  # a failed query is a sample, not a crash
            sample = Sample("read", key, float("inf"), perf_counter(), epoch,
                            after_write, error=f"{type(error).__name__}: {error}")
        self.samples.append(sample)
        return sample

    def write(self) -> Sample:
        start = perf_counter()
        try:
            self._call(self.env.writer.write)
            end = perf_counter()
            sample = Sample("write", None, end - start, end)
        except Exception as error:
            sample = Sample("write", None, float("inf"), perf_counter(),
                            error=f"{type(error).__name__}: {error}")
        self.samples.append(sample)
        self.env.epoch += 1
        return sample


def rounds(rng: random.Random, keys: list):
    """Endless rounds over ``keys``, each round in a fresh random order."""
    while True:
        yield from rng.sample(keys, len(keys))


def loop_hot(runner: Runner, seconds: float, seed: int) -> float:
    """1 client, a closed loop over rounds of the 8 shapes for
    ``seconds``."""
    env = runner.env
    start = perf_counter()
    deadline = start + seconds
    for key in rounds(random.Random(f"{seed}/hot"), env.keys):
        if perf_counter() >= deadline:
            break
        runner.read(key)
    return perf_counter() - start


def write_cycle(runner: Runner, keys=None) -> float:
    """CYCLE_WRITES write batches, then one Q2 k=PROBE_K read, which
    re-gathers the statistics the writes made stale.  The heap is
    collected first, so the writes pay for their own garbage and not for
    what came before, and the oracle for ``keys`` (default: all) is
    recomputed between the writes and the read.  Returns the seconds the
    writes and the read took."""
    env = runner.env
    gc.collect()
    start = perf_counter()
    for _ in range(CYCLE_WRITES):
        runner.write()
    timed = perf_counter() - start
    env.refresh_oracle(keys)
    start = perf_counter()
    runner.read(env.probe_key, after_write=True)
    return timed + perf_counter() - start


def loop_mixed(runner: Runner, seconds: float, seed: int) -> float:
    """1 client, ``seconds / MIXED_CYCLE_S`` whole cycles (at least
    MIN_CYCLES): a write cycle; one round of the 6 shapes (each
    re-planned, except k=PROBE_K); then READ_ROUNDS rounds of the 6
    shapes, warm."""
    env = runner.env
    shapes = rounds(random.Random(f"{seed}/mixed"), env.keys)
    timed = 0.0
    for _ in range(max(MIN_CYCLES, round(seconds / MIXED_CYCLE_S))):
        timed += write_cycle(runner)
        start = perf_counter()
        for _ in range((1 + READ_ROUNDS) * len(env.keys)):
            runner.read(next(shapes))
        timed += perf_counter() - start
    return timed


def loop_grid(runner: Runner, seconds: float, seed: int,
              min_passes: int = MIN_PASSES) -> float:
    """1 client runs ``seconds / GRID_PASS_S`` whole passes over the grid
    (at least ``min_passes``), each in a fresh seeded order."""
    env = runner.env
    rng = random.Random(f"{seed}/grid")
    start = perf_counter()
    for _ in range(max(min_passes, round(seconds / GRID_PASS_S))):
        for key in rng.sample(env.keys, len(env.keys)):
            runner.read(key)
    return perf_counter() - start


LOOPS = {"served_hot": loop_hot, "served_mixed": loop_mixed, "paper_grid": loop_grid}


def probe_writes(runner: Runner) -> None:
    """PROBE_CYCLES write cycles, for the write and read-after-write
    figures of a set-up whose loop does not write."""
    for _ in range(PROBE_CYCLES):
        write_cycle(runner, [runner.env.probe_key])
