"""The benchmark's workloads: three sweep modes and served point reads.

Every workload builds its inputs from one seed, through the program's own
``generate_landscape``; the program sees only those generated inputs.

* ``sweep_cold`` — a serial ``Proxion.analyze_all`` with no store: the
  paper's batch sweep, where hashing does most of the work.
* ``sweep_incremental`` — a store settled over the first half of the
  corpus, copied pristine before each sweep, then an ``--incremental``
  sweep of the whole corpus: store reads and writes beside half the
  analysis.
* ``sweep_supervised`` — a crash-free ``run_sharded_sweep`` over two
  supervised worker processes (codehash strategy, per-shard checkpoints).
* ``serve_hits`` — a ``ServeApp`` over a fully settled store, one
  closed-loop keep-alive client reading ``GET /v1/contract/ADDR`` in a
  seeded shuffle: store point reads, ``repro.api`` encoding and HTTP, with
  no hashing or EVM.

A sweep hands back every answer at once when it returns, so each contract
of a sweep is answered after the sweep's wall time.
"""

from __future__ import annotations

import functools
import json
import os
import random
import shutil
import time
from dataclasses import dataclass, field
from http.client import HTTPConnection
from typing import Any

#: ``generate_landscape(total=250)`` deploys 297 contracts.
TOTAL = 250

#: Supervised workers; fixed so the workload is the same on any host.
WORKERS = 2

clock = time.perf_counter


@dataclass(slots=True)
class Outcome:
    """What one measured operation (a sweep, or one pass of queries) did."""

    wall_s: float
    #: Answer latency per contract answered.
    latencies_s: list[float]
    #: Failures the operation itself saw: quarantines, non-200 responses,
    #: served bodies that differ from the offline answer.
    failed: int = 0
    report: Any = None             # LandscapeReport (sweeps)
    metrics: Any = None            # MetricsRegistry of the sweep (sweeps)
    extra: dict[str, float] = field(default_factory=dict)

    @property
    def answers(self) -> int:
        return len(self.latencies_s)


def sweep_reference(world) -> str:
    """Canonical report bytes of a serial cold sweep of ``world``."""
    from repro.core.pipeline import Proxion
    from repro.landscape.serialize import report_to_json

    proxion = Proxion.from_chain(world.chain, registry=world.registry,
                                 dataset=world.dataset)
    return report_to_json(proxion.analyze_all(world.addresses()))


def expected_verdicts(world) -> dict[str, bool]:
    """Proxy verdict per address the generator's ground truth implies.

    Diamond proxies route through selectors only past transactions reveal,
    which the default options do not probe (the paper's §8.2 extension),
    so their expected verdict is "not a proxy".  The seed decides how many
    there are.
    """
    return {"0x" + address.hex(): truth.is_proxy and truth.kind != "diamond"
            for address, truth in world.truths.items()}


def count_mismatches(actual: str, expected: str) -> int:
    """Contracts whose canonical record differs (at least 1 if any does)."""
    if actual == expected:
        return 0
    got, want = json.loads(actual), json.loads(expected)

    def records(report: dict) -> dict[str, Any]:
        return {record["address"]: record
                for record in report["contracts"] + report["failures"]}

    got_records, want_records = records(got), records(want)
    differing = sum(got_records.get(address) != record
                    for address, record in want_records.items())
    differing += len(set(got_records) - set(want_records))
    return max(1, differing)


def remove_database(path: str) -> None:
    """Delete one SQLite database and its ``-wal``/``-shm`` sidecars."""
    for candidate in (path + "-wal", path + "-shm", path):
        if os.path.exists(candidate):
            os.remove(candidate)


class Workload:
    """One benchmark workload over the landscape a seed generates.

    ``setup`` builds the world (timed, possibly several times; ``teardown``
    runs between), ``prepare`` readies one operation untimed, ``op`` runs and
    times it, ``check`` compares one outcome with the expected output and
    ``verify`` makes the once-per-run checks.  Both return failure counts.
    """

    name = ""

    def __init__(self, seed: int, workdir: str, total: int = TOTAL) -> None:
        self.seed = seed
        self.total = total
        self.workdir = workdir
        self.world = None

    def generate(self):
        from repro.corpus.generator import generate_landscape

        return generate_landscape(total=self.total, seed=self.seed)

    def setup(self) -> None:
        self.world = self.generate()

    def teardown(self) -> None:
        self.world = None

    def prepare(self) -> None:
        pass

    def op(self) -> Outcome:
        raise NotImplementedError

    def check(self, outcome: Outcome) -> int:
        return 0

    def verify(self) -> int:
        return 0


class _Sweep(Workload):
    """Shared checks of the sweep workloads."""

    _reference: str | None = None

    def reference(self) -> str:
        """Canonical report bytes of a serial cold sweep (computed once)."""
        if self._reference is None:
            self._reference = sweep_reference(self.world)
        return self._reference

    def check(self, outcome: Outcome) -> int:
        from repro.landscape.serialize import report_to_json

        return count_mismatches(report_to_json(outcome.report),
                                self.reference())

    def verify(self) -> int:
        expected = expected_verdicts(self.world)
        contracts = json.loads(self.reference())["contracts"]
        return sum(record["is_proxy"] != expected[record["address"]]
                   for record in contracts)

    def _outcome(self, wall_s: float, report, metrics,
                 **extra: float) -> Outcome:
        return Outcome(wall_s=wall_s,
                       latencies_s=[wall_s] * (len(report.analyses)
                                               + len(report.failures)),
                       failed=len(report.failures), report=report,
                       metrics=metrics, extra=extra)


class SweepCold(_Sweep):
    name = "sweep_cold"

    def op(self) -> Outcome:
        from repro.core.pipeline import Proxion

        world = self.world
        start = clock()
        proxion = Proxion.from_chain(world.chain, registry=world.registry,
                                     dataset=world.dataset)
        report = proxion.analyze_all(world.addresses())
        return self._outcome(clock() - start, report, proxion.metrics)


class SweepIncremental(_Sweep):
    name = "sweep_incremental"

    def setup(self) -> None:
        from repro.core.pipeline import Proxion
        from repro.store import attach_store

        super().setup()
        world = self.world
        addresses = world.addresses()
        self.settled = addresses[:len(addresses) // 2]
        self.warm_path = os.path.join(self.workdir, "warm.store")
        self.run_path = os.path.join(self.workdir, "run.store")
        remove_database(self.warm_path)
        with attach_store(self.warm_path) as binding:
            Proxion.from_chain(world.chain, registry=world.registry,
                               dataset=world.dataset,
                               store=binding).analyze_all(self.settled)

    def prepare(self) -> None:
        # A -wal left by the previous sweep would be replayed into the copy
        # and turn the half-settled store into a fully settled one.
        remove_database(self.run_path)
        for sidecar in ("-wal", "-shm"):
            if os.path.exists(self.warm_path + sidecar):
                raise RuntimeError(f"warm store has a {sidecar} file: it was "
                                   f"not closed cleanly")
        shutil.copyfile(self.warm_path, self.run_path)

    def op(self) -> Outcome:
        from repro.core.pipeline import Proxion
        from repro.store import attach_store

        world = self.world
        start = clock()
        with attach_store(self.run_path, incremental=True) as binding:
            proxion = Proxion.from_chain(world.chain, registry=world.registry,
                                         dataset=world.dataset, store=binding)
            report = proxion.analyze_all(world.addresses())
        metrics = proxion.metrics
        return self._outcome(
            clock() - start, report, metrics,
            restored=metrics.counter_value(
                "pipeline.store_restored_contracts"),
            emulated=metrics.counter_value("dedup.misses",
                                           cache="proxy_check"))

    @functools.cached_property
    def expected_delta(self) -> tuple[int, int]:
        """Contracts the store restores, and code hashes left to emulate."""
        records = json.loads(self.reference())
        settled = {"0x" + address.hex() for address in self.settled}
        done = [record for record in records["contracts"] + records["failures"]
                if record["address"] in settled]
        settled_hashes = {record.get("code_hash") for record in done}
        delta_hashes = {record["code_hash"] for record in records["contracts"]
                        if record["address"] not in settled}
        return len(done), len(delta_hashes - settled_hashes)

    def check(self, outcome: Outcome) -> int:
        restored, emulated = self.expected_delta
        wrong_delta = (outcome.extra["restored"] != restored
                       or outcome.extra["emulated"] != emulated)
        return super().check(outcome) + int(wrong_delta)


class SweepSupervised(_Sweep):
    name = "sweep_supervised"

    def op(self) -> Outcome:
        from repro.parallel import SupervisorConfig, SweepSpec, run_sharded_sweep

        start = clock()
        result = run_sharded_sweep(
            SweepSpec(total=self.total, seed=self.seed), workers=WORKERS,
            strategy="codehash", world=self.world,
            supervise=SupervisorConfig())
        wall_s = clock() - start
        return self._outcome(
            wall_s, result.report, result.metrics,
            respawns=result.respawns,
            sum_shard_cpu_s=result.sum_shard_cpu_s,
            max_shard_cpu_s=result.max_shard_cpu_s)

    def check(self, outcome: Outcome) -> int:
        # Crash-free: any respawn means a worker died unasked.
        return super().check(outcome) + int(outcome.extra["respawns"])


class ServeHits(Workload):
    name = "serve_hits"

    def __init__(self, seed: int, workdir: str, total: int = TOTAL) -> None:
        super().__init__(seed, workdir, total)
        self.rng = random.Random(seed)
        self.app = None
        self.connection = None
        self.expected: dict[str, bytes] = {}

    def setup(self) -> None:
        from repro.core.pipeline import Proxion
        from repro.serve import ServeApp, ServeConfig
        from repro.store import attach_store

        super().setup()
        world = self.world
        self.store_path = os.path.join(self.workdir, "serve.store")
        remove_database(self.store_path)
        with attach_store(self.store_path) as binding:
            Proxion.from_chain(world.chain, registry=world.registry,
                               dataset=world.dataset,
                               store=binding).analyze_all(world.addresses())
        # One keep-alive client must never be throttled: the workload
        # measures point reads, not the rate limiter.
        config = ServeConfig(store_path=self.store_path, rate_per_s=1e9,
                             burst=10 ** 9)
        self.app = ServeApp(config, landscape=world).start()
        self.connection = HTTPConnection("127.0.0.1", self.app.port,
                                         timeout=30)
        self.addresses = ["0x" + address.hex()
                          for address in world.addresses()]

    def teardown(self) -> None:
        if self.connection is not None:
            self.connection.close()
            self.connection = None
        if self.app is not None:
            self.app.close()
            self.app = None
        super().teardown()

    def prepare(self) -> None:
        if not self.expected:
            from repro import api
            from repro.store.store import AnalysisStore

            with AnalysisStore(self.store_path) as store:
                self.expected = {
                    address: api.encode(api.answer_from_store(
                        store, bytes.fromhex(address[2:])))
                    for address in self.addresses}

    def op(self) -> Outcome:
        order = self.rng.sample(self.addresses, len(self.addresses))
        connection, expected = self.connection, self.expected
        latencies = []
        failed = 0
        start = clock()
        for address in order:
            began = clock()
            connection.request("GET", f"/v1/contract/{address}")
            response = connection.getresponse()
            body = response.read()
            latencies.append(clock() - began)
            if response.status != 200 or body != expected[address]:
                failed += 1
        return Outcome(wall_s=clock() - start, latencies_s=latencies,
                       failed=failed)

    def verify(self) -> int:
        verdicts = expected_verdicts(self.world)
        return sum((json.loads(body)["verdict"] == "proxy")
                   != verdicts[address]
                   for address, body in self.expected.items())


WORKLOADS: dict[str, type[Workload]] = {
    workload.name: workload
    for workload in (SweepCold, SweepIncremental, SweepSupervised, ServeHits)
}
