"""The equivalence matrix: however a sweep runs, one canonical record.

Serial, sharded, supervised (crash-injected too), incremental, audited,
served and post-reorg runs of the same chain must agree.  Each row of :data:`LEGS` is one way
to run the sweep of a corpus.  A leg yields its ``survey --json`` bytes
and, when it writes a store, the served ``repro.query/1`` body of every
address.  A *cell* is one leg on one corpus: one of four comparison
modes checks it against the corpus's single serial reference, then the
leg's own checks run.

* :func:`exact` — byte-identical;
* :func:`conservation` — a sustained outage: every reference address is
  analyzed identically or quarantined, none lost;
* :func:`crash` — poison contracts: analyzed records identical, every
  failure a ``worker-crash`` quarantine the supervisor counted, none
  lost.  ``summary.dedup`` is not compared: it is replayed over the
  analyses, and a poison quarantine drops one from it;
* :func:`reorg` — survivors identical, nothing quarantined, and an
  address may be missing only if an injected reorg fired.

Legs with a CLI spelling run through ``repro.cli.main`` in-process, so
the matrix covers flag wiring too; ``--metrics-prom`` proves that a
fault fired without changing the report bytes.  A way of running the
sweep that no row covers yet is one more row.
"""

from __future__ import annotations

import contextlib
import difflib
import io
import json
import os
import re
from dataclasses import dataclass, field
from http.client import HTTPConnection
from time import perf_counter
from typing import Callable

import pytest

from repro import api
from repro.chain.failover import build_failover_node
from repro.cli import main
from repro.core.monitor import DeploymentMonitor
from repro.core.pipeline import Proxion
from repro.corpus.generator import generate_landscape
from repro.landscape import report_to_json
from repro.lang import compile_contract, stdlib
from repro.obs import provenance as pv
from repro.parallel import SweepSpec, run_sharded_sweep
from repro.serve import ServeApp, ServeConfig
from repro.store import attach_store, fsck
from repro.store.store import AnalysisStore

#: ``(total, seed)`` of every corpus the matrix runs.
CORPORA = ((40, 7), (40, 5))


# ------------------------------------------------------------------ helpers
def cli(*argv: str) -> bytes:
    """Run ``repro`` in-process; its stdout bytes (exit 0 asserted)."""
    sink = io.StringIO()
    with contextlib.redirect_stdout(sink):
        code = main(list(argv))
    assert code == 0, f"repro {' '.join(argv)} exited {code}"
    return sink.getvalue().encode()


def survey(total: int, seed: int, *flags: str) -> bytes:
    return cli("survey", "--total", str(total), "--seed", str(seed),
               "--json", *flags)


_SAMPLE = re.compile(r"^repro_(\w+)(\{[^}]*\})? (\S+)$")


def read_prom(path: str) -> dict[str, float]:
    """``--metrics-prom`` samples as ``{"name{labels}": value}``."""
    with open(path, encoding="utf-8") as stream:
        return {match[1] + (match[2] or ""): float(match[3])
                for match in map(_SAMPLE.match, stream) if match}


def counter(metrics: dict[str, float], name: str, label: str = "") -> float:
    """Sum of one metric's samples, optionally those carrying ``label``."""
    return sum(value for key, value in metrics.items()
               if key.split("{")[0] == name and label in key)


def _records(payload: bytes) -> tuple[dict[str, dict], dict[str, dict]]:
    report = json.loads(payload)
    return ({record["address"]: record for record in report["contracts"]},
            {record["address"]: record for record in report["failures"]})


def _identical(contracts: dict, reference: dict) -> None:
    diverged = [address for address, record in contracts.items()
                if reference.get(address) != record]
    assert not diverged, (f"{len(diverged)} analyzed record(s) differ from "
                          f"the reference (first {diverged[0]})")


# -------------------------------------------------------- comparison modes
def exact(actual: bytes, expected: bytes, metrics: dict) -> None:
    if actual != expected:
        diff = difflib.unified_diff(expected.decode().splitlines(),
                                    actual.decode().splitlines(),
                                    "reference", "leg", lineterm="", n=1)
        raise AssertionError("not byte-identical:\n"
                             + "\n".join(list(diff)[:40]))


def conservation(actual: bytes, expected: bytes, metrics: dict) -> None:
    contracts, failures = _records(actual)
    reference, reference_failures = _records(expected)
    lost = [address for address in (*reference, *reference_failures)
            if address not in contracts and address not in failures]
    assert not lost, (f"{len(lost)} contract(s) silently lost "
                      f"(first {lost[0]})")
    _identical(contracts, reference)


def crash(actual: bytes, expected: bytes, metrics: dict) -> None:
    conservation(actual, expected, metrics)
    failures = _records(actual)[1]
    foreign = [address for address, failure in failures.items()
               if (failure["cause"], failure["stage"])
               != ("worker-crash", "worker")]
    assert not foreign, (f"{len(foreign)} quarantine(s) not classified "
                         f"worker-crash at stage worker (first {foreign[0]})")
    poison = counter(metrics, "parallel_poison_contracts")
    assert len(failures) == poison, (f"{len(failures)} failures in the report "
                                     f"vs {poison} poison contracts counted")


def reorg(actual: bytes, expected: bytes, metrics: dict) -> None:
    contracts, failures = _records(actual)
    assert not failures, (f"{len(failures)} contract(s) quarantined: a reorg "
                          f"removes contracts, it must not wound survivors")
    reference = _records(expected)[0]
    _identical(contracts, reference)
    missing = [address for address in reference if address not in contracts]
    assert not missing or counter(metrics, "faults_injected",
                                  'kind="reorg"') >= 1, (
        f"{len(missing)} contract(s) missing (first {missing[0]}) but no "
        f"reorg fired")


# ------------------------------------------------------------- the matrix
@dataclass
class Corpus:
    """One corpus and its serial reference."""

    total: int
    seed: int
    world: object               # the landscape, shared read-only
    survey: bytes               # R: ``survey --json``
    store: str                  # S: a serial ``--store S`` sweep
    bodies: dict[str, bytes]    # B: the served body of every address


@dataclass
class Cell:
    """One leg run on one corpus."""

    corpus: Corpus
    directory: str
    survey: bytes | None = None
    bodies: dict[str, bytes] | None = None
    metrics: dict[str, float] = field(default_factory=dict)

    def path(self, name: str) -> str:
        return os.path.join(self.directory, name)


@dataclass(frozen=True)
class Leg:
    """One way to run the sweep of a corpus."""

    mode: Callable[[bytes, bytes, dict], None]
    #: ``survey --json`` flags (``{store}``, ``{audit}`` and ``{prom}``
    #: name per-cell files), or a library runner for legs without one.
    run: str | Callable[[Cell], None]
    #: Prepares the store the leg starts from.
    start: Callable[[Cell], None] | None = None
    #: Compare with this leg's bytes instead of the reference's.
    against: str | None = None
    #: What the mode sees of the leg's bytes.
    view: Callable[[bytes], bytes] = lambda payload: payload
    checks: tuple[Callable[[Cell], None], ...] = ()


def served(store_path: str, addresses) -> dict[str, bytes]:
    """The ``repro.query/1`` body the store serves for each address."""
    with AnalysisStore(store_path) as store:
        answers = {"0x" + address.hex(): api.answer_from_store(store, address)
                   for address in addresses}
    missing = [address for address, answer in answers.items()
               if answer is None]
    assert not missing, f"store has no answer for {missing[:3]}"
    return {address: api.encode(answer)
            for address, answer in answers.items()}


def run_cli(cell: Cell, spelling: str) -> None:
    corpus = cell.corpus
    flags = spelling.format(store=cell.path("sweep.store"),
                            audit=cell.path("audit"),
                            prom=cell.path("metrics.prom")).split()
    cell.survey = survey(corpus.total, corpus.seed, *flags)
    if "{prom}" in spelling:
        cell.metrics = read_prom(cell.path("metrics.prom"))
    if "{store}" in spelling:
        verdict = fsck(cell.path("sweep.store"))
        assert verdict.clean, verdict.issues
        # One database file, at most with its WAL sidecars: no shard
        # store, whatever the worker count.
        files = {name for name in os.listdir(cell.directory)
                 if name.startswith("sweep.store")}
        assert {"sweep.store"} <= files <= {
            "sweep.store", "sweep.store-wal", "sweep.store-shm"}, files
        cell.bodies = served(cell.path("sweep.store"),
                             corpus.world.addresses())


def half_settled(cell: Cell, audit: str | None = None) -> None:
    """A serial sweep of the first half of the corpus into the store."""
    world = cell.corpus.world
    addresses = world.addresses()
    with attach_store(cell.path("sweep.store")) as binding:
        Proxion.from_chain(world.chain, registry=world.registry,
                           dataset=world.dataset, store=binding,
                           audit=audit).analyze_all(
            addresses[:len(addresses) // 2])


def audited_cold(cell: Cell) -> None:
    survey(cell.corpus.total, cell.corpus.seed,
           "--audit", cell.path("first-audit"),
           "--store", cell.path("sweep.store"))


def without_evidence(payload: bytes) -> bytes:
    report = json.loads(payload)
    for record in report["contracts"]:
        record.pop("evidence", None)
    return (json.dumps(report, indent=2) + "\n").encode()


def sharded_inline(cell: Cell) -> None:
    corpus = cell.corpus
    result = run_sharded_sweep(SweepSpec(total=corpus.total,
                                         seed=corpus.seed),
                               workers=3, world=corpus.world,
                               processes=False)
    cell.survey = (report_to_json(result.report) + "\n").encode()


# -------------------------------------------------------------- cell checks
def fired(*names: str, label: str = "") -> Callable[[Cell], None]:
    """The leg's fault plan demonstrably fired."""
    def check(cell: Cell) -> None:
        total = sum(counter(cell.metrics, name, label) for name in names)
        assert total >= 1, f"{' + '.join(names)} {label} = {total}"
    return check


def serves_reference(cell: Cell) -> None:
    assert cell.bodies.keys() == cell.corpus.bodies.keys()
    diverged = [address for address, body in cell.bodies.items()
                if body != cell.corpus.bodies[address]]
    assert not diverged, (f"{len(diverged)} served bodies differ from the "
                          f"reference store's (first {diverged[0]})")


def evidence_is_complete(cell: Cell) -> None:
    """Every verdict of an audited sweep cites its evidence."""
    assert not any("evidence" in record for record
                   in _records(cell.corpus.survey)[0].values())
    audit = pv.AuditDir(cell.path("audit"))
    recorded = set(audit.addresses())
    proxies = storage_proxies = collisions = 0
    for rendered, record in _records(cell.survey)[0].items():
        address = bytes.fromhex(rendered[2:])
        assert address in recorded, f"{rendered} has no evidence file"
        trail = audit.read(address)
        assert record["evidence"] == trail.digest(), (
            f"{rendered}: embedded digest diverges from its evidence file")
        kinds = {node.kind for section in trail.sections
                 for node in section.walk()}
        if record["is_proxy"]:
            proxies += 1
            assert kinds & {pv.PROXY_PATTERN, pv.DEDUP_HIT}, (
                f"proxy {rendered} cites no pattern or dedup transfer")
        if (record.get("logic_history") or {}).get("slot") is not None:
            storage_proxies += 1
            assert {pv.SEARCH_STEP, pv.LOGIC_HISTORY} <= kinds, (
                f"{rendered} recovered logic without Algorithm 1 steps")
        if record["function_collisions"] or record["storage_collisions"]:
            collisions += 1
            assert (pv.FUNCTION_COLLISION in kinds
                    or not record["function_collisions"])
            assert (pv.STORAGE_COLLISION in kinds
                    or not record["storage_collisions"])
    assert proxies and storage_proxies and collisions, (
        f"corpus too small to exercise every verdict class (proxies="
        f"{proxies}, storage proxies={storage_proxies}, "
        f"collisions={collisions})")
    for address in recorded:
        rendered = "0x" + address.hex()
        answer = json.loads(cli("explain", rendered, "--audit",
                                cell.path("audit"), "--json"))
        trail = answer["evidence"]
        assert (answer["schema"], answer["address"], trail["address"]) \
            == (api.QUERY_SCHEMA, rendered, rendered) and trail["evidence"]
        assert pv.EvidenceTrail.from_dict(trail).to_dict() == trail


def _get(connection: HTTPConnection, path: str) -> tuple[int, dict, bytes]:
    connection.request("GET", path)
    response = connection.getresponse()
    return response.status, dict(response.headers), response.read()


@contextlib.contextmanager
def serving(corpus: Corpus, store_path: str, world=None, *,
            rate_per_s: float = 1e9, burst: int = 10 ** 6):
    """A ``repro serve`` app over ``store_path`` and one keep-alive
    connection to it."""
    config = ServeConfig(store_path=store_path, total=corpus.total,
                         seed=corpus.seed, rate_per_s=rate_per_s,
                         burst=burst)
    with ServeApp(config, landscape=world or corpus.world) as app, \
            contextlib.closing(HTTPConnection("127.0.0.1", app.port,
                                              timeout=30)) as connection:
        yield app, connection


def http_bodies(connection: HTTPConnection, addresses) -> dict[str, bytes]:
    answers = {address: _get(connection, f"/v1/contract/{address}")
               for address in addresses}
    refused = {address: status for address, (status, _, _)
               in answers.items() if status != 200}
    assert not refused, f"non-200 answers: {refused}"
    return {address: body for address, (_, _, body) in answers.items()}


def served_http(cell: Cell) -> None:
    """``repro serve`` over the reference store: the same bytes as
    ``explain --json --store`` and as B, fast, and fast refusals."""
    corpus = cell.corpus
    addresses = list(corpus.bodies)
    with AnalysisStore(corpus.store) as reader:
        settled = reader.contract_count()
    latencies = []
    with serving(corpus, corpus.store) as (_, connection):
        cell.bodies = http_bodies(connection, addresses)
        for index in range(200):
            began = perf_counter()
            status, _, _ = _get(connection, "/v1/contract/"
                                + addresses[index % len(addresses)])
            latencies.append(perf_counter() - began)
            assert status == 200
    p99 = sorted(latencies)[int(0.99 * len(latencies))]
    assert p99 <= 0.100, f"p99 {p99 * 1000:.2f}ms exceeds 100ms"
    for address, body in cell.bodies.items():
        assert cli("explain", address, "--json", "--store",
                   corpus.store) == body, f"{address}: CLI and HTTP differ"

    burst = 20                              # 2x over-admission below
    codes = []
    with serving(corpus, corpus.store, rate_per_s=1.0,
                 burst=burst) as (app, connection):
        for index in range(2 * burst):
            began = perf_counter()
            status, headers, body = _get(connection, "/v1/contract/"
                                         + addresses[index % len(addresses)])
            codes.append(status)
            if status == 429:
                assert perf_counter() - began < 1.0, "a refusal was queued"
                refusal = json.loads(body)
                assert (refusal["schema"], refusal["kind"]) \
                    == (api.QUERY_SCHEMA, "error")
                assert headers.get("Retry-After")
        assert _get(connection, "/metrics")[0] == 200
        shed = codes.count(429)
        assert app.metrics.counter_total("serve.throttled") >= shed
    assert set(codes) <= {200, 429}, f"status codes {sorted(set(codes))}"
    assert shed >= burst // 2, f"only {shed} 429s at 2x over-admission"
    with AnalysisStore(corpus.store) as reader:
        assert reader.contract_count() == settled


def _deploy_pairs(chain, deployer: bytes, tag: str, pairs: int = 3) -> None:
    for index in range(pairs):
        wallet = chain.deploy(deployer, compile_contract(
            stdlib.simple_wallet(f"{tag}W{index}", deployer)).init_code)
        proxy = chain.deploy(deployer, compile_contract(stdlib.storage_proxy(
            f"{tag}P{index}", wallet.created_address, deployer)).init_code)
        assert wallet.success and proxy.success


def post_reorg(cell: Cell) -> None:
    """A follower that lived through a depth-3 reorg serves exactly what
    a fresh follow of the final canonical chain serves."""
    corpus = cell.corpus
    world = generate_landscape(total=corpus.total, seed=corpus.seed)
    doomed = bytes.fromhex("d00d" + "00" * 17 + "01")
    winner = bytes.fromhex("f1f1" + "00" * 17 + "02")
    for deployer in (doomed, winner):
        world.chain.fund(deployer, 10 ** 21)
    survived, fresh = cell.path("survived.store"), cell.path("fresh.store")
    with attach_store(survived) as binding:
        proxion = Proxion(world.node, registry=world.registry,
                          dataset=world.dataset, store=binding)
        binding.bind_metrics(proxion.metrics)
        monitor = DeploymentMonitor(proxion)
        monitor.poll()
        _deploy_pairs(world.chain, doomed, "Doom")
        monitor.poll()
        orphaned = world.chain.fork(3)
        _deploy_pairs(world.chain, winner, "Win")
        alerts = monitor.poll()
    assert len(orphaned) == 3, "one deployment per orphaned block"
    assert any(alert.kind == "reorg" for alert in alerts)
    assert monitor.stats.reorgs == 1
    verdict = fsck(survived)
    assert verdict.clean, verdict.issues
    with attach_store(fresh) as binding:
        DeploymentMonitor(Proxion.from_node(
            build_failover_node(world.node, 1), registry=world.registry,
            dataset=world.dataset, store=binding)).poll()
    with AnalysisStore(survived) as reader:
        assert all(reader.load_analysis_record(address) is None
                   for address in orphaned), "orphaned instance fact kept"
        survived_count = reader.contract_count()
    with AnalysisStore(fresh) as reader:
        assert reader.contract_count() == survived_count
        addresses = sorted("0x" + address.hex()
                           for address in reader.load_analyses())

    with serving(corpus, survived, world) as (_, connection):
        cell.bodies = http_bodies(connection, addresses)
    with serving(corpus, fresh, world) as (_, connection):
        assert cell.bodies == http_bodies(connection, addresses), \
            "survived-store answers diverge from a fresh follow"


CRASH = "--workers 3 --shard-timeout 3 --max-shard-retries 1 " \
        "--metrics-prom {prom} "

#: Every way the matrix runs a sweep.  A new way is one more row.
LEGS: dict[str, Leg] = {
    "supervised": Leg(exact, "--workers 3"),
    "roundrobin": Leg(exact, "--workers 3 --shard-strategy roundrobin"),
    "sharded-inline": Leg(exact, sharded_inline),
    "transient": Leg(exact, "--chaos transient --metrics-prom {prom}",
                     checks=(fired("resilience_retries"),)),
    "supervised+chaos+store": Leg(
        exact, "--workers 3 --chaos transient --store {store}",
        checks=(serves_reference,)),
    "warm-store": Leg(exact, "--store {store} --incremental",
                      start=half_settled, checks=(serves_reference,)),
    "warm-store-supervised": Leg(
        exact, "--store {store} --incremental --workers 3",
        start=half_settled, checks=(serves_reference,)),
    "failover": Leg(exact, "--rpc-endpoints 2 --chaos outage "
                           "--metrics-prom {prom}",
                    checks=(fired("chain_failover_switches"),)),
    "audited": Leg(exact, "--audit {audit}", view=without_evidence,
                   checks=(evidence_is_complete,)),
    "audited-supervised": Leg(exact, "--audit {audit} --workers 3",
                              against="audited",
                              checks=(evidence_is_complete,)),
    "audited-warm": Leg(exact, "--audit {audit} --store {store} "
                               "--incremental",
                        start=audited_cold, against="audited"),
    "audited-warm-supervised": Leg(
        exact, "--audit {audit} --store {store} --incremental --workers 3",
        start=lambda cell: half_settled(cell, cell.path("first-audit")),
        against="audited"),
    "outage": Leg(conservation, "--chaos outage"),
    "chain-reorg": Leg(reorg, "--chaos chain-reorg --metrics-prom {prom}",
                       checks=(fired("faults_injected",
                                     label='kind="reorg"'),)),
    "worker-chaos": Leg(exact, CRASH + "--chaos worker-chaos --chaos-seed 5",
                        checks=(fired("parallel_respawns",
                                      "parallel_hung_kills"),)),
    "worker-poison": Leg(crash, CRASH + "--chaos worker-poison "
                                        "--chaos-seed 99",
                         checks=(fired("parallel_respawns",
                                       "parallel_hung_kills"),
                                 fired("parallel_poison_contracts"))),
    "served-http": Leg(exact, served_http, checks=(serves_reference,)),
    "post-reorg": Leg(exact, post_reorg),
}


class Matrix:
    """Builds each corpus reference and each cell once per module."""

    def __init__(self, root) -> None:
        self.root = root
        self.corpora: dict[tuple[int, int], Corpus] = {}
        self.cells: dict[tuple[str, int, int], Cell] = {}

    def corpus(self, total: int, seed: int) -> Corpus:
        if (total, seed) not in self.corpora:
            store = str(self.root / f"reference-{total}-{seed}.store")
            reference = survey(total, seed)
            assert survey(total, seed, "--store", store) == reference
            world = generate_landscape(total=total, seed=seed)
            self.corpora[total, seed] = Corpus(
                total, seed, world, reference, store,
                served(store, world.addresses()))
        return self.corpora[total, seed]

    def cell(self, name: str, total: int, seed: int) -> Cell:
        if (name, total, seed) not in self.cells:
            leg = LEGS[name]
            directory = self.root / f"{name}-{total}-{seed}"
            directory.mkdir()
            cell = Cell(self.corpus(total, seed), str(directory))
            if leg.start is not None:
                leg.start(cell)
            if callable(leg.run):
                leg.run(cell)
            else:
                run_cli(cell, leg.run)
            self.cells[name, total, seed] = cell
        return self.cells[name, total, seed]


@pytest.fixture(scope="module")
def matrix(tmp_path_factory) -> Matrix:
    return Matrix(tmp_path_factory.mktemp("matrix"))


@pytest.mark.parametrize("total,seed", CORPORA,
                         ids=[f"{total}x{seed}" for total, seed in CORPORA])
@pytest.mark.parametrize("name", LEGS)
def test_cell(matrix: Matrix, name: str, total: int, seed: int) -> None:
    leg = LEGS[name]
    cell = matrix.cell(name, total, seed)
    if cell.survey is not None:
        expected = (matrix.cell(leg.against, total, seed).survey
                    if leg.against else cell.corpus.survey)
        leg.mode(leg.view(cell.survey), expected, cell.metrics)
    for check in leg.checks:
        check(cell)


# ------------------------------------------ the modes can fail (unit tests)
def _payload(contracts=(), failures=(), hits: int = 0) -> bytes:
    return (json.dumps({
        "summary": {"dedup": {"proxy_check": {"hits": hits}}},
        "contracts": [{"address": address, "is_proxy": True}
                      for address in contracts],
        "failures": [{"address": address, "cause": cause, "stage": stage,
                      "error": ""} for address, cause, stage in failures],
    }, indent=2) + "\n").encode()


REFERENCE = _payload(["0x01", "0x02"], hits=2)
REORG_FIRED = {'faults_injected{kind="reorg",method="eth_getCode"}': 1.0}


def test_exact_rejects_one_changed_byte() -> None:
    exact(REFERENCE, REFERENCE, {})
    changed = REFERENCE.replace(b'"0x02"', b'"0x03"')
    with pytest.raises(AssertionError, match="not byte-identical"):
        exact(changed, REFERENCE, {})


def test_conservation_rejects_a_lost_address() -> None:
    conservation(_payload(["0x01"], [("0x02", "circuit-open", "analysis")]),
                 REFERENCE, {})
    with pytest.raises(AssertionError, match="silently lost"):
        conservation(_payload(["0x01"]), REFERENCE, {})


def test_crash_rejects_foreign_causes_and_uncounted_quarantines() -> None:
    healed = _payload(["0x01"], [("0x02", "worker-crash", "worker")])
    poison = {"parallel_poison_contracts": 1.0}
    # The quarantine drops 0x02 from the dedup replay: the blocks differ.
    crash(healed, REFERENCE, poison)
    with pytest.raises(AssertionError, match="not classified worker-crash"):
        crash(_payload(["0x01"], [("0x02", "circuit-open", "worker")]),
              REFERENCE, poison)
    with pytest.raises(AssertionError, match="poison contracts counted"):
        crash(healed, REFERENCE, {"parallel_poison_contracts": 2.0})
    with pytest.raises(AssertionError, match="silently lost"):
        crash(_payload(["0x01"]), REFERENCE, {})


def test_reorg_rejects_unexplained_gaps_and_any_quarantine() -> None:
    reorg(_payload(["0x01"]), REFERENCE, REORG_FIRED)
    with pytest.raises(AssertionError, match="no reorg fired"):
        reorg(_payload(["0x01"]), REFERENCE, {})
    with pytest.raises(AssertionError, match="quarantined"):
        reorg(_payload(["0x01"], [("0x02", "worker-crash", "worker")]),
              REFERENCE, REORG_FIRED)
