"""``repro.serve`` — the long-running analysis daemon (ROADMAP item 2).

``repro serve --store PATH [--port N]`` promotes the repo from a
one-shot sweep tool into a persistent service, the way the paper frames
Proxion itself (the real system ships a ``Throttler.py`` and a
rate-limiting sidecar because it answers queries under load):

* **chain following** — a :class:`~repro.core.monitor.DeploymentMonitor`
  polls the chain on a background thread, analyzes every new deployment
  and writes it through the :class:`~repro.store.binding.StoreBinding`,
  keeping the durable store hot;
* **point queries** — ``GET /v1/contract/ADDR`` answers "is this a
  proxy? what is its logic history? what collisions?" from WAL reader
  connections (one per server thread, concurrent with the writer); a
  store miss triggers a fresh analysis under the writer lock, whose
  result is written through so the next query hits;
* **admission control** — per-client token buckets (429 + Retry-After)
  in front of a bounded slots+queue gate (503 on overflow or wait
  timeout), with every shed request counted in the metrics registry —
  under overload the daemon degrades to fast refusals, never to queue
  collapse (the ``served-http`` cell of
  ``tests/integration/test_equivalence.py`` checks this at 2x
  over-admission);
* **one coherent surface** — the PR 6 observability routes
  (``/metrics``, ``/healthz``, ``/progress``) are mounted on the same
  server via the shared :func:`~repro.obs.http.route_observability`
  handlers, and stay *unthrottled* so probes are never shed.

Every ``/v1`` body is produced by :mod:`repro.api`'s canonical encoder,
which is what makes ``repro explain ADDR --json --store PATH`` and
``GET /v1/contract/ADDR`` byte-identical for the same store state.
"""

from __future__ import annotations

import threading
import time
from collections import OrderedDict
from dataclasses import dataclass
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Any, Callable

from repro import api
from repro.errors import ConfigurationError


# ------------------------------------------------------------ configuration
@dataclass(slots=True)
class ServeConfig:
    """Everything ``repro serve`` can tune (CLI flags mirror fields)."""

    store_path: str
    host: str = "127.0.0.1"
    port: int = 0
    # Landscape the daemon fronts (must match the sweep that seeded the
    # store, or fresh analyses would run against a different world).
    total: int = 400
    seed: int = 42
    chain: str = "ethereum"
    diamonds: bool = False
    # Chain following.
    follow: bool = False
    poll_interval_s: float = 0.25
    simulate_deploys: int = 0      # synthetic deployments per poll (demo)
    # RPC backends behind the daemon; > 1 wires a FailoverNode so a
    # primary-endpoint outage degrades to a failover, not an outage.
    rpc_endpoints: int = 1
    # Rate limiting (per client) and admission control (global).
    rate_per_s: float = 200.0
    burst: int = 40
    max_clients: int = 1024
    slots: int = 8
    queue_limit: int = 32
    queue_timeout_s: float = 2.0
    # Optional flight-recorder journal for /progress and /healthz.
    journal_path: str | None = None
    hung_after_s: float = 30.0


# ------------------------------------------------------------ rate limiting
class TokenBucket:
    """One client's token bucket: ``burst`` capacity, ``rate``/s refill."""

    __slots__ = ("rate", "burst", "tokens", "updated")

    def __init__(self, rate: float, burst: float, now: float) -> None:
        self.rate = rate
        self.burst = burst
        self.tokens = burst
        self.updated = now

    def try_take(self, now: float) -> float:
        """Take one token; 0.0 when admitted, else seconds until one."""
        elapsed = max(0.0, now - self.updated)
        self.tokens = min(self.burst, self.tokens + elapsed * self.rate)
        self.updated = now
        if self.tokens >= 1.0:
            self.tokens -= 1.0
            return 0.0
        return (1.0 - self.tokens) / self.rate


class RateLimiter:
    """Per-client token buckets with bounded client tracking.

    ``admit`` returns ``0.0`` when the request may proceed, else the
    ``Retry-After`` hint in seconds.  Client state is an LRU capped at
    ``max_clients`` — an address-rotating flood cannot grow memory, it
    only recycles (full) buckets.  ``clock`` is injectable so tests
    drive time explicitly.
    """

    def __init__(self, rate_per_s: float, burst: int, *,
                 max_clients: int = 1024,
                 clock: Callable[[], float] = time.monotonic) -> None:
        if rate_per_s <= 0:
            raise ConfigurationError(
                f"rate limit must be positive, got {rate_per_s}")
        self.rate_per_s = rate_per_s
        self.burst = max(1, burst)
        self.max_clients = max(1, max_clients)
        self._clock = clock
        self._lock = threading.Lock()
        self._buckets: OrderedDict[str, TokenBucket] = OrderedDict()

    def admit(self, client: str) -> float:
        now = self._clock()
        with self._lock:
            bucket = self._buckets.get(client)
            if bucket is None:
                bucket = TokenBucket(self.rate_per_s, float(self.burst), now)
                self._buckets[client] = bucket
                while len(self._buckets) > self.max_clients:
                    self._buckets.popitem(last=False)
            else:
                self._buckets.move_to_end(client)
            return bucket.try_take(now)


class AdmissionGate:
    """Bounded concurrency (slots) behind a bounded wait queue.

    ``enter()`` returns ``"admitted"`` (caller must ``leave()``),
    ``"queue-full"`` (shed immediately — the queue never grows past
    ``queue_limit``, which is what prevents collapse under sustained
    overload) or ``"timeout"`` (shed after waiting ``timeout_s``).
    """

    def __init__(self, slots: int, queue_limit: int,
                 timeout_s: float) -> None:
        self.slots = max(1, slots)
        self.queue_limit = max(0, queue_limit)
        self.timeout_s = timeout_s
        self._condition = threading.Condition()
        self._active = 0
        self._waiting = 0

    @property
    def depth(self) -> int:
        """Requests currently queued (for the high-water gauge)."""
        return self._waiting

    @property
    def active(self) -> int:
        """Requests currently executing (the drain path waits on this)."""
        return self._active

    def enter(self) -> str:
        deadline = time.monotonic() + self.timeout_s
        with self._condition:
            if self._active < self.slots:
                self._active += 1
                return "admitted"
            if self._waiting >= self.queue_limit:
                return "queue-full"
            self._waiting += 1
            try:
                while self._active >= self.slots:
                    remaining = deadline - time.monotonic()
                    if remaining <= 0:
                        return "timeout"
                    self._condition.wait(remaining)
                self._active += 1
                return "admitted"
            finally:
                self._waiting -= 1

    def leave(self) -> None:
        with self._condition:
            self._active -= 1
            self._condition.notify()


# ------------------------------------------------------------ query service
class QueryService:
    """Store-backed point queries with on-miss fresh analysis.

    Reads go through per-thread WAL reader connections — SQLite's WAL
    mode lets any number of them answer while the single writer (the
    chain follower, or a miss-path analysis) commits.  Writes serialize
    on ``writer_lock``; the miss path re-checks the store under the lock
    so two racing misses on one address analyze it once.
    """

    def __init__(self, store_path: str, proxion,
                 writer_lock: threading.Lock) -> None:
        self._store_path = store_path
        self._proxion = proxion
        self._writer_lock = writer_lock
        self._local = threading.local()
        metrics = proxion.metrics
        self._hits = metrics.counter("serve.queries", result="hit")
        self._fresh = metrics.counter("serve.queries", result="fresh")
        self._latency = metrics.histogram("serve.query_seconds")

    def _reader(self):
        store = getattr(self._local, "store", None)
        if store is None:
            from repro.store.store import AnalysisStore
            store = AnalysisStore(self._store_path)
            self._local.store = store
        return store

    def query(self, address: bytes) -> api.ContractAnswer:
        started = time.perf_counter()
        try:
            answer = api.answer_from_store(self._reader(), address)
            if answer is not None:
                self._hits.inc()
                return answer
            with self._writer_lock:
                # A racing miss (or the follower) may have settled the
                # address while we waited; WAL readers see its commit.
                answer = api.answer_from_store(self._reader(), address)
                if answer is not None:
                    self._hits.inc()
                    return answer
                answer = api.fresh_answer(self._proxion, address)
            self._fresh.inc()
            return answer
        finally:
            self._latency.observe(time.perf_counter() - started)


# ------------------------------------------------------------------ the app
class ServeApp:
    """The assembled daemon: store + pipeline + follower + HTTP server.

    ``landscape`` is injectable for tests; by default the deterministic
    ``(total, seed, chain)`` landscape is regenerated, which is the same
    world any seeding sweep ran against.
    """

    def __init__(self, config: ServeConfig, *, landscape=None) -> None:
        from repro.chain.profiles import get_profile
        from repro.core import Proxion, ProxionOptions
        from repro.core.monitor import DeploymentMonitor
        from repro.corpus import generate_landscape
        from repro.store import attach_store

        self.config = config
        if landscape is None:
            landscape = generate_landscape(
                total=config.total, seed=config.seed,
                chain_profile=get_profile(config.chain))
        self.landscape = landscape

        binding = attach_store(config.store_path)
        if binding is None:
            raise ConfigurationError(
                f"cannot open store {config.store_path!r} for serving")
        self._binding = binding
        node = landscape.node
        if config.rpc_endpoints > 1:
            from repro.chain.failover import build_failover_node
            node = build_failover_node(node, config.rpc_endpoints)
        self._proxion = Proxion(
            node, registry=landscape.registry,
            dataset=landscape.dataset,
            options=ProxionOptions(detect_diamonds=config.diamonds),
            store=binding)
        self.metrics = self._proxion.metrics
        self.monitor = DeploymentMonitor(self._proxion)
        # The store already settles the chain's history; follow from the
        # head instead of replaying every historical block at startup.
        self.monitor.catch_up()

        self._writer_lock = threading.Lock()
        self.queries = QueryService(config.store_path, self._proxion,
                                    self._writer_lock)
        self.limiter = RateLimiter(config.rate_per_s, config.burst,
                                   max_clients=config.max_clients)
        self.gate = AdmissionGate(config.slots, config.queue_limit,
                                  config.queue_timeout_s)
        self._throttled = self.metrics.counter("serve.throttled")
        self._shed = {reason: self.metrics.counter("serve.shed",
                                                   reason=reason)
                      for reason in ("queue-full", "timeout", "draining")}
        self._queue_depth = self.metrics.gauge("serve.queue_depth")
        self._polls = self.metrics.counter("serve.follower_polls")

        self._stop = threading.Event()
        self._draining = False
        self._closed = False
        self._follower: threading.Thread | None = None
        if config.follow:
            self._follower = threading.Thread(
                target=self._follow, name="repro-serve-follower", daemon=True)

        app = self

        class _Handler(BaseHTTPRequestHandler):
            protocol_version = "HTTP/1.1"   # keep-alive: bench clients
            #                                 reuse connections
            # Without TCP_NODELAY, Nagle's algorithm holds the response
            # tail for the client's delayed ACK (~40ms per request on a
            # reused connection) — two orders of magnitude on p50.
            disable_nagle_algorithm = True

            def log_message(self, format: str, *args: Any) -> None:
                pass  # request logging would melt stderr under load

            def do_GET(self) -> None:  # noqa: N802 (stdlib handler name)
                try:
                    status, content_type, body, headers = app._route(
                        self.path, self.client_address[0])
                except Exception as error:   # defensive: a query must
                    body = (f"internal error: {error}\n"   # never kill
                            .encode("utf-8"))              # the server
                    status, content_type, headers = (
                        500, "text/plain; charset=utf-8", {})
                self.send_response(status)
                self.send_header("Content-Type", content_type)
                self.send_header("Content-Length", str(len(body)))
                for key, value in headers.items():
                    self.send_header(key, value)
                self.end_headers()
                self.wfile.write(body)

        self._httpd = ThreadingHTTPServer((config.host, config.port),
                                          _Handler)
        self._httpd.daemon_threads = True
        self._server_thread = threading.Thread(
            target=self._httpd.serve_forever, name="repro-serve-http",
            daemon=True)

    # ------------------------------------------------------------ lifecycle
    def start(self) -> "ServeApp":
        self._server_thread.start()
        if self._follower is not None:
            self._follower.start()
        return self

    def close(self, drain_timeout_s: float = 5.0) -> None:
        """Graceful drain, then teardown.  Idempotent (a signal handler
        and a ``finally`` may both call it).

        Order matters: first refuse new ``/v1`` work (503 + Retry-After),
        then stop the follower *at a poll boundary* (it checks the stop
        event between polls, so no analysis is interrupted mid-contract),
        then wait for admitted in-flight queries to finish, and only then
        tear down the HTTP server and close the store cleanly.
        """
        if self._closed:
            return
        self._closed = True
        self._draining = True
        self._stop.set()
        if self._follower is not None and self._follower.is_alive():
            self._follower.join(timeout=max(drain_timeout_s, 5.0))
        deadline = time.monotonic() + drain_timeout_s
        while self.gate.active > 0 and time.monotonic() < deadline:
            time.sleep(0.01)
        self._httpd.shutdown()
        self._httpd.server_close()
        if self._server_thread.is_alive():
            self._server_thread.join(timeout=2.0)
        self._binding.close()

    def __enter__(self) -> "ServeApp":
        return self.start()

    def __exit__(self, *_exc) -> None:
        self.close()

    @property
    def port(self) -> int:
        return self._httpd.server_address[1]

    @property
    def url(self) -> str:
        host = self._httpd.server_address[0]
        return f"http://{host}:{self.port}"

    # ------------------------------------------------------------- follower
    def _follow(self) -> None:
        from repro.lang import compile_contract, stdlib

        deployer = bytes.fromhex("00000000000000000000000000000000005e12e5")
        self.landscape.chain.fund(deployer, 10 ** 24)
        epoch = 0
        while not self._stop.is_set():
            if self.config.simulate_deploys:
                # Synthetic traffic for demos and the smoke gate: each
                # poll deploys a small wallet and a minimal clone of it,
                # so the follower always has genuinely new code to chew.
                for index in range(self.config.simulate_deploys):
                    contract = compile_contract(stdlib.simple_wallet(
                        f"Svc{epoch}_{index}", deployer))
                    receipt = self.landscape.chain.deploy(
                        deployer, contract.init_code)
                    self.landscape.chain.deploy(
                        deployer,
                        stdlib.minimal_proxy_init(receipt.created_address))
                epoch += 1
            with self._writer_lock:
                self.monitor.poll()
            self._polls.inc()
            self._stop.wait(self.config.poll_interval_s)

    # --------------------------------------------------------------- routing
    def _answer(self, answer: api.Answer, status: int = 200,
                headers: dict[str, str] | None = None,
                ) -> tuple[int, str, bytes, dict[str, str]]:
        return (status, "application/json", api.encode(answer),
                headers or {})

    def _route(self, path: str, client: str,
               ) -> tuple[int, str, bytes, dict[str, str]]:
        path = path.split("?", 1)[0]
        # Observability routes stay unthrottled: shedding a liveness
        # probe under load would turn overload into a false outage.
        obs = self._route_obs(path)
        if obs is not None:
            status, content_type, body = obs
            return (status, content_type, body.encode("utf-8"), {})
        if path.startswith("/v1/"):
            return self._route_v1(path, client)
        body = ("unknown path; try /v1/contract/ADDR, /v1/server, "
                "/metrics, /healthz or /progress\n").encode("utf-8")
        return (404, "text/plain; charset=utf-8", body, {})

    def _route_obs(self, path: str) -> tuple[int, str, str] | None:
        from repro.obs.http import route_observability
        return route_observability(
            path, lambda: self.metrics,
            journal_path=self.config.journal_path,
            hung_after_s=self.config.hung_after_s)

    def _route_v1(self, path: str, client: str,
                  ) -> tuple[int, str, bytes, dict[str, str]]:
        if self._draining:
            # Shutdown in progress: refuse new query work outright while
            # already-admitted requests finish.  Clients get the same
            # RFC 9110 contract as overload shedding: 503 + Retry-After.
            self._shed["draining"].inc()
            return self._answer(
                api.ErrorAnswer(error="shutting down (draining)",
                                status=503, retry_after_s=1.0),
                status=503, headers={"Retry-After": "1"})
        retry_after = self.limiter.admit(client)
        if retry_after > 0:
            self._throttled.inc()
            seconds = max(1, int(retry_after + 0.999))
            return self._answer(
                api.ErrorAnswer(error="rate limit exceeded", status=429,
                                retry_after_s=retry_after),
                status=429, headers={"Retry-After": str(seconds)})
        outcome = self.gate.enter()
        self._queue_depth.set(self.gate.depth)
        if outcome != "admitted":
            self._shed[outcome].inc()
            retry_hint = self.config.queue_timeout_s
            return self._answer(
                api.ErrorAnswer(error=f"overloaded ({outcome})", status=503,
                                retry_after_s=retry_hint),
                status=503,
                headers={"Retry-After": str(max(1, int(retry_hint)))})
        try:
            return self._dispatch_v1(path)
        finally:
            self.gate.leave()

    def _dispatch_v1(self, path: str,
                     ) -> tuple[int, str, bytes, dict[str, str]]:
        if path == "/v1/server":
            return self._answer(self._server_answer())
        prefix = "/v1/contract/"
        if path.startswith(prefix):
            rendered = path[len(prefix):]
            try:
                address = bytes.fromhex(rendered.removeprefix("0x"))
            except ValueError:
                address = b""
            if len(address) != 20:
                return self._answer(
                    api.ErrorAnswer(
                        error=f"{rendered!r} is not a 20-byte hex address",
                        status=400),
                    status=400)
            return self._answer(self.queries.query(address))
        return self._answer(
            api.ErrorAnswer(error=f"unknown v1 route {path!r}", status=404),
            status=404)

    def _server_answer(self) -> api.ServerAnswer:
        store = self.queries._reader()
        counts = {
            table: store._connection.execute(
                f"SELECT COUNT(*) FROM {table}").fetchone()[0]
            for table in ("analyses", "failures", "skips", "proxy_verdicts")
        }
        queries = self.metrics.counter_total("serve.queries")
        return api.ServerAnswer(
            store=self.config.store_path,
            contracts=counts["analyses"],
            failures=counts["failures"],
            skips=counts["skips"],
            settled_code_hashes=counts["proxy_verdicts"],
            following=self._follower is not None,
            blocks_scanned=self.monitor.stats.blocks_scanned,
            queries=int(queries),
        )


def serve(config: ServeConfig, *, landscape=None) -> ServeApp:
    """Build and start a daemon; the caller owns ``close()``."""
    return ServeApp(config, landscape=landscape).start()


__all__ = [
    "AdmissionGate",
    "QueryService",
    "RateLimiter",
    "ServeApp",
    "ServeConfig",
    "TokenBucket",
    "serve",
]
