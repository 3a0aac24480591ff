"""The live ops HTTP surface: /metrics, /healthz, /progress.

``survey --serve PORT`` starts an :class:`ObsServer` next to the sweep — a stdlib
:class:`~http.server.ThreadingHTTPServer` on a daemon thread, zero
dependencies, binding loopback by default.  Three routes:

* ``GET /metrics`` — the registry in Prometheus text exposition format,
  **byte-identical** to :func:`repro.obs.export.to_prometheus` over the
  same registry (the CI gate asserts this);
* ``GET /healthz`` — the :func:`repro.obs.console.journal_health`
  verdict as JSON, status ``200`` when healthy and ``503`` when the
  supervisor or a worker looks wedged (so a liveness probe needs no body
  parsing);
* ``GET /progress`` — the :func:`repro.obs.console.journal_snapshot`
  status in the ``repro.query/1`` envelope (kind ``status``), exactly
  the bytes ``repro status --json`` prints.

Routing lives in :func:`route_observability` so the ``repro serve``
daemon (:mod:`repro.serve`) mounts the *same* handlers on its unified
server — one implementation, two front doors, byte-identical answers.
"""

from __future__ import annotations

import json
import threading
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Any, Callable

from repro.obs.export import to_prometheus
from repro.obs.registry import MetricsRegistry


def route_observability(path: str,
                        registry: Callable[[], MetricsRegistry],
                        *,
                        journal_path: str | None = None,
                        hung_after_s: float = 30.0,
                        ) -> tuple[int, str, str] | None:
    """Answer one observability route, or ``None`` for an unknown path.

    The shared implementation behind both :class:`ObsServer` and the
    ``repro serve`` daemon, so both serve byte-identical ``/metrics``.
    """
    path = path.split("?", 1)[0]
    if path == "/metrics":
        # Exactly the exporter's output — byte-identical by contract.
        return (200, "text/plain; version=0.0.4; charset=utf-8",
                to_prometheus(registry()))
    if path == "/healthz":
        from repro.obs.console import journal_health
        if journal_path is None:
            verdict: dict[str, Any] = {"healthy": True,
                                       "reason": "no journal configured"}
        else:
            verdict = journal_health(journal_path,
                                     hung_after_s=hung_after_s)
        status = 200 if verdict.get("healthy") else 503
        return (status, "application/json",
                json.dumps(verdict, sort_keys=True) + "\n")
    if path == "/progress":
        from repro import api
        from repro.obs.console import journal_snapshot
        if journal_path is None:
            return (404, "application/json",
                    json.dumps({"error": "no journal configured"}) + "\n")
        try:
            snapshot = journal_snapshot(journal_path)
        except Exception as error:
            return (503, "application/json",
                    json.dumps({"error": str(error)}) + "\n")
        return (200, "application/json",
                api.to_json(api.status_answer(snapshot)) + "\n")
    return None


class ObsServer:
    """Serve /metrics, /healthz and /progress for one running sweep.

    ``registry`` is a :class:`MetricsRegistry` or a zero-argument callable
    returning one (resolved per request).  ``journal_path`` is optional:
    without it ``/healthz`` reports healthy-with-no-journal and
    ``/progress`` answers 404.  ``port=0`` binds an ephemeral port —
    read :attr:`port`/:attr:`url` after construction.
    """

    def __init__(self,
                 registry: MetricsRegistry | Callable[[], MetricsRegistry],
                 *,
                 journal_path: str | None = None,
                 hung_after_s: float = 30.0,
                 host: str = "127.0.0.1",
                 port: int = 0) -> None:
        self._registry = registry
        self.journal_path = journal_path
        self.hung_after_s = hung_after_s
        server = self

        class _Handler(BaseHTTPRequestHandler):
            def log_message(self, format: str, *args: Any) -> None:
                pass  # a scrape every few seconds must not spam stderr

            def do_GET(self) -> None:  # noqa: N802 (stdlib handler name)
                try:
                    route = server._route(self.path)
                except Exception as error:  # defensive: a scrape must
                    route = (500, "text/plain; charset=utf-8",
                             f"internal error: {error}\n")  # never kill it
                status, content_type, body = route
                payload = body.encode("utf-8")
                self.send_response(status)
                self.send_header("Content-Type", content_type)
                self.send_header("Content-Length", str(len(payload)))
                self.end_headers()
                self.wfile.write(payload)

        self._httpd = ThreadingHTTPServer((host, port), _Handler)
        self._httpd.daemon_threads = True
        self._thread = threading.Thread(target=self._httpd.serve_forever,
                                        name="repro-obs-http", daemon=True)
        self._thread.start()

    # ------------------------------------------------------------ properties
    @property
    def port(self) -> int:
        return self._httpd.server_address[1]

    @property
    def url(self) -> str:
        host = self._httpd.server_address[0]
        return f"http://{host}:{self.port}"

    # --------------------------------------------------------------- routing
    def _resolve_registry(self) -> MetricsRegistry:
        registry = self._registry
        return registry() if callable(registry) else registry

    def _route(self, path: str) -> tuple[int, str, str]:
        route = route_observability(path, self._resolve_registry,
                                    journal_path=self.journal_path,
                                    hung_after_s=self.hung_after_s)
        if route is not None:
            return route
        return (404, "text/plain; charset=utf-8",
                "unknown path; try /metrics, /healthz or /progress\n")

    # ------------------------------------------------------------- lifecycle
    def close(self) -> None:
        self._httpd.shutdown()
        self._httpd.server_close()
        self._thread.join(timeout=2.0)

    def __enter__(self) -> "ObsServer":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()


__all__ = ["ObsServer", "route_observability"]
