"""The daemon's HTTP surface: /v1 queries, throttling, shared obs routes.

The headline guarantee under test: for the same store state,
``repro explain ADDR --json --store PATH`` and ``GET /v1/contract/ADDR``
return **byte-identical** bodies — neither surface owns a serializer.
"""

from __future__ import annotations

import json
import urllib.error
import urllib.request

import pytest

from repro.cli import main
from repro.obs.export import to_prometheus
from repro.serve import ServeApp, ServeConfig
from repro.store.store import AnalysisStore

from tests.serve.conftest import SEED, TOTAL


def _get(url: str) -> tuple[int, dict, bytes]:
    try:
        with urllib.request.urlopen(url, timeout=10) as response:
            return response.status, dict(response.headers), response.read()
    except urllib.error.HTTPError as error:
        return error.code, dict(error.headers), error.read()


@pytest.fixture(scope="module")
def app(svc_store, svc_landscape):
    config = ServeConfig(store_path=svc_store, total=TOTAL, seed=SEED)
    with ServeApp(config, landscape=svc_landscape) as running:
        yield running


def _stored_proxy(svc_store) -> str:
    with AnalysisStore(svc_store) as store:
        return store.proxies()[0][0]


def test_contract_query_is_byte_identical_to_cli(app, svc_store,
                                                 capsys) -> None:
    rendered = _stored_proxy(svc_store)
    status, headers, body = _get(f"{app.url}/v1/contract/{rendered}")
    assert status == 200
    assert headers["Content-Type"] == "application/json"
    assert main(["explain", rendered, "--json", "--store", svc_store]) == 0
    assert body == capsys.readouterr().out.encode("utf-8")
    payload = json.loads(body)
    assert payload["schema"] == "repro.query/1"
    assert payload["verdict"] == "proxy"
    assert payload["source"] == "store"


def test_miss_analyzes_fresh_then_settles_into_the_store(app) -> None:
    rendered = "0x" + "dd" * 20     # nowhere in the landscape: dead
    status, _, body = _get(f"{app.url}/v1/contract/{rendered}")
    assert status == 200
    first = json.loads(body)
    assert (first["verdict"], first["source"]) == ("skipped", "fresh")
    # The miss wrote through; the WAL reader sees the commit.
    status, _, body = _get(f"{app.url}/v1/contract/{rendered}")
    assert status == 200
    second = json.loads(body)
    assert (second["verdict"], second["source"]) == ("skipped", "store")


def test_server_answer_reports_store_vitals(app, svc_store) -> None:
    rendered = _stored_proxy(svc_store)
    assert _get(f"{app.url}/v1/contract/{rendered}")[0] == 200
    status, _, body = _get(f"{app.url}/v1/server")
    assert status == 200
    payload = json.loads(body)
    assert payload["kind"] == "server"
    assert payload["store"] == svc_store
    with AnalysisStore(svc_store) as store:
        assert payload["contracts"] == store.contract_count()
    assert payload["following"] is False
    assert payload["queries"] > 0


def test_bad_address_is_a_typed_400(app) -> None:
    status, _, body = _get(f"{app.url}/v1/contract/not-hex")
    assert status == 400
    payload = json.loads(body)
    assert payload["kind"] == "error" and payload["status"] == 400


def test_unknown_v1_route_is_a_typed_404(app) -> None:
    status, _, body = _get(f"{app.url}/v1/nope")
    assert status == 404
    assert json.loads(body)["kind"] == "error"


def test_unknown_path_names_the_surface(app) -> None:
    status, _, body = _get(f"{app.url}/nope")
    assert status == 404
    assert b"/v1/contract/ADDR" in body


def test_obs_routes_are_mounted_on_the_same_server(app) -> None:
    status, _, body = _get(f"{app.url}/metrics")
    assert status == 200
    assert body == to_prometheus(app.metrics).encode("utf-8")
    status, _, body = _get(f"{app.url}/healthz")
    assert status == 200
    assert json.loads(body)["healthy"] is True
    status, _, _ = _get(f"{app.url}/progress")
    assert status == 404                 # no journal configured


def test_rate_limit_sheds_429_with_retry_after(svc_store,
                                               svc_landscape) -> None:
    config = ServeConfig(store_path=svc_store, total=TOTAL, seed=SEED,
                         rate_per_s=0.5, burst=3)
    rendered = _stored_proxy(svc_store)
    with ServeApp(config, landscape=svc_landscape) as app:
        codes = [_get(f"{app.url}/v1/contract/{rendered}")[0]
                 for _ in range(5)]
        assert codes[:3] == [200, 200, 200]
        assert set(codes[3:]) == {429}
        status, headers, body = _get(f"{app.url}/v1/contract/{rendered}")
        assert status == 429
        assert int(headers["Retry-After"]) >= 1
        payload = json.loads(body)
        assert payload["kind"] == "error"
        assert payload["retry_after_s"] > 0
        # Observability is never shed: probes must not see overload as
        # an outage.
        assert _get(f"{app.url}/metrics")[0] == 200
        assert app.metrics.counter_total("serve.throttled") >= 3


# ------------------------------------------------------------ survey --serve
def test_survey_serve_flag_announces_url(tmp_path, capsys) -> None:
    journal = str(tmp_path / "sweep.events.jsonl")
    assert main(["survey", "--total", "20", "--seed", "3",
                 "--events", journal, "--serve", "0"]) == 0
    output = capsys.readouterr()
    assert "obs: serving /metrics /healthz /progress at http://127.0.0.1:" \
        in output.out
    assert "deprecated" not in output.err


def test_both_spellings_route_identically(app) -> None:
    # survey --serve constructs an ObsServer, whose routes delegate to
    # route_observability — the same shared handler ServeApp mounts.
    # Equality of the function's output with the daemon's live /metrics
    # body is what makes the two servers byte-identical.
    from repro.obs.http import route_observability

    status, content_type, text = route_observability(
        "/metrics", lambda: app.metrics)
    _, _, body = _get(f"{app.url}/metrics")
    assert status == 200
    assert body == text.encode("utf-8")
    assert content_type.startswith("text/plain")
