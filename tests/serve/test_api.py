"""The ``repro.query/1`` answer records and their canonical encoding.

The snapshot tests pin the wire format with literal JSON: any change to
key names, ordering, indentation or the envelope shape fails here first,
which is the point — ``repro.query/1`` is a versioned contract, and a
different shape needs a ``repro.query/2``.
"""

from __future__ import annotations

import json

from repro import api
from repro.core.report import ContractFailure
from repro.store.store import AnalysisStore

ADDRESS = "0x" + "11" * 20

# ----------------------------------------------------- wire-format snapshots
CONTRACT_SNAPSHOT = """\
{
  "address": "0x1111111111111111111111111111111111111111",
  "analysis": null,
  "failure": null,
  "kind": "contract",
  "schema": "repro.query/1",
  "source": "store",
  "verdict": "skipped"
}"""

STATUS_SNAPSHOT = """\
{
  "kind": "status",
  "schema": "repro.query/1",
  "status": {
    "events": 3,
    "finished": true
  }
}"""

ERROR_SNAPSHOT = """\
{
  "error": "rate limit exceeded",
  "kind": "error",
  "retry_after_s": 0.5,
  "schema": "repro.query/1",
  "status": 429
}"""


def test_contract_answer_wire_format_is_pinned() -> None:
    answer = api.ContractAnswer(address=ADDRESS, verdict=api.VERDICT_SKIPPED,
                                source=api.SOURCE_STORE,
                                analysis=None, failure=None)
    assert api.to_json(answer) == CONTRACT_SNAPSHOT


def test_status_answer_wire_format_is_pinned() -> None:
    class Snapshot:
        @staticmethod
        def to_dict():
            return {"finished": True, "events": 3}

    assert api.to_json(api.status_answer(Snapshot())) == STATUS_SNAPSHOT


def test_error_answer_wire_format_is_pinned() -> None:
    answer = api.ErrorAnswer(error="rate limit exceeded", status=429,
                             retry_after_s=0.5)
    assert api.to_json(answer) == ERROR_SNAPSHOT


def test_encode_is_to_json_plus_print_newline() -> None:
    answer = api.ErrorAnswer(error="x")
    assert api.encode(answer) == (api.to_json(answer) + "\n").encode("utf-8")


def test_every_key_is_always_present() -> None:
    # Consumers never probe for optional fields: null, not absent.
    answer = api.ContractAnswer(address=ADDRESS, verdict=api.VERDICT_PROXY,
                                source=api.SOURCE_FRESH,
                                analysis={"standard": "EIP-1967"},
                                failure=None)
    record = json.loads(api.to_json(answer))
    assert set(record) == {"schema", "kind", "address", "verdict", "source",
                           "analysis", "failure"}


def test_schema_registry_pins_every_wire_format() -> None:
    assert sorted(api.SCHEMA_REGISTRY) == [
        "repro.bench-row/1",
        "repro.bench/1",
        "repro.events/1",
        "repro.evidence/1",
        "repro.query/1",
        "repro.store/1",
    ]
    for tag, (producer, meaning) in api.SCHEMA_REGISTRY.items():
        assert tag.count("/") == 1 and tag.rsplit("/", 1)[1].isdigit()
        assert producer and meaning


# --------------------------------------------------------- store constructors
def test_answer_from_store_verdict_priority_and_miss() -> None:
    store = AnalysisStore(":memory:")
    skipped = b"\x01" * 20
    store.save_skip(skipped)
    failed = b"\x02" * 20
    store.save_failure(ContractFailure(address=failed, cause="rpc",
                                       error="boom", stage="analysis"))

    answer = api.answer_from_store(store, skipped)
    assert (answer.verdict, answer.source) == (api.VERDICT_SKIPPED,
                                               api.SOURCE_STORE)
    assert answer.analysis is None and answer.failure is None

    answer = api.answer_from_store(store, failed)
    assert answer.verdict == api.VERDICT_QUARANTINED
    assert answer.failure["cause"] == "rpc"

    assert api.answer_from_store(store, b"\xee" * 20) is None


def test_answer_from_store_analysis_rows(svc_store) -> None:
    store = AnalysisStore(svc_store)
    rendered = store.proxies()[0][0]
    address = bytes.fromhex(rendered.removeprefix("0x"))
    answer = api.answer_from_store(store, address)
    assert answer.verdict == api.VERDICT_PROXY
    assert answer.address == rendered
    assert answer.analysis["address"] == rendered
    assert "proxy" in api.describe_answer(answer)
    store.close()


def test_describe_answer_covers_every_verdict() -> None:
    cases = {
        api.VERDICT_SKIPPED: "no code",
        api.VERDICT_NOT_PROXY: "not a proxy",
        api.VERDICT_QUARANTINED: "quarantined",
    }
    for verdict, needle in cases.items():
        answer = api.ContractAnswer(address=ADDRESS, verdict=verdict,
                                    source=api.SOURCE_STORE,
                                    analysis=None, failure=None)
        assert needle in api.describe_answer(answer)
