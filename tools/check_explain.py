#!/usr/bin/env python3
"""CI gate: every verdict an audited sweep emits carries its evidence.

Runs one audited supervised sweep (``survey --audit`` machinery) and
asserts the ``repro.evidence/1`` contract (docs/observability.md,
"Verdict provenance & explain"):

1. **Coverage** — every analyzed contract has an evidence file in the
   audit directory, and every file's digest matches the digest embedded
   in the serialized analysis (store/merge provenance).
2. **Verdict completeness** — every proxy verdict cites a matched
   pattern (or the dedup-cache transfer that replaced classification);
   every recovered logic history with getStorageAt spend cites its
   Algorithm 1 search steps; every function/storage collision cites the
   selector/slot observations behind it.
3. **Explain surface** — ``repro explain ADDR --audit DIR`` renders a
   narrative for every audited address and exits 0; ``--json`` output
   parses and round-trips through ``EvidenceTrail.from_dict``.
4. **Default-path hygiene** — the same sweep without ``--audit``
   produces a report with no ``evidence`` keys and byte-identical
   verdicts.

Usage::

    PYTHONPATH=src python tools/check_explain.py --total 40 --seed 7 \
        --workers 2

Exit codes: 0 pass, 1 contract violated, 2 usage error.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import tempfile


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--total", type=int, default=40)
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--workers", type=int, default=2)
    args = parser.parse_args(argv)

    from repro.cli import main as repro_main
    from repro.landscape.serialize import report_to_dict
    from repro.obs.provenance import (
        AuditDir,
        DEDUP_HIT,
        FUNCTION_COLLISION,
        LOGIC_HISTORY,
        PROXY_PATTERN,
        SEARCH_STEP,
        STORAGE_COLLISION,
        EvidenceTrail,
    )
    from repro.parallel import SweepSpec, run_sharded_sweep

    problems: list[str] = []
    workdir = tempfile.mkdtemp(prefix="repro-explain-gate-")
    audit_path = os.path.join(workdir, "audit")

    spec = SweepSpec(total=args.total, seed=args.seed)
    audited = run_sharded_sweep(spec, workers=args.workers, processes=True,
                                audit_dir=audit_path)
    report = audited.report
    audit = AuditDir(audit_path)
    print(f"sweep: {len(report.analyses)} analyses audited into "
          f"{len(audit.addresses())} evidence files")

    # ---- 1. coverage: one evidence file + matching digest per analysis --
    recorded = set(audit.addresses())
    missing = [a for a in report.analyses if a not in recorded]
    if missing:
        problems.append(f"{len(missing)} analyses have no evidence file, "
                        f"first 0x{missing[0].hex()}")
    trails = {}
    for address, analysis in report.analyses.items():
        if address not in recorded:
            continue
        trail = trails[address] = audit.read(address)
        if analysis.evidence_digest != trail.digest():
            problems.append(f"0x{address.hex()}: embedded digest diverges "
                            f"from the evidence file")

    def kinds_of(address):
        return {node.kind for section in trails[address].sections
                for node in section.walk()}

    # ---- 2. verdict completeness ----------------------------------------
    proxies = pattern_cited = 0
    for analysis in report.proxies():
        proxies += 1
        kinds = kinds_of(analysis.address)
        if PROXY_PATTERN in kinds or DEDUP_HIT in kinds:
            pattern_cited += 1
        else:
            problems.append(f"proxy 0x{analysis.address.hex()} cites no "
                            f"matched pattern or dedup transfer")
    searched = steps_cited = 0
    for analysis in report.analyses.values():
        history = analysis.logic_history
        if history is None or history.api_calls_used == 0:
            continue
        searched += 1
        kinds = kinds_of(analysis.address)
        if SEARCH_STEP in kinds and LOGIC_HISTORY in kinds:
            steps_cited += 1
        else:
            problems.append(f"0x{analysis.address.hex()} recovered logic "
                            f"without Algorithm 1 step evidence")
    collisions = collision_cited = 0
    for analysis in report.analyses.values():
        if not (analysis.has_function_collision
                or analysis.has_storage_collision):
            continue
        collisions += 1
        kinds = kinds_of(analysis.address)
        wanted = ((FUNCTION_COLLISION in kinds)
                  if analysis.has_function_collision
                  else True) and ((STORAGE_COLLISION in kinds)
                                  if analysis.has_storage_collision
                                  else True)
        if wanted:
            collision_cited += 1
        else:
            problems.append(f"0x{analysis.address.hex()} flags a collision "
                            f"without selector/slot evidence")
    print(f"verdicts: {pattern_cited}/{proxies} proxies cite patterns, "
          f"{steps_cited}/{searched} searches cite steps, "
          f"{collision_cited}/{collisions} collisions cite evidence")
    if not (proxies and searched and collisions):
        problems.append(f"corpus too small to exercise every verdict class "
                        f"(proxies={proxies}, searched={searched}, "
                        f"collisions={collisions}) — raise --total")

    # ---- 3. repro explain over every audited address --------------------
    import contextlib
    import io

    explained = 0
    for address in audit.addresses():
        rendered = "0x" + address.hex()
        sink = io.StringIO()
        with contextlib.redirect_stdout(sink):
            code = repro_main(["explain", rendered, "--audit", audit_path,
                               "--json"])
        if code != 0:
            problems.append(f"explain {rendered} exited {code}")
            continue
        payload = json.loads(sink.getvalue())
        trail_record = payload.get("evidence") or {}
        if (payload.get("schema") != "repro.query/1"
                or payload.get("address") != rendered
                or trail_record.get("address") != rendered
                or not trail_record.get("evidence")):
            problems.append(f"explain {rendered} --json payload is empty "
                            f"or mislabelled")
            continue
        explained += 1
    # Spot-check the JSON round-trip on one address via the library.
    if recorded:
        sample = sorted(recorded)[0]
        record = trails[sample].to_dict()
        if EvidenceTrail.from_dict(
                json.loads(json.dumps(record))).to_dict() != record:
            problems.append(f"0x{sample.hex()}: explain --json payload "
                            f"does not round-trip")
    print(f"explain: {explained}/{len(audit.addresses())} addresses "
          f"rendered")

    # ---- 4. the default path stays digest-free and verdict-identical ----
    plain = run_sharded_sweep(spec, workers=args.workers, processes=True)
    audited_dict = report_to_dict(report)
    plain_dict = report_to_dict(plain.report)
    leaked = sum(1 for record in plain_dict["contracts"]
                 if "evidence" in record)
    if leaked:
        problems.append(f"{leaked} un-audited analyses carry an evidence "
                        f"digest")
    for record in audited_dict["contracts"]:
        record.pop("evidence", None)
    if audited_dict != plain_dict:
        problems.append("audited and un-audited sweeps disagree beyond "
                        "the evidence digests")

    if problems:
        print("explain gate FAILED:", file=sys.stderr)
        for problem in problems:
            print(f"  - {problem}", file=sys.stderr)
        return 1
    print(f"explain gate passed: {len(recorded)} evidence files, "
          f"{proxies} proxy verdicts, {searched} logic searches, "
          f"{collisions} collision verdicts — all cited")
    return 0


if __name__ == "__main__":
    sys.exit(main())
