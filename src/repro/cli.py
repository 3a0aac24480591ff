"""Command-line interface: ``python -m repro <command>``.

Commands:

* ``survey``         — generate a calibrated landscape, run the full sweep,
                       print the §7 findings
* ``serve``          — long-running analysis daemon: follows the chain,
                       answers ``repro.query/1`` point queries over HTTP
                       with rate limiting (docs/service.md)
* ``accuracy``       — build the labelled corpus, print Table 2 for every tool
* ``bench``          — the continuous-benchmarking suite (timing trajectory,
                       regression gate, EVM flame profiles)
* ``demo <name>``    — run a packaged attack scenario (honeypot / audius)
* ``status``         — point-in-time snapshot of a sweep's flight-recorder
                       journal (``survey --events``)
* ``tail``           — stream a sweep's flight-recorder events (``--follow``)
* ``explain``        — render one contract's ``repro.evidence/1`` trail
                       (from ``survey --audit DIR``, or freshly recorded)
* ``mine-selector``  — §2.3: mine a selector collision against a prototype
"""

from __future__ import annotations

import argparse
import sys

#: Flag name → ``add_argument`` kwargs for the observability group.  One
#: definition, shared by every command that exposes a subset — the help
#: text and defaults cannot drift between ``survey``/``accuracy``/``bench``.
_OBSERVABILITY_FLAGS: dict[str, dict] = {
    "--metrics": dict(
        action="store_true",
        help="print the repro.obs summary (per-stage wall time, RPC "
             "usage, §6.1 dedup hit rates); with --json, embed the "
             "metrics snapshot"),
    "--metrics-prom": dict(
        default=None, metavar="FILE",
        help="write the registry in Prometheus text format"),
    "--trace-jsonl": dict(
        default=None, metavar="FILE",
        help="append every pipeline span as JSON lines"),
    "--profile-evm": dict(
        action="store_true",
        help="collect opcode-class/gas/depth EVM profile"),
    "--flame": dict(
        default=None, metavar="FILE",
        help="write collapsed flame stacks of the EVM work "
             "(flamegraph.pl input; implies --profile-evm)"),
    "--flame-weight": dict(
        default="gas", choices=("gas", "instructions"),
        help="flame sample unit (default: base gas)"),
    "--events": dict(
        default=None, metavar="FILE",
        help="write the repro.events/1 flight-recorder journal there; "
             "read it live with `repro status FILE` / `repro tail FILE` "
             "(composes with --workers)"),
    "--audit": dict(
        default=None, metavar="DIR",
        help="record verdict provenance: one repro.evidence/1 file per "
             "contract in DIR, rendered later by `repro explain ADDR "
             "--audit DIR` (composes with --workers)"),
    "--serve": dict(
        type=int, default=None, metavar="PORT",
        help="serve /metrics, /healthz and /progress over HTTP on "
             "127.0.0.1:PORT while the command runs (0 = pick an "
             "ephemeral port); the same handlers `repro serve` mounts"),
}

#: Flag name → ``add_argument`` kwargs for the robustness group (chaos
#: injection, RPC failover, supervision).
_ROBUSTNESS_FLAGS: dict[str, dict] = {
    "--chaos": dict(
        default=None,
        help="inject a canned fault plan between the sweep and the "
             "node, absorbed by the resilient RPC layer "
             "(docs/robustness.md)"),
    "--chaos-seed": dict(
        type=int, default=1337,
        help="seed for the fault plan and the retry jitter "
             "(default 1337)"),
    "--rpc-endpoints": dict(
        type=int, default=1, metavar="N",
        help="front the chain with N RPC backends behind a failover "
             "node; --chaos then strikes only the primary endpoint "
             "(default 1 = single endpoint, docs/robustness.md)"),
    "--shard-timeout": dict(
        type=float, default=30.0, metavar="SECONDS",
        help="supervised sweeps (--workers > 1): kill a worker whose "
             "heartbeat is older than this (per contract, not per "
             "shard; default 30)"),
    "--max-shard-retries": dict(
        type=int, default=2, metavar="N",
        help="supervised sweeps: respawn a dead/hung shard this many "
             "times before bisecting it down to the poison contract "
             "(default 2)"),
}


def _add_flag_group(parser: argparse.ArgumentParser,
                    definitions: dict[str, dict],
                    only: tuple[str, ...] | None) -> None:
    for flag, kwargs in definitions.items():
        if only is None or flag in only:
            parser.add_argument(flag, **kwargs)


def add_observability_flags(parser: argparse.ArgumentParser,
                            only: tuple[str, ...] | None = None) -> None:
    """Attach the shared observability flags (or the ``only`` subset)."""
    _add_flag_group(parser, _OBSERVABILITY_FLAGS, only)


def add_robustness_flags(parser: argparse.ArgumentParser,
                         only: tuple[str, ...] | None = None) -> None:
    """Attach the shared robustness flags (or the ``only`` subset)."""
    from repro.chain.faults import CANNED_PLANS

    definitions = dict(_ROBUSTNESS_FLAGS)
    definitions["--chaos"] = dict(definitions["--chaos"],
                                  choices=CANNED_PLANS)
    _add_flag_group(parser, definitions, only)


def _cmd_survey(args: argparse.Namespace) -> int:
    # Thin wrapper so the live ops surface (--serve) and the serial
    # events journal are always torn down, whichever path/return the
    # sweep takes.
    obs: dict = {"registry": None, "server": None, "journal": None}
    try:
        return _survey_impl(args, obs)
    finally:
        if obs["journal"] is not None:
            obs["journal"].close()
        if obs["server"] is not None:
            obs["server"].close()


def _survey_impl(args: argparse.Namespace, obs: dict) -> int:
    from repro.chain.profiles import get_profile
    from repro.core import Proxion, ProxionOptions
    from repro.corpus import generate_landscape
    from repro.landscape import (
        figure5_duplicates,
        figure6_upgrades,
        table3_collisions_by_year,
        table4_standards,
    )

    store_path = args.store
    if args.incremental and store_path is None:
        print("error: --incremental requires --store PATH (the store is "
              "where settled work is read from)", file=sys.stderr)
        return 2

    profile = get_profile(args.chain)
    if not args.json:
        print(f"generating {args.total} contracts on {profile.name} "
              f"(seed={args.seed})...")
    landscape = generate_landscape(total=args.total, seed=args.seed,
                                   chain_profile=profile)
    options = ProxionOptions(detect_diamonds=args.diamonds,
                             profile_evm=args.profile_evm or bool(args.flame))

    audit = None
    if args.audit:
        from repro.errors import ConfigurationError
        from repro.obs.provenance import AuditDir
        try:
            # Fail on an unwritable directory now, not mid-sweep; workers
            # re-open the same path by name.
            audit = AuditDir(args.audit)
        except ConfigurationError as error:
            print(f"error: {error}", file=sys.stderr)
            return 2
        if not args.json:
            print(f"audit: recording repro.evidence/1 trails in "
                  f"{args.audit} (render with `repro explain ADDR "
                  f"--audit {args.audit}`)")

    if args.serve is not None:
        from repro.obs.http import ObsServer

        # The callable indirection lets the CLI swap in the merged
        # registry once a parallel sweep lands, while scrapes keep
        # hitting one stable URL for the whole command.
        obs["registry"] = landscape.node.metrics
        obs["server"] = ObsServer(lambda: obs["registry"],
                                  journal_path=args.events,
                                  hung_after_s=args.shard_timeout,
                                  port=args.serve)
        if not args.json:
            print(f"obs: serving /metrics /healthz /progress at "
                  f"{obs['server'].url}")

    if args.workers > 1:
        # Per-worker artifacts that cannot be merged into one file stay
        # serial-only; everything else (chaos, store, metrics, events,
        # json) composes with sharding.
        for flag, value in (("--flame", args.flame),
                            ("--trace-jsonl", args.trace_jsonl)):
            if value:
                print(f"error: {flag} is per-process output and does not "
                      f"compose with --workers > 1 (run serially)",
                      file=sys.stderr)
                return 2
        from repro.errors import ConfigurationError
        from repro.parallel import (
            SupervisorConfig,
            SweepSpec,
            run_sharded_sweep,
        )
        spec = SweepSpec(total=args.total, seed=args.seed, chain=args.chain,
                         options=options, chaos=args.chaos,
                         chaos_seed=args.chaos_seed,
                         rpc_endpoints=args.rpc_endpoints)
        if args.chaos and not args.json:
            print(f"chaos: injecting fault plan {args.chaos!r} "
                  f"(seed={args.chaos_seed}) in every worker")
        try:
            supervise = SupervisorConfig(
                shard_timeout_s=args.shard_timeout,
                max_shard_retries=args.max_shard_retries)
            result = run_sharded_sweep(
                spec, workers=args.workers, strategy=args.shard_strategy,
                world=landscape, supervise=supervise,
                progress=None if args.json else print,
                events_path=args.events, audit_dir=args.audit,
                store_path=store_path, incremental=args.incremental)
        except (ConfigurationError, OSError) as error:
            print(f"error: {error}", file=sys.stderr)
            return 2
        report, metrics = result.report, result.metrics
        obs["registry"] = metrics  # /metrics now serves the merged view
        if not args.json:
            print(f"parallel: {args.workers} workers, "
                  f"{result.sum_shard_cpu_s:.2f}s shard CPU, "
                  f"critical-path speedup "
                  f"{result.critical_path_speedup:.2f}x")
            if result.respawns or result.hung_kills \
                    or result.poison_contracts:
                print(f"supervisor: {result.respawns} respawns, "
                      f"{result.hung_kills} hung kills, "
                      f"{result.poison_contracts} poison contracts "
                      f"quarantined")
    else:
        flame_profiler = None
        if args.flame:
            from repro.obs import FlameProfiler
            flame_profiler = FlameProfiler()

        events = None
        if args.events:
            from repro.obs.events import EventJournal, EventRecorder
            try:
                obs["journal"] = EventJournal.create(args.events)
            except OSError as error:
                print(f"error: cannot write --events journal: {error}",
                      file=sys.stderr)
                return 2
            events = EventRecorder(sinks=(obs["journal"],))

        node = landscape.node
        if args.rpc_endpoints > 1:
            from repro.chain.failover import build_failover_node
            # Failover carries its own retry/breaker machinery; --chaos
            # then strikes only the primary endpoint of the fleet.
            node = build_failover_node(node, args.rpc_endpoints,
                                       chaos=args.chaos,
                                       chaos_seed=args.chaos_seed,
                                       events=events)
            if not args.json:
                detail = (f" with fault plan {args.chaos!r} on the primary"
                          if args.chaos else "")
                print(f"failover: fronting the chain with "
                      f"{args.rpc_endpoints} RPC endpoints{detail}")
        elif args.chaos:
            from repro.chain.faults import build_chaos_stack
            # Injected latency and backoff are accounted virtually (no
            # real sleeps): the simulated node has nothing to wait for.
            node = build_chaos_stack(node, args.chaos, seed=args.chaos_seed,
                                     events=events)
            if not args.json:
                print(f"chaos: injecting fault plan {args.chaos!r} "
                      f"(seed={args.chaos_seed}) behind the resilient "
                      f"layer")

        store_binding = None
        if store_path is not None:
            from repro.errors import ConfigurationError
            from repro.store import attach_store
            try:
                store_binding = attach_store(store_path,
                                             incremental=args.incremental)
            except ConfigurationError as error:
                print(f"error: {error}", file=sys.stderr)
                return 2

        proxion = Proxion(node, registry=landscape.registry,
                          dataset=landscape.dataset,
                          options=options, evm_profiler=flame_profiler,
                          events=events, audit=audit, store=store_binding)
        obs["registry"] = proxion.metrics
        if args.trace_jsonl:
            from repro.obs import JsonLinesSink
            proxion.tracer.add_sink(JsonLinesSink(args.trace_jsonl))

        if events is not None:
            from repro.obs.events import SWEEP_END, SWEEP_START
            events.emit(SWEEP_START,
                        contracts=len(landscape.dataset.addresses()),
                        workers=1, strategy="serial", chaos=args.chaos)
        try:
            report = proxion.analyze_all()
        finally:
            if store_binding is not None:
                store_binding.close()
        if events is not None:
            events.emit(SWEEP_END, analyses=len(report.analyses),
                        failures=len(report.failures))
        metrics = proxion.metrics

    if store_path is not None and not args.json:
        restored = metrics.snapshot()["counters"].get(
            "pipeline.store_restored_contracts", 0)
        suffix = (f" ({restored} contracts restored, not re-analyzed)"
                  if restored else "")
        print(f"store: sweep persisted to {store_path}{suffix} — inspect "
              f"with `repro store stats {store_path}`")

    if args.metrics_prom:
        from repro.obs import to_prometheus
        try:
            with open(args.metrics_prom, "w", encoding="utf-8") as stream:
                stream.write(to_prometheus(metrics))
        except OSError as error:
            print(f"error: cannot write --metrics-prom file: {error}",
                  file=sys.stderr)
            return 1
        if not args.json:
            print(f"Prometheus metrics written to {args.metrics_prom}")

    if args.flame:
        assert flame_profiler is not None
        try:
            flame_profiler.write_collapsed(args.flame,
                                           weight=args.flame_weight)
        except OSError as error:
            print(f"error: {error}", file=sys.stderr)
            return 1
        if not args.json:
            print(f"collapsed flame stacks ({args.flame_weight}) written "
                  f"to {args.flame}")

    if args.json:
        from repro.landscape.serialize import report_to_dict
        import json as _json
        payload = report_to_dict(report)
        if args.metrics:
            payload["metrics"] = metrics.snapshot()
        print(_json.dumps(payload, indent=2))
        return 0

    proxies = report.proxies()
    print(f"\nanalyzed {len(report)} alive contracts "
          f"({report.emulation_failure_rate():.1%} emulation failures)")
    if report.failures:
        census = ", ".join(f"{cause}: {count}" for cause, count
                           in sorted(report.quarantine_census().items()))
        print(f"quarantined: {len(report.failures)} contracts ({census})")
    print(f"proxies: {len(proxies)} "
          f"({len(proxies) / max(len(report), 1):.1%}); "
          f"hidden: {len(report.hidden_proxies())}")
    print(f"collisions: {report.function_collision_pairs()} function / "
          f"{report.storage_collision_pairs()} storage pairs")

    print("\nstandards (Table 4):")
    for standard, (count, share) in table4_standards(report).items():
        print(f"  {standard:10s} {count:>6d}  {share:6.2%}")

    duplicates = figure5_duplicates(report, landscape.node)
    print(f"\nduplicates (Fig. 5): {duplicates.unique_proxies} unique proxy "
          f"bytecodes / {duplicates.total_proxies} proxies "
          f"(top-3: {duplicates.top_proxy_share(3):.1%})")

    collisions = table3_collisions_by_year(report)
    print(f"collision duplicate share (Table 3): "
          f"{collisions.duplicate_share:.1%}")
    upgrades = figure6_upgrades(report)
    print(f"never-upgraded proxies (Fig. 6): "
          f"{upgrades.never_upgraded_share:.1%}")

    if args.metrics:
        from repro.obs import survey_metrics_summary
        print()
        print(survey_metrics_summary(metrics))
    return 0


def _cmd_store(args: argparse.Namespace) -> int:
    """`repro store fsck|stats|vacuum PATH` — store maintenance."""
    import json as _json

    from repro.errors import ConfigurationError
    from repro.store import fsck, stats, vacuum

    try:
        if args.action == "fsck":
            report = fsck(args.path, repair=args.repair)
            if args.json:
                print(_json.dumps({
                    "path": report.path, "issues": report.issues,
                    "repaired": report.repaired, "fatal": report.fatal,
                    "ok": report.ok}, indent=2, sort_keys=True))
            elif report.clean:
                print(f"{args.path}: clean")
            else:
                for issue in report.issues:
                    fixed = " [repaired]" if issue in report.repaired else ""
                    print(f"{args.path}: {issue}{fixed}")
                if report.fatal:
                    print(f"{args.path}: unrecoverable — quarantine the "
                          f"file (sweeps do this automatically) or delete "
                          f"it and re-sweep", file=sys.stderr)
                elif report.issues and not args.repair and not report.ok:
                    print(f"{args.path}: rerun with --repair to fix",
                          file=sys.stderr)
            return 0 if report.ok else 1
        if args.action == "stats":
            payload = stats(args.path)
            if args.json:
                print(_json.dumps(payload, indent=2, sort_keys=True))
            else:
                print(f"{payload['path']}: {payload['schema']}")
                for table, count in sorted(payload["tables"].items()):
                    print(f"  {table:18s} {count:>8d}")
                leverage = payload["dedup_leverage"]
                print(f"  unique codehashes  "
                      f"{payload['unique_code_hashes']:>8d}"
                      + (f"  ({leverage}x dedup leverage)"
                         if leverage else ""))
                print(f"  file bytes         {payload['file_bytes']:>8d}"
                      f"  (+{payload['wal_bytes']} WAL)")
            return 0
        payload = vacuum(args.path)
        if args.json:
            print(_json.dumps(payload, indent=2, sort_keys=True))
        else:
            print(f"{args.path}: {payload['bytes_before']} -> "
                  f"{payload['bytes_after']} bytes "
                  f"({payload['bytes_reclaimed']} reclaimed)")
        return 0
    except (ConfigurationError, OSError) as error:
        print(f"error: {error}", file=sys.stderr)
        return 2


def _cmd_status(args: argparse.Namespace) -> int:
    from repro.errors import ConfigurationError
    from repro.obs.console import journal_snapshot, render_status

    try:
        status = journal_snapshot(args.journal)
    except (ConfigurationError, OSError) as error:
        print(f"error: {error}", file=sys.stderr)
        return 2
    if args.json:
        from repro import api
        # The repro.query/1 envelope — the same bytes the serve daemon's
        # /progress endpoint returns for this journal.
        print(api.to_json(api.status_answer(status)))
    else:
        print(render_status(status))
    return 0


def _cmd_tail(args: argparse.Namespace) -> int:
    from repro.errors import ConfigurationError
    from repro.obs.console import format_event, tail_journal

    try:
        for event in tail_journal(args.journal, follow=args.follow,
                                  poll_s=args.poll):
            print(format_event(event), flush=args.follow)
    except BrokenPipeError:
        # `repro tail ... | head` closing the pipe is a normal exit, but
        # Python would complain again flushing stdout at shutdown.
        import os
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
    except (ConfigurationError, OSError) as error:
        print(f"error: {error}", file=sys.stderr)
        return 2
    except KeyboardInterrupt:
        pass  # ^C out of --follow is a normal way to stop watching
    return 0


def _cmd_explain(args: argparse.Namespace) -> int:
    from repro import api
    from repro.errors import ConfigurationError
    from repro.obs.provenance import AuditDir, EvidenceTrail, render_trail

    try:
        address = bytes.fromhex(args.address.removeprefix("0x"))
    except ValueError:
        print(f"error: {args.address!r} is not a hex address",
              file=sys.stderr)
        return 2
    if len(address) != 20:
        print(f"error: {args.address!r} is not a 20-byte address",
              file=sys.stderr)
        return 2
    if args.audit and args.store:
        print("error: --audit and --store are different sources — pass one",
              file=sys.stderr)
        return 2

    if args.store:
        # Store-backed point query: the same repro.query/1 ContractAnswer
        # the serve daemon returns from GET /v1/contract/ADDR — for the
        # same store state, --json is byte-identical to the HTTP body.
        return _explain_from_store(args, address)

    if args.audit:
        # Read-only: render what an audited sweep already persisted.
        try:
            trail = AuditDir(args.audit).read(address)
        except ConfigurationError as error:
            print(f"error: {error}", file=sys.stderr)
            return 2
        source = api.SOURCE_AUDIT
    else:
        # No audit dir: record a fresh trail by re-analyzing the address
        # against the deterministic landscape named by --total/--seed.
        from repro.chain.profiles import get_profile
        from repro.core import Proxion, ProxionOptions
        from repro.corpus import generate_landscape

        if not args.json:
            print(f"no --audit DIR: re-analyzing 0x{address.hex()} on the "
                  f"{args.chain} landscape (total={args.total}, "
                  f"seed={args.seed})...", file=sys.stderr)
        landscape = generate_landscape(total=args.total, seed=args.seed,
                                       chain_profile=get_profile(args.chain))
        proxion = Proxion(landscape.node, registry=landscape.registry,
                          dataset=landscape.dataset,
                          options=ProxionOptions(
                              detect_diamonds=args.diamonds))
        trail = EvidenceTrail(address)
        try:
            proxion.analyze_contract(address, trail=trail)
        except ConfigurationError as error:
            print(f"error: {error}", file=sys.stderr)
            return 2
        source = api.SOURCE_FRESH

    if args.json:
        print(api.to_json(api.evidence_answer(trail, source)))
    else:
        print(render_trail(trail))
    return 0


def _explain_from_store(args: argparse.Namespace, address: bytes) -> int:
    """``explain --store``: answer from the store, analyze on a miss."""
    from repro import api
    from repro.chain.profiles import get_profile
    from repro.core import Proxion, ProxionOptions
    from repro.corpus import generate_landscape
    from repro.errors import ConfigurationError
    from repro.store import attach_store

    try:
        binding = attach_store(args.store)
    except ConfigurationError as error:
        print(f"error: {error}", file=sys.stderr)
        return 2
    if binding is None:
        print(f"error: cannot open store {args.store!r}", file=sys.stderr)
        return 2
    try:
        answer = api.answer_from_store(binding.store, address)
        if answer is None:
            # Miss: analyze against the deterministic landscape and write
            # through, exactly what the serve daemon's miss path does —
            # trail-free on purpose, so the two stay byte-identical.
            if not args.json:
                print(f"store miss: analyzing 0x{address.hex()} on the "
                      f"{args.chain} landscape (total={args.total}, "
                      f"seed={args.seed})...", file=sys.stderr)
            landscape = generate_landscape(
                total=args.total, seed=args.seed,
                chain_profile=get_profile(args.chain))
            proxion = Proxion(landscape.node, registry=landscape.registry,
                              dataset=landscape.dataset,
                              options=ProxionOptions(
                                  detect_diamonds=args.diamonds),
                              store=binding)
            answer = api.fresh_answer(proxion, address)
    finally:
        binding.close()
    if args.json:
        print(api.to_json(answer))
    else:
        print(api.describe_answer(answer))
    return 0


def _cmd_serve(args: argparse.Namespace) -> int:
    """``repro serve`` — the long-running query daemon (docs/service.md)."""
    from repro.errors import ConfigurationError
    from repro.serve import ServeApp, ServeConfig

    if args.simulate and not args.follow:
        print("error: --simulate deploys through the chain follower — "
              "add --follow", file=sys.stderr)
        return 2
    config = ServeConfig(
        store_path=args.store, host=args.host, port=args.port,
        total=args.total, seed=args.seed, chain=args.chain,
        diamonds=args.diamonds, follow=args.follow,
        poll_interval_s=args.poll, simulate_deploys=args.simulate,
        rate_per_s=args.rate, burst=args.burst,
        slots=args.slots, queue_limit=args.queue_limit,
        queue_timeout_s=args.queue_timeout,
        journal_path=args.events, hung_after_s=args.shard_timeout,
        rpc_endpoints=args.rpc_endpoints)
    try:
        app = ServeApp(config)
    except (ConfigurationError, OSError) as error:
        print(f"error: {error}", file=sys.stderr)
        return 2
    app.start()
    following = (f", following the chain every {args.poll}s"
                 if args.follow else "")
    print(f"serve: {app.url} — /v1/contract/ADDR /v1/server /metrics "
          f"/healthz /progress (store={args.store}{following})",
          flush=True)
    print("serve: ^C or SIGTERM to stop", file=sys.stderr, flush=True)

    # Graceful drain: SIGTERM/SIGINT flip an event instead of killing the
    # process, so in-flight queries finish and the store closes cleanly
    # (docs/service.md).  Handlers only work on the main thread; under a
    # nested invocation (tests) fall back to the plain wait.
    import signal
    import threading
    stop = threading.Event()
    try:
        signal.signal(signal.SIGTERM, lambda *_: stop.set())
        signal.signal(signal.SIGINT, lambda *_: stop.set())
    except ValueError:                  # not on the main thread
        pass
    try:
        stop.wait()                     # serve until signalled
    except KeyboardInterrupt:
        pass
    finally:
        print("serve: draining and shutting down", file=sys.stderr,
              flush=True)
        app.close()
    return 0


def _cmd_accuracy(args: argparse.Namespace) -> int:
    from repro.corpus import build_accuracy_corpus
    from repro.landscape import table2
    from repro.obs import MetricsRegistry, SpanTracer, survey_metrics_summary

    registry = MetricsRegistry()
    tracer = SpanTracer(registry=registry)
    if args.trace_jsonl:
        from repro.obs import JsonLinesSink
        tracer.add_sink(JsonLinesSink(args.trace_jsonl))

    journal = None
    events = None
    if args.events:
        from repro.obs.events import EventJournal, EventRecorder
        try:
            journal = EventJournal.create(args.events)
        except OSError as error:
            print(f"error: cannot write --events journal: {error}",
                  file=sys.stderr)
            return 2
        events = EventRecorder(sinks=(journal,))

    try:
        print(f"building labelled corpus ({args.pairs} pairs per case)...")
        with tracer.span("build_corpus", pairs_per_case=args.pairs):
            corpus = build_accuracy_corpus(pairs_per_case=args.pairs,
                                           seed=args.seed)
        print(f"{len(corpus.pairs)} labelled pairs\n")
        if events is not None:
            from repro.obs.events import SWEEP_START
            events.emit(SWEEP_START, contracts=len(corpus.pairs), workers=1,
                        strategy="accuracy", chaos=None)
        for methodology in ("union", "all"):
            print(f"--- methodology: {methodology} ---")
            with tracer.span("table2", methodology=methodology):
                scored = table2(corpus, methodology=methodology)
            for collision_type, tools in scored.items():
                for tool, matrix in tools.items():
                    print(f"{collision_type:8s} {tool:8s} {matrix.row()}")
            print()
        if events is not None:
            from repro.obs.events import SWEEP_END
            events.emit(SWEEP_END, analyses=len(corpus.pairs), failures=0)
    finally:
        if journal is not None:
            journal.close()

    if args.metrics_prom:
        from repro.obs import to_prometheus
        try:
            with open(args.metrics_prom, "w", encoding="utf-8") as stream:
                stream.write(to_prometheus(registry))
        except OSError as error:
            print(f"error: cannot write --metrics-prom file: {error}",
                  file=sys.stderr)
            return 1
        print(f"Prometheus metrics written to {args.metrics_prom}")

    if args.metrics:
        print(survey_metrics_summary(registry))
    return 0


def _cmd_bench(args: argparse.Namespace) -> int:
    from repro.obs import bench_summary
    from repro.obs.bench import (
        BenchConfig,
        WORKLOADS,
        compare_payloads,
        load_payload,
        run_suite,
        validate_payload,
        write_payload,
    )

    if args.list:
        for workload in WORKLOADS.values():
            marker = " " if workload.quick else "*"
            print(f"  {workload.name:20s}{marker} {workload.description}")
        print("  (* = full runs only, skipped by --quick)")
        return 0

    config = BenchConfig(
        quick=args.quick,
        repeats=args.repeats,
        warmup=args.warmup,
        seed=args.seed,
        only=tuple(args.workloads.split(",")) if args.workloads else None,
    )
    try:
        payload = run_suite(config,
                            progress=lambda line: print(line,
                                                        file=sys.stderr))
    except KeyError as error:
        print(f"error: {error.args[0]}", file=sys.stderr)
        return 2

    problems = validate_payload(payload)
    if problems:
        print("error: produced an invalid payload:", file=sys.stderr)
        for problem in problems:
            print(f"  - {problem}", file=sys.stderr)
        return 2

    try:
        write_payload(payload, args.out)
    except OSError as error:
        print(f"error: {error}", file=sys.stderr)
        return 1
    print(bench_summary(payload))
    print(f"\nresults written to {args.out}")

    if args.flame:
        from repro.core.pipeline import Proxion, ProxionOptions
        from repro.corpus.generator import generate_landscape
        from repro.obs import FlameProfiler

        profiler = FlameProfiler()
        world = generate_landscape(total=config.scale(50, 80),
                                   seed=config.seed)
        proxion = Proxion(world.node, registry=world.registry, dataset=world.dataset,
                          options=ProxionOptions(profile_evm=True),
                          evm_profiler=profiler)
        proxion.analyze_all()
        try:
            profiler.write_collapsed(args.flame, weight=args.flame_weight)
        except OSError as error:
            print(f"error: {error}", file=sys.stderr)
            return 1
        print(f"collapsed flame stacks ({args.flame_weight}) written to "
              f"{args.flame} — render with flamegraph.pl or speedscope")

    if args.compare:
        try:
            baseline = load_payload(args.compare)
        except FileNotFoundError:
            print(f"\nno baseline at {args.compare} — comparison skipped "
                  f"(gate passes)")
            return 0
        comparison = compare_payloads(baseline, payload)
        print()
        print(comparison.render())
        return comparison.exit_code
    return 0


def _cmd_demo(args: argparse.Namespace) -> int:
    import importlib

    module_names = {
        "quickstart": "examples.quickstart",
        "honeypot": "examples.honeypot_hunt",
        "audius": "examples.audius_postmortem",
        "monitor": "examples.live_monitor",
        "forensics": "examples.archive_forensics",
        "multichain": "examples.multichain_survey",
    }
    # The examples live next to the repository root; import by path when the
    # package is installed elsewhere.
    import pathlib
    examples_dir = pathlib.Path(__file__).resolve().parents[2] / "examples"
    if examples_dir.is_dir() and str(examples_dir.parent) not in sys.path:
        sys.path.insert(0, str(examples_dir.parent))
    module = importlib.import_module(module_names[args.name])
    module.main()
    return 0


def _cmd_disasm(args: argparse.Namespace) -> int:
    from repro.evm.pretty import annotate

    if args.hex == "-":
        blob = sys.stdin.read().strip()
    else:
        blob = args.hex
    code = bytes.fromhex(blob.removeprefix("0x"))
    print(annotate(code))
    return 0


def _cmd_mine_selector(args: argparse.Namespace) -> int:
    from repro.core.selector_miner import mine_selector
    from repro.utils.abi import function_selector

    target = function_selector(args.prototype)
    print(f"target: 0x{target.hex()} ({args.prototype})")
    print(f"mining a {args.bits}-bit prefix collision "
          f"(max {args.max_attempts:,} attempts)...")
    result = mine_selector(target, prefix_bits=args.bits,
                           max_attempts=args.max_attempts)
    if result.found:
        mined = function_selector(result.prototype)
        print(f"found {result.prototype!r} → 0x{mined.hex()} after "
              f"{result.attempts:,} attempts in {result.seconds:.2f}s "
              f"({result.attempts_per_second:,.0f}/s)")
        return 0
    print(f"not found within {result.attempts:,} attempts "
          f"({result.attempts_per_second:,.0f}/s)")
    return 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="ProxioN reproduction — hidden-proxy and collision "
                    "analysis on a simulated Ethereum")
    commands = parser.add_subparsers(dest="command", required=True)

    survey = commands.add_parser("survey", help="landscape sweep (§7)")
    survey.add_argument("--total", type=int, default=400)
    survey.add_argument("--seed", type=int, default=42)
    survey.add_argument("--diamonds", action="store_true",
                        help="enable the §8.2 diamond extension")
    survey.add_argument("--chain", default="ethereum",
                        help="chain profile (ethereum/polygon/bsc/arbitrum)")
    survey.add_argument("--json", action="store_true",
                        help="emit the full sweep as JSON")
    survey.add_argument("--store", default=None, metavar="PATH",
                        help="durable repro.store/1 analysis store: dedup "
                             "facts and per-contract results are written "
                             "through during the sweep (docs/persistence.md)")
    survey.add_argument("--incremental", action="store_true",
                        help="with --store: restore every contract the "
                             "store already settles and analyze only the "
                             "delta; the merged report is byte-identical "
                             "to a from-scratch sweep")
    survey.add_argument("--workers", type=int, default=1, metavar="N",
                        help="shard the sweep across N worker processes "
                             "(default 1 = serial; docs/parallelism.md)")
    survey.add_argument("--shard-strategy", default="codehash",
                        choices=("roundrobin", "codehash"),
                        help="address partitioning for --workers > 1; "
                             "codehash (default) keeps clone families "
                             "together and merges byte-identically to the "
                             "serial sweep")
    add_observability_flags(survey)
    add_robustness_flags(survey)
    survey.set_defaults(func=_cmd_survey)

    serve = commands.add_parser(
        "serve", help="long-running analysis daemon with a query API "
                      "(docs/service.md)")
    serve.add_argument("--store", required=True, metavar="PATH",
                       help="repro.store/1 store to serve from (seed it "
                            "with `survey --store PATH` first)")
    serve.add_argument("--port", type=int, default=0, metavar="N",
                       help="listen port (default 0 = ephemeral)")
    serve.add_argument("--host", default="127.0.0.1",
                       help="bind address (default loopback)")
    serve.add_argument("--total", type=int, default=400,
                       help="landscape size behind fresh analyses (must "
                            "match the seeding sweep; default 400)")
    serve.add_argument("--seed", type=int, default=42,
                       help="landscape seed (must match the seeding sweep)")
    serve.add_argument("--chain", default="ethereum",
                       help="chain profile (must match the seeding sweep)")
    serve.add_argument("--diamonds", action="store_true",
                       help="enable the §8.2 diamond extension for fresh "
                            "analyses")
    serve.add_argument("--follow", action="store_true",
                       help="poll the chain for new deployments and write "
                            "their analyses through the store")
    serve.add_argument("--poll", type=float, default=0.25, metavar="SECONDS",
                       help="chain poll interval with --follow "
                            "(default 0.25)")
    serve.add_argument("--simulate", type=int, default=0, metavar="N",
                       help="with --follow: deploy N synthetic contract "
                            "pairs per poll (demo/smoke traffic)")
    serve.add_argument("--rpc-endpoints", type=int, default=1, metavar="N",
                       help="front the chain with N RPC backends behind "
                            "a failover node (default 1 = single "
                            "endpoint, docs/robustness.md)")
    serve.add_argument("--rate", type=float, default=200.0, metavar="QPS",
                       help="per-client token refill rate for /v1 routes "
                            "(default 200/s)")
    serve.add_argument("--burst", type=int, default=40, metavar="N",
                       help="per-client token bucket capacity (default 40)")
    serve.add_argument("--slots", type=int, default=8, metavar="N",
                       help="concurrently admitted /v1 requests "
                            "(default 8)")
    serve.add_argument("--queue-limit", type=int, default=32, metavar="N",
                       help="waiting requests beyond the slots before "
                            "shedding 503s (default 32)")
    serve.add_argument("--queue-timeout", type=float, default=2.0,
                       metavar="SECONDS",
                       help="longest a request may queue before a 503 "
                            "(default 2)")
    serve.add_argument("--events", default=None, metavar="FILE",
                       help="repro.events/1 journal to serve on /progress "
                            "and /healthz")
    serve.add_argument("--shard-timeout", type=float, default=30.0,
                       metavar="SECONDS",
                       help="/healthz heartbeat staleness threshold "
                            "(default 30)")
    serve.set_defaults(func=_cmd_serve)

    accuracy = commands.add_parser("accuracy", help="Table 2 scoring (§6.3)")
    accuracy.add_argument("--pairs", type=int, default=8)
    accuracy.add_argument("--seed", type=int, default=7)
    add_observability_flags(accuracy, only=("--metrics", "--metrics-prom",
                                            "--trace-jsonl", "--events"))
    accuracy.set_defaults(func=_cmd_accuracy)

    bench = commands.add_parser(
        "bench", help="continuous benchmarking (repro.obs.bench)")
    bench.add_argument("--quick", action="store_true",
                       help="reduced scales + 2 repeats (the CI profile)")
    bench.add_argument("--out", default="BENCH_proxion.json", metavar="FILE",
                       help="result payload target (default "
                            "BENCH_proxion.json)")
    bench.add_argument("--compare", default=None, metavar="BASELINE",
                       help="diff against a baseline payload; exit 1 on "
                            ">25%% median regression")
    add_observability_flags(bench, only=("--flame", "--flame-weight"))
    bench.add_argument("--repeats", type=int, default=None,
                       help="timed repeats per workload (default: 2 quick / "
                            "5 full)")
    bench.add_argument("--warmup", type=int, default=1,
                       help="untimed warmup iterations (default 1)")
    bench.add_argument("--seed", type=int, default=2024)
    bench.add_argument("--workloads", default=None, metavar="A,B,...",
                       help="comma-separated workload filter (see --list)")
    bench.add_argument("--list", action="store_true",
                       help="list the registered workloads and exit")
    bench.set_defaults(func=_cmd_bench)

    store = commands.add_parser(
        "store", help="maintain a repro.store/1 analysis store")
    store.add_argument("action", choices=("fsck", "stats", "vacuum"),
                       help="fsck: integrity check (exit 1 on unrepaired "
                            "damage); stats: row counts and dedup "
                            "leverage; vacuum: WAL checkpoint + compact")
    store.add_argument("path", help="store file (survey --store PATH)")
    store.add_argument("--repair", action="store_true",
                       help="with fsck: drop garbled rows, resolve "
                            "instance-table overlaps, rebuild derived "
                            "tables")
    store.add_argument("--json", action="store_true",
                       help="machine-readable output")
    store.set_defaults(func=_cmd_store)

    status = commands.add_parser(
        "status", help="snapshot a sweep's flight-recorder journal")
    status.add_argument("journal",
                        help="repro.events/1 journal file "
                             "(written by survey --events)")
    status.add_argument("--json", action="store_true",
                        help="emit the snapshot as JSON (the /progress "
                             "payload)")
    status.set_defaults(func=_cmd_status)

    tail = commands.add_parser(
        "tail", help="stream a sweep's flight-recorder events")
    tail.add_argument("journal",
                      help="repro.events/1 journal file "
                           "(written by survey --events)")
    tail.add_argument("-f", "--follow", action="store_true",
                      help="keep watching for new events until the journal "
                           "records sweep.end (or ^C)")
    tail.add_argument("--poll", type=float, default=0.25, metavar="SECONDS",
                      help="poll interval while following (default 0.25)")
    tail.set_defaults(func=_cmd_tail)

    explain = commands.add_parser(
        "explain", help="render one contract's repro.evidence/1 trail")
    explain.add_argument("address", help="contract address (0x-hex)")
    explain.add_argument("--audit", default=None, metavar="DIR",
                         help="read the trail from an audit directory "
                              "written by `survey --audit DIR` (default: "
                              "record a fresh trail by re-analyzing the "
                              "address)")
    explain.add_argument("--store", default=None, metavar="PATH",
                         help="answer from a repro.store/1 store (analyze "
                              "and write through on a miss); with --json "
                              "the output is byte-identical to the serve "
                              "daemon's GET /v1/contract/ADDR")
    explain.add_argument("--json", action="store_true",
                         help="emit the repro.query/1 answer record "
                              "(evidence envelope, or a contract answer "
                              "with --store)")
    explain.add_argument("--total", type=int, default=400,
                         help="landscape size for a fresh analysis "
                              "(ignored with --audit)")
    explain.add_argument("--seed", type=int, default=42,
                         help="landscape seed for a fresh analysis "
                              "(ignored with --audit)")
    explain.add_argument("--chain", default="ethereum",
                         help="chain profile for a fresh analysis "
                              "(ignored with --audit)")
    explain.add_argument("--diamonds", action="store_true",
                         help="enable the §8.2 diamond extension for a "
                              "fresh analysis")
    explain.set_defaults(func=_cmd_explain)

    demo = commands.add_parser("demo", help="run a packaged scenario")
    demo.add_argument("name", choices=("quickstart", "honeypot", "audius",
                                       "monitor", "forensics", "multichain"))
    demo.set_defaults(func=_cmd_demo)

    disasm = commands.add_parser("disasm",
                                 help="annotated disassembly (Listing 3)")
    disasm.add_argument("hex", help="runtime bytecode as hex, or '-' for stdin")
    disasm.set_defaults(func=_cmd_disasm)

    miner = commands.add_parser("mine-selector",
                                help="selector-collision mining (§2.3)")
    miner.add_argument("prototype",
                       help='target prototype, e.g. "free_ether_withdrawal()"')
    miner.add_argument("--bits", type=int, default=12)
    miner.add_argument("--max-attempts", type=int, default=1_000_000)
    miner.set_defaults(func=_cmd_mine_selector)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
