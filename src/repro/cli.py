"""Command-line interface: regenerate any of the paper's figures.

Usage::

    python -m repro fig1  [--victim-rate 0.5]
    python -m repro fig4  [--duration 30]
    python -m repro fig5  [--sizes 1000,100000,1000000]
    python -m repro fig6  [--rates 25,100,400]
    python -m repro fig7  [--kernels ferret,dedup] [--scale 1.0]
    python -m repro fig8  [--victim-rate 0.5]
    python -m repro placement
    python -m repro offsets
    python -m repro covert
    python -m repro collab
    python -m repro trace   [--categories vmm,ingress] [--out run.jsonl]
    python -m repro metrics [--profile] [--duration 2]
    python -m repro spans   [--perfetto out.json] [--validate]
    python -m repro flows   [--flow echo/3] [--top-k 10]
    python -m repro chaos   [--check-determinism] [--crash-at 0.9]
    python -m repro mitigate [--policies none,stopwatch] [--attacks probe]
    python -m repro scale   [--tenants 1,8,32] [--shards 2] [--spec s.toml]
    python -m repro bench run --benchmark kernel.scale32 [--profile]
    python -m repro bench compare --path BENCH_kernel.json --gate
    python -m repro bench history --path BENCH_kernel.json
    python -m repro campaign run examples/fig5_sweep.toml --jobs 0
    python -m repro campaign status examples/fig5_sweep.toml
    python -m repro campaign resume examples/fig5_sweep.toml
    python -m repro campaign aggregate examples/fig5_sweep.toml
    python -m repro list
"""

import argparse
import json
import sys
from typing import List


def _ints(text: str) -> List[int]:
    return [int(part) for part in text.split(",") if part]


def _positive_int(text: str) -> int:
    value = int(text)
    if value <= 0:
        raise argparse.ArgumentTypeError(
            f"must be a positive integer, got {text}")
    return value


def cmd_fig1(args) -> None:
    from repro.analysis import fig1_observation_curves, format_table
    rows = fig1_observation_curves(victim_rate=args.victim_rate)
    print(f"Fig. 1: observations to detect victim "
          f"(lambda'={args.victim_rate})")
    print(format_table(["confidence", "w/o StopWatch", "w/ StopWatch"],
                       rows))


def cmd_fig4(args) -> None:
    from repro.analysis import fig4_empirical_detection, format_table
    result = fig4_empirical_detection(duration=args.duration)
    rows = [(c, base_n, sw_n)
            for (c, base_n), (_, sw_n)
            in zip(result["curve_baseline"], result["curve_stopwatch"])]
    print("Fig. 4: empirical coresidence detection")
    print(format_table(["confidence", "w/o StopWatch", "w/ StopWatch"],
                       rows))


def cmd_fig5(args) -> None:
    from repro.analysis import fig5_file_download, format_table
    rows = fig5_file_download(sizes=_ints(args.sizes))
    rendered = [(s, hb * 1000, hs * 1000, hs / hb, ub * 1000, us * 1000,
                 us / ub) for s, hb, hs, ub, us in rows]
    print("Fig. 5: file-retrieval latency (ms)")
    print(format_table(["size B", "HTTP base", "HTTP SW", "ratio",
                        "UDP base", "UDP SW", "ratio"], rendered))


def cmd_fig6(args) -> None:
    from repro.analysis import fig6_nfs, format_table
    rows = fig6_nfs(rates=_ints(args.rates), duration=args.duration)
    rendered = [(r, b * 1000, s * 1000, s / b, c2s, s2c)
                for r, b, s, c2s, s2c, _ in rows]
    print("Fig. 6: NFS / nhfsstone")
    print(format_table(["ops/s", "base ms/op", "SW ms/op", "ratio",
                        "c->s pkts/op", "s->c pkts/op"], rendered))


def cmd_fig7(args) -> None:
    from repro.analysis import fig7_parsec, format_table
    kernels = args.kernels.split(",") if args.kernels else None
    rows = fig7_parsec(kernels=kernels, scale=args.scale)
    rendered = [(n, b * 1000, s * 1000, s / b, i, pb * 1000, ps * 1000, pi)
                for n, b, s, i, pb, ps, pi in rows]
    print("Fig. 7: PARSEC kernels")
    print(format_table(["kernel", "base ms", "SW ms", "ratio", "ints",
                        "paper base", "paper SW", "paper ints"], rendered))


def cmd_fig8(args) -> None:
    from repro.analysis import fig8_noise_comparison, format_table
    result = fig8_noise_comparison(victim_rate=args.victim_rate)
    rows = [(r.confidence, r.observations, r.noise_bound,
             r.stopwatch_delay_baseline, r.noise_delay_baseline)
            for r in result["table"]]
    print(f"Fig. 8: StopWatch vs uniform noise (lambda'="
          f"{args.victim_rate})")
    print(format_table(["confidence", "obs", "noise b", "E[SW delay]",
                        "E[noise delay]"], rows))
    curve = [(p.target_observations, p.noise_bound, p.noise_delay,
              p.stopwatch_delay) for p in result["curve"]]
    print("\nProtection-cost scaling:")
    print(format_table(["target obs", "noise b", "noise delay",
                        "SW delay"], curve))


def cmd_placement(args) -> None:
    from repro.analysis import format_table, placement_utilization
    rows = placement_utilization()
    print("Sec. VIII: placement utilisation")
    print(format_table(["machines", "capacity", "StopWatch VMs",
                        "isolation", "Thm1 bound", "c*n/3"], rows))


def cmd_offsets(args) -> None:
    from repro.analysis import (delta_offset_translation, format_table,
                                summarize)
    result = delta_offset_translation(duration=args.duration)
    net = summarize([d * 1000 for d in result["net_delays"]])
    disk = summarize([d * 1000 for d in result["disk_delays"]])
    print("Sec. VII-A: real-time translation of the virtual offsets")
    print(format_table(
        ["offset", "events", "mean ms", "min ms", "max ms", "p50 ms",
         "p95 ms", "p99 ms"],
        [("delta_n", net["count"], net["mean"], net["min"], net["max"],
          net["p50"], net["p95"], net["p99"]),
         ("delta_d", disk["count"], disk["mean"], disk["min"],
          disk["max"], disk["p50"], disk["p95"], disk["p99"])]))


def cmd_covert(args) -> None:
    from repro.attacks import run_covert_channel
    for mediated in (False, True):
        result = run_covert_channel(mediated=mediated, n_bits=args.bits)
        label = "StopWatch" if mediated else "unmodified Xen"
        print(f"{label}: BER = {result.bit_error_rate:.2f}")


def cmd_collab(args) -> None:
    from repro.analysis import format_table
    from repro.attacks import run_collab_experiment
    rows = []
    for replicas, collab in ((3, False), (3, True), (5, True)):
        result = run_collab_experiment(replicas=replicas,
                                       collaborator=collab,
                                       duration=args.duration)
        rows.append((f"{replicas} replicas, "
                     f"{'with' if collab else 'no'} collaborator",
                     result.observations_needed()))
    print("Sec. IX: collaborating attackers")
    print(format_table(["condition", "obs to detect @95%"], rows))


def cmd_trace(args) -> None:
    from repro.analysis import format_table
    from repro.analysis.observe import (run_observed_workload,
                                        trace_category_rows)
    categories = ([c for c in args.categories.split(",") if c]
                  if args.categories else None)
    sim, sink = run_observed_workload(
        duration=args.duration, seed=args.seed, categories=categories,
        max_per_category=args.cap, jsonl_path=args.out)
    trace = sim.trace
    print(f"Trace: {len(trace)} records retained, "
          f"{trace.dropped} dropped (cap={args.cap})")
    print(format_table(["category", "retained", "dropped"],
                       trace_category_rows(trace)))
    if sink is not None:
        print(f"Streamed {sink.written} records to {args.out}")


def cmd_metrics(args) -> None:
    from repro.analysis import format_table
    from repro.analysis.observe import (mediation_delay_metrics,
                                        run_observed_workload)
    sim, _ = run_observed_workload(duration=args.duration, seed=args.seed,
                                   max_per_category=args.cap,
                                   profile=args.profile)
    stats = sim.stats()
    print("Event loop:")
    print(format_table(["metric", "value"],
                       [(key, value) for key, value in stats.items()
                        if key != "profile"]))
    snapshot = mediation_delay_metrics(sim.trace).snapshot()
    rows = [(name, s["count"], s["mean"] * 1000, s["p50"] * 1000,
             s["p95"] * 1000, s["p99"] * 1000)
            for name, s in sorted(snapshot["observations"].items())]
    print("\nMediation delays (ms):")
    print(format_table(["metric", "count", "mean", "p50", "p95", "p99"],
                       rows))
    if args.profile:
        top = list(stats["profile"].items())[:args.top]
        print("\nCallback wall-time profile (top entries):")
        print(format_table(
            ["callback", "calls", "seconds"],
            [(name, entry["calls"], entry["seconds"])
             for name, entry in top]))


def cmd_spans(args) -> None:
    import time as _time

    from repro.analysis import format_table
    from repro.analysis.flows import flow_summary
    from repro.analysis.observe import run_observed_workload
    from repro.obs import export_perfetto, validate_file

    started = _time.perf_counter()
    sim, _ = run_observed_workload(duration=args.duration, seed=args.seed,
                                   profile=args.profile, flows=True)
    total_seconds = _time.perf_counter() - started
    summary = flow_summary(sim.flows)
    print(f"Spans: {summary['spans']} recorded "
          f"({summary['open_spans']} open, "
          f"{summary['dropped_spans']} dropped) across "
          f"{summary['flows']} flows")
    counts = sim.flows.store.name_counts()
    print(format_table(["span", "count"],
                       sorted(counts.items())))
    profile = None
    if args.profile and sim.profiler is not None:
        profile = sim.profiler.summary(
            loop_seconds=sim.wall_seconds,
            total_seconds=total_seconds,
            release_times=sim.trace.times("egress.release"))
        from repro.bench.cli import profile_lines
        for line in profile_lines(profile):
            print(line)
    if args.perfetto:
        extra = None
        if profile is not None:
            from repro.prof.export import counter_events
            extra = counter_events(profile)
        written = export_perfetto(sim.flows.store, args.perfetto,
                                  extra_events=extra)
        print(f"\nExported {written} duration events to {args.perfetto} "
              f"(open in https://ui.perfetto.dev"
              f"{'; profiler counter tracks merged' if extra else ''})")
        if args.validate:
            problems = validate_file(args.perfetto)
            if problems:
                print("Validation FAILED:")
                for problem in problems:
                    print(f"  - {problem}")
                raise SystemExit(1)
            print("Validation: PASS (parses, pid/tid/ts/dur present, "
                  "critical stages sum to end-to-end)")
    elif args.validate:
        raise SystemExit("--validate requires --perfetto OUT")


def cmd_flows(args) -> None:
    from repro.analysis import format_table
    from repro.analysis.flows import (flow_detail_rows, flow_stage_rows,
                                      flow_summary, slowest_flow_rows)
    from repro.analysis.observe import run_observed_workload
    from repro.obs import STAGES

    sim, _ = run_observed_workload(duration=args.duration, seed=args.seed,
                                   flows=True)
    tracker = sim.flows
    summary = flow_summary(tracker)
    print(f"Flows: {summary['complete']} complete / {summary['flows']} "
          f"tracked ({summary['incomplete']} incomplete, "
          f"{summary['dropped_flows']} evicted, "
          f"{summary['nak_repairs']} NAK repairs)")
    if args.flow:
        flow, rows = flow_detail_rows(tracker, args.flow)
        if flow is None:
            raise SystemExit(f"unknown flow {args.flow!r} (ids look like "
                             f"'echo/3'; try the slowest-flows table)")
        e2e = flow.end_to_end
        state = (f"end-to-end {e2e * 1000:.3f} ms"
                 if e2e is not None else "not yet released")
        print(f"\nFlow {flow.flow_id}: {state}, "
              f"critical replica {flow.release_replica}")
        print(format_table(["span", "replica", "start ms", "end ms",
                            "dur ms", "annotations"], rows))
        return
    print("\nCritical-path stage latency (ms):")
    print(format_table(["stage", "count", "mean", "p50", "p95", "p99"],
                       flow_stage_rows(tracker)))
    print(f"\nSlowest {args.top_k} flows (ms):")
    print(format_table(["flow", "e2e", "dominant"] + list(STAGES),
                       slowest_flow_rows(tracker, top_k=args.top_k)))


def cmd_chaos(args) -> None:
    if args.mode == "campaign":
        return cmd_chaos_campaign(args)
    from repro.analysis import format_table
    from repro.analysis.chaos import (chaos_signature, chaos_timeline_rows,
                                      default_schedule, determinism_check,
                                      run_chaos_experiment, service_summary)
    if args.duration is None:
        args.duration = 3.0
    schedule = default_schedule(crash_at=args.crash_at,
                                restart_at=args.restart_at,
                                replica=args.replica)
    if args.check_determinism:
        check = determinism_check(seed=args.seed, duration=args.duration,
                                  schedule=schedule)
        result = check["first"]
    else:
        check = None
        result = run_chaos_experiment(seed=args.seed,
                                      duration=args.duration,
                                      schedule=schedule)

    print(f"Chaos run: seed={args.seed} duration={args.duration}s, "
          f"crash echo:{args.replica} at t={args.crash_at}, "
          f"restart at t={args.restart_at}")
    print(format_table(["time", "event", "detail"],
                       chaos_timeline_rows(result)))
    summary = service_summary(result)
    lo, hi = summary["window"]
    print(f"\nService: {summary['replies']}/{summary['sent']} pings "
          f"answered; {summary['replies_during_outage']} during the "
          f"outage window [{lo:.2f}s, {hi:.2f}s], "
          f"{summary['replies_after_recovery']} after recovery; "
          f"{summary['released']} packets released at egress")
    signature = chaos_signature(result["sim"].trace)
    print(f"Signature: {len(signature)} fault/recovery/release records")
    if check is not None:
        if check["identical"]:
            print(f"Determinism: PASS -- two seed-{args.seed} runs "
                  f"produced identical signatures "
                  f"({check['records']} records)")
        else:
            index, a, b = check["divergence"]
            print(f"Determinism: FAIL at record {index}:")
            print(f"  run 1: {a}")
            print(f"  run 2: {b}")
            raise SystemExit(1)


def cmd_chaos_campaign(args) -> None:
    from repro.analysis.chaos import CELL_SCENARIOS, run_chaos_campaign
    from repro.sim.rng import derive_root_seed

    scenarios = [s.strip() for s in args.scenarios.split(",") if s.strip()]
    unknown = sorted(set(scenarios) - set(CELL_SCENARIOS))
    if unknown:
        raise SystemExit(f"unknown chaos scenarios {unknown}; "
                         f"choose from {list(CELL_SCENARIOS)}")
    seeds = [derive_root_seed(args.seed_base, i) for i in range(args.seeds)]
    duration = args.duration if args.duration is not None else 6.0
    progress = None if args.json else print
    summary = run_chaos_campaign(seeds=seeds, scenarios=scenarios,
                                 duration=duration, rate=args.rate,
                                 jobs=args.jobs, profile=args.profile,
                                 progress=progress)
    if args.profile_out:
        if not summary.get("profile"):
            raise SystemExit("--profile-out requires --profile")
        from repro.prof.export import write_speedscope
        write_speedscope(args.profile_out, summary["profile"],
                         name="chaos campaign")
        if not args.json:
            print(f"wrote speedscope profile to {args.profile_out}")
    if args.json:
        print(json.dumps(summary, indent=2, default=repr))
    else:
        print(f"\nChaos campaign: {summary['cells']} cells "
              f"({args.seeds} seeds x {len(scenarios)} scenarios), "
              f"{summary['faults_injected']} faults injected "
              f"({summary['noops']} no-ops) in "
              f"{summary['wall_seconds']:.1f}s wall")
        recovery = ("no recoveries needed"
                    if summary["recovery_p50"] is None else
                    f"recovery p50 {summary['recovery_p50']:.3f}s "
                    f"p95 {summary['recovery_p95']:.3f}s")
        print(f"Healing: {summary['evacuations']} evacuations, "
              f"{summary['rejoins']} in-place rejoins, "
              f"{summary['readmits']} readmits, "
              f"{summary['heal_failures']} gave up; {recovery}")
        print(f"Service: {summary['replies']}/{summary['sent']} pings "
              f"answered, {summary['client_retries']} client retries")
        if summary.get("profile"):
            from repro.bench.cli import profile_lines
            for line in profile_lines(summary["profile"]):
                print(line)
        if summary["ok"]:
            print(f"Invariants: PASS -- placement, liveness and hygiene "
                  f"held in all {summary['cells']} cells; "
                  f"all signatures replayed byte-identical")
        else:
            print(f"Invariants: FAIL -- "
                  f"{len(summary['violations'])} violations:")
            for violation in summary["violations"]:
                print(f"  {violation}")
    if not summary["ok"]:
        raise SystemExit(1)


def cmd_mitigate(args) -> None:
    from repro.analysis import format_table
    from repro.analysis.mitigation import ATTACK_NAMES, mitigation_frontier
    from repro.mitigation import POLICIES
    from repro.sim.rng import derive_root_seed

    policies = [p.strip() for p in args.policies.split(",") if p.strip()]
    attacks = [a.strip() for a in args.attacks.split(",") if a.strip()]
    unknown = sorted(set(policies) - set(POLICIES))
    if unknown:
        raise SystemExit(f"unknown policies {unknown}; "
                         f"choose from {sorted(POLICIES)}")
    unknown = sorted(set(attacks) - set(ATTACK_NAMES))
    if unknown:
        raise SystemExit(f"unknown attacks {unknown}; "
                         f"choose from {list(ATTACK_NAMES)}")
    seeds = [derive_root_seed(args.seed_base, i)
             for i in range(args.seeds)]
    progress = None if args.json else print
    summary = mitigation_frontier(
        policies=policies, attacks=attacks, duration=args.duration,
        seeds=seeds, bins=args.bins, workload=args.workload,
        jobs=args.jobs, progress=progress)
    if args.json:
        print(json.dumps(summary, indent=2, default=repr))
    else:
        print(f"\nMitigation frontier: {summary['cells']} cells "
              f"({len(policies)} policies x {len(attacks)} attacks x "
              f"{args.seeds} seeds) in "
              f"{summary['wall_seconds']:.1f}s wall")
        rows = [(row["policy"], row["attack"],
                 f"{row['mi_bits']:.4f}" if row["mi_bits"] is not None
                 else "-",
                 f"{row['capacity_bits']:.4f}"
                 if row["capacity_bits"] is not None else "-",
                 f"{row['overhead_x']:.2f}x"
                 if row["overhead_x"] is not None else "-")
                for row in summary["rows"]]
        print(format_table(["policy", "attack", "MI (bits)",
                            "capacity", "overhead"], rows))
        gate = summary["gate"]
        if gate["checked"]:
            print(f"Gate ({gate['attack']}): "
                  f"{'PASS' if gate['ok'] else 'FAIL'} -- "
                  f"{gate['detail']}")
        else:
            print(f"Gate: skipped -- {gate['detail']}")
        for failure in summary["failures"]:
            print(f"  cell failed: {failure}")
    if not summary["ok"]:
        raise SystemExit(1)


def cmd_scale(args) -> None:
    from repro.analysis import format_table
    from repro.analysis.scale import (build_scale_spec, run_scale_cell,
                                      scale_sweep)
    from repro.bench.cli import _parse_set
    from repro.cloud.scenario import ScenarioSpec

    workload_params = _parse_set(args.workload_param)
    if args.spec:
        spec = ScenarioSpec.from_file(args.spec)
        if args.shards is not None:
            spec.shards = args.shards
        rows = [run_scale_cell(spec, duration=args.duration,
                               seed=args.seed, profile=args.profile)]
    else:
        rows = scale_sweep(
            tenant_counts=_ints(args.tenants), duration=args.duration,
            seed=args.seed, shards=args.shards or 1,
            workload=args.workload, clients_per_tenant=args.clients,
            request_rate=args.rate, machines=args.machines,
            profile=args.profile, workload_params=workload_params)

    print("Multi-tenant scale sweep (mediation = ingress admission -> "
          "egress release)")
    print(format_table(
        ["tenants", "machines", "cap", "shards", "events/s",
         "releases/s", "p50 ms", "p95 ms", "placed", "replicas agree"],
        [(r["tenants"], r["machines"], r["capacity"], r["shards"],
          int(r["events_per_second"]), round(r["releases_per_sim_second"], 1),
          round(r["mediation_p50"] * 1000, 3),
          round(r["mediation_p95"] * 1000, 3),
          "yes" if r["placement_verified"] else "NO",
          "yes" if r["outputs_consistent"] else "NO") for r in rows]))

    if args.profile:
        from repro.bench.cli import profile_lines
        from repro.prof.profiler import merge_summaries
        profiles = [row["profile"] for row in rows if row.get("profile")]
        merged = profiles[0] if len(profiles) == 1 \
            else merge_summaries(profiles)
        for line in profile_lines(merged):
            print(line)
        if args.profile_out:
            from repro.prof.export import write_speedscope
            write_speedscope(args.profile_out, merged, name="repro scale")
            print(f"wrote speedscope profile to {args.profile_out} "
                  f"(open in https://www.speedscope.app)")
    elif args.profile_out:
        raise SystemExit("--profile-out requires --profile")

    failed = False
    for row in rows:
        if not row["placement_verified"]:
            print(f"FAIL: {row['scenario']}: placement invariants violated")
            failed = True
        if not row["outputs_consistent"]:
            print(f"FAIL: {row['scenario']}: replica output counts diverge")
            failed = True

    if not args.once:
        # same-seed re-run: the egress release schedule must be
        # byte-identical (the determinism claim, end to end)
        for row in rows:
            if args.spec:
                spec = ScenarioSpec.from_file(args.spec)
                if args.shards is not None:
                    spec.shards = args.shards
            else:
                spec = build_scale_spec(
                    row["tenants"], shards=args.shards or 1,
                    workload=args.workload,
                    clients_per_tenant=args.clients,
                    request_rate=args.rate, machines=args.machines,
                    workload_params=workload_params)
            rerun = run_scale_cell(spec, duration=args.duration,
                                   seed=args.seed)
            if rerun["egress_signature"] != row["egress_signature"]:
                print(f"FAIL: {row['scenario']}: seed {args.seed} egress "
                      f"traces differ across runs")
                failed = True
            else:
                print(f"Determinism: {row['scenario']}: PASS "
                      f"(seed-{args.seed} egress signature "
                      f"{row['egress_signature'][:16]}... reproduced)")
    if failed:
        raise SystemExit(1)


def cmd_workloads(args) -> None:
    from repro.analysis import format_table
    from repro.workloads import registry

    specs = [registry.get(name) for name in registry.names()]
    if args.json:
        print(json.dumps([{
            "name": spec.name,
            "scope": spec.scope,
            "profile": spec.profile.as_dict(),
            "ports": list(spec.ports),
            "defaults": dict(spec.defaults),
            "has_driver": spec.driver is not None,
            "description": spec.description,
        } for spec in specs], indent=2, default=repr))
        return
    print("Deployable workloads (scenario/TOML `workload = \"<name>\"`; "
          "defaults overridable via [tenants.workload_params])")
    print(format_table(
        ["workload", "scope", "cpu", "disk", "net", "port", "driver",
         "description"],
        [(spec.name, spec.scope,
          f"{spec.profile.cpu:.2f}", f"{spec.profile.disk:.2f}",
          f"{spec.profile.net:.2f}",
          ",".join(str(port) for port in spec.ports) or "-",
          "yes" if spec.driver is not None else "no",
          spec.description) for spec in specs]))


def cmd_storage(args) -> None:
    from repro.analysis.storage import run_storage_repair_cell

    result = run_storage_repair_cell(
        seed=args.seed, duration=args.duration, k=args.k, n=args.n,
        object_size=args.object_size, objects=args.objects,
        crash_at=args.crash_at, check_determinism=not args.once,
        profile=args.profile)
    if args.json:
        print(json.dumps(result, indent=2, default=repr))
    else:
        print(f"Storage repair cell: {args.k}-of-{args.n} over "
              f"{result['objects_stored']} x {args.object_size} B "
              f"objects; host {result['victim_host']} condemned at "
              f"t={args.crash_at}s")
        print(f"  client: {result['puts_completed']} puts, "
              f"{result['gets_completed']} gets, "
              f"{result['verify_failures']} verify failures, "
              f"{result['client_retries']} retries")
        print(f"  repair: {result['repairs_completed']}/"
              f"{result['repairs_started']} completed, "
              f"{result['repaired_bytes']} B reconstructed "
              f"({result['repaired_bytes_per_sim_s']:.0f} B/sim-s); "
              f"healer: {result['evacuations']} evacuations")
        print(f"  shares: min {result['min_live_shares']}/{args.n} "
              f"live per object, digests "
              f"{'verified' if result['shares_verified'] else 'MISMATCH'}")
        if result["deterministic"] is not None:
            print(f"  determinism: "
                  f"{'PASS' if result['deterministic'] else 'FAIL'} "
                  f"({result['signature_records']} signature records)")
        for violation in result["violations"]:
            print(f"  violation: {violation}")
    if args.profile and result.get("profile"):
        from repro.bench.cli import profile_lines
        for line in profile_lines(result["profile"]):
            print(line)
    if not result["ok"]:
        raise SystemExit(1)


def cmd_list(args) -> None:
    from repro.bench.registry import cell_names
    print("Subcommands: " + " ".join(args.commands))
    print("Cells (campaign runners and bench ids): "
          + " ".join(cell_names()))


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Regenerate figures from the StopWatch paper "
                    "(Li/Gao/Reiter, DSN 2013) on the simulator.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("fig1", help="analytic median justification")
    p.add_argument("--victim-rate", type=float, default=0.5)
    p.set_defaults(fn=cmd_fig1)

    p = sub.add_parser("fig4", help="empirical coresidence detection")
    p.add_argument("--duration", type=float, default=30.0)
    p.set_defaults(fn=cmd_fig4)

    p = sub.add_parser("fig5", help="file-download latency")
    p.add_argument("--sizes", default="1000,10000,100000,1000000")
    p.set_defaults(fn=cmd_fig5)

    p = sub.add_parser("fig6", help="NFS under nhfsstone")
    p.add_argument("--rates", default="25,50,100,200,400")
    p.add_argument("--duration", type=float, default=8.0)
    p.set_defaults(fn=cmd_fig6)

    p = sub.add_parser("fig7", help="PARSEC kernels")
    p.add_argument("--kernels", default=None)
    p.add_argument("--scale", type=float, default=1.0)
    p.set_defaults(fn=cmd_fig7)

    p = sub.add_parser("fig8", help="StopWatch vs uniform noise")
    p.add_argument("--victim-rate", type=float, default=0.5)
    p.set_defaults(fn=cmd_fig8)

    p = sub.add_parser("placement", help="Sec. VIII utilisation")
    p.set_defaults(fn=cmd_placement)

    p = sub.add_parser("offsets", help="delta_n/delta_d translation")
    p.add_argument("--duration", type=float, default=10.0)
    p.set_defaults(fn=cmd_offsets)

    p = sub.add_parser("covert", help="covert-channel BER")
    p.add_argument("--bits", type=int, default=24)
    p.set_defaults(fn=cmd_covert)

    p = sub.add_parser("collab", help="Sec. IX collaborating attackers")
    p.add_argument("--duration", type=float, default=15.0)
    p.set_defaults(fn=cmd_collab)

    p = sub.add_parser("trace", help="record a traced run; summarize "
                                     "and export JSONL")
    p.add_argument("--duration", type=float, default=2.0)
    p.add_argument("--seed", type=int, default=5)
    p.add_argument("--categories", default=None,
                   help="comma-separated dotted category prefixes "
                        "(default: record everything)")
    p.add_argument("--cap", type=_positive_int, default=100_000,
                   help="ring-buffer cap per category")
    p.add_argument("--out", default=None, help="stream records to this "
                                               "JSONL file")
    p.set_defaults(fn=cmd_trace)

    p = sub.add_parser("metrics", help="event-loop health and "
                                       "mediation-delay percentiles")
    p.add_argument("--duration", type=float, default=2.0)
    p.add_argument("--seed", type=int, default=5)
    p.add_argument("--cap", type=_positive_int, default=100_000)
    p.add_argument("--profile", action="store_true",
                   help="profile per-callback wall time")
    p.add_argument("--top", type=int, default=10)
    p.set_defaults(fn=cmd_metrics)

    p = sub.add_parser("spans", help="record a span-tracked run; "
                                     "summarize and export Perfetto JSON")
    p.add_argument("--duration", type=float, default=2.0)
    p.add_argument("--seed", type=int, default=5)
    p.add_argument("--perfetto", default=None, metavar="OUT",
                   help="write Chrome trace-event JSON to this file")
    p.add_argument("--validate", action="store_true",
                   help="validate the exported trace (with --perfetto); "
                        "non-zero exit on failure")
    p.add_argument("--profile", action="store_true",
                   help="attribute CPU to subsystems; with --perfetto, "
                        "merge counter tracks into the span trace")
    p.set_defaults(fn=cmd_spans)

    p = sub.add_parser("flows", help="per-flow mediation-delay "
                                     "attribution (critical-path stages)")
    p.add_argument("--duration", type=float, default=2.0)
    p.add_argument("--seed", type=int, default=5)
    p.add_argument("--flow", default=None, metavar="ID",
                   help="show one flow's span timeline (e.g. echo/3)")
    p.add_argument("--top-k", type=_positive_int, default=10,
                   help="slowest flows to list")
    p.set_defaults(fn=cmd_flows)

    p = sub.add_parser("chaos", help="crash/recover a replica mid-run "
                                     "under load; or 'chaos campaign': "
                                     "randomized invariant-gated storms "
                                     "across seeds x scenarios")
    p.add_argument("mode", nargs="?", choices=["campaign"],
                   help="omit for the single scripted run; 'campaign' "
                        "sweeps seeded random storms and gates on "
                        "placement/liveness/hygiene invariants")
    p.add_argument("--seed", type=int, default=7)
    p.add_argument("--duration", type=float, default=None,
                   help="simulated seconds per run (default: 3 for the "
                        "scripted run, 6 per campaign cell)")
    p.add_argument("--crash-at", type=float, default=0.9)
    p.add_argument("--restart-at", type=float, default=2.0)
    p.add_argument("--replica", type=int, default=2,
                   help="echo replica id to crash")
    p.add_argument("--check-determinism", action="store_true",
                   help="run twice with the same seed and compare "
                        "fault/recovery/heal/release signatures "
                        "(campaign cells always do this)")
    p.add_argument("--seeds", type=_positive_int, default=7,
                   help="campaign: number of derived storm seeds")
    p.add_argument("--seed-base", type=int, default=101,
                   help="campaign: base for seed derivation")
    p.add_argument("--scenarios", default=",".join(
                       ("single", "multi", "sharded")),
                   help="campaign: comma-separated cell scenarios")
    p.add_argument("--rate", type=float, default=1.2,
                   help="campaign: storm fault rate (faults/s)")
    p.add_argument("--jobs", type=_positive_int, default=1,
                   help="campaign: worker processes")
    p.add_argument("--json", action="store_true",
                   help="campaign: print the full summary as JSON")
    p.add_argument("--profile", action="store_true",
                   help="campaign: profile each cell's primary run and "
                        "report merged subsystem CPU attribution "
                        "(measurement-only)")
    p.add_argument("--profile-out", default=None, metavar="JSON",
                   help="campaign: write the merged profile as "
                        "speedscope JSON (requires --profile)")
    p.set_defaults(fn=cmd_chaos)

    p = sub.add_parser("mitigate", help="leakage-vs-overhead frontier: "
                                        "mitigation policies x attack "
                                        "probes through the campaign "
                                        "executor")
    p.add_argument("--policies", default="none,uniform-noise,deterland,"
                                         "stopwatch",
                   help="comma-separated mitigation policies")
    p.add_argument("--attacks", default="probe,theft,clocks",
                   help="comma-separated attack probes")
    p.add_argument("--duration", type=float, default=12.0,
                   help="simulated seconds per attack condition")
    p.add_argument("--seeds", type=_positive_int, default=1,
                   help="number of derived seeds per cell")
    p.add_argument("--seed-base", type=int, default=7,
                   help="base for seed derivation")
    p.add_argument("--bins", type=_positive_int, default=10,
                   help="histogram bins for the MI estimator")
    p.add_argument("--workload", default="fileserver",
                   choices=["fileserver", "echo"],
                   help="victim workload")
    p.add_argument("--jobs", type=_positive_int, default=1,
                   help="worker processes")
    p.add_argument("--json", action="store_true",
                   help="print the full summary as JSON")
    p.set_defaults(fn=cmd_mitigate)

    p = sub.add_parser("scale", help="multi-tenant fleet scaling: "
                                     "throughput and mediation delay vs "
                                     "tenant count, with placement and "
                                     "determinism verification")
    p.add_argument("--tenants", default="1,8,32",
                   help="comma-separated tenant counts")
    p.add_argument("--duration", type=float, default=3.0)
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--shards", type=_positive_int, default=None,
                   help="ingress/egress shard count (default 1)")
    p.add_argument("--workload", default="echo",
                   help="any registry workload name "
                        "(see `repro workloads`)")
    p.add_argument("--workload-param", action="append", default=None,
                   metavar="KEY=VALUE",
                   help="override a workload default (repeatable; JSON "
                        "values accepted, e.g. --workload-param n=4)")
    p.add_argument("--clients", type=_positive_int, default=1,
                   help="client machines per tenant VM")
    p.add_argument("--rate", type=float, default=40.0,
                   help="per-client request rate (echo/nfs)")
    p.add_argument("--machines", type=_positive_int, default=None,
                   help="pin the fleet size (default: auto-size)")
    p.add_argument("--spec", default=None, metavar="TOML",
                   help="run a ScenarioSpec file instead of the "
                        "homogeneous sweep")
    p.add_argument("--once", action="store_true",
                   help="skip the same-seed determinism re-run")
    p.add_argument("--profile", action="store_true",
                   help="profile each cell and report subsystem CPU "
                        "attribution (measurement-only; the determinism "
                        "re-run still passes)")
    p.add_argument("--profile-out", default=None, metavar="JSON",
                   help="write the profile as speedscope JSON "
                        "(requires --profile)")
    p.set_defaults(fn=cmd_scale)

    p = sub.add_parser("workloads", help="list the deployable workload "
                                         "registry: name, scope, "
                                         "resource profile, defaults")
    p.add_argument("--json", action="store_true",
                   help="print the registry as JSON")
    p.set_defaults(fn=cmd_workloads)

    p = sub.add_parser("storage", help="erasure-coded storage tenant "
                                       "under a host crash: k-of-n "
                                       "share repair across the "
                                       "mediated fabric, invariant-"
                                       "gated")
    p.add_argument("--seed", type=int, default=7)
    p.add_argument("--duration", type=float, default=6.0,
                   help="simulated seconds (includes a 1.5s drain)")
    p.add_argument("--k", type=_positive_int, default=2,
                   help="data shares per object")
    p.add_argument("--n", type=_positive_int, default=3,
                   help="total shares == tenant VMs")
    p.add_argument("--object-size", type=_positive_int, default=8192,
                   help="bytes per stored object")
    p.add_argument("--objects", type=_positive_int, default=3,
                   help="objects in the client's working set")
    p.add_argument("--crash-at", type=float, default=1.2,
                   help="when the share-holding host is condemned")
    p.add_argument("--once", action="store_true",
                   help="skip the same-seed determinism replay")
    p.add_argument("--json", action="store_true",
                   help="print the full cell result as JSON")
    p.add_argument("--profile", action="store_true",
                   help="profile the primary run and report subsystem "
                        "CPU attribution (measurement-only)")
    p.set_defaults(fn=cmd_storage)

    from repro.bench.cli import add_bench_parser
    add_bench_parser(sub)

    from repro.campaign.cli import add_campaign_parser
    add_campaign_parser(sub)

    p = sub.add_parser("list", help="list subcommands and cells")
    p.set_defaults(fn=cmd_list, commands=list(sub.choices))
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    args.fn(args)
    return 0


if __name__ == "__main__":
    sys.exit(main())
