"""Command-line interface.

Every pipeline stage and report is reachable from the shell::

    repro info
    repro train nmnist --scale small
    repro faultsim nmnist
    repro generate nmnist
    repro verify nmnist
    repro pack nmnist -o stored_test.npz
    repro report table3
    repro report all

Stages cache under ``<results>/cache`` exactly like the benchmark
harness, so the CLI and ``pytest benchmarks/`` share artifacts.
"""

from __future__ import annotations

import argparse
import dataclasses
import sys
from pathlib import Path
from typing import Dict, Optional, Sequence

from repro._version import __version__
from repro.analysis.tables import format_percent, format_seconds
from repro.experiments import (
    BENCHMARK_NAMES,
    SCALES,
    ExperimentPipeline,
    get_benchmark,
)
from repro.experiments.pipeline import default_results_dir
from repro.experiments.reports import (
    ablation_report,
    fig7_report,
    fig8_report,
    fig9_report,
    save_report,
    table1_report,
    table2_report,
    table3_report,
    table4_report,
)

REPORTS = ("table1", "table2", "table3", "table4", "fig7", "fig8", "fig9", "ablation")


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Minimum-time maximum-fault-coverage SNN test generation "
        "(DATE 2025 reproduction)",
    )
    parser.add_argument("--version", action="version", version=f"repro {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("info", help="list benchmarks, scales, and reports")

    def add_pipeline_args(p: argparse.ArgumentParser) -> None:
        p.add_argument("benchmark", choices=BENCHMARK_NAMES)
        p.add_argument("--scale", choices=SCALES, default="small")
        p.add_argument("--results", type=Path, default=None,
                       help="results root (default: $REPRO_RESULTS or ./results)")
        p.add_argument("--seed", type=int, default=0)
        p.add_argument("--workers", type=int, default=None,
                       help="fault-simulation worker processes "
                       "(default: $REPRO_WORKERS or 1)")
        p.add_argument("-v", "--verbose", action="store_true",
                       help="log per-iteration wall-clock breakdown "
                       "(stage forward/backward/optimizer split)")
        p.add_argument("--resume", action="store_true",
                       help="continue interrupted labelling and generation "
                       "from their progress checkpoints (bit-identical "
                       "results; see docs/RESILIENCE.md).  Verification "
                       "needs no flag: any re-run resumes from the "
                       "coverage store")
        # Fault-model overrides.  Any override gets its own cache namespace
        # (results/cache/<key>-faults<digest>), so benchmark artifacts built
        # under the definition's default model are never contaminated.
        p.add_argument("--fault-families", choices=("classic", "extended"),
                       default=None,
                       help="classic = the paper's five neuron kinds; "
                       "extended adds parametric (threshold/leak/refractory), "
                       "delay, and — with --transient-window — time-windowed "
                       "transient faults (see docs/FAULT_MODEL.md)")
        p.add_argument("--transient-window", action="append", default=None,
                       metavar="T0:T1",
                       help="enumerate transient faults active during "
                       "[T0, T1); repeatable")
        p.add_argument("--weight-bits", type=int, default=None,
                       help="stored synapse word width for BITFLIP faults")
        p.add_argument("--datapath-bits", type=int, default=None,
                       help="accelerator datapath width; flips below its "
                       "resolution collapse to no-ops")
        p.add_argument("--bitflip-bits", default=None, metavar="B0,B1,...",
                       help="comma-separated bit positions enumerated per "
                       "weight for BITFLIP faults")

    add_pipeline_args(sub.add_parser("train", help="train and cache the benchmark model"))
    add_pipeline_args(sub.add_parser(
        "faultsim", help="run the criticality-labelling fault-simulation campaign"))
    add_pipeline_args(sub.add_parser("generate", help="run the proposed test generation"))
    verify = sub.add_parser(
        "verify", help="fault-simulate the generated test and print coverage")
    add_pipeline_args(verify)
    verify.add_argument("--fast-metrics", action="store_true",
                        help="enable fault dropping in the segmented campaign: "
                        "detection is still exact but output_l1/class_count_diff "
                        "only cover segments up to first detection (skips the "
                        "Fig. 9 exact-metrics guarantee)")
    verify.add_argument("--store", type=Path, default=None, metavar="DIR",
                        help="coverage-store directory for differential "
                        "re-verification (default: <results>/cache/"
                        "coverage_store); cached per-(fault-group, segment) "
                        "outcomes make re-runs after test or catalog edits pay "
                        "only for the affected suffix, bit-identically, and "
                        "let a killed campaign resume")
    verify.add_argument("--no-store", action="store_true",
                        help="disable the persistent coverage store and "
                        "recompute every (fault, segment) pair (a killed "
                        "campaign then restarts from scratch)")

    pack = sub.add_parser("pack", help="build the on-chip StoredTest artifact")
    add_pipeline_args(pack)
    pack.add_argument("-o", "--output", type=Path, required=True)

    compact = sub.add_parser(
        "compact", help="drop chunks whose fault detections are subsumed"
    )
    add_pipeline_args(compact)
    compact.add_argument("--tolerance", type=float, default=0.0,
                         help="allowed union-coverage drop (fraction of faults)")

    catalog = sub.add_parser(
        "catalog", help="enumerate the fault catalog and report its size"
    )
    add_pipeline_args(catalog)
    catalog.add_argument("--collapse", action="store_true",
                         help="also run systematic fault collapsing and print "
                         "the per-reason drop report")
    catalog.add_argument("--duration", type=int, default=None,
                         help="test duration in steps for the window-dominance "
                         "collapsing pass (default: structural rules only)")

    report = sub.add_parser("report", help="regenerate a paper table/figure report")
    report.add_argument("name", choices=REPORTS + ("all",))
    report.add_argument("--scale", choices=SCALES, default="small")
    report.add_argument("--results", type=Path, default=None)
    report.add_argument("--seed", type=int, default=0)

    def add_endpoint_args(p: argparse.ArgumentParser) -> None:
        p.add_argument("--socket", type=Path, default=None,
                       help="unix socket path of the campaign daemon")
        p.add_argument("--port", type=int, default=None,
                       help="TCP port of the campaign daemon")
        p.add_argument("--host", default="127.0.0.1")

    serve = sub.add_parser(
        "serve", help="run the resilient campaign daemon (see docs/SERVICE.md)"
    )
    add_endpoint_args(serve)
    serve.add_argument("--state", type=Path, required=True,
                       help="service state directory (job records, "
                       "generation checkpoints, results, default coverage "
                       "store); restarting on the same state resumes every "
                       "in-flight job")
    serve.add_argument("--workers", type=int, default=None,
                       help="shared worker-pool budget leased across jobs "
                       "(default: $REPRO_WORKERS or 1)")
    serve.add_argument("--max-jobs", type=int, default=None,
                       help="jobs running concurrently")
    serve.add_argument("--queue-depth", type=int, default=None,
                       help="queued-job cap before submissions are rejected "
                       "(default: $REPRO_SERVICE_QUEUE_DEPTH or 16)")
    serve.add_argument("--client-cap", type=int, default=None,
                       help="per-client cap on jobs queued or running")
    serve.add_argument("--job-timeout", type=float, default=None,
                       help="default per-job deadline in seconds "
                       "(default: $REPRO_JOB_TIMEOUT or none)")
    serve.add_argument("--store", type=Path, default=None, metavar="DIR",
                       help="coverage-store directory shared by verify jobs, "
                       "which resume from it after a kill (default: "
                       "<state>/coverage_store)")

    bundle = sub.add_parser(
        "bundle", help="build a campaign bundle for `repro submit`"
    )
    add_pipeline_args(bundle)
    bundle.add_argument("-o", "--output", type=Path, required=True)
    bundle.add_argument("--kind", choices=("verify", "generate"), default="verify")

    submit = sub.add_parser("submit", help="submit a campaign bundle to the daemon")
    add_endpoint_args(submit)
    submit.add_argument("bundle", type=Path)
    submit.add_argument("--kind", choices=("verify", "generate"), default="verify")
    submit.add_argument("--client", default="cli")
    submit.add_argument("--priority", type=int, default=0,
                        help="lower runs first; FIFO within a priority")
    submit.add_argument("--timeout", type=float, default=None,
                        help="per-job deadline in running seconds")
    submit.add_argument("--job-workers", type=int, default=None,
                        help="workers to request from the shared pool budget")
    submit.add_argument("--wait", action="store_true",
                        help="block until the job is terminal and print its "
                        "summary")

    status = sub.add_parser("status", help="show one job (or all jobs) on the daemon")
    add_endpoint_args(status)
    status.add_argument("job", nargs="?", default=None)

    cancel = sub.add_parser("cancel", help="cancel a queued or running job")
    add_endpoint_args(cancel)
    cancel.add_argument("job")

    watch = sub.add_parser("watch", help="stream a job's progress events")
    add_endpoint_args(watch)
    watch.add_argument("job")

    store = sub.add_parser(
        "store", help="inspect or garbage-collect the persistent coverage store"
    )
    store.add_argument("action", choices=("stat", "gc"))
    store.add_argument("--store", type=Path, default=None, metavar="DIR",
                       help="store directory (default: <results>/cache/"
                       "coverage_store)")
    store.add_argument("--results", type=Path, default=None,
                       help="results directory the default store lives under")
    store.add_argument("--max-bytes", type=int, default=None,
                       help="gc: evict oldest records until the store is under "
                       "this size")
    store.add_argument("--max-age-days", type=float, default=None,
                       help="gc: evict records not read or written for this "
                       "many days")
    return parser


def _parse_window(text: str):
    try:
        t0, t1 = text.split(":")
        return int(t0), int(t1)
    except ValueError:
        raise SystemExit(f"--transient-window expects T0:T1, got {text!r}")


def _fault_config_override(args, base):
    """The definition's fault model with any CLI overrides applied, or
    None when no fault flag was given (keeps the default cache key)."""
    from repro.faults.model import (
        CLASSIC_NEURON_KINDS,
        NeuronFaultKind,
        SynapseFaultKind,
    )

    changes = {}
    families = getattr(args, "fault_families", None)
    if families == "extended":
        changes["neuron_kinds"] = tuple(NeuronFaultKind)
    elif families == "classic" and base.neuron_kinds != CLASSIC_NEURON_KINDS:
        changes["neuron_kinds"] = CLASSIC_NEURON_KINDS
    windows = getattr(args, "transient_window", None)
    if windows:
        changes["transient_windows"] = tuple(_parse_window(w) for w in windows)
        changes["transient_neuron_kinds"] = (
            (NeuronFaultKind.DEAD, NeuronFaultKind.SATURATED,
             NeuronFaultKind.PARAM_THRESHOLD, NeuronFaultKind.DELAY)
            if families == "extended"
            else (NeuronFaultKind.DEAD, NeuronFaultKind.SATURATED)
        )
        changes["transient_synapse_kinds"] = (
            (SynapseFaultKind.DEAD, SynapseFaultKind.BITFLIP)
            if families == "extended"
            else (SynapseFaultKind.DEAD,)
        )
    if getattr(args, "weight_bits", None) is not None:
        changes["weight_bits"] = args.weight_bits
    if getattr(args, "datapath_bits", None) is not None:
        changes["datapath_bits"] = args.datapath_bits
    bits = getattr(args, "bitflip_bits", None)
    if bits is not None:
        changes["bitflip_bits"] = tuple(int(b) for b in bits.split(","))
    if not changes:
        return None
    return dataclasses.replace(base, **changes)


def _pipeline(args, name: Optional[str] = None) -> ExperimentPipeline:
    definition = get_benchmark(name or args.benchmark, args.scale)
    results = args.results if args.results is not None else default_results_dir()
    return ExperimentPipeline(
        definition,
        results_dir=results,
        seed=args.seed,
        log=print,
        workers=getattr(args, "workers", None),
        verbose=getattr(args, "verbose", False),
        resume=getattr(args, "resume", False),
        fast_metrics=getattr(args, "fast_metrics", False),
        fault_config=_fault_config_override(args, definition.fault_config),
        store_dir=(
            False if getattr(args, "no_store", False)
            else getattr(args, "store", None)
        ),
    )


def _pipelines(args) -> Dict[str, ExperimentPipeline]:
    return {name: _pipeline(args, name) for name in BENCHMARK_NAMES}


def _cmd_info(args) -> int:
    print(f"repro {__version__}")
    print(f"benchmarks: {', '.join(BENCHMARK_NAMES)}")
    print(f"scales:     {', '.join(SCALES)}")
    print(f"reports:    {', '.join(REPORTS)}, all")
    print(f"results:    {default_results_dir()}")
    return 0


def _cmd_train(args) -> int:
    pipeline = _pipeline(args)
    network = pipeline.network()
    metrics = pipeline.training_metrics()
    print(network.describe())
    print(
        f"train accuracy {format_percent(metrics.train_accuracy)}, "
        f"test accuracy {format_percent(metrics.test_accuracy)} "
        f"({format_seconds(metrics.wall_time)})"
    )
    return 0


def _cmd_faultsim(args) -> int:
    pipeline = _pipeline(args)
    result = pipeline.classification()
    print(
        f"{len(result.faults)} faults: {result.critical_count} critical, "
        f"{result.benign_count} benign "
        f"(nominal accuracy {format_percent(result.nominal_accuracy)}, "
        f"{format_seconds(result.wall_time)})"
    )
    return 0


def _cmd_generate(args) -> int:
    pipeline = _pipeline(args)
    result = pipeline.generation()
    dataset = pipeline.dataset()
    print(
        f"{result.num_chunks} chunks, T_test {result.stimulus.duration_steps} steps "
        f"(~{result.stimulus.duration_samples(dataset.steps):.2f} samples), "
        f"activated {format_percent(result.activated_fraction)}, "
        f"runtime {format_seconds(result.runtime_s)}"
    )
    if result.health is not None:
        print(f"health: {result.health.summary()}")
    return 0


def _cmd_verify(args) -> int:
    pipeline = _pipeline(args)
    coverage = pipeline.coverage()
    for label, value in coverage.rows():
        print(f"{label}: {format_percent(value)}")
    print(
        f"Max accuracy drop of undetected critical faults: "
        f"neuron {format_percent(coverage.max_drop_undetected_neuron)}, "
        f"synapse {format_percent(coverage.max_drop_undetected_synapse)}"
    )
    if getattr(args, "verbose", False):
        detection = pipeline.detection()
        if detection.dispatch is not None:
            from repro.snn.events import DispatchStats

            stats = DispatchStats.from_dict(detection.dispatch)
            print(f"Current dispatch: {stats.summary()}")
            for name, fields in sorted(detection.dispatch["layers"].items()):
                print(
                    f"  {name}: {fields['spikes']} spikes, "
                    f"{fields['dense_blocks']} dense / "
                    f"{fields['zero_blocks']} zero blocks"
                )
    return 0


def _cmd_pack(args) -> int:
    from repro.core.storage import StoredTest

    pipeline = _pipeline(args)
    generation = pipeline.generation()
    stored = StoredTest.build(pipeline.network(), generation.stimulus)
    stored.save(str(args.output))
    print(f"wrote {args.output} ({stored.storage_bytes} bytes on-chip equivalent)")
    return 0


def _cmd_compact(args) -> int:
    from repro.core.compaction import compact_test

    pipeline = _pipeline(args)
    generation = pipeline.generation()
    catalog = pipeline.catalog()
    compacted, report = compact_test(
        pipeline.network(),
        generation.stimulus,
        catalog.faults,
        pipeline.fault_config,
        coverage_tolerance=args.tolerance,
    )
    print(report.summary())
    return 0


def _cmd_catalog(args) -> int:
    from repro.faults.collapse import collapse_catalog

    pipeline = _pipeline(args)
    catalog = pipeline.catalog()
    print(catalog.summary())
    if args.collapse:
        collapsed = collapse_catalog(
            pipeline.network(), catalog, duration_steps=args.duration
        )
        print(collapsed.summary())
        if args.duration is None:
            print("(pass --duration to enable the window-dominance pass)")
    return 0


def _cmd_report(args) -> int:
    results = args.results if args.results is not None else default_results_dir()
    names = REPORTS if args.name == "all" else (args.name,)
    pipelines = None
    for name in names:
        if name in ("table1", "table2", "table3"):
            pipelines = pipelines or _pipelines(args)
            fn = {"table1": table1_report, "table2": table2_report, "table3": table3_report}[name]
            text, payload = fn(pipelines)
        elif name == "table4":
            pipelines = pipelines or _pipelines(args)
            text, payload = table4_report(pipelines["nmnist"])
        elif name in ("fig7", "fig8", "fig9"):
            pipelines = pipelines or _pipelines(args)
            fn = {"fig7": fig7_report, "fig8": fig8_report, "fig9": fig9_report}[name]
            text, payload = fn(pipelines["ibm"])
        else:  # ablation
            pipelines = pipelines or _pipelines(args)
            text, payload = ablation_report(pipelines["shd"])
        print(text)
        print()
        save_report(results, f"{name}_cli", text, payload)
    return 0


def _cmd_store(args) -> int:
    from repro.faults.store import CoverageStore

    root = args.store
    if root is None:
        results = args.results if args.results is not None else default_results_dir()
        root = Path(results) / "cache" / "coverage_store"
    store = CoverageStore(root)
    if args.action == "stat":
        stat = store.stat()
        print(f"store:     {stat['root']}")
        print(f"records:   {stat['records']}")
        print(f"bytes:     {stat['bytes']}")
        print(f"stale tmp: {stat['stale_tmp']}")
        return 0
    max_age_s = None
    if args.max_age_days is not None:
        max_age_s = args.max_age_days * 86400.0
    swept = store.gc(max_bytes=args.max_bytes, max_age_s=max_age_s)
    print(
        f"removed {swept['removed']} records ({swept['freed_bytes']} bytes), "
        f"{swept['kept_bytes']} bytes kept"
    )
    return 0


# ----------------------------------------------------------------------
# Campaign service verbs
# ----------------------------------------------------------------------
def _service_client(args):
    from repro.service.client import ServiceClient

    return ServiceClient(
        socket_path=None if args.socket is None else str(args.socket),
        host=args.host,
        port=args.port,
        client=getattr(args, "client", "cli"),
    )


def _cmd_serve(args) -> int:
    import asyncio
    import signal

    from repro.service.daemon import CampaignService, ServiceConfig

    kwargs = {}
    for name, value in (
        ("max_jobs", args.max_jobs),
        ("queue_depth", args.queue_depth),
        ("client_cap", args.client_cap),
        ("job_timeout_s", args.job_timeout),
    ):
        if value is not None:
            kwargs[name] = value
    config = ServiceConfig(
        state_dir=str(args.state),
        socket_path=None if args.socket is None else str(args.socket),
        host=args.host,
        port=args.port,
        workers=args.workers,
        store_dir=None if args.store is None else str(args.store),
        **kwargs,
    )
    service = CampaignService(config)

    async def _serve():
        loop = asyncio.get_event_loop()
        for sig in (signal.SIGINT, signal.SIGTERM):
            try:
                loop.add_signal_handler(sig, service.request_shutdown)
            except (NotImplementedError, RuntimeError):
                pass
        endpoint = config.socket_path or f"{config.host}:{config.port}"
        print(f"campaign daemon listening on {endpoint} "
              f"(state {config.state_dir})", flush=True)
        await service.serve()

    asyncio.run(_serve())
    return 0


def _cmd_bundle(args) -> int:
    pipeline = _pipeline(args)
    path = pipeline.campaign_bundle(args.output, kind=args.kind)
    print(f"wrote {args.kind} bundle {path}")
    return 0


def _cmd_submit(args) -> int:
    client = _service_client(args)
    job_id = client.submit(
        str(args.bundle),
        kind=args.kind,
        priority=args.priority,
        timeout_s=args.timeout,
        workers=args.job_workers,
    )
    print(job_id)
    if args.wait:
        job = client.wait(job_id)
        print(f"{job_id}: {job['state']}"
              + (f" ({job['error']})" if job.get("error") else ""))
        for key, value in sorted((job.get("summary") or {}).items()):
            print(f"  {key}: {value}")
        return 0 if job["state"] == "done" else 1
    return 0


def _cmd_status(args) -> int:
    client = _service_client(args)
    if args.job is None:
        for job in client.jobs():
            progress = f" {job['done']}/{job['total']}" if job["total"] else ""
            print(f"{job['id']}  {job['kind']:<8} {job['state']:<9}"
                  f" client={job['client']}{progress}")
        return 0
    job = client.status(args.job)
    for key in ("id", "kind", "state", "client", "attempts", "done", "total",
                "error"):
        if job.get(key) not in (None, ""):
            print(f"{key}: {job[key]}")
    for key, value in sorted((job.get("summary") or {}).items()):
        print(f"summary.{key}: {value}")
    return 0


def _cmd_cancel(args) -> int:
    state = _service_client(args).cancel(args.job)
    print(f"{args.job}: {state}")
    return 0


def _cmd_watch(args) -> int:
    client = _service_client(args)
    for event in client.watch(args.job):
        kind = event.get("event")
        if kind == "progress":
            print(f"{args.job}: {event['done']}/{event['total']}", flush=True)
        elif kind == "state":
            print(f"{args.job}: {event['state']}", flush=True)
        elif kind == "end":
            error = f" ({event['error']})" if event.get("error") else ""
            print(f"{args.job}: {event['state']}{error}", flush=True)
            return 0 if event["state"] == "done" else 1
    return 1


_COMMANDS = {
    "info": _cmd_info,
    "train": _cmd_train,
    "faultsim": _cmd_faultsim,
    "generate": _cmd_generate,
    "verify": _cmd_verify,
    "pack": _cmd_pack,
    "compact": _cmd_compact,
    "catalog": _cmd_catalog,
    "report": _cmd_report,
    "store": _cmd_store,
    "serve": _cmd_serve,
    "bundle": _cmd_bundle,
    "submit": _cmd_submit,
    "status": _cmd_status,
    "cancel": _cmd_cancel,
    "watch": _cmd_watch,
}


def main(argv: Optional[Sequence[str]] = None) -> int:
    """Entry point for the ``repro`` console script."""
    args = _build_parser().parse_args(argv)
    return _COMMANDS[args.command](args)


if __name__ == "__main__":
    sys.exit(main())
