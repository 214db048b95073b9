"""The repo benchmark: one command for every workload and metric.

    python3 bench/run.py [--workload W] [--seed S] [--seconds N]
                         [--trace [0|1]] [--repeat N] [--quick] [--out F]

Each workload run happens in its own process (``workloads.py``), one
after another, in a pinned environment: one BLAS thread, every
``REPRO_*`` variable removed so the shipped defaults are measured,
``PYTHONHASHSEED=0``, and temporary files inside the checkout.  Every
process a run starts, and any it leaves behind, has ended before the
next run starts or the command exits.  The
command prints every metric by name with its unit and, as its last line,
one JSON object ``{"correct", "attempted", "failed", "metrics"}``.
Untraced runs report the end-to-end metrics of ``BENCHMARK.json``; traced
runs (``--trace 1``) report its per-layer metrics.  ``--out`` writes every
raw sample, digest and the machine description as JSON for ``compare.py``.
``--quick`` shrinks every workload for smoke tests; its numbers are
stamped as not comparable.
"""

from __future__ import annotations

import argparse
import ctypes
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
#: A single run must end well inside three minutes, clean-up included.
CHILD_TIMEOUT_S = 160
#: How long a run's leftover processes (multiprocessing's resource
#: tracker outlives the run by a moment) may take to end by themselves.
LEFTOVER_GRACE_S = 5.0
PR_SET_CHILD_SUBREAPER = 36
PINNED_ENV = {
    "OPENBLAS_NUM_THREADS": "1",
    "OMP_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "PYTHONHASHSEED": "0",
}


class BenchError(RuntimeError):
    """The benchmark cannot run here, or a run did not finish."""


def load_spec() -> dict:
    path = ROOT / "BENCHMARK.json"
    try:
        return json.loads(path.read_text())
    except (OSError, ValueError) as exc:
        raise BenchError(f"{path}: {exc}") from exc


def child_env(work: Path) -> dict:
    env = {key: value for key, value in os.environ.items() if not key.startswith("REPRO_")}
    env.update(PINNED_ENV)
    env["PYTHONPATH"] = str(ROOT / "src")
    env["TMPDIR"] = str(work)
    return env


def become_subreaper() -> None:
    """Adopt orphaned descendants, so that a run's processes that outlive
    it (the resource tracker of its shared memory) can be waited for
    here.  Linux only; elsewhere orphans go to init as usual."""
    try:
        ctypes.CDLL(None, use_errno=True).prctl(PR_SET_CHILD_SUBREAPER, 1, 0, 0, 0)
    except (OSError, AttributeError):
        pass


def reap_children() -> None:
    """Collect every child of this process that has ended."""
    while True:
        try:
            pid, _ = os.waitpid(-1, os.WNOHANG)
        except ChildProcessError:
            return
        if pid == 0:
            return


def session_members(sid: int):
    """Processes of session ``sid`` that have not been reaped by this
    process, or ``None`` where ``/proc`` cannot tell."""
    try:
        entries = os.listdir("/proc")
    except OSError:
        return None
    me = os.getpid()
    members = []
    for entry in entries:
        if not entry.isdigit():
            continue
        try:
            stat = Path("/proc", entry, "stat").read_text()
        except OSError:
            continue  # ended meanwhile
        state, ppid, _pgrp, session = stat[stat.rindex(")") + 2:].split()[:4]
        # Somebody else's zombie has ended; one of ours awaits reaping.
        if int(session) == sid and (state != "Z" or int(ppid) == me):
            members.append(int(entry))
    return members


def end_session(sid: int, grace: float) -> None:
    """Wait until every process of run session ``sid`` has ended and is
    reaped, killing whatever is still alive after ``grace`` seconds."""
    deadline = time.monotonic() + grace
    while True:
        reap_children()
        members = session_members(sid)
        if members is None:  # no /proc: kill the group and move on
            try:
                os.killpg(sid, signal.SIGKILL)
            except (ProcessLookupError, PermissionError):
                pass
            reap_children()
            return
        if not members:
            return
        if time.monotonic() >= deadline:
            for pid in members:
                try:
                    os.kill(pid, signal.SIGKILL)
                except ProcessLookupError:
                    pass
        time.sleep(0.02)


def run_child(workload: str, seed: int, seconds: float, trace: int, quick: bool, work_root: Path) -> dict:
    """One run of one workload in a fresh process; returns its result."""
    work_root.mkdir(parents=True, exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{workload}-", dir=work_root))
    result_path = work / "result.json"
    command = [
        sys.executable, str(HERE / "workloads.py"),
        "--workload", workload, "--seed", str(seed), "--seconds", str(seconds),
        "--trace", str(trace), "--work", str(work), "--result", str(result_path),
    ]
    if quick:
        command.append("--quick")
    try:
        # Own session, so that every process of the run can be found and
        # waited for, and a timed-out run's campaign workers die with it.
        proc = subprocess.Popen(
            command, cwd=ROOT, env=child_env(work), stdout=sys.stderr,
            start_new_session=True,
        )
        try:
            code = proc.wait(timeout=CHILD_TIMEOUT_S)
        except BaseException:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.wait()
            end_session(proc.pid, 0.0)
            raise
        end_session(proc.pid, LEFTOVER_GRACE_S)
        if code != 0:
            raise BenchError(f"{workload}: run exited with code {code}")
        return json.loads(result_path.read_text())
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"{workload}: run exceeded {CHILD_TIMEOUT_S} s") from exc
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            work_root.rmdir()  # only when no other run is using it
        except OSError:
            pass


def quartiles(values):
    """``(q1, median, q3)`` as ``statistics.quantiles(n=4)`` gives them."""
    values = list(values)
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def end_to_end(result: dict) -> dict:
    """The end-to-end metric values of one untraced run."""
    walls = [op["wall_s"] for op in result["ops"] if op["ok"]] or [
        op["wall_s"] for op in result["ops"] if "wall_s" in op
    ]
    return {
        "op_s": statistics.median(walls),
        "setup_s": statistics.median(result["setup_s"]),
        "peak_rss_mb": result["peak_rss_mb"],
    }


def detail_metrics(result: dict) -> dict:
    """Per-workload figures beside the end-to-end metrics: sub-timings
    and the outputs' quality numbers (exact for a given seed)."""
    ok = [op for op in result["ops"] if op["ok"]]
    out = {"failed_frac": 1 - len(ok) / len(result["ops"])}
    for key in ("populate_s", "reverify_s", "test_steps", "activated_frac",
                "store_mb", "fault_coverage", "detected_frac"):
        samples = []
        for op in ok:
            value = op.get(key)
            if value is not None:
                samples.extend(value if isinstance(value, list) else [value])
        if samples:
            out[key] = statistics.median(samples)
    return out


def summarize(spec: dict, result: dict, trace: int) -> dict:
    """The summary of one run that ends the command's output."""
    ops = result["ops"]
    failed = sum(not op["ok"] for op in ops)
    if trace:
        units = {m["name"]: m["unit"] for m in spec["per_layer"]}
        values = result["per_layer"]
    else:
        units = {m["name"]: m["unit"] for m in spec["end_to_end"]}
        values = end_to_end(result)
    return {
        "correct": failed == 0,
        "attempted": len(ops),
        "failed": failed,
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in units.items()},
    }


def report(result: dict, summary: dict, trace: int) -> None:
    ops = result["ops"]
    walls = [op["wall_s"] for op in ops if op["ok"]]
    mode = "traced" if trace else "untraced"
    print(
        f"{result['workload']} (seed {result['seed']}, {result['seconds']:g} s, {mode}"
        f"{', QUICK: not comparable' if result['quick'] else ''}): "
        f"{summary['attempted']} ops, {summary['failed']} failed"
    )
    for op in ops:
        if not op["ok"]:
            print(f"  op {op['index']} FAILED:\n{op['error']}")
    for name, metric in summary["metrics"].items():
        note = ""
        if name == "op_s" and walls:
            q1, _, q3 = quartiles(walls)
            note = f"median of {len(walls)}, q1 {q1:.4f}, q3 {q3:.4f}"
        elif name == "setup_s":
            note = f"median of {len(result['setup_s'])}"
        print(f"  {name:<40} {metric['value']:>14.6g} {metric['unit']:<8} {note}")
    if trace:
        coverage = result["trace_coverage"]
        print(f"  layer spans cover {coverage['workload_process']:.1%} of traced op "
              "wall time in the workload process")
        workers = coverage["workers_in_campaign_spans"]
        if workers:
            print(f"  campaign spans cover >= {min(workers.values()):.1%} of each of "
                  f"{len(workers)} forked workers' lives (the rest is faults.parallel)")
    else:
        for name, value in detail_metrics(result).items():
            print(f"  detail {name:<33} {value:>14.6g}")


def machine() -> dict:
    try:
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True,
            check=True,
        ).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        commit = "unknown"
    return {
        "commit": commit,
        "platform": platform.platform(),
        "env": PINNED_ENV,
    }


def parse_args(argv, spec):
    names = [w["name"] for w in spec["workloads"]]
    parser = argparse.ArgumentParser(description="Run the repo benchmark.")
    parser.add_argument("--workload", choices=names, help="default: every workload")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"],
                        help="operation time per run (default: run_seconds)")
    parser.add_argument("--trace", type=int, nargs="?", const=1, default=0, choices=(0, 1))
    parser.add_argument("--repeat", type=int, default=1, help="runs per workload")
    parser.add_argument("--quick", action="store_true",
                        help="shrunken smoke run; numbers are not comparable")
    parser.add_argument("--out", type=Path, help="write every raw sample here")
    args = parser.parse_args(argv)
    args.workloads = [args.workload] if args.workload else names
    return args


def main(argv=None) -> int:
    # A terminated benchmark still takes its run's process group down.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    become_subreaper()
    try:
        if not (ROOT / "src" / "repro" / "__init__.py").is_file():
            raise BenchError(f"no program source under {ROOT / 'src'}")
        spec = load_spec()
        args = parse_args(argv, spec)
        runs = []
        for repeat in range(args.repeat):
            for name in args.workloads:
                result = run_child(
                    name, args.seed, args.seconds, args.trace, args.quick,
                    ROOT / ".bench_work",
                )
                summary = summarize(spec, result, args.trace)
                report(result, summary, args.trace)
                runs.append({"repeat": repeat, "trace": args.trace,
                             "summary": summary, "result": result})
    except BenchError as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 1
    if args.out is not None:
        args.out.parent.mkdir(parents=True, exist_ok=True)
        args.out.write_text(json.dumps(
            {"machine": machine(), "comparable": not args.quick, "runs": runs}, indent=1
        ) + "\n")
    if len(runs) == 1:
        final = runs[0]["summary"]
    else:
        final = {
            "correct": all(run["summary"]["correct"] for run in runs),
            "attempted": sum(run["summary"]["attempted"] for run in runs),
            "failed": sum(run["summary"]["failed"] for run in runs),
            "metrics": {
                f"{run['result']['workload']}.{name}.{run['repeat']}": metric
                for run in runs for name, metric in run["summary"]["metrics"].items()
            },
        }
    print(json.dumps(final))
    return 0


if __name__ == "__main__":
    sys.exit(main())
