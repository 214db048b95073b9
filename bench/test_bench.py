"""Tests of the benchmark itself: ``python -m pytest bench/ -q``.

The tier-1 suite collects only ``tests/``; these run separately because
the workload smoke passes take about a minute.
"""

from __future__ import annotations

import json
import multiprocessing
import shutil
import subprocess
import sys
import types
from pathlib import Path

import pytest

import fixture
import spans

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _fake_library(name):
    """A module whose ``outer`` calls ``inner`` twice, plus a second
    module that bound ``inner`` with ``from lib import inner``."""
    lib = types.ModuleType(f"{name}_lib")
    exec(
        "import time\n"
        "def inner():\n    time.sleep(0.002)\n    return 1\n"
        "def outer():\n    time.sleep(0.002)\n    return inner() + inner()\n",
        lib.__dict__,
    )
    user = types.ModuleType(f"{name}_user")
    user.inner = lib.inner
    sys.modules[lib.__name__] = lib
    sys.modules[user.__name__] = user
    return lib, user


def test_self_time_subtracts_direct_children_in_the_same_process():
    recorded = [
        ["a", None, "x", 0.0, 10.0, 0, 1, {}],
        ["b", "a", "y", 1.0, 4.0, 0, 1, {}],
        ["c", "a", "y", 5.0, 9.0, 0, 1, {}],
        ["d", "c", "z", 6.0, 8.0, 0, 1, {}],
        # A forked worker's span under "a": it ran beside "a", not inside it.
        ["e", "a", "z", 2.0, 7.0, 0, 2, {}],
    ]
    assert spans.self_times(recorded) == {"a": 3.0, "b": 3.0, "c": 2.0, "d": 2.0, "e": 5.0}


def test_wrapped_calls_nest_and_cover_rebound_names(tmp_path):
    lib, user = _fake_library("nest")
    original = user.inner
    tracer = spans.Tracer(tmp_path)
    try:
        tracer.wrap(lib, "outer", "outer")
        tracer.wrap(lib, "inner", "inner")
        assert user.inner is not original
        assert lib.outer() == 2  # tracing off: no spans
        tracer.enabled, tracer.op = True, 0
        assert lib.outer() == 2
        user.inner()
        # A module imported while the wrappers are in binds a wrapper.
        late = types.ModuleType("nest_late")
        late.inner = lib.inner
        sys.modules[late.__name__] = late
    finally:
        tracer.enabled = False
        tracer.uninstall()
    assert user.inner is original and late.inner is original and lib.inner is original
    recorded, _, _ = tracer.collect()
    outer = [span for span in recorded if span[2] == "outer"]
    inner = [span for span in recorded if span[2] == "inner"]
    assert len(outer) == 1 and len(inner) == 3
    nested = [span for span in inner if span[1] == outer[0][0]]
    assert len(nested) == 2
    selfs = spans.self_times(recorded)
    duration = outer[0][4] - outer[0][3]
    children = sum(span[4] - span[3] for span in nested)
    assert selfs[outer[0][0]] == pytest.approx(duration - children, abs=1e-12)
    assert selfs[outer[0][0]] >= 0.002


def _count_one(tracer, span, result, args, kwargs):
    tracer.counters["work"] += result


def test_forked_worker_flushes_spans_before_exiting(tmp_path):
    lib, _ = _fake_library("fork")
    tracer = spans.Tracer(tmp_path)
    tracer.wrap(lib, "outer", "outer", _count_one, flush=True)
    tracer.wrap(lib, "inner", "inner")
    try:
        tracer.enabled, tracer.op = True, 7
        worker = multiprocessing.get_context("fork").Process(target=lib.outer)
        worker.start()
        worker.join(timeout=30)
        assert worker.exitcode == 0
    finally:
        tracer.enabled = False
        tracer.uninstall()
    recorded, counters, procs = tracer.collect()
    assert {span[6] for span in recorded} == {worker.pid}
    assert sorted(span[2] for span in recorded) == ["inner", "inner", "outer"]
    assert all(span[5] == 7 for span in recorded)
    assert counters["work"] == 2
    start, end, op = procs[worker.pid]
    assert op == 7 and end > start


def test_fixture_digest_mismatch_raises():
    document = json.loads(fixture.fixture_path("nmnist").read_text())
    state = fixture.decode(document)
    name = sorted(state)[0]
    state[name] = state[name] + 1.0
    tampered = fixture.encode(state)
    tampered["sha256"] = document["sha256"]
    with pytest.raises(fixture.FixtureError, match="digest"):
        fixture.decode(tampered)


def test_tracer_metrics_are_the_declared_per_layer_metrics():
    assert spans.metric_units() == {m["name"]: m["unit"] for m in SPEC["per_layer"]}


def _bench(*args, cwd=ROOT):
    return subprocess.run(
        [sys.executable, "bench/run.py", *args], cwd=cwd, capture_output=True,
        text=True, timeout=180,
    )


@pytest.mark.parametrize("traced", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_quick_pass_emits_the_declared_metrics(workload, traced):
    proc = _bench("--workload", workload, "--seed", "3", "--seconds", "1",
                  "--trace", str(traced), "--quick")
    assert proc.returncode == 0, proc.stderr[-3000:]
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert sorted(result) == ["attempted", "correct", "failed", "metrics"]
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    declared = SPEC["per_layer"] if traced else SPEC["end_to_end"]
    assert {name: m["unit"] for name, m in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in declared
    }
    if not traced:
        assert all(m["value"] > 0 for m in result["metrics"].values())


_ORPHAN_SCRIPT = """
import subprocess, sys, time
import run
run.become_subreaper()
spawn = ("import subprocess, sys; p = subprocess.Popen([sys.executable, '-c', "
         "'import time; time.sleep({linger})']); print(p.pid, flush=True)")
leader = subprocess.Popen([sys.executable, "-c", spawn], stdout=subprocess.PIPE,
                          text=True, start_new_session=True)
orphan = int(leader.stdout.readline())
leader.wait()
start = time.monotonic()
run.end_session(leader.pid, {grace})
print(orphan, time.monotonic() - start, run.session_members(leader.pid))
"""


@pytest.mark.skipif(not Path("/proc/self/stat").exists(), reason="needs /proc")
@pytest.mark.parametrize("linger, grace", [(0.3, 30.0), (60.0, 0.3)])
def test_a_run_leaves_no_process_behind(linger, grace):
    """A process that outlives its run's leader is adopted and waited
    for when it ends in time, and killed when it does not."""
    proc = subprocess.run(
        [sys.executable, "-c", _ORPHAN_SCRIPT.format(linger=linger, grace=grace)],
        cwd=HERE, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode == 0, proc.stderr[-3000:]
    orphan, waited, members = proc.stdout.split(maxsplit=2)
    assert members.strip() == "[]"
    assert not Path("/proc", orphan).exists()
    assert float(waited) < 10.0


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = _bench("--workload", "verify", "--seed", "0", "--seconds", "1",
                  "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
