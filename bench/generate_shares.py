"""Where one ibm-small generation spends its time, at the shipped
test-generation budget and at the ``generate`` workload's budget.

    PYTHONPATH=src OPENBLAS_NUM_THREADS=1 python3 bench/generate_shares.py \\
        [--seed S] [--out F]

Each budget runs one traced generation on the same input.  The script
prints, for each budget, every layer's self time as a share of the
generation's wall time, the T_in,min probe's inclusive share, and the
work counts.  The workload stands for shipped generation only while the
two columns agree; rerun this after changing the generator's ladder or
stages, or the workload's budget.  The shipped run takes about a minute.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys
import tempfile
from pathlib import Path

from spans import COUNTERS, SPAN_LAYERS, Tracer, layer_metrics
from workloads import Generate, run_operation


def traced_generation(workload: Generate, config, work: Path) -> dict:
    """One traced operation of ``workload`` at ``config``."""
    workload.config = config
    tracer = Tracer(work)
    record = run_operation(workload, 0, tracer)
    if not record["ok"]:
        raise RuntimeError(record["error"])
    wall = record["wall_s"]
    metrics, _ = layer_metrics(tracer, {0: wall}, {})
    spans, _, _ = tracer.collect()
    probe_s = sum(span[4] - span[3] for span in spans if span[2] == "core.probe")
    return {
        "wall_s": wall,
        "t_in_min": record["t_in_min"],
        "test_steps": record["test_steps"],
        "activated_frac": record["activated_frac"],
        "probe_share": probe_s / wall,
        "self_share": {
            layer: metrics[f"{layer}.self_s"] / wall
            for layer in SPAN_LAYERS
            if metrics[f"{layer}.calls"]
        },
        "counts": {name: metrics[name] for name, _ in COUNTERS if metrics[name]},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--out", type=Path)
    args = parser.parse_args(argv)

    with tempfile.TemporaryDirectory() as tmp:
        work = Path(tmp)
        workload = Generate(args.seed, quick=False, work=work)
        workload.setup()
        budgets = {
            "shipped": dataclasses.replace(workload.definition.testgen_config, time_limit_s=1e9),
            "workload": workload.config,
        }
        rows = {
            label: traced_generation(workload, config, work / label)
            for label, config in budgets.items()
        }

    shipped, bench = rows["shipped"], rows["workload"]
    print(f"{'':<28} {'shipped':>10} {'workload':>10}")
    for key in ("wall_s", "t_in_min", "test_steps", "activated_frac", "probe_share"):
        print(f"{key:<28} {shipped[key]:>10.4g} {bench[key]:>10.4g}")
    print("self time / wall time")
    for layer in sorted(set(shipped["self_share"]) | set(bench["self_share"])):
        a, b = shipped["self_share"].get(layer, 0.0), bench["self_share"].get(layer, 0.0)
        print(f"  {layer:<26} {a:>10.3f} {b:>10.3f}")
    print("counts")
    for name in sorted(set(shipped["counts"]) | set(bench["counts"])):
        a, b = shipped["counts"].get(name, 0.0), bench["counts"].get(name, 0.0)
        print(f"  {name:<26} {a:>10.0f} {b:>10.0f}")
    if args.out is not None:
        document = {
            "seed": args.seed,
            "budgets": {label: dataclasses.asdict(config) for label, config in budgets.items()},
            "rows": rows,
        }
        args.out.write_text(json.dumps(document, indent=1, default=str) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
