#!/usr/bin/env python3
"""Layered benchmark of the Sharon reproduction.

Usage, from the repository root:

    python3 perfbench/run.py --workload shared-core-20q --seed 1 \
        --seconds 26 --trace 0

``--trace 0`` prints the end-to-end metrics, ``--trace 1`` the per-layer
ones; ``--workload all`` runs every workload, one process each, and
``--smoke`` shrinks every input to a few hundred events. The last line
of standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``. The exit code is 0 only when
every output check passed. See ``perfbench/README.md``.
"""
from __future__ import annotations

import time

T_START = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_build" / "perfbench"
WORKLOAD_NAMES = ["shared-core-20q", "traffic-56q", "spark-shared-core-20q"]


def _config() -> dict:
    with open(ROOT / "BENCHMARK.json") as f:
        return json.load(f)


def _prepare_env() -> None:
    """Keep every file the run writes inside the checkout, and give Spark
    its master, memory and worker path before the JVM starts."""
    tmp = OUT / "tmp"
    tmp.mkdir(parents=True, exist_ok=True)
    os.environ["TMPDIR"] = str(tmp)
    os.environ["SPARK_LOCAL_DIRS"] = str(OUT / "spark-local")
    os.environ["PYSPARK_PYTHON"] = sys.executable
    os.environ["PYSPARK_DRIVER_PYTHON"] = sys.executable
    os.environ["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]
    )
    cores = min(4, os.cpu_count() or 1)
    # Every JVM, the spark-submit launcher's too: temp files in the
    # checkout, no hsperfdata file under /tmp.
    os.environ["JAVA_TOOL_OPTIONS"] = f"-Djava.io.tmpdir={tmp} -XX:-UsePerfData"
    os.environ["PYSPARK_SUBMIT_ARGS"] = (
        f"--master local[{cores}] --driver-memory 1g "
        "--conf spark.driver.host=127.0.0.1 --conf spark.ui.enabled=false "
        "pyspark-shell"
    )
    # One thread per BLAS call: the load is the program's own, and the
    # kernels' products are vector-sized.
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"
    sys.path[:0] = [str(SRC)]


def _fmt(v) -> str:
    return "n/a" if v is None else f"{v:.6g}"


def run_one(args) -> int:
    _prepare_env()
    import bench
    import speed

    cfg = _config()
    size = bench.SMOKE if args.smoke else bench.FULL
    run = bench.Run(args.workload, args.seed, args.seconds, bool(args.trace),
                    size, OUT, T_START)
    try:
        run.set_up()
        t_gate = time.perf_counter()
        run.prepare_gate()
        gate_s = time.perf_counter() - t_gate
        run.measure()
        run.check_oracle()
    finally:
        run.close()

    attempted = len(run.ops) + 3  # three untimed checks: plan, twin, oracle
    failed = sum(not op.ok for op in run.ops) + run.checks_failed
    e2e = bench.end_to_end(run)
    detail = {
        "workload": args.workload,
        "fingerprint": bench.fingerprint(ROOT, args.seed, run.spark_conf),
        "seconds": args.seconds,
        "smoke": args.smoke,
        "first_setup_s": run.setup_s[0],
        "setup_s": run.setup_s,
        "setup_wall_s": run.setup_wall_s,
        "probe_ms": {
            "ref": 1000.0 * speed.REF_S,
            "median": 1000.0 * statistics.median(run.probe.seconds),
            "min": 1000.0 * min(run.probe.seconds),
            "max": 1000.0 * max(run.probe.seconds),
            "count": len(run.probe.seconds),
        },
        "wall_ms_median": {
            k: 1000.0 * statistics.median(
                op.wall_s for op in run.ops if op.kind == k and op.ok and not op.traced
            )
            for k in dict.fromkeys(op.kind for op in run.ops if op.ok and not op.traced)
        },
        "gate_prep_s": gate_s,
        "generator_late_ms_max": 1000.0 * max(run.stream["late_s"]),
        "ops": {
            k: sum(op.kind == k for op in run.ops)
            for k in dict.fromkeys(op.kind for op in run.ops)
        },
        "failures": run.failures[:20],
    }
    print(f"== perfbench {args.workload} seed={args.seed} trace={args.trace} ==")
    if args.trace:
        spec = cfg["per_layer"]
        values, trace_info = bench.per_layer(run, [m["name"] for m in spec])
        detail["trace"] = trace_info
        metrics = {m["name"]: (values[m["name"]], None) for m in spec}
        run.tracer.write(OUT / f"trace-{args.workload}-seed{args.seed}.jsonl")
    else:
        spec = cfg["end_to_end"]
        metrics = {m["name"]: e2e[m["name"]] for m in spec}
    for m in spec:
        value, n = metrics[m["name"]]
        samples = f" n={n}" if n is not None else ""
        print(f"  {m['name']:28s} {_fmt(value):>14s} {m['unit']:10s} "
              f"{m['better']} is better{samples}")
    for k, v in detail["fingerprint"].items():
        print(f"  # {k}: {v}")
    for line in run.failures:
        print(f"  ! {line}")
    detail["metrics"] = {
        m["name"]: {"value": metrics[m["name"]][0], "unit": m["unit"],
                    "better": m["better"], "samples": metrics[m["name"]][1]}
        for m in spec
    }
    (OUT / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(detail, indent=1)
    )
    correct = failed == 0
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            m["name"]: {"value": metrics[m["name"]][0], "unit": m["unit"]} for m in spec
        },
    }))
    return 0 if correct else 1


def run_all(args) -> int:
    """Every workload in its own process; one combined result line."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOAD_NAMES:
        cmd = [sys.executable, __file__, "--workload", name, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
        if args.smoke:
            cmd.append("--smoke")
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
        lines = proc.stdout.strip().splitlines()
        print("\n".join(lines[:-1]))
        try:
            res = json.loads(lines[-1])
        except (IndexError, json.JSONDecodeError):
            print(f"{name}: no result (exit {proc.returncode})", file=sys.stderr)
            return proc.returncode or 1
        combined["correct"] &= res["correct"] and proc.returncode == 0
        combined["attempted"] += res["attempted"]
        combined["failed"] += res["failed"]
        for k, v in res["metrics"].items():
            combined["metrics"][f"{name}/{k}"] = v
    print(json.dumps(combined))
    return 0 if combined["correct"] else 1


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ["all"])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=[0, 1], required=True)
    ap.add_argument("--smoke", action="store_true",
                    help="tiny inputs: a quick pass through every check")
    args = ap.parse_args()
    if not (SRC / "repro").is_dir():
        print(f"perfbench: no program to measure: {SRC / 'repro'} is missing",
              file=sys.stderr)
        return 2
    return run_all(args) if args.workload == "all" else run_one(args)


if __name__ == "__main__":
    sys.exit(main())
