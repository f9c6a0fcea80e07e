"""Workloads, measurement loops and metrics of the benchmark.

One run measures one workload for a fixed number of seconds:

1. Set-up, repeated ``Spec.setup_repeats`` times (once in a smoke run);
   the median is ``setup_s``. The first repetition starts at process
   start, so it also pays for imports and, on Spark, the JVM launch.
2. Gate preparation, untimed: the A-Seq reference counts and the SO
   plan checked against GWMIN.
3. ``replay_segments`` rounds of two parts, which spread both kinds of
   samples over the whole run:
   - a closed loop, in which each iteration calls every timed operation
     of the workload once, back to back (SO planning, then the Sharon
     plan and A-Seq on the workload's engine);
   - an open-loop replay of the next segment of the stream's batches
     through one ``MicroBatchExecutor``: a batch is due once its last
     event has arrived at a fixed rate in events/s, and its latency runs
     from its due time, so a stall delays later batches.
4. The micro-batch results, timed and checked.
5. One DuckDB oracle diff of every engine on a scaled-down stream of the
   same queries, untimed.

Every timed operation's output is checked (``gate``); a failed check or
an exception counts as a failed operation. A short speed probe runs
between timed operations (and in the replay's idle time), and every
reported time is scaled to reference host speed (``speed``). With
tracing on, odd iterations (and odd batches) run with the layer wrappers
installed and even ones without, so the run also measures the tracing
overhead.
"""
from __future__ import annotations

import os
import platform
import statistics
import sys
import time
import traceback
from contextlib import nullcontext
from dataclasses import dataclass, field
from hashlib import sha256
from pathlib import Path
from typing import Callable

import numpy as np
import pandas as pd

import gate
import layers
import repro.core.optimizer as optimizer
import repro.runtime.sharon as sharon
import repro.runtime.streaming as streaming
from repro.core.cost import CostModel, uniform_rates
from repro.core.model import Workload
from repro.experiments import _nwin, _stream
from repro.workloads import (
    clustered_example_workload,
    shared_core_workload,
    stream_for_workload,
)
from spans import Tracer
from speed import SpeedProbe

N_KEYS = 4
SHUFFLE_PARTITIONS = 64
# Speed probes after each set-up repetition.
SETUP_PROBES = 3


def _shared_core() -> Workload:
    return shared_core_workload(
        n_queries=20, pattern_len=10, family_size=5, core_frac=0.8
    )


@dataclass(frozen=True)
class Spec:
    """A workload: its queries, its engine and its replay rate."""

    queries: Callable[[], Workload]
    spark: bool
    # Open-loop replay rate in events/s. A constant, never derived from a
    # measurement: below half of what the micro-batch driver sustained on
    # this stream when the benchmark was written, even while the shared
    # host ran slow (10k-14k and 12k-18k events/s on 4 vCPUs), so batches
    # rarely queue behind one another and the probe fits in the idle time.
    replay_eps: int
    # Set-ups per run (``setup_s`` is their median): a Spark set-up takes
    # seconds, the others milliseconds.
    setup_repeats: int
    # Sharon and A-Seq calls per SO plan in one closed-loop iteration.
    # Planning the shared-core workload costs ~3 twin executor calls, so
    # two of each keep the executor samples from being the scarcest; it
    # costs about one Spark job, so one of each there.
    exec_repeats: int = 1


WORKLOADS = {
    # Fig 14's point: long suffix-shared cores, so the executor layers and
    # the reverse shared chains do the work, and planning is costly.
    "shared-core-20q": Spec(
        _shared_core, spark=False, replay_eps=4500, setup_repeats=5, exec_repeats=2
    ),
    # Many short queries sharing prefixes: eval_query dispatch and forward
    # chains dominate, planning is trivial (the control for optimizer
    # changes), and the small-batch streaming path is cheap per query.
    "traffic-56q": Spec(
        lambda: clustered_example_workload(n_clusters=8),
        spark=False,
        replay_eps=6000,
        setup_repeats=5,
    ),
    # The same inputs through Spark: shuffle, Arrow transfer and task
    # parallelism, which the driver-local twin skips.
    "spark-shared-core-20q": Spec(
        _shared_core, spark=True, replay_eps=4500, setup_repeats=3
    ),
}


@dataclass(frozen=True)
class Size:
    events_per_window: int
    n_batches: int
    replay_segments: int
    oracle_events: int
    min_iterations: int
    smoke: bool


FULL = Size(10_000, 120, 4, 2_400, 2, smoke=False)
SMOKE = Size(2_000, 12, 2, 2_400, 2, smoke=True)
# The oracle stream: 2 keys over 900 s (3 windows) keeps every query's
# l-way self-join small while each query still matches.
ORACLE_KEYS = 2
ORACLE_DURATION = 900


@dataclass
class Op:
    kind: str
    index: int
    traced: bool
    start_s: float
    wall_s: float
    ok: bool
    layers_s: dict = field(default_factory=dict)
    counts: dict = field(default_factory=dict)
    # Turns this operation's wall time into one at reference speed.
    scale: float = 1.0

    @property
    def ref_s(self) -> float:
        return self.wall_s * self.scale


class Run:
    """State and results of one benchmark run."""

    def __init__(self, name: str, seed: int, seconds: float, trace: bool,
                 size: Size, out_dir: Path, t_start: float):
        self.spec = WORKLOADS[name]
        self.seed = seed
        self.seconds = seconds
        self.tracer = Tracer() if trace else None
        self.size = size
        self.out_dir = out_dir
        self.t_start = t_start
        self.ops: list[Op] = []
        self.failures: list[str] = []
        self.checks_failed = 0
        self.probe = SpeedProbe()
        self._setup_spans: list[tuple[float, float]] = []
        self._setup_scale = 1.0
        self.setup_s: list[float] = []  # at reference speed
        self.setup_wall_s: list[float] = []
        self.spark = None
        self.spark_conf = {"spark_master": None, "spark_shuffle_partitions": None}
        self.kernel_busy = None
        self.stream: dict = {}
        # The tracer of the operation in progress (None when untraced)
        # and a tag naming it, e.g. for Spark's job group.
        self.active: Tracer | None = None
        self.op_tag = ""

    # ------------------------------------------------------------ set-up
    def set_up(self) -> None:
        """The first repetition starts at process start. Except on Spark
        (see ``_scale``), each is followed by ``SETUP_PROBES`` speed
        probes, which scale the set-up times."""
        spans = []
        for rep in range(1 if self.size.smoke else self.spec.setup_repeats):
            t0 = self.t_start if rep == 0 else time.perf_counter()
            self.wl = self.spec.queries()
            self.events = _stream(
                self.wl, self.size.events_per_window, n_keys=N_KEYS, seed=self.seed
            )
            # Plans use the generator's nominal rates (events per window
            # over types), so the plan is the same for every seed and
            # plan_score moves only when the optimizer does.
            types = self.wl.event_types
            self.cost = CostModel(
                self.wl, uniform_rates(types, self.size.events_per_window / len(types))
            )
            self.batches = list(streaming.time_chunks(self.events, self.size.n_batches))
            if self.spec.spark:
                self._set_up_spark()
            spans.append((t0, time.perf_counter()))
            for _ in range(0 if self.spec.spark else SETUP_PROBES):
                self.probe.run()
        self._setup_spans = spans
        self._setup_scale = self.probe.run_scale()

    def _set_up_spark(self) -> None:
        from pyspark.sql import SparkSession

        if self.spark is not None:
            self.spark.stop()
        self.spark = (
            SparkSession.builder.appName("perfbench")
            .config("spark.sql.shuffle.partitions", str(SHUFFLE_PARTITIONS))
            .config("spark.sql.execution.arrow.pyspark.enabled", "true")
            .config("spark.sql.autoBroadcastJoinThreshold", -1)
            .config("spark.ui.showConsoleProgress", "false")
            .config("spark.sql.warehouse.dir", str(self.out_dir / "spark-warehouse"))
            .getOrCreate()
        )
        self.spark.sparkContext.setLogLevel("ERROR")
        self.spark_conf = {
            "spark_master": self.spark.sparkContext.master,
            "spark_shuffle_partitions": self.spark.conf.get("spark.sql.shuffle.partitions"),
        }
        self.sdf = self.spark.createDataFrame(self.events).cache()
        self.sdf.count()
        self.plan_result = optimizer.sharon_optimizer(self.wl, self.cost, decompose=True)
        sharon.run_plan(self.sdf, self.wl, self.plan_result.plan).toPandas()
        self.kernel_busy = self.spark.sparkContext.accumulator(0.0)

    def close(self) -> None:
        """Stop Spark and wait for its JVM to exit."""
        if self.spark is None:
            return
        from pyspark import SparkContext

        gateway = SparkContext._gateway
        self.spark.stop()
        self.spark = None
        if gateway is not None:
            gateway.shutdown()
            proc = getattr(gateway, "proc", None)
            if proc is not None:
                proc.stdin.close()
                proc.wait(timeout=60)
            SparkContext._gateway = None
            SparkContext._jvm = None

    # ------------------------------------------------------------- gate
    def _check(self, what: str, fn: Callable[[], None]) -> None:
        """An untimed check; a failure makes the run incorrect."""
        try:
            fn()
        except gate.GateError as e:
            self.checks_failed += 1
            self.failures.append(f"{what}: {e}")

    def prepare_gate(self) -> None:
        if not self.spec.spark:
            self.plan_result = optimizer.sharon_optimizer(self.wl, self.cost, decompose=True)
        self.plan = self.plan_result.plan
        greedy = optimizer.greedy_optimizer(self.wl, self.cost).score

        def optimal():
            if self.plan_result.score < greedy * (1 - 1e-12):
                raise gate.GateError(
                    f"SO score {self.plan_result.score} < GWMIN score {greedy}"
                )

        self._check("plan", optimal)
        aseq, _ = sharon.run_plan_pandas(self.events, self.wl, None)
        gate.check_exact_range(aseq, "A-Seq reference")
        self.reference = gate.canonical(aseq)
        twin, stats = sharon.run_plan_pandas(self.events, self.wl, self.plan)
        self.state_bytes = stats["c_bytes"]
        self._check("twin", lambda: gate.check_same(twin, self.reference, "Sharon twin"))

    def check_oracle(self) -> None:
        """Run after the measured phase, so DuckDB's memory stays out of
        ``peak_rss_mb``."""
        self._check("oracle", self._oracle)

    def _oracle(self) -> None:
        small = stream_for_workload(
            self.wl,
            n_events=self.size.oracle_events,
            n_keys=ORACLE_KEYS,
            duration=ORACLE_DURATION,
            seed=self.seed + 7919,
        )
        engines = {
            "twin A-Seq": sharon.run_plan_pandas(small, self.wl, None)[0],
            "twin Sharon": sharon.run_plan_pandas(small, self.wl, self.plan)[0],
        }
        ex = streaming.MicroBatchExecutor(self.wl)
        for batch in streaming.time_chunks(small, self.size.n_batches):
            ex.process_batch(batch)
        engines["micro-batch"] = ex.results()
        if self.spec.spark:
            sdf = self.spark.createDataFrame(small)
            engines["Spark A-Seq"] = sharon.run_plan(sdf, self.wl, None).toPandas()
            engines["Spark Sharon"] = sharon.run_plan(sdf, self.wl, self.plan).toPandas()
        tmp = self.out_dir / "duckdb-tmp"
        gate.check_oracle(self.wl, small, engines, str(tmp))

    # --------------------------------------------------------- operations
    def timed(self, kind: str, index: int, traced: bool, fn, check) -> None:
        """Run ``fn`` as one timed operation, then check its output."""
        t = self.active = self.tracer if traced else None
        self.op_tag = f"{kind}-{index}-{int(traced)}"
        counts: dict = {}
        layer_s: dict = {}
        out = None
        busy = self.kernel_busy if kind.startswith("spark") else None
        busy0 = busy.value if (t and busy) else 0.0
        with layers.installed(t, busy) if t else nullcontext():
            if t:
                t.begin_op(f"op.{kind}")
            t0 = time.perf_counter()
            try:
                out = fn()
                error = None
            except Exception:  # an operation that raises is a failed operation
                error = traceback.format_exc(limit=3)
            wall = time.perf_counter() - t0
            if t:
                wall, layer_s, counts = t.end_op()
        if t and busy is not None:
            counts["spark.kernel_busy_ms"] = 1000.0 * (busy.value - busy0)
        if error is None:
            try:
                extra = check(out)
                if extra:
                    counts.update(extra)
            except gate.GateError as e:
                error = str(e)
        if error is not None:
            self.failures.append(f"{kind}#{index}: {error.strip()}")
        self.ops.append(Op(kind, index, traced, t0, wall, error is None, layer_s, counts))

    def _ops(self):
        def plan():
            return optimizer.sharon_optimizer(self.wl, self.cost, decompose=True)

        ops = [("plan", plan, lambda r: gate.check_plan(r, self.plan_result))]
        execs = self._spark_ops() if self.spec.spark else self._twin_ops()
        return ops + execs * self.spec.exec_repeats

    def _twin_ops(self):
        def exec_plan(p):
            return lambda: sharon.run_plan_pandas(self.events, self.wl, p)

        def same(what):
            return lambda out: gate.check_same(out[0], self.reference, what)

        return [
            ("exec_sharon", exec_plan(self.plan), same("Sharon")),
            ("exec_aseq", exec_plan(None), same("A-Seq")),
        ]

    def _spark_ops(self):
        sc = self.spark.sparkContext

        def op(kind, p):
            def run():
                sc.setJobGroup(self.op_tag, kind)
                df = sharon.run_plan(self.sdf, self.wl, p)
                t = self.active
                if t:
                    t.open("spark.action")
                try:
                    return df.toPandas()
                finally:
                    if t:
                        t.close()

            def check(out):
                gate.check_same(out, self.reference, f"Spark {kind}")
                return spark_job_counts(sc, self.op_tag)

            return (kind, run, check)

        return [op("spark_sharon", self.plan), op("spark_aseq", None)]

    def replay(self, ex, batches: np.ndarray) -> None:
        """Open loop over the given batch indices: batch i is due once its
        last event has arrived at ``replay_eps``, counted from the
        segment's start; latency runs from that due time. The speed probe
        runs in the idle time before a batch when it fits twice over."""
        sizes = [len(self.batches[i]) for i in batches]
        due_at = time.perf_counter() + np.cumsum(sizes) / self.spec.replay_eps
        for i, due in zip(batches, due_at):
            if due - time.perf_counter() > 2 * self.probe.cost_s:
                self.probe.run()
            now = time.perf_counter()
            if now < due:
                time.sleep(due - now)
            start = time.perf_counter()
            traced = self.tracer is not None and i % 2 == 1
            batch = self.batches[i]
            self.timed("batch", i, traced, lambda: ex.process_batch(batch),
                       lambda _: None)
            self.stream["latency_s"].append(start - due + self.ops[-1].wall_s)
            self.stream["late_s"].append(max(0.0, start - due))

    def measure(self) -> None:
        sizes = [len(b) for b in self.batches]
        self.stream = {"latency_s": [], "late_s": [], "sizes": sizes}
        segments = np.array_split(np.arange(len(sizes)), self.size.replay_segments)
        replay_s = sum(sizes) / self.spec.replay_eps
        loop_s = max(0.0, self.seconds - replay_s) / len(segments)
        ops = self._ops()
        ex = streaming.MicroBatchExecutor(self.wl)
        it, last, looped = 0, 0.0, 0.0
        self.probe.run()
        for k, segment in enumerate(segments):
            # The closed loop's time so far catches up with k + 1 shares,
            # so a segment too short for one more iteration leaves its
            # time to the next.
            start = time.perf_counter()
            stop = start + (k + 1) * loop_s - looped
            # Start an iteration only if, lasting as long as the previous
            # one, it ends less than half of it past ``stop``.
            while it < self.size.min_iterations or time.perf_counter() + last / 2 < stop:
                t0 = time.perf_counter()
                traced = self.tracer is not None and it % 2 == 1
                for kind, fn, check in ops:
                    self.timed(kind, it, traced, fn, check)
                    self.probe.run()
                it += 1
                last = time.perf_counter() - t0
            looped += time.perf_counter() - start
            self.replay(ex, segment)
            self.probe.run()
        self.timed(
            "results", 0, self.tracer is not None, lambda: ex.results(),
            lambda out: gate.check_same(out, self.reference, "micro-batch"),
        )
        self.probe.run()
        self.stream["state_counters"] = ex.n_state_counters
        self.peak_rss_mb = peak_rss_mb()
        self._scale()

    def _scale(self) -> None:
        """Scale every time to reference speed: an operation by the probes
        next to it; set-up by the median of the probes after its
        repetitions. On Spark the JVM and the Python workers are still
        busy right after a set-up and slow the probes there (scaled
        set-up times spread twice as much as raw ones), so Spark set-up
        uses the median of the run's probes."""
        setup_scale = self.probe.run_scale() if self.spec.spark else self._setup_scale
        for op in self.ops:
            op.scale = self.probe.scale(op.start_s, op.start_s + op.wall_s)
        self.setup_wall_s = [t1 - t0 for t0, t1 in self._setup_spans]
        self.setup_s = [w * setup_scale for w in self.setup_wall_s]


def spark_job_counts(sc, group: str) -> dict:
    """Jobs and tasks of one job group, from Spark's status tracker. The
    kernel stage is the result stage of the group's last job."""
    st = sc.statusTracker()
    jobs = sorted(st.getJobIdsForGroup(group))
    tasks = failed = kernel_tasks = 0
    for j in jobs:
        info = st.getJobInfo(j)
        if info is None:
            continue
        for s in info.stageIds:
            si = st.getStageInfo(s)
            if si is not None:
                tasks += si.numCompletedTasks
                failed += si.numFailedTasks
        if j == jobs[-1] and info.stageIds:
            last = st.getStageInfo(max(info.stageIds))
            kernel_tasks = last.numTasks if last is not None else 0
    return {
        "spark.jobs": len(jobs),
        "spark.tasks": tasks,
        "spark.kernel_stage_tasks": kernel_tasks,
        "spark.tasks_failed": failed,
    }


# ------------------------------------------------------------------ metrics


def _median(xs):
    return statistics.median(xs) if xs else None


def _p90(xs):
    return statistics.quantiles(xs, n=10)[8] if len(xs) >= 2 else None


def peak_rss_mb() -> float:
    with open("/proc/self/status") as f:
        for line in f:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    import resource

    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def end_to_end(run: Run) -> dict[str, tuple[float | None, int]]:
    """Every end-to-end metric as (value, sample count), from untraced
    operations only; times are at reference speed."""
    walls: dict[str, list[float]] = {}
    for op in run.ops:
        if op.ok and not op.traced:
            walls.setdefault(op.kind, []).append(op.ref_s)
    exec_kind = "spark_sharon" if run.spec.spark else "exec_sharon"
    aseq_kind = "spark_aseq" if run.spec.spark else "exec_aseq"
    plan_s = walls.get("plan", [])
    nwin = _nwin()
    untraced = [
        i for i in range(len(run.stream["latency_s"]))
        if run.tracer is None or i % 2 == 0
    ]
    batch_scale = [op.scale for op in run.ops if op.kind == "batch"]
    lat = [1000.0 * run.stream["latency_s"][i] * batch_scale[i] for i in untraced]
    busy = sum(
        op.ref_s for op in run.ops if op.kind == "batch" and not op.traced
    )
    events = sum(run.stream["sizes"][i] for i in untraced)

    def per_window(kind):
        xs = walls.get(kind, [])
        return (1000.0 * _median(xs) / nwin if xs else None, len(xs))

    return {
        "setup_s": (_median(run.setup_s), len(run.setup_s)),
        "plan_ms": (1000.0 * _median(plan_s) if plan_s else None, len(plan_s)),
        "plan_score": (run.plan_result.score, 1),
        "plan_memory_bytes": (float(run.plan_result.peak_memory), 1),
        "exec_ms_per_window": per_window(exec_kind),
        "aseq_ms_per_window": per_window(aseq_kind),
        "exec_state_bytes": (float(run.state_bytes), 1),
        "batch_latency_ms_p50": (_median(lat), len(lat)),
        "batch_latency_ms_p90": (_p90(lat), len(lat)),
        "stream_events_per_s": (events / busy if busy else None, len(untraced)),
        "stream_state_counters": (float(run.stream["state_counters"]), 1),
        "peak_rss_mb": (run.peak_rss_mb, 1),
        "ok_rate": (sum(op.ok for op in run.ops) / len(run.ops), len(run.ops)),
    }


def per_layer(run: Run, names: list[str]) -> tuple[dict, dict]:
    """Per-layer metrics of the traced operations, times at reference
    speed.

    A closed-loop layer's value is per iteration: for each operation
    kind (plan, Sharon, A-Seq), the median over traced operations of the
    layer's self time (or count) in one operation, summed over the
    kinds. Stream layers are medians per traced batch. Also returns, per
    operation kind, the share of wall time the layers cover and the
    tracing overhead (traced median minus untraced median)."""
    traced = [op for op in run.ops if op.traced and op.ok]
    by_kind: dict[str, list[dict[str, float]]] = {}
    for op in traced:
        vals = {f"{k}_ms": 1000.0 * v * op.scale for k, v in op.layers_s.items()}
        vals.update(op.counts)
        if "spark.kernel_busy_ms" in vals:
            vals["spark.kernel_busy_ms"] *= op.scale
        by_kind.setdefault(op.kind, []).append(vals)
    batches = by_kind.pop("batch", [])
    results = by_kind.pop("results", [{}])[0]

    def per_iteration(name):
        per_kind = [_median([v.get(name, 0.0) for v in vals]) for vals in by_kind.values()]
        if name == "spark.kernel_stage_tasks":
            # A stage's task count belongs to one job: not summed.
            return max(per_kind, default=0.0)
        return sum(per_kind)

    out: dict[str, float] = {}
    for name in names:
        if name.startswith("trace."):
            continue
        if name.startswith("streaming."):
            if name == "streaming.state_counters":
                out[name] = float(run.stream["state_counters"])
            elif name == "streaming.results_ms":
                out[name] = results.get(name, 0.0)
            else:
                out[name] = _median([b.get(name, 0.0) for b in batches]) or 0.0
        else:
            out[name] = per_iteration(name)

    coverage, overhead, base_s = {}, {}, 0.0
    for kind in sorted({op.kind for op in traced}):
        ops = [op for op in traced if op.kind == kind]
        coverage[kind] = _median([sum(op.layers_s.values()) / op.wall_s for op in ops])
        plain = [op.ref_s for op in run.ops if op.kind == kind and op.ok and not op.traced]
        if plain:
            overhead[kind] = 1000.0 * (_median([op.ref_s for op in ops]) - _median(plain))
            base_s += _median(plain)
    out["trace.coverage_min_pct"] = 100.0 * min(coverage.values()) if coverage else 0.0
    out["trace.overhead_pct"] = (
        100.0 * sum(overhead.values()) / (1000.0 * base_s) if base_s else 0.0
    )
    return out, {"coverage": coverage, "overhead_ms": overhead}


# -------------------------------------------------------------- fingerprint


def _git_commit(root: Path) -> str | None:
    """HEAD's commit, read from ``.git`` without leaving ``root``."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def fingerprint(root: Path, seed: int, spark_conf: dict) -> dict:
    """What the numbers depend on besides the code: versions, machine,
    Spark settings (None when the workload runs no Spark) and seed."""
    import duckdb
    import pyspark

    digest = sha256()
    for p in sorted((root / "src").rglob("*.py")):
        digest.update(p.relative_to(root).as_posix().encode())
        digest.update(p.read_bytes())
    return {
        "git_commit": _git_commit(root),
        "source_sha256": digest.hexdigest(),
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "pyspark": pyspark.__version__,
        "numpy": np.__version__,
        "pandas": pd.__version__,
        "duckdb": duckdb.__version__,
        **spark_conf,
        "seed": seed,
        "argv": sys.argv[1:],
    }
