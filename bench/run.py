"""losscomp benchmark: end-to-end timings per workload, or a per-layer trace.

Run from the root of a checkout (nothing is installed; the package is
imported from ``src/``)::

    python3 bench/run.py --workload fig1 --seed 1 --seconds 8 --trace 0
    python3 bench/run.py --workload fig1 --seed 1 --seconds 8 --trace 1
    python3 bench/run.py --workload fig1 --seed 1 --seconds 1 --trace 0 --smoke

Workloads (the seed is passed as ``--seed`` / ``master_seed``):

* ``fig1``: the CLI's fig1 defaults.  Kernel evaluation on long sample
  columns dominates and ``apply_loss`` runs only 4 times, so it shows
  kernel-batching gains.
* ``fig2``: the fig2 defaults.  The same kernels on columns a third as
  long with 9x more calls, plus one ``apply_loss`` per cell, so it shows
  per-call overhead.
* ``direct``: the direct-detection defaults.  It never reaches
  ``homodyne`` or ``oscillator``: a kernel optimisation should leave it
  unchanged.
* ``nongauss``: homodyne scans of a cat state and a Fock state through
  the library (``bench/nongauss.py``), the only workload dominated by
  sampling and the only one that reaches the rejection and inverse-CDF
  samplers.

With ``--trace 0`` it reports, tracing off:

* ``setup_s``: wall time of a fresh ``python -c "import losscomp"``;
* ``run_s``: one warm in-process pass of the workload's public entry
  point, after an untimed one-trial pass has grown the kernel tables;
* ``cold_run_s`` and ``peak_rss_mb``: wall time and peak RSS of a fresh
  process running the workload end to end (the CLI, or nongauss.py);
* ``ok_ratio``: cells that succeeded over cells attempted.  A cell is one
  (eta, trial) or (state, trial) dataset; it fails if it raises, writes
  a non-finite number, or writes different bytes in another run with
  the same seed.

Samples are taken in rounds, so that each metric's samples spread over
the whole run: one fresh import, one cold run, then warm passes for half
as long as the cold run took.  Rounds repeat until twice ``--seconds``
have passed, and at least twice.  Each timing is the median of its
samples.

With ``--trace 1`` it runs one cold pass and then warm passes under
``layertrace.Tracer`` (alternating with untraced passes) and reports the
per-layer metrics and ``trace_overhead_s``.

The last line of stdout is the result object; the line before it is the
full report (quartiles, sample counts, CSV sha256 of the cold run,
environment).  Exits non-zero without a result when there is no
``src/losscomp`` to run.
"""
from __future__ import annotations

import argparse
import csv
import hashlib
import io
import itertools
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import replace
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORK = BENCH / ".work"

WORKLOADS = ("fig1", "fig2", "direct", "nongauss")
RUNNERS = {"fig1": "run_fig1", "fig2": "run_fig2", "direct": "run_direct_contrast"}
DEADLINE_S = 165          # every run must end within 180 s
SETUP_SAMPLES = 3
SMOKE_TRIALS = 2
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def _quartiles(values):
    if len(values) < 2:
        return values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q1, q3


def _summary(values, unit):
    q1, q3 = _quartiles(values)
    return {"value": statistics.median(values), "unit": unit,
            "q1": q1, "q3": q3, "samples": len(values)}


def _run_child(argv, env, deadline):
    """Run ``argv`` to completion; (wall seconds, peak RSS in MiB, exit code)."""
    start = time.perf_counter()
    proc = subprocess.Popen(argv, cwd=ROOT, env=env, stdout=subprocess.DEVNULL)
    try:
        while True:
            pid, status, usage = os.wait4(proc.pid, os.WNOHANG)
            if pid:
                wall = time.perf_counter() - start
                proc.returncode = os.waitstatus_to_exitcode(status)
                return wall, usage.ru_maxrss / 1024.0, proc.returncode
            if time.monotonic() > deadline:
                print(f"bench: timed out: {' '.join(argv)}", file=sys.stderr)
                return time.perf_counter() - start, 0.0, -1
            time.sleep(0.001)
    finally:
        if proc.returncode is None:
            proc.kill()
            os.wait4(proc.pid, 0)
            proc.returncode = -9


def _read_outputs(directory):
    return {p.name: p.read_bytes() for p in sorted(directory.glob("*.csv"))}


def _finite(text):
    try:
        return math.isfinite(float(text))
    except ValueError:
        return True   # a text field such as a verdict or a hash


class Cells:
    """Cell accounting over every run of one workload at one seed.

    The first run's outputs are the reference; a later run fails every
    cell whose rows differ from it, and all of them if any other output
    file differs.
    """

    def __init__(self, workload):
        self.table, self.key, self.expected = workload.table, workload.key, workload.cells
        self.reference = None
        self.rows = {}
        self.good = set()

    def _parse(self, outputs):
        rows, bad = {}, set()
        data = outputs.get(self.table)
        if data is None:
            return rows, bad
        reader = csv.reader(io.StringIO(data.decode("utf-8")))
        header = next(reader)
        index = [header.index(column) for column in self.key]
        for row in reader:
            key = tuple(row[i] for i in index)
            rows.setdefault(key, []).append(row)
            if not all(_finite(value) for value in row):
                bad.add(key)
        return rows, bad

    def add(self, outputs):
        """Account one run's outputs; None when the run raised or exited non-zero."""
        outputs = outputs or {}
        if self.reference is None:
            self.reference = outputs
            self.rows, bad = self._parse(outputs)
            self.good = set(self.rows) - bad
            return
        others = {k: v for k, v in outputs.items() if k != self.table}
        if others != {k: v for k, v in self.reference.items() if k != self.table}:
            self.good.clear()
            return
        rows, _ = self._parse(outputs)
        self.good = {key for key in self.good if rows.get(key) == self.rows[key]}

    @property
    def failed(self):
        return max(self.expected - len(self.good), 0)


def _dict_rows(data):
    return list(csv.DictReader(io.StringIO(data.decode("utf-8"))))


def _agrees(values, theory, where):
    """None when the trial mean is within 8 standard errors of theory."""
    mean = statistics.fmean(values)
    tolerance = 8.0 * statistics.stdev(values) / math.sqrt(len(values))
    if abs(mean - theory) <= tolerance:
        return None
    return f"{where}: mean {mean:.6g} vs theory {theory:.6g} (tolerance {tolerance:.3g})"


def _at_top_index(rows, group, column, value):
    """Values of ``column`` at the largest j_M of the rows with ``group == value``."""
    rows = [r for r in rows if r[group] == value]
    top = max(int(r["j_M"]) for r in rows)
    return [float(r[column]) for r in rows if int(r["j_M"]) == top], top


class Workload:
    """One benchmark workload: its entry points, cold command and output check."""

    def __init__(self, name, seed, smoke):
        from losscomp import experiments
        import nongauss

        self.name, self.seed = name, seed
        if name == "nongauss":
            # the per-trial table holds the cells, one row per (cell, j_M)
            self.table, self.key = "nongauss.csv", ("state", "trial")
            self.trials = SMOKE_TRIALS if smoke else nongauss.TRIALS
            self.cells = len(nongauss.STATES) * self.trials
            self.config = None
        else:
            self.table, self.key = f"{name}_trials.csv", ("eta", "trial")
            config = replace(experiments.default_config(name), master_seed=seed)
            if smoke:
                config = replace(config, trials=SMOKE_TRIALS)
            self.trials = config.trials
            self.cells = len(config.eta_list) * config.trials
            self.config = config

    def cold_argv(self, out_dir):
        if self.name == "nongauss":
            return [sys.executable, str(BENCH / "nongauss.py"), "--seed", str(self.seed),
                    "--out", str(out_dir / "nongauss.csv"), "--trials", str(self.trials)]
        return [sys.executable, "-m", "losscomp", self.name, "--seed", str(self.seed),
                "--out", str(out_dir / f"{self.name}.csv"), "--trials", str(self.trials)]

    def run(self, out_dir, trials=None):
        """One in-process pass of the public entry point, looked up at call time."""
        trials = trials or self.trials
        if self.name == "nongauss":
            import nongauss
            nongauss.run(self.seed, out_dir / "nongauss.csv", trials)
        else:
            from losscomp import experiments
            getattr(experiments, RUNNERS[self.name])(
                replace(self.config, trials=trials), out=out_dir / f"{self.name}.csv")

    def warm_up(self, out_dir):
        """A one-trial pass: it grows the same kernel tables and splines as a full one."""
        out_dir.mkdir()
        self.run(out_dir, trials=1)
        shutil.rmtree(out_dir)

    def check(self, outputs):
        """None when the reference outputs agree with theory, else the reason."""
        if self.name == "nongauss":
            rows = _dict_rows(outputs[self.table])
            for state in sorted({r["state"] for r in rows}):
                values, top = _at_top_index(rows, "state", "value", state)
                theory = float(next(r["theory"] for r in rows if r["state"] == state))
                problem = _agrees(values, theory, f"{state} j_M={top}")
                if problem:
                    return problem
            return None
        rows = _dict_rows(outputs[self.table])
        etas = sorted({r["eta"] for r in rows}, key=float)
        if self.name == "fig2":
            # the propagated error settles above eta = 1/2 and explodes below it
            def growth(eta):
                errors = {}
                for r in rows:
                    if r["eta"] == eta:
                        errors.setdefault(int(r["j_M"]), []).append(float(r["propagated_error"]))
                return statistics.fmean(errors[100]) / statistics.fmean(errors[20])
            low, high = growth(etas[0]), growth(etas[-1])
            if low > 10.0 and high < 1.1:
                return None
            return f"error growth j_M 20->100: {low:.3g} at eta {etas[0]}, {high:.3g} at {etas[-1]}"
        values, top = _at_top_index(rows, "eta", "value", etas[-1])
        n, d = self.config.target_n, self.config.target_d
        theory = self.config.state().build().element(n, n + d).real
        return _agrees(values, theory, f"eta={etas[-1]} j_M={top}")


def _timed_pass(workload, out_dir):
    """(seconds, outputs) of one in-process pass; outputs None if it raised."""
    out_dir.mkdir()
    start = time.perf_counter()
    try:
        workload.run(out_dir)
    except Exception:  # counted as failed cells, the benchmark keeps going
        traceback.print_exc()
        return time.perf_counter() - start, None
    seconds = time.perf_counter() - start
    outputs = _read_outputs(out_dir)
    shutil.rmtree(out_dir)
    return seconds, outputs


def _measure_end_to_end(workload, cells, env, seconds, smoke, deadline, work):
    def setup():
        wall, _, code = _run_child([sys.executable, "-c", "import losscomp"], env, deadline)
        if code != 0:
            raise RuntimeError("import losscomp failed in a fresh interpreter")
        return wall

    rss, hashes, passes = [], {}, itertools.count()

    def cold():
        out_dir = work / f"cold{len(rss)}"
        out_dir.mkdir()
        wall, peak, code = _run_child(workload.cold_argv(out_dir), env, deadline)
        outputs = _read_outputs(out_dir) if code == 0 else None
        if not rss and outputs:
            hashes.update((name, hashlib.sha256(data).hexdigest())
                          for name, data in outputs.items())
        cells.add(outputs)
        rss.append(peak)
        return wall

    def warm():
        wall, outputs = _timed_pass(workload, work / f"warm{next(passes)}")
        cells.add(outputs)
        return wall

    workload.warm_up(work / "warmup")
    # rounds of (setup, cold run, warm passes) spread every metric's samples
    # over the whole run; two same-seed cold runs at least also gate determinism
    setup_s, cold_s, run_s = [], [], []
    start, round_s = time.monotonic(), 0.0
    while len(cold_s) < 2 or (not smoke and time.monotonic() - start < 2 * seconds
                              and time.monotonic() + round_s < deadline):
        round_start = time.monotonic()
        setup_s.append(setup())
        cold_s.append(cold())
        warm_start = time.monotonic()
        run_s.append(warm())
        while time.monotonic() - warm_start < cold_s[-1] / 2:
            run_s.append(warm())
        round_s = time.monotonic() - round_start
    while len(setup_s) < SETUP_SAMPLES:
        setup_s.append(setup())
    metrics = {
        "setup_s": _summary(setup_s, "s"),
        "run_s": _summary(run_s, "s"),
        "cold_run_s": _summary(cold_s, "s"),
        "peak_rss_mb": _summary(rss, "MiB"),
        "ok_ratio": _summary([(cells.expected - cells.failed) / cells.expected], "ratio"),
    }
    return metrics, {"csv_sha256": hashes}


def _measure_layers(workload, cells, seconds, smoke, deadline, work):
    import layertrace
    import nongauss

    extra = [(nongauss, "run", "experiments.bench_nongauss_run")]
    tracer = layertrace.Tracer()
    restored = True

    def traced(out_dir):
        nonlocal restored
        tracer.install(extra)
        try:
            wall, outputs = _timed_pass(workload, out_dir)
        finally:
            restored &= tracer.uninstall([nongauss])
        cells.add(outputs)
        metrics = tracer.layer_metrics()
        metrics["experiments.csv_bytes"] = sum(map(len, (outputs or {}).values()))
        spans = tracer.span_summary()
        # drop the spans now: kept alive, they slow the garbage collector
        # in the untraced pass that follows
        tracer.reset()
        return wall, metrics, spans

    # the cold pass grows the kernel tables: table metrics come from it
    _, cold_metrics, cold_spans = traced(work / "cold")
    untraced, traced_walls, layer_passes = [], [], []
    start = time.monotonic()
    while not layer_passes or (
            not smoke and time.monotonic() - start < seconds
            and time.monotonic() + 2 * max(traced_walls) < deadline):
        wall, outputs = _timed_pass(workload, work / f"plain{len(untraced)}")
        cells.add(outputs)
        untraced.append(wall)
        wall, metrics, spans = traced(work / f"traced{len(traced_walls)}")
        traced_walls.append(wall)
        layer_passes.append(metrics)
    metrics = {key: statistics.median(p[key] for p in layer_passes) for key in layer_passes[0]}
    for key in ("oscillator.table_builds", "oscillator.table_build_s",
                "oscillator.table_max_index"):
        metrics[key] = cold_metrics[key]
    metrics["trace_overhead_s"] = statistics.median(traced_walls) - statistics.median(untraced)
    detail = {
        "wrappers_restored": restored,
        "hooks_missing": sorted(set(layertrace.HOOKS) - tracer.hooked),
        "run_s_untraced": untraced,
        "run_s_traced": traced_walls,
        "spans_cold_pass": cold_spans,
        "spans_last_warm_pass": spans,
    }
    return metrics, detail


def _environment(nproc):
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    cpu = platform.machine()
    cpuinfo = Path("/proc/cpuinfo")
    if cpuinfo.is_file():
        cpu = next((line.split(":", 1)[1].strip()
                    for line in cpuinfo.read_text().splitlines()
                    if line.startswith("model name")), cpu)
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "nproc": nproc,
        "cpu": cpu,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": {var: os.environ[var] for var in BLAS_THREAD_VARS},
        "src_lines": sum(len(p.read_text(encoding="utf-8").splitlines())
                         for p in sorted(SRC.rglob("*.py"))),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help=f"{SMOKE_TRIALS} trials per efficiency or state, fewest samples")
    args = parser.parse_args(argv)
    deadline = time.monotonic() + DEADLINE_S
    if not (SRC / "losscomp" / "__init__.py").is_file():
        print(f"bench: no package at {SRC / 'losscomp'}; run from the root of a checkout",
              file=sys.stderr)
        return 2

    nproc = len(os.sched_getaffinity(0))
    # one BLAS thread: the load is one process on one core, and the BLAS
    # calls here are too small to gain from more threads, which only add noise
    for var in BLAS_THREAD_VARS:
        os.environ[var] = "1"
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    sys.path.insert(0, str(SRC))
    import losscomp
    if Path(losscomp.__file__).resolve().parent != SRC / "losscomp":
        print(f"bench: imported losscomp from {losscomp.__file__}, not {SRC}", file=sys.stderr)
        return 2

    workload = Workload(args.workload, args.seed, args.smoke)
    cells = Cells(workload)
    WORK.mkdir(exist_ok=True)
    work = Path(WORK / f"{args.workload}-{args.seed}-{os.getpid()}")
    work.mkdir()
    try:
        if args.trace:
            values, detail = _measure_layers(workload, cells, args.seconds, args.smoke,
                                             deadline, work)
            spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
            metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
                       for m in spec["per_layer"]}
            correct = detail["wrappers_restored"]
        else:
            metrics, detail = _measure_end_to_end(workload, cells, env, args.seconds,
                                                  args.smoke, deadline, work)
            correct = True
    finally:
        shutil.rmtree(work, ignore_errors=True)
    try:
        problem = workload.check(cells.reference) if cells.reference else "reference run failed"
    except Exception as exc:  # malformed outputs fail the check, not the benchmark
        problem = f"outputs unreadable: {exc!r}"
    correct = correct and cells.failed == 0 and problem is None
    report = {
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "smoke": args.smoke, "seconds": args.seconds, "correct": correct,
        "attempted": cells.expected, "failed": cells.failed,
        "failed_ratio": cells.failed / cells.expected, "check": problem or "ok",
        "metrics": metrics, **detail, "environment": _environment(nproc),
    }
    result = {"correct": correct, "attempted": cells.expected, "failed": cells.failed,
              "metrics": {name: {"value": m["value"], "unit": m["unit"]}
                          for name, m in metrics.items()}}
    print(json.dumps({"report": report}))
    print(json.dumps(result))
    return 0 if correct else 1


if __name__ == "__main__":
    raise SystemExit(main())
