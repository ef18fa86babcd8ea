"""lvlm benchmark: one run of one workload.

    python3 benchmark/run.py --workload image-discrete --seed 1 --seconds 30 --trace 0

Run from the root of a source checkout: lvlm is imported from its `src/`
and the output checks use `tests/oracles.py`. Set-up generates the inputs
from the seed and warms up; it is done seven times, and `setup_s` is the
median. The run then executes the workload's operations one after another,
in cycles, and stops before the first operation that would end after
`--seconds`, judged by the length of its last run; the first cycle always
completes. Every output is checked.

Times are reported at a nominal machine speed. Before and after every
set-up and untraced operation the run times a fixed piece of work that does
not use lvlm (`Reference`), and scales the seconds between by
REFERENCE_NOMINAL_S over the mean of the two reference samples. `setup_s`
is the median of the scaled set-ups; each `<operation>_s` is the trimmed
mean of the operation's scaled runs (the fastest and the slowest left out).
The machines this runs on are shared, and their speed changes by up to 2x
from one second to the next; the scaling removes most of that from the
metrics, and a mean follows the share of slow seconds smoothly where a
median jumps between the fast and the slow runs. The raw seconds are in the
info line.

With `--trace 0` the last line of standard output is the end-to-end result;
with `--trace 1` untraced and traced cycles alternate, and the last line
holds the per-layer metrics of the traced cycles. The line before it records
the machine, the library versions, the inputs and the per-operation samples.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_REPEATS = 7

# Seconds of the reference work on the 2-core machine the benchmark was
# defined on, in its fast spells (in its slow spells about 0.09 s); times are
# reported at that speed.
REFERENCE_NOMINAL_S = 0.05


def import_program():
    """Import lvlm and the test oracles from this checkout, then the modules of
    the benchmark that use them; raise ImportError if either is missing."""
    global spans, workloads
    sys.path[:0] = [str(ROOT / "src"), str(ROOT / "tests"), str(HERE)]
    import lvlm
    import oracles

    for mod in (lvlm, oracles):
        if ROOT not in Path(mod.__file__).resolve().parents:
            raise ImportError(f"{mod.__name__} imported from {mod.__file__}, outside {ROOT}")
    import spans
    import workloads


class Reference:
    """Fixed work independent of lvlm, timed before and after every set-up
    and untraced operation, to measure how fast the shared machine runs.

    It is a window sweep written here, of the kind most of lvlm's operations
    run: a Python loop of small numpy calls over every STEP-th row of a
    256x256 discrete lattice, into a fresh output array the size of the
    lattice's. The machine's slow spells slow it about as much as they slow
    lvlm's operations, whose data are as spread out; bulk numpy arithmetic
    on data that stays in cache was slowed much less and followed them
    worse. Being the benchmark's own, it does not change with lvlm."""

    W, STEP = 2, 8

    def __init__(self):
        import numpy as np

        self.np = np
        self.symbols = np.random.default_rng(0).integers(0, 4, size=(256, 256))
        self.samples = []

    def measure(self):
        np, symbols, w = self.np, self.symbols, self.W
        start = time.perf_counter()
        last = symbols.shape[1]
        out = np.empty(symbols.shape + (4,))
        for r in range(0, len(symbols), self.STEP):
            block = symbols[max(0, r - w):r + w + 1]
            counts = np.bincount(block[:, :w].ravel(), minlength=4)
            for j in range(last):
                if j + w < last:
                    counts += np.bincount(block[:, j + w], minlength=4)
                if j > w:
                    counts -= np.bincount(block[:, j - w - 1], minlength=4)
                out[r, j] = counts / counts.sum()
        self.samples.append(time.perf_counter() - start)
        return self.samples[-1]

    def scaled(self, seconds, before):
        """`seconds` at nominal speed, given the reference sample taken
        before them; takes the sample after them."""
        return seconds * REFERENCE_NOMINAL_S * 2 / (before + self.measure())


class Runner:
    """Executes operations, times them, checks them and counts failures."""

    def __init__(self, workload, reference):
        self.wl = workload
        self.reference = reference
        if not reference.samples:
            reference.measure()
        self.samples = {k: [] for k in workloads.KINDS}
        # untraced seconds of each run of an operation at nominal speed: its
        # seconds over the mean reference seconds just before and after it
        self.nominal = {k: [] for k in workloads.KINDS}
        self.timeline = []  # (kind, raw seconds, reference seconds after it)
        self.attempted = self.failed = 0
        self.failures = []
        self.outputs = {}  # op key -> fingerprint of each successful run

    def execute(self, op, tracer=None):
        """Run `op`, traced when a tracer is given; returns its wall seconds."""
        self.attempted += 1
        start = time.perf_counter()
        try:
            if tracer is None:
                result = op.run()
                seconds = time.perf_counter() - start
                self.nominal[op.kind].append(self.reference.scaled(seconds, self.reference.samples[-1]))
                self.timeline.append((op.kind, seconds, self.reference.samples[-1]))
            else:
                self.wl.span = tracer.span
                try:
                    with spans.installed(tracer), tracer.span("op." + op.kind) as s:
                        result = op.run()
                finally:
                    self.wl.span = workloads.no_span
                seconds = s.seconds
            self.samples[op.kind].append(seconds)
            fp = op.check(result)
            seen = self.outputs.setdefault(op.key, [])
            seen.append(fp)
            workloads.require(seen[0] == fp, "output differs from an earlier run on the same input")
        except Exception as e:  # a failed operation is counted and the run goes on
            self.failed += 1
            self.failures.append(f"{op.key}: {type(e).__name__}: {e}")
            print(f"FAILED {op.key}: {type(e).__name__}: {e}", file=sys.stderr)
            if not isinstance(e, workloads.CheckFailed):
                traceback.print_exc(file=sys.stderr)
            seconds = time.perf_counter() - start
        return seconds


def set_up(cls, seed, workdir, size):
    """Build the workload's inputs and files, then run one cycle at tiny size."""
    workload = cls(seed, size, workdir)
    for op in cls(seed, "tiny", workdir / "warmup").cycle(0):
        try:
            op.check(op.run())
        except Exception:
            pass  # the timed run counts and reports failures
    return workload


def run_untraced(runner, seconds):
    """Cycles until the next operation would end past the deadline, judged by
    its last run; the rest of a cycle is not run without its start, because
    later operations use the outputs of earlier ones."""
    deadline = time.perf_counter() + seconds
    last = {}
    i = 0
    while True:
        for op in runner.wl.cycle(i):
            if i > 0 and time.perf_counter() + last[op.kind] > deadline:
                return
            last[op.kind] = runner.execute(op)
        i += 1


def run_traced(runner, seconds):
    """Alternate untraced and traced cycles over the same inputs; returns the
    per-layer metrics (median over traced cycles) and both cycle walls."""
    deadline = time.perf_counter() + seconds
    walls, layers = {"untraced": [], "traced": []}, []
    i = 0
    while i == 0 or time.perf_counter() + walls["untraced"][-1] + walls["traced"][-1] <= deadline:
        walls["untraced"].append(sum(runner.execute(op) for op in runner.wl.cycle(i)))
        tracer = spans.Tracer()
        walls["traced"].append(sum(runner.execute(op, tracer) for op in runner.wl.cycle(i)))
        layers.append(spans.layer_metrics(tracer.spans))
        i += 1
    metrics = {name: float(statistics.median(c[name] for c in layers)) for name, _ in spans.METRICS}
    metrics["trace.overhead"] = statistics.median(walls["traced"]) / statistics.median(walls["untraced"]) - 1
    return metrics, walls


def git_commit():
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def environment():
    import numpy as np
    import scipy

    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads_env": {k: os.environ.get(k) for k in
                             ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
        "LVLM_THREADS": os.environ.get("LVLM_THREADS"),
        "commit": git_commit(),
    }


def trimmed_mean(values):
    """Mean without the smallest and the largest value (of three or more)."""
    if not values:
        return 0.0
    values = sorted(values)
    return statistics.mean(values[1:-1] if len(values) > 2 else values)


def quartiles(values):
    if len(values) < 2:
        return [values[0]] * 3 if values else []
    return statistics.quantiles(values, n=4, method="inclusive")


def measure(name, seed, seconds, trace, workdir, size="full"):
    """One run; returns (result line, info record). The self-test passes
    size="tiny"."""
    cls = workloads.WORKLOADS[name]
    reference = Reference()
    setups, setups_raw, workload = [], [], None
    for _ in range(1 if trace else SETUP_REPEATS):
        workload = None  # free the previous set-up's inputs first
        before = reference.measure()
        start = time.perf_counter()
        workload = set_up(cls, seed, workdir, size)
        setups_raw.append(time.perf_counter() - start)
        setups.append(reference.scaled(setups_raw[-1], before))
    runner = Runner(workload, reference)
    walls = None
    if trace:
        metrics, walls = run_traced(runner, seconds)
        units = dict(spans.METRICS)
    else:
        run_untraced(runner, seconds)
        metrics, units = end_to_end(workload, runner, setups)
    decode_acc = workload.quality_mean("decode_acc")
    classify_acc = workload.quality_mean("classify_ok")
    correct = (runner.failed == 0 and all(runner.samples.values())
               and decode_acc >= workloads.DECODE_ACC_FLOOR
               and classify_acc >= workloads.CLASSIFY_ACC_FLOOR)
    result = {
        "correct": correct,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }
    info = {
        "workload": name, "seed": seed, "seconds": seconds, "trace": trace,
        **environment(),
        "inputs": workload.describe(),
        "setup_s": setups, "setup_raw_s": setups_raw,
        "ops_raw_s": {k: {"n": len(v), "median": statistics.median(v) if v else None, "quartiles": quartiles(v)}
                      for k, v in runner.samples.items()},
        "reference_s": {"n": len(runner.reference.samples), "median": statistics.median(runner.reference.samples),
                        "quartiles": quartiles(runner.reference.samples)},
        "quality": workload.quality,
        "timeline": runner.timeline,
        "cycle_walls": walls,
        "outputs": runner.outputs,
        "failures": runner.failures[:20],
    }
    return result, info


def end_to_end(workload, runner, setups):
    metrics = {"setup_s": statistics.median(setups)}
    units = {"setup_s": "s"}
    for kind, samples in runner.nominal.items():
        metrics[f"{kind}_s"] = trimmed_mean(samples)
        units[f"{kind}_s"] = "s"
    for name in ("decode_acc", "learn_param_err"):
        metrics[name] = workload.quality_mean(name)
    metrics["classify_acc"] = workload.quality_mean("classify_ok")
    metrics["ok_frac"] = 1.0 - runner.failed / max(1, runner.attempted)
    metrics["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    units.update(decode_acc="frac", learn_param_err="l2", classify_acc="frac", ok_frac="frac", peak_rss_mb="MB")
    return metrics, units


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True, choices=["image-discrete", "cli-volume"])
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = p.parse_args(argv)
    try:
        import_program()
    except ImportError as e:
        print(f"benchmark: cannot import lvlm and its test oracles from {ROOT}: {e}", file=sys.stderr)
        return 2
    workdir = ROOT / ".bench_work" / f"{args.workload}-{os.getpid()}"
    try:
        result, info = measure(args.workload, args.seed, args.seconds, bool(args.trace), workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            workdir.parent.rmdir()
        except OSError:
            pass  # another run still uses it
    print(json.dumps({"info": info}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
