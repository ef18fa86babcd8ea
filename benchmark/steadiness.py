"""Steadiness report: runs workloads k times with different seeds and prints,
for each end-to-end metric, the median, the quartiles and the spread (the
distance between the quartiles as a share of the median) against the
metric's bound in BENCHMARK.json.

    python3 benchmark/steadiness.py --workload cli-volume --runs 5
    python3 benchmark/steadiness.py --runs 10 --save a.json
    python3 benchmark/steadiness.py --runs 10 --seed0 101 --against a.json

`--save` also writes each run's info line to `<name>.info.json`.
`--against` also prints how far each median moved from a saved set of
runs, in the metric's worse direction, as a share of the saved median.
Runs are sequential, one process at a time.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def run_once(workload, seed, seconds):
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, timeout=600)
    if proc.returncode != 0:
        raise RuntimeError(f"{workload} seed {seed} exited {proc.returncode}: {proc.stderr[-2000:]}")
    lines = proc.stdout.strip().splitlines()
    return json.loads(lines[-1]), json.loads(lines[-2])["info"]


def spread(values):
    q1, med, q3 = statistics.quantiles(values, n=4)
    return statistics.median(values), q1, q3, (q3 - q1) / statistics.median(values)


def shift(new, old, better):
    """How much worse `new` is than `old`, as a share of `old`."""
    return (new - old) / old if better == "lower" else (old - new) / old


def main(argv=None):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in spec["workloads"]]
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", action="append", choices=names, help="default: every workload")
    p.add_argument("--runs", type=int, default=10)
    p.add_argument("--seed0", type=int, default=1, help="seeds are seed0 .. seed0+runs-1")
    p.add_argument("--seconds", type=int, default=spec["run_seconds"])
    p.add_argument("--save", help="write every run's result to this JSON file")
    p.add_argument("--against", help="a file written by --save to compare medians with")
    args = p.parse_args(argv)

    old = json.loads(Path(args.against).read_text()) if args.against else {}
    saved, infos = {}, {}
    worst = 0.0
    for workload in args.workload or names:
        results = []
        for seed in range(args.seed0, args.seed0 + args.runs):
            r, info = run_once(workload, seed, args.seconds)
            infos.setdefault(workload, []).append(info)
            print(f"{workload} seed {seed}: correct={r['correct']} attempted={r['attempted']} "
                  f"failed={r['failed']}", flush=True)
            results.append(r)
        saved[workload] = results
        print(f"\n{workload}: {args.runs} runs, {args.seconds} s each")
        print(f"{'metric':18} {'median':>12} {'q1':>12} {'q3':>12} {'spread':>7} {'bound':>6} "
              f"{'/bound':>7}" + (f" {'shift':>7}" if old else ""))
        for m in spec["end_to_end"]:
            values = [r["metrics"][m["name"]]["value"] for r in results]
            med, q1, q3, sp = spread(values)
            ratio = sp / m["bound"]
            if m["name"] != "setup_s":
                worst = max(worst, ratio)
            line = (f"{m['name']:18} {med:12.6g} {q1:12.6g} {q3:12.6g} {sp:7.3f} {m['bound']:6.2f} "
                    f"{ratio:7.2f}")
            if workload in old:
                before = statistics.median(r["metrics"][m["name"]]["value"] for r in old[workload])
                s = shift(med, before, m["better"])
                line += f" {s:+7.3f}" + ("  WORSE THAN BOUND" if s > m["bound"] else "")
            print(line + ("  SPREAD ABOVE A THIRD OF BOUND" if ratio > 1 / 3 and m["name"] != "setup_s" else ""))
    if args.save:
        Path(args.save).write_text(json.dumps(saved))
        Path(args.save).with_suffix(".info.json").write_text(json.dumps(infos))
    print(f"\nlargest spread/bound (setup_s aside): {worst:.2f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
