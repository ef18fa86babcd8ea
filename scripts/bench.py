#!/usr/bin/env python3
"""Time lvlm's window sweep, nearest-row search, decoding, evaluation,
classification, lattice I/O, inertia index and command-line front end at
fixed shapes.

Cases, each on seeded inputs:

- `image-discrete`: the benchmark workload's shape, a 256² image of 4
  symbols in blocks of 3 states, window radius 2: the nearest-row search
  over its window signatures (3 rows), and `decode_discrete` and
  `evaluate_discrete` of a 3-state model. Of the states that model decodes:
  `io.write_lattice`, `io.read_lattice` of the written file,
  `io.states_to_pgm`, and `inertia_index` at radius 2. A written file's
  fingerprint is that of its bytes. `image-discrete/classify`:
  `classify_image` of a 64² image of that kind under a bundle of 4 such
  models whose emission rows are shifted by 0 to 3 symbols.
- `sweep`: `sweep_signatures` alone, on a 256² image of 4 symbols at radius
  2, a 128² image of 256 symbols at radius 1, a 40³ grid of 2-channel
  standard normal vectors at radius 1, and a 40³ lattice of 3 states at
  radius 1.
- `real-256`: a 256² grid of 2-channel standard normal vectors, window
  radius 1, with N = 4, 64 and 256 states whose means are distinct window
  signatures of the grid (identity covariances, uniform A): `decode_real`
  and `evaluate_real`.
- `nearest`: the search alone on 256² standard normal signatures, for N in
  {4, 64, 256} and M in {2, 4, 16}.
- `real-256-M16`: a 256² grid of 16-channel standard normal vectors, window
  radius 1, with N = 4 and 64 states whose means are distinct window
  signatures of the grid and whose covariances are random (I + G Gᵀ, G with
  entries of standard deviation 1/4): `decode_real` and `evaluate_real`.
- `cli-volume`: lattice files of the benchmark workload's shapes: a 40³ grid
  of 2-channel standard normal vectors (f64x2), a 40³ lattice of 3 states
  (u8) and a 24³ f64x2 grid: `io.read_lattice` of each, and
  `io.write_lattice` of the two 40³ lattices.
- `cli`: `lvlm index --model --states --w 1` through `cli.main` on a 3-state
  real model and the 40³ state lattice (its fingerprint is the standard
  output), and `cli.build_parser()` alone (its fingerprint is the help
  text); both are timed after a first call in the process.

Each source tree is timed in its own process, so that two trees can be
compared on the same machine: `--before SRC` times that tree's `src`
directory too, alternating which tree runs first. A case's time is the
median over `--reps` calls within a process; the file records every
process's value and their median, and a fingerprint of each case's output,
which must agree across trees for results that should not change.

    python scripts/bench.py --out BENCH.json [--before ../parent/src]
"""

import argparse
import contextlib
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import tempfile
import time
from io import StringIO
from pathlib import Path

import numpy as np

SIDE = 256
STATE_COUNTS = (4, 64, 256)
WIDTHS = (2, 4, 16)
WIDE_M, WIDE_STATE_COUNTS = 16, (4, 64)
CLASSIFY_SIDE, CLASSES = 64, 4
VOLUME_SIDE, TEST_SIDE = 40, 24


def fingerprint(value):
    if isinstance(value, Path):
        data = value.read_bytes()
    elif isinstance(value, np.ndarray):
        data = np.ascontiguousarray(value).tobytes()
    elif isinstance(value, argparse.ArgumentParser):
        data = value.format_help().encode()
    else:
        data = repr(value).encode()
    return hashlib.blake2b(data, digest_size=8).hexdigest()


def blocky_image(rng, side, n_states, M, block=16, p=0.7):
    """Blocks of random states, each node showing its state's symbol with
    probability p and another symbol otherwise."""
    coarse = rng.integers(0, n_states, size=(side // block,) * 2)
    states = np.repeat(np.repeat(coarse, block, axis=0), block, axis=1)
    other = (states + rng.integers(1, M, size=states.shape)) % M
    return np.where(rng.random(states.shape) < p, states, other)


def cases(tmp):
    """(name, shape, call) for every case; inputs are built before timing,
    files are written under the directory `tmp`."""
    from lvlm import (ClassEntry, ClassifierBundle, DiscreteModel, RealModel, SymbolLattice, classify_image, cli,
                      decode_discrete, decode_real, evaluate_discrete, evaluate_real, inertia_index, io,
                      sweep_signatures)
    from lvlm.model import _nearest_rows

    out = []
    rng = np.random.default_rng(0)
    N, M, w = 3, 4, 2
    B = np.full((N, M), 0.1)
    B[np.arange(N), np.arange(N)] = 0.7
    A = np.full((N, N), 0.05) + 0.85 * np.eye(N)
    image = SymbolLattice.discrete(blocky_image(rng, SIDE, N, M), M=M)
    model = DiscreteModel(N=N, M=M, d=2, A=A, B=B, w=w, w_e=w, w_l=w)
    signatures = sweep_signatures(image, w).flat()
    shape = {"U": SIDE ** 2, "N": N, "M": M, "w": w}
    out.append(("image-discrete/nearest", shape, lambda: _nearest_rows(B, signatures)))
    out.append(("image-discrete/decode", shape, lambda: decode_discrete(model, image)[1].states))
    out.append(("image-discrete/evaluate", shape, lambda: evaluate_discrete(model, image)))
    states = decode_discrete(model, image)[1]
    written, pgm = tmp / "states.lat", tmp / "states.pgm"
    io.write_lattice(written, states)  # for the read case; every write of it writes the same bytes
    out.append(("image-discrete/write_lattice", shape, lambda: io.write_lattice(written, states) or written))
    out.append(("image-discrete/read_lattice", shape, lambda: io.read_lattice(written).values))
    out.append(("image-discrete/states_to_pgm", shape, lambda: io.states_to_pgm(pgm, states) or pgm))
    out.append(("image-discrete/inertia", shape, lambda: inertia_index(states, w)))

    grid = SymbolLattice.real(rng.normal(size=(SIDE, SIDE, 2)))
    means = sweep_signatures(grid, 1).flat()
    for n in STATE_COUNTS:
        mu = means[rng.choice(len(means), size=n, replace=False)]
        real = RealModel(N=n, M=2, d=2, A=np.full((n, n), 1.0 / n), mu=mu,
                         sigma=np.tile(np.eye(2), (n, 1, 1)), w=1, w_e=1, w_l=1)
        shape = {"U": SIDE ** 2, "N": n, "M": 2, "w": 1}
        out.append((f"real-256/N{n}/decode", shape, lambda m=real: decode_real(m, grid)[1].states))
        out.append((f"real-256/N{n}/evaluate", shape, lambda m=real: evaluate_real(m, grid)))

    for n in STATE_COUNTS:
        for m in WIDTHS:
            x = rng.normal(size=(SIDE ** 2, m))
            rows = rng.normal(size=(n, m))
            out.append((f"nearest/N{n}/M{m}", {"U": SIDE ** 2, "N": n, "M": m},
                        lambda x=x, rows=rows: _nearest_rows(rows, x)))

    wide = SymbolLattice.real(rng.normal(size=(SIDE, SIDE, WIDE_M)))
    means = sweep_signatures(wide, 1).flat()
    for n in WIDE_STATE_COUNTS:
        g = rng.normal(scale=0.25, size=(n, WIDE_M, WIDE_M))
        sigma = np.eye(WIDE_M) + g @ g.transpose(0, 2, 1)
        real = RealModel(N=n, M=WIDE_M, d=2, A=np.full((n, n), 1.0 / n),
                         mu=means[rng.choice(len(means), size=n, replace=False)],
                         sigma=(sigma + sigma.transpose(0, 2, 1)) / 2, w=1, w_e=1, w_l=1)
        shape = {"U": SIDE ** 2, "N": n, "M": WIDE_M, "w": 1}
        out.append((f"real-256-M16/N{n}/decode", shape, lambda m=real: decode_real(m, wide)[1].states))
        out.append((f"real-256-M16/N{n}/evaluate", shape, lambda m=real: evaluate_real(m, wide)))

    rng = np.random.default_rng(1)  # its own stream, so that the cases above keep their inputs
    bundle = ClassifierBundle(tuple(
        ClassEntry(f"c{c}", DiscreteModel(N=N, M=M, d=2, A=A, B=np.roll(B, c, axis=1), w=w, w_e=w, w_l=w),
                   np.log(1 / CLASSES)) for c in range(CLASSES)))
    test = SymbolLattice.discrete((blocky_image(rng, CLASSIFY_SIDE, N, M) + 1) % M, M=M)
    out.append(("image-discrete/classify", {"U": CLASSIFY_SIDE ** 2, "N": N, "M": M, "w": w, "classes": CLASSES},
                lambda: classify_image(bundle, test)))

    for name, lat, r in [
        ("sweep/256-M4", image, 2),
        ("sweep/128-M256", SymbolLattice.discrete(rng.integers(0, 256, size=(128, 128)), M=256), 1),
        ("sweep/40x3-real-M2", SymbolLattice.real(rng.normal(size=(40, 40, 40, 2))), 1),
        ("sweep/40x3-states-N3", SymbolLattice.discrete(rng.integers(0, 3, size=(40, 40, 40)), M=3), 1),
    ]:
        out.append((name, {"U": lat.shape.node_count, "M": lat.M, "w": r, "kind": lat.kind},
                    lambda lat=lat, r=r: sweep_signatures(lat, r).signatures))

    rng = np.random.default_rng(2)  # its own stream, as above
    volume = (VOLUME_SIDE,) * 3
    lattices = {
        "40x3-f64x2": SymbolLattice.real(rng.normal(size=volume + (2,))),
        "40x3-u8": SymbolLattice.discrete(rng.integers(0, N, size=volume), M=N),
        "24x3-f64x2": SymbolLattice.real(rng.normal(size=(TEST_SIDE,) * 3 + (2,))),
    }
    for name, lat in lattices.items():
        path = tmp / f"{name}.lat"
        io.write_lattice(path, lat)
        shape = {"U": lat.shape.node_count, "M": lat.M, "kind": lat.kind, "bytes": path.stat().st_size}
        out.append((f"cli-volume/read_lattice/{name}", shape, lambda path=path: io.read_lattice(path).values))
        if lat.shape.lengths == volume:
            out.append((f"cli-volume/write_lattice/{name}", shape,
                        lambda lat=lat, path=tmp / f"written-{name}.lat": io.write_lattice(path, lat) or path))

    real = RealModel(N=N, M=2, d=3, A=A, mu=rng.normal(size=(N, 2)), sigma=np.tile(np.eye(2), (N, 1, 1)))
    io.write_model(tmp / "model.txt", real)
    argv = ["index", "--model", str(tmp / "model.txt"), "--states", str(tmp / "40x3-u8.lat"), "--w", "1"]

    def index():
        with contextlib.redirect_stdout(StringIO()) as stdout:
            code = cli.main(argv)
        return code, stdout.getvalue()

    out.append(("cli/index", {"U": VOLUME_SIDE ** 3, "N": N, "w": 1}, index))
    out.append(("cli/build_parser", {}, cli.build_parser))
    return out


def measure(reps):
    """{case: {"shape", "s", "fingerprint"}} for the lvlm on sys.path."""
    result = {}
    with tempfile.TemporaryDirectory() as tmp:
        for name, shape, call in cases(Path(tmp)):
            value = call()  # warm caches and lazy set-up before timing
            times = []
            for _ in range(reps):
                t = time.perf_counter()
                call()
                times.append(time.perf_counter() - t)
            result[name] = {"shape": shape, "s": statistics.median(times), "fingerprint": fingerprint(value)}
    return result


def run_tree(src, reps):
    env = dict(os.environ, PYTHONPATH=str(src))
    proc = subprocess.run([sys.executable, __file__, "--measure", "--reps", str(reps)],
                          env=env, check=True, stdout=subprocess.PIPE, text=True)
    return json.loads(proc.stdout)


def main():
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--out", help="JSON file to write")
    parser.add_argument("--before", help="src directory of a tree to compare against")
    parser.add_argument("--runs", type=int, default=3, help="processes per tree")
    parser.add_argument("--reps", type=int, default=3, help="timed calls per case and process")
    parser.add_argument("--measure", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args()
    if args.measure:
        json.dump(measure(args.reps), sys.stdout)
        return
    if not args.out:
        parser.error("--out is required")

    trees = {"after": Path(__file__).resolve().parent.parent / "src"}
    if args.before:
        trees = {"before": Path(args.before).resolve(), **trees}
    runs = {side: [] for side in trees}
    for i in range(args.runs):
        order = list(trees) if i % 2 == 0 else list(reversed(trees))
        for side in order:
            runs[side].append(run_tree(trees[side], args.reps))
            print(f"run {i + 1}/{args.runs} {side} done", file=sys.stderr)

    report = {
        "machine": {"platform": platform.platform(), "processor": platform.processor(),
                    "cpus": os.cpu_count(), "python": platform.python_version(),
                    "numpy": np.__version__},
        "method": f"per case, the median of {args.reps} timed calls in each of {args.runs} processes "
                  "per tree, trees alternating which runs first; 's' is the median over processes",
        "cases": {},
    }
    for name in runs["after"][0]:
        entry = {"shape": runs["after"][0][name]["shape"]}
        for side, side_runs in runs.items():
            times = [r[name]["s"] for r in side_runs]
            entry[side] = {"s": statistics.median(times), "runs_s": times,
                           "fingerprint": side_runs[0][name]["fingerprint"]}
        report["cases"][name] = entry
    Path(args.out).write_text(json.dumps(report, indent=1) + "\n")
    for name, entry in report["cases"].items():
        line = "  ".join(f"{side} {entry[side]['s']:.4f} s" for side in runs)
        print(f"{name:28s} {line}")


if __name__ == "__main__":
    main()
