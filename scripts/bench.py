#!/usr/bin/env python3
"""Time lvlm's window sweep, nearest-row search, decoding, evaluation and its
neighbour term, classification, learning and PNN quantization, lattice and
model I/O, inertia index and command-line front end at fixed shapes.

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
- `model_io`: `io.write_model` then `io.read_model` of the same file, for
  a real model with N = 64 states of M = 16 channels (16,384 covariance
  values, random I + G Gᵀ); its fingerprint is the written file's bytes.
- `cli-volume/synth`: `lvlm synth` through `cli.main` with the benchmark
  workload's flags (a 40³ lattice of 3 states, self-weight 0.9, 2-channel
  Gaussian emissions, 20 sweeps), writing observations and states; its
  fingerprint is that of both written files' bytes.
  `synth/gibbs_sample/40x3-N3`: `gibbs_sample` alone on that lattice.
- `cli-volume/evaluate`: `evaluate_real` of the 40³ f64x2 grid under the
  3-state real model of `cli`. `cli-volume/classify`: `classify_image` of
  the 24³ f64x2 grid under a bundle of 3 such models (means drawn per
  class), each at window radius 1.
- `pair_score`: the neighbour term of evaluation alone, `model._pair_score`
  under the 3-state A of `image-discrete`, on the states its model decodes
  (`256-N3`) and on the 40³ lattice of 3 states (`40x3-N3`).
- `image-discrete/learn`: `learn_discrete` of the `image-discrete` image,
  window radius 2, 3 states. `cli-volume/learn`: `learn_real` of a 32³
  f64x2 volume of 3 states in blocks of 8 (means (0, 0), (3, 0) and (0, 3),
  unit normal noise), window radius 1, 3 states. Their fingerprints are the
  learned model files' bytes. `pnn/32x3-real-M2`: `pnn_quantize` alone of
  that volume's window means into 3 clusters; its fingerprint is that of
  the codebook and the assignment.

Each source tree is served by a worker process of its own, which builds
every case's inputs once and then runs one call at a time when asked.
`--before SRC` starts a second worker on that tree's `src` directory, and
the two are driven in lockstep, call by call, alternating which tree goes
first, so that a slow spell of the machine falls on both trees alike. Per
case, each worker first makes one untimed call (warming caches and lazy
set-up, and fingerprinting the output, which must agree across trees for
results that should not change), then `--reps` timed calls; `--runs`
repeats this with fresh workers. The file records every call's time, each
tree's median, and, per case, the median of the after/before ratios of the
paired calls and how many pairs the after tree won.

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
LEARN_SIDE, LEARN_BLOCK = 32, 8


def fingerprint(value):
    if isinstance(value, Path):
        data = value.read_bytes()
    elif isinstance(value, tuple) and value and all(isinstance(v, Path) for v in value):
        data = b"".join(v.read_bytes() for v in value)
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
    from lvlm import (ClassEntry, ClassifierBundle, DiscreteModel, LatticeShape, RealModel, SymbolLattice,
                      SynthConfig, classify_image, cli, decode_discrete, decode_real, evaluate_discrete,
                      evaluate_real, gibbs_sample, inertia_index, io, learn_discrete, learn_real, pnn_quantize,
                      sweep_signatures)
    from lvlm.model import _nearest_rows, _pair_score

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
    out.append(("cli-volume/evaluate", {"U": VOLUME_SIDE ** 3, "N": N, "M": 2, "w": real.w_e},
                lambda m=real, lat=lattices["40x3-f64x2"]: evaluate_real(m, lat)))
    argv = ["index", "--model", str(tmp / "model.txt"), "--states", str(tmp / "40x3-u8.lat"), "--w", "1"]

    def index():
        with contextlib.redirect_stdout(StringIO()) as stdout:
            code = cli.main(argv)
        return code, stdout.getvalue()

    out.append(("cli/index", {"U": VOLUME_SIDE ** 3, "N": N, "w": 1}, index))
    out.append(("cli/build_parser", {}, cli.build_parser))

    rng = np.random.default_rng(3)  # its own stream, as above
    n, m = 64, 16
    g = rng.normal(scale=0.25, size=(n, m, m))
    sigma = np.eye(m) + g @ g.transpose(0, 2, 1)
    many = RealModel(N=n, M=m, d=3, A=np.full((n, n), 1.0 / n), mu=rng.normal(size=(n, m)),
                     sigma=(sigma + sigma.transpose(0, 2, 1)) / 2)

    def model_io(path=tmp / "model-N64-M16.txt"):
        io.write_model(path, many)
        io.read_model(path)
        return path

    out.append(("model_io/N64-M16", {"N": n, "M": m, "values": many.A.size + many.mu.size + many.sigma.size},
                model_io))

    # the benchmark workload's synthesis: no random inputs, the seed is a flag
    side, sweeps, self_weight = "x".join([str(VOLUME_SIDE)] * 3), 20, 0.9
    observations, synth_states = tmp / "synth.lat", tmp / "synth_states.lat"
    synth_argv = ["synth", "--shape", side, "--n", str(N), "--self-weight", str(self_weight),
                  "--mu", "0.0,0.0;3.0,0.0;0.0,3.0", "--sweeps", str(sweeps), "--seed", "0",
                  "--out", str(observations), "--states-out", str(synth_states)]

    def synth():
        with contextlib.redirect_stdout(StringIO()):
            if cli.main(synth_argv) != 0:
                raise RuntimeError("lvlm synth failed")
        return observations, synth_states  # fingerprinted by their bytes

    shape = {"U": VOLUME_SIDE ** 3, "N": N, "M": 2, "sweeps": sweeps}
    out.append(("cli-volume/synth", shape, synth))
    phi = np.full((N, N), (1 - self_weight) / (N - 1))
    np.fill_diagonal(phi, self_weight)
    config = SynthConfig(shape=LatticeShape(volume), N=N, potentials=phi, sweeps=sweeps, seed=0)
    out.append((f"synth/gibbs_sample/40x3-N{N}", {"U": VOLUME_SIDE ** 3, "N": N, "sweeps": sweeps},
                lambda: gibbs_sample(config).states))

    rng = np.random.default_rng(4)  # its own stream, as above
    classes = ClassifierBundle(tuple(
        ClassEntry(f"c{c}", RealModel(N=N, M=2, d=3, A=A, mu=rng.normal(size=(N, 2)),
                                      sigma=np.tile(np.eye(2), (N, 1, 1))), np.log(1 / N)) for c in range(N)))
    out.append(("cli-volume/classify", {"U": TEST_SIDE ** 3, "N": N, "M": 2, "w": 1, "classes": N},
                lambda lat=lattices["24x3-f64x2"]: classify_image(classes, lat)))
    for name, q in [("256-N3", states.states), ("40x3-N3", lattices["40x3-u8"].values)]:
        out.append((f"pair_score/{name}", {"U": q.size, "N": N, "d": q.ndim}, lambda q=q: _pair_score(A, q, 1.0)))

    def learned(learn, lat, radius, path):
        io.write_model(path, learn(lat, radius, N))
        return path  # fingerprinted by its bytes

    out.append(("image-discrete/learn", {"U": SIDE ** 2, "N": N, "M": M, "w": w},
                lambda: learned(learn_discrete, image, w, tmp / "learned-discrete.lvlm")))
    rng = np.random.default_rng(5)  # its own stream, as above
    coarse = rng.integers(0, N, size=(LEARN_SIDE // LEARN_BLOCK,) * 3)
    planted = np.kron(coarse, np.ones((LEARN_BLOCK,) * 3, dtype=np.int64))
    centres = np.array([[0.0, 0.0], [3.0, 0.0], [0.0, 3.0]])
    learn_volume = SymbolLattice.real(centres[planted] + rng.normal(size=planted.shape + (2,)))
    out.append(("cli-volume/learn", {"U": LEARN_SIDE ** 3, "N": N, "M": 2, "w": 1},
                lambda: learned(learn_real, learn_volume, 1, tmp / "learned-real.lvlm")))
    learn_means = sweep_signatures(learn_volume, 1).flat()

    def pnn():
        codebook, assignment = pnn_quantize(learn_means, N)
        return np.concatenate([codebook.centroids.ravel(), codebook.sizes, assignment])

    out.append((f"pnn/{LEARN_SIDE}x3-real-M2", {"points": len(learn_means), "N": N, "M": 2}, pnn))
    return out


def serve():
    """Worker: build the cases of the lvlm on sys.path, write their shapes as
    one JSON line, then answer each request line `[case, fingerprint]` of
    standard input by calling the case once and writing its time (and, when
    asked, its output's fingerprint) as one JSON line."""
    with tempfile.TemporaryDirectory() as tmp:
        table = {name: (shape, call) for name, shape, call in cases(Path(tmp))}
        print(json.dumps({name: shape for name, (shape, _) in table.items()}), flush=True)
        for line in sys.stdin:
            name, fingerprinted = json.loads(line)
            t = time.perf_counter()
            value = table[name][1]()
            reply = {"s": time.perf_counter() - t}
            if fingerprinted:
                reply["fingerprint"] = fingerprint(value)
            print(json.dumps(reply), flush=True)


class Worker:
    """A `serve` process on the source tree `src`."""

    def __init__(self, src):
        env = dict(os.environ, PYTHONPATH=str(src))
        self.proc = subprocess.Popen([sys.executable, __file__, "--serve"], env=env, text=True,
                                     stdin=subprocess.PIPE, stdout=subprocess.PIPE)
        self.shapes = json.loads(self.proc.stdout.readline())

    def call(self, name, fingerprinted=False):
        self.proc.stdin.write(json.dumps([name, fingerprinted]) + "\n")
        self.proc.stdin.flush()
        return json.loads(self.proc.stdout.readline())

    def close(self):
        self.proc.stdin.close()
        self.proc.wait()


def measure(trees, runs, reps):
    """{case: {"shape", side: {"calls_s", "fingerprint"}}}: per run, a worker
    per tree, driven call by call in lockstep."""
    result = {}
    for run in range(runs):
        workers = {side: Worker(src) for side, src in trees.items()}
        try:
            shapes = workers["after"].shapes
            for name, shape in shapes.items():
                entry = result.setdefault(name, {"shape": shape, **{side: {"calls_s": []} for side in trees}})
                for side, worker in workers.items():
                    entry[side].setdefault("fingerprint", worker.call(name, fingerprinted=True)["fingerprint"])
                for rep in range(reps):
                    order = list(workers) if (run + rep) % 2 == 0 else list(reversed(workers))
                    for side in order:
                        entry[side]["calls_s"].append(workers[side].call(name)["s"])
        finally:
            for worker in workers.values():
                worker.close()
        print(f"run {run + 1}/{runs} done", file=sys.stderr)
    return result


def main():
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--out", help="JSON file to write")
    parser.add_argument("--before", help="src directory of a tree to compare against")
    parser.add_argument("--runs", type=int, default=3, help="worker processes per tree, one after another")
    parser.add_argument("--reps", type=int, default=3, help="timed calls per case and worker")
    parser.add_argument("--serve", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args()
    if args.serve:
        serve()
        return
    if not args.out:
        parser.error("--out is required")

    trees = {"after": Path(__file__).resolve().parent.parent / "src"}
    if args.before:
        trees = {"before": Path(args.before).resolve(), **trees}
    report = {
        "machine": {"platform": platform.platform(), "processor": platform.processor(),
                    "cpus": os.cpu_count(), "python": platform.python_version(),
                    "numpy": np.__version__},
        "method": f"per case, {args.runs} runs of a worker process per tree, each making one untimed call "
                  f"then {args.reps} timed calls, the trees' calls alternating one by one; 's' is the median "
                  "over all of a tree's calls, 'after_over_before' the median ratio of paired calls",
        "cases": measure(trees, args.runs, args.reps),
    }
    for name, entry in report["cases"].items():
        for side in trees:
            entry[side]["s"] = statistics.median(entry[side]["calls_s"])
        if args.before:
            pairs = list(zip(entry["before"]["calls_s"], entry["after"]["calls_s"]))
            entry["after_over_before"] = statistics.median(a / b for b, a in pairs)
            entry["after_faster"] = f"{sum(a < b for b, a in pairs)}/{len(pairs)}"
        line = "  ".join(f"{side} {entry[side]['s']:.4f} s" for side in trees)
        if args.before:
            line += f"  ratio {entry['after_over_before']:.3f}  faster {entry['after_faster']}"
        print(f"{name:32s} {line}")
    Path(args.out).write_text(json.dumps(report, indent=1) + "\n")


if __name__ == "__main__":
    main()
