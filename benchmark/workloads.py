"""The benchmark's workloads.

Each workload owns seeded inputs and yields, cycle by cycle, the same list
of operations: learn, decode, evaluate, index, classify and synth, each a
call into lvlm's public functions followed by a check of its output. Every
workload runs every kind of operation so that every end-to-end metric is
measured on every workload; what differs is the input and the path:

- image-discrete: 2-D categorical images through the library. The window
  sweep dominates; VQ sees few distinct signatures (dedupe regime).
- cli-volume: 3-D Gaussian volumes through `lvlm.cli.main` and text files.
  Parsing and formatting, and the 3-D paths of the sweep and the Gibbs
  sampler, run here; VQ sees only distinct signatures (coalesce regime)
  and is most of learning.
"""

from __future__ import annotations

import hashlib
import io as textio
import math
from contextlib import nullcontext, redirect_stderr, redirect_stdout
from dataclasses import dataclass
from pathlib import Path
from types import SimpleNamespace
from typing import Callable

import numpy as np

import oracles
from lvlm import classify, cli, discrete, indices, synth
from lvlm.lattice import LatticeShape, SymbolLattice

import inputs

KINDS = ("learn", "decode", "evaluate", "index", "classify", "synth")

DECODE_ACC_FLOOR = 0.9
CLASSIFY_ACC_FLOOR = 0.9
EVALUATE_REL_TOL = 1e-9


class CheckFailed(Exception):
    """An operation returned, but its output is wrong."""


def require(ok, message):
    if not ok:
        raise CheckFailed(message)


@dataclass
class Op:
    """One timed call. `key` names its input: equal keys must give equal
    fingerprints. `check(result)` raises CheckFailed or returns the
    fingerprint."""

    kind: str
    key: str
    run: Callable[[], object]
    check: Callable[[object], str]


def fingerprint(*parts):
    h = hashlib.blake2b(digest_size=16)
    for p in parts:
        h.update(np.ascontiguousarray(p).tobytes() if isinstance(p, np.ndarray) else repr(p).encode())
    return h.hexdigest()


def no_span(name):
    return nullcontext()


class Workload:
    """Shared state: quality samples gathered by checks and the span factory
    the runner swaps in for traced cycles."""

    def __init__(self, seed, workdir):
        self.seed = seed
        self.workdir = Path(workdir)
        self.workdir.mkdir(parents=True, exist_ok=True)
        # quality of each checked output, by the key of the operation's input
        self.quality = {"decode_acc": {}, "learn_param_err": {}, "classify_ok": {}}
        self.span = no_span
        self.file_bytes = {}

    def quality_mean(self, name):
        """Mean over the distinct inputs checked so far; 0 before any."""
        q = self.quality[name]
        return float(np.mean(list(q.values()))) if q else 0.0

    def check_decode(self, found, planted, n_states, key):
        acc = inputs.state_agreement(found, planted, n_states)
        self.quality["decode_acc"][key] = acc
        require(acc >= DECODE_ACC_FLOOR, f"decode accuracy {acc:.4f} below {DECODE_ACC_FLOOR}")

    def check_params(self, learned, planted, key):
        """Records the mean per-state error; fails on the largest one, which a
        state learned in the wrong place would push past LEARN_MAX_ERR."""
        err = inputs.param_errors(learned, planted)
        self.quality["learn_param_err"][key] = float(err.mean())
        require(err.max() < self.LEARN_MAX_ERR, f"a learned state is off by {err.max():.4f}")

    def check_classify(self, label, scores, true_label, key):
        require(all(math.isfinite(s) for s in scores), f"non-finite class scores {scores}")
        self.quality["classify_ok"][key] = label == true_label
        require(label == true_label, f"classified as {label}, true class {true_label}")


def _relclose(a, b, what):
    require(math.isfinite(a) and abs(a - b) <= EVALUATE_REL_TOL * abs(b),
            f"{what}: lvlm {a!r} vs oracle {b!r}")


def _check_synth(states, obs_values, n_states, emission_mean, what):
    """Shapes, state range, and per-state emission means of a synthesis."""
    require(states.min() >= 0 and states.max() < n_states, f"{what}: states outside [0, {n_states})")
    for j in range(n_states):
        sel = obs_values[states == j]
        if len(sel) >= 100:  # emissions have unit or smaller spread: 5 standard errors
            err = float(np.abs(sel.mean(axis=0) - emission_mean[j]).max())
            require(err < 5 / math.sqrt(len(sel)), f"{what}: state {j} emission mean off by {err:.3f}")


# -- library workload ----------------------------------------------------------------

class ImageDiscrete(Workload):
    """2-D categorical images through the library."""

    name, N, M = "image-discrete", 3, 4
    SIZES = {
        "full": dict(side=256, block=16, test_side=64, test_block=16, synth_side=128, crop=24),
        "tiny": dict(side=64, block=16, test_side=32, test_block=16, synth_side=32, crop=12),
    }
    # SCENES images are learned, decoded, evaluated and indexed in turn, so
    # that learning time and quality are averages over as many inputs; each
    # cycle classifies CLASSES of the 2 * CLASSES test images
    W, CLASSES, SCENES, SYNTH_SWEEPS = 2, 4, 4, 20
    LEARN_MAX_ERR = 0.3

    def __init__(self, seed, size, workdir):
        super().__init__(seed, workdir)
        s = self.SIZES[size]
        rng = np.random.default_rng(seed)
        self.crop = s["crop"]
        self.scenes = []
        for _ in range(self.SCENES):
            planted = inputs.blocky_states(rng, (s["side"],) * 2, self.N, s["block"])
            self.scenes.append((planted, self.emit(rng, planted, 0)))
        self.bundle = classify.ClassifierBundle(tuple(
            classify.ClassEntry(f"c{c}", self.class_model(c), math.log(1.0 / self.CLASSES))
            for c in range(self.CLASSES)))
        tests = []
        for c in list(range(self.CLASSES)) * 2:
            q = inputs.blocky_states(rng, (s["test_side"],) * 2, self.N, s["test_block"])
            tests.append((f"c{c}", self.emit(rng, q, c)))
        self.tests = tests
        self.synth_config = synth.SynthConfig(
            shape=LatticeShape((s["synth_side"],) * 2), N=self.N,
            potentials=inputs.sticky_potentials(self.N), emission=synth.DiscreteEmission(self.class_B(0)),
            sweeps=self.SYNTH_SWEEPS, seed=seed)
        self.model = self.states = None

    def emit(self, rng, states, c):
        return SymbolLattice.discrete(inputs.categorical_emission(rng, states, self.class_B(c)), M=self.M)

    def class_B(self, c):
        return inputs.dominant_rows(self.N, self.M, shift=c)

    def class_model(self, c):
        return discrete.DiscreteModel(N=self.N, M=self.M, d=2, A=inputs.sticky_potentials(self.N),
                                      B=self.class_B(c), w=self.W, w_e=self.W, w_l=self.W)

    def describe(self):
        planted = self.scenes[0][0]
        return {
            "image": {"U": planted.size, "shape": list(planted.shape), "M": self.M,
                      "N": self.N, "w": self.W, "kind": "discrete", "scenes": self.SCENES},
            "classify": {"U": self.tests[0][1].shape.node_count, "classes": self.CLASSES,
                         "images": len(self.tests), "per_cycle": self.CLASSES},
            "synth": {"U": self.synth_config.shape.node_count, "sweeps": self.SYNTH_SWEEPS},
        }

    def cycle(self, i):
        s = i % len(self.scenes)
        planted, obs = self.scenes[s]
        ops = [
            Op("learn", f"learn[{s}]", lambda: discrete.learn_discrete(obs, self.W, self.N),
               lambda model: self.check_learn(model, f"learn[{s}]")),
            Op("decode", f"decode[{s}]", lambda: discrete.decode_discrete(self.model, obs),
               lambda r: self.check_decode_op(r, planted, obs, f"decode[{s}]")),
            Op("evaluate", f"evaluate[{s}]", lambda: discrete.evaluate_discrete(self.model, obs),
               lambda score: self.check_evaluate(score, obs)),
            Op("index", f"index[{s}]", lambda: indices.inertia_index(self.states, self.W), self.check_index),
        ]
        for j in range(self.CLASSES):
            k = (i * self.CLASSES + j) % len(self.tests)
            label, img = self.tests[k]
            ops.append(Op("classify", f"classify[{k}]", lambda img=img: classify.classify_image(self.bundle, img),
                          lambda r, label=label, k=k: self.check_classify_op(r, label, f"classify[{k}]")))
        ops.append(Op("synth", "synth", self.run_synth, self.check_synth))
        return ops

    # operations whose body is more than one call

    def run_synth(self):
        states = synth.gibbs_sample(self.synth_config)
        return states, synth.emit_observations(states, self.synth_config.emission, seed=self.seed + 1)

    # checks

    def check_decode_op(self, result, planted, obs, key):
        X, Q = result
        self.states = Q
        c, w = self.crop, self.model.w
        naive = oracles.naive_signatures(obs.values[:c, :c], self.M, w, "discrete")
        require(np.array_equal(X.signatures[:c - w, :c - w], naive[:c - w, :c - w]),
                "discrete signatures differ from a per-node recount")
        self.check_decode(Q.states, planted, self.N, key)
        return fingerprint(Q.states)

    def check_evaluate(self, score, obs):
        c = self.crop
        crop = obs.values[:c, :c]
        lat = SymbolLattice(LatticeShape((c, c)), np.ascontiguousarray(crop), obs.M, "discrete")
        mine = discrete.evaluate_discrete(self.model, lat)
        _relclose(mine, oracles.straightline_evaluate_discrete(self.model, crop), f"evaluate on a {c}x{c} crop")
        require(math.isfinite(score), f"non-finite score {score}")
        return fingerprint(score)

    def check_index(self, value):
        require(1 / math.sqrt(self.N) - 1e-12 <= value <= 1 + 1e-12, f"inertia {value} out of range")
        return fingerprint(value)

    def check_classify_op(self, result, true_label, key):
        label, scores = result
        self.check_classify(label, scores, true_label, key)
        return fingerprint(label, scores)

    def check_learn(self, model, key):
        self.model = model
        require(np.allclose(model.A.sum(axis=1), 1.0), "rows of A do not sum to 1")
        self.check_params(model.B, self.class_B(0), key)
        return fingerprint(model.A, model.B)

    def check_synth(self, result):
        states, obs = result
        shape = self.synth_config.shape.lengths
        require(states.states.shape == shape and obs.shape.lengths == shape, "synth output shape")
        _check_synth(states.states, np.eye(self.M)[obs.values], self.N, self.class_B(0), "synth")
        return fingerprint(states.states, obs.values)


# -- CLI workload ----------------------------------------------------------------------

class CliVolume(Workload):
    """A 3-D volume through `lvlm.cli.main` in-process. Inputs are files
    written in set-up: the observed volume, its planted states, the planted
    model, SCENES smaller volumes learned from in turn, and a classifier
    bundle with a test volume per class; each cycle classifies all of them."""

    name = "cli-volume"
    N, M, W, CLASSES, SCENES, SYNTH_SWEEPS = 3, 2, 1, 3, 4, 20
    MU = np.array([[0.0, 0.0], [3.0, 0.0], [0.0, 3.0]])
    CLASS_SHIFT = 0.5
    LEARN_MAX_ERR = 1.2
    SIZES = {
        "full": dict(side=40, block=8, learn_side=32, test_side=24, small_block=8, crop=8),
        "tiny": dict(side=16, block=8, learn_side=16, test_side=16, small_block=8, crop=6),
    }

    def __init__(self, seed, size, workdir):
        super().__init__(seed, workdir)
        s = self.SIZES[size]
        rng = np.random.default_rng(seed)
        self.side, self.learn_side, self.test_side, self.crop = s["side"], s["learn_side"], s["test_side"], s["crop"]
        self.planted = inputs.blocky_states(rng, (self.side,) * 3, self.N, s["block"])
        volume = inputs.gaussian_emission(rng, self.planted, self.MU)
        A = inputs.sticky_potentials(self.N)
        sigma = np.tile(np.eye(self.M), (self.N, 1, 1))
        self.model = SimpleNamespace(N=self.N, M=self.M, w_e=self.W, A=A, mu=self.MU, sigma=sigma, alpha=1.0)
        self.crop_values = np.ascontiguousarray(volume[:self.crop, :self.crop, :self.crop])

        self.write("volume.lat", volume, real=True)
        self.write("states.lat", self.planted, real=False)
        self.write("crop.lat", self.crop_values, real=True)
        for k in range(self.SCENES):
            small_states = inputs.blocky_states(rng, (self.learn_side,) * 3, self.N, s["small_block"])
            self.write(f"learn{k}.lat", inputs.gaussian_emission(rng, small_states, self.MU), real=True)
        inputs.write_real_model(self.path("model.txt"), A, self.MU, sigma, d=3, w=self.W)
        entries = []
        for c in range(self.CLASSES):
            mu_c = self.MU + self.CLASS_SHIFT * c
            inputs.write_real_model(self.path(f"class{c}.txt"), A, mu_c, sigma, d=3, w=self.W)
            entries.append((f"c{c}", 1.0 / self.CLASSES, f"class{c}.txt"))
            q = inputs.blocky_states(rng, (self.test_side,) * 3, self.N, s["small_block"])
            self.write(f"test{c}.lat", inputs.gaussian_emission(rng, q, mu_c), real=True)
        inputs.write_bundle(self.path("bundle.txt"), entries)

    def path(self, name):
        return str(self.workdir / name)

    def write(self, name, values, real):
        self.file_bytes[name] = inputs.write_lattice(self.path(name), values, real)

    def describe(self):
        return {
            "volume": {"U": self.planted.size, "shape": list(self.planted.shape), "M": self.M,
                       "N": self.N, "w": self.W, "kind": "real"},
            "learn": {"U": self.learn_side ** 3, "N": self.N, "w": self.W, "scenes": self.SCENES},
            "classify": {"U": self.test_side ** 3, "classes": self.CLASSES, "per_cycle": self.CLASSES},
            "synth": {"U": self.side ** 3, "sweeps": self.SYNTH_SWEEPS},
            "file_bytes": self.file_bytes,
        }

    def lvlm(self, *argv):
        """`lvlm <argv>` in-process; returns its standard output."""
        out, err = textio.StringIO(), textio.StringIO()
        with self.span(f"cli.{argv[0]}"), redirect_stdout(out), redirect_stderr(err):
            code = cli.main([str(a) for a in argv])
        require(code == 0, f"lvlm {argv[0]} exited {code}: {err.getvalue().strip()}")
        return out.getvalue()

    def cycle(self, i):
        p = self.path
        s = i % self.SCENES
        ops = [
            Op("learn", f"learn[{s}]", lambda: self.lvlm("learn", "--variant", "real", "--n", self.N,
                                                        "--wl", self.W, "--in", p(f"learn{s}.lat"),
                                                        "--out", p("learned.txt")),
               lambda out: self.check_learn(out, f"learn[{s}]")),
            Op("decode", "decode", lambda: self.lvlm("decode", "--model", p("model.txt"), "--in", p("volume.lat"),
                                                     "--out", p("decoded.lat")),
               self.check_decode_op),
            Op("evaluate", "evaluate", lambda: self.lvlm("evaluate", "--model", p("model.txt"),
                                                         "--in", p("volume.lat")),
               self.check_evaluate),
            Op("index", "index", lambda: self.lvlm("index", "--model", p("model.txt"), "--states", p("states.lat"),
                                                   "--w", self.W),
               self.check_index),
        ]
        for c in range(self.CLASSES):
            ops.append(Op("classify", f"classify[{c}]",
                          lambda c=c: self.lvlm("classify", "--bundle", p("bundle.txt"), "--in", p(f"test{c}.lat")),
                          lambda out, c=c: self.check_classify_op(out, f"c{c}", f"classify[{c}]")))
        ops.append(Op("synth", "synth", lambda: self.lvlm(
            "synth", "--shape", "x".join([str(self.side)] * 3), "--n", self.N, "--self-weight", 0.9,
            "--mu", ";".join(",".join(map(repr, row)) for row in self.MU.tolist()),
            "--sweeps", self.SYNTH_SWEEPS, "--seed", self.seed,
            "--out", p("synth.lat"), "--states-out", p("synth_states.lat")),
            self.check_synth))
        return ops

    @staticmethod
    def values(out):
        """key=value lines of lvlm's standard output."""
        return dict(line.split("=", 1) for line in out.splitlines() if "=" in line)

    def read(self, name, shape, dtype):
        lengths, got, flat = inputs.read_lattice(self.path(name))
        require(lengths == shape and got == dtype, f"{name}: {lengths} {got}, expected {shape} {dtype}")
        return flat

    def file_fingerprint(self, *names):
        return fingerprint(*(Path(self.path(n)).read_bytes() for n in names))

    def check_learn(self, out, key):
        require(self.values(out).get("model") == self.path("learned.txt"), "learn did not report its model")
        mu = inputs.read_model_rows(self.path("learned.txt"), "mu").reshape(self.N, self.M)
        self.check_params(mu, self.MU, key)
        return self.file_fingerprint("learned.txt")

    def check_decode_op(self, out):
        shape = (self.side,) * 3
        states = self.read("decoded.lat", shape, "u8").astype(np.int64).reshape(shape)
        self.check_decode(states, self.planted, self.N, "decode")
        return self.file_fingerprint("decoded.lat")

    def check_evaluate(self, out):
        score = float(self.values(out)["logp"])
        require(math.isfinite(score), f"non-finite score {score}")
        crop = float(self.values(self.lvlm("evaluate", "--model", self.path("model.txt"),
                                           "--in", self.path("crop.lat")))["logp"])
        _relclose(crop, oracles.straightline_evaluate_real(self.model, self.crop_values),
                  f"evaluate on a {self.crop}^3 crop")
        return fingerprint(out)

    def check_index(self, out):
        v = self.values(out)
        assoc, inertia = float(v["associativity"]), float(v["inertia"])
        A = self.model.A
        require(abs(assoc - np.trace(A) / A.sum()) <= 1e-12, f"associativity {assoc}")
        require(1 / math.sqrt(self.N) - 1e-12 <= inertia <= 1 + 1e-12, f"inertia {inertia} out of range")
        return fingerprint(out)

    def check_classify_op(self, out, true_label, key):
        v = self.values(out)
        scores = [float(x) for k, x in v.items() if k.startswith("score[")]
        require(len(scores) == self.CLASSES, f"{len(scores)} class scores")
        self.check_classify(v.get("label"), scores, true_label, key)
        return fingerprint(out)

    def check_synth(self, out):
        shape = (self.side,) * 3
        obs = self.read("synth.lat", shape, f"f64x{self.M}").reshape(shape + (self.M,))
        states = self.read("synth_states.lat", shape, "u8").astype(np.int64).reshape(shape)
        require(np.isfinite(obs).all(), "non-finite synthesized observations")
        _check_synth(states, obs, self.N, self.MU, "synth")
        self.file_bytes["synth.lat"] = Path(self.path("synth.lat")).stat().st_size
        return self.file_fingerprint("synth.lat", "synth_states.lat")


WORKLOADS = {w.name: w for w in (ImageDiscrete, CliVolume)}
