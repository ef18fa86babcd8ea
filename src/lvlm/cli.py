"""lvlm command-line front end.

Subcommands: synth, learn, decode, evaluate, classify, index, quantize.
Exit codes: 0 success, 1 input error or out of memory, 2 numeric error.
"""

from __future__ import annotations

import argparse
import functools
import os
import re
import sys

import numpy as np

from . import io
from .discrete import decode_discrete, learn_discrete, evaluate_discrete, DiscreteModel
from .errors import InputError, NumericError
from .classify import classify_image, softmax_scores
from .indices import IndexReport, associativity_index, inertia_index
from .lattice import LatticeShape, StateLattice
from .real import decode_real, learn_real, evaluate_real, RealModel
from .synth import DiscreteEmission, RealEmission, SynthConfig, emit_observations, gibbs_sample
from .vq import pnn_quantize


# str.splitlines' line boundaries
_LINE_BREAKS = re.compile("[\n\r\v\f\x1c-\x1e\x85\u2028\u2029]")


def _one_line(text) -> str:
    """`text` as one line that any stream can encode: line breaks and
    undecodable bytes (surrogates, as in paths from argv) backslash-escaped."""
    text = str(text).encode("utf-8", "backslashreplace").decode()
    return _LINE_BREAKS.sub(lambda m: m[0].encode("unicode_escape").decode(), text)


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise InputError(f"{self.prog}: {message}")


def _parse_matrix(text: str, name: str) -> np.ndarray:
    """Rows separated by ';', entries by ',', each one number. E.g. '0.8,0.2;0.2,0.8'."""
    try:
        rows = [[io._parse_number(x, np.float64) for x in row.split(",")] for row in text.split(";")]
    except ValueError as e:
        raise InputError(f"bad {name} matrix: {e}") from e
    if len({len(r) for r in rows}) != 1:
        raise InputError(f"bad {name} matrix: ragged rows")
    return np.array(rows)


def _flag_type(dtype, name: str):
    """An argparse type that reads one number in the syntax of lvlm's files
    (`io._parse_number`), reported as an invalid `name` value otherwise."""
    parse = functools.partial(io._parse_number, dtype=dtype)
    parse.__name__ = name
    return parse


_int, _float = _flag_type(np.int64, "int"), _flag_type(np.float64, "float")


def _u8_count(text: str) -> int:
    """A state or symbol count for flags: stored as u8 values, so 1 to 256."""
    n = _int(text)
    if not 1 <= n <= 256:
        raise argparse.ArgumentTypeError(f"{text} is not in [1, 256] (values are stored as u8)")
    return n


def _parse_shape(text: str) -> LatticeShape:
    """Axis lengths joined by 'x', with at most as many nodes as an int64
    array numpy can address."""
    try:
        shape = LatticeShape(tuple(io._parse_number(x, np.int64) for x in text.lower().split("x")))
    except ValueError as e:
        raise InputError(f"bad shape {text!r}") from e
    if shape.node_count > np.iinfo(np.intp).max // np.dtype(np.int64).itemsize:
        raise InputError(f"shape {text!r} has {shape.node_count} nodes, too many for one array")
    return shape


def _radii(args):
    """(w, w_e, w_l): each explicit flag wins; --w, else --wl, sets the others."""
    w = args.w if args.w is not None else args.wl if args.wl is not None else 1
    return w, (args.we if args.we is not None else w), (args.wl if args.wl is not None else w)


def _distinct_outputs(a, b, flags: str):
    if a and b and os.path.realpath(a) == os.path.realpath(b):
        raise InputError(f"{flags} name the same file")


def _write_lattice_any(path, lat, fmt):
    if fmt == "pgm":
        io.write_pgm(path, lat)
    else:
        io.write_lattice(path, lat)


def _cmd_synth(args):
    shape = _parse_shape(args.shape)
    if args.potentials:
        phi = _parse_matrix(args.potentials, "potentials")
        n = len(phi)
        if args.n is not None and args.n != n:
            raise InputError(f"--n {args.n} does not match the {n} x {n} --potentials")
        if args.self_weight is not None:
            raise InputError("synth takes --self-weight or --potentials, not both")
    else:
        n = args.n
        if n is None:
            raise InputError("synth needs --n or --potentials")
        self_weight = 0.95 if args.self_weight is None else args.self_weight
        off = (1.0 - self_weight) / max(1, n - 1) if n > 1 else 0.0
        phi = np.full((n, n), off)
        np.fill_diagonal(phi, self_weight if n > 1 else 1.0)
    if args.b and args.mu:
        raise InputError("synth takes --b or --mu, not both")
    if args.sigma and not args.mu:
        raise InputError("synth --sigma needs --mu")
    if args.sigma_scale is not None and (not args.mu or args.sigma):
        raise InputError("synth --sigma-scale needs --mu and no --sigma")
    if args.b:
        emission = DiscreteEmission(_parse_matrix(args.b, "B"))
        if emission.B.shape[1] > 256:
            raise InputError(f"--b has {emission.B.shape[1]} symbols; lattice files store at most 256")
    elif args.mu:
        mu = _parse_matrix(args.mu, "mu")
        if args.sigma:
            m = mu.shape[1]
            sigma = _parse_matrix(args.sigma, "sigma")
            if sigma.shape != (len(mu), m * m):
                raise InputError(f"--sigma needs {len(mu)} rows of {m * m} values")
            sigma = sigma.reshape(len(mu), m, m)
        else:
            scale = 1.0 if args.sigma_scale is None else args.sigma_scale
            sigma = np.tile(np.diag(np.full(mu.shape[1], scale)), (len(mu), 1, 1))
        emission = RealEmission(mu, sigma)
    else:
        emission = None
    config = SynthConfig(shape=shape, N=n, potentials=phi, emission=emission,
                         sweeps=args.sweeps, seed=args.seed)
    if bool(args.out) != (emission is not None):
        raise InputError("synth writes observations (--out) exactly when given an emission (--b or --mu)")
    _distinct_outputs(args.out, args.states_out, "--out and --states-out")
    states = gibbs_sample(config)
    obs = emit_observations(states, emission, seed=args.seed + 1) if emission is not None else None
    outputs = []  # (path, lattice, format, name printed)
    if args.states_out:
        outputs.append((args.states_out, states, args.format, "states"))
    if obs is not None:
        outputs.append((args.out, obs, args.format if obs.kind == "discrete" else "lat", "observations"))
    with io.all_or_none([path for path, _, _, _ in outputs]) as temps:
        for tmp, (_, lat, fmt, _) in zip(temps, outputs):
            _write_lattice_any(tmp, lat, fmt)
    for path, _, _, name in outputs:
        print(f"{name}={_one_line(path)}")
    return 0


def _cmd_learn(args):
    if args.w is None and args.wl is None:
        raise InputError("learn needs --w or --wl")
    w, w_e, w_l = _radii(args)
    lattices = [io.read_lattice_auto(p, M=args.m) for p in args.inputs]
    learn = learn_discrete if args.variant == "discrete" else learn_real
    model = learn(lattices, w_l, args.n, w=w, w_e=w_e, alpha=args.alpha)
    io.write_model(args.out, model)
    print(f"model={_one_line(args.out)}")
    return 0


def _variant(model):
    """The variant's decode and evaluate, and the alphabet its inputs are read with."""
    if isinstance(model, DiscreteModel):
        return decode_discrete, evaluate_discrete, model.M
    return decode_real, evaluate_real, None


def _cmd_decode(args):
    _distinct_outputs(args.out, args.pgm, "--out and --pgm")
    model = io.read_model(args.model)
    decode, _, M = _variant(model)
    obs = io.read_lattice_auto(args.input, M=M)
    if args.pgm and obs.shape.d != 2:
        raise InputError("PGM visualization needs a 2-d state lattice")
    _, states = decode(model, obs)
    with io.all_or_none([args.out, args.pgm] if args.pgm else [args.out]) as temps:
        io.write_lattice(temps[0], states)
        if args.pgm:
            io.states_to_pgm(temps[1], states)
    print(f"states={_one_line(args.out)}")
    if args.pgm:
        print(f"pgm={_one_line(args.pgm)}")
    return 0


def _cmd_evaluate(args):
    model = io.read_model(args.model)
    _, evaluate, M = _variant(model)
    score = evaluate(model, io.read_lattice_auto(args.input, M=M))
    print(f"logp={score:.17g}")
    return 0


def _cmd_classify(args):
    bundle = io.read_bundle(args.bundle)
    obs = io.read_lattice_auto(args.input, M=_variant(bundle.classes[0].model)[2])
    label, scores = classify_image(bundle, obs)
    print(f"label={label}")
    for entry, score in zip(bundle.classes, scores):
        print(f"score[{entry.label}]={score:.17g}")
    if args.softmax:
        for entry, p in zip(bundle.classes, softmax_scores(scores)):
            print(f"posterior[{entry.label}]={p:.17g}")
    return 0


def _cmd_index(args):
    if not args.model and not args.states:
        raise InputError("index needs --model and/or --states")
    assoc = inertia = window = n = None
    if args.model:
        model = io.read_model(args.model)
        assoc = associativity_index(model.A)
        n = model.N
    if args.states:
        lat = io.read_lattice_auto(args.states)
        if lat.kind != "discrete":
            raise InputError("state lattice must be discrete")
        n = n if n is not None else lat.M
        states = StateLattice(lat.shape, lat.values, n)
        window = args.w
        inertia = inertia_index(states, window, interior_only=args.interior_only)
    for line in IndexReport(assoc, inertia, window, n).lines():
        print(line)
    return 0


def _cmd_quantize(args):
    lat = io.read_lattice_auto(args.input, M=args.m)
    if lat.kind == "real":
        points = lat.values.reshape(-1, lat.M)
    else:
        points = np.eye(lat.M)[lat.values.ravel()]  # symbols as simplex corners
    codebook, _ = pnn_quantize(points, args.n)
    io.write_codebook(args.out, codebook)
    print(f"codebook={_one_line(args.out)}")
    return 0


@functools.cache
def build_parser() -> _Parser:
    """The `lvlm` parser, built once per process: parsing does not change it,
    and each `_cmd_*` looks its layer functions up when it runs."""
    p = _Parser(prog="lvlm", description="Latent-variable lattice models")
    sub = p.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("synth", help="sample states (and observations) from a potential model")
    sp.add_argument("--shape", required=True, help="e.g. 64x64 or 128 or 8x8x8")
    sp.add_argument("--n", type=_u8_count, help="state count")
    sp.add_argument("--self-weight", type=_float, dest="self_weight",
                    help="diagonal of the --n state potential (default 0.95)")
    sp.add_argument("--potentials", help="full N x N matrix, rows ';'-separated: entry (i, j) is the "
                    "potential of a node in state i and the next node along an axis in state j")
    sp.add_argument("--b", help="discrete emission matrix N x M")
    sp.add_argument("--mu", help="real emission means N x M")
    sp.add_argument("--sigma", help="real emission covariances, N rows of M*M values")
    sp.add_argument("--sigma-scale", type=_float, dest="sigma_scale",
                    help="diagonal of every --mu state's covariance when --sigma is not given (default 1.0)")
    sp.add_argument("--sweeps", type=_int, default=50)
    sp.add_argument("--seed", type=_int, default=0)
    sp.add_argument("--out", help="observation lattice path")
    sp.add_argument("--states-out", dest="states_out", help="ground-truth state lattice path")
    sp.add_argument("--format", choices=["lat", "pgm"], default="lat")
    sp.set_defaults(func=_cmd_synth)

    lp = sub.add_parser("learn", help="learn a model from lattice files")
    lp.add_argument("--variant", choices=["discrete", "real"], required=True)
    lp.add_argument("--n", type=_u8_count, required=True, help="state count")
    lp.add_argument("--w", type=_int)
    lp.add_argument("--we", type=_int)
    lp.add_argument("--wl", type=_int)
    lp.add_argument("--alpha", type=_float, default=1.0)
    lp.add_argument("--m", type=_u8_count, help="symbol alphabet size (default: inferred)")
    lp.add_argument("--in", dest="inputs", action="append", required=True)
    lp.add_argument("--out", required=True)
    lp.set_defaults(func=_cmd_learn)

    dp = sub.add_parser("decode", help="decode a lattice to states")
    dp.add_argument("--model", required=True)
    dp.add_argument("--in", dest="input", required=True)
    dp.add_argument("--out", required=True)
    dp.add_argument("--pgm", help="also write a gray-level PGM visualization")
    dp.set_defaults(func=_cmd_decode)

    ep = sub.add_parser("evaluate", help="log-score a lattice under a model")
    ep.add_argument("--model", required=True)
    ep.add_argument("--in", dest="input", required=True)
    ep.set_defaults(func=_cmd_evaluate)

    cp = sub.add_parser("classify", help="classify a lattice with a model bundle")
    cp.add_argument("--bundle", required=True)
    cp.add_argument("--in", dest="input", required=True)
    cp.add_argument("--softmax", action="store_true", help="also print display posteriors")
    cp.set_defaults(func=_cmd_classify)

    ip = sub.add_parser("index", help="associativity / inertia report")
    ip.add_argument("--model")
    ip.add_argument("--states")
    ip.add_argument("--w", type=_int, default=1)
    ip.add_argument("--interior-only", action="store_true", dest="interior_only")
    ip.set_defaults(func=_cmd_index)

    qp = sub.add_parser("quantize", help="PNN-quantize lattice vectors into a codebook")
    qp.add_argument("--in", dest="input", required=True)
    qp.add_argument("--n", type=_int, required=True)
    qp.add_argument("--m", type=_u8_count, help="alphabet size for discrete input")
    qp.add_argument("--out", required=True)
    qp.set_defaults(func=_cmd_quantize)
    return p


def main(argv=None) -> int:
    try:
        try:
            args = build_parser().parse_args(argv)
        except SystemExit as e:  # a help request; _Parser.error raises InputError instead
            return e.code
        with np.errstate(all="ignore"):  # the explicit checks report what fails
            return args.func(args)
    except InputError as e:
        print(f"lvlm: error: {_one_line(e)}", file=sys.stderr)
        return 1
    except (NumericError, np.linalg.LinAlgError) as e:
        print(f"lvlm: numeric error: {_one_line(e)}", file=sys.stderr)
        return 2
    except OSError as e:
        print(f"lvlm: error: {_one_line(e)}", file=sys.stderr)
        return 1
    except MemoryError:
        print("lvlm: error: out of memory", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
