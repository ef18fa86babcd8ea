import dataclasses
import math
import os
import subprocess
import sys
import warnings
from pathlib import Path

import hypothesis.strategies as st
import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings

from lvlm import (DiscreteModel, InputError, RealModel, SymbolLattice, cli, io, learn_discrete, learn_real,
                  pnn_quantize)
from lvlm.cli import main

from oracles import straightline_evaluate_discrete


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_unknown_subcommand_exits_1(capsys):
    code, _, err = run(capsys, "frobnicate")
    assert code == 1 and "frobnicate" in err


def test_unknown_flag_exits_1(capsys):
    code, _, err = run(capsys, "evaluate", "--bogus")
    assert code == 1 and err


def test_synth_learn_decode_round_trip(tmp_path, capsys):
    obs_p, states_p, model_p, q_p = (str(tmp_path / n) for n in ("o.lat", "s.lat", "m.lvlm", "q.lat"))
    code, out, _ = run(capsys, "synth", "--shape", "24x24", "--n", "2",
                       "--self-weight", "0.95", "--b", "0.8,0.2;0.2,0.8",
                       "--sweeps", "20", "--seed", "3",
                       "--out", obs_p, "--states-out", states_p)
    assert code == 0 and "observations=" in out
    code, out, _ = run(capsys, "learn", "--variant", "discrete", "--n", "2",
                       "--w", "1", "--in", obs_p, "--out", model_p)
    assert code == 0
    code, out, _ = run(capsys, "decode", "--model", model_p, "--in", obs_p, "--out", q_p)
    assert code == 0

    # decoded states match learning's internal assignment (shared signatures)
    from lvlm.model import _assign_field
    from lvlm import sweep_signatures

    model = io.read_model(model_p)
    obs = io.read_lattice(obs_p, M=model.M)
    internal = _assign_field(model.B, sweep_signatures(obs, model.w_l))
    assert np.array_equal(io.read_lattice(q_p).values, internal)


def test_evaluate_prints_logp_line(tmp_path, capsys):
    obs_p, model_p = str(tmp_path / "o.lat"), str(tmp_path / "m.lvlm")
    run(capsys, "synth", "--shape", "16x16", "--n", "2", "--b", "0.8,0.2;0.2,0.8",
        "--seed", "1", "--out", obs_p)
    run(capsys, "learn", "--variant", "discrete", "--n", "2", "--w", "1",
        "--in", obs_p, "--out", model_p)
    code, out, _ = run(capsys, "evaluate", "--model", model_p, "--in", obs_p)
    assert code == 0
    line = [ln for ln in out.splitlines() if ln.startswith("logp=")]
    assert len(line) == 1
    float(line[0].split("=", 1)[1])  # parses as a number


def test_evaluate_past_the_table_bound_matches_straightline(tmp_path, capsys):
    # 40 states on a 3-d lattice: 40 x 7^40 neighbour codes are past the
    # table bound, so the score sums each node's k_t from its neighbours
    rng = np.random.default_rng(40)
    N, M = 40, 6
    m = DiscreteModel(N=N, M=M, d=3, A=rng.uniform(0.01, 1.0, size=(N, N)),
                      B=rng.dirichlet(np.ones(M), size=N), w_e=1)
    obs = SymbolLattice.discrete(rng.integers(0, M, size=(5, 4, 6)), M=M)
    model_p, obs_p = tmp_path / "m.lvlm", tmp_path / "o.lat"
    io.write_model(model_p, m)
    io.write_lattice(obs_p, obs)
    code, out, err = run(capsys, "evaluate", "--model", str(model_p), "--in", str(obs_p))
    assert code == 0, err
    want = straightline_evaluate_discrete(io.read_model(model_p), obs.values)
    assert math.isfinite(want) and float(out.removeprefix("logp=")) == pytest.approx(want, rel=1e-12)


def test_index_subcommand(tmp_path, capsys):
    obs_p, model_p, q_p = (str(tmp_path / n) for n in ("o.lat", "m.lvlm", "q.lat"))
    run(capsys, "synth", "--shape", "24x24", "--n", "2", "--self-weight", "0.97",
        "--b", "0.9,0.1;0.1,0.9", "--sweeps", "30", "--seed", "5",
        "--out", obs_p, "--states-out", q_p)
    run(capsys, "learn", "--variant", "discrete", "--n", "2", "--w", "1",
        "--in", obs_p, "--out", model_p)
    code, out, _ = run(capsys, "index", "--model", model_p, "--states", q_p, "--w", "1")
    assert code == 0
    assert any(ln.startswith("associativity=") for ln in out.splitlines())
    assert any(ln.startswith("inertia=") for ln in out.splitlines())


def test_decode_pgm_visualization(tmp_path, capsys):
    obs_p, model_p, q_p, viz = (str(tmp_path / n) for n in ("o.lat", "m.lvlm", "q.lat", "v.pgm"))
    run(capsys, "synth", "--shape", "16x16", "--n", "2", "--b", "0.8,0.2;0.2,0.8",
        "--seed", "2", "--out", obs_p)
    run(capsys, "learn", "--variant", "discrete", "--n", "2", "--w", "1",
        "--in", obs_p, "--out", model_p)
    code, out, _ = run(capsys, "decode", "--model", model_p, "--in", obs_p,
                       "--out", q_p, "--pgm", viz)
    assert code == 0
    gray = io.read_pgm(viz)
    assert set(np.unique(gray.values)) <= {0, 255}


def test_classify_subcommand(tmp_path, capsys):
    rng = np.random.default_rng(0)
    paths = {}
    for name, p1 in [("dark", 0.15), ("light", 0.85)]:
        vals = (rng.random((16, 16)) < p1).astype(int)
        io.write_lattice(tmp_path / f"{name}.lat", SymbolLattice.discrete(vals, M=2))
        run(capsys, "learn", "--variant", "discrete", "--n", "2", "--w", "1",
            "--in", str(tmp_path / f"{name}.lat"), "--out", str(tmp_path / f"{name}.lvlm"))
        paths[name] = f"{name}.lvlm"
    io.write_bundle(tmp_path / "bundle.txt",
                    [("dark", 0.5, paths["dark"]), ("light", 0.5, paths["light"])])
    test = (rng.random((16, 16)) < 0.85).astype(int)
    io.write_lattice(tmp_path / "test.lat", SymbolLattice.discrete(test, M=2))
    code, out, _ = run(capsys, "classify", "--bundle", str(tmp_path / "bundle.txt"),
                       "--in", str(tmp_path / "test.lat"), "--softmax")
    assert code == 0
    assert "label=light" in out
    assert sum(ln.startswith("score[") for ln in out.splitlines()) == 2


def test_quantize_subcommand(tmp_path, capsys):
    rng = np.random.default_rng(1)
    vals = np.concatenate([rng.normal(0, 0.05, (32, 2)), rng.normal(4, 0.05, (32, 2))])
    io.write_lattice(tmp_path / "pts.lat", SymbolLattice.real(vals.reshape(8, 8, 2)))
    code, out, _ = run(capsys, "quantize", "--in", str(tmp_path / "pts.lat"),
                       "--n", "2", "--out", str(tmp_path / "cb.lvlm"))
    assert code == 0
    cb = io.read_codebook(tmp_path / "cb.lvlm")
    assert cb.N == 2 and sorted(cb.sizes.tolist()) == [32, 32]


def test_missing_file_exits_1(tmp_path, capsys):
    code, _, err = run(capsys, "evaluate", "--model", str(tmp_path / "no.lvlm"),
                       "--in", str(tmp_path / "no.lat"))
    assert code == 1 and err


def test_learn_too_few_distinct_signatures_exits_2(tmp_path, capsys):
    io.write_lattice(tmp_path / "c.lat", SymbolLattice.discrete(np.ones((6, 6), dtype=int), M=2))
    code, _, err = run(capsys, "learn", "--variant", "discrete", "--n", "2", "--w", "1",
                       "--in", str(tmp_path / "c.lat"), "--out", str(tmp_path / "m.lvlm"))
    assert code == 2
    assert err.startswith("lvlm: numeric error: only 1 distinct") and len(err.strip().splitlines()) == 1


def test_learn_fewer_distinct_windows_than_states_exits_2(tmp_path, capsys):
    # 3 distinct window counts (corner, edge, inner) for 4 states, one signature
    io.write_lattice(tmp_path / "c.lat", SymbolLattice.discrete(np.zeros((6, 6), dtype=int), M=2))
    code, _, err = run(capsys, "learn", "--variant", "discrete", "--n", "4", "--w", "1",
                       "--in", str(tmp_path / "c.lat"), "--out", str(tmp_path / "m.lvlm"))
    assert code == 2 and not (tmp_path / "m.lvlm").exists()
    assert err == ("lvlm: numeric error: only 1 distinct emission rows for 4 states: "
                   "too few distinct window signatures\n")


def test_learn_overflowing_covariance_exits_2(tmp_path, capsys):
    # finite values whose squared residuals overflow
    vals = 1e160 * (1 + np.random.default_rng(0).normal(size=(8, 8, 2)))
    io.write_lattice(tmp_path / "r.lat", SymbolLattice.real(vals))
    with np.errstate(over="ignore", invalid="ignore"):
        code, _, err = run(capsys, "learn", "--variant", "real", "--n", "2", "--wl", "1",
                           "--in", str(tmp_path / "r.lat"), "--out", str(tmp_path / "m.lvlm"))
    assert code == 2
    assert err.strip().splitlines()[-1].startswith("lvlm: numeric error: covariance of state 0 overflows")
    assert not (tmp_path / "m.lvlm").exists()


def test_numeric_error_is_one_stderr_line_with_warnings_as_errors(tmp_path, capsys):
    # overflowing squares and products along the way raise no warning out of main
    vals = 1e160 * (1 + np.random.default_rng(0).normal(size=(8, 8, 2)))
    io.write_lattice(tmp_path / "r.lat", SymbolLattice.real(vals))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, _, err = run(capsys, "learn", "--variant", "real", "--n", "2", "--wl", "1",
                           "--in", str(tmp_path / "r.lat"), "--out", str(tmp_path / "m.lvlm"))
    assert code == 2
    assert err == "lvlm: numeric error: covariance of state 0 overflows\n"


def test_learn_overflowing_window_mean_exits_2(tmp_path, capsys):
    vals = np.random.default_rng(0).uniform(0.85e308, 1.7e308, size=(8, 8, 2))
    io.write_lattice(tmp_path / "r.lat", SymbolLattice.real(vals))
    code, _, err = run(capsys, "learn", "--variant", "real", "--n", "2", "--wl", "1",
                       "--in", str(tmp_path / "r.lat"), "--out", str(tmp_path / "m.lvlm"))
    assert code == 2 and err == "lvlm: numeric error: window mean overflows\n"
    assert not (tmp_path / "m.lvlm").exists()


@pytest.mark.parametrize("lo, hi, lengths", [(0.85e308, 1.7e308, (8, 8)), (0.0, 1e200, (20, 15))])
def test_quantize_huge_finite_points(tmp_path, capsys, lo, hi, lengths):
    # squared distances overflow; the codebook is that of the points scaled by 2^-800
    vals = np.random.default_rng(0).uniform(lo, hi, size=lengths + (2,))
    io.write_lattice(tmp_path / "p.lat", SymbolLattice.real(vals))
    code, out, err = run(capsys, "quantize", "--in", str(tmp_path / "p.lat"), "--n", "2",
                         "--out", str(tmp_path / "cb.lvlm"))
    assert code == 0 and err == ""
    cb = io.read_codebook(tmp_path / "cb.lvlm")
    want, _ = pnn_quantize(np.ldexp(vals.reshape(-1, 2), -800), 2)
    assert np.array_equal(cb.sizes, want.sizes)
    assert np.array_equal(cb.centroids, np.ldexp(want.centroids, 800))


def test_evaluate_covariance_not_pd_exits_2(tmp_path, capsys):
    sigma = np.array([np.eye(2), [[1.0, 2.0], [2.0, 1.0]]])  # state 1: eigenvalues -1 and 3
    model = RealModel(N=2, M=2, d=1, A=np.full((2, 2), 0.5), mu=np.array([[0.0, 0.0], [10.0, 10.0]]),
                      sigma=sigma, w_e=0)
    io.write_model(tmp_path / "m.lvlm", model)
    io.write_lattice(tmp_path / "o.lat", SymbolLattice.real(np.array([[0.0, 0.0], [10.0, 10.0]])))
    code, out, err = run(capsys, "evaluate", "--model", str(tmp_path / "m.lvlm"), "--in", str(tmp_path / "o.lat"))
    assert code == 2 and out == ""
    assert err.startswith("lvlm: numeric error: covariance of state 1 is not positive definite")
    assert len(err.strip().splitlines()) == 1


def test_real_pipeline_via_cli(tmp_path, capsys):
    obs_p, model_p, q_p = (str(tmp_path / n) for n in ("o.lat", "m.lvlm", "q.lat"))
    code, _, _ = run(capsys, "synth", "--shape", "16x16", "--n", "2",
                     "--mu", "0,0;3,3", "--sigma-scale", "1.0", "--sweeps", "20",
                     "--seed", "4", "--out", obs_p)
    assert code == 0
    code, _, _ = run(capsys, "learn", "--variant", "real", "--n", "2", "--w", "1",
                     "--in", obs_p, "--out", model_p)
    assert code == 0
    code, out, _ = run(capsys, "evaluate", "--model", model_p, "--in", obs_p)
    assert code == 0 and out.startswith("logp=")
    code, _, _ = run(capsys, "decode", "--model", model_p, "--in", obs_p, "--out", q_p)
    assert code == 0


@pytest.mark.parametrize("flags, radii", [
    (("--wl", "2", "--we", "3"), (2, 3, 2)),
    (("--wl", "2"), (2, 2, 2)),
    (("--w", "1", "--wl", "2"), (1, 1, 2)),
    (("--wl", "2", "--w", "3"), (3, 3, 2)),
    (("--w", "1", "--we", "2"), (1, 2, 1)),
])
def test_learn_window_flags(tmp_path, capsys, flags, radii):
    obs_p, model_p = str(tmp_path / "o.lat"), str(tmp_path / "m.lvlm")
    run(capsys, "synth", "--shape", "12x12", "--n", "2", "--b", "0.8,0.2;0.2,0.8",
        "--seed", "1", "--out", obs_p)
    code, _, err = run(capsys, "learn", "--variant", "discrete", "--n", "2", *flags,
                       "--in", obs_p, "--out", model_p)
    assert code == 0, err
    model = io.read_model(model_p)
    assert (model.w, model.w_e, model.w_l) == radii


def test_learn_state_count_fits_u8(tmp_path, capsys):
    # decoded states are stored as u8, so a model of 257 states could be
    # learned from these 289 signatures but not decoded
    obs_p, model_p = tmp_path / "r.lat", tmp_path / "m.lvlm"
    io.write_lattice(obs_p, SymbolLattice.real(np.random.default_rng(0).normal(size=(17, 17, 2))))
    argv = ["learn", "--variant", "real", "--in", str(obs_p), "--out", str(model_p)]
    code, _, err = run(capsys, *argv, "--n", "257")
    assert code == 1 and "[1, 256]" in err
    assert err.startswith("lvlm: error:") and len(err.strip().splitlines()) == 1
    assert not model_p.exists()
    assert cli.build_parser().parse_args(argv + ["--n", "256"]).n == 256


def test_directory_input_exits_1(tmp_path, capsys):
    obs_p, model_p = str(tmp_path / "o.lat"), str(tmp_path / "m.lvlm")
    run(capsys, "synth", "--shape", "8x8", "--n", "2", "--b", "0.8,0.2;0.2,0.8",
        "--seed", "1", "--out", obs_p)
    run(capsys, "learn", "--variant", "discrete", "--n", "2", "--w", "1", "--in", obs_p, "--out", model_p)
    for argv in (("decode", "--model", model_p, "--in", str(tmp_path), "--out", str(tmp_path / "q.lat")),
                 ("evaluate", "--model", str(tmp_path), "--in", obs_p)):
        code, _, err = run(capsys, *argv)
        assert code == 1 and len(err.strip().splitlines()) == 1


BAD_INPUTS = {
    "u8-fraction": ("index", b"LVLM-LATTICE 1 3 u8\n0 1.5 1\n"),
    "f64-word": ("quantize", b"LVLM-LATTICE 1 2 f64x1\n1.0 abc\n"),
    "p5-truncated": ("quantize", b"P5\n4 4\n255\nabc"),
    "pgm-header-word": ("quantize", b"P2\n2x 1\n255\n0 1\n"),
    "p2-sample-word": ("quantize", b"P2\n2 1\n255\n0 1#\n"),
    "non-utf8": ("quantize", b"LVLM-LATTICE 1 2 u8\n0 \xff\xfe\n"),
    "nan": ("learn", b"LVLM-LATTICE 1 2 f64x1\nnan 1\n"),
    "inf": ("learn", b"LVLM-LATTICE 1 2 f64x1\n1 inf\n"),
    "1e400": ("learn", b"LVLM-LATTICE 1 2 f64x1\n1e400 1\n"),
}


@pytest.mark.parametrize("cmd,data", BAD_INPUTS.values(), ids=BAD_INPUTS.keys())
def test_malformed_lattice_exits_1(tmp_path, capsys, cmd, data):
    (tmp_path / "bad").write_bytes(data)
    bad, out = str(tmp_path / "bad"), str(tmp_path / "out")
    argv = {"index": ("index", "--states", bad),
            "quantize": ("quantize", "--in", bad, "--n", "1", "--out", out),
            "learn": ("learn", "--variant", "real", "--n", "1", "--w", "1", "--in", bad, "--out", out)}[cmd]
    code, _, err = run(capsys, *argv)
    assert code == 1
    assert err.startswith("lvlm: error:") and len(err.strip().splitlines()) == 1


BAD_MODEL_FILES = {
    "model-non-utf8": ("evaluate", b"variant=discrete\nN=\xff\n"),
    "bundle-prior-word": ("classify", b"LVLM-BUNDLE\na x m.lvlm\n"),
    "bundle-prior-zero": ("classify", b"LVLM-BUNDLE\na 0 m.lvlm\nb 1 m.lvlm\n"),
    "bundle-prior-negative": ("classify", b"LVLM-BUNDLE\na -1 m.lvlm\nb 2 m.lvlm\n"),
    "bundle-missing-model": ("classify", b"LVLM-BUNDLE\na 1 no.lvlm\n"),
    "model-nan-A": ("evaluate", b"variant=discrete\nN=1\nM=2\nd=2\nw=1\nw_e=1\nw_l=1\nalpha=1\n"
                                b"A=nan\nB=0.5 0.5\n"),
    "model-nan-B": ("evaluate", b"variant=discrete\nN=1\nM=2\nd=2\nw=1\nw_e=1\nw_l=1\nalpha=1\n"
                                b"A=1\nB=nan nan\n"),
}


# a warning (numpy's log of a bad prior) would print a second line in the CLI
@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("cmd,data", BAD_MODEL_FILES.values(), ids=BAD_MODEL_FILES.keys())
def test_malformed_model_or_bundle_exits_1(tmp_path, capsys, cmd, data):
    io.write_lattice(tmp_path / "o.lat", SymbolLattice.discrete(np.eye(4, dtype=int), M=2))
    io.write_model(tmp_path / "m.lvlm",
                   DiscreteModel(N=1, M=2, d=2, A=np.ones((1, 1)), B=np.array([[0.5, 0.5]])))
    (tmp_path / "bad").write_bytes(data)
    flag = {"evaluate": "--model", "classify": "--bundle"}[cmd]
    code, _, err = run(capsys, cmd, flag, str(tmp_path / "bad"), "--in", str(tmp_path / "o.lat"))
    assert code == 1
    assert err.startswith("lvlm: error:") and len(err.strip().splitlines()) == 1


@pytest.mark.parametrize("flags", [("--potentials", "nan,1;1,1"), ("--n", "2", "--self-weight", "nan"),
                                   ("--n", "2", "--b", "nan,0.5;0.5,0.5")])
def test_synth_non_finite_parameters_exit_1(tmp_path, capsys, flags):
    code, _, err = run(capsys, "synth", "--shape", "8x8", *flags, "--out", str(tmp_path / "y.lat"),
                       "--states-out", str(tmp_path / "q.lat"))
    assert code == 1
    assert err.startswith("lvlm: error:") and len(err.strip().splitlines()) == 1


# matrix and shape flags take lvlm's one ASCII number syntax: each of these
# was read by float() or int() (as 9, 0.5, 10, 1 and 16)
SYNTH_NON_ASCII_NUMBERS = {
    "potentials-underscore": "--shape 8x8 --potentials 0_9,0.1;0.1,0.9",
    "b-arabic-indic-digit": "--shape 8x8 --n 2 --b \u0660.5,0.5;0.5,0.5 --out {dir}/y.lat",
    "mu-underscore": "--shape 8x8 --n 2 --mu 0,0;1_0,1 --out {dir}/y.lat",
    "sigma-arabic-indic-digit": "--shape 8x8 --n 1 --mu 0 --sigma \u0661 --out {dir}/y.lat",
    "shape-underscore": "--shape 1_6 --n 2",
}


@pytest.mark.parametrize("flags", SYNTH_NON_ASCII_NUMBERS.values(), ids=SYNTH_NON_ASCII_NUMBERS.keys())
def test_synth_matrix_flags_take_only_ascii_numbers(tmp_path, capsys, flags):
    code, out, err = run(capsys, "synth", *flags.format(dir=tmp_path).split(), "--states-out", str(tmp_path / "q.lat"))
    assert code == 1 and out == ""
    assert err.startswith("lvlm: error:") and len(err.strip().splitlines()) == 1
    assert list(tmp_path.iterdir()) == []


# scalar flags take the same syntax: argparse's int() and float() read these
# as 2, 10, 0.25, 10 and 0.9
SCALAR_FLAGS_OUTSIDE_SYNTAX = {
    "quantize-n-arabic-indic-digit": "quantize --in {dir}/d.lat --out {dir}/c.txt --n \u0662",
    "index-w-underscore": "index --states {dir}/d.lat --w 1_0",
    "learn-alpha-underscore": "learn --variant discrete --n 2 --w 1 --alpha 0.2_5 --in {dir}/d.lat --out {dir}/m.lvlm",
    "synth-seed-underscore": "synth --shape 4x4 --n 2 --seed 1_0 --states-out {dir}/q.lat",
    "synth-self-weight-arabic-indic-digit": "synth --shape 4x4 --n 2 --self-weight \u0660.9 --states-out {dir}/q.lat",
}


@pytest.mark.parametrize("argv", SCALAR_FLAGS_OUTSIDE_SYNTAX.values(), ids=SCALAR_FLAGS_OUTSIDE_SYNTAX.keys())
def test_scalar_flags_take_only_ascii_numbers(tmp_path, capsys, argv):
    io.write_lattice(tmp_path / "d.lat", SymbolLattice.discrete(np.eye(4, dtype=int), M=2))
    code, out, err = run(capsys, *argv.format(dir=tmp_path).split())
    assert code == 1 and out == ""
    assert err.startswith("lvlm: error:") and len(err.strip().splitlines()) == 1
    assert [p.name for p in tmp_path.iterdir()] == ["d.lat"]


MATRIX_FORMS = ["1.", ".5", "1e-3", "-0", "+2", "-.5E+2", "007", " 3.25 ", "1e308", "4.9e-324", "-0.0e0"]


@settings(max_examples=300, deadline=None)
@given(data=st.data(), rows=st.integers(1, 3), cols=st.integers(1, 4))
def test_matrix_flags_parse_like_float(data, rows, cols):
    # ASCII decimal text: the repr of any finite double, and forms repr never writes
    entry = st.one_of(st.floats(allow_nan=False, allow_infinity=False).map(repr), st.sampled_from(MATRIX_FORMS))
    entries = data.draw(st.lists(st.lists(entry, min_size=cols, max_size=cols), min_size=rows, max_size=rows))
    got = cli._parse_matrix(";".join(",".join(row) for row in entries), "x")
    want = np.array([[float(x) for x in row] for row in entries])
    assert got.shape == want.shape and got.tobytes() == want.tobytes()  # bit-equal, -0.0 included


SYNTH_BAD_ARGS = {
    "n-zero": ("--n", "0"),
    "n-negative": ("--n", "-3"),
    "seed-negative": ("--n", "2", "--seed", "-1"),
    "sigma-wrong-size": ("--n", "2", "--mu", "0;1", "--sigma", "1,0,0"),
    "sigma-scale-negative": ("--n", "2", "--mu", "0;1", "--sigma-scale", "-1"),
    "sigma-asymmetric": ("--n", "1", "--mu", "0,0", "--sigma", "1,5,0,1"),
}


@pytest.mark.parametrize("flags", SYNTH_BAD_ARGS.values(), ids=SYNTH_BAD_ARGS.keys())
def test_synth_bad_arguments_exit_1(tmp_path, capsys, flags):
    code, _, err = run(capsys, "synth", "--shape", "8x8", *flags, "--out", str(tmp_path / "y.lat"),
                       "--states-out", str(tmp_path / "q.lat"))
    assert code == 1
    assert err.startswith("lvlm: error:") and len(err.strip().splitlines()) == 1


SYNTH_CONFLICTS = {
    "out-is-states-out": "--n 2 --b 0.8,0.2;0.2,0.8 --out {dir}/y.lat --states-out {dir}/y.lat",
    "out-without-emission": "--n 2 --out {dir}/y.lat --states-out {dir}/q.lat",
    "n-against-potentials": "--n 3 --potentials 1,0;0,1 --states-out {dir}/q.lat",
    "b-and-mu": "--n 2 --b 0.8,0.2;0.2,0.8 --mu 0;1 --out {dir}/y.lat --states-out {dir}/q.lat",
    "sigma-without-mu": "--n 2 --b 0.8,0.2;0.2,0.8 --sigma 1;1 --out {dir}/y.lat --states-out {dir}/q.lat",
    "self-weight-and-potentials": "--potentials 1,1;1,1 --self-weight 7 --states-out {dir}/q.lat",
    "sigma-scale-without-mu": "--n 2 --b 0.8,0.2;0.2,0.8 --sigma-scale 5 --out {dir}/y.lat",
    "sigma-scale-and-sigma": "--n 2 --mu 0;1 --sigma 1;1 --sigma-scale 5 --out {dir}/y.lat",
    "b-past-256-symbols": "--n 2 --b " + ";".join(",".join("1" if j == 299 - i else "0" for j in range(300))
                                                  for i in range(2))
                          + " --out {dir}/y.lat --states-out {dir}/q.lat",
}


@pytest.mark.parametrize("flags", SYNTH_CONFLICTS.values(), ids=SYNTH_CONFLICTS.keys())
def test_synth_conflicting_outputs_or_flags_exit_1(tmp_path, capsys, flags):
    code, out, err = run(capsys, "synth", "--shape", "8x8", *flags.format(dir=tmp_path).split())
    assert code == 1 and out == ""
    assert err.startswith("lvlm: error:") and len(err.strip().splitlines()) == 1
    assert list(tmp_path.iterdir()) == []


# decode and synth runs with two outputs, one of them in a missing directory
# or naming a directory: each must exit 1 naming that output, and write neither
MISSING_OUTPUT_DIRS = {
    "decode-pgm": ("decode --model {inp}/m.lvlm --in {inp}/o.lat --out {dir}/q.lat --pgm {dir}/nodir/q.pgm",
                   "nodir/q.pgm"),
    "decode-out": ("decode --model {inp}/m.lvlm --in {inp}/o.lat --out {dir}/nodir/q.lat --pgm {dir}/q.pgm",
                   "nodir/q.lat"),
    "decode-pgm-is-directory": ("decode --model {inp}/m.lvlm --in {inp}/o.lat --out {dir}/q.lat --pgm {inp}",
                                "{inp}"),
    "synth-observations": ("synth --shape 8x8 --n 2 --b 0.8,0.2;0.2,0.8 --states-out {dir}/q.lat --out {dir}/nodir/o.lat",
                           "nodir/o.lat"),
    "synth-states": ("synth --shape 8x8 --n 2 --b 0.8,0.2;0.2,0.8 --states-out {dir}/nodir/q.lat --out {dir}/o.lat",
                     "nodir/q.lat"),
}


@pytest.mark.parametrize("argv,named", MISSING_OUTPUT_DIRS.values(), ids=MISSING_OUTPUT_DIRS.keys())
def test_output_in_missing_directory_writes_nothing(tmp_path, capsys, argv, named):
    inp, out_dir = tmp_path / "in", tmp_path / "out"
    inp.mkdir()
    out_dir.mkdir()
    io.write_model(inp / "m.lvlm", DiscreteModel(N=2, M=2, d=2, A=np.full((2, 2), 0.5),
                                                 B=np.array([[0.8, 0.2], [0.2, 0.8]])))
    io.write_lattice(inp / "o.lat", SymbolLattice.discrete(np.indices((6, 6)).sum(axis=0) % 2, M=2))
    code, out, err = run(capsys, *argv.format(inp=inp, dir=out_dir).split())
    assert code == 1 and out == ""
    assert err.startswith("lvlm: error:") and len(err.strip().splitlines()) == 1
    assert f"{named.format(inp=inp)}'" in err and "/." not in err  # the path asked for, not a temp file
    assert list(out_dir.iterdir()) == [] and sorted(p.name for p in inp.iterdir()) == ["m.lvlm", "o.lat"]


# Per subcommand: the argv (with {files} for the input directory) and each
# numeric flag's valid value. Decode, evaluate and classify take no numeric flag.
FUZZ_COMMANDS = {
    "synth": ("synth --shape 8x8 --b 0.8,0.2;0.2,0.8 --out {files}/o.lat --states-out {files}/q.lat",
              {"--n": "2", "--self-weight": "0.9", "--sweeps": "2", "--seed": "1"}),
    "synth-real": ("synth --shape 4x4x4 --n 2 --mu 0,0;1,1 --out {files}/o.lat",
                   {"--sigma-scale": "0.5", "--sweeps": "2", "--seed": "1"}),
    "learn": ("learn --variant discrete --in {files}/d.lat --out {files}/m.lvlm",
              {"--n": "2", "--w": "1", "--we": "1", "--wl": "1", "--alpha": "0.5", "--m": "3"}),
    "learn-real": ("learn --variant real --in {files}/r.lat --out {files}/m.lvlm",
                   {"--n": "2", "--w": "1", "--we": "1", "--wl": "1", "--alpha": "0.5"}),
    "index": ("index --model {files}/a.lvlm --states {files}/d.lat", {"--w": "1"}),
    "quantize": ("quantize --in {files}/d.lat --out {files}/c.txt", {"--n": "2", "--m": "3"}),
}
FUZZ_VALUES = ["-3", "0", "1" + "0" * 30, "nan", "inf", "x"]


@st.composite
def fuzzed_argv(draw):
    """A subcommand with each of its numeric flags left out, valid, or drawn from FUZZ_VALUES."""
    name = draw(st.sampled_from(sorted(FUZZ_COMMANDS)))
    argv, flags = FUZZ_COMMANDS[name]
    argv = argv.split()
    for flag, valid in flags.items():
        value = draw(st.sampled_from([None, valid] + FUZZ_VALUES))
        if value is not None:
            argv += [flag, value]
    return argv


@pytest.fixture(scope="module")
def fuzz_files(tmp_path_factory):
    files = tmp_path_factory.mktemp("fuzz")
    rng = np.random.default_rng(0)
    io.write_lattice(files / "d.lat", SymbolLattice.discrete(rng.integers(0, 3, size=(8, 8)), M=3))
    io.write_lattice(files / "r.lat", SymbolLattice.real(rng.normal(size=(8, 8, 2))))
    (files / "a.lvlm").write_text("variant=discrete\nN=2\nM=2\nd=2\nw=1\nw_e=1\nw_l=1\nalpha=1\n"
                                  "A=0.9 0.1 0.1 0.9\nB=0.8 0.2 0.2 0.8\n")
    return files


@pytest.mark.filterwarnings("error::RuntimeWarning")
@settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(argv=fuzzed_argv())
def test_numeric_flags_exit_cleanly(fuzz_files, monkeypatch, capsys, argv):
    # every lattice here has at most 64 nodes; a huge --sweeps is valid but
    # would run for ever, so the sampler runs at most 2 of the sweeps asked for
    sample = cli.gibbs_sample
    with monkeypatch.context() as m:
        m.setattr(cli, "gibbs_sample", lambda config: sample(dataclasses.replace(config, sweeps=min(config.sweeps, 2))))
        code, _, err = run(capsys, *(a.format(files=fuzz_files) for a in argv))
    assert code in (0, 1, 2)
    assert "Traceback" not in err


@pytest.mark.parametrize("flag", ["-h", "--help"])
def test_help_request_exits_0_printing_usage_writing_nothing(tmp_path, monkeypatch, capsys, flag):
    monkeypatch.chdir(tmp_path)
    code, out, err = run(capsys, "synth", flag)
    assert code == 0 and out.startswith("usage: ") and "--shape" in out and err == ""
    assert list(tmp_path.iterdir()) == []


# long options are taken only whole: a prefix of one is an unknown option
ABBREVIATED_ARGVS = {
    "help": "synth --h",
    "shape": "synth --shap 6x6 --n 2 --states-out q.lat",
    "self-weight": "synth --shape 6x6 --n 2 --self 0.9 --states-out q.lat",
    "variant": "learn --var discrete --n 2 --in o.lat --out m.lvlm",
}


@pytest.mark.parametrize("argv", ABBREVIATED_ARGVS.values(), ids=ABBREVIATED_ARGVS.keys())
def test_abbreviated_long_option_exits_1_writing_nothing(tmp_path, monkeypatch, capsys, argv):
    monkeypatch.chdir(tmp_path)
    code, out, err = run(capsys, *argv.split())
    assert code == 1 and out == ""
    assert err.startswith("lvlm: error:") and len(err.splitlines()) == 1
    assert list(tmp_path.iterdir()) == []


# per subcommand with a required option, that option mistyped (argv, the
# mistyped token): the unknown option is reported, not the required one it
# leaves missing
MISTYPED_REQUIRED_ARGVS = {
    "synth": ("synth --shap 6x6 --n 2 --states-out q.lat", "--shap"),
    "learn": ("learn --variant discrete --n 2 --in o.lat --outt m.lvlm", "--outt"),
    "decode": ("decode --modle m.lvlm --in o.lat --out q.lat", "--modle"),
    "evaluate": ("evaluate --model m.lvlm --inn=o.lat", "--inn=o.lat"),
    "classify": ("classify --in o.lat --softmax --bundel b.txt", "--bundel"),
    "quantize": ("quantize --in o.lat --nn 2 --out c.lvlm", "--nn"),
}


@pytest.mark.parametrize("argv, mistyped", MISTYPED_REQUIRED_ARGVS.values(), ids=MISTYPED_REQUIRED_ARGVS.keys())
def test_mistyped_required_option_is_named(tmp_path, monkeypatch, capsys, argv, mistyped):
    monkeypatch.chdir(tmp_path)
    command = argv.split()[0]
    code, out, err = run(capsys, *argv.split())
    assert code == 1 and out == "" and list(tmp_path.iterdir()) == []
    assert err == f"lvlm: error: lvlm {command}: unrecognized arguments: {mistyped}\n"


@pytest.mark.parametrize("n", ["1", "3"])
@pytest.mark.parametrize("weight", ["nan", "-7", "1.5", "inf", "-0.0001", "1.0000001"])
def test_synth_self_weight_outside_unit_interval_exits_1(tmp_path, capsys, n, weight):
    code, out, err = run(capsys, "synth", "--shape", "4x4", "--n", n, "--self-weight", weight,
                         "--states-out", str(tmp_path / "q.lat"))
    assert code == 1 and out == ""
    assert err.startswith("lvlm: error:") and "--self-weight" in err and len(err.splitlines()) == 1
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("n", ["1", "3"])
@pytest.mark.parametrize("weight", ["0", "0.5", "1"])
def test_synth_self_weight_in_unit_interval_samples(tmp_path, capsys, n, weight):
    code, _, err = run(capsys, "synth", "--shape", "4x4", "--n", n, "--self-weight", weight,
                       "--sweeps", "2", "--states-out", str(tmp_path / "q.lat"))
    assert code == 0, err
    assert io.read_lattice(tmp_path / "q.lat").values.max() < int(n)


# Whole `lvlm synth` argvs for random byte edits; {o} and {q} stand for the
# two outputs, files in a fresh directory.
SYNTH_ARGVS = [
    "synth --shape 6x6 --n 2 --b 0.8,0.2;0.2,0.8 --sweeps 2 --seed 1 --out {o} --states-out {q}",
    "synth --shape 4x4x4 --n 3 --self-weight 0.9 --mu 0,0;3,0;0,3 --sweeps 2 --out {o} --states-out {q}",
    "synth --shape 8x8 --potentials 0.9,0.1;0.1,0.9 --b 0.7,0.3;0.3,0.7 --format pgm --out {o} --states-out {q}",
]
SYNTH_EDIT_BYTES = list(b"0123456789x-+;,.e=\0 ")  # and any other byte but '/'
SYNTH_FUZZ_NODES = 4096  # an edited --shape with more nodes is rejected by the test, not sampled


@st.composite
def edited_synth_argv(draw):
    """One of SYNTH_ARGVS, its arguments joined by NUL, with 1 to 4 random
    byte edits, split at NUL again. No edit inserts '/', so that an edited
    output path stays a file in the working directory."""
    data = bytearray(b"\0".join(arg.encode() for arg in draw(st.sampled_from(SYNTH_ARGVS)).split()))
    byte = st.sampled_from(SYNTH_EDIT_BYTES) | st.integers(0, 255).filter(lambda b: b != ord("/"))
    for _ in range(draw(st.integers(1, 4))):
        pos, edit, b = draw(st.integers(0, len(data))), draw(st.sampled_from(["replace", "insert", "delete"])), draw(byte)
        if edit == "insert" or pos == len(data):
            data.insert(pos, b)
        elif edit == "replace":
            data[pos] = b
        else:
            del data[pos]
    return [os.fsdecode(arg) for arg in bytes(data).split(b"\0")]


@pytest.mark.filterwarnings("error::RuntimeWarning")
@settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(argv=edited_synth_argv())
@example(argv="synth --h 6x6 --n 2 --b 0.8,0.2;0.2,0.8 --out {o} --states-out {q}".split())  # --h is no --help
def test_synth_argv_byte_edits_exit_cleanly_writing_all_outputs_or_none(tmp_path_factory, monkeypatch, capsys, argv):
    out_dir = tmp_path_factory.mktemp("synth")
    argv = [a.replace("{o}", str(out_dir / "o.lat")).replace("{q}", str(out_dir / "q.lat")) for a in argv]
    parse_shape, sample = cli._parse_shape, cli.gibbs_sample

    def small_shape(text):
        shape = parse_shape(text)
        if shape.node_count > SYNTH_FUZZ_NODES:
            raise InputError(f"fuzzed shape of {shape.node_count} nodes")
        return shape

    with monkeypatch.context() as m:
        m.chdir(out_dir)
        m.setattr(cli, "_parse_shape", small_shape)
        m.setattr(cli, "gibbs_sample", lambda config: sample(dataclasses.replace(config, sweeps=min(config.sweeps, 2))))
        code, out, err = run(capsys, *argv)
        written = sorted(out_dir.iterdir())
        if code == 0:
            try:
                args = cli.build_parser().parse_args(argv)
            except SystemExit:  # a help request (-h or --help): usage, no outputs
                capsys.readouterr()  # the usage printed again just now
                assert out.startswith("usage: ") and written == []
            else:
                asked = {Path(os.path.realpath(p)) for p in (args.out, args.states_out) if p}
                assert {p.resolve() for p in written} == asked  # every output, and nothing else
                for path in written:
                    io.read_lattice_auto(path)
    assert code in (0, 1, 2)
    if code != 0:
        assert out == "" and written == []
        assert err.startswith("lvlm: ") and len(err.splitlines()) == 1 and "Traceback" not in err


SHAPE_LIMIT = np.iinfo(np.intp).max // 8  # nodes of the largest addressable int64 array


@settings(max_examples=300, deadline=None)
@given(axes=st.lists(st.one_of(st.integers(-10, 10), st.integers(-10 ** 30, 10 ** 30),
                               st.sampled_from(["", "a", "1.5", "nan", "-", "1e3"])),
                     min_size=1, max_size=4))
def test_parse_shape_accepts_addressable_or_raises_input_error(axes):
    # parsing allocates nothing, so huge axes are safe to try
    text = "x".join(str(a) for a in axes)
    valid = all(isinstance(a, int) and a >= 1 for a in axes) and math.prod(axes) <= SHAPE_LIMIT
    if valid:
        assert cli._parse_shape(text).lengths == tuple(axes)
    else:
        with pytest.raises(InputError):
            cli._parse_shape(text)


def test_synth_unaddressable_shape_exits_1(capsys):
    code, _, err = run(capsys, "synth", "--shape", "10000000000x10000000000", "--n", "2")
    assert code == 1 and err.startswith("lvlm: error:") and "Traceback" not in err


def test_synth_wide_state_count_3d(tmp_path, capsys):
    # N = 256 on a 3-D lattice samples per neighbour instead of tabulating 256 x 257^6
    q_p = tmp_path / "q.lat"
    code, _, err = run(capsys, "synth", "--shape", "3x3x3", "--n", "256", "--sweeps", "1",
                       "--states-out", str(q_p))
    assert code == 0, err
    assert q_p.stat().st_size > 0


def test_out_of_memory_exits_1(monkeypatch, capsys):
    def exhausted(config):
        raise MemoryError
    monkeypatch.setattr(cli, "gibbs_sample", exhausted)
    code, out, err = run(capsys, "synth", "--shape", "4x4", "--n", "2")
    assert code == 1 and out == "" and err == "lvlm: error: out of memory\n"


# Flag combinations of the commands that read lattices: which flags are given,
# N and M that agree or conflict with the inputs, equal output paths, 2-D or
# 3-D inputs, and bundles whose models agree, mix w_e, M, d or variant, or
# whose last line is cut short. {in} is the input directory and {out} a
# fresh, empty one.
LATTICES = ["d2.lat", "d3.lat", "r2.lat", "r3.lat", "d2.pgm"]
MODELS = ["dn2d2.lvlm", "dn3d2.lvlm", "dn2d3.lvlm", "rn2d2.lvlm", "rn2d3.lvlm", "dn2d2we2.lvlm", "dm4n2d2.lvlm"]
BUNDLES = {  # name: the models of its classes
    "d2": ["dn2d2.lvlm", "dn3d2.lvlm"],
    "d3": ["dn2d3.lvlm"],
    "r2": ["rn2d2.lvlm", "rn2d2.lvlm"],
    "r3": ["rn2d3.lvlm", "rn2d3.lvlm"],
    "mixed-we": ["dn2d2.lvlm", "dn2d2we2.lvlm"],
    "mixed-m": ["dn2d2.lvlm", "dm4n2d2.lvlm"],
    "mixed-d": ["dn2d2.lvlm", "dn2d3.lvlm"],
    "mixed-variant": ["dn2d2.lvlm", "rn2d2.lvlm"],
}
REJECTED_BUNDLES = {"mixed-m", "mixed-d", "mixed-variant", "truncated"}
READERS = {"lattice": io.read_lattice, "pgm": io.read_pgm, "model": io.read_model, "codebook": io.read_codebook}


@pytest.fixture(scope="module")
def combo_files(tmp_path_factory):
    files = tmp_path_factory.mktemp("combo")
    rng = np.random.default_rng(0)
    for d in (2, 3):
        symbols = SymbolLattice.discrete(rng.integers(0, 3, size=(6,) * d), M=3)
        vectors = SymbolLattice.real(rng.normal(size=(6,) * d + (2,)))
        io.write_lattice(files / f"d{d}.lat", symbols)
        io.write_lattice(files / f"r{d}.lat", vectors)
        for n in (2, 3):
            io.write_model(files / f"dn{n}d{d}.lvlm", learn_discrete(symbols, 1, n))
        io.write_model(files / f"rn2d{d}.lvlm", learn_real(vectors, 1, 2))
        if d == 2:
            io.write_pgm(files / "d2.pgm", symbols)
            io.write_model(files / "dn2d2we2.lvlm", learn_discrete(symbols, 1, 2, w_e=2))
            io.write_model(files / "dm4n2d2.lvlm",
                           learn_discrete(SymbolLattice.discrete(rng.integers(0, 4, size=(6, 6)), M=4), 1, 2))
    for name, models in BUNDLES.items():
        io.write_bundle(files / f"{name}.bundle", [(f"c{i}", 1 / len(models), m) for i, m in enumerate(models)])
    manifest = (files / "d2.bundle").read_bytes()
    (files / "truncated.bundle").write_bytes(manifest[:manifest.rindex(b" ")])  # no model path on its last line
    return files


@st.composite
def flag_combination(draw):
    """(argv, [(output, kind)]) of one decode, learn, index, quantize, evaluate or classify run."""
    cmd = draw(st.sampled_from(["decode", "learn", "index", "quantize", "evaluate", "classify"]))
    variant, d = draw(st.sampled_from("dr")), draw(st.sampled_from("23"))
    # half the time an input of the drawn variant and dimension, else any
    lattice = st.sampled_from([f"{variant}{d}.lat"] + ["d2.pgm"] * (variant + d == "d2")) | st.sampled_from(LATTICES)
    lattice = lattice.map(lambda name: "{in}/" + name)
    model = st.sampled_from([f"{variant}n2d{d}.lvlm"]) | st.sampled_from(MODELS)
    model = model.map(lambda name: "{in}/" + name)
    count = st.sampled_from(["1", "2", "3", "40"])

    def optional(flag, values):
        value = draw(st.none() | values)
        return [] if value is None else [flag, value]

    outputs = []
    if cmd == "decode":
        argv = ["--model", draw(model), "--in", draw(lattice), "--out", "{out}/a"]
        outputs.append(("{out}/a", "lattice"))
        pgm = draw(st.sampled_from([None, "{out}/b", "{out}/a", "{out}/nodir/b"]))
        if pgm:
            argv += ["--pgm", pgm]
            outputs.append((pgm, "pgm"))
    elif cmd == "learn":
        inputs = draw(st.lists(lattice, min_size=1, max_size=2))
        argv = ["--variant", {"d": "discrete", "r": "real"}[variant], "--n", draw(count)]
        argv += sum((["--in", p] for p in inputs), [])
        argv += ["--w" if draw(st.booleans()) else "--wl", draw(st.sampled_from(["0", "1", "2"]))]
        for flag in ("--w", "--we", "--wl"):
            argv += optional(flag, st.sampled_from(["0", "1", "2"]))
        argv += optional("--m", st.sampled_from(["2", "3", "4"])) + ["--out", "{out}/a"]
        outputs.append(("{out}/a", "model"))
    elif cmd == "index":
        argv = optional("--model", model) + optional("--states", lattice)
        argv += optional("--w", st.sampled_from(["0", "1", "4"]))
        argv += ["--interior-only"] if draw(st.booleans()) else []
    elif cmd == "quantize":
        argv = ["--in", draw(lattice), "--n", draw(count)] + optional("--m", st.sampled_from(["2", "3", "4"]))
        argv += ["--out", "{out}/a"]
        outputs.append(("{out}/a", "codebook"))
    elif cmd == "evaluate":
        argv = ["--model", draw(model), "--in", draw(lattice)]
    else:
        bundle = st.sampled_from([variant + d]) | st.sampled_from(sorted(BUNDLES) + ["truncated"])
        argv = ["--bundle", "{in}/" + draw(bundle) + ".bundle", "--in", draw(lattice)]
        argv += ["--softmax"] if draw(st.booleans()) else []
    return [cmd] + argv, outputs


def _tree(path):
    return {p.name: p.read_bytes() for p in sorted(path.iterdir())}


@pytest.mark.filterwarnings("error::RuntimeWarning")
@settings(max_examples=250, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(case=flag_combination())
@example(case=(["decode", "--model", "{in}/dn2d2.lvlm", "--in", "{in}/d2.lat", "--out", "{out}/a",
                "--pgm", "{out}/a"], [("{out}/a", "lattice"), ("{out}/a", "pgm")]))
@example(case=(["decode", "--model", "{in}/dn2d3.lvlm", "--in", "{in}/d3.lat", "--out", "{out}/a",
                "--pgm", "{out}/b"], [("{out}/a", "lattice"), ("{out}/b", "pgm")]))
@example(case=(["classify", "--bundle", "{in}/mixed-we.bundle", "--in", "{in}/d2.lat"], []))
@example(case=(["classify", "--bundle", "{in}/truncated.bundle", "--in", "{in}/d2.lat"], []))
def test_flag_combinations_write_all_outputs_or_none(combo_files, tmp_path_factory, capsys, case):
    argv, outputs = case
    out_dir = tmp_path_factory.mktemp("out")
    inputs = _tree(combo_files)
    code, out, err = run(capsys, *(a.format(**{"in": combo_files, "out": out_dir}) for a in argv))
    assert _tree(combo_files) == inputs
    if code == 0:
        for path, kind in outputs:
            READERS[kind](path.format(out=out_dir))
        if argv[0] == "evaluate":
            assert out.startswith("logp=") and len(out.splitlines()) == 1
        if argv[0] == "classify":
            assert out.startswith("label=") and Path(argv[2]).stem not in REJECTED_BUNDLES
    else:
        assert code in (1, 2) and err.startswith("lvlm: ") and len(err.splitlines()) == 1
        assert list(out_dir.iterdir()) == []


# per state count: a --potentials matrix, a --b, a --mu and its --sigma
SYNTH_PARAMETERS = {
    1: ("1", "0.3,0.7", "1,2", "1,0,0,1"),
    2: ("0.9,0.1;0.1,0.9", "0.8,0.2;0.2,0.8", "0,0;3,0", "1,0,0,1;2,0,0,2"),
    3: ("0.5,0.3,0.2;0.2,0.5,0.3;0.3,0.2,0.5", "0.5,0.5,0;0,0.5,0.5;0.5,0,0.5", "0;1;2", "1;1;1"),
}
# flags that conflict with, or are out of range for, most of the rest
SYNTH_ODD_FLAGS = [["--shape", "0x3"], ["--shape", "2x"], ["--n", "0"], ["--n", "3"], ["--self-weight", "nan"],
                   ["--self-weight", "-0.5"], ["--potentials", "0,0;1,1"], ["--potentials", "1,0;0,1"],
                   ["--b", "0.7,0.4;0.2,0.8"], ["--b", "1,0"], ["--mu", "0,0;3,0"], ["--sigma", "1,2,3,4;1,0,0,1"],
                   ["--sigma-scale", "0"], ["--sigma-scale", "-1"], ["--sweeps", "0"], ["--seed", "-1"]]


@st.composite
def synth_flag_combination(draw):
    """(argv, outputs) of one synth run: flags that agree on a state count,
    half the time with one flag that conflicts with them or is out of range,
    and the outputs it asks for, some of them the same path or in no
    directory."""
    n = draw(st.sampled_from(sorted(SYNTH_PARAMETERS)))
    potentials, b, mu, sigma = SYNTH_PARAMETERS[n]
    argv = ["synth", "--shape", draw(st.sampled_from(["5", "4x6", "3x3x3", "1x4"]))]
    states = draw(st.sampled_from([["--n", str(n)], ["--potentials", potentials],
                                   ["--n", str(n), "--potentials", potentials]]))
    argv += states + (["--self-weight", "0.8"] if "--n" in states and draw(st.booleans()) else [])
    emission = draw(st.sampled_from([[], ["--b", b], ["--mu", mu], ["--mu", mu, "--sigma", sigma],
                                     ["--mu", mu, "--sigma-scale", "0.5"]]))
    argv += emission
    for flag, values in (("--sweeps", ["1", "2"]), ("--seed", ["0", "3"]), ("--format", ["lat", "pgm"])):
        value = draw(st.none() | st.sampled_from(values))
        argv += [] if value is None else [flag, value]
    if draw(st.booleans()):
        argv += draw(st.sampled_from(SYNTH_ODD_FLAGS))
    outputs = []
    for flag, paths in (("--out", ["{out}/o", "{out}/nodir/o"]),
                        ("--states-out", ["{out}/q", "{out}/o", "{out}/nodir/q"])):
        # observations are asked for mostly when there is an emission to draw them from
        given = draw(st.booleans()) if flag == "--states-out" or not emission else draw(st.integers(0, 4)) > 0
        if given:
            path = draw(st.sampled_from(paths[:1]) | st.sampled_from(paths))
            argv += [flag, path]
            outputs.append(path)
    return argv, outputs


@pytest.mark.filterwarnings("error::RuntimeWarning")
@settings(max_examples=200, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(case=synth_flag_combination())
@example(case=(["synth", "--shape", "4x6", "--n", "2", "--b", "0.8,0.2;0.2,0.8", "--out", "{out}/o",
                "--states-out", "{out}/q"], ["{out}/o", "{out}/q"]))
@example(case=(["synth", "--shape", "4x6", "--n", "2", "--b", "0.8,0.2;0.2,0.8", "--out", "{out}/o",
                "--states-out", "{out}/nodir/q"], ["{out}/o", "{out}/nodir/q"]))
def test_synth_flag_combinations_write_all_outputs_or_none(tmp_path_factory, capsys, case):
    argv, outputs = case
    out_dir = tmp_path_factory.mktemp("synth")
    code, out, err = run(capsys, *(a.format(out=out_dir) for a in argv))
    written = sorted(p for p in out_dir.rglob("*") if p.is_file())
    assert code in (0, 1, 2)
    if code == 0:
        assert written == sorted({Path(p.format(out=out_dir)) for p in outputs})  # every output, and nothing else
        for path in written:
            io.read_lattice_auto(path)
        assert len(out.splitlines()) == len(outputs) and not err
    else:
        assert out == "" and written == []
        assert err.startswith("lvlm: ") and len(err.splitlines()) == 1 and "Traceback" not in err


def test_parser_built_once_and_reused(combo_files, tmp_path, capsys):
    assert cli.build_parser() is cli.build_parser()
    runs = [  # one parser serves them all, a rejected flag between the others
        ["index", "--model", f"{combo_files}/dn2d2.lvlm", "--states", f"{combo_files}/d2.lat", "--w", "1"],
        ["decode", "--bogus"],
        ["decode", "--model", f"{combo_files}/dn2d2.lvlm", "--in", f"{combo_files}/d2.lat",
         "--out", str(tmp_path / "q.lat")],
    ]
    results = [run(capsys, *argv) for argv in runs]
    states = (tmp_path / "q.lat").read_bytes()
    code, out, err = results[1]
    assert code == 1 and out == "" and err.startswith("lvlm: ") and len(err.splitlines()) == 1
    env = dict(os.environ, PYTHONPATH=str(Path(cli.__file__).parents[1]))
    for argv, result in zip(runs, results):  # each again in a process of its own
        fresh = subprocess.run([sys.executable, "-m", "lvlm.cli", *argv], env=env, capture_output=True, text=True)
        assert (fresh.returncode, fresh.stdout, fresh.stderr) == result
    assert (tmp_path / "q.lat").read_bytes() == states
