import numpy as np
import pytest

from lvlm import SymbolLattice, io
from lvlm.cli import main


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
    from lvlm.discrete import _assign_field
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


def test_directory_input_exits_1(tmp_path, capsys):
    obs_p, model_p = str(tmp_path / "o.lat"), str(tmp_path / "m.lvlm")
    run(capsys, "synth", "--shape", "8x8", "--n", "2", "--b", "0.8,0.2;0.2,0.8",
        "--seed", "1", "--out", obs_p)
    run(capsys, "learn", "--variant", "discrete", "--n", "2", "--w", "1", "--in", obs_p, "--out", model_p)
    for argv in (("decode", "--model", model_p, "--in", str(tmp_path), "--out", str(tmp_path / "q.lat")),
                 ("evaluate", "--model", str(tmp_path), "--in", obs_p)):
        code, _, err = run(capsys, *argv)
        assert code == 1 and len(err.strip().splitlines()) == 1
