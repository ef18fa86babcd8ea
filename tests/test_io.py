import numpy as np
import pytest

from lvlm import DiscreteModel, InputError, RealModel, StateLattice, SymbolLattice
from lvlm import io
from lvlm.vq import Codebook


def test_lattice_u8_round_trip(tmp_path):
    vals = np.random.default_rng(0).integers(0, 5, (4, 6))
    lat = SymbolLattice.discrete(vals, M=5)
    p = tmp_path / "a.lat"
    io.write_lattice(p, lat)
    back = io.read_lattice(p, M=5)
    assert back.kind == "discrete" and back.M == 5
    assert np.array_equal(back.values, vals)
    assert p.read_text().splitlines()[0] == "LVLM-LATTICE 2 4 6 u8"


def test_lattice_f64_round_trip_bit_faithful(tmp_path):
    vals = np.random.default_rng(1).normal(size=(3, 2, 4))
    lat = SymbolLattice.real(vals)
    p = tmp_path / "b.lat"
    io.write_lattice(p, lat)
    back = io.read_lattice(p)
    assert back.kind == "real" and back.M == 4
    assert np.array_equal(back.values, vals)


def test_lattice_1d_and_3d(tmp_path):
    for shape in [(7,), (2, 3, 4)]:
        vals = np.random.default_rng(2).integers(0, 3, shape)
        p = tmp_path / "c.lat"
        io.write_lattice(p, SymbolLattice.discrete(vals, M=3))
        assert np.array_equal(io.read_lattice(p).values, vals)


def test_state_lattice_written_as_u8(tmp_path):
    st = StateLattice.from_array(np.array([[0, 1], [1, 0]]), N=2)
    p = tmp_path / "q.lat"
    io.write_lattice(p, st)
    assert np.array_equal(io.read_lattice(p).values, st.states)


def test_read_lattice_rejects_garbage(tmp_path):
    p = tmp_path / "bad.lat"
    p.write_text("NOT-A-LATTICE 1 2\n")
    with pytest.raises(InputError):
        io.read_lattice(p)
    p.write_text("LVLM-LATTICE 2 2 2 u8\n0 1 0\n")
    with pytest.raises(InputError):
        io.read_lattice(p)


@pytest.mark.parametrize("values", ["0 300 1", "0 256 1", "0 -1 1"])
def test_read_lattice_rejects_values_outside_u8(tmp_path, values):
    p = tmp_path / "big.lat"
    p.write_text(f"LVLM-LATTICE 1 3 u8\n{values}\n")
    with pytest.raises(InputError):
        io.read_lattice(p)
    with pytest.raises(InputError):
        io.read_lattice(p, M=400)


@pytest.mark.parametrize("binary", [True, False])
def test_pgm_round_trip(tmp_path, binary):
    vals = np.random.default_rng(3).integers(0, 256, (5, 7))
    lat = SymbolLattice.discrete(vals, M=256)
    p = tmp_path / "img.pgm"
    io.write_pgm(p, lat, binary=binary)
    back = io.read_pgm(p)
    assert back.M == 256
    assert np.array_equal(back.values, vals)


def test_pgm_comment_handling(tmp_path):
    p = tmp_path / "c.pgm"
    p.write_bytes(b"P2\n# a comment\n2 2\n255\n0 10\n20 30\n")
    back = io.read_pgm(p)
    assert np.array_equal(back.values, [[0, 10], [20, 30]])


def test_read_lattice_auto_dispatch(tmp_path):
    vals = np.arange(6).reshape(2, 3) % 2
    io.write_pgm(tmp_path / "x.pgm", SymbolLattice.discrete(vals, M=2), maxval=1)
    io.write_lattice(tmp_path / "x.lat", SymbolLattice.discrete(vals, M=2))
    assert np.array_equal(io.read_lattice_auto(tmp_path / "x.pgm").values, vals)
    assert np.array_equal(io.read_lattice_auto(tmp_path / "x.lat").values, vals)


def test_states_to_pgm_gray_levels(tmp_path):
    st = StateLattice.from_array(np.array([[0, 1], [2, 3]]), N=4)
    p = tmp_path / "viz.pgm"
    io.states_to_pgm(p, st)
    back = io.read_pgm(p)
    assert np.array_equal(back.values, [[0, 85], [170, 255]])


def test_discrete_model_round_trip_bit_faithful(tmp_path):
    rng = np.random.default_rng(4)
    B = rng.random((3, 4))
    B /= B.sum(axis=1, keepdims=True)
    m = DiscreteModel(N=3, M=4, d=2, A=rng.random((3, 3)), B=B, w=2, w_e=1, w_l=3, alpha=0.75)
    p = tmp_path / "m.lvlm"
    io.write_model(p, m)
    back = io.read_model(p)
    assert isinstance(back, DiscreteModel)
    assert np.array_equal(back.A, m.A) and np.array_equal(back.B, m.B)
    assert (back.N, back.M, back.d, back.w, back.w_e, back.w_l, back.alpha) == (3, 4, 2, 2, 1, 3, 0.75)


def test_real_model_round_trip_bit_faithful(tmp_path):
    rng = np.random.default_rng(5)
    mu = rng.normal(size=(2, 3))
    s = rng.normal(size=(2, 3, 3))
    sigma = s @ s.transpose(0, 2, 1) + np.eye(3)
    m = RealModel(N=2, M=3, d=2, A=rng.random((2, 2)), mu=mu, sigma=sigma)
    p = tmp_path / "r.lvlm"
    io.write_model(p, m)
    back = io.read_model(p)
    assert isinstance(back, RealModel)
    assert np.array_equal(back.mu, mu) and np.array_equal(back.sigma, sigma)


def test_codebook_round_trip(tmp_path):
    cb = Codebook(np.random.default_rng(6).random((3, 2)), np.array([4.0, 1.0, 2.0]))
    p = tmp_path / "cb.lvlm"
    io.write_codebook(p, cb)
    back = io.read_codebook(p)
    assert np.array_equal(back.centroids, cb.centroids)
    assert np.array_equal(back.sizes, cb.sizes)


def test_bundle_round_trip(tmp_path):
    rng = np.random.default_rng(7)
    for name, p0 in [("a", 0.25), ("b", 0.75)]:
        B = rng.random((2, 2))
        B /= B.sum(axis=1, keepdims=True)
        io.write_model(tmp_path / f"{name}.lvlm", DiscreteModel(N=2, M=2, d=2, A=np.eye(2), B=B))
    io.write_bundle(tmp_path / "bundle.txt", [("a", 0.25, "a.lvlm"), ("b", 0.75, "b.lvlm")])
    bundle = io.read_bundle(tmp_path / "bundle.txt")
    assert [c.label for c in bundle.classes] == ["a", "b"]
    assert bundle.classes[0].log_prior == pytest.approx(np.log(0.25))


def test_atomic_write_no_partial_file(tmp_path):
    p = tmp_path / "out.txt"
    io.write_atomic(p, b"hello")
    assert p.read_bytes() == b"hello"
    assert list(tmp_path.iterdir()) == [p]
