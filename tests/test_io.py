import math
import re
import tracemalloc

import hypothesis.extra.numpy as hnp
import hypothesis.strategies as st
import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings

from lvlm import DiscreteModel, InputError, RealModel, StateLattice, SymbolLattice
from lvlm import io
from lvlm.vq import Codebook

from oracles import codebook_file_bytes, float_text, lattice_file_bytes, model_file_bytes, token_values


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


SPECIAL_FLOATS = [-0.0, 0.0, 5e-324, -2.5e-310, 2.2250738585072014e-308, 1e308, -1e308,
                  1.7976931348623157e308, 3.0, -12.0, 1e16, 2.0 ** 53 + 2, 0.1, -1.7976931348623157e308, 1e-5]


@pytest.mark.parametrize("lengths", [(7,), (3, 5), (2, 3, 4)])
@pytest.mark.parametrize("M", [1, 3])
def test_write_lattice_real_matches_per_value_format(tmp_path, lengths, M):
    rng = np.random.default_rng(len(lengths) * 10 + M)
    vals = rng.normal(size=lengths + (M,)) * 10.0 ** rng.integers(-300, 300, size=lengths + (M,))
    flat = vals.reshape(-1)
    flat[rng.choice(flat.size, min(flat.size, len(SPECIAL_FLOATS)), replace=False)] = \
        SPECIAL_FLOATS[:min(flat.size, len(SPECIAL_FLOATS))]
    p = tmp_path / "r.lat"
    io.write_lattice(p, SymbolLattice.real(vals))
    assert p.read_bytes() == lattice_file_bytes(vals, real=True)
    assert io.read_lattice(p).values.tobytes() == vals.tobytes()  # bit-exact, -0.0 included


@pytest.mark.parametrize("lengths", [(9,), (4, 6), (2, 3, 5)])
def test_write_lattice_u8_matches_per_value_format(tmp_path, lengths):
    vals = np.random.default_rng(len(lengths)).integers(0, 256, size=lengths)
    vals.reshape(-1)[:2] = [0, 255]
    p = tmp_path / "u.lat"
    io.write_lattice(p, SymbolLattice.discrete(vals, M=256))
    assert p.read_bytes() == lattice_file_bytes(vals, real=False)
    assert np.array_equal(io.read_lattice(p, M=256).values, vals)


@pytest.mark.parametrize("format_values", [1, 5])  # numbers per orjson call
@pytest.mark.parametrize("real", [True, False])
def test_write_lattice_in_small_pieces_matches_per_value_format(tmp_path, monkeypatch, real, format_values):
    monkeypatch.setattr(io, "_FORMAT_VALUES", format_values)
    rng = np.random.default_rng(format_values)
    if real:
        vals = rng.normal(size=(3, 4, 2)) * 10.0 ** rng.integers(-300, 300, size=(3, 4, 2))
        vals.reshape(-1)[:len(SPECIAL_FLOATS)] = SPECIAL_FLOATS
        lattice = SymbolLattice.real(vals)
    else:
        vals = rng.integers(0, 256, size=(3, 7))
        lattice = SymbolLattice.discrete(vals, M=256)
    p = tmp_path / "p.lat"
    io.write_lattice(p, lattice)
    assert p.read_bytes() == lattice_file_bytes(vals, real=real)


@st.composite
def lattices_in_pieces(draw):
    """(values, real, piece): a 1-d real lattice of M channels, or a 2-d u8
    lattice of rows of M symbols, M from 1 to 17, written in pieces of
    `piece` numbers (at least a row); unless a piece holds one row, the row
    count is not a multiple of the rows per piece."""
    real, m, piece = draw(st.booleans()), draw(st.integers(1, 17)), draw(st.integers(1, 64))
    step = max(1, piece // m)  # rows per piece
    rows = step * draw(st.integers(0, 2)) + draw(st.integers(1, max(1, step - 1)))
    if real:
        return draw(hnp.arrays(np.float64, (rows, m), elements=finite_floats())), True, piece
    return draw(hnp.arrays(np.int64, (rows, m), elements=st.integers(0, 255))), False, piece


@settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(case=lattices_in_pieces())
def test_write_lattice_in_pieces_matches_oracle_bytes(tmp_path, monkeypatch, case):
    vals, real, piece = case
    p = tmp_path / "p.lat"
    with monkeypatch.context() as m:
        m.setattr(io, "_FORMAT_VALUES", piece)
        io.write_lattice(p, SymbolLattice.real(vals) if real else SymbolLattice.discrete(vals, M=256))
    assert p.read_bytes() == lattice_file_bytes(vals, real=real)


@pytest.mark.parametrize("piece", [1, 3, io._FORMAT_VALUES])
def test_one_row_fields_empty_codebook_and_bundle_priors_match_oracle_bytes(tmp_path, monkeypatch, piece):
    monkeypatch.setattr(io, "_FORMAT_VALUES", piece)
    model = RealModel(N=1, M=1, d=1, A=np.ones((1, 1)), mu=np.array([[-0.0]]), sigma=np.array([[[5e-324]]]),
                      alpha=5e-324)
    io.write_model(tmp_path / "m.lvlm", model)  # every field one row, of one number
    assert (tmp_path / "m.lvlm").read_bytes() == model_file_bytes(model)
    empty = Codebook(np.empty((0, 2)), np.empty(0))
    io.write_codebook(tmp_path / "c.lvlm", empty)  # two empty rows
    assert (tmp_path / "c.lvlm").read_bytes() == codebook_file_bytes(empty) == \
        b"variant=codebook\nN=0\nM=2\ncentroids=\nsizes=\n"
    priors = [0.25, 5e-324, 1e16, 1.7976931348623157e308, 3.0]
    io.write_bundle(tmp_path / "b.txt", [(f"c{i}", prior, "m.lvlm") for i, prior in enumerate(priors)])
    assert (tmp_path / "b.txt").read_bytes() == ("LVLM-BUNDLE\n" + "".join(
        f"c{i} {float_text(prior)} m.lvlm\n" for i, prior in enumerate(priors))).encode()


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
    if binary:
        io.write_pgm(p, lat)
    else:  # P2 is read, never written
        p.write_text("P2\n7 5\n255\n" + "".join(" ".join(map(str, row)) + "\n" for row in vals))
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
    io.write_pgm(tmp_path / "x.pgm", SymbolLattice.discrete(vals, M=2))
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


def finite_floats(lo=None, hi=None):
    """Finite doubles (subnormals, +-0 and extremes included), with the
    special values of the lattice writer's test drawn more often."""
    specials = [x for x in SPECIAL_FLOATS if (lo is None or x >= lo) and (hi is None or x <= hi)]
    return st.one_of(st.sampled_from(specials), st.floats(lo, hi, allow_nan=False, allow_infinity=False))


@st.composite
def models(draw):
    N, M = draw(st.integers(1, 3)), draw(st.integers(1, 3))
    ints = {k: draw(st.integers(lo, 2 ** 62)) for k, lo in [("d", 1), ("w", 0), ("w_e", 0), ("w_l", 0)]}
    A = draw(hnp.arrays(np.float64, (N, N), elements=finite_floats(lo=0.0)))
    alpha = draw(finite_floats(lo=5e-324, hi=1.0))
    if draw(st.booleans()):
        B = draw(hnp.arrays(np.float64, (N, M), elements=st.floats(1e-3, 1e3)))
        return DiscreteModel(N=N, M=M, A=A, B=B / B.sum(axis=1, keepdims=True), alpha=alpha, **ints)
    s = draw(hnp.arrays(np.float64, (N, M, M), elements=finite_floats()))
    sigma = np.triu(s) + np.triu(s, 1).transpose(0, 2, 1)  # symmetric without rounding
    mu = draw(hnp.arrays(np.float64, (N, M), elements=finite_floats()))
    return RealModel(N=N, M=M, A=A, mu=mu, sigma=sigma, alpha=alpha, **ints)


@settings(max_examples=200, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(model=models())
def test_write_model_matches_per_value_format(tmp_path, model):
    p = tmp_path / "m.lvlm"
    io.write_model(p, model)
    assert p.read_bytes() == model_file_bytes(model)
    back = io.read_model(p)
    arrays = ("A", "B") if model.kind == "discrete" else ("A", "mu", "sigma")
    assert all(getattr(back, k).tobytes() == getattr(model, k).tobytes() for k in arrays)  # -0.0 included
    assert [getattr(back, k) for k in ("N", "M", "d", "w", "w_e", "w_l", "alpha")] == \
        [getattr(model, k) for k in ("N", "M", "d", "w", "w_e", "w_l", "alpha")]


@settings(max_examples=200, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=st.data(), N=st.integers(0, 4), M=st.integers(1, 3))
def test_write_codebook_matches_per_value_format(tmp_path, data, N, M):
    centroids = data.draw(hnp.arrays(np.float64, (N, M), elements=finite_floats()))
    sizes = data.draw(hnp.arrays(np.float64, N, elements=st.integers(1, 2 ** 53).map(float)))
    p = tmp_path / "cb.lvlm"
    io.write_codebook(p, Codebook(centroids, sizes))
    assert p.read_bytes() == codebook_file_bytes(Codebook(centroids, sizes))
    back = io.read_codebook(p)
    assert back.centroids.tobytes() == centroids.tobytes() and back.sizes.tobytes() == sizes.tobytes()


@pytest.mark.parametrize("fields", [b"centroids=nan 1\nsizes=1 3\n", b"centroids=0 1\nsizes=nan 3\n"])
def test_read_codebook_rejects_non_finite(tmp_path, fields):
    p = tmp_path / "cb.lvlm"
    p.write_bytes(b"variant=codebook\nN=2\nM=1\n" + fields)
    with pytest.raises(InputError):
        io.read_codebook(p)


def test_read_codebook_requires_codebook_variant(tmp_path):
    p = tmp_path / "f"
    p.write_text(VALID_CODEBOOK.replace("variant=codebook\n", ""))
    with pytest.raises(InputError, match="variant=codebook"):
        io.read_codebook(p)
    p.write_text(VALID_CODEBOOK.replace("variant=codebook", "variant=real"))
    with pytest.raises(InputError, match="variant=codebook"):
        io.read_codebook(p)
    p.write_bytes(VALID_MODELS[0])
    with pytest.raises(InputError):
        io.read_codebook(p)


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


@pytest.mark.parametrize("entry", [
    ("a", 0.5, " lead.lvlm"), ("a", 0.5, "trail.lvlm "), ("a", 0.5, "trail.lvlm\t"), ("a", 0.5, "a\nb.lvlm"),
    ("a", 0.5, "a\rb.lvlm"), ("a", 0.5, "a\0b.lvlm"), ("a", 0.5, ""), ("", 0.5, "a.lvlm"), ("a\0", 0.5, "a.lvlm"),
    ("a", float("nan"), "a.lvlm"), ("a", float("inf"), "a.lvlm"), ("a", 0.0, "a.lvlm"), ("a", -0.5, "a.lvlm"),
], ids=repr)
def test_write_bundle_rejects_what_read_bundle_would_not_read_back(tmp_path, entry):
    with pytest.raises(InputError):
        io.write_bundle(tmp_path / "bundle.txt", [("b", 0.5, "b.lvlm"), entry])
    assert list(tmp_path.iterdir()) == []


def test_write_bundle_keeps_inner_whitespace_of_a_model_path(tmp_path):
    io.write_model(tmp_path / "my model.lvlm", DiscreteModel(N=1, M=2, d=2, A=np.ones((1, 1)),
                                                             B=np.array([[0.5, 0.5]])))
    io.write_bundle(tmp_path / "bundle.txt", [("a", 1, "my model.lvlm")])
    assert (tmp_path / "bundle.txt").read_bytes() == b"LVLM-BUNDLE\na 1 my model.lvlm\n"
    assert io.read_bundle(tmp_path / "bundle.txt").classes[0].model.N == 1


def test_atomic_write_no_partial_file(tmp_path):
    p = tmp_path / "out.txt"
    io.write_atomic(p, b"hello")
    assert p.read_bytes() == b"hello"
    assert list(tmp_path.iterdir()) == [p]


MALFORMED = {
    "u8 value not an integer": b"LVLM-LATTICE 1 3 u8\n0 1.5 1\n",
    "u8 value overflows int64": b"LVLM-LATTICE 1 2 u8\n0 99999999999999999999999\n",
    "f64 value not a number": b"LVLM-LATTICE 1 2 f64x1\n1.0 abc\n",
    "f64 value nan": b"LVLM-LATTICE 1 2 f64x1\n1.0 nan\n",
    "f64 value overflows to inf": b"LVLM-LATTICE 1 2 f64x1\n1.0 -1e400\n",
    "f64 width not a number": b"LVLM-LATTICE 1 2 f64xa\n1.0 2.0\n",
    "f64 width zero": b"LVLM-LATTICE 1 2 f64x0\n",
    "negative dimension count": b"LVLM-LATTICE -2 1 2 3 u8 0\n",
    "negative length": b"LVLM-LATTICE 2 -1 -2 u8\n0 1\n",
    "non-UTF-8 bytes": b"LVLM-LATTICE 1 2 u8\n0 \xff\xfe\n",
    "truncated P5 raster": b"P5\n4 4\n255\nabc",
    "P5 without raster": b"P5\n4 4\n255",
    "non-numeric PGM header": b"P2\n2x 1\n255\n0 1\n",
    "negative PGM width": b"P5\n-1 -1\n255\n\x00",
    "non-numeric P2 sample": b"P2\n2 1\n255\n0 1#\n",
    "PGM width over 4,300 digits": b"P2\n" + b"1" * 5000 + b" 1\n255\n0\n",
}


@pytest.mark.parametrize("data", MALFORMED.values(), ids=MALFORMED.keys())
def test_read_lattice_auto_rejects_malformed_file(tmp_path, data):
    p = tmp_path / "bad"
    p.write_bytes(data)
    with pytest.raises(InputError):
        io.read_lattice_auto(p)


# Bodies the token parse reads differently from np.fromstring, or which the
# reader no longer accepts: each must be an InputError.
PARSE_QUIRKS = {
    # np.fromstring reads a body of whitespace alone as one -1 (float) or 0 (int)
    "u8 whitespace-only body": b"LVLM-LATTICE 1 1 u8\n \n\t",
    "f64 whitespace-only body": b"LVLM-LATTICE 1 1 f64x1\n \n\t",
    "P2 whitespace-only raster": b"P2\n1 1\n255\n \n\t",
    # in integer mode it reads a sign with no digit after it as 0, or joins
    # it to the next number
    "u8 trailing lone sign": b"LVLM-LATTICE 1 3 u8\n0 1 -\n",
    "u8 sign before whitespace": b"LVLM-LATTICE 1 1 u8\n+ 99\n",
    "f64 trailing lone sign": b"LVLM-LATTICE 1 3 f64x1\n0 1 -\n",
    "f64 sign before whitespace": b"LVLM-LATTICE 1 1 f64x1\n+ 99\n",
    "P2 trailing lone sign": b"P2\n3 1\n255\n0 1 -\n",
    "P2 sign before whitespace": b"P2\n1 1\n255\n+ 99\n",
    # values and separators are ASCII: the token parse took 1_0 as 10, split
    # at \x1c, and read non-ASCII digits
    "u8 underscore": b"LVLM-LATTICE 1 1 u8\n1_0\n",
    "f64 underscore": b"LVLM-LATTICE 1 1 f64x1\n1_0.5\n",
    "P2 underscore": b"P2\n1 1\n255\n1_0\n",
    "u8 non-ASCII separator": b"LVLM-LATTICE 1 2 u8\n1\x1c2\n",
    "f64 non-ASCII separator": b"LVLM-LATTICE 1 2 f64x1\n1\x1c2\n",
    "P2 non-ASCII separator": b"P2\n2 1\n255\n1\x1c2\n",
    "u8 non-ASCII digit": "LVLM-LATTICE 1 1 u8\n\u07c3\n".encode(),
}


@pytest.mark.parametrize("data", PARSE_QUIRKS.values(), ids=PARSE_QUIRKS.keys())
def test_reader_rejects_parse_quirks(tmp_path, data):
    p = tmp_path / "q"
    p.write_bytes(data)
    with pytest.raises(InputError):
        io.read_lattice_auto(p)


VALID_MODEL_1 = "variant=real\nN=1\nM=2\nd=1\nw=1\nw_e=1\nw_l=1\nalpha=0.5\nA=1\nmu=0 1\nsigma=1 0 0 1\n"
VALID_CODEBOOK = "variant=codebook\nN=2\nM=1\ncentroids=0.5 1\nsizes=1 3\n"
VALID_BUNDLE = "LVLM-BUNDLE\na 0.25 a.lvlm\nb 0.75 b.lvlm\n"

# Header, model, codebook and bundle fields the reader took before every
# number went through `_parse_values`, and which are malformed now: numbers
# and their separators and line breaks are ASCII, and integers stay below
# 2^63 - 1 instead of growing without bound.
NARROWED = {
    "lattice d underscore": ("lattice", "LVLM-LATTICE 0_1 3 u8\n0 1 2\n"),
    "lattice length underscore": ("lattice", "LVLM-LATTICE 1 1_0 u8\n" + "0 " * 10),
    "lattice f64x1_0": ("lattice", "LVLM-LATTICE 1 1 f64x1_0\n" + "0.5 " * 10),
    "model N underscore": ("model", VALID_MODEL_1.replace("N=1", "N=0_1")),
    "model alpha underscore": ("model", VALID_MODEL_1.replace("alpha=0.5", "alpha=0.2_5")),
    "model N non-ASCII digit": ("model", VALID_MODEL_1.replace("N=1", "N=\u0661")),
    "model alpha non-ASCII digit": ("model", VALID_MODEL_1.replace("alpha=0.5", "alpha=\u0660.5")),
    "model non-ASCII separator": ("model", VALID_MODEL_1.replace("N=1", "N=\u00a01")),
    "model \\x1c separator": ("model", VALID_MODEL_1.replace("w=1", "w=1\x1c")),
    "model U+2028 line break": ("model", VALID_MODEL_1.replace("\nN=1", "\u2028N=1")),
    "model U+0085 line break": ("model", VALID_MODEL_1.replace("\nM=2", "\x85M=2")),
    "model \\x0b line break": ("model", VALID_MODEL_1.replace("\nd=1", "\x0bd=1")),
    "model saturating integer": ("model", VALID_MODEL_1.replace("w=1", "w=99999999999999999999")),
    "codebook N underscore": ("codebook", VALID_CODEBOOK.replace("N=2", "N=0_2")),
    "codebook M non-ASCII digit": ("codebook", VALID_CODEBOOK.replace("M=1", "M=\u0661")),
    "codebook non-ASCII separator": ("codebook", VALID_CODEBOOK.replace("N=2", "N=2\u00a0")),
    "codebook U+2028 line break": ("codebook", VALID_CODEBOOK.replace("\nM=1", "\u2028M=1")),
    "bundle prior underscore": ("bundle", VALID_BUNDLE.replace("0.25", "0.2_5")),
    "bundle prior non-ASCII digit": ("bundle", VALID_BUNDLE.replace("0.25", "\u0660.25")),
    "bundle non-ASCII separator": ("bundle", VALID_BUNDLE.replace("a 0.25 a", "a\u00a00.25\u00a0a")),
    "bundle U+2028 line break": ("bundle", VALID_BUNDLE.replace("BUNDLE\n", "BUNDLE\u2028")),
}


@pytest.mark.parametrize("reader, text", NARROWED.values(), ids=NARROWED.keys())
def test_readers_reject_numbers_outside_the_ascii_syntax(tmp_path, reader, text):
    for name in "ab":
        (tmp_path / f"{name}.lvlm").write_bytes(VALID_MODELS[0])
    p = tmp_path / "f"
    p.write_bytes(text.encode())
    read = {"lattice": io.read_lattice, "model": io.read_model, "codebook": io.read_codebook,
            "bundle": io.read_bundle}[reader]
    with pytest.raises(InputError):
        read(p)


@pytest.mark.parametrize("reader, text", [
    ("model", VALID_MODEL_1.replace("M=2\n", "M=2\nw=1\n")),
    ("model", VALID_MODEL_1 + "A=1\n"),
    ("codebook", VALID_CODEBOOK.replace("M=1\n", "M=1\n N = 2\n")),
], ids=["model-int", "model-array", "codebook"])
def test_repeated_key_is_malformed(tmp_path, reader, text):
    p = tmp_path / "f"
    p.write_bytes(text.encode())
    with pytest.raises(InputError, match="repeated key"):
        {"model": io.read_model, "codebook": io.read_codebook}[reader](p)


@pytest.mark.parametrize("reader, text", [
    ("model", VALID_MODEL_1.replace("\n", "\r\n")),
    ("model", VALID_MODEL_1.replace("\n", "\r")),
    ("model", " \t" + VALID_MODEL_1.replace("=", " \t= ").replace("\n", " \x0c\n# note\n\n")),
    ("codebook", VALID_CODEBOOK.replace("\n", "\r\n").replace("=", " = ")),
    ("bundle", VALID_BUNDLE.replace("\n", "\r\n").replace(" ", " \t ")),
], ids=["model-crlf", "model-cr", "model-ascii-space", "codebook-crlf", "bundle-crlf-tabs"])
def test_key_value_files_split_at_ascii_line_breaks_and_whitespace(tmp_path, reader, text):
    for name in "ab":
        (tmp_path / f"{name}.lvlm").write_bytes(VALID_MODELS[0])
    (tmp_path / "want").write_text({"model": VALID_MODEL_1, "codebook": VALID_CODEBOOK, "bundle": VALID_BUNDLE}[reader])
    (tmp_path / "got").write_bytes(text.encode())
    read = {"model": io.read_model, "codebook": io.read_codebook, "bundle": io.read_bundle}[reader]
    want, got = read(tmp_path / "want"), read(tmp_path / "got")
    if reader == "bundle":
        assert [(c.label, c.log_prior) for c in got.classes] == [(c.label, c.log_prior) for c in want.classes]
    else:
        assert {k: np.asarray(v).tobytes() for k, v in vars(got).items()} == \
            {k: np.asarray(v).tobytes() for k, v in vars(want).items()}


@pytest.mark.parametrize("data, want", [
    (b"LVLM-LATTICE\n2 2\n3\nu8 0 1 2\n2 1 0\n", [[0, 1, 2], [2, 1, 0]]),
    (b"LVLM-LATTICE 2 2 3 u8\r\n0 1 2\r\n2 1 0\r\n", [[0, 1, 2], [2, 1, 0]]),
    (b"LVLM-LATTICE 1\r\n2 f64x2\r\n0.5 -1e3\r\n2 0.25\r\n", [[0.5, -1e3], [2, 0.25]]),
    (b"P2\r\n3 2\r\n255\r\n0 1 2\r\n2 1 0\r\n", [[0, 1, 2], [2, 1, 0]]),
], ids=["header-across-lines", "u8-crlf", "f64-crlf-header-across-lines", "p2-crlf"])
def test_reader_header_across_lines_and_crlf(tmp_path, data, want):
    p = tmp_path / "f"
    p.write_bytes(data)
    assert np.array_equal(io.read_lattice_auto(p).values, want)


# digits, signs, '.', 'e', nan/inf and ASCII whitespace
BODY_PIECES = list("0123456789+-.e") + ["nan", "inf"] + [" "] * 8 + list("\n\t\r\x0b\x0c")


@settings(max_examples=400, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(body=st.lists(st.sampled_from(BODY_PIECES), max_size=16).map("".join),
       kind=st.sampled_from(["u8", "f64x1", "P2"]))
def test_reader_matches_token_parse(tmp_path, body, kind):
    # the header declares as many values as the body has tokens (at least 1),
    # so the file is valid exactly when every token parses to a valid value
    n = max(1, len(body.split()))
    header = f"P2\n{n} 1\n255\n" if kind == "P2" else f"LVLM-LATTICE 1 {n} {kind}\n"
    p = tmp_path / "f"
    p.write_bytes((header + body).encode())
    real = kind == "f64x1"
    try:
        want = token_values(body, real)
    except (ValueError, OverflowError):
        want = None
    if want is not None and not (want.size == n and (np.isfinite(want).all() if real else
                                                    ((want >= 0) & (want <= 255)).all())):
        want = None
    if want is None:
        with pytest.raises(InputError):
            io.read_lattice_auto(p)
    else:
        got = io.read_lattice_auto(p).values
        assert got.dtype == want.dtype and got.tobytes() == want.tobytes()  # bit-equal, -0.0 included


VALID = [
    b"LVLM-LATTICE 2 2 3 u8\n0 1 2\n2 1 0\n",
    b"LVLM-LATTICE 1 2 f64x2\n0.5 -1e3 2 0.25\n",
    b"P2\n# c\n3 2\n3\n0 1 2\n3 2 1\n",
    b"P5\n3 2\n255\n\x00\x01\x02\x03\x04\x05",
]


@st.composite
def edited_bytes(draw, valid):
    """Random bytes, or one of the `valid` files with random byte edits."""
    if draw(st.booleans()):
        return draw(st.binary(max_size=64))
    data = bytearray(draw(st.sampled_from(valid)))
    for _ in range(draw(st.integers(1, 4))):
        pos = draw(st.integers(0, len(data)))
        edit = draw(st.sampled_from(["replace", "insert", "delete"]))
        byte = draw(st.binary(min_size=1, max_size=1))
        if edit == "insert" or pos == len(data):
            data[pos:pos] = byte
        elif edit == "replace":
            data[pos:pos + 1] = byte
        else:
            del data[pos]
    return bytes(data)


@settings(max_examples=200, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=edited_bytes(VALID))
def test_read_lattice_auto_parses_or_raises_input_error(tmp_path, data):
    p = tmp_path / "fuzz"
    p.write_bytes(data)
    try:
        lat = io.read_lattice_auto(p)
    except InputError:
        return
    assert isinstance(lat, SymbolLattice)


VALID_MODELS = [
    b"variant=discrete\nN=2\nM=2\nd=2\nw=1\nw_e=1\nw_l=1\nalpha=1\nA=0.9 0.1 0.1 0.9\nB=0.8 0.2 0.2 0.8\n",
    b"variant=real\nN=1\nM=2\nd=1\nw=1\nw_e=1\nw_l=1\nalpha=0.5\nA=1\nmu=0 1\nsigma=1 0 0 1\n",
]


NON_FINITE_MODELS = {
    "A-nan": (0, b"A=0.9 0.1 0.1 0.9", b"A=nan 0.1 0.1 0.9"),
    "A-inf": (0, b"A=0.9 0.1 0.1 0.9", b"A=0.9 inf 0.1 0.9"),
    "B-nan": (0, b"B=0.8 0.2 0.2 0.8", b"B=nan nan 0.2 0.8"),
    "mu-nan": (1, b"mu=0 1", b"mu=0 nan"),
    "sigma-nan": (1, b"sigma=1 0 0 1", b"sigma=nan 0 0 1"),
    "sigma-inf": (1, b"sigma=1 0 0 1", b"sigma=1 0 0 inf"),
}


@pytest.mark.parametrize("case", NON_FINITE_MODELS)
def test_read_model_rejects_non_finite_parameters(tmp_path, case):
    valid, field, bad = NON_FINITE_MODELS[case]
    p = tmp_path / "m.lvlm"
    p.write_bytes(VALID_MODELS[valid].replace(field, bad))
    with pytest.raises(InputError):
        io.read_model(p)


@settings(max_examples=200, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=edited_bytes(VALID_MODELS))
def test_read_model_parses_or_raises_input_error(tmp_path, data):
    p = tmp_path / "fuzz"
    p.write_bytes(data)
    try:
        model = io.read_model(p)
    except InputError:
        return
    assert isinstance(model, (DiscreteModel, RealModel))


@settings(max_examples=200, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=edited_bytes([b"LVLM-BUNDLE\na 0.25 a.lvlm\nb 0.75 b.lvlm\n"]))
def test_read_bundle_parses_or_raises_input_error(tmp_path, data):
    for name in "ab":
        (tmp_path / f"{name}.lvlm").write_bytes(VALID_MODELS[0])
    p = tmp_path / "fuzz"
    p.write_bytes(data)
    try:
        bundle = io.read_bundle(p)
    except InputError:
        return
    assert all(c.log_prior < 0 for c in bundle.classes)


def test_all_or_none_writes_every_file_or_none(tmp_path):
    lat = SymbolLattice.discrete(np.array([[0, 1], [1, 0]]), M=2)
    good, missing = tmp_path / "a.lat", tmp_path / "nodir" / "b.pgm"
    with pytest.raises(FileNotFoundError) as e:
        with io.all_or_none([good, missing]) as (a, b):
            io.write_lattice(a, lat)
            io.write_pgm(b, lat)
    assert e.value.filename == str(missing)  # the path asked for, not its temp file
    assert list(tmp_path.iterdir()) == []
    (tmp_path / "d").mkdir()
    with pytest.raises(IsADirectoryError) as e:
        with io.all_or_none([good, tmp_path / "d"]) as (a, b):
            io.write_lattice(a, lat)
    assert e.value.filename == str(tmp_path / "d")
    with pytest.raises(InputError):  # a failing write inside the block removes every temp file
        with io.all_or_none([good, tmp_path / "b.pgm"]) as (a, b):
            io.write_lattice(a, lat)
            io.write_pgm(b, SymbolLattice.discrete(np.zeros((2, 2, 2), dtype=int), M=2))
    assert [p.name for p in tmp_path.iterdir()] == ["d"] and list((tmp_path / "d").iterdir()) == []
    with io.all_or_none([good, tmp_path / "b.pgm"]) as (a, b):
        io.write_lattice(a, lat)
        io.write_pgm(b, lat)
    assert np.array_equal(io.read_lattice(good).values, lat.values)
    assert np.array_equal(io.read_pgm(tmp_path / "b.pgm").values, lat.values)
    assert sorted(p.name for p in tmp_path.iterdir()) == ["a.lat", "b.pgm", "d"]


def test_write_error_names_the_path_asked_for(tmp_path):
    with pytest.raises(FileNotFoundError) as e:
        io.write_lattice(tmp_path / "nodir" / "q.lat", SymbolLattice.discrete(np.zeros((2, 2), dtype=int), M=2))
    assert e.value.filename == str(tmp_path / "nodir" / "q.lat")


# -- the float text codec: orjson's exact parse and shortest format -----------

@settings(max_examples=200, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(vals=hnp.arrays(np.float64, st.tuples(st.integers(1, 6), st.integers(1, 3)), elements=finite_floats()))
def test_every_finite_double_reads_back_bit_for_bit(tmp_path, vals):
    n, m = vals.shape
    model = RealModel(N=n, M=m, d=1, A=np.ones((n, n)), mu=vals, sigma=np.tile(np.eye(m), (n, 1, 1)))
    for write, read, written, field in [(io.write_lattice, io.read_lattice, SymbolLattice.real(vals), "values"),
                                        (io.write_model, io.read_model, model, "mu"),
                                        (io.write_codebook, io.read_codebook, Codebook(vals, np.ones(n)), "centroids")]:
        first, again = tmp_path / "first", tmp_path / "again"
        write(first, written)
        back = read(first)
        assert getattr(back, field).tobytes() == vals.tobytes()  # -0.0, subnormals and +-max included
        write(again, back)
        assert again.read_bytes() == first.read_bytes()


def fromstring(body: bytes) -> np.ndarray:
    """The float body reader lvlm had before orjson: one np.fromstring pass,
    an empty or whitespace-only body read as no values."""
    return np.fromstring(body, sep=" ") if body.strip() else np.empty(0)


@settings(max_examples=300, deadline=None)
@given(x=hnp.arrays(np.float64, st.integers(1, 40), elements=finite_floats()),
       spec=st.sampled_from(["%r", "%.17g", "%.25e"]), sep=st.sampled_from([" ", "\n", "\t", "\r\n", "  ", " \n"]))
def test_parse_values_reads_written_doubles_as_fromstring(x, spec, sep):
    body = sep.join(spec % v for v in x.tolist()).encode()
    got = io._parse_values(body, np.float64)
    assert got.tobytes() == fromstring(body).tobytes()
    if spec != "%.25e":  # 17 significant digits or more read back exactly
        assert got.tobytes() == x.tobytes()


# tokens JSON reads differently from np.fromstring (-0 as the integer 0),
# rejects (+1, .5, 5., 01, inf, nan), or that overflow, underflow or need
# more than 17 digits
CODEC_TOKENS = ["-0", "+1", ".5", "5.", "01", "inf", "nan", "-inf", "1e400", "-1e-400", "-0e0", "1e-0",
                "9007199254740993", "18446744073709551617", "18446744073709551615", "-18446744073709551617",
                "9" * 400, "1" + "0" * 308, "2.4703282292062328e-324", "1.797693134862315807e308"]


@pytest.mark.parametrize("body", [
    *CODEC_TOKENS, " ".join(CODEC_TOKENS), "1 -0", "-0 1", "-0\n", "1 2 -0\n3", "1\t2\t-0", "1\r\n2\r\n",
    "1  2", "0.5\n\n0.25", "1\x0b2\x0c3",
], ids=repr)
def test_parse_values_reads_tokens_as_fromstring(body):
    body = body.encode()
    assert io._parse_values(body, np.float64).tobytes() == fromstring(body).tobytes()


# number text, ASCII whitespace, and JSON syntax that no float body may take
# as numbers
CODEC_PIECES = (list("0123456789+-.eE") + ["-0", "nan", "inf", "true", "false", "null", "[", "]", ",", '"',
                                            "{}", ":", "1e400"] + [" "] * 8 + list("\n\t\r\x0b\x0c"))


@settings(max_examples=1000, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(body=st.lists(st.sampled_from(CODEC_PIECES), max_size=24).map("".join).map(str.encode),
       chunk_bytes=st.sampled_from([1, 2, 3, 5, 8, 1 << 18]))
def test_parse_values_reads_and_rejects_as_fromstring(monkeypatch, body, chunk_bytes):
    # small chunks put a chunk boundary at every whitespace byte
    monkeypatch.setattr(io, "_CHUNK_BYTES", chunk_bytes)
    try:
        want = fromstring(body)
    except ValueError:
        with pytest.raises(ValueError):
            io._parse_values(body, np.float64)
    else:
        assert io._parse_values(body, np.float64).tobytes() == want.tobytes()


def test_parse_values_reads_a_body_of_many_chunks_as_one():
    rng = np.random.default_rng(8)
    x = rng.normal(size=(50_000, 2)) * 10.0 ** rng.integers(-300, 300, size=(50_000, 2))
    x.reshape(-1)[rng.choice(x.size, 1000, replace=False)] = -0.0
    tokens = [repr(v) for v in x.reshape(-1).tolist()]
    # tokens JSON rejects or misreads: their chunk is read by np.fromstring
    tokens[40_000:40_010] = [".5", "+1", "5.", "01", "-0", "1e-400", "inf", "-0", "0", "-0"]
    body = "\n".join(" ".join(tokens[i:i + 2]) for i in range(0, len(tokens), 2)).encode() + b"\r\n"
    assert len(body) > 8 * io._CHUNK_BYTES
    got = io._parse_values(body, np.float64)
    assert got.tobytes() == fromstring(body).tobytes()
    assert got.size == len(tokens)


def test_parse_values_memory_is_bounded_by_the_chunk():
    x = np.random.default_rng(9).normal(size=200_000)
    body = " ".join(map(repr, x.tolist())).encode()  # 3.9 MB, 15 chunks
    tracemalloc.start()
    try:
        got = io._parse_values(body, np.float64)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert got.tobytes() == x.tobytes()
    # the values twice (the chunks' arrays and their concatenation) and a few
    # copies of one chunk's text and its Python floats; a parse of the whole
    # body at once peaked at 11.9 MB
    assert peak < 2 * got.nbytes + 12 * io._CHUNK_BYTES


def test_read_lattice_memory_is_the_file_and_the_values(tmp_path):
    vals = np.random.default_rng(11).normal(size=(40, 40, 40, 2))
    p = tmp_path / "v.lat"
    io.write_lattice(p, SymbolLattice.real(vals))
    tracemalloc.start()
    try:
        got = io.read_lattice(p).values
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert got.tobytes() == vals.tobytes()
    # the file's bytes once, the values once (each chunk is parsed into its
    # slice of them) and a few copies of one chunk's text: no copy of the
    # body (2.5 MB here), which splitting the header off took two of
    assert peak < p.stat().st_size + got.nbytes + 4 * io._CHUNK_BYTES


@pytest.mark.parametrize("chunk_bytes", [16, 1 << 18])
@pytest.mark.parametrize("dtype", ["u8", "f64x2"])
@pytest.mark.parametrize("lengths,given", [((30,), 59), ((30,), 61), ((5, 6), 0), ((10 ** 12,), 60)])
def test_read_lattice_wrong_value_count_names_both(tmp_path, monkeypatch, chunk_bytes, dtype, lengths, given):
    # one value short, one over, none, and a header of far more values than
    # the body could hold; in one chunk and in many
    monkeypatch.setattr(io, "_CHUNK_BYTES", chunk_bytes)
    width = 2 if dtype == "f64x2" else 1
    p = tmp_path / "v.lat"
    p.write_text(f"LVLM-LATTICE {len(lengths)} {' '.join(map(str, lengths))} {dtype}\n" + "1 " * given)
    want = f"{p}: expected {math.prod(lengths) * width} values, got {given}"
    with pytest.raises(InputError, match=f"^{re.escape(want)}$"):
        io.read_lattice(p)


def test_write_lattice_memory_is_bounded_by_the_piece(tmp_path):
    lat = SymbolLattice.real(np.random.default_rng(10).normal(size=(100_000, 2)))
    p = tmp_path / "big.lat"
    tracemalloc.start()
    try:
        io.write_lattice(p, lat)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert io.read_lattice(p).values.tobytes() == lat.values.tobytes()
    # a few copies of one piece's text (about 25 bytes a number); the whole
    # file's text at once is 3.9 MB, and formatting it in one piece held 12 MB
    assert peak < 8 * 25 * io._FORMAT_VALUES
