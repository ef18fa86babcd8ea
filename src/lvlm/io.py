"""File formats: lattice files, PGM images, model files, bundle manifests.

Lattice file: text header `LVLM-LATTICE <d> <len_1> ... <len_d> <dtype>`
with dtype u8 (symbol/state indices) or f64x<M> (real vectors), followed by
whitespace-separated row-major values. A decoded state lattice is a
discrete `SymbolLattice` (`StateLattice`) and is written like any other. 2D
u8 lattices are also read from PGM (P2 or P5) and written as P5. Model files
are key=value text with matrices row-major; floats carry 17 significant
digits so round trips are bit-faithful. Lattice bodies are formatted in one
`str.format` call over all values. All writes go through a temp file plus
rename.
"""

from __future__ import annotations

import math
import os
import re
import tempfile
from pathlib import Path

import numpy as np

from .classify import ClassEntry, ClassifierBundle
from .discrete import DiscreteModel
from .errors import InputError
from .lattice import LatticeShape, StateLattice, SymbolLattice
from .real import RealModel
from .vq import Codebook

LATTICE_MAGIC = "LVLM-LATTICE"


def _fmt(x: float) -> str:
    return f"{float(x):.17g}"


def _fmt_vec(a) -> str:
    return " ".join(_fmt(x) for x in np.asarray(a, dtype=np.float64).ravel())


def _format_rows(values: np.ndarray, per_row: int, spec: str) -> str:
    """All of `values` in row-major order, `per_row` to a line, each formatted
    by `spec` ("{}" or "{:.17g}"), in one str.format call."""
    flat = values.ravel().tolist()
    row = " ".join([spec] * per_row) + "\n"
    return (row * (len(flat) // per_row)).format(*flat)


def write_atomic(path, data: bytes):
    path = Path(path)
    fd, tmp = tempfile.mkstemp(dir=path.parent or Path("."), prefix=f".{path.name}.")
    try:
        with os.fdopen(fd, "wb") as fh:
            fh.write(data)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _read_text(path) -> str:
    try:
        return Path(path).read_text()
    except UnicodeDecodeError as e:
        raise InputError(f"{path}: not a UTF-8 text file") from e


# -- lattice files -----------------------------------------------------------

def write_lattice(path, lat: SymbolLattice):
    lengths = lat.shape.lengths
    if lat.kind == "discrete":
        if lat.values.size and lat.values.max() > 255:
            raise InputError("u8 lattice values must fit in [0, 255]")
        header = f"{LATTICE_MAGIC} {lat.shape.d} {' '.join(map(str, lengths))} u8\n"
        body = _format_rows(lat.values, lengths[-1], "{}")
    else:
        header = f"{LATTICE_MAGIC} {lat.shape.d} {' '.join(map(str, lengths))} f64x{lat.M}\n"
        body = _format_rows(lat.values, lat.M, "{:.17g}")
    write_atomic(path, (header + body).encode())


def read_lattice(path, M: int | None = None) -> SymbolLattice:
    text = _read_text(path).split()
    if not text or text[0] != LATTICE_MAGIC:
        raise InputError(f"{path}: not a lattice file")
    try:
        d = int(text[1])
        # d < 1 leaves no lengths, which LatticeShape rejects
        shape = LatticeShape(tuple(int(x) for x in text[2:2 + max(d, 0)]))
        dtype = text[2 + d]
        m = int(dtype[4:]) if dtype.startswith("f64x") else 0
    except (IndexError, ValueError) as e:
        raise InputError(f"{path}: malformed lattice header ({e})") from e
    if dtype != "u8" and m < 1:
        raise InputError(f"{path}: unknown dtype {dtype!r}")
    vals = text[3 + d:]
    count = shape.node_count * max(m, 1)
    if len(vals) != count:
        raise InputError(f"{path}: expected {count} values, got {len(vals)}")
    try:
        arr = np.array(vals, dtype=np.float64 if m else np.int64)
    except (ValueError, OverflowError) as e:
        raise InputError(f"{path}: malformed {dtype} value ({e})") from e
    if m:
        return SymbolLattice.real(arr.reshape(shape.lengths + (m,)))
    if arr.min() < 0 or arr.max() > 255:
        raise InputError(f"{path}: u8 values must fit in [0, 255]")
    return SymbolLattice.discrete(arr.reshape(shape.lengths), M=M)


# -- PGM ---------------------------------------------------------------------

# magic, then width, height and maxval, each after whitespace and '#' comments
# (to end of line), then the one whitespace byte before the raster
_PGM_HEADER = re.compile(rb"(P[25])" + rb"(?:\s|#[^\n]*\n)+(\d+)" * 3 + rb"\s")


def read_pgm(path, M: int | None = None) -> SymbolLattice:
    data = Path(path).read_bytes()
    header = _PGM_HEADER.match(data)
    if header is None:
        raise InputError(f"{path}: not a P2/P5 PGM file")
    pos = header.end()
    try:
        width, height, maxval = (int(t) for t in header.group(2, 3, 4))
        shape = LatticeShape((height, width))
        if header[1] == b"P5":
            raster = np.frombuffer(data[pos:pos + width * height], dtype=np.uint8)
        else:
            raster = np.array(data[pos:].split(), dtype=np.int64)
    except (ValueError, OverflowError) as e:
        raise InputError(f"{path}: malformed PGM file ({e})") from e
    if maxval > 255:
        raise InputError(f"{path}: maxval {maxval} > 255 unsupported")
    if raster.size != width * height:
        raise InputError(f"{path}: expected {width * height} samples, got {raster.size}")
    arr = raster.astype(np.int64).reshape(shape.lengths)
    return SymbolLattice.discrete(arr, M=M if M is not None else maxval + 1)


def write_pgm(path, lat: SymbolLattice):
    """P5 image of a 2-d discrete lattice, maxval M - 1 (at least 1)."""
    if lat.kind != "discrete" or lat.shape.d != 2:
        raise InputError("PGM output needs a 2-d discrete lattice")
    if lat.M > 256:
        raise InputError("PGM values must fit in [0, 255]")
    h, w = lat.shape.lengths
    header = f"P5\n{w} {h}\n{max(1, lat.M - 1)}\n".encode()
    write_atomic(path, header + lat.values.astype(np.uint8).tobytes())


def states_to_pgm(path, states: StateLattice):
    """Visualization: states mapped to evenly spaced gray levels in [0, 255]."""
    if states.shape.d != 2:
        raise InputError("PGM visualization needs a 2-d state lattice")
    if states.N > 1:
        gray = (states.states * 255) // (states.N - 1)
    else:
        gray = np.zeros_like(states.states)
    write_pgm(path, SymbolLattice.discrete(gray, M=256))


def read_lattice_auto(path, M: int | None = None) -> SymbolLattice:
    """Dispatch on content: PGM magic or lattice magic."""
    with Path(path).open("rb") as fh:
        head = fh.read(2)
    if head in (b"P2", b"P5"):
        return read_pgm(path, M=M)
    return read_lattice(path, M=M)


# -- model files ---------------------------------------------------------------

def _kv_lines(pairs):
    return "".join(f"{k}={v}\n" for k, v in pairs)


def write_model(path, model: DiscreteModel | RealModel):
    pairs = [
        ("variant", model.kind), ("N", model.N), ("M", model.M), ("d", model.d),
        ("w", model.w), ("w_e", model.w_e), ("w_l", model.w_l),
        ("alpha", _fmt(model.alpha)), ("A", _fmt_vec(model.A)),
    ]
    if isinstance(model, DiscreteModel):
        pairs.append(("B", _fmt_vec(model.B)))
    else:
        pairs += [("mu", _fmt_vec(model.mu)), ("sigma", _fmt_vec(model.sigma))]
    write_atomic(path, _kv_lines(pairs).encode())


def _parse_kv(path) -> dict:
    fields = {}
    for line in _read_text(path).splitlines():
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise InputError(f"{path}: malformed line {line!r}")
        k, v = line.split("=", 1)
        fields[k.strip()] = v.strip()
    return fields


def read_model(path) -> DiscreteModel | RealModel:
    f = _parse_kv(path)
    try:
        variant = f["variant"]
        N, M, d = int(f["N"]), int(f["M"]), int(f["d"])
        w, w_e, w_l = int(f["w"]), int(f["w_e"]), int(f["w_l"])
        alpha = float(f["alpha"])
        A = np.fromstring(f["A"], sep=" ").reshape(N, N)
        if variant == "discrete":
            B = np.fromstring(f["B"], sep=" ").reshape(N, M)
            return DiscreteModel(N=N, M=M, d=d, A=A, B=B, w=w, w_e=w_e, w_l=w_l, alpha=alpha)
        if variant == "real":
            mu = np.fromstring(f["mu"], sep=" ").reshape(N, M)
            sigma = np.fromstring(f["sigma"], sep=" ").reshape(N, M, M)
            return RealModel(N=N, M=M, d=d, A=A, mu=mu, sigma=sigma, w=w, w_e=w_e, w_l=w_l, alpha=alpha)
    except (KeyError, ValueError) as e:
        raise InputError(f"{path}: malformed model file ({e})") from e
    raise InputError(f"{path}: unknown variant {variant!r}")


def write_codebook(path, codebook: Codebook):
    pairs = [
        ("variant", "codebook"), ("N", codebook.N), ("M", codebook.M),
        ("centroids", _fmt_vec(codebook.centroids)),
        ("sizes", " ".join(str(int(s)) for s in codebook.sizes)),
    ]
    write_atomic(path, _kv_lines(pairs).encode())


def read_codebook(path) -> Codebook:
    f = _parse_kv(path)
    try:
        N, M = int(f["N"]), int(f["M"])
        centroids = np.fromstring(f["centroids"], sep=" ").reshape(N, M)
        sizes = np.fromstring(f["sizes"], sep=" ")
        return Codebook(centroids, sizes)
    except (KeyError, ValueError) as e:
        raise InputError(f"{path}: malformed codebook file ({e})") from e


# -- classifier bundles --------------------------------------------------------

BUNDLE_MAGIC = "LVLM-BUNDLE"


def write_bundle(path, entries):
    """entries: iterable of (label, prior, model_path); paths stored as given."""
    lines = [BUNDLE_MAGIC]
    for label, prior, model_path in entries:
        if any(ch.isspace() for ch in label):
            raise InputError(f"class label {label!r} must not contain whitespace")
        lines.append(f"{label} {_fmt(prior)} {model_path}")
    write_atomic(path, ("\n".join(lines) + "\n").encode())


def read_bundle(path) -> ClassifierBundle:
    """Model paths are relative to the manifest's directory unless absolute."""
    lines = [ln for ln in _read_text(path).splitlines() if ln.strip()]
    if not lines or lines[0].strip() != BUNDLE_MAGIC:
        raise InputError(f"{path}: not a bundle manifest")
    entries = []
    for ln in lines[1:]:
        parts = ln.split(maxsplit=2)
        if len(parts) != 3 or "\0" in ln:  # no path holds a NUL byte
            raise InputError(f"{path}: malformed bundle line {ln!r}")
        label, prior, model_path = parts
        try:
            prior = float(prior)
        except ValueError as e:
            raise InputError(f"{path}: malformed prior {prior!r}") from e
        if not (math.isfinite(prior) and prior > 0):
            raise InputError(f"{path}: prior {prior!r} must be finite and > 0")
        try:
            model = read_model(Path(path).parent / model_path)
        except OSError as e:
            raise InputError(f"{path}: cannot read model {model_path!r} ({e.strerror})") from e
        entries.append(ClassEntry(label, model, math.log(prior)))
    return ClassifierBundle(tuple(entries))
