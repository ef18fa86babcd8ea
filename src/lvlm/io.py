"""File formats: lattice files, PGM images, model files, bundle manifests.

Lattice file: text header `LVLM-LATTICE <d> <len_1> ... <len_d> <dtype>`
with dtype u8 (symbol/state indices) or f64x<M> (real vectors), followed by
whitespace-separated row-major values. A decoded state lattice is a
discrete `SymbolLattice` (`StateLattice`) and is written like any other. 2D
u8 lattices are also read from PGM (P2 or P5) and written as P5. Model files
are key=value text with matrices row-major; floats carry 17 significant
digits so round trips are bit-faithful. Lattice bodies are formatted with
one `%` operation over all values and parsed, like P2 rasters, in one
`np.fromstring` pass; values are separated by ASCII whitespace. All writes
go through a temp file plus rename; a command with several outputs writes
them all or none (`all_or_none`).
"""

from __future__ import annotations

import errno
import math
import os
import re
import tempfile
from contextlib import contextmanager
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
    by `spec` ("%d" or "%.17g"), in one % operation."""
    flat = tuple(values.ravel().tolist())
    row = " ".join([spec] * per_row) + "\n"
    return (row * (len(flat) // per_row)) % flat


def write_atomic(path, data: bytes):
    """Write `data` to `path` through a temp file beside it and a rename."""
    with all_or_none([path]) as (tmp,):
        Path(tmp).write_bytes(data)


def _naming(e: OSError, path: Path) -> OSError:
    """e reported against `path`, the file asked for, not a temp file."""
    return type(e)(e.errno, e.strerror, str(path)) if e.errno else e


@contextmanager
def all_or_none(paths):
    """Temp files beside each of `paths`, to be written in the block: when it
    ends without error they are renamed onto `paths`, and otherwise removed,
    so the outputs are written all or none. A path that is a directory, or
    whose directory is missing, fails before the block runs; every error
    names the path asked for."""
    paths, temps = [Path(p) for p in paths], []
    try:
        for path in paths:
            try:
                if path.is_dir():
                    raise IsADirectoryError(errno.EISDIR, os.strerror(errno.EISDIR))
                fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=f".{path.name}.")
            except OSError as e:
                raise _naming(e, path) from None
            os.close(fd)
            temps.append(tmp)
        yield temps
        for tmp, path in zip(temps, paths):
            try:
                os.replace(tmp, path)
            except OSError as e:
                raise _naming(e, path) from None
    except BaseException:
        for tmp in temps:
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
        body = _format_rows(lat.values, lengths[-1], "%d")
    else:
        header = f"{LATTICE_MAGIC} {lat.shape.d} {' '.join(map(str, lengths))} f64x{lat.M}\n"
        body = _format_rows(lat.values, lat.M, "%.17g")
    write_atomic(path, (header + body).encode())


# a sign with no digit after it, which np.fromstring reads as 0 or joins to
# the next number in integer mode
_LONE_SIGN = re.compile(rb"[+-](?![0-9])")


def _parse_values(body: bytes, dtype) -> np.ndarray:
    """The whitespace-separated numbers of `body` in one np.fromstring pass;
    ValueError where a value is malformed."""
    if not body or body.isspace():  # which np.fromstring reads as one -1 or 0
        return np.empty(0, dtype=dtype)
    if dtype is np.int64 and (b"-" in body or b"+" in body) and _LONE_SIGN.search(body):
        raise ValueError("sign without digits")
    return np.fromstring(body, dtype=dtype, sep=" ")


def read_lattice(path, M: int | None = None) -> SymbolLattice:
    head = Path(path).read_bytes().split(None, 2)  # magic, d, the rest
    if not head or head[0] != LATTICE_MAGIC.encode():
        raise InputError(f"{path}: not a lattice file")
    try:
        d = max(int(head[1]), 0)  # d < 1 leaves no lengths, which LatticeShape rejects
        fields = head[2].split(None, d + 1)  # the lengths, the dtype, the body
        shape = LatticeShape(tuple(int(x) for x in fields[:d]))
        dtype = fields[d].decode()
        m = int(dtype[4:]) if dtype.startswith("f64x") else 0
    except (IndexError, ValueError, OverflowError) as e:
        raise InputError(f"{path}: malformed lattice header ({e})") from e
    if dtype != "u8" and m < 1:
        raise InputError(f"{path}: unknown dtype {dtype!r}")
    try:
        arr = _parse_values(fields[d + 1] if len(fields) > d + 1 else b"", np.float64 if m else np.int64)
    except ValueError as e:
        raise InputError(f"{path}: malformed {dtype} value ({e})") from e
    count = shape.node_count * max(m, 1)
    if arr.size != count:
        raise InputError(f"{path}: expected {count} values, got {arr.size}")
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
            raster = _parse_values(data[pos:], np.int64)
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
