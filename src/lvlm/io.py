"""File formats: lattice files, PGM images, model files, bundle manifests.

Lattice file: text header `LVLM-LATTICE <d> <len_1> ... <len_d> <dtype>`
with dtype u8 (symbol/state indices) or f64x<M> (real vectors), followed by
whitespace-separated row-major values. A decoded state lattice is a
discrete `SymbolLattice` (`StateLattice`) and is written like any other. 2D
u8 lattices are also read from PGM (P2 or P5) and written as P5. Model and
codebook files are key=value lines (split at ASCII line breaks, no key
twice), matrices row-major. Numbers read from files and CLI matrix flags
have one ASCII syntax (`_parse_values`); numbers written are formatted by
`_format_rows` (`%d`, or bit-faithful `%.17g`). Writes go through a temp
file and a rename, a command's outputs all or none (`all_or_none`).
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


def _format_rows(values, per_row: int, spec: str) -> str:
    """All of `values` (an array or a number) row-major, `per_row` to a line
    (one empty line for 0), each formatted by `spec` in one % operation."""
    flat = tuple(np.ravel(values).tolist())
    row = " ".join([spec] * per_row) + "\n"
    return (row * (len(flat) // per_row if per_row else 1)) % flat


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


def _read_lines(path) -> list[bytes]:
    """The lines of a UTF-8 text file, split at ASCII line breaks only."""
    data = Path(path).read_bytes()
    try:
        data.decode()
    except UnicodeDecodeError as e:
        raise InputError(f"{path}: not a UTF-8 text file") from e
    return data.splitlines()


# -- lattice files -----------------------------------------------------------

def write_lattice(path, lat: SymbolLattice):
    lengths = lat.shape.lengths
    if lat.kind == "discrete" and lat.values.size and lat.values.max() > 255:
        raise InputError("u8 lattice values must fit in [0, 255]")
    dtype, per_row, spec = ("u8", lengths[-1], "%d") if lat.kind == "discrete" else (f"f64x{lat.M}", lat.M, "%.17g")
    header = f"{LATTICE_MAGIC} {lat.shape.d} {' '.join(map(str, lengths))} {dtype}\n"
    write_atomic(path, (header + _format_rows(lat.values, per_row, spec)).encode())


# a sign with no digit after it, which np.fromstring reads as 0 or joins to
# the next number in integer mode
_LONE_SIGN = re.compile(rb"[+-](?![0-9])")


def _parse_values(text: bytes | str, dtype) -> np.ndarray:
    """The ASCII-whitespace-separated numbers (np.int64 or np.float64) of
    `text` in one np.fromstring pass; ValueError where one is malformed or
    not ASCII, or an integer reaches 2^63 - 1 (np.fromstring saturates there)."""
    if isinstance(text, str):
        text = text.encode("ascii")  # UnicodeEncodeError, a ValueError
    if not text or text.isspace():  # which np.fromstring reads as one -1 or 0
        return np.empty(0, dtype=dtype)
    if dtype is np.int64 and (b"-" in text or b"+" in text) and _LONE_SIGN.search(text):
        raise ValueError("sign without digits")
    values = np.fromstring(text, dtype=dtype, sep=" ")
    if dtype is np.int64 and values.max(initial=0) == np.iinfo(np.int64).max:
        raise ValueError("integer out of range")
    return values


def _parse_number(token: bytes | str, dtype):
    """The one number of `token` (see `_parse_values`), as a Python int or float."""
    try:
        (number,) = _parse_values(token, dtype).tolist()
    except ValueError as e:
        raise ValueError(f"{token!r} is not one number ({e})") from None
    return number


def read_lattice(path, M: int | None = None) -> SymbolLattice:
    head = Path(path).read_bytes().split(None, 2)  # magic, d, the rest
    if not head or head[0] != LATTICE_MAGIC.encode():
        raise InputError(f"{path}: not a lattice file")
    try:
        d = max(_parse_number(head[1], np.int64), 0)  # d < 1 leaves no lengths, which LatticeShape rejects
        fields = head[2].split(None, d + 1)  # the lengths, the dtype, the body
        shape = LatticeShape(tuple(_parse_number(x, np.int64) for x in fields[:d]))
        dtype = fields[d].decode()
        m = _parse_number(fields[d][4:], np.int64) if dtype.startswith("f64x") else 0
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
        width, height, maxval = _parse_values(b" ".join(header.group(2, 3, 4)), np.int64).tolist()
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

def _kv_lines(pairs) -> str:
    """A key=value line per (key, values, spec), values row-major."""
    return "".join(f"{k}={_format_rows(v, np.size(v), spec)}" for k, v, spec in pairs)


def write_model(path, model: DiscreteModel | RealModel):
    ints = [(k, getattr(model, k), "%d") for k in ("N", "M", "d", "w", "w_e", "w_l")]
    arrays = ("A", "B") if isinstance(model, DiscreteModel) else ("A", "mu", "sigma")
    floats = [(k, getattr(model, k), "%.17g") for k in ("alpha",) + arrays]
    write_atomic(path, (f"variant={model.kind}\n" + _kv_lines(ints + floats)).encode())


def _parse_kv(path) -> dict:
    """key -> value (bytes) of a key=value file; a repeated key is malformed."""
    fields = {}
    for line in _read_lines(path):
        line = line.strip()
        if not line or line.startswith(b"#"):
            continue
        if b"=" not in line:
            raise InputError(f"{path}: malformed line {line.decode()!r}")
        k, v = line.split(b"=", 1)
        k = k.strip().decode()
        if k in fields:
            raise InputError(f"{path}: repeated key {k!r}")
        fields[k] = v.strip()
    return fields


def read_model(path) -> DiscreteModel | RealModel:
    f = _parse_kv(path)
    try:
        variant = f["variant"].decode()
        N, M, d, w, w_e, w_l = (_parse_number(f[k], np.int64) for k in ("N", "M", "d", "w", "w_e", "w_l"))
        alpha = _parse_number(f["alpha"], np.float64)
        A = _parse_values(f["A"], np.float64).reshape(N, N)
        if variant == "discrete":
            B = _parse_values(f["B"], np.float64).reshape(N, M)
            return DiscreteModel(N=N, M=M, d=d, A=A, B=B, w=w, w_e=w_e, w_l=w_l, alpha=alpha)
        if variant == "real":
            mu = _parse_values(f["mu"], np.float64).reshape(N, M)
            sigma = _parse_values(f["sigma"], np.float64).reshape(N, M, M)
            return RealModel(N=N, M=M, d=d, A=A, mu=mu, sigma=sigma, w=w, w_e=w_e, w_l=w_l, alpha=alpha)
    except (KeyError, ValueError) as e:
        raise InputError(f"{path}: malformed model file ({e})") from e
    raise InputError(f"{path}: unknown variant {variant!r}")


def write_codebook(path, codebook: Codebook):
    pairs = [("N", codebook.N, "%d"), ("M", codebook.M, "%d"),
             ("centroids", codebook.centroids, "%.17g"), ("sizes", codebook.sizes, "%d")]
    write_atomic(path, ("variant=codebook\n" + _kv_lines(pairs)).encode())


def read_codebook(path) -> Codebook:
    f = _parse_kv(path)
    try:
        N, M = _parse_number(f["N"], np.int64), _parse_number(f["M"], np.int64)
        centroids = _parse_values(f["centroids"], np.float64).reshape(N, M)
        sizes = _parse_values(f["sizes"], np.float64)
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
        lines.append(f"{label} {_format_rows(prior, 1, '%.17g').rstrip()} {model_path}")
    write_atomic(path, ("\n".join(lines) + "\n").encode())


def read_bundle(path) -> ClassifierBundle:
    """Model paths are relative to the manifest's directory unless absolute."""
    lines = [ln for ln in _read_lines(path) if ln.strip()]
    if not lines or lines[0].strip() != BUNDLE_MAGIC.encode():
        raise InputError(f"{path}: not a bundle manifest")
    entries = []
    for ln in lines[1:]:
        parts = ln.split(None, 2)
        if len(parts) != 3 or b"\0" in ln:  # no path holds a NUL byte
            raise InputError(f"{path}: malformed bundle line {ln.decode()!r}")
        label, prior, model_path = (part.decode() for part in parts)
        try:
            prior = _parse_number(prior, np.float64)
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
