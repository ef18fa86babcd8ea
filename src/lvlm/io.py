"""File formats: lattice files, PGM images, model files, bundle manifests.

Lattice file: text header `LVLM-LATTICE <d> <len_1> ... <len_d> <dtype>`
with dtype u8 (symbol/state indices) or f64x<M> (real vectors), followed by
whitespace-separated row-major values. A decoded state lattice is a
discrete `SymbolLattice` (`StateLattice`) and is written like any other. 2D
u8 lattices are also read from PGM (P2 or P5) and written as P5. Model and
codebook files are key=value lines (split at ASCII line breaks, no key
twice), matrices row-major. Numbers read from files and CLI flags have one
ASCII syntax (`_parse_values`, that of np.fromstring): floats are parsed
by orjson, which rounds as np.fromstring does, in chunks of bounded size;
a chunk orjson rejects, or one holding a bare `-0` (an integer 0 in JSON),
goes to np.fromstring, so both accept the same text. A lattice file is
read once: its header words are found by offset, and its body is parsed
from a view of the file's bytes; a float body chunk by chunk into one array
of the value count its header gives, a u8 body (or P2 raster) of one-digit
values by byte arithmetic (`_parse_u8_body`), any other copied once for
np.fromstring. Numbers written are formatted by orjson (`_format_rows`), in
pieces of bounded size, each dumped flat and its separators turned into
spaces and line breaks in one numpy pass: integers in decimal, floats as
the shortest decimal that reads back as the same double; a lattice of at
most 10 symbols or states by byte arithmetic (`_format_digits`). Writes go
through a temp file and a rename, a command's outputs all or none
(`all_or_none`).
"""

from __future__ import annotations

import errno
import itertools
import math
import os
import re
import tempfile
from contextlib import contextmanager
from pathlib import Path

import numpy as np
import orjson

from .classify import ClassEntry, ClassifierBundle
from .discrete import DiscreteModel
from .errors import InputError
from .lattice import LatticeShape, StateLattice, SymbolLattice
from .real import RealModel
from .vq import Codebook

LATTICE_MAGIC = "LVLM-LATTICE"


# numbers formatted per orjson call: bounds the text of a file held at once
_FORMAT_VALUES = 1 << 14


def _format_rows(rows):
    """The numbers of the 2-d array `rows`, a line per row (an empty line for
    an empty row), in pieces of about _FORMAT_VALUES numbers cut at whole
    rows: integers in decimal, floats as the shortest decimal that reads back
    as the same double. Each piece is dumped flat, and its separators made
    spaces, every row's last a line break."""
    rows = np.ascontiguousarray(rows)
    n, m = rows.shape
    if not m:
        yield b"\n" * n
        return
    step = max(1, _FORMAT_VALUES // m)
    for start in range(0, n, step):
        text = orjson.dumps(rows[start:start + step].ravel(), option=orjson.OPT_SERIALIZE_NUMPY)  # [1,2,3,4]
        text = np.frombuffer(text, np.uint8).copy()
        commas = np.flatnonzero(text == ord(","))
        text[commas] = ord(" ")
        text[commas[m - 1::m]] = ord("\n")
        text[-1] = ord("\n")  # the closing ']'
        yield text[1:].tobytes()


def _format_digits(rows):
    """`_format_rows` of integer rows in [0, 9] with at least one column, by
    byte arithmetic: each value's digit and a space, the row's last space a
    line break, in pieces of about _FORMAT_VALUES numbers."""
    n, m = rows.shape
    step = max(1, _FORMAT_VALUES // m)
    for start in range(0, n, step):
        piece = rows[start:start + step]
        text = np.full((len(piece), 2 * m), ord(" "), dtype=np.uint8)
        text[:, 0::2] = piece
        text[:, 0::2] += ord("0")
        text[:, -1] = ord("\n")
        yield text.tobytes()


def write_atomic(path, data):
    """Write `data`, bytes or an iterable of bytes, to `path` through a temp
    file beside it and a rename."""
    with all_or_none([path]) as (tmp,), open(tmp, "wb") as fh:
        fh.writelines([data] if isinstance(data, bytes) else data)


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
    dtype, per_row = ("u8", lengths[-1]) if lat.kind == "discrete" else (f"f64x{lat.M}", lat.M)
    header = f"{LATTICE_MAGIC} {lat.shape.d} {' '.join(map(str, lengths))} {dtype}\n"
    rows = lat.values.reshape(-1, per_row)
    body = _format_digits(rows) if lat.kind == "discrete" and lat.M <= 10 else _format_rows(rows)
    write_atomic(path, itertools.chain([header.encode()], body))


# a sign with no digit after it, which np.fromstring reads as 0 or joins to
# the next number in integer mode
_LONE_SIGN = re.compile(rb"[+-](?![0-9])")


def _parse_values(text: bytes | memoryview | str, dtype) -> np.ndarray:
    """The ASCII-whitespace-separated numbers (np.int64 or np.float64) of
    `text`, exactly as np.fromstring reads them; ValueError where one is
    malformed or not ASCII, or an integer reaches 2^63 - 1 (np.fromstring
    saturates there)."""
    if isinstance(text, str):
        text = text.encode("ascii")  # UnicodeEncodeError, a ValueError
    if dtype is np.float64:
        return np.concatenate([np.empty(0), *map(_parse_floats, _chunks(text))])
    text = bytes(text)  # np.fromstring takes no memoryview
    if not text or text.isspace():  # which np.fromstring reads as one 0
        return np.empty(0, dtype=dtype)
    if (b"-" in text or b"+" in text) and _LONE_SIGN.search(text):
        raise ValueError("sign without digits")
    values = np.fromstring(text, dtype=np.int64, sep=" ")
    if values.max(initial=0) == np.iinfo(np.int64).max:
        raise ValueError("integer out of range")
    return values


def _parse_u8_body(text: bytes | memoryview, count: int) -> np.ndarray:
    """The integers of `text` (see `_parse_values`), where `count` is how many
    the caller expects: text of 2·count or 2·count − 1 bytes whose even
    offsets are digits and odd ones ASCII whitespace is read by byte
    arithmetic, with no copy of it; any other text by `_parse_values`."""
    if len(text) in (2 * count, 2 * count - 1):
        data = np.frombuffer(text, dtype=np.uint8)
        digits, gaps = data[0::2] - np.uint8(ord("0")), data[1::2]  # a byte below '0' wraps past 9
        # ASCII whitespace: ' ' and '\t' to '\r'
        if digits.max(initial=0) <= 9 and ((gaps == ord(" ")) | (gaps - np.uint8(ord("\t")) <= 4)).all():
            return digits.astype(np.int64)
    return _parse_values(text, np.int64)


# bytes of text per float parse, about 12,000 17-digit values: bounds the
# parse's transient memory (a Python float per value) whatever the file size
_CHUNK_BYTES = 1 << 18
_ASCII_WHITESPACE = b" \t\n\r\x0b\x0c"
# a whole run of ASCII whitespace: none right before it
_SPACE_RUN = re.compile(rb"(?<!\s)\s+")


def _chunks(text: bytes | memoryview):
    """Views of `text` cut at runs of ASCII whitespace into pieces of about
    _CHUNK_BYTES, with no whitespace at either end; none empty (none at all
    for empty or all-whitespace text, which np.fromstring reads as one -1)."""
    text = memoryview(text)
    lead = _SPACE_RUN.match(text)
    start = lead.end() if lead else 0
    while start < len(text):
        cut = _SPACE_RUN.search(text, start + _CHUNK_BYTES)
        if cut is None:  # the last piece, which may end in whitespace
            end = len(text)
            while text[end - 1] in _ASCII_WHITESPACE:
                end -= 1
            yield text[start:end]
            return
        yield text[start:cut.start()]
        start = cut.end()


# ASCII whitespace to ',', so that a run of numbers reads as a JSON array,
# and every other byte that is not part of a JSON number to '#', which JSON
# rejects
_AS_JSON = bytes(ch if ch in b"0123456789+-.eE" else b"#,"[ch in _ASCII_WHITESPACE] for ch in range(256))


def _parse_floats(chunk: memoryview) -> np.ndarray:
    """The float64s of `chunk` (no whitespace at either end, not empty):
    orjson's where it reads the chunk as an array of JSON numbers, and
    np.fromstring's otherwise. Both round correctly, so they give the same
    doubles for JSON numbers, except -0, which JSON reads as the integer 0.
    The chunk's text is copied once, into the translated array orjson reads."""
    framed = bytearray(len(chunk) + 2)
    framed[1:-1] = chunk
    framed = framed.translate(_AS_JSON)
    framed[0], framed[-1] = b"[]"
    try:
        numbers = orjson.loads(framed)
    except orjson.JSONDecodeError:  # doubled whitespace, inf, nan, .5, +1, 01, malformed text
        return np.fromstring(bytes(chunk), dtype=np.float64, sep=" ")
    values = np.fromiter(numbers, dtype=np.float64, count=len(numbers))
    if (values == 0).any() and (b"-0," in framed or framed.endswith(b"-0]")):
        return np.fromstring(bytes(chunk), dtype=np.float64, sep=" ")  # JSON reads -0 as the integer 0
    return values


def _parse_floats_into(text: bytes | memoryview, count: int) -> tuple[np.ndarray, int]:
    """(values, n): the float64s of `text` (see `_parse_values`) parsed a
    chunk at a time into one array of `count` values, and how many numbers
    the text holds; `values` is whole only when n == count. The array never
    outgrows the numbers the text can hold, one per two bytes."""
    values = np.empty(min(count, len(text) // 2 + 1))
    n = 0
    for chunk in _chunks(text):
        parsed = _parse_floats(chunk)
        dest = values[n:n + len(parsed)]
        dest[:] = parsed[:len(dest)]
        n += len(parsed)
        del parsed, dest  # not held while the next chunk is parsed
    return values, n


def _parse_number(token: bytes | str, dtype):
    """The one number of `token` (see `_parse_values`), as a Python int or float."""
    try:
        (number,) = _parse_values(token, dtype).tolist()
    except ValueError as e:
        raise ValueError(f"{token!r} is not one number ({e})") from None
    return number


# a header word: a run of bytes that are not ASCII whitespace
_WORD = re.compile(rb"\S+")


def read_lattice(path, M: int | None = None) -> SymbolLattice:
    data = Path(path).read_bytes()
    words = _WORD.finditer(data)  # the header's, found one at a time
    magic = next(words, None)
    if magic is None or magic[0] != LATTICE_MAGIC.encode():
        raise InputError(f"{path}: not a lattice file")
    try:
        (word,) = itertools.islice(words, 1)
        d = max(_parse_number(word[0], np.int64), 0)  # d < 1 leaves no lengths, which LatticeShape rejects
        fields = [word[0] for word in itertools.islice(words, d + 1)]  # the lengths, the dtype
        shape = LatticeShape(tuple(_parse_number(x, np.int64) for x in fields[:d]))
        dtype = fields[d].decode()
        m = _parse_number(fields[d][4:], np.int64) if dtype.startswith("f64x") else 0
    except (IndexError, ValueError, OverflowError) as e:
        raise InputError(f"{path}: malformed lattice header ({e})") from e
    if dtype != "u8" and m < 1:
        raise InputError(f"{path}: unknown dtype {dtype!r}")
    body = next(words, None)  # the first value, if any
    text = memoryview(data)[body.start():] if body else b""
    count = shape.node_count * max(m, 1)
    try:
        if m:
            arr, got = _parse_floats_into(text, count)
        else:
            arr = _parse_u8_body(text, count)
            got = arr.size
    except ValueError as e:
        raise InputError(f"{path}: malformed {dtype} value ({e})") from e
    if got != count:
        raise InputError(f"{path}: expected {count} values, got {got}")
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
            raster = _parse_u8_body(memoryview(data)[pos:], width * height)
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
    """A key=value line per (key, value): a word, or numbers row-major."""
    for k, v in pairs:
        if isinstance(v, str):
            yield f"{k}={v}\n".encode()
        else:
            yield f"{k}=".encode()
            yield from _format_rows(np.reshape(v, (1, -1)))


def write_model(path, model: DiscreteModel | RealModel):
    arrays = ("A", "B") if isinstance(model, DiscreteModel) else ("A", "mu", "sigma")
    keys = ("N", "M", "d", "w", "w_e", "w_l", "alpha") + arrays
    write_atomic(path, _kv_lines([("variant", model.kind)] + [(k, getattr(model, k)) for k in keys]))


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
    pairs = [("variant", "codebook"), ("N", codebook.N), ("M", codebook.M),
             ("centroids", codebook.centroids), ("sizes", codebook.sizes.astype(np.int64))]
    write_atomic(path, _kv_lines(pairs))


def read_codebook(path) -> Codebook:
    f = _parse_kv(path)
    if f.get("variant") != b"codebook":
        raise InputError(f"{path}: not a codebook file (no variant=codebook)")
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
    lines = [BUNDLE_MAGIC.encode() + b"\n"]
    for label, prior, model_path in entries:
        model_path = os.fspath(model_path)
        if not label or "\0" in label or any(ch.isspace() for ch in label):
            raise InputError(f"class label {label!r} must be non-empty, without whitespace or NUL")
        # read_bundle splits lines at ASCII line breaks and fields at ASCII whitespace
        if not model_path or model_path != model_path.strip(_ASCII_WHITESPACE.decode()) \
                or any(ch in model_path for ch in "\n\r\0"):
            raise InputError(f"model path {model_path!r} must be non-empty, without a line break or NUL, "
                             "and not begin or end with whitespace")
        if not (math.isfinite(prior) and prior > 0):
            raise InputError(f"prior {prior!r} of class {label!r} must be finite and > 0")
        lines.append(f"{label} ".encode() + b"".join(_format_rows([[prior]])).rstrip() + f" {model_path}\n".encode())
    write_atomic(path, b"".join(lines))


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
