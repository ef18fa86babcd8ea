"""Seeded inputs for the lvlm benchmark: planted state fields, emissions,
planted parameters, and writers for lvlm's text file formats.

Everything here uses numpy only, so a change inside lvlm (for example to
its Gibbs sampler or its file writers) cannot change what lvlm is given.
Floats are written with `repr`, the shortest text that reads back to the
same double, so the files lvlm parses hold exactly the generated values.
"""

from __future__ import annotations

from itertools import permutations
from pathlib import Path

import numpy as np


def blocky_states(rng, shape, n_states, block):
    """Planted state field: axis-aligned blocks of side `block` with random
    states, each state on an equal share of the blocks (so every state is
    present). High inertia, like the images lvlm is meant for."""
    coarse_shape = tuple(-(-n // block) for n in shape)
    coarse = rng.permutation(np.arange(int(np.prod(coarse_shape))) % n_states).reshape(coarse_shape)
    for axis in range(len(shape)):
        coarse = np.repeat(coarse, block, axis=axis)
    return np.ascontiguousarray(coarse[tuple(slice(0, n) for n in shape)], dtype=np.int64)


def categorical_emission(rng, states, B):
    """One symbol per node drawn from row B[state]."""
    cdf = np.cumsum(B, axis=1)
    u = rng.random(size=states.shape)
    return np.minimum((u[..., None] > cdf[states]).sum(axis=-1), B.shape[1] - 1)


def gaussian_emission(rng, states, mu, scale=1.0):
    """One vector per node: mu[state] plus isotropic noise of std `scale`."""
    return mu[states] + scale * rng.standard_normal(size=states.shape + (mu.shape[1],))


def dominant_rows(n_states, M, shift=0, p=0.7):
    """Emission matrix whose state j mostly emits symbol (j + shift) mod M."""
    B = np.full((n_states, M), (1.0 - p) / (M - 1))
    B[np.arange(n_states), (np.arange(n_states) + shift) % M] = p
    return B


def sticky_potentials(n_states, self_weight=0.9):
    """Row-stochastic potentials that favour equal neighbours."""
    A = np.full((n_states, n_states), (1.0 - self_weight) / max(1, n_states - 1))
    np.fill_diagonal(A, self_weight)
    return A


def state_agreement(found, planted, n_states):
    """Share of nodes whose found state equals the planted one under the
    state relabelling that maximises it (learned state order is arbitrary)."""
    joint = np.bincount((planted.ravel() * n_states + found.ravel()), minlength=n_states * n_states)
    joint = joint.reshape(n_states, n_states)
    best = max(joint[np.arange(n_states), p].sum() for p in permutations(range(n_states)))
    return best / planted.size


def param_errors(learned_rows, planted_rows):
    """Per-state L2 distance between learned and planted rows, under the row
    permutation that minimises the largest one (learned state order is
    arbitrary)."""
    n = len(planted_rows)
    return min(
        (np.linalg.norm(learned_rows[list(p)] - planted_rows, axis=1) for p in permutations(range(n))),
        key=lambda e: e.max(),
    )


# -- lvlm text formats ----------------------------------------------------------

def _floats(a):
    return " ".join(map(repr, np.asarray(a, dtype=np.float64).ravel().tolist()))


def write_lattice(path, values, real):
    """LVLM-LATTICE file: u8 symbols (one lattice row per line) or f64xM
    vectors (one node per line)."""
    lengths = values.shape[:-1] if real else values.shape
    if real:
        M = values.shape[-1]
        header = f"LVLM-LATTICE {len(lengths)} {' '.join(map(str, lengths))} f64x{M}\n"
        flat = values.reshape(-1).tolist()
        body = ((" ".join(["%r"] * M) + "\n") * (len(flat) // M)) % tuple(flat)
    else:
        header = f"LVLM-LATTICE {len(lengths)} {' '.join(map(str, lengths))} u8\n"
        body = "".join(" ".join(map(str, row)) + "\n" for row in values.reshape(-1, lengths[-1]).tolist())
    Path(path).write_text(header + body)
    return Path(path).stat().st_size


def read_lattice(path):
    """(lengths, dtype, flat values) of an LVLM-LATTICE file; raises ValueError
    when the header or the value count is wrong."""
    text = Path(path).read_text()
    head, _, body = text.partition("\n")
    parts = head.split()
    if len(parts) < 3 or parts[0] != "LVLM-LATTICE":
        raise ValueError(f"{path}: not a lattice file")
    d = int(parts[1])
    lengths, dtype = tuple(int(x) for x in parts[2:2 + d]), parts[2 + d]
    values = np.fromstring(body, sep=" ")
    per_node = int(dtype[4:]) if dtype.startswith("f64x") else 1
    if values.size != int(np.prod(lengths)) * per_node:
        raise ValueError(f"{path}: {values.size} values for shape {lengths} {dtype}")
    return lengths, dtype, values


def write_real_model(path, A, mu, sigma, d, w):
    """Model file for lvlm's Gaussian variant with w = w_e = w_l."""
    N, M = mu.shape
    lines = [
        "variant=real", f"N={N}", f"M={M}", f"d={d}", f"w={w}", f"w_e={w}", f"w_l={w}",
        "alpha=1.0", f"A={_floats(A)}", f"mu={_floats(mu)}", f"sigma={_floats(sigma)}",
    ]
    Path(path).write_text("\n".join(lines) + "\n")


def read_model_rows(path, key):
    """The whitespace-separated floats under `key` in a key=value model file."""
    for line in Path(path).read_text().splitlines():
        k, _, v = line.partition("=")
        if k.strip() == key:
            return np.array(v.split(), dtype=np.float64)
    raise ValueError(f"{path}: no {key}= line")


def write_bundle(path, entries):
    """entries: (label, prior, model file name relative to the bundle)."""
    lines = ["LVLM-BUNDLE"] + [f"{label} {prior!r} {model}" for label, prior, model in entries]
    Path(path).write_text("\n".join(lines) + "\n")
