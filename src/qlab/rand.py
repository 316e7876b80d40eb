"""Seeded random objects: states, unitaries, projectors, arrangements.

Everything routes through a PCG64 generator so a fixed seed reproduces the
same objects on every run. Functions accept either a seed or a Generator.

A random arrangement is proven once: its weighted rank-one terms are summed
into one accumulator, and only the mixture gets the O(N^2) result checks.
"""

from __future__ import annotations

import numpy as np

from .arrangement import ExperimentalArrangement, _mixed
from .screens import ScreenConfiguration


def make_rng(seed: int | np.random.Generator) -> np.random.Generator:
    if isinstance(seed, np.random.Generator):
        return seed
    return np.random.Generator(np.random.PCG64(seed))


def random_state_vector(dim: int, rng: int | np.random.Generator) -> np.ndarray:
    """Normalized complex vector, Gaussian direction."""
    rng = make_rng(rng)
    v = rng.normal(size=dim) + 1j * rng.normal(size=dim)
    return v / np.linalg.norm(v)


def _haar_columns(dim: int, rank: int, rng: int | np.random.Generator) -> np.ndarray:
    """The first `rank` columns of random_unitary(dim, rng), in O(dim^2 rank).

    Draws the same full Gaussian matrix, so the generator ends in the same
    state, but takes the QR of its first `rank` columns only. Householder QR
    builds column k of Q from the first k columns of the input, so the
    columns agree with the full route up to rounding. Only the kept columns
    are stored as complex numbers: normal() never returns -0.0, so filling
    real and imaginary parts gives a + 1j*b bit for bit.
    """
    rng = make_rng(rng)
    z = np.empty((dim, rank), dtype=np.complex128, order="F")
    z.real = rng.normal(size=(dim, dim))[:, :rank]
    z.imag = rng.normal(size=(dim, dim))[:, :rank]
    q, r = np.linalg.qr(z)
    d = np.diagonal(r)
    q *= d / np.abs(d)
    return q


def random_unitary(dim: int, rng: int | np.random.Generator) -> np.ndarray:
    """Haar-distributed unitary via QR with phase correction (Mezzadri 2007)."""
    return _haar_columns(dim, dim, rng)


def random_projector(dim: int, rank: int, rng: int | np.random.Generator) -> np.ndarray:
    """Rank-r projector C C^dagger, C the first r columns of a Haar unitary.

    It uses the same draws as random_unitary(dim, rng), but a QR of r
    columns only. The result therefore differs from the projector built
    from the full unitary's columns at rounding level (about 2e-16).
    """
    if not 0 < rank <= dim:
        raise ValueError(f"rank must be in 1..{dim}, got {rank}")
    cols = _haar_columns(dim, rank, rng)
    return cols @ cols.conj().T


def random_orthogonal_family(
    dim: int, rng: int | np.random.Generator, parts: int | None = None
) -> list[np.ndarray]:
    """Pairwise orthogonal projectors splitting one random orthonormal basis."""
    rng = make_rng(rng)
    if parts is None:
        parts = int(rng.integers(2, min(dim, 5) + 1)) if dim >= 2 else 1
    if not 1 <= parts <= dim:
        raise ValueError(f"parts must be in 1..{dim}, got {parts}")
    u = random_unitary(dim, rng)
    bounds = sorted(rng.choice(np.arange(1, dim), size=parts - 1, replace=False).tolist()) if parts > 1 else []
    edges = [0] + bounds + [dim]
    family = []
    for a, b in zip(edges[:-1], edges[1:]):
        cols = u[:, a:b]
        family.append(cols @ cols.conj().T)
    return family


def _weighted_outer(weight: float, v: np.ndarray) -> np.ndarray:
    """weight * |v><v|, scaled in place: the bits of weight * np.outer(v, v.conj())."""
    m = np.outer(v, v.conj())
    m *= weight
    return m


def random_arrangement(
    shape: ScreenConfiguration,
    rng: int | np.random.Generator,
    terms: int | None = None,
    label: str | None = None,
) -> ExperimentalArrangement:
    """Random valid arrangement: a Dirichlet-weighted mixture of rank-one terms.

    Draws the weights, then one unit vector per term, and sums w_i |v_i><v_i|
    with no per-term arrangement or check: each term is valid by construction,
    and is scaled where it is made, so no weighted copy of it is held.
    """
    rng = make_rng(rng)
    if terms is None:
        terms = int(rng.integers(1, 5))
    if terms < 1:
        raise ValueError(f"terms must be positive, got {terms}")
    weights = rng.dirichlet(np.ones(terms)) if terms > 1 else np.ones(1)
    return _mixed(shape, (_weighted_outer(w, random_state_vector(shape.dimension, rng)) for w in weights), label)
