"""Problem instances for noisy sparse linear observations y = X beta + eps.

Types here are immutable after construction.  All storage is double
precision: the bounds computed downstream span hundreds of orders of
magnitude and single precision underflows.  A support's column space is held
as the orthonormal basis Q of ``column_space_basis`` (Pi_F = Q Q^T), and
``residual_energy`` computes ||(I - Pi_F) v||^2 from it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .errors import ValidationError
from .rng import KIND_DESIGN, KIND_NOISE, stream

#: Relative rank cutoff of ``column_space_basis``, scaled by the largest
#: column norm of the submatrix.
DEFAULT_RANK_TOLERANCE = 1e-10


@dataclass(frozen=True)
class SparsityPattern:
    """An ordered set of column indices inside an ambient dimension p.

    ``indices`` is strictly increasing with every entry in [0, p).
    """

    indices: tuple[int, ...]
    p: int

    def __post_init__(self):
        if self.p < 1:
            raise ValidationError(f"ambient dimension must be positive, got p={self.p}")
        prev = -1
        for i in self.indices:
            if not isinstance(i, (int, np.integer)):
                raise ValidationError(f"pattern index {i!r} is not an integer")
            if i <= prev:
                raise ValidationError(f"indices must be strictly increasing, got {self.indices}")
            if i < 0 or i >= self.p:
                raise ValidationError(f"index {i} outside [0, {self.p})")
            prev = i
        object.__setattr__(self, "indices", tuple(int(i) for i in self.indices))

    def __len__(self) -> int:
        return len(self.indices)


def make_pattern(indices: Sequence[int], p: int) -> SparsityPattern:
    """Build the canonical (sorted) pattern; duplicates or range errors raise."""
    idx = sorted(int(i) for i in indices)
    if len(set(idx)) != len(idx):
        raise ValidationError(f"duplicate indices in {list(indices)}")
    return SparsityPattern(indices=tuple(idx), p=p)


def pattern_difference(a: SparsityPattern, b: SparsityPattern) -> SparsityPattern:
    """Indices in ``a`` but not in ``b``; cardinality is the overlap deficit d."""
    if a.p != b.p:
        raise ValidationError(f"ambient dimensions differ: {a.p} vs {b.p}")
    b_set = set(b.indices)
    kept = tuple(i for i in a.indices if i not in b_set)
    return SparsityPattern(indices=kept, p=a.p)


@dataclass(frozen=True)
class SparseSignal:
    """Signal values on an exact support: no stored value is zero."""

    pattern: SparsityPattern
    values: np.ndarray = field(repr=False)

    def __post_init__(self):
        vals = np.asarray(self.values, dtype=float)
        if vals.ndim != 1 or vals.shape[0] != len(self.pattern):
            raise ValidationError(
                f"values shape {vals.shape} does not match support size {len(self.pattern)}"
            )
        if vals.shape[0] == 0:
            raise ValidationError("signal support must be nonempty")
        if not np.all(np.isfinite(vals)):
            raise ValidationError("signal values must be finite")
        if np.any(vals == 0.0):
            raise ValidationError("signal values must be exactly nonzero on the support")
        vals = vals.copy()
        vals.flags.writeable = False
        object.__setattr__(self, "values", vals)

    def values_on(self, sub: SparsityPattern) -> np.ndarray:
        """Values restricted to ``sub``, which must be contained in the support."""
        lookup = {i: v for i, v in zip(self.pattern.indices, self.values)}
        missing = [i for i in sub.indices if i not in lookup]
        if missing:
            raise ValidationError(f"indices {missing} are not in the signal support")
        return np.array([lookup[i] for i in sub.indices], dtype=float)


def flat_signal(pattern: SparsityPattern, beta_min: float) -> SparseSignal:
    """The flat signal beta_i = beta_min on the support (worst case per bound)."""
    if beta_min <= 0:
        raise ValidationError(f"beta_min must be positive, got {beta_min}")
    return SparseSignal(pattern=pattern, values=np.full(len(pattern), float(beta_min)))


@dataclass(frozen=True)
class DesignMatrix:
    """An n x p measurement matrix with finite entries."""

    entries: np.ndarray = field(repr=False)

    def __post_init__(self):
        mat = np.asarray(self.entries, dtype=float)
        if mat.ndim != 2:
            raise ValidationError(f"design must be a matrix, got ndim={mat.ndim}")
        if not np.all(np.isfinite(mat)):
            raise ValidationError("design entries must be finite")
        mat = mat.copy()
        mat.flags.writeable = False
        object.__setattr__(self, "entries", mat)

    @property
    def n(self) -> int:
        return self.entries.shape[0]

    @property
    def p(self) -> int:
        return self.entries.shape[1]

    def submatrix(self, pattern: SparsityPattern) -> np.ndarray:
        if pattern.p != self.p:
            raise ValidationError(f"pattern ambient {pattern.p} != design p {self.p}")
        return self.entries[:, list(pattern.indices)]


def gaussian_design(n: int, p: int, seed: int) -> DesignMatrix:
    """i.i.d. standard-normal design from the counter-based stream keyed by seed.

    Identical (n, p, seed) gives byte-identical matrices.
    """
    if n < 1 or p < 1:
        raise ValidationError(f"need n, p >= 1, got n={n}, p={p}")
    rng = stream(seed, KIND_DESIGN)
    return DesignMatrix(entries=rng.standard_normal((n, p)))


@dataclass(frozen=True)
class ProblemInstance:
    """One observation y = X_T beta_T + eps with unit noise variance."""

    design: DesignMatrix
    signal: SparseSignal
    observation: np.ndarray = field(repr=False)

    def __post_init__(self):
        if self.signal.pattern.p != self.design.p:
            raise ValidationError(
                f"signal ambient {self.signal.pattern.p} != design p {self.design.p}"
            )
        y = np.asarray(self.observation, dtype=float)
        if y.ndim != 1 or y.shape[0] != self.design.n:
            raise ValidationError(
                f"observation length {y.shape} != measurement count {self.design.n}"
            )
        if not np.isfinite(y).all():
            raise ValidationError("observation must be finite")
        y = y.copy()
        y.flags.writeable = False
        object.__setattr__(self, "observation", y)

    @property
    def n(self) -> int:
        return self.design.n

    @property
    def p(self) -> int:
        return self.design.p

    @property
    def k(self) -> int:
        return len(self.signal.pattern)

    @property
    def true_pattern(self) -> SparsityPattern:
        return self.signal.pattern


def synthesize_observation(
    design: DesignMatrix,
    signal: SparseSignal,
    noise_seed: int,
    noiseless: bool = False,
) -> np.ndarray:
    """Return X_T beta_T + eps, eps i.i.d. standard normal (zero when noiseless)."""
    if signal.pattern.p != design.p:
        raise ValidationError(f"signal ambient {signal.pattern.p} != design p {design.p}")
    noise = 0.0 if noiseless else stream(noise_seed, KIND_NOISE).standard_normal(design.n)
    return observe(design, signal, noise)


def observe(design: DesignMatrix, signal: SparseSignal, noise: float | np.ndarray) -> np.ndarray:
    """X_T beta_T + noise.  Finite inputs whose sum overflows double precision
    raise ``ValidationError``."""
    with np.errstate(over="ignore", invalid="ignore"):  # an overflow is named below
        y = design.submatrix(signal.pattern) @ signal.values + noise
    if not np.isfinite(y).all():
        raise ValidationError("observation overflows double precision")
    return y


def column_space_basis(sub: np.ndarray) -> np.ndarray:
    """Orthonormal basis Q of col(sub) via thin SVD, truncated at the rank
    tolerance; the orthogonal projector onto col(sub) is Q Q^T, held as Q.

    Singular values at or below ``DEFAULT_RANK_TOLERANCE`` times the largest
    column norm are dropped, so duplicate or dependent columns span only the
    numerically spanned subspace.  An empty or all-zero submatrix has rank 0.

    ``sub`` may also be a stack of shape (..., n, m).  Each matrix gets the
    same rule from one batched SVD, and the result has shape
    (..., n, min(n, m)): each matrix's basis, followed by zero columns up to
    the common width.  Projection energies ``||basis.T @ y||^2`` are the same
    either way, because the zero columns add exact zeros.
    """
    subs = sub if sub.ndim > 2 else sub[None]
    n, m = subs.shape[-2:]
    if n == 0 or m == 0:
        return np.zeros((*sub.shape[:-1], 0))
    scale = np.max(np.linalg.norm(subs, axis=-2), axis=-1)
    u, s, _ = np.linalg.svd(subs, full_matrices=False)
    # s is sorted in decreasing order, so the mask keeps a prefix; a zero
    # matrix (scale 0, every s exactly 0) keeps nothing.
    kept = s > DEFAULT_RANK_TOLERANCE * scale[..., None]
    if sub.ndim > 2:
        return u * kept[..., None, :]
    return u[0, :, : int(np.sum(kept))]


def build_projector(design: DesignMatrix, pattern: SparsityPattern) -> np.ndarray:
    """The ``column_space_basis`` of X_F: Q with Pi_F = Q Q^T.

    The empty pattern yields an n x 0 basis (the zero projector).
    """
    return column_space_basis(design.submatrix(pattern))


def residual_energy(basis: np.ndarray, v: np.ndarray) -> float:
    """||(I - Q Q^T) v||^2 for an orthonormal basis Q, from the explicit
    residual: the one residual kernel, shared by the decoder and the bounds."""
    v = np.asarray(v, dtype=float)
    if v.shape != basis.shape[:1]:
        raise ValidationError(f"vector shape {v.shape} != ({basis.shape[0]},)")
    resid = v - basis @ (basis.T @ v)
    return float(resid @ resid)


def pattern_count(p: int, k: int) -> int:
    """C(p, k): the number of candidate supports the exhaustive decoder scores."""
    if k < 0 or k > p:
        raise ValidationError(f"need 0 <= k <= p, got k={k}, p={p}")
    return math.comb(p, k)
