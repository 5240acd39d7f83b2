"""Sketching primitives: orthonormal bases, shrinked leverage scores, row sampling.

The row sketch samples s rows i.i.d. with replacement from p, each sample
of row u with scale 1/sqrt(s * p_u), which makes E[S S^T] = I.  So it is
fully described by per-row counts k_u, and is stored with one column per
sampled row at scale sqrt(k_u / (s p_u)): the same S S^T, in at most m
columns.  Applying S^T to a matrix is a scaled row gather.
"""

from dataclasses import dataclass

import numpy as np

__all__ = [
    "RANK_TOL_FACTOR",
    "SketchMatrix",
    "as_matrix",
    "orthonormal_basis",
    "rank_from_singular_values",
    "shrinked_row_scores",
    "leverage_from_svd",
    "build_sketch",
    "apply_sketch_transpose",
    "embedding_distortion",
]

# Singular values below max(m, n) * sigma_1 * RANK_TOL_FACTOR count as zero.
RANK_TOL_FACTOR = 1e-12


def as_matrix(a, name: str = "matrix") -> np.ndarray:
    """Validate and return ``a`` as a 2-D float64 C-contiguous array.

    Raises ValueError on wrong dimensionality or non-finite entries; this is
    the single entry-type gate used by every operation in the package.
    """
    out = np.ascontiguousarray(a, dtype=np.float64)
    if out.ndim != 2:
        raise ValueError(f"{name} must be 2-D, got shape {out.shape}")
    if out.size and not np.isfinite(out).all():
        raise ValueError(f"{name} contains non-finite entries")
    return out


def rank_from_singular_values(sv, shape) -> int:
    """Numerical rank of a matrix of the given shape from its singular
    values ``sv`` (descending): how many exceed the relative rank
    tolerance, max(shape) * sigma_1 * RANK_TOL_FACTOR."""
    if sv.size == 0 or sv[0] == 0.0:
        return 0
    return int(np.count_nonzero(sv > max(shape) * sv[0] * RANK_TOL_FACTOR))


def orthonormal_basis(a, return_singular_values: bool = False):
    """Orthonormal basis of the column span of ``a`` via thin SVD.

    Returns an (m, r) matrix with orthonormal columns, where r is the
    numerical rank; with return_singular_values, also every singular value
    of ``a`` in descending order, min(m, n) of them, from the same SVD.
    Raises ValueError for an all-zero input, which has no basis.
    """
    a = as_matrix(a)
    if min(a.shape) == 0:
        raise ValueError("cannot build a basis for an empty matrix")
    u, sv, _ = np.linalg.svd(a, full_matrices=False)
    if sv[0] == 0.0:
        raise ValueError("cannot build a basis for the zero matrix")
    r = rank_from_singular_values(sv, a.shape)
    basis = np.ascontiguousarray(u[:, :r])
    return (basis, sv) if return_singular_values else basis


def shrinked_row_scores(u) -> np.ndarray:
    """Shrinked row sampling distribution of a basis-like matrix ``u``.

    score_i = 0.5 * ||row_i(u)||^2 / ||u||_F^2 + 1/(2m).  The result always
    sums to one, whether or not ``u`` has orthonormal columns, and is
    bounded below by 1/(2m).
    """
    u = as_matrix(u, "basis")
    row_sq = np.einsum("ij,ij->i", u, u)
    total = row_sq.sum()
    if total == 0.0:
        raise ValueError("cannot take leverage scores of a zero matrix")
    m = u.shape[0]
    return 0.5 * row_sq / total + 0.5 / m


def leverage_from_svd(sv, vt, shape, rank: int | None = None):
    """Column-space leverage scores, coherence, and the incoherence ratio
    of a matrix of the given shape, from its thin SVD's singular values
    ``sv`` and right factor ``vt``.

    The scores are squared row norms of the right singular factor
    restricted to its top ``rank`` directions (numerical rank if not given),
    so they index columns of the matrix and sum to the rank.  Coherence is
    their maximum; the returned beta is coherence * n / rank, i.e. how far
    the worst column sticks out relative to a perfectly incoherent matrix.

    Returns (scores, coherence, beta).
    """
    if sv.size == 0:
        raise ValueError("leverage scores of an empty matrix are undefined")
    if sv[0] == 0.0:
        raise ValueError("leverage scores of the zero matrix are undefined")
    r = rank_from_singular_values(sv, shape) if rank is None else int(rank)
    if not 1 <= r <= vt.shape[0]:
        raise ValueError(f"rank must be in [1, {vt.shape[0]}], got {r}")
    v = vt[:r].T  # (n, r) row-space basis
    scores = np.einsum("ij,ij->i", v, v)
    coherence = float(scores.max())
    beta = coherence * shape[1] / r
    return scores, coherence, beta


@dataclass(frozen=True)
class SketchMatrix:
    """Sparse row-sampling operator S of shape (n_rows, n_cols).

    Column j has its single nonzero at row indices[j] with value scales[j],
    and stands for counts[j] samples of that row (one each by default), so
    the per-sample scale is scales[j] / sqrt(counts[j]).  Stored as
    index/scale/count vectors; S is only densified on demand.
    """

    n_rows: int
    indices: np.ndarray
    scales: np.ndarray
    counts: np.ndarray | None = None

    def __post_init__(self):
        idx = np.asarray(self.indices, dtype=np.int64)
        sc = np.asarray(self.scales, dtype=np.float64)
        if idx.ndim != 1 or sc.ndim != 1 or idx.size != sc.size or idx.size == 0:
            raise ValueError("indices and scales must be nonempty 1-D vectors of equal length")
        if self.n_rows < 1:
            raise ValueError("n_rows must be >= 1")
        if (idx < 0).any() or (idx >= self.n_rows).any():
            raise ValueError("sketch indices out of range")
        if not np.isfinite(sc).all() or (sc <= 0).any():
            raise ValueError("sketch scales must be finite and positive")
        counts = (np.ones(idx.size, dtype=np.int64) if self.counts is None
                  else np.asarray(self.counts, dtype=np.int64))
        if counts.shape != idx.shape or (counts < 1).any():
            raise ValueError("counts must be positive, one per column")
        object.__setattr__(self, "indices", idx)
        object.__setattr__(self, "scales", sc)
        object.__setattr__(self, "counts", counts)

    @property
    def n_cols(self) -> int:
        return self.indices.size

    @property
    def n_samples(self) -> int:
        """s, the number of samples the sketch stands for."""
        return int(self.counts.sum())

    def dense(self) -> np.ndarray:
        s = np.zeros((self.n_rows, self.n_cols))
        s[self.indices, np.arange(self.n_cols)] = self.scales
        return s


def build_sketch(p, s: int, rng: np.random.Generator) -> SketchMatrix:
    """Draw a row-sampling sketch of s samples from the distribution p.

    p is a probability vector over the rows: nonnegative and summing to
    one within 1e-8.  The per-row counts are k ~ Multinomial(s, p), and the
    sketch has one column per sampled row u, in increasing order, with
    count k_u and scale sqrt(k_u / (s * p_u)).
    """
    p = np.asarray(p, dtype=np.float64)
    if p.ndim != 1 or p.size == 0:
        raise ValueError("p must be a nonempty 1-D probability vector")
    if not np.isfinite(p).all() or (p < 0).any():
        raise ValueError("p must be finite and nonnegative")
    total = p.sum()
    if abs(total - 1.0) > 1e-8:
        raise ValueError(f"p must sum to 1 within 1e-8, got {total!r}")
    if s < 1:
        raise ValueError("sketch size s must be >= 1")
    p_norm = p / total
    counts = rng.multinomial(int(s), p_norm)
    rows = np.flatnonzero(counts)
    scales = np.sqrt(counts[rows] / (s * p_norm[rows]))
    return SketchMatrix(n_rows=p.size, indices=rows, scales=scales,
                        counts=counts[rows])


def apply_sketch_transpose(sketch: SketchMatrix, a) -> np.ndarray:
    """S^T a as a scaled row gather: row j of the result is scales[j] * a[indices[j]]."""
    a = as_matrix(a)
    if a.shape[0] != sketch.n_rows:
        raise ValueError(
            f"sketch expects {sketch.n_rows} rows, matrix has {a.shape[0]}"
        )
    return a[sketch.indices] * sketch.scales[:, None]


def embedding_distortion(sketch: SketchMatrix, basis) -> float:
    """Measured subspace-embedding distortion of the sketch on span(basis).

    ``basis`` must have orthonormal columns (see orthonormal_basis).
    Computes the eigenvalues of (S^T U)^T (S^T U) for U = basis and returns
    max(lambda_max - 1, 1 - lambda_min); 0 means a perfect isometry on the
    span, and S is a (1 +- eps) subspace embedding for it iff the result is
    at most eps.  A sketch with fewer columns than the span dimension has
    distortion >= 1.
    """
    u = as_matrix(basis, "basis")
    t = apply_sketch_transpose(sketch, u)
    gram = t.T @ t
    w = np.linalg.eigvalsh(gram)
    lo = max(float(w[0]), 0.0)
    if t.shape[0] < u.shape[1]:
        lo = 0.0  # operator on the span is rank deficient
    hi = float(w[-1])
    return max(hi - 1.0, 1.0 - lo, 0.0)
