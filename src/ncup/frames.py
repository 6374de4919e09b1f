"""Modular frames: finite spanning families in A^d and their invariants.

A frame is a finite family (tau_n) in A^d.  Analysis maps a vector to its
coefficient vector (<x, tau_n>)_n in A^N, synthesis maps a vector (a_n) of
A^N back via sum_n a_n tau_n, and the frame operator is the d x d module
operator composing the two.  A frame is Parseval when that operator
is the identity, which makes analysis an isometry and gives the exact
reconstruction x = sum_n <x, tau_n> tau_n.

Block b (of size n) of a frame of N vectors is stored as the (N*n, d*n)
matrix T whose row block k is the vector layout of tau_k (see csmodule).
Coefficients are module vectors, so they share the one vector layout, the
(n, N*n) matrix [a_0 | ... | a_(N-1)].  Analysis is then X T^H, synthesis
C T, the frame operator T^H T, the Parseval normalization T S^(-1/2), and
the cross Gram of two frames T W^H.

In a JSON file a frame is a list of vector payloads.  The vector codec
reads and writes them one vector at a time: csmodule._decode_vectors joins
them into one (N, d, n, n) entry stack per block, and _vector_texts writes
the CLI's file text.  to_dict holds each vector's ModuleVector.to_dict.

The support of any module vector, coefficients or not, is decided by a
relative threshold: an entry counts as nonzero when its C*-norm exceeds
rel_tol times the largest entry norm of the vector.
"""

from __future__ import annotations

import numbers

import numpy as np

from .algebra import (
    AlgebraShape,
    _as_count,
    _as_int,
    _as_list,
    _entry_masses,
    _entry_norms,
    _fold,
    _hermitian_part,
    _json_fields,
    _json_int,
    _shape_from_payload,
)
from .csmodule import (
    ModuleOperator,
    ModuleVector,
    _check_same_module,
    _decode_vectors,
    _freeze,
    _module_rank,
    _stack_views,
    _stacks_to_mats,
    op_inv_sqrt,
    random_vector,
)
from .errors import GenerationError, InputError, NotAFrameError, NonParsevalFrameError, SingularOperatorError

__all__ = [
    "ModularFrame",
    "analysis",
    "synthesis",
    "frame_operator",
    "is_parseval",
    "parsevalize",
    "coherence",
    "cross_gram_norms",
    "support",
    "sparsity",
    "random_frame",
    "random_parseval_frame",
]

# The one Parseval decision: a frame counts as Parseval when its frame
# operator is within this of the identity.  is_parseval decides at it,
# files declare and re-verify the claim at it, certificates require it,
# and parsevalize must reach it.
PARSEVAL_TOL = 1e-8

# Default relative threshold separating zero entries from nonzero ones.
SUPPORT_REL_TOL = 1e-8

# Relative singular-value cutoff for every rank decision (see _numeric_rank).
RANK_TOL = 1e-10

PARSEVALIZE_MAX_RETRIES = 50

class ModularFrame:
    """Finite vector family in A^d, stored per block as an (N*n, d*n) matrix."""

    __slots__ = ("shape", "d", "count", "mats", "_residual")

    def __init__(self, shape: AlgebraShape, d: int, blocks) -> None:
        d = _module_rank(d)
        self.mats = _stacks_to_mats(shape, blocks, (None, d))
        self.shape = shape
        self.d = d
        self.count = len(self.mats[0]) // shape.block_dims[0]
        self._residual = None

    @classmethod
    def _from_mats(cls, shape: AlgebraShape, d: int, count: int, mats) -> "ModularFrame":
        frame = cls.__new__(cls)
        frame.shape, frame.d, frame.count = shape, d, count
        frame.mats = tuple(_freeze(m) for m in mats)
        frame._residual = None
        return frame

    @property
    def blocks(self) -> tuple[np.ndarray, ...]:
        """Read-only (N, d, n, n) entry stack per block, a view of `mats`."""
        return _stack_views(self.shape, self.mats, (self.count, self.d))

    @classmethod
    def from_vectors(cls, vectors) -> "ModularFrame":
        vectors = _as_list(vectors, "frame vectors")
        if not vectors:
            raise InputError("a frame needs at least one vector")
        for i, v in enumerate(vectors):
            if not isinstance(v, ModuleVector):
                raise InputError(f"frame vector {i} is not a module vector")
        shape, d = vectors[0].shape, vectors[0].d
        for i, v in enumerate(vectors):
            if v.shape != shape or v.d != d:
                raise InputError(
                    f"frame vector {i} lives in a different module "
                    f"(shape {v.shape.block_dims}, d={v.d})"
                )
        mats = [
            np.vstack([v.mats[b] for v in vectors])
            for b in range(shape.num_blocks)
        ]
        return cls._from_mats(shape, d, len(vectors), mats)

    def vector(self, n: int) -> ModuleVector:
        n = _as_int(n, "frame index")
        if not 0 <= n < self.count:
            raise InputError(f"frame index {n} out of range for count={self.count}")
        return ModuleVector._from_mats(
            self.shape,
            self.d,
            [m[n * size : (n + 1) * size] for size, m in zip(self.shape.block_dims, self.mats)],
        )

    @property
    def vectors(self) -> list[ModuleVector]:
        return [self.vector(n) for n in range(self.count)]

    def __repr__(self) -> str:
        return (
            f"ModularFrame(shape={self.shape.block_dims}, d={self.d}, "
            f"count={self.count})"
        )

    def to_dict(self) -> dict:
        return self._payload([v.to_dict() for v in self.vectors])

    def _payload(self, vectors) -> dict:
        """The frame's JSON payload around the given "vectors" value."""
        return {
            "algebra": self.shape.to_list(),
            "d": int(self.d),
            "vectors": vectors,
            "parseval": bool(is_parseval(self)),
        }

    @classmethod
    def from_dict(cls, payload, where: str = "frame") -> "ModularFrame":
        """Rebuild a frame from its JSON payload.

        "vectors" is a list of vector payloads, read by the vector codec
        (csmodule._decode_vectors) one at a time in file order, so of several
        faults the first faulty vector is named; those the CLI's JSON reader
        decoded (csmodule._vector_hook) only get the algebra and d check.
        The stored "parseval" flag is advisory; when it claims True the frame
        operator is re-verified and a false claim is rejected.
        """
        algebra, d, raw, claimed = _json_fields(payload, where, ("algebra", "d", "vectors", "parseval"))
        shape = _shape_from_payload(algebra, where, "algebra")
        if not _json_int(d) or d < 1:
            raise InputError(f"{where}: 'd' must be a positive integer")
        if not isinstance(raw, list) or not raw:
            raise InputError(f"{where}: 'vectors' must be a nonempty list")
        _, _, blocks = _decode_vectors(raw, lambda i: f"{where}: vector {i}", shape, d)
        frame = cls(shape, d, blocks)
        if not isinstance(claimed, bool):
            raise InputError(f"{where}: 'parseval' must be a boolean")
        if claimed and not is_parseval(frame):
            raise InputError(
                f"{where}: file claims a Parseval frame but the frame operator "
                f"deviates from the identity by more than {PARSEVAL_TOL:g}"
            )
        return frame


def _validate_indices(count: int, indices, name: str) -> np.ndarray:
    """Sorted array of distinct integer indices into range(count)."""
    arr = np.asarray(indices)
    if arr.ndim != 1 or (arr.size and arr.dtype.kind not in "iu"):
        raise InputError(f"{name} indices must be a flat sequence of integers")
    outside = (arr < 0) | (arr >= count)
    if outside.any():
        raise InputError(f"{name} index {arr[outside][0]} out of range 0..{count - 1}")
    out = np.sort(arr).astype(np.int64)
    if (out[1:] == out[:-1]).any():
        raise InputError(f"{name} contains repeated indices")
    return out


def analysis(frame: ModularFrame, x: ModuleVector) -> ModuleVector:
    """Coefficient vector (<x, tau_n>)_n in A^N."""
    _check_same_module(frame, x)
    return ModuleVector._from_mats(
        frame.shape, frame.count, [xm @ t.conj().T for xm, t in zip(x.mats, frame.mats)]
    )


def synthesis(frame: ModularFrame, coeffs: ModuleVector) -> ModuleVector:
    """Left combination sum_n a_n tau_n of a coefficient vector (a_n) in A^N."""
    if frame.shape != coeffs.shape:
        raise InputError(
            f"coefficients have shape {coeffs.shape.block_dims}, frame has "
            f"{frame.shape.block_dims}"
        )
    if frame.count != coeffs.d:
        raise InputError(
            f"coefficient count {coeffs.d} does not match frame size {frame.count}"
        )
    return ModuleVector._from_mats(
        frame.shape, frame.d, [c @ t for c, t in zip(coeffs.mats, frame.mats)]
    )


def frame_operator(frame: ModularFrame) -> ModuleOperator:
    """The d x d operator with entries S_ij = sum_n (tau_n_i)* tau_n_j.

    Acting on the right it realizes x -> sum_n <x, tau_n> tau_n.
    """
    return ModuleOperator._from_mats(
        frame.shape, frame.d, [t.conj().T @ t for t in frame.mats]
    )


def _parseval_residual(frame: ModularFrame) -> float:
    """Bound on the operator norm of S - I that gives the operator norm's Parseval verdict.

    Per block, D = (S + S^*)/2 - I is the Hermitian part of the defect
    (by algebra._hermitian_part, so finite for a finite S).  When the
    largest Frobenius norm ||D||_F, from the masses of
    algebra._entry_masses, is at most PARSEVAL_TOL (1 - 2^-20), the frame
    is Parseval, since ||D||_2 <= ||D||_F, and that Frobenius norm is the
    residual.  Otherwise the residual is the operator norm itself, the
    largest ||D||_2 over the blocks from one call of the norm kernel,
    algebra._entry_norms: so a frame that is not Parseval is always
    measured exactly.  So the residual is an upper bound on ||D||_2 (on
    the exact path, ||D||_2 itself), and it is at most PARSEVAL_TOL
    exactly when the kernel's norm is.

    Why 2^-20 is enough.  Each block's mass is a sum of k = 2 m^2 squares,
    m = d n the block's order; summed in any order it is within a factor
    1 + k 2^-53 of the exact ||D||_F^2: 1 + 2^-38 for m <= 128, and below
    1 + 2^-21 for m up to 2^15.  The square root adds one rounding.  The
    kernel's norm agrees with a dense SVD to within 2e-15 relative, and
    the SVD's top singular value lies within c m 2^-53 ||D||_2 of the exact
    one, c a small constant, so the kernel's norm is at most
    ||D||_2 (1 + 2e-15 + c m 2^-53) <= ||D||_F (1 + 2^-22) for these
    orders.  A bound the test accepts puts ||D||_F below PARSEVAL_TOL
    (1 - 2^-20) (1 + 2^-21) and the kernel's norm below PARSEVAL_TOL: the
    frames the bound accepts are frames the exact rule accepts too.  A
    mass that underflows is off by at most k 2^-1074, and one read as 0
    means a true residual below 1e-150, so accepting it is right.  A mass
    that overflows, or is NaN, fails the test and takes the exact path,
    where a non-finite S has an infinite residual.

    Measured once per frame (frames are immutable) and kept on it.
    """
    if frame._residual is None:
        with np.errstate(over="ignore", invalid="ignore"):
            ops = frame_operator(frame).mats
            defects = [_hermitian_part(s) - np.eye(len(s)) for s in ops]
            worst = float(np.sqrt(np.max([_entry_masses([defect[None]]) for defect in defects])))
            if not worst <= PARSEVAL_TOL * (1.0 - 2.0**-20):
                finite = all(np.isfinite(defect).all() for defect in defects)
                worst = float(_entry_norms([defect[None] for defect in defects])[0]) if finite else np.inf
        frame._residual = worst
    return frame._residual


def is_parseval(frame: ModularFrame) -> bool:
    """True iff the frame operator is the identity up to PARSEVAL_TOL in operator norm.

    Decided by _parseval_residual: from the Frobenius norm of S - I where
    that bound is within the tolerance, from the norm kernel where it is not.
    """
    return _parseval_residual(frame) <= PARSEVAL_TOL


def parsevalize(frame: ModularFrame) -> ModularFrame:
    """Canonical Parseval companion: every vector multiplied by S^(-1/2).

    Raises InputError when the frame operator overflows, NotAFrameError
    when it is singular (the family does not generate A^d, see
    op_inv_sqrt) and NonParsevalFrameError if the corrected frame operator
    still deviates from the identity beyond PARSEVAL_TOL, which signals a
    badly conditioned input.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        s = frame_operator(frame)
    if not all(np.isfinite(m).all() for m in s.mats):
        raise InputError("frame operator overflows: the frame's entries are too large")
    try:
        p = op_inv_sqrt(s)
    except SingularOperatorError as exc:
        raise NotAFrameError(
            f"frame operator is singular, the family does not span: {exc}"
        ) from exc
    fixed = ModularFrame._from_mats(
        frame.shape, frame.d, frame.count, [t @ pm for t, pm in zip(frame.mats, p.mats)]
    )
    residual = _parseval_residual(fixed)
    if residual > PARSEVAL_TOL:
        raise NonParsevalFrameError(
            f"normalization left a frame-operator residual of {residual:.3e}"
        )
    return fixed


def _cross_grams(tau: ModularFrame, omega: ModularFrame) -> list[np.ndarray]:
    """Per block, the (N, M, n, n) stack of cross inner products <tau_n, omega_m>."""
    _check_same_module(tau, omega)
    with np.errstate(over="ignore", invalid="ignore"):
        grams = [t @ w.conj().T for t, w in zip(tau.mats, omega.mats)]
    if not all(np.isfinite(g).all() for g in grams):
        raise InputError("cross Gram overflows: the frames' entries are too large")
    return [
        g.reshape(tau.count, n, omega.count, n).transpose(0, 2, 1, 3)
        for n, g in zip(tau.shape.block_dims, grams)
    ]


def cross_gram_norms(tau: ModularFrame, omega: ModularFrame) -> np.ndarray:
    """Matrix of C*-norms ||<tau_n, omega_m>||, shape (tau.count, omega.count)."""
    return _entry_norms(_cross_grams(tau, omega))


def coherence(tau: ModularFrame, omega: ModularFrame) -> float:
    """Largest cross inner-product norm between the two families."""
    return float(cross_gram_norms(tau, omega).max())


def _support_mask(norms: np.ndarray, rel_tol: float) -> np.ndarray:
    """True where a norm exceeds rel_tol times the largest along the last axis.

    All False for an all-zero (or NaN) row.
    """
    return norms > rel_tol * norms.max(axis=-1, keepdims=True)


def _screened_support_mask(masses: np.ndarray, rank: int, rel_tol: float, entry_norms) -> np.ndarray:
    """_support_mask(entry_norms(rows), rel_tol) of every row, decided from trace norms where they can.

    masses is an (m, k) array of squared trace norms phi^2 = sum_b
    ||a_b||_F^2 (algebra._entry_masses) of elements of an algebra with
    rank = n_1 + ... + n_B; entry_norms(rows) returns the C*-norms nu of
    the rows selected by the index array rows.  Since
    nu^2 <= phi^2 <= rank nu^2, with cut = rel_tol^2 max(phi^2) per row,
    an entry is certainly kept when phi^2 > rank cut (1 + delta) and
    certainly dropped when rank phi^2 (1 + delta) <= cut.  A row is decided from these bounds
    alone when every entry is certain and its max(phi^2) and cut / rank
    lie in [2^-1000, 2^1000 / rank]; every other row is decided by
    _support_mask on its exact norms.  So rel_tol = 0, masses too small
    to carry relative precision, and non-finite entries (which
    entry_norms refuses) all take the exact path.

    delta = 2^-20 covers the rounding on both sides of the comparison.
    Each computed phi^2 is a sum of 2N squares, N the scalar entries of an
    element, so it is within a factor 1 +- 2N 2^-53 of its value; each
    computed nu is within 2e-15 relative (algebra._entry_norms);
    rel_tol nu_max, the cut and the two products round once each.  The
    guard keeps the peak, the cut and the products normal, so these
    relative bounds hold, and a certain verdict stays on the exact rule's
    side while 4N 2^-53 + 1e-14 < 2^-20, i.e. for any element of at most
    2^30 scalar entries.  An entry's phi^2 below the normal range is off
    by at most 2N 2^-1074, far below delta cut / rank, and is dropped.
    """
    delta = 2.0**-20
    with np.errstate(over="ignore", invalid="ignore"):
        # rows are short (conjecture's p entries): elementwise passes, not per-row reductions
        peak = _fold(np.maximum, masses)[:, None]
        cut = rel_tol * (rel_tol * peak)  # rel_tol**2 could lose precision below the normal range
        margin = rank * (1.0 + delta)
        kept = masses > margin * cut
        certain = kept | (margin * masses <= cut)
        scaled = (cut >= rank * 2.0**-1000) & (peak <= 2.0**1000 / rank)
    rows = np.flatnonzero(~(_fold(np.logical_and, certain) & scaled[:, 0]))
    if len(rows):
        kept[rows] = _support_mask(entry_norms(rows), rel_tol)
    return kept


def _numeric_rank(sv: np.ndarray, ref):
    """Count of singular values above RANK_TOL times ref, along the last axis.

    The one rank decision: a value at or below the cutoff counts as zero.
    """
    return np.count_nonzero(sv > RANK_TOL * ref, axis=-1)


def _check_rel_tol(rel_tol: float) -> None:
    """Raise InputError unless rel_tol is a real number in [0, 1)."""
    if not isinstance(rel_tol, numbers.Real) or not 0 <= rel_tol < 1:
        raise InputError(f"rel_tol must lie in [0, 1), got {rel_tol!r}")


def support(x: ModuleVector, rel_tol: float = SUPPORT_REL_TOL) -> list[int]:
    """Indices whose entry norm exceeds rel_tol times the largest one, 0 <= rel_tol < 1."""
    _check_rel_tol(rel_tol)
    return np.flatnonzero(_support_mask(_entry_norms(x.blocks), rel_tol)).tolist()


def sparsity(x: ModuleVector, rel_tol: float = SUPPORT_REL_TOL) -> int:
    """Number of effectively nonzero entries."""
    return len(support(x, rel_tol=rel_tol))


def random_frame(
    shape: AlgebraShape, d: int, count: int, rng: np.random.Generator
) -> ModularFrame:
    """Frame of count i.i.d. Gaussian vectors in A^d."""
    count = _as_count(count, "count")
    return ModularFrame.from_vectors(
        random_vector(shape, d, rng) for _ in range(count)
    )


def random_parseval_frame(
    shape: AlgebraShape, d: int, count: int, rng: np.random.Generator
) -> ModularFrame:
    """Random Parseval frame: Gaussian draw followed by normalization.

    Requires count >= d, since fewer vectors can never generate A^d.  The
    Gaussian draw is retried when it is numerically degenerate; failure
    after the retry budget raises GenerationError.
    """
    d, count = _module_rank(d), _as_int(count, "count")
    if count < d:
        raise InputError(
            f"a Parseval frame over A^{d} needs at least {d} vectors, got {count}"
        )
    for _ in range(PARSEVALIZE_MAX_RETRIES):
        try:
            return parsevalize(random_frame(shape, d, count, rng))
        except NotAFrameError:
            continue
    raise GenerationError(
        f"no spanning Gaussian family after {PARSEVALIZE_MAX_RETRIES} draws "
        f"(shape {shape.block_dims}, d={d}, count={count})"
    )
