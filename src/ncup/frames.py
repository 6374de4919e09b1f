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

In a JSON file a frame is a list of vector payloads, each read and written
by the vector codec (ModuleVector.from_dict and to_dict).

The support of any module vector, coefficients or not, is decided by a
relative threshold: an entry counts as nonzero when its C*-norm exceeds
rel_tol times the largest entry norm of the vector.
"""

from __future__ import annotations

import numpy as np

from .algebra import AlgebraShape, _as_int, _entry_norms, _json_int, _shape_from_payload
from .csmodule import (
    ModuleOperator,
    ModuleVector,
    _check_same_module,
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
        if len(blocks) != shape.num_blocks:
            raise InputError(
                f"expected {shape.num_blocks} block stacks, got {len(blocks)}"
            )
        counts = {np.shape(blk)[0] for blk in blocks}
        if len(counts) != 1:
            raise InputError("all block stacks must agree on the number of vectors")
        count = counts.pop()
        if count < 1:
            raise InputError("a frame needs at least one vector")
        self.mats = _stacks_to_mats(shape, blocks, (count, d))
        self.shape = shape
        self.d = d
        self.count = int(count)
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
        vectors = list(vectors)
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
        return {
            "algebra": self.shape.to_list(),
            "d": int(self.d),
            "vectors": [v.to_dict() for v in self.vectors],
            "parseval": bool(is_parseval(self)),
        }

    @classmethod
    def from_dict(cls, payload, where: str = "frame") -> "ModularFrame":
        """Rebuild a frame from its JSON payload.

        Each item of "vectors" is a vector payload, decoded in file order by
        ModuleVector.from_dict, so an error names the first faulty vector.
        The stored "parseval" flag is advisory; when it claims True the
        frame operator is re-verified and a false claim is rejected.
        """
        if not isinstance(payload, dict):
            raise InputError(f"{where}: expected an object, got {type(payload).__name__}")
        for key in ("algebra", "d", "vectors", "parseval"):
            if key not in payload:
                raise InputError(f"{where}: missing key {key!r}")
        shape = _shape_from_payload(payload["algebra"], where, "algebra")
        d = payload["d"]
        if not _json_int(d) or d < 1:
            raise InputError(f"{where}: 'd' must be a positive integer")
        raw = payload["vectors"]
        if not isinstance(raw, list) or not raw:
            raise InputError(f"{where}: 'vectors' must be a nonempty list")
        vectors = []
        for i, item in enumerate(raw):
            v = ModuleVector.from_dict(item, f"{where}: vector {i}")
            if v.shape != shape:
                raise InputError(
                    f"{where}: vector {i} has shape {v.shape.to_list()}, "
                    f"expected {shape.to_list()}"
                )
            if v.d != d:
                raise InputError(f"{where}: vector {i} has {v.d} entries, expected d={d}")
            vectors.append(v)
        frame = cls.from_vectors(vectors)
        claimed = payload["parseval"]
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
    """Operator norm of S - I, from the eigenvalues of its Hermitian part.

    Measured once per frame (frames are immutable) and kept on it.
    Infinite when S overflows: eigvalsh returns zeros for a non-finite input.
    """
    if frame._residual is None:
        with np.errstate(over="ignore", invalid="ignore"):
            ops = frame_operator(frame).mats
        worst = 0.0
        for s in ops:
            if not np.isfinite(s).all():
                worst = np.inf
                break
            defect = (s + s.conj().T) / 2.0 - np.eye(len(s))
            worst = max(worst, float(np.abs(np.linalg.eigvalsh(defect)).max()))
        frame._residual = worst
    return frame._residual


def is_parseval(frame: ModularFrame) -> bool:
    """True iff the frame operator is the identity up to PARSEVAL_TOL in operator norm."""
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


def _numeric_rank(sv: np.ndarray, ref):
    """Count of singular values above RANK_TOL times ref, along the last axis.

    The one rank decision: a value at or below the cutoff counts as zero.
    """
    return np.count_nonzero(sv > RANK_TOL * ref, axis=-1)


def _check_rel_tol(rel_tol: float) -> None:
    if not 0 <= rel_tol < 1:
        raise InputError(f"rel_tol must lie in [0, 1), got {rel_tol}")


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
    count = _as_int(count, "count")
    if count < 1:
        raise InputError(f"count must be positive, got {count}")
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
