"""Arithmetic, norms, and order structure for direct sums of matrix algebras.

An algebra here is always M_{n1}(C) + ... + M_{nB}(C) (outer direct sum),
which covers every finite-dimensional C*-algebra up to isomorphism.  An
element is stored as one complex matrix per block; the involution is the
blockwise conjugate transpose, the norm is the largest singular value over
all blocks (computed by the one norm kernel, _entry_norms), and positivity
is decided from blockwise Hermitian spectra.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InputError

__all__ = [
    "AlgebraShape",
    "AlgebraElement",
    "add",
    "sub",
    "mul",
    "star",
    "scale",
    "norm",
    "is_positive",
    "identity",
    "zero",
    "random_element",
]

# The one positivity cutoff, relative to the element's scale: it separates
# roundoff from genuine negativity or asymmetry in is_positive, and from a
# genuinely singular spectrum in csmodule.op_inv_sqrt.
POSITIVITY_TOL = 1e-10

# Elements per batched product in _entry_norms, which bounds its temporary arrays.
_NORM_CHUNK = 4096


@dataclass(frozen=True)
class AlgebraShape:
    """Block dimensions (n1, ..., nB); block i holds an ni x ni matrix."""

    block_dims: tuple[int, ...]

    def __post_init__(self) -> None:
        try:
            dims = tuple(int(n) for n in self.block_dims)
        except (TypeError, ValueError) as exc:
            raise InputError(
                f"block dimensions must be integers, got {self.block_dims!r}"
            ) from exc
        if not dims:
            raise InputError("an algebra needs at least one block")
        if any(n < 1 for n in dims):
            raise InputError(f"block dimensions must be positive, got {dims}")
        object.__setattr__(self, "block_dims", dims)

    @property
    def num_blocks(self) -> int:
        return len(self.block_dims)

    @property
    def dim(self) -> int:
        """Complex dimension, sum of ni**2."""
        return sum(n * n for n in self.block_dims)

    def to_list(self) -> list[int]:
        return list(self.block_dims)


class AlgebraElement:
    """An algebra element: one complex matrix per block of the shape.

    Values are immutable after construction (arrays are marked read-only),
    so elements can be shared freely across threads.
    """

    __slots__ = ("shape", "blocks")

    def __init__(self, shape: AlgebraShape, blocks) -> None:
        if len(blocks) != shape.num_blocks:
            raise InputError(
                f"expected {shape.num_blocks} blocks, got {len(blocks)}"
            )
        frozen = []
        for n, blk in zip(shape.block_dims, blocks):
            arr = np.array(blk, dtype=np.complex128)
            if arr.shape != (n, n):
                raise InputError(f"block must be {n}x{n}, got {arr.shape}")
            arr.setflags(write=False)
            frozen.append(arr)
        self.shape = shape
        self.blocks = tuple(frozen)

    def __repr__(self) -> str:
        return f"AlgebraElement(shape={self.shape.block_dims}, norm={norm(self):.6g})"

    def to_dict(self) -> dict:
        """JSON payload: {"shape": [n1, ...], "blocks": [[[[re, im], ...]]]}."""
        return {
            "shape": self.shape.to_list(),
            "blocks": [_encode_matrices(blk) for blk in self.blocks],
        }

    @classmethod
    def from_dict(cls, payload, where: str = "algebra element") -> "AlgebraElement":
        shape, raw = _element_payload(payload, where)
        blocks = [
            _decode_matrices([blk], n, lambda _, i=i: f"{where}: block {i}")[0]
            for i, (n, blk) in enumerate(zip(shape.block_dims, raw))
        ]
        return cls(shape, blocks)


def _element_payload(payload, where: str) -> tuple[AlgebraShape, list]:
    """Check an element payload's layout; return its shape and raw blocks."""
    if not isinstance(payload, dict):
        raise InputError(f"{where}: expected an object, got {type(payload).__name__}")
    for key in ("shape", "blocks"):
        if key not in payload:
            raise InputError(f"{where}: missing key {key!r}")
    shape = _shape_from_payload(payload["shape"], where)
    raw = payload["blocks"]
    if not isinstance(raw, list) or len(raw) != shape.num_blocks:
        raise InputError(f"{where}: 'blocks' must be a list of {shape.num_blocks} blocks")
    return shape, raw


def _encode_matrices(stack: np.ndarray) -> list:
    """Complex (..., n, n) array as nested lists ending in [re, im] pairs."""
    pairs = np.ascontiguousarray(stack, dtype=np.complex128).view(np.float64)
    return pairs.reshape(*np.shape(stack), 2).tolist()


def _numeric(raw):
    """raw as a numeric array, or None for ragged or non-numeric input."""
    try:
        arr = np.array(raw)
    except ValueError:
        return None
    return arr if arr.dtype.kind in "biuf" else None


def _decode_matrices(raws: list, n: int, locate) -> np.ndarray:
    """Complex (len(raws), n, n) array from n x n matrices of [re, im] pairs.

    All matrices are decoded by one np.array call.  Values must be finite
    JSON numbers; locate(j) names matrix j in the error raised otherwise.
    """
    arr = _numeric(raws)
    if arr is None or arr.shape != (len(raws), n, n, 2):
        bad = next(
            (j for j, raw in enumerate(raws) if getattr(_numeric(raw), "shape", None) != (n, n, 2)),
            0,
        )
        raise InputError(f"{locate(bad)}: must be an {n}x{n} matrix of [re, im] number pairs")
    arr = np.ascontiguousarray(arr, dtype=np.float64)
    finite = np.isfinite(arr)
    if not finite.all():
        bad = int(np.argwhere(~finite)[0][0])
        raise InputError(f"{locate(bad)}: non-finite value (NaN or Infinity)")
    return arr.view(np.complex128)[..., 0]


def _shape_from_payload(raw, where: str) -> AlgebraShape:
    if not isinstance(raw, list) or not all(isinstance(n, int) for n in raw):
        raise InputError(f"{where}: 'shape' must be a list of integers")
    return AlgebraShape(tuple(raw))


def _check_same_shape(a: AlgebraElement, b: AlgebraElement) -> None:
    if a.shape != b.shape:
        raise InputError(
            f"shape mismatch: {a.shape.block_dims} vs {b.shape.block_dims}"
        )


def add(a: AlgebraElement, b: AlgebraElement) -> AlgebraElement:
    """Blockwise sum."""
    _check_same_shape(a, b)
    return AlgebraElement(a.shape, [x + y for x, y in zip(a.blocks, b.blocks)])


def sub(a: AlgebraElement, b: AlgebraElement) -> AlgebraElement:
    """Blockwise difference."""
    _check_same_shape(a, b)
    return AlgebraElement(a.shape, [x - y for x, y in zip(a.blocks, b.blocks)])


def mul(a: AlgebraElement, b: AlgebraElement) -> AlgebraElement:
    """Blockwise matrix product."""
    _check_same_shape(a, b)
    return AlgebraElement(a.shape, [x @ y for x, y in zip(a.blocks, b.blocks)])


def star(a: AlgebraElement) -> AlgebraElement:
    """The involution: blockwise conjugate transpose."""
    return AlgebraElement(a.shape, [blk.conj().T for blk in a.blocks])


def scale(z: complex, a: AlgebraElement) -> AlgebraElement:
    """Scalar multiple z * a."""
    return AlgebraElement(a.shape, [complex(z) * blk for blk in a.blocks])


def norm(a: AlgebraElement) -> float:
    """C*-norm: the largest singular value over all blocks."""
    return float(_entry_norms([blk[None] for blk in a.blocks])[0])


def _entry_norms(stacks) -> np.ndarray:
    """C*-norms of stacked matrices, given one (k, ..., r, c) stack per block.

    The one norm kernel.  Each matrix b is scaled by 2^-e, the power of two
    just above its largest |entry| (an exact scaling, subnormal entries
    included), so the scaled c has entries below 1 in modulus and c c^H can
    neither overflow nor underflow; the norm is 2^e * sqrt of the top
    eigvalsh eigenvalue of c c^H, and an element's norm is the largest over
    its blocks.  Raises InputError on a non-finite entry.
    """
    return np.max([_block_norms(s) for s in stacks], axis=0)


def _block_norms(s: np.ndarray) -> np.ndarray:
    dims = s.shape[-2:]
    out = np.empty(s.shape[:-2])
    step = max(1, _NORM_CHUNK * len(s) // max(1, out.size))
    for start in range(0, len(s), step):
        part = out[start : start + step]
        b = np.ascontiguousarray(s[start : start + step], dtype=np.complex128).reshape(-1, *dims)
        peak = np.abs(b).max(axis=(1, 2))
        if not np.isfinite(peak).all():
            raise InputError("algebra elements must have finite entries")
        exp = np.frexp(peak)[1]  # 0 for a zero block
        c = np.ldexp(b.view(np.float64), -exp[:, None, None]).view(np.complex128)
        top = np.linalg.eigvalsh(c @ c.conj().transpose(0, 2, 1))[:, -1]
        part[...] = np.ldexp(np.sqrt(top), exp).reshape(part.shape)
    return out


def is_positive(a: AlgebraElement) -> bool:
    """True iff a is self-adjoint and has nonnegative spectrum, up to roundoff.

    Both checks are relative to max(1, norm(a)): the self-adjointness defect
    norm(a - a*) and the most negative Hermitian eigenvalue must stay within
    POSITIVITY_TOL of zero.
    """
    cutoff = POSITIVITY_TOL * max(1.0, norm(a))
    if norm(sub(a, star(a))) > cutoff:
        return False
    for blk in a.blocks:
        herm = (blk + blk.conj().T) / 2.0
        if np.linalg.eigvalsh(herm).min() < -cutoff:
            return False
    return True


def identity(shape: AlgebraShape) -> AlgebraElement:
    """The unit element (identity matrix in every block)."""
    return AlgebraElement(shape, [np.eye(n, dtype=np.complex128) for n in shape.block_dims])


def zero(shape: AlgebraShape) -> AlgebraElement:
    return AlgebraElement(shape, [np.zeros((n, n), dtype=np.complex128) for n in shape.block_dims])


def random_element(shape: AlgebraShape, rng: np.random.Generator, scale: float = 1.0) -> AlgebraElement:
    """I.i.d. standard complex Gaussian entries in every matrix coordinate."""
    blocks = []
    for n in shape.block_dims:
        blk = (rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))) / np.sqrt(2.0)
        blocks.append(scale * blk)
    return AlgebraElement(shape, blocks)
