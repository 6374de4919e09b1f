"""Arithmetic, norms, and order structure for direct sums of matrix algebras.

An algebra here is always M_{n1}(C) + ... + M_{nB}(C) (outer direct sum),
which covers every finite-dimensional C*-algebra up to isomorphism.  An
element is stored as one complex matrix per block; the involution is the
blockwise conjugate transpose, the norm is the largest singular value over
all blocks (computed by the one norm kernel, _entry_norms), and positivity
is decided from blockwise Hermitian spectra.

Each input rule the modules share is one function here, beside _as_int:
_as_count, _as_seed, _as_list, _json_fields and _common_shape.
"""

from __future__ import annotations

import functools
import math
import operator
import sys
from dataclasses import dataclass
from itertools import chain

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

# Matrices per chunk of _entry_norms, which bounds its temporary arrays (an 8x8
# chunk holds 262,144 entries).  The norm of a two-row matrix with four or more
# columns can depend on its chunk in the last bit (numpy's complex product of
# the rows rounds differently in a large batch), so a new value can move it.
_NORM_CHUNK = 4096


def _as_int(value, what: str) -> int:
    """value as an int by operator.index: a float, a string or a bool is refused, never truncated."""
    try:
        if isinstance(value, (bool, np.bool_)):  # Python's bool is an int, but not a size
            raise TypeError
        return operator.index(value)
    except TypeError as exc:
        raise InputError(f"{what} must be an integer, got {value!r}") from exc


def _as_count(value, what: str) -> int:
    """value as an int by _as_int's rule, refused unless it is at least 1."""
    value = _as_int(value, what)
    if value < 1:
        raise InputError(f"{what} must be positive, got {value}")
    return value


def _as_seed(value) -> int:
    """value as a random seed: an int by _as_int's rule, in [0, 2^64)."""
    seed = _as_int(value, "seed")
    if not 0 <= seed < 2**64:
        raise InputError(f"seed must fit in 64 bits, got {seed}")
    return seed


def _json_fields(payload, where: str, keys: tuple) -> list:
    """The values of keys in payload, which must be a JSON object holding all of them."""
    if not isinstance(payload, dict):
        raise InputError(f"{where}: expected an object, got {type(payload).__name__}")
    for key in keys:
        if key not in payload:
            raise InputError(f"{where}: missing key {key!r}")
    return [payload[key] for key in keys]


def _common_shape(elements: list, labels) -> AlgebraShape:
    """The shape shared by a nonempty list of AlgebraElements; labels[i] names element i."""
    for label, e in zip(labels, elements):
        if not isinstance(e, AlgebraElement):
            raise InputError(f"entry {label} is not an algebra element")
    shape = elements[0].shape
    for label, e in zip(labels, elements):
        if e.shape != shape:
            raise InputError(f"entry {label} has shape {e.shape.block_dims}, expected {shape.block_dims}")
    return shape


def _as_list(items, what: str) -> list:
    """items as a list; anything that is not iterable is refused."""
    try:
        return list(items)
    except TypeError as exc:
        raise InputError(f"{what} must be a sequence, got {type(items).__name__}") from exc


@dataclass(frozen=True)
class AlgebraShape:
    """Block dimensions (n1, ..., nB); block i holds an ni x ni matrix."""

    block_dims: tuple[int, ...]

    def __post_init__(self) -> None:
        try:
            dims = tuple(_as_int(n, "block dimension") for n in self.block_dims)
        except (TypeError, InputError) as exc:
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
        blocks = _as_list(blocks, "blocks")
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


def _element_payload(
    payload, where: str, shape: AlgebraShape | None = None
) -> tuple[AlgebraShape, list]:
    """Check an element payload's layout; return its shape and raw blocks.

    A payload naming the dimensions of shape gets shape itself back, so the
    entries of a file share one AlgebraShape.
    """
    dims, raw = _json_fields(payload, where, ("shape", "blocks"))
    if shape is None or dims != shape.to_list() or not all(map(_json_int, dims)):
        shape = _shape_from_payload(dims, where, "shape")
    if not isinstance(raw, list) or len(raw) != shape.num_blocks:
        raise InputError(f"{where}: 'blocks' must be a list of {shape.num_blocks} blocks")
    return shape, raw


def _encode_matrices(stack: np.ndarray) -> list:
    """Complex (..., n, n) array as nested lists ending in [re, im] pairs."""
    pairs = np.ascontiguousarray(stack, dtype=np.complex128).view(np.float64)
    return pairs.reshape(*np.shape(stack), 2).tolist()


def _flat_numbers(raws: list, n: int) -> np.ndarray | None:
    """The numbers of n x n matrices of [re, im] pairs as one flat float array.

    The matrix, row and pair lists are flattened one level at a time, each
    item's length checked, and the flat list becomes one array.  None for
    any other layout and for a value that is not a JSON number: true and
    false are refused, although numpy reads them as 1 and 0.
    """
    items = raws
    for size in (n, n, 2):
        try:
            if list(map(len, items)).count(size) != len(items):
                return None
        except TypeError:  # an item without a length
            return None
        items = list(chain.from_iterable(items))
    try:
        arr = np.array(items)
    except ValueError:
        return None
    if arr.dtype.kind not in "iuf" or arr.shape != (len(items),):
        return None
    # Beside other numbers a bool becomes 1 or 0, so only those slots can hold one.
    units = np.flatnonzero((arr == 0) | (arr == 1))
    if any(isinstance(items[k], (bool, np.bool_)) for k in units):
        return None
    return arr.astype(np.float64, copy=False)


def _decode_matrices(raws: list, n: int, locate) -> np.ndarray:
    """Complex (len(raws), n, n) array from n x n matrices of [re, im] pairs.

    All matrices are decoded by one flat conversion (_flat_numbers).  Values
    must be finite JSON numbers; locate(j) names matrix j in the error
    raised otherwise, the first faulty one.
    """
    arr = _flat_numbers(raws, n)
    if arr is None:
        bad = next((j for j, raw in enumerate(raws) if _flat_numbers([raw], n) is None), 0)
        raise InputError(f"{locate(bad)}: must be an {n}x{n} matrix of [re, im] number pairs")
    finite = np.isfinite(arr)
    if not finite.all():
        bad = int(np.argmin(finite)) // (2 * n * n)
        raise InputError(f"{locate(bad)}: non-finite value (NaN or Infinity)")
    return arr.view(np.complex128).reshape(len(raws), n, n)


def _json_int(value) -> bool:
    """Is a decoded JSON value an integer?  Python's bool is an int, but true is not."""
    return isinstance(value, int) and not isinstance(value, bool)


def _shape_from_payload(raw, where: str, key: str) -> AlgebraShape:
    """The shape a JSON list of block dimensions names; key is its name in the payload."""
    if not isinstance(raw, list) or not all(map(_json_int, raw)):
        raise InputError(f"{where}: {key!r} must be a list of integers")
    try:
        return AlgebraShape(tuple(raw))
    except InputError as exc:
        raise InputError(f"{where}: {exc}") from exc


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
    neither overflow nor underflow; the norm is 2^e * sqrt(lam), lam the top
    eigenvalue of c c^H, and an element's norm is the largest over its
    blocks.  For r = 1 row, lam is sum_j |c_j|^2; for r = 2 rows, with
    g00 = sum_j |c_0j|^2, g11 = sum_j |c_1j|^2 and
    g10 = sum_j c_1j conj(c_0j), it is the closed form
    (g00 + g11)/2 + hypot((g00 - g11)/2, |g10|), which has no cancellation
    (the Frobenius/determinant form loses about half the digits when the
    two singular values are close, as for unitary blocks); for r >= 3 rows
    lam comes from eigvalsh.  Every path agrees with a dense SVD to within
    2e-15 relative.  Raises InputError on a non-finite entry.
    """
    return np.max([_block_norms(s) for s in stacks], axis=0)


def _entry_masses(stacks) -> np.ndarray:
    """Squared trace norms sum_b ||a_b||_F^2 of stacked elements, one (k, ..., r, c) stack per block.

    Each block's entries are read as their real and imaginary parts and
    summed by einsum, which reads them once and keeps no temporary.  For an
    element with C*-norm nu, the result lies in [nu^2, (n_1 + ... + n_B) nu^2].
    A mass past the float range is inf, and a non-finite entry gives a
    non-finite mass; neither raises.
    """
    masses = 0.0
    with np.errstate(over="ignore"):
        for s in stacks:
            parts = np.ascontiguousarray(s, dtype=np.complex128).view(np.float64)
            parts = parts.reshape(*s.shape[:-2], -1)
            masses = masses + np.einsum("...i,...i->...", parts, parts)
    return masses


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
        if dims[0] == 1:
            top = (c.real**2 + c.imag**2).sum(axis=(1, 2))
        elif dims[0] == 2:
            g00, g11 = (c.real**2 + c.imag**2).sum(axis=2).T
            g10 = np.abs((c[:, 1] * c[:, 0].conj()).sum(axis=1))
            top = (g00 + g11) / 2 + np.hypot((g00 - g11) / 2, g10)
        else:
            top = np.linalg.eigvalsh(c @ c.conj().transpose(0, 2, 1))[:, -1]
        part[...] = np.ldexp(np.sqrt(top), exp).reshape(part.shape)
    return out


def _fold(op, a: np.ndarray) -> np.ndarray:
    """op folded left to right along a's last axis, one elementwise pass per index.

    The other axes come out reversed, as in a.T.
    """
    return functools.reduce(op, a.T)


def is_positive(a: AlgebraElement) -> bool:
    """True iff a is self-adjoint and has nonnegative spectrum, up to roundoff.

    Both checks are relative to max(1, norm(a)): the self-adjointness defect
    norm(a - a*) and the least eigenvalue of the Hermitian part must stay
    within POSITIVITY_TOL of zero.  Both are taken from halves of a, so
    neither overflows for a finite a.
    """
    cutoff = POSITIVITY_TOL * max(1.0, norm(a))
    half = scale(0.5, a)
    if norm(sub(half, star(half))) > cutoff / 2:
        return False
    for blk in a.blocks:
        if np.linalg.eigvalsh(_hermitian_part(blk)).min() < -cutoff:
            return False
    return True


def _hermitian_part(m: np.ndarray) -> np.ndarray:
    """(m + m^H)/2 as m/2 + m^H/2: the same bits in the normal range, and finite for a finite m."""
    return m / 2 + m.conj().T / 2


def identity(shape: AlgebraShape) -> AlgebraElement:
    """The unit element (identity matrix in every block)."""
    return AlgebraElement(shape, [np.eye(n, dtype=np.complex128) for n in shape.block_dims])


def zero(shape: AlgebraShape) -> AlgebraElement:
    return AlgebraElement(shape, [np.zeros((n, n), dtype=np.complex128) for n in shape.block_dims])


def _check_addressable(size: tuple, dtype) -> None:
    """Raise MemoryError if an array of this shape and dtype cannot be addressed.

    The byte count is taken in Python integers, before numpy sees the size:
    numpy refuses an array larger than the address space (sys.maxsize bytes),
    or a dimension beyond int64, with ValueError, not MemoryError.
    """
    if math.prod(size) * np.dtype(dtype).itemsize > sys.maxsize:
        raise MemoryError(
            f"Unable to allocate an array with shape {size} and data type "
            f"{np.dtype(dtype)}: it is larger than the address space"
        )


def _complex_gaussian(rng: np.random.Generator, size: tuple) -> np.ndarray:
    """I.i.d. standard complex Gaussian array: a real draw, then an imaginary one.

    One draw of both parts, real parts first, each scaled by 1/sqrt(2)
    into its half of the output.  These are the bytes of
    (standard_normal(size) + 1j * standard_normal(size)) / sqrt(2), whose
    complex-by-real division multiplies each part by 1/sqrt(2) too.
    """
    _check_addressable(size, np.complex128)
    pair = rng.standard_normal((2, *size))
    out = np.empty(size, dtype=np.complex128)
    np.multiply(pair[0], 1 / np.sqrt(2.0), out=out.real)
    np.multiply(pair[1], 1 / np.sqrt(2.0), out=out.imag)
    return out


def random_element(shape: AlgebraShape, rng: np.random.Generator) -> AlgebraElement:
    """I.i.d. standard complex Gaussian entries in every matrix coordinate."""
    return AlgebraElement(shape, [_complex_gaussian(rng, (n, n)) for n in shape.block_dims])
