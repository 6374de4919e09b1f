"""Finite Hilbert C*-modules A^d and the operators acting on them.

A vector is a d-tuple of algebra elements with the A-valued inner product
<x, y> = sum_i x_i (y_i)*, linear in the first slot.  Operators are d x d
matrices over the algebra acting by right multiplication, (x M)_j =
sum_i x_i M_ij, so composition reads left to right and the adjoint is the
starred transpose.

Module data is stored one algebra block at a time in its matmul layout.
Block b (of size n) of a vector is the (n, d*n) matrix X = [x_0 | ... |
x_(d-1)] of its entries side by side, and of an operator the (d*n, d*n)
block matrix with M_ij in block row i and block column j.  Then <x, y> is
X Y^H, the right action is X M, and composition is A B: each one matmul.
The `mats` attribute holds these read-only matrices, one per block; the
`blocks` attribute shows the same memory as (d, n, n) and (d, d, n, n)
entry stacks, which is also what the constructors accept; one check,
_stacks_to_mats, reads them for vectors, operators and frames alike.

In a JSON file a vector is {"shape": [...], "entries": [element, ...]}.
The vector codec handles vectors one at a time.  Its reader
(_decode_vectors) makes one flat conversion per block of each payload, and
the CLI's JSON reader decodes each vector as it closes it (_vector_hook), so
the JSON tree of a whole file never exists.  Its writer, _vector_texts,
fills one text template per vector for files.  ModuleVector.to_dict lists
its entries' AlgebraElement.to_dict payloads, and from_dict is the
one-vector case of _decode_vectors.
"""

from __future__ import annotations

import math
from collections import namedtuple

import numpy as np

from .algebra import (
    POSITIVITY_TOL,
    AlgebraElement,
    AlgebraShape,
    _as_count,
    _as_int,
    _as_list,
    _common_shape,
    _complex_gaussian,
    _decode_matrices,
    _element_payload,
    _entry_norms,
    _hermitian_part,
    _json_fields,
    _json_int,
    norm,
)
from .errors import InputError, SingularOperatorError

__all__ = [
    "ModuleVector",
    "ModuleOperator",
    "inner_product",
    "module_norm",
    "cauchy_schwarz_gap",
    "basis_vector",
    "random_vector",
    "op_apply",
    "op_adjoint",
    "op_compose",
    "op_identity",
    "op_norm",
    "op_inv_sqrt",
]

def _freeze(mat) -> np.ndarray:
    """mat as a C-contiguous read-only complex matrix (copied only if needed)."""
    mat = np.ascontiguousarray(mat, dtype=np.complex128)
    mat.setflags(write=False)
    return mat


def _module_rank(d) -> int:
    return _as_count(d, "module rank d")


def _layout_axes(lead: tuple) -> tuple:
    """Axis permutation between an entry stack (*lead, n, n) and its block matrix.

    The permuted stack becomes the matrix by merging adjacent axes: (d, n, n)
    -> (n, d, n) -> (n, d*n), and (N, d, n, n) -> (N, n, d, n) -> (N*n, d*n).
    Both permutations are their own inverse.
    """
    return (1, 0, 2) if len(lead) == 1 else (0, 2, 1, 3)


def _stacks_to_mats(shape: AlgebraShape, blocks, lead: tuple) -> tuple:
    """Check per-block entry stacks of shape (*lead, n, n); return private matrix copies.

    A frame's lead is (None, d): its vector count is read from the stacks.
    """
    blocks = _as_list(blocks, "block stacks")
    if len(blocks) != shape.num_blocks:
        raise InputError(f"expected {shape.num_blocks} block stacks, got {len(blocks)}")
    if lead[0] is None:
        counts = {np.shape(blk)[0] if np.ndim(blk) else 0 for blk in blocks}
        if len(counts) != 1:
            raise InputError("all block stacks must agree on the number of vectors")
        lead = (counts.pop(), *lead[1:])
        if lead[0] < 1:
            raise InputError("a frame needs at least one vector")
    axes = _layout_axes(lead)
    mats = []
    for n, blk in zip(shape.block_dims, blocks):
        if np.shape(blk) != (*lead, n, n):
            raise InputError(
                f"block stack must have shape {(*lead, n, n)}, got {np.shape(blk)}"
            )
        mat = np.array(blk, dtype=np.complex128).transpose(axes)
        mats.append(_freeze(mat.reshape(n * math.prod(lead[:-1]), lead[-1] * n)))
    return tuple(mats)


def _stack_views(shape: AlgebraShape, mats, lead: tuple) -> tuple:
    """Read-only (*lead, n, n) entry stack per block, as views of the matrices."""
    axes = _layout_axes(lead)
    return tuple(
        m.reshape([(*lead, n, n)[a] for a in axes]).transpose(axes)
        for n, m in zip(shape.block_dims, mats)
    )


def _parse_vector(payload, where: str, shape: AlgebraShape | None) -> tuple[AlgebraShape, list]:
    """Check one vector payload's layout; return its shape and each entry's raw blocks.

    shape, when given, is reused for entries that name its dimensions.
    """
    declared, raw = _json_fields(payload, where, ("shape", "entries"))
    if not isinstance(raw, list) or not raw:
        raise InputError(f"{where}: 'entries' must be a nonempty list")
    entries = []
    for i, item in enumerate(raw):
        entry_shape, blocks = _element_payload(item, f"{where}: entry {i}", shape)
        if i == 0:
            shape = entry_shape
        elif entry_shape != shape:
            raise InputError(
                f"{where}: entry {i} has shape {entry_shape.block_dims}, "
                f"expected {shape.block_dims}"
            )
        entries.append(blocks)
    if declared != shape.to_list() or not all(map(_json_int, declared)):
        raise InputError(
            f"{where}: declared shape {declared} does not match entries "
            f"{shape.to_list()}"
        )
    return shape, entries


class _Decoded(namedtuple("_Decoded", "shape d stacks")):
    """A vector payload's entries, decoded: its shape, d and one (d, n, n) stack per block."""

    def __repr__(self) -> str:  # an error quoting a misplaced vector stays one line
        return "[...]"


def _decode_vector(payload, where: str, shape=None, d=None) -> _Decoded:
    """Decode one vector payload: its layout, then shape and d (when given), then values.

    Entries the JSON reader decoded already (_vector_hook) get the shape and d check only.
    """
    done = payload.get("entries") if isinstance(payload, dict) else None
    if isinstance(done, _Decoded):
        vec_shape, count = done.shape, done.d
    else:
        vec_shape, raw = _parse_vector(payload, where, shape)
        count = len(raw)
    if shape is not None and vec_shape != shape:
        raise InputError(f"{where} has shape {vec_shape.to_list()}, expected {shape.to_list()}")
    if d is not None and count != d:
        raise InputError(f"{where} has {count} entries, expected d={d}")
    if isinstance(done, _Decoded):
        return done
    stacks = [
        _decode_matrices([e[b] for e in raw], n, lambda k, b=b: f"{where}: entry {k}: block {b}")
        for b, n in enumerate(vec_shape.block_dims)
    ]
    return _Decoded(vec_shape, count, stacks)


def _vector_hook(obj: dict) -> dict:
    """json object_hook: decode a vector payload's entries as the reader closes it.

    The dict keeps its keys, so a vector in the wrong place is refused as
    before.  A faulty vector is left raw, for _decode_vectors to name.
    """
    if "shape" in obj and "entries" in obj:
        try:
            obj["entries"] = _decode_vector(obj, "vector")
        except InputError:
            pass
    return obj


def _decode_vectors(payloads: list, locate, shape=None, d=None) -> tuple:
    """The vector codec's reader: shape, d and one (count, d, n, n) stack per block.

    payloads is a nonempty list of vector payloads, locate(i) names payload i
    in errors, and shape and d, when given, are what every vector must have
    (else the first vector sets them).  Vectors are decoded one at a time in
    file order, so of several faults the first faulty vector is named.
    """
    stacks = []
    for i, payload in enumerate(payloads):
        vec = _decode_vector(payload, locate(i), shape, d)
        shape, d = vec.shape, vec.d
        stacks.append(vec.stacks)
    return shape, d, [np.stack(blocks) for blocks in zip(*stacks)]


def _vector_texts(shape: AlgebraShape, stacks):
    """The vector codec's file writer: the canonical text of each vector of (count, d, n, n) stacks.

    One template per call has a %r slot per number, with keys sorted as the
    canonical JSON sorts them; each vector fills it from one flat list of its
    own numbers, in file order (entry, block, row, column, re/im).  The
    numbers must be finite, as the JSON text of a finite float is its repr.
    """
    d, dims = np.shape(stacks[0])[1], ",".join(map(str, shape.block_dims))
    blocks = ",".join(
        "[" + ",".join(["[" + ",".join(["[%r,%r]"] * n) + "]"] * n) + "]" for n in shape.block_dims
    )
    entry = '{"blocks":[' + blocks + '],"shape":[' + dims + "]}"
    template = '{"entries":[' + ",".join([entry] * d) + '],"shape":[' + dims + "]}"
    for vector in zip(*stacks):
        numbers = np.concatenate([blk.reshape(d, -1) for blk in vector], axis=1)
        yield template % tuple(numbers.view(np.float64).ravel().tolist())


class ModuleVector:
    """Element of A^d, stored per algebra block as an (n, d*n) matrix."""

    __slots__ = ("shape", "d", "mats")

    def __init__(self, shape: AlgebraShape, d: int, blocks) -> None:
        d = _module_rank(d)
        self.mats = _stacks_to_mats(shape, blocks, (d,))
        self.shape = shape
        self.d = d

    @classmethod
    def _from_mats(cls, shape: AlgebraShape, d: int, mats) -> "ModuleVector":
        vec = cls.__new__(cls)
        vec.shape, vec.d, vec.mats = shape, d, tuple(_freeze(m) for m in mats)
        return vec

    @property
    def blocks(self) -> tuple[np.ndarray, ...]:
        """Read-only (d, n, n) entry stack per block, a view of `mats`."""
        return _stack_views(self.shape, self.mats, (self.d,))

    @classmethod
    def from_entries(cls, entries) -> "ModuleVector":
        """Build from a nonempty sequence of AlgebraElement coordinates."""
        entries = _as_list(entries, "vector entries")
        if not entries:
            raise InputError("a module vector needs at least one entry")
        shape = _common_shape(entries, range(len(entries)))
        mats = [
            np.hstack([e.blocks[b] for e in entries])
            for b in range(shape.num_blocks)
        ]
        return cls._from_mats(shape, len(entries), mats)

    def entry(self, i: int) -> AlgebraElement:
        i = _as_int(i, "entry index")
        if not 0 <= i < self.d:
            raise InputError(f"entry index {i} out of range for d={self.d}")
        return AlgebraElement(self.shape, [blk[i] for blk in self.blocks])

    @property
    def entries(self) -> list[AlgebraElement]:
        return [self.entry(i) for i in range(self.d)]

    def __repr__(self) -> str:
        return f"ModuleVector(shape={self.shape.block_dims}, d={self.d})"

    def to_dict(self) -> dict:
        return {"shape": self.shape.to_list(), "entries": [e.to_dict() for e in self.entries]}

    @classmethod
    def from_dict(cls, payload, where: str = "module vector") -> "ModuleVector":
        shape, d, blocks = _decode_vectors([payload], lambda _: where)
        return cls(shape, d, [blk[0] for blk in blocks])


class ModuleOperator:
    """d x d matrix over A, stored per block as a (d*n, d*n) matrix."""

    __slots__ = ("shape", "d", "mats")

    def __init__(self, shape: AlgebraShape, d: int, blocks) -> None:
        d = _module_rank(d)
        self.mats = _stacks_to_mats(shape, blocks, (d, d))
        self.shape = shape
        self.d = d

    @classmethod
    def _from_mats(cls, shape: AlgebraShape, d: int, mats) -> "ModuleOperator":
        op = cls.__new__(cls)
        op.shape, op.d, op.mats = shape, d, tuple(_freeze(m) for m in mats)
        return op

    @property
    def blocks(self) -> tuple[np.ndarray, ...]:
        """Read-only (d, d, n, n) entry stack per block, a view of `mats`."""
        return _stack_views(self.shape, self.mats, (self.d, self.d))

    @classmethod
    def from_entries(cls, grid) -> "ModuleOperator":
        """Build from a d x d nested sequence of AlgebraElement entries."""
        rows = [_as_list(row, "operator row") for row in _as_list(grid, "operator entries")]
        d = len(rows)
        if d == 0 or any(len(row) != d for row in rows):
            raise InputError("operator entries must form a square nonempty grid")
        labels = [f"({i},{j})" for i in range(d) for j in range(d)]
        shape = _common_shape([e for row in rows for e in row], labels)
        mats = [
            np.block([[e.blocks[b] for e in row] for row in rows])
            for b in range(shape.num_blocks)
        ]
        return cls._from_mats(shape, d, mats)

    def entry(self, i: int, j: int) -> AlgebraElement:
        i, j = _as_int(i, "entry index"), _as_int(j, "entry index")
        if not (0 <= i < self.d and 0 <= j < self.d):
            raise InputError(f"entry index ({i},{j}) out of range for d={self.d}")
        return AlgebraElement(self.shape, [blk[i, j] for blk in self.blocks])

    def __repr__(self) -> str:
        return f"ModuleOperator(shape={self.shape.block_dims}, d={self.d})"


def _check_same_module(x, y) -> None:
    if x.shape != y.shape or x.d != y.d:
        raise InputError(
            f"module mismatch: shape {x.shape.block_dims} d={x.d} vs "
            f"shape {y.shape.block_dims} d={y.d}"
        )


def inner_product(x: ModuleVector, y: ModuleVector) -> AlgebraElement:
    """<x, y> = sum_i x_i (y_i)*, an algebra element."""
    _check_same_module(x, y)
    return AlgebraElement(x.shape, [a @ b.conj().T for a, b in zip(x.mats, y.mats)])


def module_norm(x: ModuleVector) -> float:
    """sqrt of the C*-norm of <x, x>: the top singular value of X, over all blocks."""
    return float(_entry_norms([m[None] for m in x.mats])[0])


def cauchy_schwarz_gap(x: ModuleVector, y: ModuleVector) -> float:
    """Least eigenvalue of ||<y,y>|| <x,x> - <x,y><y,x> over all blocks.

    The operator Cauchy-Schwarz inequality says this matrix is positive
    semidefinite, so the gap should never dip below roundoff.
    """
    gram_yy = norm(inner_product(y, y))
    xx = inner_product(x, x)
    xy = inner_product(x, y)
    worst = np.inf
    for xxb, xyb in zip(xx.blocks, xy.blocks):
        diff = gram_yy * xxb - xyb @ xyb.conj().T
        worst = min(worst, float(np.linalg.eigvalsh(_hermitian_part(diff)).min()))
    return worst


def basis_vector(shape: AlgebraShape, d: int, k: int) -> ModuleVector:
    """e_k, the vector with the algebra unit in slot k and zero elsewhere."""
    d, k = _module_rank(d), _as_int(k, "basis index")
    if not 0 <= k < d:
        raise InputError(f"basis index {k} out of range for d={d}")
    mats = []
    for n in shape.block_dims:
        mat = np.zeros((n, d * n), dtype=np.complex128)
        mat[:, k * n : (k + 1) * n] = np.eye(n)
        mats.append(mat)
    return ModuleVector._from_mats(shape, d, mats)


def random_vector(shape: AlgebraShape, d: int, rng: np.random.Generator) -> ModuleVector:
    """I.i.d. standard complex Gaussian entries in every matrix coordinate."""
    d = _module_rank(d)
    return ModuleVector(shape, d, [_complex_gaussian(rng, (d, n, n)) for n in shape.block_dims])


def op_apply(m: ModuleOperator, x: ModuleVector) -> ModuleVector:
    """Right action of the operator, (x M)_j = sum_i x_i M_ij."""
    _check_same_module(x, m)
    return ModuleVector._from_mats(x.shape, x.d, [a @ b for a, b in zip(x.mats, m.mats)])


def op_adjoint(m: ModuleOperator) -> ModuleOperator:
    """(M*)_ij = (M_ji)*, the adjoint for the module inner product."""
    return ModuleOperator._from_mats(m.shape, m.d, [a.conj().T for a in m.mats])


def op_compose(a: ModuleOperator, b: ModuleOperator) -> ModuleOperator:
    """Matrix product (A B)_ij = sum_k A_ik B_kj."""
    _check_same_module(a, b)
    return ModuleOperator._from_mats(a.shape, a.d, [x @ y for x, y in zip(a.mats, b.mats)])


def op_identity(shape: AlgebraShape, d: int) -> ModuleOperator:
    d = _module_rank(d)
    return ModuleOperator._from_mats(
        shape, d, [np.eye(d * n, dtype=np.complex128) for n in shape.block_dims]
    )


def op_norm(m: ModuleOperator) -> float:
    """Operator norm on A^d: max over blocks of the spectral norm of the block matrix."""
    return float(_entry_norms([mat[None] for mat in m.mats])[0])


def op_inv_sqrt(m: ModuleOperator) -> ModuleOperator:
    """Inverse square root of a positive invertible operator.

    Each block matrix is Hermitized and eigendecomposed; eigenvalues at or
    below POSITIVITY_TOL times the largest (over the whole operator) mean
    the operator is not invertible and raise SingularOperatorError.
    """
    decomps = []
    lam_max = 0.0
    for mat in m.mats:
        vals, vecs = np.linalg.eigh(_hermitian_part(mat))
        decomps.append((vals, vecs))
        lam_max = max(lam_max, float(vals.max()))
    cutoff = POSITIVITY_TOL * lam_max
    mats = []
    for vals, vecs in decomps:
        if vals.min() <= cutoff:
            raise SingularOperatorError(
                f"operator is numerically singular: eigenvalue {vals.min():.3e} "
                f"at cutoff {cutoff:.3e}"
            )
        mats.append((vecs * (vals ** -0.5)) @ vecs.conj().T)
    return ModuleOperator._from_mats(m.shape, m.d, mats)
