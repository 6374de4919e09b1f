"""Independent dense-matrix oracle for the block-structured code paths.

Everything here embeds the algebra A = M_{n1} + ... + M_{nB} as block
diagonal matrices of size N = n1 + ... + nB and works with plain matmul:

    element  ->  (N, N) block-diagonal matrix
    vector in A^d  ->  (N, d*N) horizontal stack [X_1 ... X_d]
    operator on A^d  ->  (d*N, d*N) block matrix of embedded entries

Under this embedding <x, y> = X Y^H, the right operator action is X M,
analysis coefficients are X T_n^H, and a frame stacks its vectors' dense
embeddings vertically into T, so the frame operator is T^H T and the cross
Gram of two frames is T W^H.  Everything is rebuilt from the entries through
this embedding; none of the library's per-block matrices are reused, so
agreement is a genuine cross-check.

oracle_support_pair_feasible decides support feasibility the slow way: it
probes every scalar coordinate of A^d and stacks the dense coefficients
into one constraint matrix, with no use of the block structure.

oracle_deficient_minors is the DFT-minor scan without symmetry reduction:
one SVD per minor of the batch.

oracle_pattern_search is the conjecture audit's structured search one
pattern at a time: an SVD of the pattern's DFT minor for the scalar verdict
and a support_pair_feasible call for the frame verdict.

The module arithmetic at the end (vector sums, scaling, the left module
action, operator differences, cyclic shifts) is what the tests need beyond
the library's own API; it works entrywise on the public `blocks` stacks.
"""

import itertools

import numpy as np

from ncup import (
    ModuleOperator,
    ModuleVector,
    basis_vector,
    dft_matrix,
    fourier_frame,
    module_norm,
    standard_frame,
    support_pair_feasible,
)


def embed_element(a) -> np.ndarray:
    total = sum(a.shape.block_dims)
    out = np.zeros((total, total), dtype=np.complex128)
    pos = 0
    for n, blk in zip(a.shape.block_dims, a.blocks):
        out[pos : pos + n, pos : pos + n] = blk
        pos += n
    return out


def embed_vector(x) -> np.ndarray:
    return np.hstack([embed_element(e) for e in x.entries])


def embed_operator(m) -> np.ndarray:
    rows = []
    for i in range(m.d):
        rows.append(np.hstack([embed_element(m.entry(i, j)) for j in range(m.d)]))
    return np.vstack(rows)


def oracle_inner_product(x, y) -> np.ndarray:
    """Dense matrix of <x, y> under the embedding."""
    return embed_vector(x) @ embed_vector(y).conj().T


def oracle_op_apply(m, x) -> np.ndarray:
    """Dense embedding of the right action x M."""
    return embed_vector(x) @ embed_operator(m)


def oracle_analysis(frame, x) -> list[np.ndarray]:
    """Dense embeddings of every coefficient <x, tau_n>."""
    xd = embed_vector(x)
    return [xd @ embed_vector(v).conj().T for v in frame.vectors]


def embed_frame(frame) -> np.ndarray:
    return np.vstack([embed_vector(v) for v in frame.vectors])


def oracle_frame_operator(frame) -> np.ndarray:
    """Dense embedding of the frame operator, T^H T."""
    t = embed_frame(frame)
    return t.conj().T @ t


def oracle_cross_gram_norms(tau, omega) -> np.ndarray:
    """Spectral norm of every (n, m) block of the dense cross Gram T W^H."""
    total = sum(tau.shape.block_dims)
    gram = embed_frame(tau) @ embed_frame(omega).conj().T
    blocks = gram.reshape(tau.count, total, omega.count, total).transpose(0, 2, 1, 3)
    return np.linalg.svd(blocks, compute_uv=False)[..., 0]


def oracle_parsevalize(frame) -> np.ndarray:
    """Dense embedding of the normalized frame, T S^(-1/2) with S = T^H T."""
    vals, vecs = np.linalg.eigh(oracle_frame_operator(frame))
    return embed_frame(frame) @ ((vecs * vals**-0.5) @ vecs.conj().T)


def oracle_norm(a) -> float:
    return float(np.linalg.svd(embed_element(a), compute_uv=False)[0])


def oracle_min_eig(a) -> float:
    dense = embed_element(a)
    herm = (dense + dense.conj().T) / 2.0
    return float(np.linalg.eigvalsh(herm).min())


def oracle_support_pair_feasible(tau, omega, support_t, support_omega, threshold=1e-10):
    """Verdict and unit witness for "nonzero x with supports inside T and Omega".

    Column j of the constraint matrix holds the dense coefficients
    <e_j, tau_n> (n outside T) and <e_j, omega_m> (m outside Omega) of the
    j-th scalar coordinate probe e_j; the pattern is feasible iff the
    matrix's numeric rank, singular values above threshold times the
    largest, is below the number of coordinates.
    """
    shape, d = tau.shape, tau.d
    comp_t = sorted(set(range(tau.count)) - set(support_t))
    comp_o = sorted(set(range(omega.count)) - set(support_omega))
    if not comp_t and not comp_o:
        return True, basis_vector(shape, d, 0)
    coords = [
        (r, b, a, c)
        for r in range(d)
        for b, n in enumerate(shape.block_dims)
        for a in range(n)
        for c in range(n)
    ]
    columns = []
    for r, b, a, c in coords:
        blocks = [np.zeros((d, n, n), dtype=np.complex128) for n in shape.block_dims]
        blocks[b][r, a, c] = 1.0
        probe = ModuleVector(shape, d, blocks)
        ct, co = oracle_analysis(tau, probe), oracle_analysis(omega, probe)
        parts = [ct[n].ravel() for n in comp_t] + [co[m].ravel() for m in comp_o]
        columns.append(np.concatenate(parts))
    _, sv, vh = np.linalg.svd(np.array(columns).T)
    if np.count_nonzero(sv > threshold * sv[0]) >= len(coords):
        return False, None
    blocks = [np.zeros((d, n, n), dtype=np.complex128) for n in shape.block_dims]
    for value, (r, b, a, c) in zip(vh[-1].conj(), coords):
        blocks[b][r, a, c] = value
    witness = ModuleVector(shape, d, blocks)
    return True, ModuleVector(shape, d, [blk / module_norm(witness) for blk in witness.blocks])


def oracle_deficient_minors(w, cols, rows, threshold=1e-10):
    """(T, Omega) for every rank-deficient minor w[rows[i], cols[i]], in batch order.

    Each minor is decomposed on its own; a minor is deficient when fewer
    than len(T) singular values exceed threshold times the largest.
    """
    sv = np.linalg.svd(w[rows[:, :, None], cols[:, None, :]], compute_uv=False)
    bad = np.flatnonzero(np.count_nonzero(sv > threshold * sv[:, :1], axis=1) < cols.shape[1])
    everything = set(range(len(w)))
    return [(cols[i].tolist(), sorted(everything - set(rows[i].tolist()))) for i in bad]


def oracle_pattern_search(shape, p):
    """Pattern count and (T, Omega, scalar, frames) for every flagged pattern.

    Loops over (|T|, T, |Omega|, Omega) with |T| < p and |T| + |Omega| <= p,
    deciding each pattern by its own scalar minor test and its own
    frame-level test on the standard and Fourier frames over A; a pattern
    is flagged when either verdict says feasible.
    """
    w = dft_matrix(p)
    std, fourier = standard_frame(shape, p), fourier_frame(shape, p)
    checked, flagged = 0, []
    for size_t in range(1, p):
        for t_set in itertools.combinations(range(p), size_t):
            for size_o in range(1, p - size_t + 1):
                for omega in itertools.combinations(range(p), size_o):
                    checked += 1
                    rows = sorted(set(range(p)) - set(omega))
                    scalar = bool(oracle_deficient_minors(w, np.array([t_set]), np.array([rows])))
                    by_frames, _ = support_pair_feasible(std, fourier, t_set, omega)
                    if scalar or by_frames:
                        flagged.append((list(t_set), list(omega), scalar, by_frames))
    return checked, flagged


def _same_module(x, y) -> None:
    assert (x.shape, x.d) == (y.shape, y.d), "module mismatch"


def vec_add(x, y):
    _same_module(x, y)
    return ModuleVector(x.shape, x.d, [a + b for a, b in zip(x.blocks, y.blocks)])


def vec_sub(x, y):
    _same_module(x, y)
    return ModuleVector(x.shape, x.d, [a - b for a, b in zip(x.blocks, y.blocks)])


def vec_scale(z, x):
    return ModuleVector(x.shape, x.d, [complex(z) * b for b in x.blocks])


def module_scale(a, x):
    """Left module action, (a . x)_i = a x_i."""
    assert a.shape == x.shape, "shape mismatch"
    return ModuleVector(x.shape, x.d, [ab @ b for ab, b in zip(a.blocks, x.blocks)])


def zero_vector(shape, d):
    return ModuleVector(shape, d, [np.zeros((d, n, n)) for n in shape.block_dims])


def op_sub(a, b):
    _same_module(a, b)
    return ModuleOperator(a.shape, a.d, [x - y for x, y in zip(a.blocks, b.blocks)])


def cyclic_shift(x, steps):
    """Entries rotated by steps positions (index j maps to j + steps mod d)."""
    return ModuleVector(x.shape, x.d, [np.roll(b, int(steps), axis=0) for b in x.blocks])
