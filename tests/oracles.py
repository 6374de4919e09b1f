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

oracle_algebra_frame_search is the structured search with its frame side
decided on the standard and Fourier frames over A itself, one
_necklace_scan over the algebra's frames: the layout the library used
before it decided that side on the frames over C through the Kronecker
identity.

oracle_class_keys is the DFT-minor scan's class key by its definition, the
minimum over every unit u of (rotation-minimal uT, rotation-minimal u^-1 R),
from dilation tables built here bit by bit (oracle_dilation_table).

burnside_square_orbits counts the classes of the square layer
|T| = |R| = s at a prime length by Burnside's lemma, from binomial
coefficients alone: the count the scans must decide, with no pair listed.

oracle_modular_dft is the certificate's field found the direct way: it
lists every power of each candidate g and keeps the first g whose powers
below n are all different from 1.

oracle_certified_nonsingular is the mod-ell certificate in its first
layout: the whole batch as one (m, s, s) stack with the batch axis first,
eliminated at once without chunks, over the library's own field.

oracle_parseval_residual measures ||S - I|| on the dense frame operator
with eigvalsh, the reference for both paths of frames._parseval_residual:
its Frobenius screen and its exact norm through algebra._entry_norms.

reference_complex_gaussian is the complex Gaussian draw as one expression,
the bit-for-bit reference for algebra._complex_gaussian, which writes the
two scaled halves of one real draw into its output.

reference_block_norms is the norm kernel written out once more, with
numpy's reductions over each matrix's axes (max, then sum): the
bit-for-bit reference that algebra._entry_norms, and any faster form of
it, must keep to.

The module arithmetic at the end (vector sums, scaling, the left module
action, operator differences, cyclic shifts) is what the tests need beyond
the library's own API; it works entrywise on the public `blocks` stacks.
"""

import itertools
import math

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
from ncup.algebra import _NORM_CHUNK
from ncup.errors import InputError
from ncup.ncft import _is_prime, _modular_dft, _necklace_scan


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


def oracle_parseval_residual(frame) -> float:
    """||S - I|| in operator norm, from eigvalsh of the Hermitian part of the dense S - I."""
    s = oracle_frame_operator(frame)
    herm = (s + s.conj().T) / 2.0 - np.eye(len(s))
    return float(np.abs(np.linalg.eigvalsh(herm)).max())


def reference_complex_gaussian(rng, size) -> np.ndarray:
    """algebra._complex_gaussian as first written, the bit-for-bit reference for its draw."""
    return (rng.standard_normal(size) + 1j * rng.standard_normal(size)) / np.sqrt(2.0)


def oracle_norm(a) -> float:
    return float(np.linalg.svd(embed_element(a), compute_uv=False)[0])


def reference_block_norms(s: np.ndarray) -> np.ndarray:
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


def oracle_dilation_table(n):
    """Row i maps an n-bit mask m to the smallest rotation of u*m, u the i-th unit mod n."""
    masks = np.arange(1 << n, dtype=np.int64)
    full = (1 << n) - 1
    rows = []
    for u in range(1, n):
        if np.gcd(u, n) != 1:
            continue
        dilated = sum(((masks >> j) & 1) << (u * j % n) for j in range(n))
        rotations = [((dilated << a) | (dilated >> (n - a))) & full for a in range(n)]
        rows.append(np.min(rotations, axis=0))
    return np.array(rows)


def oracle_class_keys(n, t_masks, r_masks):
    """min over units u of (rotation-minimal uT << n) | rotation-minimal u^-1 R, per mask pair."""
    table = oracle_dilation_table(n)
    units = [u for u in range(1, n) if np.gcd(u, n) == 1]
    inverse = [units.index(pow(u, -1, n)) for u in units]
    return ((table[:, t_masks] << n) | table[inverse][:, r_masks]).min(axis=0)


def burnside_square_orbits(p, s):
    """Classes of the pairs (T, R), |T| = |R| = s, of Z/p, p prime, by Burnside's lemma.

    The group is the translations of T and of R and the joint dilations
    (uT, u^-1 R), of order p^2 (p - 1).  An element with u = 1 and a
    nonzero translation moves every s-subset, 0 < s < p.  For u != 1 of
    order d, x -> ux + a fixes one point and permutes the other p - 1 in
    cycles of length d, so it fixes the s-subsets made of e in {0, 1} fixed
    points and (s - e) / d of its (p - 1) / d cycles; u^-1 has order d too.
    The phi(d) units of order d each take p^2 translation pairs.
    """
    fixed = math.comb(p, s) ** 2  # the identity
    for d in range(2, p):
        if (p - 1) % d:
            continue
        of_order_d = sum(math.gcd(k, d) == 1 for k in range(1, d + 1))
        subsets = sum(
            math.comb((p - 1) // d, (s - e) // d) for e in (0, 1) if s >= e and (s - e) % d == 0
        )
        fixed += of_order_d * p * p * subsets**2
    orbits, remainder = divmod(fixed, p * p * (p - 1))
    assert remainder == 0, "Burnside's sum must divide by the group order"
    return orbits


def oracle_modular_dft(n):
    """(ell, [g^e mod ell for e < n]): the largest prime ell = 1 (mod n) below 2^31
    and the first x^((ell-1)/n), x = 2, 3, ..., of order exactly n."""
    for ell in range((2**31 - 2) // n * n + 1, n, -n):
        if not _is_prime(ell):
            continue
        for x in itertools.count(2):
            g = pow(x, (ell - 1) // n, ell)
            table = [1]
            while len(table) < n:
                table.append(table[-1] * g % ell)
            if 1 not in table[1:]:
                return ell, table
    return None


def oracle_certified_nonsingular(n, cols, rows):
    """Mask of the minors W[rows[i], cols[i]] whose leading square block has
    no zero pivot mod ell, from one (m, s, s) stack of the whole batch."""
    field = _modular_dft(n)
    if field is None:
        return np.zeros(len(cols), dtype=bool)
    ell, table = field
    s = cols.shape[1]
    # x - x // m * m is x % m, also for negative x; numpy vectorizes int64
    # floor division by a scalar, but not %.
    e = rows[:, :s, None] * cols[:, None, :]
    a = table[e - e // n * n]
    certified = np.ones(len(cols), dtype=bool)
    for _ in range(s):
        certified &= a[:, 0, 0] != 0
        a = a[:, :1, :1] * a[:, 1:, 1:] - a[:, 1:, :1] * a[:, :1, 1:]
        a -= a // ell * ell
    return certified


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


def oracle_algebra_frame_search(shape, p):
    """Pattern count and (T, Omega, scalar, frames) for every flagged pattern, frames over A."""
    frames = standard_frame(shape, p), fourier_frame(shape, p)
    groups = [(size_t, p - size_o) for size_t in range(1, p) for size_o in range(1, p - size_t + 1)]
    checked, hits, _ = _necklace_scan(p, groups, frames)
    scalar, by_frames = ({(tuple(t), tuple(o)) for t, o in found} for found in hits)
    flagged = sorted(scalar | by_frames, key=lambda to: (len(to[0]), to[0], len(to[1]), to[1]))
    return checked, [(list(t), list(o), (t, o) in scalar, (t, o) in by_frames) for t, o in flagged]


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
