"""Discrete Fourier analysis on A^p and additive uncertainty search.

The transform sends x = (x_j) to x_hat_k = (1/sqrt(p)) sum_j e^(-2 pi i jk/p) x_j,
acting entrywise on algebra coordinates, so it is the scalar DFT applied to
each matrix coordinate and in particular a module-norm isometry.

For prime p every square minor of the unitary DFT matrix is nonsingular,
which forces ||x||_0 + ||x_hat||_0 >= p + 1 for nonzero scalar x.  The
search routines here decide support-pattern feasibility through exactly
that minor criterion: a nonzero x with supp(x) inside T and supp(x_hat)
inside Omega exists iff the minor on rows (complement of Omega) and
columns T is rank deficient.  Because the transform acts coordinatewise,
the same criterion settles feasibility for algebra-valued x; the audit
cross-checks that reduction with support_pair_feasible's block rank test
on the standard and Fourier frames over A, which decides each pattern from
the frame matrices without the minor.

A DFT-minor verdict is first sought exactly, by elimination mod a prime
ell = 1 (mod n) (_certified_nonsingular): with zeta = e^(2 pi i/n) and g of
order n in F_ell, zeta^-1 -> g is a ring map from Z[zeta] onto F_ell, so a
minor of full rank mod ell has full rank over C.  Only the minors it
cannot certify fall back to the SVD and frames._numeric_rank at RANK_TOL,
which also decides every frame-side rank verdict.

The minor scans decide one minor per symmetry class.  With W the DFT
matrix of length n, translating the column set T by a multiplies row k
of W[R, T] by the unit scalar e^(-2 pi i ka/n), translating the row set R
by b multiplies column j by e^(-2 pi i jb/n), and for a unit u mod n
W[u^-1 k, u j] = W[k, j], so (T, R) -> (uT, u^-1 R) only permutes rows and
columns.  None of these moves the singular values, so every minor in a
class gets the verdict of one member: the pair that the class key
encodes.  Every set is read as its n-bit mask from one cached table,
_combo_masks, and travels as that mask from draw to decision: a batch is
one array of T masks and one of R masks, pairs are keyed from those
masks, and only class representatives and hits are built as index rows
(_mask_rows); conjecture's random supports are decoded to bool rows.
The key is found T-first with table lookups only: its T half is
minimized first, since the R half is below 2^n, and the R half is then
minimized over the stabilizer of T from that stabilizer's own table.

Both exhaustive searches are one scan (_necklace_scan): tao's critical
layer over the groups (|T|, |R|) = (s, s), and conjecture's structured
search over the groups (|T|, p - |Omega|) with the frames as a second
decider.  Each group is one batch over the pairs of necklaces (sets
minimal among their rotations), since every pair translates to one, and
each flagged necklace pair is expanded to all of its translates.  The
sampled scan decides each drawn pair (T, R) through its leading square
block (T, R[:|T|]), whose row mask is the lowest |T| set bits of R's
(_lowest_bits), one batch per |T| over the pairs of every |Omega|: a
nonsingular square block gives the tall minor full column rank, and at a
prime length every square block is nonsingular.  A size whose batch finds
a deficient block is re-decided in full, one batch per (|T|, |Omega|).
"""

from __future__ import annotations

import functools
import itertools
import math

import numpy as np

from .algebra import AlgebraShape, _as_int, _check_addressable, _complex_gaussian, _entry_norms
from .csmodule import ModuleVector, _module_rank
from .errors import InputError
from .frames import (
    RANK_TOL,
    SUPPORT_REL_TOL,
    ModularFrame,
    _check_rel_tol,
    _numeric_rank,
    _support_mask,
    _validate_indices,
    sparsity,
)
from .uncertainty import _deficient_blocks

__all__ = [
    "dft_matrix",
    "ncdft",
    "ncdft_inverse",
    "standard_frame",
    "fourier_frame",
    "dirac_comb",
    "chebotarev_minor_nonsingular",
    "pattern_feasible_minor",
    "tao_min_sum",
    "conjecture_audit",
]

EXHAUSTIVE_MAX_P = 7
SAMPLED_MAX_P = 13
DEFAULT_SAMPLES = 100_000
PATTERN_SEARCH_MAX_P = 11

# Miller-Rabin with these bases is exact for every n < 2^64.
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)

# Moduli below 2^31 keep every product of two residues below 2^62, inside int64.
_MODULUS_BOUND = 1 << 31

# Longest length whose powers g^e mod ell _modular_dft tabulates (8 MiB of int64).
_TABLE_MAX_ENTRIES = 1 << 20

# Matrix entries per chunk of conjecture_audit's random trials, counted over
# the dense (trials, p, n, n) stacks of all blocks, which bounds the chunk's
# temporary arrays (1,024 trials of M2 at p = 5).
_TRIAL_CHUNK = 20_480


def _is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin primality test for 0 <= n < 2^64."""
    if n < 2:
        return False
    for q in _MR_BASES:
        if n % q == 0:
            return n == q
    d, r = n - 1, 0
    while d % 2 == 0:
        d, r = d // 2, r + 1
    for a in _MR_BASES:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(r - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def _as_prime(p) -> int:
    """p as an int, certified prime by Miller-Rabin; non-integral p is refused."""
    value = _as_int(p, "prime dimension")
    if value >= 1 << 64:
        raise InputError(f"prime dimension {value} is too large")
    if not _is_prime(value):
        raise InputError(f"{value} is not prime")
    return value


def _check_sampled_cap(p: int) -> None:
    if p > SAMPLED_MAX_P:
        raise InputError(f"p={p} exceeds the supported maximum {SAMPLED_MAX_P}")


def dft_matrix(d: int) -> np.ndarray:
    """Unitary DFT matrix, entry (k, j) = e^(-2 pi i jk/d)/sqrt(d)."""
    d = _module_rank(d)
    return _dft_entries(d, np.arange(d)[:, None], np.arange(d))


def _dft_entries(n: int, rows: np.ndarray, cols: np.ndarray) -> np.ndarray:
    """Entries W[rows, cols] of the length-n DFT matrix, with rows and cols broadcast."""
    return np.exp(-2j * np.pi * (rows * cols) / n) / np.sqrt(n)


def ncdft(x: ModuleVector) -> ModuleVector:
    """Entrywise DFT, x_hat_k = (1/sqrt(d)) sum_j e^(-2 pi i jk/d) x_j.

    Any length d is accepted; the prime-dimension theorems simply do not
    apply at composite d.
    """
    return _transform(dft_matrix(x.d), x)


def ncdft_inverse(x: ModuleVector) -> ModuleVector:
    return _transform(dft_matrix(x.d).conj(), x)


def _transform(w: np.ndarray, x: ModuleVector) -> ModuleVector:
    """Entries recombined as sum_j w[k, j] x_j, one matmul per block."""
    blocks = [(w @ blk.reshape(x.d, -1)).reshape(blk.shape) for blk in x.blocks]
    return ModuleVector(x.shape, x.d, blocks)


def standard_frame(shape: AlgebraShape, d: int) -> ModularFrame:
    """The basis frame {e_0, ..., e_(d-1)} of A^d."""
    d = _module_rank(d)
    mats = [np.eye(d * n, dtype=np.complex128) for n in shape.block_dims]
    return ModularFrame._from_mats(shape, d, d, mats)


def fourier_frame(shape: AlgebraShape, d: int) -> ModularFrame:
    """Frame whose analysis map is the entrywise DFT.

    Vector m has entries (omega_m)_j = conj(W[m, j]) 1_A, so
    <x, omega_m> = x_hat_m.
    """
    w = dft_matrix(d)
    mats = [np.kron(w.conj(), np.eye(n)) for n in shape.block_dims]
    return ModularFrame._from_mats(shape, d, d, mats)


def dirac_comb(shape: AlgebraShape, d: int, spacing: int) -> ModuleVector:
    """Indicator of the arithmetic progression {0, spacing, 2 spacing, ...}.

    spacing must divide d.  At d = spacing**2 the comb is a fixed point of
    the DFT and makes the product uncertainty bound tight.
    """
    d, spacing = _module_rank(d), _as_int(spacing, "spacing")
    if spacing < 1 or d % spacing != 0:
        raise InputError(f"spacing {spacing} must be a positive divisor of d={d}")
    blocks = []
    for n in shape.block_dims:
        blk = np.zeros((d, n, n), dtype=np.complex128)
        blk[::spacing] = np.eye(n)
        blocks.append(blk)
    return ModuleVector(shape, d, blocks)


def chebotarev_minor_nonsingular(p, rows, cols) -> bool:
    """True iff the square DFT minor on (rows, cols) is nonsingular.

    Nonsingular means the pattern (T = cols, Omega = complement of rows) is
    infeasible.  For prime p this holds for every square minor.
    """
    p = _as_prime(p)
    rows = _validate_indices(p, rows, "rows")
    cols = _validate_indices(p, cols, "cols")
    if len(rows) != len(cols):
        raise InputError(
            f"minor must be square, got {len(rows)} rows and {len(cols)} columns"
        )
    if not len(rows):
        raise InputError("minor must have at least one row and column")
    return not _rank_deficient(p, cols[None], rows[None])[0][0]


def pattern_feasible_minor(p: int, support_t, support_omega) -> bool:
    """Does a nonzero x exist with supp(x) in T and supp(x_hat) in Omega?

    Works for any length p (prime or not).  Feasibility is equivalent to
    rank deficiency of the DFT minor on rows outside Omega and columns T;
    a minor with fewer rows than columns is deficient.  Any other is first
    offered to the certificate through its leading square block, and the
    full row set is built only for a minor the certificate leaves to
    _rank_deficient.
    """
    p = _as_int(p, "length")
    t = _validate_indices(p, support_t, "support")
    om = _validate_indices(p, support_omega, "fourier support")
    if not len(t):
        return False
    if p - len(om) < len(t):
        return True
    # Row j outside Omega (om sorted) is j plus the count of Omega entries at
    # or below it, so the leading |T| rows need no n-entry array.
    lead = np.arange(len(t))
    lead += np.searchsorted(om - np.arange(len(om)), lead, side="right")
    if _certified_nonsingular(p, t[None], lead[None])[0]:
        return False
    rows = np.delete(np.arange(p), om)
    return bool(_rank_deficient(p, t[None], rows[None])[0][0])


def _rank_deficient(n: int, cols: np.ndarray, rows: np.ndarray) -> tuple[np.ndarray, int]:
    """Mask of the rank-deficient length-n DFT minors W[rows[i], cols[i]], and the SVD count.

    cols is (m, s) and rows (m, r) with r >= s >= 1.  The exact certificate
    mod ell decides every minor it can (a proof of full rank); the numeric
    rank decides the rest, from an SVD of just those minors, built from
    their indices without the n x n matrix.
    """
    undecided = np.flatnonzero(~_certified_nonsingular(n, cols, rows))
    deficient = np.zeros(len(cols), dtype=bool)
    if len(undecided):
        minors = _dft_entries(n, rows[undecided, :, None], cols[undecided, None, :])
        sv = np.linalg.svd(minors, compute_uv=False)
        deficient[undecided] = _numeric_rank(sv, sv[:, :1]) < cols.shape[1]
    return deficient, len(undecided)


def _delta_supports(p: int) -> tuple[list[int], list[int]]:
    """Support and Fourier support of the scalar spike at index 0."""
    x = np.zeros(p, dtype=np.complex128)
    x[0] = 1.0
    return _supports(x, dft_matrix(p) @ x)


def _supports(x: np.ndarray, xh: np.ndarray) -> tuple[list[int], list[int]]:
    """Supports of a scalar vector and of its transform, thresholded at RANK_TOL."""
    return (
        np.flatnonzero(_support_mask(np.abs(x), RANK_TOL)).tolist(),
        np.flatnonzero(_support_mask(np.abs(xh), RANK_TOL)).tolist(),
    )


@functools.lru_cache(maxsize=None)
def _class_tables(n: int) -> tuple[np.ndarray, ...]:
    """Class-key lookup tables for index subsets of Z/n, held as n-bit masks.

    Row i of `dilated` maps a mask m to the smallest rotation of u*m, where
    u is the i-th unit mod n; row 0 (u = 1) maps m to its smallest rotation.
    The units that minimize a T mask's column form a coset u0 Stab(T), with
    Stab(T) = {h : hT is a translate of T} a subgroup of the units: `t_min`
    maps T to that minimum, `t_unit` to the row of u0^-1 for the first such
    u0, and `t_stab` to the index of Stab(T) among the distinct
    stabilizers.  Row k of `stab_min` maps m to the minimum of dilated[h, m]
    over h in the k-th stabilizer.  Built on first use, one unit or one
    stabilizer at a time; 2^n columns, 8192 at p = 13, where 6 stabilizers
    occur.
    """
    units = [u for u in range(n) if math.gcd(u, n) == 1]
    masks = np.arange(1 << n, dtype=np.int64)
    full = (1 << n) - 1
    rot_min = masks.copy()
    for a in range(1, n):
        rot_min = np.minimum(rot_min, ((masks << a) | (masks >> (n - a))) & full)
    dilated = np.empty((len(units), 1 << n), dtype=np.int64)
    stab = np.zeros_like(masks)  # bit i set iff the i-th unit is in Stab(m)
    for i, u in enumerate(units):
        image = np.zeros_like(masks)
        for j in range(n):
            image |= ((masks >> j) & 1) << (u * j % n)
        dilated[i] = rot_min[image]
        stab |= (dilated[i] == rot_min).astype(np.int64) << i
    inverse = np.array([units.index(pow(u, -1, n)) for u in units])
    subgroups, t_stab = np.unique(stab, return_inverse=True)
    stab_min = np.stack(
        [
            functools.reduce(np.minimum, (dilated[i] for i in range(len(units)) if group >> i & 1))
            for group in subgroups.tolist()
        ]
    )
    tables = dilated, dilated.min(axis=0), inverse[dilated.argmin(axis=0)], t_stab, stab_min
    for table in tables:
        table.setflags(write=False)  # shared by every caller through the cache
    return tables


def _class_keys(n: int, t_masks: np.ndarray, r_masks: np.ndarray) -> np.ndarray:
    """One integer per (T, R) mask pair, equal exactly on pairs in one symmetry class.

    The key is the minimum over units u of (rotation-minimal u*T,
    rotation-minimal u^-1*R), packed as (T half << n) | R half, which is
    constant under translating T, translating R and the joint dilation
    (uT, u^-1 R).  The R half is below 2^n, so the minimum is reached only
    at the units u0 Stab(T) that minimize the T half, and it is found
    T-first: the R half is the minimum over h in Stab(T) of the
    rotation-minimal h^-1 u0^-1 R, read from the stabilizer's table at the
    rotation-minimal u0^-1 R (Stab(T) is a group, so h^-1 runs over it as
    h does).  Every pair takes the same lookups, however many units tie.
    """
    dilated, t_min, t_unit, t_stab, stab_min = _class_tables(n)
    return (t_min[t_masks] << n) | stab_min[t_stab[t_masks], dilated[t_unit[t_masks], r_masks]]


@functools.lru_cache(maxsize=None)
def _modular_dft(n: int):
    """(ell, table): the largest prime ell = 1 (mod n) below 2^31, and
    table[e] = g^e mod ell for e < n, where g has order exactly n in F_ell.
    Above _TABLE_MAX_ENTRIES the table is a _PowerMap, which computes the
    same values for just the exponents it is indexed with.

    None if no such prime exists; for n above 2^31 - 2 there is no candidate
    ell at all, and None is returned before the divisors of n are sought.
    g is then a root of the n-th cyclotomic polynomial mod ell, so
    zeta^-1 -> g, zeta = e^(2 pi i/n), is a ring map
    from Z[zeta] onto F_ell; it sends the scaled DFT entry
    sqrt(n) W[k, j] = zeta^(-jk) to table[jk mod n].  g is the first
    x^((ell-1)/n), x = 2, 3, ..., of order exactly n: g^n = 1, so its order
    is n iff g^(n/q) != 1 for every prime q dividing n.  Built on first use.
    """
    candidates = range((_MODULUS_BOUND - 2) // n * n + 1, n, -n)
    if not candidates:
        return None
    divisors = {d for q in range(1, math.isqrt(n) + 1) if n % q == 0 for d in (q, n // q)}
    primes = [q for q in divisors if _is_prime(q)]
    for ell in candidates:
        if not _is_prime(ell):
            continue
        for x in itertools.count(2):
            g = pow(x, (ell - 1) // n, ell)
            if all(pow(g, n // q, ell) != 1 for q in primes):
                break
        if n > _TABLE_MAX_ENTRIES:
            return ell, _PowerMap(g, ell)
        table = np.ones(1, dtype=np.int64)
        while len(table) < n:  # doubling: table[e + k] = table[e] g^k for k = len(table)
            table = np.concatenate([table, table * pow(g, len(table), ell) % ell])
        table = table[:n]
        table.setflags(write=False)  # shared by every caller through the cache
        return ell, table
    return None


class _PowerMap:
    """g^e mod ell for an array of exponents e, read as power_map[e] like a table.

    Computed by square-and-multiply over the bits of e, vectorized; every
    factor is below ell < 2^31, so each product stays below 2^62.
    """

    def __init__(self, g: int, ell: int):
        self.g, self.ell = g, ell

    def __getitem__(self, exponents) -> np.ndarray:
        e = np.asarray(exponents, dtype=np.int64)
        powers = np.ones(e.shape, dtype=np.int64)
        square = self.g
        while e.any():
            odd = (e & 1).astype(bool)
            powers[odd] = powers[odd] * square % self.ell
            square = square * square % self.ell
            e = e >> 1
        return powers


def _certified_nonsingular(n: int, cols: np.ndarray, rows: np.ndarray) -> np.ndarray:
    """Mask of the minors W[rows[i], cols[i]] proved to have full column rank.

    cols is (m, s) and rows (m, r) with r >= s.  The leading square block,
    rows[i, :s] by cols[i], is mapped into F_ell by _modular_dft(n) and
    eliminated fraction-free without pivoting,
    a <- (a[0, 0] a[1:, 1:] - a[1:, :1] a[:1, 1:]) mod ell, which keeps
    the determinant nonzero iff the pivot a[0, 0] is.  If every pivot is
    nonzero, the block's determinant in Z[zeta] has a nonzero image mod ell,
    so the block is nonsingular over C and the minor has full column rank.
    A zero pivot proves nothing; that minor is left undecided (False).
    """
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


def _exact_summary(n: int, float_fallbacks: int) -> dict:
    """The report's "exact" entry: the certificate's modulus and fallback count."""
    return {"modulus": _modular_dft(n)[0], "float_fallbacks": float_fallbacks}


class _ClassBatch:
    """A batch of length-n (T, R) pairs, keyed once by symmetry class.

    Pair i is the column set T with n-bit mask t_masks[i] and the row set R
    with mask r_masks[i]; all T share one size, all R one size |R| >= |T|,
    and Omega is the complement of R.  Pairs are keyed by their masks
    (_class_keys), with no per-pair index rows.  A key fixes |T| and |R|,
    and it encodes a member of its class: the rotation-minimal u*T and
    u^-1*R at a minimizing unit u.  Row c of cols and rows is that pair for
    the c-th smallest key, so a decider that sees only singular values
    decides each class once, from cols and rows.  Pairs are matched to their
    class (members) only when some class is flagged, never at a prime length.
    """

    def __init__(self, n: int, t_masks: np.ndarray, r_masks: np.ndarray):
        self.n, self.t_masks, self.r_masks = n, t_masks, r_masks
        self.keys = _class_keys(n, t_masks, r_masks)
        # Sorted distinct keys by one sort: np.unique without return values
        # takes numpy's hash path, which is slower and imports numpy.ma.
        ordered = np.sort(self.keys)
        self.classes = ordered[np.diff(ordered, prepend=-1) > 0]
        self.cols = _mask_rows(n, self.classes >> n)
        self.rows = _mask_rows(n, self.classes & ((1 << n) - 1))

    def members(self, flagged: np.ndarray) -> list:
        """(T, R) of every pair whose class is flagged, in batch order, as lists."""
        if not flagged.any():
            return []
        i = np.flatnonzero(flagged[np.searchsorted(self.classes, self.keys)])
        t_rows, r_rows = _mask_rows(self.n, self.t_masks[i]), _mask_rows(self.n, self.r_masks[i])
        return list(zip(t_rows.tolist(), r_rows.tolist()))

    def deficient_minors(self):
        """(T, Omega) for every pair whose DFT minor is rank deficient, by _rank_deficient.

        Returns the hits and the number of classes the SVD fallback decided.
        """
        deficient, fallbacks = _rank_deficient(self.n, self.cols, self.rows)
        return _patterns(self.n, self.members(deficient)), fallbacks


def _mask_rows(n: int, masks: np.ndarray) -> np.ndarray:
    """Row i lists the set bits of the n-bit masks[i], ascending; every mask has as many set."""
    return np.nonzero((masks[:, None] >> np.arange(n)) & 1)[1].reshape(len(masks), -1)


def _lowest_bits(masks: np.ndarray, s: int) -> np.ndarray:
    """The lowest s set bits of each mask, each having at least s, in s elementwise passes."""
    rest = masks
    for _ in range(s):
        rest = rest & (rest - 1)  # clears the lowest set bit
    return masks ^ rest


def _patterns(n: int, pairs) -> list:
    """(T, Omega) of each length-n pair (T, R): Omega is the complement of the row set R."""
    everything = set(range(n))
    return [(list(t), sorted(everything - set(r))) for t, r in pairs]


def _necklace_scan(n: int, groups, frames=None):
    """Decide every length-n pair (T, R) of each (|T|, |R|) group, one class at a time.

    Translating T or R keeps every decider's verdict, so each group is one
    _ClassBatch over the pairs of necklaces (sets whose mask is the
    smallest of its rotations): every pair translates to exactly one.  The
    classes are decided by the DFT minor (_rank_deficient) and, if frames
    is (tau, omega), by the block rank test on those frames
    (_deficient_blocks).  Each necklace pair a decider flags is expanded
    to all of its translates, each listed once, in the (T, R) order of a
    scan over every pair of the group.  Returns the pair count, one hit
    list of (T, Omega) per decider (the minor's first) and the number of
    classes the minor's SVD fallback decided.
    """
    is_necklace = _class_tables(n)[0][0] == np.arange(1 << n)
    checked, fallbacks = 0, 0
    hits = [[], []] if frames else [[]]  # one list per decider
    for size_t, size_r in groups:
        t_sets, r_sets = _combo_masks(n, size_t), _combo_masks(n, size_r)
        t_sets, r_sets = t_sets[is_necklace[t_sets]], r_sets[is_necklace[r_sets]]
        batch = _ClassBatch(n, np.repeat(t_sets, len(r_sets)), np.tile(r_sets, len(t_sets)))
        deficient, decided = _rank_deficient(n, batch.cols, batch.rows)
        verdicts = [deficient]
        if frames:
            comp_t = _mask_rows(n, ((1 << n) - 1) ^ (batch.classes >> n))
            verdicts.append(_deficient_blocks(*frames, comp_t, batch.rows).any(axis=1))
        for found, flagged in zip(hits, verdicts):
            orbit = set()
            for t, r in batch.members(flagged):
                orbit.update(itertools.product(_translates(n, t), _translates(n, r)))
            found += _patterns(n, sorted(orbit))
        fallbacks += decided
        checked += math.comb(n, size_t) * math.comb(n, size_r)
    return checked, hits, fallbacks


def _layer_pairs_exhaustive(p: int):
    """The necklace scan of every square minor in the layer |T| + |Omega| = p.

    Finds no (T, Omega) for primes.  By monotonicity in Omega this layer
    decides all patterns with smaller support sums.  Returns the pair count,
    sum of C(p, s)^2, the hits and the SVD fallback's class count.
    """
    checked, (hits,), fallbacks = _necklace_scan(p, [(s, s) for s in range(1, p)])
    return checked, hits, fallbacks


def _sampled_pairs(n: int, samples: int, seed: int):
    """Decide `samples` random length-n support pairs (the sampled law of tao_min_sum).

    The sizes are drawn first, then each (|T|, |Omega|) = (s, t) group's
    pairs in sorted (s, t) order (_draw_group), as masks.  Every pair is
    offered through its leading square block W[R[:s], T], whose row mask
    is the lowest s set bits of R's (_lowest_bits): a tall minor with a
    nonsingular square block has full column rank, and at a prime length
    every square block is nonsingular.  The square blocks of all groups of
    one s form one batch, decided as soon as its last group is drawn; the
    key is taken over every t at once, since translating R does not
    translate its prefix.  Only a size whose batch finds a deficient block
    is re-decided in full, one _ClassBatch per (s, t) group, so
    the hits are those of the full minors, in draw order.  Returns the hits
    and the number of classes the SVD fallback decided, square batches and
    re-decided groups alike.
    """
    rng = np.random.default_rng(seed)
    s_arr = rng.integers(1, n, size=samples)
    t_arr = rng.integers(1, n - s_arr + 1)
    # one group per (s, t) in sorted order; t < n, so s * n + t sorts like (s, t)
    codes, sizes = np.unique(s_arr * n + t_arr, return_counts=True)
    hits, fallbacks = [], 0
    s_codes, t_codes = np.divmod(codes, n)
    groups = zip(s_codes.tolist(), t_codes.tolist(), sizes.tolist())
    for s, same_s in itertools.groupby(groups, key=lambda group: group[0]):
        drawn = [_draw_group(rng, n, s, t, m) for _, t, m in same_s]
        columns, rows = (np.concatenate(side) for side in zip(*drawn))
        found, decided = _ClassBatch(n, columns, _lowest_bits(rows, s)).deficient_minors()
        fallbacks += decided
        if not found:
            continue
        for t_masks, r_masks in drawn:
            found, decided = _ClassBatch(n, t_masks, r_masks).deficient_minors()
            hits += found
            fallbacks += decided
    return hits, fallbacks


def _draw_group(rng, n: int, s: int, t: int, m: int) -> tuple[np.ndarray, np.ndarray]:
    """m uniform pairs with |T| = s and |Omega| = t: entries of _combo_masks(n, s), (n, n - t)."""
    t_masks = _combo_masks(n, s)[rng.integers(math.comb(n, s), size=m)]
    r_masks = _combo_masks(n, n - t)[rng.integers(math.comb(n, n - t), size=m)]
    return t_masks, r_masks


def _translates(n: int, indices) -> set[tuple[int, ...]]:
    """Every translate of an index set mod n, each once, as a sorted tuple."""
    return {tuple(sorted((j + a) % n for j in indices)) for a in range(n)}


@functools.lru_cache(maxsize=None)
def _combo_masks(n: int, size: int) -> np.ndarray:
    """The n-bit mask of every size-subset of range(n), lexicographic.  Built on first use."""
    subsets = itertools.combinations([1 << j for j in range(n)], size)
    masks = np.fromiter(map(sum, subsets), dtype=np.int64, count=math.comb(n, size))
    masks.setflags(write=False)  # shared by every caller through the cache
    return masks


def _draw_supports(rng, p: int, m: int) -> np.ndarray:
    """(m, p) bool rows of m random supports in range(p), decoded from their masks.

    Each draws its size s uniform on [1, p], then its subset as a uniform
    rank into _combo_masks(p, s), read from the tables of all sizes laid
    end to end in size order.
    """
    counts = np.array([math.comb(p, s) for s in range(p + 1)])
    masks = np.concatenate([_combo_masks(p, s) for s in range(p + 1)])
    sizes = rng.integers(1, p + 1, size=m)
    drawn = masks[np.cumsum(counts)[sizes - 1] + rng.integers(counts[sizes])]
    return ((drawn[:, None] >> np.arange(p)) & 1).astype(bool)


def _draw_trials(rng, shape: AlgebraShape, p: int, m: int):
    """m random sparse vectors of A^p: their dense blocks and their (m, p) entry norms.

    The supports are _draw_supports' bool rows, drawn before any Gaussian.
    Gaussians are drawn for the supported entries only, a (K, n, n) stack
    per block in block order, K the total support size, and scattered into
    zeroed (m, p, n, n) stacks.  The norms are taken from the drawn entries
    alone; every other entry is 0 and has norm 0.
    """
    supported = np.flatnonzero(_draw_supports(rng, p, m))
    x_blocks = []
    for n in shape.block_dims:
        _check_addressable((m, p, n, n), np.complex128)
        x_blocks.append(np.zeros((m, p, n, n), dtype=np.complex128))
    drawn = [_complex_gaussian(rng, (len(supported), n, n)) for n in shape.block_dims]
    for xb, entries in zip(x_blocks, drawn):
        xb.reshape(m * p, *entries.shape[1:])[supported] = entries
    norms = np.zeros((m, p))
    norms.reshape(-1)[supported] = _entry_norms(drawn)
    return x_blocks, norms


def _pattern_search(shape: AlgebraShape, p: int):
    """Decide every support pattern (T, Omega), |T| + |Omega| <= p, |T| < p, two ways.

    One _necklace_scan over the groups (|T|, |R|) = (|T|, p - |Omega|), R
    the complement of Omega.  The scalar way is the DFT minor on rows R and
    columns T; the frame way is support_pair_feasible's block rank test on
    the standard and Fourier frames over A (_deficient_blocks).  Deciding
    one pair per class is sound for the frame way too: its constraint stack
    is the rows e_j (x) I_n, j outside T, over the rows conj(W[k]) (x) I_n,
    k in R (the Fourier frame is kron(conj W, I_n)).  Translating T or R
    and the joint dilation (uT, u^-1 R) change that stack only by row
    permutations, unit-modulus row and column scalings and a column
    permutation, all unitary and tensored with I_n, so no block's singular
    values move.  Returns the pattern count and, in the order
    (|T|, T, |Omega|, Omega), (T, Omega, scalar verdict, frame verdict) for
    every pattern that either way finds feasible, and the number of classes
    the scalar way's SVD fallback decided.
    """
    frames = standard_frame(shape, p), fourier_frame(shape, p)
    groups = [(size_t, p - size_o) for size_t in range(1, p) for size_o in range(1, p - size_t + 1)]
    checked, hits, fallbacks = _necklace_scan(p, groups, frames)
    scalar, by_frames = ({(tuple(t), tuple(o)) for t, o in found} for found in hits)
    flagged = sorted(scalar | by_frames, key=lambda to: (len(to[0]), to[0], len(to[1]), to[1]))
    flagged = [(list(t), list(o), (t, o) in scalar, (t, o) in by_frames) for t, o in flagged]
    return checked, flagged, fallbacks


def _pattern_witness(p: int, w: np.ndarray, t, omega):
    """Kernel vector for a feasible pattern, with its thresholded supports."""
    rows = sorted(set(range(p)) - set(omega))
    if rows:
        minor = w[np.ix_(rows, list(t))]
        _, _, vh = np.linalg.svd(minor)
        coeffs = vh[-1].conj()
    else:
        coeffs = np.zeros(len(t), dtype=np.complex128)
        coeffs[0] = 1.0
    x = np.zeros(p, dtype=np.complex128)
    x[list(t)] = coeffs
    return (x, *_supports(x, w @ x))


def tao_min_sum(
    p,
    mode: str = "exhaustive",
    samples: int = DEFAULT_SAMPLES,
    seed: int = 0,
    force: bool = False,
) -> dict:
    """Minimum of ||x||_0 + ||x_hat||_0 over nonzero scalar x of length p.

    Exhaustive mode decides every square DFT minor in the critical layer
    |T| + |Omega| = p, which settles all smaller support sums as well, by
    the necklace scan over the groups (|T|, |R|) = (s, s) (_necklace_scan).
    Sampled mode tests `samples` random support pairs by the same minor
    criterion.  Each pair draws s = |T| uniform on [1, p - 1], then
    t = |Omega| uniform on [1, p - s], then T uniform among the s-subsets
    and the row set R uniform among the (p - t)-subsets, so Omega, the
    complement of R, is a uniform t-subset; T and R are masks picked from
    _combo_masks by one uniform index each.  Each pair is decided through
    its leading square block, one batch per s (see _sampled_pairs), and
    float_fallbacks counts the square classes the SVD decided, plus any
    full classes of a size re-decided in full.  For prime p all minors are
    nonsingular, so the minimum is p + 1, attained by the spike at 0, and
    the report does not depend on which pairs a seed draws.

    Exhaustive mode is capped at p <= 7 unless force=True (the minor count
    grows like C(2p, p)); sampled mode is capped at p <= 13.
    """
    p = _as_prime(p)
    if mode not in ("exhaustive", "sampled"):
        raise InputError(f"mode must be 'exhaustive' or 'sampled', got {mode!r}")
    _check_sampled_cap(p)
    if mode == "exhaustive" and p > EXHAUSTIVE_MAX_P and not force:
        raise InputError(
            f"exhaustive mode at p={p} scans ~C(2p,p) minors; pass force=True "
            f"to run it anyway or use mode='sampled'"
        )
    if mode == "sampled" and _as_int(samples, "samples") < 1:
        raise InputError(f"samples must be positive, got {samples}")

    w = dft_matrix(p)
    violations = []

    if mode == "exhaustive":
        checked, hits, fallbacks = _layer_pairs_exhaustive(p)
    else:
        _check_addressable((samples,), np.int64)
        checked = int(samples)
        hits, fallbacks = _sampled_pairs(p, samples, seed)

    min_sum = None
    witness = None
    for t, omega in hits:
        x, sup, fsup = _pattern_witness(p, w, t, omega)
        total = len(sup) + len(fsup)
        if min_sum is None or total < min_sum:
            min_sum = total
            witness = {
                "support": sup,
                "fourier_support": fsup,
                "entries": [[float(z.real), float(z.imag)] for z in x],
            }
        violations.append({"support": t, "fourier_support": omega})

    sup, fsup = _delta_supports(p)
    delta_sum = len(sup) + len(fsup)
    if min_sum is None or delta_sum < min_sum:
        min_sum = delta_sum
        witness = {"support": sup, "fourier_support": fsup}

    report = {
        "p": int(p),
        "mode": mode,
        "pairs_checked": int(checked),
        "min_sum": int(min_sum),
        "witness": witness,
        "threshold": RANK_TOL,
        "exact": _exact_summary(p, fallbacks),
    }
    if violations:
        report["violating_patterns"] = violations
    return report


def conjecture_audit(
    shape: AlgebraShape,
    p,
    trials: int,
    seed: int = 0,
    rel_tol: float = SUPPORT_REL_TOL,
) -> dict:
    """Brute-force search for violations of ||x||_0 + ||x_hat||_0 >= p + 1.

    Three layers of evidence over A^p:
      random sparse draws: `trials` vectors, each with a support size
      uniform on [1, p], a support uniform among the subsets of that size
      and i.i.d. complex Gaussian algebra entries on the support (drawn
      there only, see _draw_trials), thresholded support counting; the
      trials run in chunks of about _TRIAL_CHUNK matrix entries, at least
      one trial each, and a violation names its trial's global index;
      spike witness: the vector with 1_A at index 0 must attain p + 1;
      structured search (p <= 11): every support pattern with sum <= p is
      tested by the scalar minor criterion (the transform acts on each
      scalar coordinate of A separately, so scalar infeasibility rules out
      algebra-valued solutions) and cross-checked by support_pair_feasible's
      rank test on the standard and Fourier frames over A, which decides
      the same pattern for algebra-valued x from the frame matrices (see
      _pattern_search).

    Any recorded violation is classified: "counterexample" if the scalar
    oracle confirms the support pattern is genuinely feasible, otherwise
    "implementation-defect" (a thresholding artifact).
    """
    p = _as_prime(p)
    trials = _as_int(trials, "trials")
    if trials < 1:
        raise InputError(f"trials must be positive, got {trials}")
    _check_sampled_cap(p)
    _check_rel_tol(rel_tol)

    w = dft_matrix(p)
    rng = np.random.default_rng(seed)
    min_sum = None
    vector_violations = []

    chunk = max(1, _TRIAL_CHUNK // (p * shape.dim))
    for done in range(0, trials, chunk):
        m = min(chunk, trials - done)
        x_blocks, x_norms = _draw_trials(rng, shape, p, m)
        # x_hat_k = sum_j w[k, j] x_j for every trial at once: one GEMM per block,
        # kept as its contiguous (p, m, n, n) output; the (p, m) norms are transposed
        h_blocks = [
            (w @ xb.transpose(1, 0, 2, 3).reshape(p, -1)).reshape(p, m, n, n)
            for n, xb in zip(shape.block_dims, x_blocks)
        ]
        x_supp = _support_mask(x_norms, rel_tol)
        h_supp = _support_mask(_entry_norms(h_blocks).T, rel_tol)
        sums = x_supp.sum(axis=1) + h_supp.sum(axis=1)
        batch_min = int(sums.min())
        if min_sum is None or batch_min < min_sum:
            min_sum = batch_min
        for i in np.nonzero(sums <= p)[0]:
            if len(vector_violations) >= 10:
                break
            sup = np.flatnonzero(x_supp[i]).tolist()
            fsup = np.flatnonzero(h_supp[i]).tolist()
            vec = ModuleVector(shape, p, [xb[i] for xb in x_blocks])
            feasible = pattern_feasible_minor(p, sup, fsup)
            vector_violations.append(
                {
                    "trial": int(done + i),
                    "sum": int(sums[i]),
                    "support": sup,
                    "fourier_support": fsup,
                    "classification": "counterexample" if feasible else "implementation-defect",
                    "vector": vec.to_dict(),
                }
            )

    delta = dirac_comb(shape, p, p)
    delta_sum = sparsity(delta, rel_tol) + sparsity(ncdft(delta), rel_tol)
    min_sum = int(min(min_sum, delta_sum))

    patterns_checked, flagged, fallbacks = 0, [], 0
    pattern_search_performed = p <= PATTERN_SEARCH_MAX_P
    if pattern_search_performed:
        patterns_checked, flagged, fallbacks = _pattern_search(shape, p)
    pattern_violations = [{"support": t, "fourier_support": o} for t, o, _, _ in flagged]
    crosscheck_agreed = all(scalar == by_frames for _, _, scalar, by_frames in flagged)

    holds = (
        min_sum >= p + 1
        and delta_sum == p + 1
        and not vector_violations
        and not pattern_violations
        and crosscheck_agreed
    )
    report = {
        "algebra": shape.to_list(),
        "p": int(p),
        "trials": trials,
        "seed": int(seed),
        "rel_tol": float(rel_tol),
        "threshold": RANK_TOL,
        "min_sum": int(min_sum),
        "delta_witness_sum": int(delta_sum),
        "vector_violations": vector_violations,
        "patterns_checked": int(patterns_checked),
        "pattern_violations": pattern_violations,
        "reduction_crosscheck_agreed": bool(crosscheck_agreed),
        "pattern_search_performed": bool(pattern_search_performed),
        "holds": bool(holds),
    }
    if pattern_search_performed:
        report["exact"] = _exact_summary(p, fallbacks)
    return report
