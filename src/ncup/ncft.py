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
on the standard and Fourier frames, which decides each pattern from the
frame matrices without the minor.  The frames over A are checked to be
exactly kron(frame over C, I_n) block by block, so the rank test runs on
the frames over C.

A DFT-minor verdict is first sought exactly, by elimination mod a prime
ell = 1 (mod n) (_certified_nonsingular): with zeta = e^(2 pi i/n) and g of
order n in F_ell, zeta^-1 -> g is a ring map from Z[zeta] onto F_ell, so a
minor of full rank mod ell has full rank over C.  A batch is eliminated
in chunks of about _MINOR_CHUNK residues, each an (s, s, chunk) int64 stack
with the batch axis last, so the certificate's memory does not grow with
the batch.  Only the minors it cannot certify fall back to the SVD and
frames._numeric_rank at RANK_TOL, which also decides every frame-side rank
verdict.

The minor scans decide one minor per symmetry class.  With W the DFT
matrix of length n, translating the column set T by a multiplies row k
of W[R, T] by the unit scalar e^(-2 pi i ka/n), translating the row set R
by b multiplies column j by e^(-2 pi i jb/n), and for a unit u mod n
W[u^-1 k, u j] = W[k, j], so (T, R) -> (uT, u^-1 R) only permutes rows and
columns.  None of these moves the singular values, so every minor in a
class gets the verdict of one member: the pair that the class key
encodes.  Every set is read as its n-bit mask from one cached table,
_combo_masks, and a batch is the Cartesian product of a list of T masks
and a list of R masks: pairs are keyed from those masks, and only class
representatives and hits are built as index rows (_mask_rows);
conjecture's random supports are decoded to bool rows.  The key is found
T-first from one dilation table, _class_tables: its T half is minimized
over every unit first, since the R half is below 2^n, and the R half is
then minimized over just the units that tie for the T half.

Both exhaustive searches run one square-layer driver (_square_layers):
tao's critical layer over the groups (|T|, |R|) = (s, s), and
conjecture's structured search, which adds the frames as a second decider
and carries the tall groups (|T|, p - |Omega|), |R| > |T|, from the square
ones by monotonicity.  Each group is decided as one batch over the pairs of
necklaces (sets minimal among their rotations, _decide_group), since every
pair translates to one in its class; a batch over every pair of the group,
built only when a class is flagged, lists that class's pairs
(_ClassBatch.patterns).  W is unitary, so a square block is nonsingular
exactly when its complement is (Jacobi's complementary-minor identity):
the minor decides the layers s <= n/2 unless they flag a class or fall
back.  A size whose square layer is not settled has its tall groups
scanned in full (_necklace_scan).
"""

from __future__ import annotations

import functools
import itertools
import math

import numpy as np

from .algebra import (
    AlgebraShape,
    _as_count,
    _as_int,
    _as_seed,
    _check_addressable,
    _complex_gaussian,
    _entry_masses,
    _entry_norms,
)
from .csmodule import ModuleVector, _module_rank
from .errors import InputError
from .frames import (
    RANK_TOL,
    SUPPORT_REL_TOL,
    ModularFrame,
    _check_rel_tol,
    _numeric_rank,
    _screened_support_mask,
    _support_mask,
    _validate_indices,
    sparsity,
    support,
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

# The algebra C, over which the structured search decides its frame side.
_SCALARS = AlgebraShape((1,))

EXHAUSTIVE_MAX_P = 7
SAMPLED_MAX_P = 13
DEFAULT_SAMPLES = 100_000

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

# Residue entries per chunk of _certified_nonsingular's (s, s, minors) stack,
# which bounds the chunk's int64 stacks at 2 MiB each (4,096 minors at s = 8).
_MINOR_CHUNK = 1 << 18

# A square frame-side class of the structured search whose sigma_min /
# sigma_max exceeds this times RANK_TOL proves its tall extensions full rank:
# sqrt(2) by the bound of _square_layers, and sqrt(2) more for rounding.
_EXTENSION_MARGIN = 2.0


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


@functools.lru_cache(maxsize=None)
def _class_tables(n: int) -> tuple[np.ndarray, np.ndarray]:
    """The dilation table of index subsets of Z/n, held as n-bit masks, and its inverse rows.

    Row i of `dilated` maps a mask m to the smallest rotation of u*m, where
    u is the i-th unit mod n; row 0 (u = 1) maps m to its smallest rotation,
    so the masks it fixes are the necklaces.  Row `inverse[i]` is that of
    u^-1.  Built on first use, one unit at a time; 2^n columns, 8192 at
    p = 13.
    """
    units = [u for u in range(n) if math.gcd(u, n) == 1]
    masks = np.arange(1 << n, dtype=np.int64)
    full = (1 << n) - 1
    rot_min = masks.copy()
    for a in range(1, n):
        rot_min = np.minimum(rot_min, ((masks << a) | (masks >> (n - a))) & full)
    dilated = np.empty((len(units), 1 << n), dtype=np.int64)
    for i, u in enumerate(units):
        image = np.zeros_like(masks)
        for j in range(n):
            image |= ((masks >> j) & 1) << (u * j % n)
        dilated[i] = rot_min[image]
    inverse = np.array([units.index(pow(u, -1, n)) for u in units])
    for table in (dilated, inverse):
        table.setflags(write=False)  # shared by every caller through the cache
    return dilated, inverse


def _class_keys(n: int, t_sets: np.ndarray, r_sets: np.ndarray) -> np.ndarray:
    """One integer per (T, R) pair of the Cartesian batch, equal exactly on pairs in one class.

    Pair i is the T mask t_sets[i // len(r_sets)] and the R mask
    r_sets[i % len(r_sets)].  The key is the minimum over units u of
    (rotation-minimal u*T, rotation-minimal u^-1*R), packed as
    (T half << n) | R half, which is constant under translating T,
    translating R and the joint dilation (uT, u^-1 R).  The R half is
    below 2^n, so the minimum is reached only at the units that minimize
    the T half, and it is found T-first: the T half is the minimum over
    every unit, and the R half the minimum over just the units that tie
    for it, however many do.
    """
    dilated, inverse = _class_tables(n)
    t_images, r_images = dilated[:, t_sets], dilated[:, r_sets][inverse]
    t_half = t_images.min(axis=0)
    keys = np.full((len(t_sets), len(r_sets)), 1 << n)  # above every R half
    for t_image, r_image in zip(t_images, r_images):
        np.minimum(keys, r_image, out=keys, where=(t_image == t_half)[:, None])
    keys |= t_half[:, None] << n
    return keys.ravel()


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

    The blocks are eliminated in chunks of about _MINOR_CHUNK stack entries,
    at least one block each, as an (s, s, chunk) int64 stack with the batch
    axis last, built from contiguous (s, chunk) copies of the indices, so
    every step runs over contiguous runs of the chunk's length.  At most
    five such stacks are alive at once, so beyond the (m,) mask the kernel
    holds under 10 MiB (5 * 8 * _MINOR_CHUNK bytes) at any batch size.
    """
    field = _modular_dft(n)
    if field is None:
        return np.zeros(len(cols), dtype=bool)
    ell, table = field
    m, s = cols.shape
    certified = np.ones(m, dtype=bool)
    step = max(1, _MINOR_CHUNK // (s * s))
    for start in range(0, m, step):
        chunk = slice(start, start + step)
        r_t, c_t = rows[chunk, :s].T.copy(), cols[chunk].T.copy()
        # x - x // q * q is x % q, also for negative x; numpy vectorizes int64
        # floor division by a scalar, but not %.
        e = r_t[:, None] * c_t[None]
        a = table[e - e // n * n]
        ok = certified[chunk]
        for _ in range(s):
            ok &= a[0, 0] != 0
            b = a[1:, 1:] * a[0, 0]
            b -= a[1:, :1] * a[:1, 1:]
            b -= b // ell * ell
            a = b
    return certified


def _exact_summary(n: int, float_fallbacks: int) -> dict:
    """The report's "exact" entry: the certificate's modulus and fallback count."""
    return {"modulus": _modular_dft(n)[0], "float_fallbacks": float_fallbacks}


class _ClassBatch:
    """The Cartesian batch of length-n (T, R) pairs of two set lists, keyed once by class.

    t_sets and r_sets hold n-bit masks; pair i is the column set
    T = t_sets[i // len(r_sets)] and the row set R = r_sets[i % len(r_sets)].
    All T share one size, all R one size |R| >= |T|, and Omega is the
    complement of R.  Pairs are keyed from the masks (_class_keys), with no
    per-pair index rows.  A key fixes |T| and |R|, and it encodes a member
    of its class: the rotation-minimal u*T and u^-1*R at a minimizing unit
    u.  Row c of cols and rows is that pair for the c-th smallest key, so a
    decider that sees only singular values decides each class once, from
    cols and rows.  The per-pair keys are not kept: pairs are keyed again
    and matched to their class (patterns) only when some class is flagged,
    never at a prime length.
    """

    def __init__(self, n: int, t_sets: np.ndarray, r_sets: np.ndarray):
        self.n, self.t_sets, self.r_sets = n, t_sets, r_sets
        # Sorted distinct keys by one in-place sort: np.unique without return
        # values takes numpy's hash path, which is slower and imports numpy.ma.
        ordered = _class_keys(n, t_sets, r_sets)
        ordered.sort()
        self.classes = ordered[np.diff(ordered, prepend=-1) > 0]
        self.cols = _mask_rows(n, self.classes >> n)
        self.rows = _mask_rows(n, self.classes & ((1 << n) - 1))

    def patterns(self, flagged: np.ndarray) -> list:
        """(T, Omega) of every pair whose class is flagged, in batch order, as lists."""
        if not flagged.any():
            return []
        keys = _class_keys(self.n, self.t_sets, self.r_sets)
        i = np.flatnonzero(flagged[np.searchsorted(self.classes, keys)])
        t, r = np.divmod(i, len(self.r_sets))
        omegas = ((1 << self.n) - 1) ^ self.r_sets[r]
        t_rows, o_rows = _mask_rows(self.n, self.t_sets[t]), _mask_rows(self.n, omegas)
        return list(zip(t_rows.tolist(), o_rows.tolist()))


def _mask_rows(n: int, masks: np.ndarray) -> np.ndarray:
    """Row i lists the set bits of the n-bit masks[i], ascending; every mask has as many set."""
    return np.nonzero((masks[:, None] >> np.arange(n)) & 1)[1].reshape(len(masks), -1)


def _decide_group(n: int, size_t: int, size_r: int, frames=None, scalar=True):
    """Decide every length-n pair (T, R) of one (|T|, |R|) group, one class at a time.

    Translating T or R keeps every decider's verdict, so the group is one
    _ClassBatch over the pairs of necklaces (sets whose mask is the
    smallest of its rotations): every pair translates to exactly one.  The
    classes are decided by the DFT minor (_rank_deficient) unless scalar is
    False, and, if frames is (tau, omega), by the block rank test on those
    frames (_deficient_blocks): first at _EXTENSION_MARGIN times RANK_TOL
    and, only if that flags a class, at RANK_TOL itself.  Only when a
    decider flags a class is the group keyed again, one _ClassBatch over
    every pair: each pair translates to a necklace pair of its key, so that
    batch has the same classes, and the same flags list every member of a
    flagged class in the group's (T, R) order.  Returns one hit list of
    (T, Omega) per decider (the minor's first), the number of classes the
    minor's SVD fallback decided, and whether the group is settled: no
    class flagged by the minor, decided by the fallback or flagged by the
    frames at the margin.
    """
    rot_min = _class_tables(n)[0][0]
    t_all, r_all = _combo_masks(n, size_t), _combo_masks(n, size_r)
    batch = _ClassBatch(n, t_all[rot_min[t_all] == t_all], r_all[rot_min[r_all] == r_all])
    deficient, decided = np.zeros(len(batch.classes), dtype=bool), 0
    if scalar:
        deficient, decided = _rank_deficient(n, batch.cols, batch.rows)
    verdicts, near = [deficient], deficient
    if frames:
        comp_t = _mask_rows(n, ((1 << n) - 1) ^ (batch.classes >> n))
        near = _deficient_blocks(*frames, comp_t, batch.rows, _EXTENSION_MARGIN).any(axis=1)
        flagged = _deficient_blocks(*frames, comp_t, batch.rows).any(axis=1) if near.any() else near
        verdicts.append(flagged)
    if any(flagged.any() for flagged in verdicts):
        batch = _ClassBatch(n, t_all, r_all)  # the group's every pair, to list the flagged classes
    hits = [batch.patterns(flagged) for flagged in verdicts]
    return hits, decided, not (decided or deficient.any() or near.any())


def _necklace_scan(n: int, groups, frames=None):
    """Decide every pair of each (|T|, |R|) group in full (_decide_group).

    Returns the pair count, one hit list of (T, Omega) per decider (the
    minor's first) and the number of classes the minor's SVD fallback
    decided.
    """
    checked, fallbacks = 0, 0
    hits = [[], []] if frames else [[]]  # one list per decider
    for size_t, size_r in groups:
        found, decided, _ = _decide_group(n, size_t, size_r, frames)
        hits, fallbacks = [a + b for a, b in zip(hits, found)], fallbacks + decided
        checked += math.comb(n, size_t) * math.comb(n, size_r)
    return checked, hits, fallbacks


def _square_layers(n: int, frames=None):
    """Decide the square groups (|T|, |R|) = (s, s), s = 1..n-1, and through them the tall ones.

    One _decide_group per square layer, shared by both deciders.  The minor
    decides the layers s <= n/2, and those above only once a hit or a
    fallback has been found: by Jacobi's identity, with F = sqrt(n) W and
    F F^* = n I, conj(det F[R, T]) = +-n^s det F[R^c, T^c] / det F for
    |R| = |T| = s, so certifying the size-(n - s) complement proves the
    block.  The frames, if given as (tau, omega), decide every square
    layer: no complement rule is applied to them.

    With frames, each tall group (s, r), r > s, is carried by monotonicity
    from the square layer s: every tall pair (T, R) holds a square pair
    (T, R'), R' inside R.  For the minor, a nonsingular W[R', T] gives
    W[R, T] full column rank.  For the frames, the tall constraint stack
    (rows e_j, j outside T, over rows conj(W[k]), k in R) holds the square
    stack's rows, so sigma_min(tall) >= sigma_min(square), and each of the
    two row sets is orthonormal, so every stack has sigma_max in
    [1, sqrt(2)]: a square ratio sigma_min / sigma_max above sqrt(2)
    RANK_TOL keeps every tall ratio above RANK_TOL.  The layer is screened
    at _EXTENSION_MARGIN = 2 times RANK_TOL, which leaves a further sqrt(2)
    for the SVD's rounding.  A size whose square layer is not settled (a
    class flagged either way, decided by the SVD fallback or flagged at
    the margin) has its tall groups decided in full by _necklace_scan.
    Returns one hit list of (T, Omega) per decider (the minor's first) and
    the number of classes the minor's SVD fallback decided.
    """
    hits, fallbacks = ([[], []] if frames else [[]]), 0
    for s in range(1, n):
        scalar = s <= n // 2 or bool(hits[0]) or fallbacks > 0
        if not (scalar or frames):
            continue
        found, decided, settled = _decide_group(n, s, s, frames, scalar)
        if frames and not settled:
            _, tall, more = _necklace_scan(n, [(s, r) for r in range(s + 1, n)], frames)
            found, decided = [a + b for a, b in zip(found, tall)], decided + more
        hits, fallbacks = [a + b for a, b in zip(hits, found)], fallbacks + decided
    return hits, fallbacks


def _layer_pairs_exhaustive(p: int):
    """The square-layer scan (_square_layers) of the layer |T| + |Omega| = p.

    Finds no (T, Omega) for primes.  By monotonicity in Omega this layer
    decides all patterns with smaller support sums.  Returns the pair count,
    sum of C(p, s)^2, the hits and the SVD fallback's class count.
    """
    (hits,), fallbacks = _square_layers(p)
    return sum(math.comb(p, s) ** 2 for s in range(1, p)), hits, fallbacks


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
    """m random sparse vectors of A^p: their dense blocks, (m, p) entry masses and supports.

    The supports are _draw_supports' bool rows, drawn before any Gaussian.
    Gaussians are drawn for the supported entries only, a (K, n, n) stack
    per block in block order, K the total support size, and scattered into
    zeroed (m, p, n, n) stacks.  The squared trace norms (_entry_masses) are
    taken from the drawn entries alone; every other entry is 0 and has
    mass 0.  The supports let _drawn_entry_norms norm the drawn entries
    alone too.
    """
    supports = _draw_supports(rng, p, m)
    supported = np.flatnonzero(supports)
    x_blocks = []
    for n in shape.block_dims:
        _check_addressable((m, p, n, n), np.complex128)
        x_blocks.append(np.zeros((m, p, n, n), dtype=np.complex128))
    drawn = [_complex_gaussian(rng, (len(supported), n, n)) for n in shape.block_dims]
    for xb, entries in zip(x_blocks, drawn):
        xb.reshape(m * p, *entries.shape[1:])[supported] = entries
    masses = np.zeros((m, p))
    masses.reshape(-1)[supported] = _entry_masses(drawn)
    return x_blocks, masses, supports


def _drawn_entry_norms(x_blocks, supports: np.ndarray, rows: np.ndarray) -> np.ndarray:
    """(len(rows), p) C*-norms of the trials rows, from their supported entries only; 0 elsewhere."""
    i, j = np.nonzero(supports[rows])
    norms = np.zeros((len(rows), supports.shape[1]))
    norms[i, j] = _entry_norms([xb[rows[i], j] for xb in x_blocks])
    return norms


def _pattern_search(shape: AlgebraShape, p: int):
    """Decide every support pattern (T, Omega), |T| + |Omega| <= p, |T| < p, two ways.

    The groups are (|T|, |R|) = (|T|, p - |Omega|), R the complement of
    Omega.  The scalar way is the DFT minor on rows R and
    columns T; the frame way is support_pair_feasible's block rank test
    (_deficient_blocks) on the standard and Fourier frames over C.  Those
    decide the frames over A too: each block of standard_frame(shape, p)
    and fourier_frame(shape, p) is checked, once and bit for bit, to equal
    kron(the frame's matrix over C, I_n).  A block's constraint stack is
    then, up to row and column permutations, the scalar stack tensored with
    I_n, whose singular values are the scalar ones, each n times; the rank
    cutoff is RANK_TOL times the largest over all blocks, the scalar
    largest, so every pattern gets the scalar stack's verdict.  Deciding
    one pair per class is sound for the frame way as well: its stack is
    the rows e_j, j outside T, over the rows conj(W[k]), k in R, and
    translating T or R and the joint dilation (uT, u^-1 R) change it only
    by row permutations, unit-modulus row and column scalings and a column
    permutation, all unitary, so no singular value moves.

    Both ways decide the square groups |R| = |T| and carry every tall group
    |R| > |T| from them by monotonicity (_square_layers); a size whose
    square layer is flagged, falls back or comes within _EXTENSION_MARGIN
    of the frame way's cutoff has its tall groups scanned in full, so the
    hits are those of a scan over every group.  The pattern count is
    arithmetic.

    Returns the pattern count; in the order (|T|, T, |Omega|, Omega),
    (T, Omega, scalar verdict, frame verdict) for every pattern that either
    way finds feasible; the number of classes the scalar way's SVD fallback
    decided, in the square layers it scanned and the tall groups scanned in
    full (a carried tall group is not decided, so it adds none); and
    whether the two ways agree on every pattern and the Kronecker identity
    holds.
    """
    scalar_frames = standard_frame(_SCALARS, p), fourier_frame(_SCALARS, p)
    kron_identity = all(
        np.array_equal(mat, np.kron(scalar.mats[0], np.eye(n)))
        for frame, scalar in zip((standard_frame(shape, p), fourier_frame(shape, p)), scalar_frames)
        for n, mat in zip(shape.block_dims, frame.mats)
    )
    checked = sum(math.comb(p, s) * math.comb(p, r) for s in range(1, p) for r in range(s, p))
    hits, fallbacks = _square_layers(p, scalar_frames)
    scalar, by_frames = ({(tuple(t), tuple(o)) for t, o in found} for found in hits)
    flagged = sorted(scalar | by_frames, key=lambda to: (len(to[0]), to[0], len(to[1]), to[1]))
    flagged = [(list(t), list(o), (t, o) in scalar, (t, o) in by_frames) for t, o in flagged]
    agreed = kron_identity and scalar == by_frames
    return checked, flagged, fallbacks, agreed


def _pattern_witness(p: int, w: np.ndarray, t, omega):
    """Kernel vector for a feasible pattern, with its supports at SUPPORT_REL_TOL."""
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
    sup, fsup = (np.flatnonzero(_support_mask(np.abs(v), SUPPORT_REL_TOL)) for v in (x, w @ x))
    return x, sup.tolist(), fsup.tolist()


def tao_min_sum(
    p,
    mode: str = "exhaustive",
    samples: int = DEFAULT_SAMPLES,
    seed: int = 0,
    force: bool = False,
) -> dict:
    """Minimum of ||x||_0 + ||x_hat||_0 over nonzero scalar x of length p.

    Both modes decide every square DFT minor in the critical layer
    |T| + |Omega| = p, which settles all smaller support sums as well, by
    the square-layer scan over the groups (|T|, |R|) = (s, s)
    (_square_layers, the driver conjecture's structured search shares).
    Jacobi's identity for the unitary W (W^-1 = W^*, |det W| = 1) gives
    |det W[R, T]| = |det W[R^c, T^c]|, so the scan covers the layers
    s > p/2 only if the others give a hit or a fallback.  Sampled mode
    differs only in its pairs_checked, which is `samples`: the layer holds
    the leading square block of every pair a draw could give.  For prime p
    all minors are nonsingular, so the minimum is p + 1, attained by the
    spike at 0, for every seed and sample count.  The bound holds if the
    minimum is at least p + 1 and no pattern was found feasible; each
    support is thresholded at SUPPORT_REL_TOL.

    Exhaustive mode is capped at p <= 7 unless force=True; sampled mode,
    which runs the same scan, is capped at p <= 13.  The gate is the
    command-line contract, kept until the caps move together.  samples and
    seed are checked in both modes; only sampled mode reads samples, and
    no mode reads seed.
    """
    p = _as_prime(p)
    if mode not in ("exhaustive", "sampled"):
        raise InputError(f"mode must be 'exhaustive' or 'sampled', got {mode!r}")
    _check_sampled_cap(p)
    if mode == "exhaustive" and p > EXHAUSTIVE_MAX_P and not force:
        raise InputError(
            f"exhaustive mode is capped at p <= {EXHAUSTIVE_MAX_P} by the command-line "
            f"contract, got p={p}; pass force=True (--force), or use mode='sampled' "
            f"(--mode sampled), which runs the same scan up to p = {SAMPLED_MAX_P}"
        )
    samples, seed = _as_count(samples, "samples"), _as_seed(seed)
    if mode == "sampled":  # a count no int64 array could hold is refused as out of memory
        _check_addressable((samples,), np.int64)

    w = dft_matrix(p)
    checked, hits, fallbacks = _layer_pairs_exhaustive(p)
    violations = [{"support": t, "fourier_support": omega} for t, omega in hits]

    # The witness is the first of the hits' kernel vectors, then the spike,
    # with the least support sum.
    candidates = [_pattern_witness(p, w, t, omega) for t, omega in hits]
    delta = dirac_comb(_SCALARS, p, p)
    candidates.append((None, support(delta), support(ncdft(delta))))
    x, sup, fsup = min(candidates, key=lambda c: len(c[1]) + len(c[2]))
    min_sum, witness = len(sup) + len(fsup), {"support": sup, "fourier_support": fsup}
    if x is not None:
        witness["entries"] = [[float(z.real), float(z.imag)] for z in x]

    report = {
        "p": int(p),
        "mode": mode,
        "pairs_checked": int(samples if mode == "sampled" else checked),
        "min_sum": int(min_sum),
        "holds": min_sum >= p + 1 and not violations,
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
      there only, see _draw_trials), thresholded support counting, decided
      from trace-norm bounds with exact C*-norms only for the rows those
      bounds leave open (frames._screened_support_mask); the trials run in
      chunks of about _TRIAL_CHUNK matrix entries, at least
      one trial each, and a violation names its trial's global index;
      spike witness: the vector with 1_A at index 0 must attain p + 1;
      structured search: every support pattern with sum <= p is
      tested by the scalar minor criterion (the transform acts on each
      scalar coordinate of A separately, so scalar infeasibility rules out
      algebra-valued solutions) and cross-checked by support_pair_feasible's
      rank test on the standard and Fourier frames, which decides the same
      pattern from the frame matrices: on the frames over C, after checking
      that each block of the frames over A is exactly their Kronecker
      product with I_n (see _pattern_search).  A failed identity check,
      like a disagreement, sets reduction_crosscheck_agreed false.  Both
      ways decide the square patterns, |T| + |Omega| = p, and carry every
      shorter pattern from them by monotonicity (_square_layers); a size
      whose square layer flags, falls back or comes within
      _EXTENSION_MARGIN of the frame cutoff is decided in full.

    The report's exact.float_fallbacks counts the classes the minor's SVD
    fallback decided in the square layers the minor scans and in the
    groups decided in full; a carried group is not decided and adds none.

    Any recorded violation is classified: "counterexample" if the scalar
    oracle confirms the support pattern is genuinely feasible, otherwise
    "implementation-defect" (a thresholding artifact).
    """
    p = _as_prime(p)
    trials = _as_count(trials, "trials")
    _check_sampled_cap(p)
    _check_rel_tol(rel_tol)
    seed = _as_seed(seed)

    w = dft_matrix(p)
    rng = np.random.default_rng(seed)
    min_sum = math.inf
    vector_violations = []

    rank = sum(shape.block_dims)
    chunk = max(1, _TRIAL_CHUNK // (p * shape.dim))
    for done in range(0, trials, chunk):
        m = min(chunk, trials - done)
        x_blocks, x_masses, x_supports = _draw_trials(rng, shape, p, m)
        # x_hat_k = sum_j w[k, j] x_j for every trial at once: one GEMM per block,
        # kept as its contiguous (p, m, n, n) output; the (p, m) masses are transposed
        h_blocks = [
            (w @ xb.transpose(1, 0, 2, 3).reshape(p, -1)).reshape(p, m, n, n)
            for n, xb in zip(shape.block_dims, x_blocks)
        ]
        x_supp = _screened_support_mask(
            x_masses, rank, rel_tol, lambda rows: _drawn_entry_norms(x_blocks, x_supports, rows)
        )
        h_supp = _screened_support_mask(
            _entry_masses(h_blocks).T,
            rank,
            rel_tol,
            lambda rows: _entry_norms([hb[:, rows] for hb in h_blocks]).T,
        )
        sums = x_supp.sum(axis=1) + h_supp.sum(axis=1)
        min_sum = min(min_sum, int(sums.min()))
        for i in np.flatnonzero(sums <= p)[: 10 - len(vector_violations)]:
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

    patterns_checked, flagged, fallbacks, crosscheck_agreed = _pattern_search(shape, p)
    pattern_violations = [{"support": t, "fourier_support": o} for t, o, _, _ in flagged]

    holds = (
        min_sum >= p + 1
        and delta_sum == p + 1
        and not vector_violations
        and not pattern_violations
        and crosscheck_agreed
    )
    return {
        "algebra": shape.to_list(),
        "p": int(p),
        "trials": trials,
        "seed": seed,
        "rel_tol": float(rel_tol),
        "threshold": RANK_TOL,
        "min_sum": int(min_sum),
        "delta_witness_sum": int(delta_sum),
        "vector_violations": vector_violations,
        "patterns_checked": int(patterns_checked),
        "pattern_violations": pattern_violations,
        "reduction_crosscheck_agreed": bool(crosscheck_agreed),
        "holds": bool(holds),
        "exact": _exact_summary(p, fallbacks),
    }
