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
the frame matrices without the minor.  Both tests run batched, once per
(|T|, |Omega|) group of patterns.

A DFT-minor verdict is first sought exactly, by elimination mod a prime
ell = 1 (mod n) (_certified_nonsingular): with zeta = e^(2 pi i/n) and g of
order n in F_ell, zeta^-1 -> g is a ring map from Z[zeta] onto F_ell, so a
minor of full rank mod ell has full rank over C.  Only the minors it
cannot certify fall back to the SVD and frames._numeric_rank at RANK_TOL,
which also decides every frame-side rank verdict.

The batch minor scan decides one minor per symmetry class.  With W the
DFT matrix of length n, translating the column set T by a multiplies row k
of W[R, T] by the unit scalar e^(-2 pi i ka/n), translating the row set R
by b multiplies column j by e^(-2 pi i jb/n), and for a unit u mod n
W[u^-1 k, u j] = W[k, j], so (T, R) -> (uT, u^-1 R) only permutes rows and
columns.  None of these moves the singular values, so every minor in a
class gets the verdict of the class's first member.
"""

from __future__ import annotations

import functools
import itertools
import math
import operator

import numpy as np

from .algebra import AlgebraShape, _entry_norms
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
PATTERN_SEARCH_MAX_P = 7

_CHUNK = 32_768


# Miller-Rabin with these bases is exact for every n < 2^64.
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)

# Moduli below 2^31 keep every product of two residues below 2^62, inside int64.
_MODULUS_BOUND = 1 << 31


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
    try:
        value = operator.index(p)
    except TypeError as exc:
        raise InputError(f"prime dimension must be an integer, got {p!r}") from exc
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
    return _dft_entries(d, np.arange(d), np.arange(d))


def _dft_entries(n: int, rows, cols) -> np.ndarray:
    """The minor W[rows, cols] of the length-n DFT matrix, built from its indices."""
    return np.exp(-2j * np.pi * np.outer(rows, cols) / n) / np.sqrt(n)


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
    d, spacing = _module_rank(d), int(spacing)
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
    if not rows:
        raise InputError("minor must have at least one row and column")
    return not _minor_deficient(p, rows, cols)


def pattern_feasible_minor(p: int, support_t, support_omega) -> bool:
    """Does a nonzero x exist with supp(x) in T and supp(x_hat) in Omega?

    Works for any length p (prime or not).  Feasibility is equivalent to
    rank deficiency of the DFT minor on rows outside Omega and columns T;
    a minor with fewer rows than columns is deficient, and any other is
    decided by _minor_deficient.
    """
    p = int(p)
    t = _validate_indices(p, support_t, "support")
    om = _validate_indices(p, support_omega, "fourier support")
    if not t:
        return False
    rows = sorted(set(range(p)) - set(om))
    return len(rows) < len(t) or _minor_deficient(p, rows, t)


def _minor_deficient(n: int, rows: list[int], cols: list[int]) -> bool:
    """Is the length-n DFT minor W[rows, cols], len(rows) >= len(cols) >= 1, rank deficient?

    The exact certificate mod ell decides it when it can (a proof of full
    rank); otherwise the numeric rank of that minor alone does, without
    building the n x n matrix.
    """
    if _certified_nonsingular(n, np.array([cols]), np.array([rows]))[0]:
        return False
    sv = np.linalg.svd(_dft_entries(n, rows, cols), compute_uv=False)
    return bool(_numeric_rank(sv, sv[0]) < len(cols))


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
def _class_tables(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Class-key lookup tables for index subsets of Z/n, held as n-bit masks.

    Row i of the first table maps a mask m to the smallest rotation of u*m,
    and row i of the second to the smallest rotation of u^-1*m, where u is
    the i-th unit mod n.  Built on first use; 2^n columns, 8192 at p = 13.
    """
    units = [u for u in range(n) if math.gcd(u, n) == 1]
    masks = np.arange(1 << n, dtype=np.int64)
    full = (1 << n) - 1
    rot_min = masks.copy()
    for a in range(1, n):
        rot_min = np.minimum(rot_min, ((masks << a) | (masks >> (n - a))) & full)
    bits = (masks[:, None] >> np.arange(n)) & 1
    dilated = np.stack([rot_min[bits @ (1 << (u * np.arange(n) % n))] for u in units])
    inverse = [units.index(pow(u, -1, n)) for u in units]
    tables = dilated, dilated[inverse]
    for table in tables:
        table.setflags(write=False)  # shared by every caller through the cache
    return tables


def _class_keys(n: int, cols: np.ndarray, rows: np.ndarray) -> np.ndarray:
    """One integer per (T, R) pair, equal exactly on pairs in one symmetry class.

    The key is the minimum over units u of (rotation-minimal u*T,
    rotation-minimal u^-1*R), which is constant under translating T,
    translating R and the joint dilation (uT, u^-1 R).
    """
    dil_t, dil_r = _class_tables(n)
    t_masks = (1 << cols).sum(axis=1)
    r_masks = (1 << rows).sum(axis=1)
    return ((dil_t[:, t_masks] << n) | dil_r[:, r_masks]).min(axis=0)


@functools.lru_cache(maxsize=None)
def _modular_dft(n: int):
    """(ell, table): the largest prime ell = 1 (mod n) below 2^31, and
    table[e] = g^e mod ell for e < n, where g has order exactly n in F_ell.

    None if no such prime exists.  g is then a root of the n-th cyclotomic
    polynomial mod ell, so zeta^-1 -> g, zeta = e^(2 pi i/n), is a ring map
    from Z[zeta] onto F_ell; it sends the scaled DFT entry
    sqrt(n) W[k, j] = zeta^(-jk) to table[jk mod n].  Built on first use.
    """
    for ell in range((_MODULUS_BOUND - 2) // n * n + 1, n, -n):
        if not _is_prime(ell):
            continue
        for x in itertools.count(2):
            g = pow(x, (ell - 1) // n, ell)
            table = [1]
            while len(table) < n:
                table.append(table[-1] * g % ell)
            if 1 not in table[1:]:  # no smaller power of g is 1, so g has order n
                table = np.array(table, dtype=np.int64)
                table.setflags(write=False)  # shared by every caller through the cache
                return ell, table
    return None


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
    a = table[rows[:, :s, None] * cols[:, None, :] % n]
    certified = np.ones(len(cols), dtype=bool)
    for _ in range(s):
        certified &= a[:, 0, 0] != 0
        a = (a[:, :1, :1] * a[:, 1:, 1:] - a[:, 1:, :1] * a[:, :1, 1:]) % ell
    return certified


class _ClassVerdicts(dict):
    """Class key -> rank deficient?, for every class one scan has decided.

    A class key fixes |T| and |R|, so batches of every shape can share one
    map.  float_fallbacks counts the classes whose verdict came from the
    SVD because the certificate could not decide them.
    """

    float_fallbacks = 0


def _exact_summary(n: int, known: _ClassVerdicts) -> dict:
    """The report's "exact" entry: the certificate's modulus and fallback count."""
    return {"modulus": _modular_dft(n)[0], "float_fallbacks": known.float_fallbacks}


def _deficient_minors(w: np.ndarray, cols: np.ndarray, rows: np.ndarray, known=None):
    """(T, Omega) for every rank-deficient minor w[rows[i], cols[i]] of a batch.

    cols is (m, s) and rows (m, r) with r >= s; Omega is the complement of
    the row set.  Only the first minor of each symmetry class is decided;
    the others take its verdict, and hits keep batch order.  A class is
    decided by _certified_nonsingular if it can, else by the SVD.  known, a
    _ClassVerdicts, carries the classes decided by earlier batches: they
    are not decided again, and the classes this batch decides are added to
    it.
    """
    n = len(w)
    keys, first, inverse = np.unique(
        _class_keys(n, cols, rows), return_index=True, return_inverse=True
    )
    if known is None:
        known = _ClassVerdicts()
    new = np.array([key not in known for key in keys.tolist()], dtype=bool)
    deficient = np.zeros(len(keys), dtype=bool)
    deficient[~new] = [known[key] for key in keys[~new].tolist()]
    fresh = np.flatnonzero(new)
    fallback = fresh[~_certified_nonsingular(n, cols[first[fresh]], rows[first[fresh]])]
    if len(fallback):
        pick = first[fallback]
        sv = np.linalg.svd(w[rows[pick, :, None], cols[pick, None, :]], compute_uv=False)
        deficient[fallback] = _numeric_rank(sv, sv[:, :1]) < cols.shape[1]
        known.float_fallbacks += len(fallback)
    known.update(zip(keys[fresh].tolist(), deficient[fresh].tolist()))
    everything = set(range(n))
    return [
        (cols[i].tolist(), sorted(everything - set(rows[i].tolist())))
        for i in np.flatnonzero(deficient[inverse])
    ]


def _layer_pairs_exhaustive(p: int, w: np.ndarray, known=None):
    """Scan every square minor in the layer |T| + |Omega| = p.

    Yields nothing for primes; a singular minor yields (T, Omega).  By
    monotonicity in Omega this layer decides all patterns with smaller
    support sums.  Runs in chunks so forced large-p scans stay bounded
    in memory; pair i of a layer is (combos[i // C], combos[i % C]).  The
    class verdicts (known, a _ClassVerdicts) are kept across chunks, so
    each class is decided once.
    """
    if known is None:
        known = _ClassVerdicts()
    checked = 0
    hits = []
    for s in range(1, p):
        combos = _combos(p, s)
        c = len(combos)
        for start in range(0, c * c, _CHUNK):
            pair = np.arange(start, min(start + _CHUNK, c * c))
            hits += _deficient_minors(w, combos[pair // c], combos[pair % c], known)
        checked += c * c
    return checked, hits


def _combos(n: int, size: int) -> np.ndarray:
    """Every size-subset of range(n) as a row, in lexicographic order."""
    return np.array(list(itertools.combinations(range(n), size)), dtype=int).reshape(-1, size)


def _complements(n: int, sets: np.ndarray) -> np.ndarray:
    """Row i lists range(n) minus the indices in sets[i], ascending."""
    keep = np.ones((len(sets), n), dtype=bool)
    keep[np.arange(len(sets))[:, None], sets] = False
    return np.nonzero(keep)[1].reshape(len(sets), -1)


def _pattern_search(shape: AlgebraShape, p: int, known=None):
    """Decide every support pattern (T, Omega), |T| + |Omega| <= p, |T| < p, two ways.

    The scalar way is the DFT minor on rows outside Omega and columns T
    (_deficient_minors); the frame way is support_pair_feasible's block
    rank test on the standard and Fourier frames over A (_deficient_blocks).
    Both run once per (|T|, |Omega|) group, over the group's patterns in
    the order (T, Omega).  Returns the pattern count and, in the order
    (|T|, T, |Omega|, Omega), (T, Omega, scalar verdict, frame verdict) for
    every pattern that either way finds feasible.  known, a _ClassVerdicts,
    collects the scalar verdicts.
    """
    w = dft_matrix(p)
    std, fourier = standard_frame(shape, p), fourier_frame(shape, p)
    checked = 0
    scalar, by_frames = set(), set()
    for size_t in range(1, p):
        t_sets = _combos(p, size_t)
        t_comps = _complements(p, t_sets)
        for size_o in range(1, p - size_t + 1):
            o_sets = _combos(p, size_o)
            t_idx, o_idx = np.divmod(np.arange(len(t_sets) * len(o_sets)), len(o_sets))
            rows = _complements(p, o_sets)[o_idx]
            hits = _deficient_minors(w, t_sets[t_idx], rows, known)
            scalar.update((tuple(t), tuple(o)) for t, o in hits)
            feasible = _deficient_blocks(std, fourier, t_comps[t_idx], rows)
            by_frames.update(
                (tuple(t_sets[t_idx[i]].tolist()), tuple(o_sets[o_idx[i]].tolist()))
                for i in np.flatnonzero(feasible.any(axis=1))
            )
            checked += len(t_idx)
    flagged = sorted(scalar | by_frames, key=lambda to: (len(to[0]), to[0], len(to[1]), to[1]))
    return checked, [(list(t), list(o), (t, o) in scalar, (t, o) in by_frames) for t, o in flagged]


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

    Exhaustive mode scans every square DFT minor in the critical layer
    |T| + |Omega| = p, which settles all smaller support sums as well;
    sampled mode draws random support pairs with |T| + |Omega| <= p and
    tests each by the same minor criterion.  For prime p all minors are
    nonsingular, so the minimum is p + 1, attained by the spike at 0.

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
    if mode == "sampled" and samples < 1:
        raise InputError(f"samples must be positive, got {samples}")

    w = dft_matrix(p)
    violations = []
    known = _ClassVerdicts()

    if mode == "exhaustive":
        checked, hits = _layer_pairs_exhaustive(p, w, known)
    else:
        rng = np.random.default_rng(seed)
        s_arr = rng.integers(1, p, size=samples)
        t_arr = rng.integers(1, p - s_arr + 1)
        checked = int(samples)
        hits = []
        # one group per (s, t) in sorted order; t < p, so s * p + t sorts like (s, t)
        codes, sizes = np.unique(s_arr * p + t_arr, return_counts=True)
        for code, m in zip(codes.tolist(), sizes.tolist()):
            s, t = divmod(code, p)
            perm_t = np.argsort(rng.random((m, p)), axis=1)
            perm_o = np.argsort(rng.random((m, p)), axis=1)
            supp_t = np.sort(perm_t[:, :s], axis=1)
            rows = np.sort(perm_o[:, t:], axis=1)
            hits += _deficient_minors(w, supp_t, rows, known)

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
        "exact": _exact_summary(p, known),
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
      random sparse draws: `trials` vectors with uniformly random support
      size and Gaussian algebra entries, thresholded support counting;
      spike witness: the vector with 1_A at index 0 must attain p + 1;
      structured search (p <= 7): every support pattern with sum <= p is
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
    trials = int(trials)
    if trials < 1:
        raise InputError(f"trials must be positive, got {trials}")
    _check_sampled_cap(p)
    _check_rel_tol(rel_tol)

    w = dft_matrix(p)
    rng = np.random.default_rng(seed)
    min_sum = None
    vector_violations = []

    chunk = 20_000
    done = 0
    while done < trials:
        m = min(chunk, trials - done)
        sizes = rng.integers(1, p + 1, size=m)
        perm = np.argsort(rng.random((m, p)), axis=1)
        mask = np.zeros((m, p), dtype=bool)
        mask[np.arange(m)[:, None], perm] = np.arange(p)[None, :] < sizes[:, None]
        x_blocks = []
        for n in shape.block_dims:
            g = (
                rng.standard_normal((m, p, n, n))
                + 1j * rng.standard_normal((m, p, n, n))
            ) / np.sqrt(2.0)
            x_blocks.append(g * mask[:, :, None, None])
        # x_hat_k = sum_j w[k, j] x_j for every trial at once: one GEMM per block
        h_blocks = [
            (w @ xb.transpose(1, 0, 2, 3).reshape(p, -1))
            .reshape(p, m, n, n)
            .transpose(1, 0, 2, 3)
            for n, xb in zip(shape.block_dims, x_blocks)
        ]
        x_supp = _support_mask(_entry_norms(x_blocks), rel_tol)
        h_supp = _support_mask(_entry_norms(h_blocks), rel_tol)
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
        done += m

    delta = dirac_comb(shape, p, p)
    delta_sum = sparsity(delta, rel_tol) + sparsity(ncdft(delta), rel_tol)
    min_sum = int(min(min_sum, delta_sum))

    patterns_checked, flagged = 0, []
    pattern_search_performed = p <= PATTERN_SEARCH_MAX_P
    known = _ClassVerdicts()
    if pattern_search_performed:
        patterns_checked, flagged = _pattern_search(shape, p, known)
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
        report["exact"] = _exact_summary(p, known)
    return report
