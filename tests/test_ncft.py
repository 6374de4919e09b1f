import tracemalloc
from itertools import combinations
from math import comb, gcd

import numpy as np
import pytest

from ncup import (
    AlgebraShape,
    InputError,
    ModuleVector,
    analysis,
    basis_vector,
    chebotarev_minor_nonsingular,
    conjecture_audit,
    dirac_comb,
    fourier_frame,
    module_norm,
    ncdft,
    ncdft_inverse,
    norm,
    op_identity,
    pattern_feasible_minor,
    random_audit,
    random_element,
    random_frame,
    random_parseval_frame,
    random_vector,
    sparsity,
    standard_frame,
    sub,
    support,
    tao_min_sum,
)
from ncup import cli, ncft
from ncup.ncft import dft_matrix
from ncup.uncertainty import _constraint_stack

from oracles import (
    cyclic_shift,
    oracle_class_keys,
    oracle_deficient_minors,
    oracle_dilation_table,
    oracle_modular_dft,
    oracle_pattern_search,
    vec_sub,
)

C = AlgebraShape((1,))
M2 = AlgebraShape((2,))


def scalar_vector(values):
    return ModuleVector(C, len(values), [np.array(values, complex).reshape(-1, 1, 1)])


def test_prime_dim_accepts_primes():
    for p in (2, 3, 5, 7, 11, 13):
        for given in (p, np.int64(p)):
            assert tao_min_sum(given, mode="sampled", samples=20)["p"] == p
            assert chebotarev_minor_nonsingular(given, [0], [p - 1])


def test_prime_dim_rejects_composites():
    bad_values = [(-1, "not prime"), (0, "not prime"), (1, "not prime")]
    bad_values += [(n, "not prime") for n in (4, 6, 9, 12)]
    bad_values += [(v, "must be an integer") for v in ("seven", None, [5], 7.9, 5.5, 7.0)]
    for bad, message in bad_values:
        with pytest.raises(InputError, match=message):
            tao_min_sum(bad)
        with pytest.raises(InputError, match=message):
            chebotarev_minor_nonsingular(bad, [0], [0])


def test_is_prime_matches_trial_division():
    assert [n for n in range(3000) if ncft._is_prime(n)] == [
        n for n in range(2, 3000) if prime_factors(n) == [n]
    ]
    # strong pseudoprimes to the first few prime bases, and two primes near 2^31
    for n in (2047, 1373653, 25326001, 3215031751, 3825123056546413051):
        assert not ncft._is_prime(n)
    assert ncft._is_prime(2**31 - 1) and ncft._is_prime(2147483053)
    with pytest.raises(InputError, match="too large"):
        tao_min_sum(2**64 + 13)


def test_dft_matrix_is_unitary():
    for d in (2, 3, 4, 5, 8):
        w = dft_matrix(d)
        assert np.allclose(w @ w.conj().T, np.eye(d), atol=1e-12)


def test_ncdft_delta_is_flat(shape):
    p = 5
    xhat = ncdft(basis_vector(shape, p, 0))
    for k in range(p):
        target = np.eye(shape.block_dims[0]) / np.sqrt(p)
        assert np.allclose(xhat.blocks[0][k], target, atol=1e-12)
    assert sparsity(xhat) == p


def test_ncdft_comb_self_dual():
    comb = dirac_comb(C, 4, 2)
    xhat = ncdft(comb)
    assert module_norm(vec_sub(xhat, comb)) < 1e-12


def test_ncdft_single_coefficient_spreads(shape, rng):
    p = 3
    a = random_element(shape, rng)
    x = ModuleVector(
        shape,
        p,
        [
            np.stack([a.blocks[b]] + [np.zeros_like(a.blocks[b])] * (p - 1))
            for b in range(shape.num_blocks)
        ],
    )
    xhat = ncdft(x)
    for k in range(p):
        for b in range(shape.num_blocks):
            assert np.allclose(
                xhat.blocks[b][k], a.blocks[b] / np.sqrt(p), atol=1e-12
            )


def test_ncdft_plancherel(shape, rng):
    for d in (2, 3, 5, 8):
        x = random_vector(shape, d, rng)
        assert abs(module_norm(ncdft(x)) - module_norm(x)) <= 1e-10


def test_ncdft_inverse_round_trip(shape, rng):
    x = random_vector(shape, 6, rng)
    assert module_norm(vec_sub(ncdft_inverse(ncdft(x)), x)) <= 1e-10


def test_ncdft_matches_fourier_frame_analysis(shape, rng):
    p = 5
    x = random_vector(shape, p, rng)
    coeffs = analysis(fourier_frame(shape, p), x)
    xhat = ncdft(x)
    worst = max(norm(sub(coeffs.entry(k), xhat.entry(k))) for k in range(p))
    assert worst < 1e-12


def test_cyclic_shift_covariance(shape, rng):
    p = 5
    x = random_vector(shape, p, rng)
    shifted_hat = ncdft(cyclic_shift(x, 1))
    xhat = ncdft(x)
    w = np.exp(-2j * np.pi * np.arange(p) / p)
    for b, blk in enumerate(xhat.blocks):
        assert np.allclose(shifted_hat.blocks[b], w[:, None, None] * blk, atol=1e-10)


def test_vector_support_relative_threshold():
    x = scalar_vector([1.0, 1e-12, 0.0])
    assert support(x) == [0]
    assert sparsity(x) == 1
    assert support(x, rel_tol=1e-13) == [0, 1]


def test_dirac_comb_requires_divisor():
    with pytest.raises(InputError):
        dirac_comb(C, 4, 3)
    comb = dirac_comb(C, 6, 3)
    assert support(comb) == [0, 3]


def test_chebotarev_examples():
    assert chebotarev_minor_nonsingular(5, [0], [0])
    assert chebotarev_minor_nonsingular(5, list(range(5)), list(range(5)))
    assert chebotarev_minor_nonsingular(3, [0, 1], [0, 1])
    with pytest.raises(InputError):
        chebotarev_minor_nonsingular(5, [0, 1], [0])
    with pytest.raises(InputError):
        chebotarev_minor_nonsingular(5, [], [])
    with pytest.raises(InputError):
        chebotarev_minor_nonsingular(5, [0, 0], [0, 1])


def test_chebotarev_all_minors_p5():
    from itertools import combinations

    for s in range(1, 6):
        for rows in combinations(range(5), s):
            for cols in combinations(range(5), s):
                assert chebotarev_minor_nonsingular(5, rows, cols)


def test_chebotarev_minor_is_certified_exactly(monkeypatch):
    # At prime p the certificate decides every minor; the float rank test
    # (_rank_deficient's SVD) is reached only when the certificate
    # leaves a minor undecided.
    svd = np.linalg.svd

    def no_float(*args, **kwargs):
        raise AssertionError("float fallback used")

    monkeypatch.setattr(np.linalg, "svd", no_float)
    assert chebotarev_minor_nonsingular(13, [0, 4, 5, 9], [1, 2, 3, 12])
    assert chebotarev_minor_nonsingular(7, list(range(7)), list(range(7)))
    assert not pattern_feasible_minor(13, [1, 2, 3, 12], [1, 2, 3, 6, 7, 8, 10, 11, 12])
    monkeypatch.setattr(ncft, "_certified_nonsingular", decide_nothing)
    with pytest.raises(AssertionError, match="float fallback"):
        chebotarev_minor_nonsingular(13, [0, 4], [1, 2])
    monkeypatch.setattr(np.linalg, "svd", svd)
    assert chebotarev_minor_nonsingular(13, [0, 4, 5, 9], [1, 2, 3, 12])


def test_pattern_feasible_minor_builds_only_its_minor(monkeypatch):
    # One 1x1 minor at p = 2003 is decided without building the 2003x2003 matrix.
    def no_matrix(*args):
        raise AssertionError("dft_matrix built")

    monkeypatch.setattr(ncft, "dft_matrix", no_matrix)
    assert not pattern_feasible_minor(2003, [0], [1])


def test_pattern_feasible_minor_at_large_length():
    # At p = 1000003 the rows outside Omega are built as one array, without
    # Python sets or lists of p entries.
    p = 1000003
    ncft._modular_dft(p)  # the table is built once per length, outside the measurement
    tracemalloc.start()
    try:
        feasible = pattern_feasible_minor(p, [0], [1])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert not feasible
    assert peak < 20 * 2**20
    # The minor on rows {0, 2, 3, ...} has full column rank iff some
    # square block of it is nonsingular; its leading block is row 0.
    assert feasible == (not chebotarev_minor_nonsingular(p, [0], [0]))
    assert not pattern_feasible_minor(p, [0, 7, 11], [])
    assert not pattern_feasible_minor(p, [], [1])


def test_pattern_feasible_minor_builds_no_length_n_array():
    # The certificate reads the leading |T| rows outside Omega, so a minor
    # it decides is decided without the n - |Omega| rows.
    n = 2_000_003
    ncft._modular_dft(n)  # the field is found once per length, outside the measurement
    tracemalloc.start()
    try:
        verdicts = [
            pattern_feasible_minor(n, [0], [1]),
            pattern_feasible_minor(n, [0, 5, 9], [0, 1, 2, 3]),
            pattern_feasible_minor(n, [1, 2], list(range(0, 100, 2))),
        ]
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert verdicts == [False] * 3
    assert peak < 2**20


@pytest.mark.parametrize("n", [8, 9])
def test_pattern_feasible_minor_matches_oracle_on_random_patterns(n, rng):
    # Composite lengths have minors the certificate leaves undecided, which
    # take the full row set; every pattern has |T| + |Omega| <= n.
    w = dft_matrix(n)
    verdicts = []
    for _ in range(2000):
        s = int(rng.integers(1, n))
        t = np.sort(rng.choice(n, s, replace=False))
        omega = np.sort(rng.choice(n, rng.integers(1, n - s + 1), replace=False))
        rows = np.setdiff1d(np.arange(n), omega)
        expected = bool(oracle_deficient_minors(w, t[None], rows[None]))
        assert pattern_feasible_minor(n, t, omega) == expected
        verdicts.append(expected)
    assert any(verdicts) and not all(verdicts)


def test_no_modular_field_beyond_the_modulus_bound():
    # No ell = 1 (mod n) lies below 2^31 for n = 2^61 - 1, so _modular_dft
    # answers None before its O(sqrt(n)) divisor search, and the float rank
    # test decides the minor.
    p = 2**61 - 1
    assert ncft._modular_dft(p) is None
    assert chebotarev_minor_nonsingular(p, [0], [1])
    assert chebotarev_minor_nonsingular(10**14 + 31, [0], [1])


def test_pattern_feasible_minor_with_a_large_omega():
    # Omega is every row but {2, 7}: the indices are checked as one array, so
    # the call costs a sort of p entries, not a Python loop over them.
    p = 1000003
    omega = np.delete(np.arange(p), [2, 7])
    for given in (omega, omega.tolist()):
        assert not pattern_feasible_minor(p, [0, 1], given)
    assert chebotarev_minor_nonsingular(p, [2, 7], [0, 1])


@pytest.mark.parametrize(
    "call, message",
    [
        (lambda: dft_matrix(3.9), "module rank d must be an integer, got 3.9"),
        (lambda: random_vector(C, 2.5, np.random.default_rng(0)), "module rank d must be an integer, got 2.5"),
        (lambda: pattern_feasible_minor(5.9, [0], [1]), "length must be an integer, got 5.9"),
        (lambda: pattern_feasible_minor(5, [0.7], [1.9]), "support indices must be a flat sequence of integers"),
        (lambda: pattern_feasible_minor(5, [0], [True]), "fourier support indices must be a flat sequence of integers"),
        (lambda: pattern_feasible_minor(5, [[0, 1]], [1]), "support indices must be a flat sequence of integers"),
        (lambda: chebotarev_minor_nonsingular(5, [0.5], ["3"]), "rows indices must be a flat sequence of integers"),
        (lambda: chebotarev_minor_nonsingular(5, [0], ["3"]), "cols indices must be a flat sequence of integers"),
        (lambda: dirac_comb(C, 4, 2.0), "spacing must be an integer, got 2.0"),
        (lambda: tao_min_sum(5, mode="sampled", samples=2.5), "samples must be an integer, got 2.5"),
        (lambda: conjecture_audit(C, 5, 2.5), "trials must be an integer, got 2.5"),
        (lambda: random_audit(C, 2, 3, 3, 2.5), "trials must be an integer, got 2.5"),
        (lambda: random_frame(M2, 2, 2.5, np.random.default_rng(0)), "count must be an integer, got 2.5"),
        (
            lambda: random_parseval_frame(M2, 2, 2.5, np.random.default_rng(0)),
            "count must be an integer, got 2.5",
        ),
        (lambda: random_audit(C, 2, 2.5, 3, 1), "count must be an integer, got 2.5"),
        (lambda: random_audit(C, 2, 3, 3.0, 1), "count must be an integer, got 3.0"),
        (lambda: basis_vector(M2, 2.5, 0), "module rank d must be an integer, got 2.5"),
        (lambda: basis_vector(M2, 3, 1.0), "basis index must be an integer, got 1.0"),
        (lambda: op_identity(M2, 2.0), "module rank d must be an integer, got 2.0"),
        (lambda: op_identity(M2, 0), "module rank d must be positive, got 0"),
        (lambda: basis_vector(M2, 2, 0).entry(1.0), "entry index must be an integer, got 1.0"),
        (lambda: op_identity(M2, 2).entry(0.0, 1), "entry index must be an integer, got 0.0"),
        (lambda: standard_frame(M2, 2).vector(1.0), "frame index must be an integer, got 1.0"),
    ],
    ids=[
        "dft-size", "vector-rank", "length", "float-indices", "bool-indices", "2d-indices",
        "float-rows", "string-cols", "spacing", "samples", "conjecture-trials", "audit-trials",
        "frame-count", "parseval-count", "audit-n-tau", "audit-n-omega", "basis-rank",
        "basis-index", "identity-rank", "identity-zero", "vector-entry", "operator-entry",
        "frame-vector",
    ],
)
def test_sizes_and_indices_are_never_truncated(call, message):
    with pytest.raises(InputError) as info:
        call()
    assert str(info.value) == message


def test_numpy_integers_are_sizes_and_indices():
    assert dft_matrix(np.int64(3)).shape == (3, 3)
    t, omega = np.array([0], dtype=np.uint8), np.array([1, 2, 3, 4])
    assert pattern_feasible_minor(np.int32(5), t, omega) == pattern_feasible_minor(5, [0], [1, 2, 3, 4])
    assert chebotarev_minor_nonsingular(5, (3, 1), range(2))
    with pytest.raises(InputError) as info:
        pattern_feasible_minor(5, [0, 5], [])
    assert str(info.value) == "support index 5 out of range 0..4"
    with pytest.raises(InputError) as info:
        pattern_feasible_minor(5, [3], [1, 4, 1])
    assert str(info.value) == "fourier support contains repeated indices"


@pytest.mark.parametrize("n", [4, 5, 6])
def test_pattern_feasible_minor_matches_oracle(n):
    # Every pattern with |T| + |Omega| <= n against one SVD per minor; the
    # wide minors beyond that sum are feasible without any rank test.
    w = dft_matrix(n)
    for s in range(1, n + 1):
        for t in combinations(range(n), s):
            for size_o in range(1, n + 1):
                for omega in combinations(range(n), size_o):
                    rows = sorted(set(range(n)) - set(omega))
                    if len(rows) < s:
                        assert pattern_feasible_minor(n, t, omega)
                        continue
                    expected = bool(oracle_deficient_minors(w, np.array([t]), np.array([rows])))
                    assert pattern_feasible_minor(n, t, omega) == expected


def test_dft_minor_entries_equal_matrix_entries():
    # The float fallback builds its minors from the indices; the entries
    # are bitwise those of dft_matrix, so its verdicts cannot drift from it.
    for n in range(2, 40):
        w = dft_matrix(n)
        rng = np.random.default_rng(n)
        for _ in range(10):
            rows = np.sort(rng.choice(n, rng.integers(1, n + 1), replace=False))
            cols = np.sort(rng.choice(n, rng.integers(1, n + 1), replace=False))
            assert np.array_equal(ncft._dft_entries(n, rows[:, None], cols), w[np.ix_(rows, cols)])


def test_chebotarev_fails_at_composite_length():
    w = dft_matrix(4)
    minor = w[np.ix_([0, 2], [0, 2])]
    assert np.linalg.matrix_rank(minor) == 1


def test_pattern_feasible_minor_examples():
    assert pattern_feasible_minor(5, [0], list(range(5)))
    assert not pattern_feasible_minor(5, [0, 1], [0, 1])
    assert pattern_feasible_minor(4, [0, 2], [0, 2])
    assert not pattern_feasible_minor(5, [], [0])


def test_donoho_stark_product_bound(shape, rng):
    for d in (4, 6, 8, 9):
        x = random_vector(shape, d, rng)
        assert sparsity(x) * sparsity(ncdft(x)) >= d


def test_donoho_stark_comb_equality():
    for d, spacing in ((4, 2), (9, 3), (16, 4)):
        comb = dirac_comb(C, d, spacing)
        prod = sparsity(comb) * sparsity(ncdft(comb))
        assert prod == d


def layer_batch(n, s, r):
    """Every pair (T, R) with |T| = s and |R| = r, T varying slowest."""
    cols = np.array(list(combinations(range(n), s)))
    rows = np.array(list(combinations(range(n), r)))
    return np.repeat(cols, len(rows), axis=0), np.tile(rows, (len(cols), 1))


def decide_batch(n, cols, rows):
    """_ClassBatch.deficient_minors on the pairs (cols[i], rows[i])."""
    return ncft._ClassBatch(n, subset_masks(cols), subset_masks(rows)).deficient_minors()


def spy_batches(monkeypatch):
    """Record (|T|, |R|, pair count) of every _ClassBatch the scans build."""
    batches = []

    class CountingBatch(ncft._ClassBatch):
        def __init__(self, n, t_masks, r_masks):
            sizes = (bin(int(masks[0])).count("1") for masks in (t_masks, r_masks))
            batches.append((*sizes, len(t_masks)))
            super().__init__(n, t_masks, r_masks)

    monkeypatch.setattr(ncft, "_ClassBatch", CountingBatch)
    return batches


def subset_masks(sets):
    """The bit mask of each row of an index array."""
    return (1 << sets).sum(axis=1)


def mask_sets(n, masks):
    """The index array whose row i lists the set bits of the n-bit masks[i], ascending."""
    return np.array([[j for j in range(n) if mask >> j & 1] for mask in masks.tolist()])


@pytest.mark.parametrize("n", [4, 5, 6, 7, 8, 9, 10])
def test_deficient_minors_match_per_minor_oracle(n):
    w = dft_matrix(n)
    found = 0
    for s in range(1, n):
        cols, rows = layer_batch(n, s, s)
        hits, _ = decide_batch(n, cols, rows)
        assert hits == oracle_deficient_minors(w, cols, rows, ncft.RANK_TOL)
        found += len(hits)
    # composite lengths have singular minors, so the comparison is not vacuous
    assert (found > 0) == (n not in (5, 7))


@pytest.mark.parametrize("n", [6, 8])
def test_deficient_minors_match_oracle_on_tall_minors(n):
    # sampled tao decides minors with more rows than columns
    w = dft_matrix(n)
    for s in range(1, n):
        for r in range(s + 1, n):
            cols, rows = layer_batch(n, s, r)
            hits, _ = decide_batch(n, cols, rows)
            assert hits == oracle_deficient_minors(w, cols, rows, ncft.RANK_TOL)


@pytest.mark.parametrize("n", [6, 8, 9])
def test_exhaustive_layers_match_per_minor_oracle(n):
    # The scan decides necklace pairs only and expands each deficient one to
    # its translates; a periodic necklace such as {0, 3, 6} at n = 9 has
    # fewer than n translates, and each must be listed once.
    w = dft_matrix(n)
    checked, hits, _ = ncft._layer_pairs_exhaustive(n)
    expected = []
    for s in range(1, n):
        expected += oracle_deficient_minors(w, *layer_batch(n, s, s), ncft.RANK_TOL)
    assert checked == comb(2 * n, n) - 2
    assert hits == expected
    assert hits


@pytest.mark.parametrize("n", [7, 8, 9, 12, 13])
def test_class_key_is_invariant(n, rng):
    s, r = 3, 5
    cols = np.sort(np.argsort(rng.random((40, n)), axis=1)[:, :s], axis=1)
    rows = np.sort(np.argsort(rng.random((40, n)), axis=1)[:, :r], axis=1)
    def class_keys(n, cols, rows):
        return ncft._class_keys(n, subset_masks(cols), subset_masks(rows))

    key = class_keys(n, cols, rows)
    for a in range(n):
        assert np.array_equal(class_keys(n, (cols + a) % n, rows), key)
        assert np.array_equal(class_keys(n, cols, (rows + a) % n), key)
    for u in range(1, n):
        if gcd(u, n) == 1:
            moved = class_keys(n, u * cols % n, pow(u, -1, n) * rows % n)
            assert np.array_equal(moved, key)


@pytest.mark.parametrize("n", [6, 7, 8, 9, 13])
def test_t_first_class_key_matches_all_units_key(n, rng):
    # Every (T, R) mask pair up to n = 9; at n = 13, 100,000 uniform mask
    # pairs and 100,000 pairs whose set sizes are uniform on [0, n], which
    # reach the small and large T that many units minimize.
    if n < 13:
        t_masks, r_masks = np.divmod(np.arange(1 << 2 * n), 1 << n)
    else:
        uniform = rng.integers(1 << n, size=(2, 100_000))
        sizes = rng.integers(n + 1, size=(2, 100_000, 1))
        ranks = np.argsort(rng.random((2, 100_000, n)), axis=2)
        by_size = ((ranks < sizes) << np.arange(n)).sum(axis=2)
        t_masks, r_masks = np.hstack([uniform, by_size])
    keys = ncft._class_keys(n, t_masks, r_masks)
    assert np.array_equal(keys, oracle_class_keys(n, t_masks, r_masks))
    # The units minimizing T's half are a coset u0 Stab(T); t_unit is the
    # row of u0^-1, and T's stabilizer table is the minimum over Stab(T).
    table = oracle_dilation_table(n)
    dilated, t_min, t_unit, t_stab, stab_min = ncft._class_tables(n)
    assert np.array_equal(dilated, table)
    assert np.array_equal(t_min, table.min(axis=0))
    units = [u for u in range(1, n) if gcd(u, n) == 1]
    stabilizers = {}
    for m in range(1 << n):
        stab = frozenset(units[i] for i in np.flatnonzero(table[:, m] == table[0, m]))
        minimizers = {units[i] for i in np.flatnonzero(table[:, m] == t_min[m])}
        u0 = pow(units[t_unit[m]], -1, n)
        assert table[units.index(u0), m] == t_min[m]
        assert minimizers == {u0 * h % n for h in stab}
        assert stabilizers.setdefault(stab, t_stab[m]) == t_stab[m]
    assert len(set(stabilizers.values())) == len(stabilizers) == len(stab_min)
    for stab, k in stabilizers.items():
        assert np.array_equal(stab_min[k], table[[units.index(h) for h in stab]].min(axis=0))
    if n == 13:
        assert len(stab_min) == 6  # one per subgroup of the cyclic units of order 12


def test_exhaustive_scan_memory():
    # The scan keys pairs from subset masks and builds index rows only for
    # class representatives, so no (pairs, |T|) array or (units, pairs) key
    # matrix is held; the lookup tables are built by the first call.
    ncft._layer_pairs_exhaustive(13)
    tracemalloc.start()
    try:
        ncft._layer_pairs_exhaustive(13)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 4 * 2**20


def count_orbits(p, cols, rows):
    """Classes of the (T, R) pairs of a batch under translations and joint dilation, p prime."""
    units = [(u, pow(u, -1, p)) for u in range(1, p)]
    seen, orbits = set(), 0
    for pair in zip(map(tuple, cols.tolist()), map(tuple, rows.tolist())):
        if pair in seen:
            continue
        orbits += 1
        t, r = pair
        seen.update(
            (
                tuple(sorted((u * j + a) % p for j in t)),
                tuple(sorted((v * k + b) % p for k in r)),
            )
            for u, v in units
            for a in range(p)
            for b in range(p)
        )
    return orbits


def count_decided(monkeypatch):
    """Record the representatives each certificate call certifies and each SVD call decomposes.

    Every representative the certificate leaves undecided goes to the SVD,
    so the sum is the number of representatives decided.
    """
    decided = []
    certify, svd = ncft._certified_nonsingular, np.linalg.svd

    def counting_certificate(n, cols, rows):
        certified = certify(n, cols, rows)
        decided.append(int(certified.sum()))
        return certified

    def counting_svd(a, *args, **kwargs):
        decided.append(a.shape[0] if a.ndim == 3 else 1)
        return svd(a, *args, **kwargs)

    monkeypatch.setattr(ncft, "_certified_nonsingular", counting_certificate)
    monkeypatch.setattr(np.linalg, "svd", counting_svd)
    return decided


def decide_nothing(n, cols, rows):
    """A certificate that certifies no minor, leaving every class to the SVD."""
    return np.zeros(len(cols), dtype=bool)


def test_each_symmetry_class_decomposed_once(monkeypatch):
    p, s = 7, 3
    cols, rows = layer_batch(p, s, s)
    orbits = count_orbits(p, cols, rows)
    decided = count_decided(monkeypatch)
    hits, _ = decide_batch(p, cols, rows)
    assert hits == []
    assert sum(decided) == orbits < len(cols)


def test_exhaustive_scan_decides_each_class_once(monkeypatch):
    # One batch per layer, over the necklace pairs only, and still every
    # class of every pair (T, R) is decided exactly once.
    p = 7
    orbits = sum(count_orbits(p, *layer_batch(p, s, s)) for s in range(1, p))
    spied = spy_batches(monkeypatch)
    decided = count_decided(monkeypatch)
    checked, hits, _ = ncft._layer_pairs_exhaustive(p)
    batches = [pairs for _, _, pairs in spied]
    assert len(batches) == p - 1
    assert batches == [(comb(p, s) // p) ** 2 for s in range(1, p)]  # necklace pairs only
    assert checked == comb(2 * p, p) - 2
    assert hits == []
    assert sum(decided) == orbits


def prime_factors(n):
    """Distinct prime factors of n, by trial division."""
    factors, q = [], 2
    while q * q <= n:
        if n % q == 0:
            factors.append(q)
            while n % q == 0:
                n //= q
        q += 1
    return factors + [n] * (n > 1)


@pytest.mark.parametrize("n", [*range(2, 40), 1009])
def test_modular_dft_field(n):
    ell, table = ncft._modular_dft(n)
    assert prime_factors(ell) == [ell]
    assert ell % n == 1 and ell < 2**31
    g = int(table[1])
    assert table.tolist() == [pow(g, e, ell) for e in range(n)]
    assert pow(g, n, ell) == 1
    assert all(pow(g, n // q, ell) != 1 for q in prime_factors(n))
    # the same field as the construction that lists every power of each candidate g
    assert (ell, table.tolist()) == oracle_modular_dft(n)


def test_modular_dft_builds_no_table_above_the_cap():
    # A table at n = 2^31 - 2 would hold 16 GiB; the powers are computed
    # for the exponents asked for instead.
    n = 2**31 - 2
    tracemalloc.start()
    try:
        ell, powers = ncft._modular_dft(n)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2**20
    assert not isinstance(powers, np.ndarray)
    assert ell == 2**31 - 1
    g = int(powers[1])
    assert pow(g, n, ell) == 1
    assert all(pow(g, n // q, ell) != 1 for q in prime_factors(n))
    exponents = np.array([[0, 1, 2], [12345, n // 7, n - 1]])
    assert powers[exponents].tolist() == [[pow(g, int(e), ell) for e in row] for row in exponents]


@pytest.mark.parametrize("n", [2, 13, 1009])
def test_power_map_equals_the_table(n):
    ell, table = ncft._modular_dft(n)
    powers = ncft._PowerMap(int(table[1]), ell)
    assert np.array_equal(powers[np.arange(n)], table)
    exponents = np.arange(n)[:, None] * np.arange(n) % n
    assert np.array_equal(powers[exponents], table[exponents])


def test_chebotarev_minor_at_a_length_above_the_table_cap():
    # ell = 2p + 1 = 2,000,000,579 is prime, so p = 1,000,000,289 has a
    # modulus, and the 2x2 minor is certified without an 8 GB table.
    p = 1_000_000_289
    tracemalloc.start()
    try:
        nonsingular = chebotarev_minor_nonsingular(p, [0, 1], [0, 1])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert nonsingular
    assert peak < 2**20
    assert ncft._modular_dft(p)[0] == 2 * p + 1


@pytest.mark.parametrize("n, tall", [(4, True), (6, True), (8, True), (9, True), (10, False)])
def test_certificate_never_certifies_a_deficient_minor(n, tall):
    # Composite lengths have singular minors; none of them may be certified,
    # and the certificate still decides most of the nonsingular ones.  At
    # n = 10 only the square minors are checked: the tall ones would take
    # the per-minor oracle several seconds.
    w = dft_matrix(n)
    everything = set(range(n))
    minors = certified = deficient = 0
    for s in range(1, n):
        for r in range(s, n if tall else s + 1):
            cols, rows = layer_batch(n, s, r)
            bad = oracle_deficient_minors(w, cols, rows)
            if bad:
                bad_cols = np.array([t for t, _ in bad])
                bad_rows = np.array([sorted(everything - set(o)) for _, o in bad])
                assert not ncft._certified_nonsingular(n, bad_cols, bad_rows).any()
            certified += int(ncft._certified_nonsingular(n, cols, rows).sum())
            deficient += len(bad)
            minors += len(cols)
    assert deficient > 0
    assert certified > 0.9 * (minors - deficient)


def test_certificate_decides_every_prime_minor():
    for p in (2, 3, 5, 7):
        for s in range(1, p):
            for r in range(s, p):
                cols, rows = layer_batch(p, s, r)
                assert ncft._certified_nonsingular(p, cols, rows).all()


def test_float_fallback_is_live(monkeypatch):
    # With a certificate that decides nothing, every class goes to the SVD:
    # the hits and the reports (without "exact") do not change, and
    # float_fallbacks counts every class, so the fallback is not dead code.
    scans = [lambda n=n: ncft._layer_pairs_exhaustive(n)[:2] for n in (6, 8)]
    reports = [
        lambda: tao_min_sum(7),
        lambda: conjecture_audit(M2, 5, trials=200, seed=1),
        lambda: tao_min_sum(11, mode="sampled", samples=2000, seed=9),
    ]
    certified_scans = [scan() for scan in scans]
    certified_reports = [report() for report in reports]
    offered = []

    def nothing(n, cols, rows):
        offered.append(len(cols))
        return decide_nothing(n, cols, rows)

    monkeypatch.setattr(ncft, "_certified_nonsingular", nothing)
    assert [scan() for scan in scans] == certified_scans
    assert all(hits for _, hits in certified_scans)
    tao_classes = sum(count_orbits(7, *layer_batch(7, s, s)) for s in range(1, 7))
    conjecture_classes = sum(
        count_orbits(5, *layer_batch(5, size_t, 5 - size_o))
        for size_t in range(1, 5)
        for size_o in range(1, 6 - size_t)
    )
    for report, before, classes in zip(
        reports, certified_reports, [tao_classes, conjecture_classes, None]
    ):
        offered.clear()
        after = report()
        exact_before, exact_after = before.pop("exact"), after.pop("exact")
        assert after == before
        assert exact_before == {"modulus": exact_after["modulus"], "float_fallbacks": 0}
        # each class is offered to the certificate once; the sampled draws
        # have no independent class count
        assert exact_after["float_fallbacks"] == sum(offered) > 0
        assert classes is None or sum(offered) == classes


def test_tao_min_sum_exhaustive_small_primes():
    for p in (2, 3, 5):
        report = tao_min_sum(p, mode="exhaustive")
        assert report["p"] == p
        assert report["min_sum"] == p + 1
        assert report["threshold"] == 1e-10
        assert "violating_patterns" not in report


def test_tao_min_sum_pair_count():
    from math import comb

    report = tao_min_sum(5, mode="exhaustive")
    assert report["pairs_checked"] == comb(10, 5) - 2


def test_tao_min_sum_witness_is_tight():
    report = tao_min_sum(3, mode="exhaustive")
    w = report["witness"]
    assert len(w["support"]) + len(w["fourier_support"]) == report["min_sum"]
    assert pattern_feasible_minor(3, w["support"], w["fourier_support"])


def test_tao_min_sum_sampled():
    report = tao_min_sum(11, mode="sampled", samples=2000, seed=9)
    assert report["mode"] == "sampled"
    assert report["min_sum"] >= 12
    again = tao_min_sum(11, mode="sampled", samples=2000, seed=9)
    assert report == again


def within_chi_square_bound(observed, expected):
    """Pearson's statistic over all cells is at most df + 6 sqrt(2 df).

    That is six standard deviations above the mean under the null law, a
    fixed bound that a correct draw at a fixed seed passes with room, and a
    draw that misses or favours a cell fails by far.
    """
    observed, expected = np.asarray(observed, float), np.asarray(expected, float)
    df = len(observed) - 1
    return ((observed - expected) ** 2 / expected).sum() <= df + 6 * np.sqrt(2 * df)


def record_draws(monkeypatch):
    """Record (s, t, T rows, R rows) for every group the sampled scan draws, in draw order."""
    draw, drawn = ncft._draw_group, []

    def record(rng, n, s, t, m):
        t_masks, r_masks = draw(rng, n, s, t, m)
        drawn.append((s, t, mask_sets(n, t_masks), mask_sets(n, r_masks)))
        return t_masks, r_masks

    monkeypatch.setattr(ncft, "_draw_group", record)
    return drawn


def test_sampled_draw_law(monkeypatch):
    # s = |T| is uniform on [1, p - 1], then t = |Omega| uniform on
    # [1, p - s]; T is a uniform s-subset and the row set R a uniform
    # (p - t)-subset.  Every group drawn is recorded.
    p, samples = 7, 20_000
    drawn = record_draws(monkeypatch)
    report = tao_min_sum(p, mode="sampled", samples=samples, seed=5)
    offered = [(cols, rows) for _, _, cols, rows in drawn]

    groups = np.zeros((p, p), dtype=int)
    drawn = {"T": {}, "R": {}}
    for cols, rows in offered:
        s, t = cols.shape[1], p - rows.shape[1]
        assert 1 <= s <= p - 1 and 1 <= t <= p - s
        groups[s, t] += len(cols)
        for side, sets in (("T", cols), ("R", rows)):
            assert (np.diff(sets, axis=1) > 0).all()
            assert sets.min() >= 0 and sets.max() < p
            counts = drawn[side].setdefault(sets.shape[1], {})
            for row in map(tuple, sets.tolist()):
                counts[row] = counts.get(row, 0) + 1
    assert groups.sum() == report["pairs_checked"] == samples

    cells = [(s, t) for s in range(1, p) for t in range(1, p - s + 1)]
    assert within_chi_square_bound(
        [groups[s, t] for s, t in cells],
        [samples / (p - 1) / (p - s) for s, t in cells],
    )
    for side in ("T", "R"):
        for size, counts in drawn[side].items():
            subsets = list(combinations(range(p), size))
            assert set(counts) <= set(subsets)
            total = sum(counts.values())
            assert within_chi_square_bound(
                [counts.get(subset, 0) for subset in subsets],
                [total / len(subsets)] * len(subsets),
            )


@pytest.mark.parametrize("n", [8, 9, 12])
def test_sampled_scan_is_exact_at_composite_lengths(monkeypatch, n):
    # Composite lengths have singular square blocks, so square batches find
    # hits and their sizes are re-decided in full.  The hits are the pairs
    # whose full minor is deficient, in draw order, as one batch per (s, t)
    # group finds them, although some singular blocks sit in minors of
    # full column rank.
    drawn = record_draws(monkeypatch)
    hits, _ = ncft._sampled_pairs(n, 3000, 5)
    w = dft_matrix(n)
    expected, per_group, square_hits = [], [], 0
    for s, t, cols, rows in drawn:
        expected += oracle_deficient_minors(w, cols, rows, ncft.RANK_TOL)
        per_group += decide_batch(n, cols, rows)[0]
        square_hits += len(oracle_deficient_minors(w, cols, rows[:, :s], ncft.RANK_TOL))
    assert hits == expected == per_group
    assert 0 < len(hits) < square_hits


def test_sampled_scan_decides_each_square_class_once(monkeypatch):
    # One batch per |T| over the square blocks (T, R[:s]) of every |Omega|:
    # each square class among the draws is decided once, fewer than the
    # classes of the full pairs (T, R).
    p = 11
    drawn = record_draws(monkeypatch)
    spied = spy_batches(monkeypatch)
    decided = count_decided(monkeypatch)
    report = tao_min_sum(p, mode="sampled", samples=2000, seed=9)
    batches = [size_t for size_t, _, _ in spied]
    by_size, full_classes = {}, 0
    for s, t, cols, rows in drawn:
        by_size.setdefault(s, []).append((cols, rows[:, :s]))
        full_classes += count_orbits(p, cols, rows)
    square_classes = sum(
        count_orbits(p, np.vstack([c for c, _ in pairs]), np.vstack([r for _, r in pairs]))
        for pairs in by_size.values()
    )
    assert batches == list(range(1, p))
    assert sum(decided) == square_classes < full_classes
    assert "violating_patterns" not in report


@pytest.mark.parametrize("n, size, s", [(5, 3, 1), (7, 4, 2), (11, 7, 4), (13, 9, 9), (13, 12, 6)])
def test_lowest_bits_are_leading_entries(n, size, s):
    lead = ncft._lowest_bits(ncft._combo_masks(n, size), s)
    assert [tuple(row) for row in ncft._mask_rows(n, lead).tolist()] == [
        combo[:s] for combo in combinations(range(n), size)
    ]


@pytest.mark.parametrize("n, size", [(5, 1), (5, 2), (7, 3), (13, 6), (13, 13)])
def test_combo_masks_table_is_shared_read_only_and_lexicographic(n, size):
    table = ncft._combo_masks(n, size)
    assert ncft._combo_masks(n, size) is table
    assert not table.flags.writeable
    assert table.shape == (comb(n, size),)
    rows = ncft._mask_rows(n, table)
    assert [tuple(row) for row in rows.tolist()] == list(combinations(range(n), size))


@pytest.mark.parametrize("p", [11, 13])
def test_sampled_tao_needs_no_float_fallback(p):
    # The exact certificate decides every class the default draws offer,
    # so each sampled verdict is a proof (see the README's numerical contract).
    for seed in (0, 3, 77):
        report = tao_min_sum(p, mode="sampled", seed=seed)
        assert report["exact"]["float_fallbacks"] == 0
        assert "violating_patterns" not in report
        assert report["min_sum"] == p + 1


def test_tao_min_sum_guard_rails():
    with pytest.raises(InputError):
        tao_min_sum(11, mode="exhaustive")
    with pytest.raises(InputError):
        tao_min_sum(17, mode="exhaustive", force=True)
    with pytest.raises(InputError):
        tao_min_sum(5, mode="best_effort")
    with pytest.raises(InputError):
        tao_min_sum(4)


def test_conjecture_audit_scalar_block():
    report = conjecture_audit(C, 3, trials=300, seed=2)
    assert report["holds"]
    assert report["min_sum"] >= 4
    assert report["delta_witness_sum"] == 4
    assert report["vector_violations"] == []
    assert report["pattern_search_performed"]
    assert report["pattern_violations"] == []
    assert report["reduction_crosscheck_agreed"]


def test_conjecture_audit_matrix_block():
    from math import comb

    report = conjecture_audit(M2, 3, trials=300, seed=4)
    assert report["holds"]
    expected = sum(
        comb(3, s) * comb(3, t)
        for s in range(1, 4)
        for t in range(1, 4)
        if s + t <= 3
    )
    assert report["patterns_checked"] == expected


def test_conjecture_audit_deterministic():
    a = conjecture_audit(M2, 5, trials=200, seed=1)
    b = conjecture_audit(M2, 5, trials=200, seed=1)
    assert a == b


def trial_chunk(shape, p):
    """Trials per chunk of conjecture_audit's random layer."""
    return max(1, ncft._TRIAL_CHUNK // (p * shape.dim))


def record_trials(monkeypatch):
    """Record (mask, x_blocks, x_norms) for every chunk the random layer draws, in draw order."""
    draw_supports, draw_trials, drawn, masks = ncft._draw_supports, ncft._draw_trials, [], []

    def record_supports(rng, p, m):
        masks.append(draw_supports(rng, p, m))
        return masks[-1]

    def record(rng, shape, p, m):
        x_blocks, norms = draw_trials(rng, shape, p, m)
        drawn.append((masks[-1], x_blocks, norms))
        return x_blocks, norms

    monkeypatch.setattr(ncft, "_draw_supports", record_supports)
    monkeypatch.setattr(ncft, "_draw_trials", record)
    return drawn


def test_conjecture_draw_law(monkeypatch):
    # The size is uniform on [1, p], then the support uniform among the
    # subsets of that size.  Gaussians are drawn, block by block, for the
    # supported entries only, and every other entry is exactly 0.
    p, trials, shape = 5, 20_000, AlgebraShape((1, 2))
    drawn = record_trials(monkeypatch)
    gaussian, draws = ncft._complex_gaussian, []

    def record_gaussian(rng, size):
        draws.append(size)
        return gaussian(rng, size)

    monkeypatch.setattr(ncft, "_complex_gaussian", record_gaussian)
    report = conjecture_audit(shape, p, trials=trials, seed=5)
    assert report["holds"]
    masks = np.concatenate([mask for mask, _, _ in drawn])
    assert masks.shape == (trials, p)
    assert draws == [(mask.sum(), n, n) for mask, _, _ in drawn for n in shape.block_dims]
    for mask, x_blocks, norms in drawn:
        for xb in x_blocks:
            assert (xb[~mask] == 0).all()
            assert (xb[mask] != 0).all()
        assert (norms[~mask] == 0).all()

    sizes = masks.sum(axis=1)
    assert within_chi_square_bound(
        [np.count_nonzero(sizes == s) for s in range(1, p + 1)], [trials / p] * p
    )
    codes = (masks << np.arange(p)).sum(axis=1)
    for s in range(1, p):  # a size-p support is the whole range
        subsets = list(combinations(range(p), s))
        observed = [np.count_nonzero(codes == sum(1 << j for j in subset)) for subset in subsets]
        total = np.count_nonzero(sizes == s)
        assert sum(observed) == total
        assert within_chi_square_bound(observed, [total / len(subsets)] * len(subsets))


@pytest.mark.parametrize("extra", [-1, 0, 1, "2 chunks + 1"])
def test_conjecture_draws_exactly_trials_vectors(monkeypatch, extra):
    p = 5
    chunk = trial_chunk(C, p)
    trials = 2 * chunk + 1 if extra == "2 chunks + 1" else chunk + extra
    drawn = record_trials(monkeypatch)
    report = conjecture_audit(C, p, trials=trials, seed=3)
    assert report["trials"] == trials
    assert [len(mask) for mask, _, _ in drawn] == [chunk] * (trials // chunk) + (
        [trials % chunk] if trials % chunk else []
    )


@pytest.mark.parametrize("p", [2, 7, 13])
def test_support_draws_replay_as_ranks_into_combinations_by_size(p):
    # A seed fixes the supports: the sizes are drawn first, uniform on
    # [1, p], then one rank per support, uniform below C(p, s), into the
    # lexicographic s-subsets.  Replaying those two generator calls against
    # itertools.combinations pins the stream, not just its law.
    m, seed = 3000, 11
    rng = np.random.default_rng(seed)
    sizes = rng.integers(1, p + 1, size=m)
    ranks = rng.integers(np.array([comb(p, s) for s in range(p + 1)])[sizes])
    by_size = {s: list(combinations(range(p), s)) for s in range(1, p + 1)}
    expected = np.zeros((m, p), dtype=bool)
    for i, (s, rank) in enumerate(zip(sizes.tolist(), ranks.tolist())):
        expected[i, list(by_size[s][rank])] = True
    drawn = ncft._draw_supports(np.random.default_rng(seed), p, m)
    assert drawn.dtype == bool and np.array_equal(drawn, expected)


@pytest.mark.parametrize(
    "dims", [(1,), (2,), (3,), (1, 2), (4, 4, 8)], ids=["C", "M2", "M3", "C+M2", "448"]
)
def test_drawn_entry_norms_equal_dense_norms_bit_for_bit(dims):
    # The x-side norms come from the drawn entries alone; scattered among
    # zeros they are the norms of the dense stack, bit for bit.  The
    # Fourier-side norms are taken on each block's contiguous (p, m, n, n)
    # GEMM output and transposed; they are the norms of its (m, p, n, n)
    # view, bit for bit.
    shape, rng = AlgebraShape(dims), np.random.default_rng(23)
    for p in (2, 5, 13):
        w = dft_matrix(p)
        for m in (1, 7, trial_chunk(shape, p)):
            x_blocks, norms = ncft._draw_trials(rng, shape, p, m)
            dense = ncft._entry_norms(x_blocks)
            assert norms.view(np.uint64).tolist() == dense.view(np.uint64).tolist()
            h_blocks = [
                (w @ xb.transpose(1, 0, 2, 3).reshape(p, -1)).reshape(p, m, n, n)
                for n, xb in zip(dims, x_blocks)
            ]
            contiguous = ncft._entry_norms(h_blocks).T
            view = ncft._entry_norms([hb.transpose(1, 0, 2, 3) for hb in h_blocks])
            assert contiguous.view(np.uint64).tolist() == view.view(np.uint64).tolist()


def test_conjecture_violation_names_its_global_trial(monkeypatch):
    # Clear the Fourier support of one trial in the second chunk: its
    # recorded trial is the global index, and its vector is the drawn x.
    p, j = 5, 17
    chunk = trial_chunk(M2, p)
    drawn = record_trials(monkeypatch)
    threshold, calls = ncft._support_mask, []

    def clear_one(norms, rel_tol):
        supp = threshold(norms, rel_tol)
        calls.append(norms.shape)
        if len(calls) == 4:  # (x side, Fourier side) per chunk: chunk 1's Fourier side
            supp[j] = False
        return supp

    monkeypatch.setattr(ncft, "_support_mask", clear_one)
    report = conjecture_audit(M2, p, trials=2 * chunk + 1, seed=31)
    assert calls == [(chunk, p)] * 4 + [(1, p)] * 2
    assert not report["holds"]
    [violation] = report["vector_violations"]
    mask, x_blocks, _ = drawn[1]
    assert violation["trial"] == chunk + j
    assert violation["support"] == np.flatnonzero(mask[j]).tolist()
    assert violation["fourier_support"] == []
    assert violation["sum"] == mask[j].sum()
    assert violation["classification"] == "implementation-defect"
    vec = ModuleVector.from_dict(violation["vector"])
    assert (vec.blocks[0] == x_blocks[0][j]).all()
    assert np.flatnonzero(np.any(vec.blocks[0] != 0, axis=(1, 2))).tolist() == violation["support"]


def test_conjecture_random_layer_memory():
    # The random layer streams chunks of about _TRIAL_CHUNK matrix entries;
    # drawing all 10,000 trials at once peaked near 10 MiB.
    conjecture_audit(M2, 5, trials=10, seed=31)  # the cached tables are built outside the measurement
    tracemalloc.start()
    try:
        conjecture_audit(M2, 5, trials=10_000, seed=31)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4 * 2**20


def test_conjecture_crosscheck_is_live(monkeypatch, tmp_path):
    # Flip the scalar verdict for one pattern where the necklace scan lists
    # the minor's hits, after expansion to translates: the frame-level check
    # must disagree with it, so the audit cannot pass by comparing the minor
    # test with itself.  R = {1, 2} is not a necklace, so the flip cannot
    # act on the decided classes.
    original = ncft._necklace_scan
    target = ([0], [0])

    def flipped(n, groups, frames=None):
        checked, (hits, *others), fallbacks = original(n, groups, frames)
        if (1, n - 1) in groups:  # the group of T = {0}, R = {1, ..., n - 1}
            hits = [hit for hit in hits if hit != target] if target in hits else [target] + hits
        return checked, [hits, *others], fallbacks

    monkeypatch.setattr(ncft, "_necklace_scan", flipped)
    report = conjecture_audit(M2, 3, trials=50)
    assert report["reduction_crosscheck_agreed"] is False
    assert report["holds"] is False
    assert report["pattern_violations"] == [{"support": [0], "fourier_support": [0]}]
    out = tmp_path / "report.json"
    argv = ["conjecture", "--algebra", "2", "--p", "3", "--trials", "50", "--out", str(out)]
    assert cli.main(argv) == 1
    assert '"reduction_crosscheck_agreed":false' in out.read_text()


@pytest.mark.parametrize(
    "dims, n", [((2,), 7), ((1, 1), 5), ((1, 2), 6), ((1,), 4)]
)
def test_pattern_search_matches_per_pattern_loop(dims, n):
    # Every pattern gets the same scalar and frame verdicts, in the same
    # order, from the grouped search as from one call per pattern; the
    # composite lengths have feasible patterns, so the comparison is not
    # vacuous there.
    shape = AlgebraShape(dims)
    checked, flagged, _ = ncft._pattern_search(shape, n)
    assert (checked, flagged) == oracle_pattern_search(shape, n)
    assert checked == sum(
        comb(n, s) * comb(n, t) for s in range(1, n) for t in range(1, n - s + 1)
    )
    assert bool(flagged) == (n in (4, 6))


def complements(n, sets):
    """Row i lists range(n) minus the indices in sets[i], ascending."""
    return np.array([[j for j in range(n) if j not in row] for row in sets.tolist()])


def pattern_groups(n):
    """(cols, rows) of every pair of each (|T|, |Omega|) group the pattern search scans."""
    for s in range(1, n):
        for o in range(1, n - s + 1):
            yield layer_batch(n, s, n - o)


@pytest.mark.parametrize("dims", [(2,), (1, 1)])
@pytest.mark.parametrize("n", [5, 6, 7])
def test_frame_side_singular_values_are_class_invariant(dims, n):
    # The pattern search decides the frame side from the pair each class
    # key encodes.  That pair has its own key, and every member of the
    # class has its constraint stacks' singular values, block by block.
    shape = AlgebraShape(dims)
    std, fourier = standard_frame(shape, n), fourier_frame(shape, n)

    def singular_values(comp_t, comp_o):
        return [
            np.linalg.svd(_constraint_stack(t, w, b, comp_t, comp_o), compute_uv=False)
            for b, t, w in zip(dims, std.mats, fourier.mats)
        ]

    for cols, rows in pattern_groups(n):
        batch = ncft._ClassBatch(n, subset_masks(cols), subset_masks(rows))
        own_keys = ncft._class_keys(n, subset_masks(batch.cols), subset_masks(batch.rows))
        assert np.array_equal(own_keys, batch.classes)
        members = singular_values(complements(n, cols), rows)
        representatives = singular_values(complements(n, batch.cols), batch.rows)
        of_class = np.searchsorted(batch.classes, batch.keys)
        for member, representative in zip(members, representatives):
            assert np.abs(member - representative[of_class]).max() <= 1e-12


def test_pattern_search_keys_only_necklace_pairs(monkeypatch):
    # Each (|T|, |R|) group is one batch over its necklace pairs, as in the
    # square layer: N(p, |T|) N(p, |R|) pairs, with N(p, k) = C(p, k) / p
    # necklaces of size k at a prime p, and still every pattern is counted.
    p = 7
    batches = spy_batches(monkeypatch)
    checked, flagged, _ = ncft._pattern_search(M2, p)
    groups = [(s, p - o) for s in range(1, p) for o in range(1, p - s + 1)]
    assert batches == [(s, r, comb(p, s) // p * (comb(p, r) // p)) for s, r in groups]
    assert checked == sum(comb(p, s) * comb(p, r) for s, r in groups) == 9653
    assert flagged == []


def test_pattern_search_memory():
    # Keying every pattern of a group held (patterns,) key and index arrays:
    # an 18 MiB peak at p = 11.  Necklace pairs need a fraction of that.
    ncft._pattern_search(M2, 11)  # the cached tables are built outside the measurement
    tracemalloc.start()
    try:
        ncft._pattern_search(M2, 11)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 8 * 2**20


def test_pattern_search_decides_frames_once_per_class(monkeypatch):
    # 575 patterns at p = 5 and 9,653 at p = 7 fall into 13 and 61 classes;
    # the frame side decomposes one pattern of each.
    seen = []
    blocks = ncft._deficient_blocks

    def counting_blocks(tau, omega, comp_t, comp_o):
        seen.append(len(comp_t))
        return blocks(tau, omega, comp_t, comp_o)

    monkeypatch.setattr(ncft, "_deficient_blocks", counting_blocks)
    for p, classes in ((5, 13), (7, 61)):
        seen.clear()
        checked, flagged, _ = ncft._pattern_search(M2, p)
        orbits = sum(count_orbits(p, cols, rows) for cols, rows in pattern_groups(p))
        assert sum(seen) == orbits == classes < checked
        assert flagged == []


def test_conjecture_audit_skips_pattern_search_large_p():
    report = conjecture_audit(C, 13, trials=100, seed=0)
    assert not report["pattern_search_performed"]
    assert report["holds"]


def test_conjecture_audit_validates():
    with pytest.raises(InputError):
        conjecture_audit(C, 4, trials=10)
    with pytest.raises(InputError):
        conjecture_audit(C, 3, trials=0)
