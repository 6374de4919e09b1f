import json
import tracemalloc
from itertools import combinations, product
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
    support_pair_feasible,
    tao_min_sum,
)
from ncup import cli, ncft, uncertainty
from ncup.frames import SUPPORT_REL_TOL
from ncup.ncft import dft_matrix
from ncup.uncertainty import _constraint_stack

from oracles import (
    burnside_square_orbits,
    cyclic_shift,
    oracle_algebra_frame_search,
    oracle_certified_nonsingular,
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
        (lambda: basis_vector(M2, 2, True), "basis index must be an integer, got True"),
        (lambda: basis_vector(M2, np.True_, 0), f"module rank d must be an integer, got {np.True_!r}"),
        (lambda: basis_vector(M2, 2, 0).entry(False), "entry index must be an integer, got False"),
        (lambda: AlgebraShape((True, 2)), "block dimensions must be integers, got (True, 2)"),
    ],
    ids=[
        "dft-size", "vector-rank", "length", "float-indices", "bool-indices", "2d-indices",
        "float-rows", "string-cols", "spacing", "samples", "conjecture-trials", "audit-trials",
        "frame-count", "parseval-count", "audit-n-tau", "audit-n-omega", "basis-rank",
        "basis-index", "identity-rank", "identity-zero", "vector-entry", "operator-entry",
        "frame-vector", "bool-basis-index", "bool-numpy-rank", "bool-entry-index",
        "bool-block-dims",
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


def subsets(n, k):
    """Every k-subset of range(n), lexicographic, one index row each."""
    return np.array(list(combinations(range(n), k)))


def cartesian(t_sets, r_sets):
    """The pairs of the Cartesian batch over two lists of index rows, T varying slowest."""
    return np.repeat(t_sets, len(r_sets), axis=0), np.tile(r_sets, (len(t_sets), 1))


def layer_batch(n, s, r):
    """Every pair (T, R) with |T| = s and |R| = r, T varying slowest."""
    return cartesian(subsets(n, s), subsets(n, r))


def decide_batch(n, t_sets, r_sets):
    """The hits and SVD count of the Cartesian batch t_sets x r_sets, decided as the scans do.

    One _ClassBatch keys the pairs, _rank_deficient decides its classes and
    _ClassBatch.patterns lists the members of the deficient ones.
    """
    batch = ncft._ClassBatch(n, subset_masks(t_sets), subset_masks(r_sets))
    deficient, fallbacks = ncft._rank_deficient(n, batch.cols, batch.rows)
    return batch.patterns(deficient), fallbacks


def spy_batches(monkeypatch):
    """Record (|T|, |R|, pair count) of every _ClassBatch the scans build."""
    batches = []

    class CountingBatch(ncft._ClassBatch):
        def __init__(self, n, t_sets, r_sets):
            sizes = (bin(int(sets[0])).count("1") for sets in (t_sets, r_sets))
            batches.append((*sizes, len(t_sets) * len(r_sets)))
            super().__init__(n, t_sets, r_sets)

    monkeypatch.setattr(ncft, "_ClassBatch", CountingBatch)
    return batches


def subset_masks(sets):
    """The bit mask of each row of an index array."""
    return (1 << sets).sum(axis=1)


@pytest.mark.parametrize("n", [4, 5, 6, 7, 8, 9, 10])
def test_deficient_minors_match_per_minor_oracle(n):
    w = dft_matrix(n)
    found = 0
    for s in range(1, n):
        hits, _ = decide_batch(n, subsets(n, s), subsets(n, s))
        assert hits == oracle_deficient_minors(w, *layer_batch(n, s, s), ncft.RANK_TOL)
        found += len(hits)
    # composite lengths have singular minors, so the comparison is not vacuous
    assert (found > 0) == (n not in (5, 7))


@pytest.mark.parametrize("n", [6, 8])
def test_deficient_minors_match_oracle_on_tall_minors(n):
    # conjecture's structured search decides minors with more rows than columns
    w = dft_matrix(n)
    for s in range(1, n):
        for r in range(s + 1, n):
            hits, _ = decide_batch(n, subsets(n, s), subsets(n, r))
            assert hits == oracle_deficient_minors(w, *layer_batch(n, s, r), ncft.RANK_TOL)


@pytest.mark.parametrize("n", [6, 8, 9])
def test_exhaustive_layers_match_per_minor_oracle(n):
    # The scan decides necklace pairs only and lists a deficient class from
    # a batch over every pair of its group, each pair once; a class holds
    # more than its necklace pairs, and a periodic necklace such as
    # {0, 3, 6} at n = 9 has fewer than n translates.
    w = dft_matrix(n)
    checked, hits, _ = ncft._layer_pairs_exhaustive(n)
    expected = []
    for s in range(1, n):
        expected += oracle_deficient_minors(w, *layer_batch(n, s, s), ncft.RANK_TOL)
    assert checked == comb(2 * n, n) - 2
    assert hits == expected
    assert hits


@pytest.mark.parametrize("n", [5, 6, 7, 8, 9, 10, 11])
def test_group_and_necklace_batches_have_the_same_classes(n):
    # The necklace scan lists a flagged class from a batch over every pair
    # of its group, with the flags of the necklace batch: sound only if the
    # two batches have the same classes, in every (|T|, |R|) group.
    masks = np.arange(1 << n)
    rotations = [((masks << a) | (masks >> (n - a))) & ((1 << n) - 1) for a in range(n)]
    is_necklace = masks == np.min(rotations, axis=0)
    for s in range(1, n):
        t_all = ncft._combo_masks(n, s)
        for r in range(s, n):
            r_all = ncft._combo_masks(n, r)
            t_sets, r_sets = t_all[is_necklace[t_all]], r_all[is_necklace[r_all]]
            group = ncft._ClassBatch(n, t_all, r_all)
            necklaces = ncft._ClassBatch(n, t_sets, r_sets)
            assert np.array_equal(group.classes, necklaces.classes)


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
    # The Cartesian batch's keys, against the all-units key of each pair of
    # its expansion, T varying slowest.  Every mask against every mask up to
    # n = 9, which holds T that many units minimize, such as single points
    # and, at composite n, periodic sets; at n = 13, two random lists of 300
    # sets each, with every set size from 0 to 13.
    if n < 13:
        t_sets = r_sets = np.arange(1 << n)
    else:
        sizes = np.arange(300) % (n + 1)
        ranks = np.argsort(rng.random((2, 300, n)), axis=2)
        t_sets, r_sets = ((ranks < sizes[:, None]) << np.arange(n)).sum(axis=2)
    keys = ncft._class_keys(n, t_sets, r_sets)
    t_masks, r_masks = np.repeat(t_sets, len(r_sets)), np.tile(r_sets, len(t_sets))
    assert np.array_equal(keys, oracle_class_keys(n, t_masks, r_masks))
    dilated, inverse = ncft._class_tables(n)
    assert np.array_equal(dilated, oracle_dilation_table(n))
    units = [u for u in range(1, n) if gcd(u, n) == 1]
    assert [units[i] * u % n for i, u in zip(inverse, units)] == [1] * len(units)


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
    hits, _ = decide_batch(p, subsets(p, s), subsets(p, s))
    assert hits == []
    assert sum(decided) == orbits < len(cols)


@pytest.mark.parametrize("p", [5, 7])
def test_burnside_square_orbits_match_the_orbit_count(p):
    for s in range(1, p):
        assert burnside_square_orbits(p, s) == count_orbits(p, *layer_batch(p, s, s))


def test_exhaustive_scan_decides_each_class_once(monkeypatch):
    # One batch per layer s <= p/2, over the necklace pairs only, and still
    # every class of those layers is decided exactly once; the layers above
    # follow from their complements, and every pair is still counted.
    p, half = 7, 7 // 2
    orbits = sum(count_orbits(p, *layer_batch(p, s, s)) for s in range(1, half + 1))
    spied = spy_batches(monkeypatch)
    decided = count_decided(monkeypatch)
    checked, hits, _ = ncft._layer_pairs_exhaustive(p)
    batches = [pairs for _, _, pairs in spied]
    assert len(batches) == half
    assert batches == [(comb(p, s) // p) ** 2 for s in range(1, half + 1)]  # necklace pairs only
    assert checked == comb(2 * p, p) - 2
    assert hits == []
    assert sum(decided) == orbits


@pytest.mark.parametrize("n", range(2, 14))
def test_exhaustive_layer_equals_the_full_necklace_scan(n):
    # Skipping the layers s > n/2 at a certified lower half, and scanning
    # them where the lower half has hits (every composite n here), gives the
    # pair count, hits and fallback count of the scan over every layer.
    checked, (hits,), fallbacks = ncft._necklace_scan(n, [(s, s) for s in range(1, n)])
    assert ncft._layer_pairs_exhaustive(n) == (checked, hits, fallbacks)


@pytest.mark.parametrize("n", range(2, 13))
def test_complementary_square_minors_have_equal_determinant_moduli(n):
    # Jacobi's complementary-minor identity for the unitary DFT matrix:
    # |det W[R, T]| = |det W[R^c, T^c]| for |R| = |T|.
    rng, w = np.random.default_rng(n), dft_matrix(n)
    for _ in range(200):
        s = int(rng.integers(1, n))
        t, r = (np.sort(rng.choice(n, size=s, replace=False)) for _ in range(2))
        t_c, r_c = (np.setdiff1d(np.arange(n), side) for side in (t, r))
        block, complement = w[np.ix_(r, t)], w[np.ix_(r_c, t_c)]
        assert abs(abs(np.linalg.det(block)) - abs(np.linalg.det(complement))) <= 1e-12


@pytest.mark.parametrize("p", [7, 11, 13])
def test_certificate_proves_each_square_class_and_its_complement(p):
    # Every square class of every layer is certified, and so is the class
    # of its complement, which the scans use in its place above p/2.
    calls = certificate_calls(lambda: ncft._necklace_scan(p, [(s, s) for s in range(1, p)]))
    assert len(calls) == p - 1
    for cols, rows, certified in calls:
        assert certified.all()
        assert ncft._certified_nonsingular(p, complements(p, cols), complements(p, rows)).all()


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
    # Every minor up to p = 7, and every class representative the necklace
    # scan offers at p = 11 and 13, so no verdict there needs the fallback.
    for p in (2, 3, 5, 7):
        for s in range(1, p):
            for r in range(s, p):
                cols, rows = layer_batch(p, s, r)
                assert ncft._certified_nonsingular(p, cols, rows).all()
    for p in (11, 13):
        calls = certificate_calls(lambda: ncft._necklace_scan(p, every_group(p)))
        assert len(calls) == len(every_group(p))
        assert all(certified.all() for _, _, certified in calls)


def every_group(n):
    """Every (|T|, |R|) group of the necklace scans, 1 <= |T| <= |R| < n: tao's and conjecture's."""
    return [(s, r) for s in range(1, n) for r in range(s, n)]


def certificate_calls(run):
    """(cols, rows, mask) of every _certified_nonsingular call that run() makes."""
    calls, certify = [], ncft._certified_nonsingular

    def recording(n, cols, rows):
        certified = certify(n, cols, rows)
        calls.append((cols, rows, certified))
        return certified

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(ncft, "_certified_nonsingular", recording)
        run()
    return calls


@pytest.mark.parametrize("n", [4, 6, 8, 9, 10])
def test_certificate_matches_oracle_on_composite_layers(n):
    # The batch-last chunked kernel gives the (m, s, s) kernel's masks on
    # every layer.  A first zero pivot occurs here at every step after the
    # first (the first pivot is a DFT entry, a unit), found from the masks
    # of the leading k x k blocks.
    first_zero = set()
    for s in range(1, n):
        for r in range(s, n):
            cols, rows = layer_batch(n, s, r)
            certified = ncft._certified_nonsingular(n, cols, rows)
            assert np.array_equal(certified, oracle_certified_nonsingular(n, cols, rows))
        cols, rows = layer_batch(n, s, s)
        leading = [ncft._certified_nonsingular(n, cols[:, :k], rows[:, :k]) for k in range(1, s + 1)]
        first_zero.update(k for k in range(2, s + 1) if (leading[k - 2] & ~leading[k - 1]).any())
    assert first_zero == set(range(2, n - 1))


@pytest.mark.parametrize("p", [2, 3, 5, 7, 11, 13])
def test_certificate_matches_oracle_on_necklace_scan_batches(p):
    calls = certificate_calls(lambda: ncft._necklace_scan(p, every_group(p)))
    assert len(calls) == len(every_group(p))
    for cols, rows, certified in calls:
        assert np.array_equal(certified, oracle_certified_nonsingular(p, cols, rows))


@pytest.mark.parametrize("p", [2, 3, 5, 7, 11, 13])
def test_sampled_scan_makes_the_exhaustive_layer_certificate_calls(p):
    # One scan for both modes: at every seed and sample count, sampled mode
    # reports what forced exhaustive mode does, apart from its mode and its
    # pairs_checked (the sample count), and it certifies the same batches,
    # array for array, in the same order.
    reports = []
    exhaustive = certificate_calls(
        lambda: reports.append(tao_min_sum(p, mode="exhaustive", force=True))
    )
    expected = {**reports[0], "mode": "sampled"}
    assert len(exhaustive) == p // 2
    for seed in (0, 77, 4242):
        for samples in (1, 20, ncft.DEFAULT_SAMPLES):
            reports.clear()
            sampled = certificate_calls(
                lambda: reports.append(tao_min_sum(p, mode="sampled", samples=samples, seed=seed))
            )
            assert reports[0] == {**expected, "pairs_checked": samples}
            assert len(sampled) == len(exhaustive)
            for (cols, rows, _), (cols_x, rows_x, _) in zip(sampled, exhaustive):
                assert np.array_equal(cols, cols_x)
                assert np.array_equal(rows, rows_x)


@pytest.mark.parametrize("n", [6, 7])
def test_certificate_matches_oracle_through_the_power_map(monkeypatch, n):
    # With the table cap below n the powers come from a _PowerMap: the same masks.
    batches = [layer_batch(n, s, r) for s in range(1, n) for r in range(s, n)]
    tabulated = [ncft._certified_nonsingular(n, cols, rows) for cols, rows in batches]
    monkeypatch.setattr(ncft, "_TABLE_MAX_ENTRIES", n - 1)
    ncft._modular_dft.cache_clear()
    try:
        assert isinstance(ncft._modular_dft(n)[1], ncft._PowerMap)
        for (cols, rows), expected in zip(batches, tabulated):
            certified = ncft._certified_nonsingular(n, cols, rows)
            assert np.array_equal(certified, expected)
            assert np.array_equal(certified, oracle_certified_nonsingular(n, cols, rows))
    finally:
        ncft._modular_dft.cache_clear()


@pytest.mark.parametrize("n", [6, 13])
def test_certificate_of_single_entries_and_of_an_empty_batch(n):
    cols, rows = layer_batch(n, 1, 3)
    certified = ncft._certified_nonsingular(n, cols, rows)
    assert certified.all()  # every 1 x 1 block is a power of g
    assert np.array_equal(certified, oracle_certified_nonsingular(n, cols, rows))
    for s, r in ((1, 1), (4, 6)):
        none = ncft._certified_nonsingular(
            n, np.zeros((0, s), dtype=np.int64), np.zeros((0, r), dtype=np.int64)
        )
        assert none.shape == (0,) and none.dtype == bool


@pytest.mark.parametrize("per_chunk", [1, 3, "all but one"])
def test_certificate_does_not_depend_on_the_chunk(monkeypatch, per_chunk):
    # 3,920 tall minors at n = 8, some uncertified, split unevenly: the
    # chunk sizes leave a remainder of 2 and of 1 minors.
    n, s = 8, 3
    cols, rows = layer_batch(n, s, s + 1)
    assert len(cols) * s * s <= ncft._MINOR_CHUNK  # one chunk by default
    whole = ncft._certified_nonsingular(n, cols, rows)
    assert whole.any() and not whole.all()
    minors = len(cols) - 1 if per_chunk == "all but one" else per_chunk
    monkeypatch.setattr(ncft, "_MINOR_CHUNK", minors * s * s)
    assert np.array_equal(ncft._certified_nonsingular(n, cols, rows), whole)


def test_certificate_memory_is_bounded_by_the_chunk():
    # 200,000 random 8 x 8 minors at p = 17.  One (m, s, s) int64 stack of
    # them would take 98 MiB, and the unchunked kernel peaks at 345 MiB.
    # A chunk's stacks hold at most _MINOR_CHUNK int64 entries each (2 MiB),
    # and no more than five of them are alive at once; with the 200,000-byte
    # mask the bound is 10.7 MB (8.2 MB measured).
    m, s, p = 200_000, 8, 17
    rng = np.random.default_rng(5)
    cols, rows = (
        np.sort(rng.permuted(np.tile(np.arange(p), (m, 1)), axis=1)[:, :s], axis=1) for _ in range(2)
    )
    ncft._modular_dft(p)  # the table is built outside the measurement
    tracemalloc.start()
    try:
        certified = ncft._certified_nonsingular(p, cols, rows)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert certified.all()
    assert peak < 5 * 8 * ncft._MINOR_CHUNK + m


def test_float_fallback_is_live(monkeypatch):
    # With a certificate that decides nothing, every class goes to the SVD:
    # the hits and the reports (without "exact") do not change, and
    # float_fallbacks counts every class, so the fallback is not dead code.
    # A fallback sends the layer scan to the layers s > p/2 as well, in
    # sampled mode too.
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
    sampled_classes = sum(burnside_square_orbits(11, s) for s in range(1, 11))
    assert sampled_classes == 638
    for report, before, classes in zip(
        reports, certified_reports, [tao_classes, conjecture_classes, sampled_classes]
    ):
        offered.clear()
        after = report()
        exact_before, exact_after = before.pop("exact"), after.pop("exact")
        assert after == before
        assert exact_before == {"modulus": exact_after["modulus"], "float_fallbacks": 0}
        # each class is offered to the certificate once
        assert exact_after["float_fallbacks"] == sum(offered) == classes


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


def test_sampled_scan_decides_each_square_class_once():
    # Whatever the sample count, the scan covers every square layer
    # k <= p/2 and decides each class of those layers once, by the
    # certificate: as many distinct class keys per layer as Burnside's lemma
    # counts, 2,657 at p = 13.  One sample scans every layer as well.
    for p, orbits in ((11, [1, 5, 25, 100, 188]), (13, [1, 6, 46, 275, 837, 1492])):
        assert [burnside_square_orbits(p, s) for s in range(1, p // 2 + 1)] == orbits
        for samples in (1, 2000):
            reports = []
            calls = certificate_calls(
                lambda: reports.append(tao_min_sum(p, mode="sampled", samples=samples, seed=9))
            )
            assert [(cols.shape[1], len(cols)) for cols, _, _ in calls] == list(enumerate(orbits, 1))
            for cols, rows, certified in calls:
                assert certified.all()
                keys = oracle_class_keys(p, subset_masks(cols), subset_masks(rows))
                assert len(np.unique(keys)) == len(keys)
            assert reports[0]["exact"]["float_fallbacks"] == 0
            assert "violating_patterns" not in reports[0]


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


@pytest.mark.parametrize("mode", ["exhaustive", "sampled"])
def test_tao_flagged_pattern_fails_the_run(monkeypatch, capsys, mode):
    # A class the decider flags makes every member a violating pattern, and
    # the run fails although each witness still sums to p + 1 or more.  Both
    # modes run one scan, so a sampled run lists the same members.
    p, flagged, rank_deficient = 5, [], ncft._rank_deficient

    def flag_first_class(n, cols, rows):
        deficient, fallbacks = rank_deficient(n, cols, rows)
        flagged.append((cols[0].tolist(), rows[0].tolist()))
        deficient[0] = True
        return deficient, fallbacks

    monkeypatch.setattr(ncft, "_rank_deficient", flag_first_class)
    report = tao_min_sum(p, mode=mode)
    members = set()
    for t, r in flagged:
        for u, a, b in product(range(1, p), range(p), range(p)):
            t_image = sorted((u * j + a) % p for j in t)
            r_image = {(pow(u, -1, p) * k + b) % p for k in r}
            members.add((tuple(t_image), tuple(sorted(set(range(p)) - r_image))))
    listed = [(tuple(v["support"]), tuple(v["fourier_support"])) for v in report["violating_patterns"]]
    assert len(listed) == len(set(listed)) == len(members) == 150
    assert set(listed) == members
    assert report["holds"] is False
    assert report["min_sum"] >= p + 1
    witness = report["witness"]
    entries = np.array([complex(*z) for z in witness["entries"]])
    for sup, x in ((witness["support"], entries), (witness["fourier_support"], dft_matrix(p) @ entries)):
        assert sup == np.flatnonzero(np.abs(x) > SUPPORT_REL_TOL * np.abs(x).max()).tolist()
    assert report["mode"] == mode
    assert cli.main(["tao", "--p", str(p), "--mode", mode]) == 1
    out = json.loads(capsys.readouterr().out)
    assert out["holds"] is False
    assert out["violating_patterns"] == report["violating_patterns"]


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
    assert report["patterns_checked"] == sum(
        comb(3, s) * comb(3, o) for s in range(1, 3) for o in range(1, 4 - s)
    )
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
    """Record (mask, x_blocks, x_masses) for every chunk the random layer draws, in draw order."""
    draw_supports, draw_trials, drawn, masks = ncft._draw_supports, ncft._draw_trials, [], []

    def record_supports(rng, p, m):
        masks.append(draw_supports(rng, p, m))
        return masks[-1]

    def record(rng, shape, p, m):
        x_blocks, masses, supports = draw_trials(rng, shape, p, m)
        assert supports is masks[-1]
        drawn.append((supports, x_blocks, masses))
        return x_blocks, masses, supports

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
    for mask, x_blocks, masses in drawn:
        for xb in x_blocks:
            assert (xb[~mask] == 0).all()
            assert (xb[mask] != 0).all()
        assert (masses[~mask] == 0).all()

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
    # The x-side masses (squared trace norms), and the x-side norms of the
    # rows the screen leaves open, come from the drawn entries alone;
    # scattered among zeros they are those of the dense stack, bit for bit.  The Fourier-side masses and the norms its undecided rows
    # take are computed on each block's contiguous (p, m, n, n) GEMM output
    # and transposed; they are those of its (m, p, n, n) view, bit for bit.
    shape, rng = AlgebraShape(dims), np.random.default_rng(23)
    for p in (2, 5, 13):
        w = dft_matrix(p)
        for m in (1, 7, trial_chunk(shape, p)):
            x_blocks, masses, supports = ncft._draw_trials(rng, shape, p, m)
            dense = ncft._entry_masses(x_blocks)
            assert masses.view(np.uint64).tolist() == dense.view(np.uint64).tolist()
            # So are the C*-norms the exact path takes from the drawn entries of some rows.
            rows = np.arange(m)[::2]
            drawn = ncft._drawn_entry_norms(x_blocks, supports, rows)
            dense = ncft._entry_norms([xb[rows] for xb in x_blocks])
            assert drawn.view(np.uint64).tolist() == dense.view(np.uint64).tolist()
            h_blocks = [
                (w @ xb.transpose(1, 0, 2, 3).reshape(p, -1)).reshape(p, m, n, n)
                for n, xb in zip(dims, x_blocks)
            ]
            for kernel in (ncft._entry_masses, ncft._entry_norms):
                contiguous = kernel(h_blocks).T
                view = kernel([hb.transpose(1, 0, 2, 3) for hb in h_blocks])
                assert contiguous.view(np.uint64).tolist() == view.view(np.uint64).tolist()


def exact_norm_rows(monkeypatch):
    """The row counts each exact-norm callback of the random layer's screen is asked for from now on."""
    threshold, calls = ncft._screened_support_mask, []

    def screened(masses, rank, rel_tol, entry_norms):
        def counted(rows):
            calls.append(len(rows))
            return entry_norms(rows)

        return threshold(masses, rank, rel_tol, counted)

    monkeypatch.setattr(ncft, "_screened_support_mask", screened)
    return calls


@pytest.mark.parametrize("seed", [11, 4242])
@pytest.mark.parametrize("dims", [(2,), (1, 2), (3,)], ids=["M2", "C+M2", "M3"])
def test_default_rel_tol_screen_needs_no_exact_norms(monkeypatch, dims, seed):
    # At SUPPORT_REL_TOL the trace-norm bounds decide every row of both
    # sides, so neither exact-norm callback is ever called.
    calls = exact_norm_rows(monkeypatch)
    assert conjecture_audit(AlgebraShape(dims), 5, trials=10_000, seed=seed)["holds"]
    assert calls == []


def test_coarse_rel_tol_screen_reaches_exact_norms(monkeypatch):
    # The same count is live: at rel_tol 0.5 the bounds leave rows open.
    calls = exact_norm_rows(monkeypatch)
    conjecture_audit(M2, 5, trials=10_000, seed=4242, rel_tol=0.5)
    assert calls and all(calls)


def test_conjecture_violation_names_its_global_trial(monkeypatch):
    # Clear the Fourier support of one trial in the second chunk: its
    # recorded trial is the global index, and its vector is the drawn x.
    p, j = 5, 17
    chunk = trial_chunk(M2, p)
    drawn = record_trials(monkeypatch)
    threshold, calls = ncft._screened_support_mask, []

    def clear_one(masses, rank, rel_tol, entry_norms):
        supp = threshold(masses, rank, rel_tol, entry_norms)
        calls.append(masses.shape)
        if len(calls) == 4:  # (x side, Fourier side) per chunk: chunk 1's Fourier side
            supp[j] = False
        return supp

    monkeypatch.setattr(ncft, "_screened_support_mask", clear_one)
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
    # the minor's hits, every pair of each flagged class: the frame-level check
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
    checked, flagged, _, agreed = ncft._pattern_search(shape, n)
    assert (checked, flagged) == oracle_pattern_search(shape, n)
    assert agreed
    assert checked == sum(
        comb(n, s) * comb(n, t) for s in range(1, n) for t in range(1, n - s + 1)
    )
    assert bool(flagged) == (n in (4, 6))


@pytest.mark.parametrize("dims", [(1, 2), (3,), (4, 4, 8)], ids=["C+M2", "M3", "448"])
@pytest.mark.parametrize("p", [5, 7, 11, 13])
def test_frames_over_the_algebra_are_kronecker_products_of_the_scalar_frames(dims, p):
    # The structured search decides its frame side on the frames over C:
    # every block of the frames over A is kron(frame over C, I_n), bit for bit.
    shape = AlgebraShape(dims)
    for build in (standard_frame, fourier_frame):
        scalar = build(C, p).mats[0]
        for n, mat in zip(dims, build(shape, p).mats):
            assert np.array_equal(mat, np.kron(scalar, np.eye(n)))


@pytest.mark.parametrize(
    "dims, n", [((1, 2), 5), ((1, 2), 7), ((3,), 5), ((3,), 7), ((1, 2), 6), ((1, 2), 8)]
)
def test_pattern_search_equals_the_algebra_frame_search(dims, n):
    # Deciding the frame side on the frames over C flags the same patterns,
    # with the same two verdicts, as deciding it on the frames over A; the
    # composite lengths 6 and 8 flag some.
    shape = AlgebraShape(dims)
    checked, flagged, _, agreed = ncft._pattern_search(shape, n)
    assert (checked, flagged) == oracle_algebra_frame_search(shape, n)
    assert agreed == all(scalar == by_frames for *_, scalar, by_frames in flagged)
    assert bool(flagged) == (n in (6, 8))


@pytest.mark.parametrize("builder", ["standard_frame", "fourier_frame"])
def test_frame_builder_off_the_kronecker_identity_fails_the_crosscheck(monkeypatch, tmp_path, builder):
    # One entry of one block of the frames over A moved by an ulp: the
    # frames over C still decide every pattern, but they no longer stand
    # for A, so the cross-check fails and the audit exits 1.
    original = getattr(ncft, builder)

    def nudged(shape, d):
        frame = original(shape, d)
        if shape == C:
            return frame
        mats = [mat.copy() for mat in frame.mats]
        mats[-1][0, 0] = np.nextafter(mats[-1][0, 0].real, 2.0)
        return ncft.ModularFrame._from_mats(shape, d, frame.count, mats)

    monkeypatch.setattr(ncft, builder, nudged)
    shape = AlgebraShape((1, 2))
    checked, flagged, _, agreed = ncft._pattern_search(shape, 5)
    assert (checked, flagged, agreed) == (575, [], False)
    report = conjecture_audit(shape, 5, trials=50)
    assert report["reduction_crosscheck_agreed"] is False
    assert report["holds"] is False
    assert report["pattern_violations"] == []
    out = tmp_path / "report.json"
    argv = ["conjecture", "--algebra", "1,2", "--p", "5", "--trials", "50", "--out", str(out)]
    assert cli.main(argv) == 1
    assert '"reduction_crosscheck_agreed":false' in out.read_text()


def complements(n, sets):
    """Row i lists range(n) minus the indices in sets[i], ascending."""
    return np.array([[j for j in range(n) if j not in row] for row in sets.tolist()])


def pattern_groups(n):
    """The T and R index rows of each (|T|, |Omega|) group the pattern search scans."""
    for s in range(1, n):
        for o in range(1, n - s + 1):
            yield subsets(n, s), subsets(n, n - o)


@pytest.mark.parametrize("dims", [(2,), (1, 1), (1,)])
@pytest.mark.parametrize("n", [5, 6, 7])
def test_frame_side_singular_values_are_class_invariant(dims, n):
    # The pattern search decides the frame side, on the frames over C, from
    # the pair each class key encodes.  That pair has its own key, and every
    # member of the class has its constraint stacks' singular values, block
    # by block, over C and over A alike.
    shape = AlgebraShape(dims)
    std, fourier = standard_frame(shape, n), fourier_frame(shape, n)

    def singular_values(comp_t, comp_o):
        return [
            np.linalg.svd(_constraint_stack(t, w, b, comp_t, comp_o), compute_uv=False)
            for b, t, w in zip(dims, std.mats, fourier.mats)
        ]

    for t_sets, r_sets in pattern_groups(n):
        batch = ncft._ClassBatch(n, subset_masks(t_sets), subset_masks(r_sets))
        own_keys = oracle_class_keys(n, subset_masks(batch.cols), subset_masks(batch.rows))
        cols, rows = cartesian(t_sets, r_sets)
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
    checked, flagged, _, _ = ncft._pattern_search(M2, p)
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
        checked, flagged, _, _ = ncft._pattern_search(M2, p)
        orbits = sum(count_orbits(p, *cartesian(*sets)) for sets in pattern_groups(p))
        assert sum(seen) == orbits == classes < checked
        assert flagged == []


def test_conjecture_audit_searches_every_pattern_at_p13():
    # The largest accepted prime gets the same structured search, and the
    # same report shape, as every smaller one.
    report = conjecture_audit(C, 13, trials=100, seed=0)
    assert report["patterns_checked"] == 38_738_349 == sum(
        comb(13, s) * comb(13, o) for s in range(1, 13) for o in range(1, 14 - s)
    )
    assert report["exact"]["float_fallbacks"] == 0
    assert report["pattern_violations"] == []
    assert report["reduction_crosscheck_agreed"]
    assert report["holds"]


@pytest.mark.parametrize("chunk", [1, 1000])
def test_frame_verdicts_do_not_depend_on_the_chunk(monkeypatch, chunk):
    # _deficient_blocks decides its patterns in chunks of _STACK_CHUNK
    # constraint-stack entries, as many patterns as fit and at least one.
    # Chunks of one pattern, or of four, give the default chunk's verdicts.
    # At the composite length 6 the standard and Fourier frames admit some
    # patterns (the comb on {0, 2, 4}) and refuse others.
    shape, n = AlgebraShape((1, 2)), 6
    tau, omega = standard_frame(shape, n), fourier_frame(shape, n)
    pairs = list(product(combinations(range(n), 3), combinations(range(n), 4)))
    comp_t, comp_o = (np.array([pair[side] for pair in pairs]) for side in (0, 1))
    patterns = [[sorted(set(range(n)) - set(comp)) for comp in pair] for pair in pairs]

    def verdicts():
        return (
            uncertainty._deficient_blocks(tau, omega, comp_t, comp_o).tolist(),
            [support_pair_feasible(tau, omega, t, o)[0] for t, o in patterns],
            [ncft._pattern_search(shape, length) for length in (6, 7)],
        )

    expected = verdicts()
    assert any(expected[1]) and not all(expected[1])
    assert expected[2][0][1] != []
    stacks, constraint_stack = [], uncertainty._constraint_stack

    def recording_stack(t, w, n, part_t, part_o):
        stack = constraint_stack(t, w, n, part_t, part_o)
        stacks.append((len(part_t), stack.size))
        return stack

    monkeypatch.setattr(uncertainty, "_STACK_CHUNK", chunk)
    monkeypatch.setattr(uncertainty, "_constraint_stack", recording_stack)
    uncertainty._deficient_blocks(tau, omega, comp_t, comp_o)
    # 300 patterns of (3 + 4) * 6 * 5 = 210 entries over both blocks: chunks
    # of 1, or of the 4 that fit in 1,000 entries, one stack per block
    per_chunk = max(1, chunk // 210)
    assert [m for m, _ in stacks] == [per_chunk] * (300 // per_chunk * shape.num_blocks)
    assert sum(size for _, size in stacks[: shape.num_blocks]) == per_chunk * 210
    assert verdicts() == expected


def test_conjecture_audit_validates():
    with pytest.raises(InputError):
        conjecture_audit(C, 4, trials=10)
    with pytest.raises(InputError):
        conjecture_audit(C, 3, trials=0)
