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
    pattern_feasible_minor,
    random_element,
    random_vector,
    sparsity,
    sub,
    support,
    tao_min_sum,
)
from ncup import cli, ncft
from ncup.ncft import dft_matrix

from oracles import cyclic_shift, oracle_deficient_minors, oracle_pattern_search, vec_sub

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
    # (pattern_feasible_minor's SVD) is reached only when the certificate
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
    # pattern_feasible_minor builds its minor from the indices; the entries
    # are bitwise those of dft_matrix, so its verdicts cannot drift from it.
    for n in range(2, 40):
        w = dft_matrix(n)
        rng = np.random.default_rng(n)
        for _ in range(10):
            rows = np.sort(rng.choice(n, rng.integers(1, n + 1), replace=False))
            cols = np.sort(rng.choice(n, rng.integers(1, n + 1), replace=False))
            assert np.array_equal(ncft._dft_entries(n, rows, cols), w[np.ix_(rows, cols)])


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


@pytest.mark.parametrize("n", [4, 5, 6, 7, 8, 9, 10])
def test_deficient_minors_match_per_minor_oracle(n):
    w = dft_matrix(n)
    found = 0
    for s in range(1, n):
        cols, rows = layer_batch(n, s, s)
        hits = ncft._deficient_minors(w, cols, rows)
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
            hits = ncft._deficient_minors(w, cols, rows)
            assert hits == oracle_deficient_minors(w, cols, rows, ncft.RANK_TOL)


@pytest.mark.parametrize("n", [6, 8])
def test_exhaustive_layers_match_per_minor_oracle(monkeypatch, n):
    w = dft_matrix(n)
    checked, hits = ncft._layer_pairs_exhaustive(n, w)
    expected = []
    for s in range(1, n):
        expected += oracle_deficient_minors(w, *layer_batch(n, s, s), ncft.RANK_TOL)
    assert checked == comb(2 * n, n) - 2
    assert hits == expected
    assert hits
    # 64-pair chunks split classes over many chunks; the hits keep their order
    monkeypatch.setattr(ncft, "_CHUNK", 64)
    assert ncft._layer_pairs_exhaustive(n, w) == (checked, hits)


@pytest.mark.parametrize("n", [7, 8, 9, 12, 13])
def test_class_key_is_invariant(n, rng):
    s, r = 3, 5
    cols = np.sort(np.argsort(rng.random((40, n)), axis=1)[:, :s], axis=1)
    rows = np.sort(np.argsort(rng.random((40, n)), axis=1)[:, :r], axis=1)
    key = ncft._class_keys(n, cols, rows)
    for a in range(n):
        assert np.array_equal(ncft._class_keys(n, (cols + a) % n, rows), key)
        assert np.array_equal(ncft._class_keys(n, cols, (rows + a) % n), key)
    for u in range(1, n):
        if gcd(u, n) == 1:
            moved = ncft._class_keys(n, u * cols % n, pow(u, -1, n) * rows % n)
            assert np.array_equal(moved, key)


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
    assert ncft._deficient_minors(dft_matrix(p), cols, rows) == []
    assert sum(decided) == orbits < len(cols)


def test_exhaustive_scan_decides_each_class_once_across_chunks(monkeypatch):
    # With 64-pair chunks every class of the middle layers spans many chunks;
    # the per-layer verdict map still decomposes each class once.
    p = 7
    orbits = sum(count_orbits(p, *layer_batch(p, s, s)) for s in range(1, p))
    monkeypatch.setattr(ncft, "_CHUNK", 64)
    batches = []
    scan = ncft._deficient_minors

    def counting_batches(w, cols, rows, known=None):
        batches.append(len(cols))
        return scan(w, cols, rows, known)

    monkeypatch.setattr(ncft, "_deficient_minors", counting_batches)
    decided = count_decided(monkeypatch)
    checked, hits = ncft._layer_pairs_exhaustive(p, dft_matrix(p))
    assert checked == sum(batches) == comb(2 * p, p) - 2
    assert max(batches) == 64 and len(batches) > 40
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


@pytest.mark.parametrize("n", range(2, 20))
def test_modular_dft_field(n):
    ell, table = ncft._modular_dft(n)
    assert prime_factors(ell) == [ell]
    assert ell % n == 1 and ell < 2**31
    g = int(table[1])
    assert table.tolist() == [pow(g, e, ell) for e in range(n)]
    assert pow(g, n, ell) == 1
    assert all(pow(g, n // q, ell) != 1 for q in prime_factors(n))


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
    scans = [lambda n=n: ncft._layer_pairs_exhaustive(n, dft_matrix(n)) for n in (6, 8)]
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


def test_conjecture_crosscheck_is_live(monkeypatch, tmp_path):
    # Flip the scalar verdict for one pattern inside the batched minor scan:
    # the frame-level check must disagree with it, so the audit cannot pass
    # by comparing the minor test with itself.
    original = ncft._deficient_minors
    target = ([0], [0])

    def flipped(w, cols, rows, known=None):
        hits = original(w, cols, rows, known)
        everything = list(range(len(w)))
        in_batch = any(
            c == target[0] and r == everything[1:] for c, r in zip(cols.tolist(), rows.tolist())
        )
        if not in_batch:
            return hits
        if target in hits:
            return [hit for hit in hits if hit != target]
        return [target] + hits

    monkeypatch.setattr(ncft, "_deficient_minors", flipped)
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
    checked, flagged = ncft._pattern_search(shape, n)
    assert (checked, flagged) == oracle_pattern_search(shape, n)
    assert checked == sum(
        comb(n, s) * comb(n, t) for s in range(1, n) for t in range(1, n - s + 1)
    )
    assert bool(flagged) == (n in (4, 6))


def test_conjecture_audit_skips_pattern_search_large_p():
    report = conjecture_audit(C, 11, trials=100, seed=0)
    assert not report["pattern_search_performed"]
    assert report["holds"]


def test_conjecture_audit_validates():
    with pytest.raises(InputError):
        conjecture_audit(C, 4, trials=10)
    with pytest.raises(InputError):
        conjecture_audit(C, 3, trials=0)
