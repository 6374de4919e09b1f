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
    cyclic_shift,
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
from ncup.csmodule import vec_sub
from ncup.ncft import dft_matrix

from oracles import oracle_deficient_minors

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
    bad_values += [(v, "must be an integer") for v in ("seven", None, [5])]
    for bad, message in bad_values:
        with pytest.raises(InputError, match=message):
            tao_min_sum(bad)
        with pytest.raises(InputError, match=message):
            chebotarev_minor_nonsingular(bad, [0], [0])


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
def test_exhaustive_layers_match_per_minor_oracle(n):
    w = dft_matrix(n)
    checked, hits = ncft._layer_pairs_exhaustive(n, w)
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
    key = ncft._class_keys(n, cols, rows)
    for a in range(n):
        assert np.array_equal(ncft._class_keys(n, (cols + a) % n, rows), key)
        assert np.array_equal(ncft._class_keys(n, cols, (rows + a) % n), key)
    for u in range(1, n):
        if gcd(u, n) == 1:
            moved = ncft._class_keys(n, u * cols % n, pow(u, -1, n) * rows % n)
            assert np.array_equal(moved, key)


def test_each_symmetry_class_decomposed_once(monkeypatch):
    p, s = 7, 3
    cols, rows = layer_batch(p, s, s)
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
    decomposed = []
    svd = np.linalg.svd

    def counting(a, *args, **kwargs):
        decomposed.append(a.shape[0] if a.ndim == 3 else 1)
        return svd(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "svd", counting)
    assert ncft._deficient_minors(dft_matrix(p), cols, rows) == []
    assert sum(decomposed) == orbits < len(cols)


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
    # Flip the scalar verdict for one pattern: the frame-level check must
    # disagree with it, so the audit cannot pass by comparing the minor
    # test with itself.
    original = ncft.pattern_feasible_minor

    def flipped(p, support_t, support_omega):
        verdict = original(p, support_t, support_omega)
        if list(support_t) == [0] and list(support_omega) == [0]:
            return not verdict
        return verdict

    monkeypatch.setattr(ncft, "pattern_feasible_minor", flipped)
    report = conjecture_audit(M2, 3, trials=50)
    assert report["reduction_crosscheck_agreed"] is False
    assert report["holds"] is False
    assert report["pattern_violations"] == [{"support": [0], "fourier_support": [0]}]
    out = tmp_path / "report.json"
    argv = ["conjecture", "--algebra", "2", "--p", "3", "--trials", "50", "--out", str(out)]
    assert cli.main(argv) == 1
    assert '"reduction_crosscheck_agreed":false' in out.read_text()


def test_conjecture_audit_skips_pattern_search_large_p():
    report = conjecture_audit(C, 7, trials=100, seed=0)
    assert not report["pattern_search_performed"]
    assert report["holds"]


def test_conjecture_audit_validates():
    with pytest.raises(InputError):
        conjecture_audit(C, 4, trials=10)
    with pytest.raises(InputError):
        conjecture_audit(C, 3, trials=0)
