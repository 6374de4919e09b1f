import numpy as np
import pytest

from ncup import (
    AlgebraShape,
    InputError,
    ModularFrame,
    ModuleVector,
    NonParsevalFrameError,
    basis_vector,
    certify,
    coherence,
    evaluate,
    inner_product,
    module_norm,
    proof_chain_check,
    random_audit,
    random_parseval_frame,
    random_vector,
    support_pair_feasible,
)
from ncup import analysis, frames, support, uncertainty
from ncup.csmodule import vec_scale
from ncup.ncft import dirac_comb, fourier_frame, standard_frame
from oracles import oracle_cross_gram_norms, oracle_norm, oracle_support_pair_feasible

C = AlgebraShape((1,))
M2 = AlgebraShape((2,))


def comb_instance(d, spacing):
    tau = standard_frame(C, d)
    omega = fourier_frame(C, d)
    return tau, omega, dirac_comb(C, d, spacing)


def test_certificate_single_basis_vector():
    tau = standard_frame(C, 4)
    omega = fourier_frame(C, 4)
    cert = certify(tau, omega, basis_vector(C, 4, 0))
    assert cert.s_tau == 1
    assert cert.s_omega == 4
    assert abs(cert.mu - 0.5) < 1e-14
    assert cert.product_lhs == 4
    assert abs(cert.rhs - 4.0) < 1e-12
    assert cert.product_holds and cert.additive_holds
    assert abs(cert.slack) < 1e-12


def test_certificate_comb_is_tight():
    tau, omega, comb = comb_instance(4, 2)
    cert = certify(tau, omega, comb)
    assert (cert.s_tau, cert.s_omega) == (2, 2)
    assert cert.product_lhs == 4
    assert abs(cert.slack) < 1e-12
    assert abs(cert.additive_lhs - 4.0) < 1e-14


def test_certificate_same_frame_mu_one(shape, rng):
    d = 3
    frame = random_parseval_frame(shape, d, d, rng)
    x = random_vector(shape, d, rng)
    cert = certify(frame, frame, x)
    assert cert.rhs <= cert.product_lhs + 1e-9
    assert cert.product_holds


def test_certify_rejects_zero_vector(shape):
    frame = standard_frame(shape, 3)
    zero = vec_scale(0.0, basis_vector(shape, 3, 0))
    with pytest.raises(InputError, match="zero"):
        certify(frame, frame, zero)


def test_certify_rejects_non_parseval():
    e0 = basis_vector(C, 2, 0)
    bad = ModularFrame.from_vectors([e0, e0])
    good = standard_frame(C, 2)
    with pytest.raises(NonParsevalFrameError, match="first"):
        certify(bad, good, e0)
    with pytest.raises(NonParsevalFrameError, match="second"):
        certify(good, bad, e0)


def test_certify_rejects_bad_rel_tol():
    tau = standard_frame(C, 2)
    x = basis_vector(C, 2, 0)
    with pytest.raises(InputError):
        certify(tau, tau, x, rel_tol=1.0)
    with pytest.raises(InputError):
        certify(tau, tau, x, rel_tol=-0.1)


def test_certificate_scale_invariance(shape, rng):
    d = 3
    tau = random_parseval_frame(shape, d, d + 1, rng)
    omega = random_parseval_frame(shape, d, d + 2, rng)
    x = random_vector(shape, d, rng)
    a = certify(tau, omega, x)
    b = certify(tau, omega, vec_scale(5.0, x))
    assert a.to_dict() == b.to_dict()


def test_certificate_serialization_types():
    tau, omega, comb = comb_instance(4, 2)
    payload = certify(tau, omega, comb).to_dict()
    assert isinstance(payload["s_tau"], int)
    assert isinstance(payload["product_lhs"], int)
    assert isinstance(payload["mu"], float)
    assert isinstance(payload["product_holds"], bool)


def test_proof_chain_names_and_order(shape, rng):
    d = 3
    tau = random_parseval_frame(shape, d, d + 1, rng)
    omega = random_parseval_frame(shape, d, d + 2, rng)
    steps = proof_chain_check(tau, omega, random_vector(shape, d, rng))
    assert [s[0] for s in steps] == [
        "parseval_support_identity",
        "dual_frame_expansion",
        "cauchy_schwarz",
        "entrywise_norm_bound",
        "coherence_sup",
        "support_count_parseval",
    ]
    assert all(s[3] for s in steps)
    for _, lhs, rhs, _ in steps:
        assert np.isfinite(lhs) and np.isfinite(rhs)


def test_proof_chain_tight_on_comb():
    tau, omega, comb = comb_instance(4, 2)
    steps = proof_chain_check(tau, omega, comb)
    assert all(s[3] for s in steps)
    for _, lhs, rhs, _ in steps:
        assert abs(lhs - 2.0) < 1e-12
        assert abs(rhs - 2.0) < 1e-12


def test_proof_chain_exact_identity_steps(shape, rng):
    d = 4
    frame = random_parseval_frame(shape, d, d, rng)
    x = frame.vector(0)
    steps = proof_chain_check(frame, frame, x)
    name, lhs, rhs, holds = steps[0]
    assert name == "parseval_support_identity"
    assert holds and abs(lhs - rhs) <= 1e-9 * max(1.0, abs(lhs))


def test_evaluate_halves_are_certify_and_chain(shape, rng):
    d = 3
    tau = random_parseval_frame(shape, d, d + 1, rng)
    omega = random_parseval_frame(shape, d, d + 2, rng)
    x = random_vector(shape, d, rng)
    cert, chain = evaluate(tau, omega, x, rel_tol=1e-6)
    assert cert == certify(tau, omega, x, rel_tol=1e-6)
    assert chain == proof_chain_check(tau, omega, x, rel_tol=1e-6)


def test_evaluate_computes_each_intermediate_once(monkeypatch, rng):
    d = 3
    # Rebuilt from their entries, so neither frame has measured its
    # Parseval residual yet (parsevalize already did for the originals).
    tau = ModularFrame(M2, d, random_parseval_frame(M2, d, d + 1, rng).blocks)
    omega = ModularFrame(M2, d, random_parseval_frame(M2, d, d + 2, rng).blocks)
    x = random_vector(M2, d, rng)
    calls = {}

    def count(module, name):
        original = getattr(module, name)

        def counted(*args, **kwargs):
            calls[name] = calls.get(name, 0) + 1
            return original(*args, **kwargs)

        monkeypatch.setattr(module, name, counted)

    count(frames, "frame_operator")
    count(uncertainty, "analysis")
    count(uncertainty, "_cross_grams")
    evaluate(tau, omega, x)
    assert calls == {"frame_operator": 2, "analysis": 2, "_cross_grams": 1}
    # Each frame keeps its residual: a second instance does not re-measure it.
    evaluate(tau, omega, x)
    assert calls == {"frame_operator": 2, "analysis": 4, "_cross_grams": 2}


def test_support_pair_feasible_examples():
    tau = standard_frame(C, 4)
    omega = fourier_frame(C, 4)
    ok, witness = support_pair_feasible(tau, omega, [0, 2], [0, 2])
    assert ok
    assert abs(module_norm(witness) - 1.0) < 1e-10
    bad, none_witness = support_pair_feasible(tau, omega, [0], [0])
    assert not bad and none_witness is None


def test_support_pair_feasible_witness_is_certified():
    tau = standard_frame(C, 4)
    omega = fourier_frame(C, 4)
    ok, witness = support_pair_feasible(tau, omega, [0, 2], [0, 2])
    assert ok
    cert = certify(tau, omega, witness)
    assert cert.s_tau <= 2 and cert.s_omega <= 2


def test_support_pair_feasible_monotone():
    tau = standard_frame(C, 4)
    omega = fourier_frame(C, 4)
    ok_small, _ = support_pair_feasible(tau, omega, [0], [0, 1])
    ok_big, _ = support_pair_feasible(tau, omega, [0, 1], [0, 1, 2, 3])
    assert not ok_small
    assert ok_big


def test_support_pair_feasible_full_pattern(shape):
    d = 2
    tau = standard_frame(shape, d)
    ok, witness = support_pair_feasible(tau, tau, [0, 1], [0, 1])
    assert ok and witness is not None


def test_support_pair_feasible_matches_probe_oracle(shape, rng):
    d = 3
    square = random_parseval_frame(shape, d, d, rng)
    pairs = [
        (random_parseval_frame(shape, d, d + 2, rng), random_parseval_frame(shape, d, d + 1, rng))
        for _ in range(3)
    ]
    # tau == omega with count == d repeats constraint rows: the stacked
    # system is rank deficient whenever the two complements overlap.
    pairs += [(square, square), (standard_frame(shape, d), fourier_frame(shape, d))]
    verdicts = []
    for tau, omega in pairs:
        for _ in range(16):
            t_set = sorted(rng.choice(tau.count, rng.integers(tau.count + 1), replace=False))
            o_set = sorted(rng.choice(omega.count, rng.integers(omega.count + 1), replace=False))
            ok, witness = support_pair_feasible(tau, omega, t_set, o_set)
            expected, _ = oracle_support_pair_feasible(tau, omega, t_set, o_set)
            assert ok == expected, (t_set, o_set)
            verdicts.append(ok)
            if not ok:
                assert witness is None
                continue
            assert abs(module_norm(witness) - 1.0) < 1e-12
            assert set(support(analysis(tau, witness))) <= set(t_set)
            assert set(support(analysis(omega, witness))) <= set(o_set)
    assert any(verdicts) and not all(verdicts)


def test_support_pair_feasible_validates_indices():
    tau = standard_frame(C, 3)
    with pytest.raises(InputError):
        support_pair_feasible(tau, tau, [3], [0])
    with pytest.raises(InputError):
        support_pair_feasible(tau, tau, [0, 0], [0])


def test_random_audit_holds_and_is_deterministic():
    kwargs = dict(d=3, n_tau=4, n_omega=5, trials=25, seed=11)
    a = random_audit(M2, **kwargs)
    b = random_audit(M2, **kwargs)
    assert a == b
    assert a["violations"] == 0
    assert len(a["records"]) == 25
    assert a["min_slack"] >= -1e-9
    assert 0 <= a["tightest_trial"] < 25


def test_random_audit_records_have_chain(shape):
    report = random_audit(shape, d=2, n_tau=3, n_omega=3, trials=5, seed=3)
    for rec in report["records"]:
        assert rec["chain_holds"]
        assert rec["product_holds"]
        assert rec["additive_lhs"] >= rec["product_lhs"] - 1e-12


def test_random_audit_additive_dominates_product(shape):
    report = random_audit(shape, d=3, n_tau=4, n_omega=4, trials=20, seed=7)
    for rec in report["records"]:
        gm = 2 * np.sqrt(rec["s_tau"] * rec["s_omega"])
        assert rec["additive_lhs"] >= gm - 1e-12


def test_random_audit_validates_arguments():
    with pytest.raises(InputError):
        random_audit(C, d=0, n_tau=2, n_omega=2, trials=1)
    with pytest.raises(InputError):
        random_audit(C, d=2, n_tau=1, n_omega=2, trials=1)
    with pytest.raises(InputError):
        random_audit(C, d=2, n_tau=2, n_omega=2, trials=0)


@pytest.mark.parametrize(
    "dims, d, n_tau, n_omega",
    [
        ((1,), 3, 4, 5),
        ((1, 1), 3, 4, 5),
        ((2,), 3, 4, 5),
        ((1, 2), 3, 4, 5),
        ((4, 4, 8), 16, 24, 24),
    ],
)
def test_mu_matches_dense_svd_oracle(dims, d, n_tau, n_omega):
    # mu and the chain norms come from the eigvalsh norm kernel; certify,
    # coherence and audit reports must stay within 2e-15 relative of the
    # dense SVD norms.
    shape, seed = AlgebraShape(dims), 5
    report = random_audit(shape, d, n_tau, n_omega, trials=3, seed=seed)
    for t, record in enumerate(report["records"]):
        rng = np.random.default_rng((seed, t))
        tau = random_parseval_frame(shape, d, n_tau, rng)
        omega = random_parseval_frame(shape, d, n_omega, rng)
        mu = oracle_cross_gram_norms(tau, omega).max()
        x = random_vector(shape, d, rng)
        cert, chain = evaluate(tau, omega, x)
        v0 = oracle_norm(inner_product(x, x))
        assert chain[0][0] == "parseval_support_identity"
        assert abs(chain[0][1] - v0) <= 2e-15 * v0
        for value in (record["mu"], cert.mu, coherence(tau, omega)):
            assert abs(value - mu) <= 2e-15 * mu
        for value in (record["rhs"], cert.rhs):
            assert abs(value - 1.0 / mu**2) <= 2e-15 / mu**2
