"""Acceptance gate: ten criteria, one printed pass/fail line each.

Run with `pytest -v` (the -s capture flag is set in pyproject.toml so the
criterion lines always reach the terminal).  Every tolerance here is pinned;
loosening one is a contract change, not a bug fix.
"""

import math
import time
from itertools import combinations

import numpy as np
import pytest

from conftest import ALGEBRAS
from ncup import (
    AlgebraShape,
    analysis,
    cauchy_schwarz_gap,
    coherence,
    conjecture_audit,
    dirac_comb,
    frame_operator,
    inner_product,
    module_norm,
    ncdft,
    op_apply,
    op_identity,
    op_norm,
    parsevalize,
    pattern_feasible_minor,
    random_audit,
    random_element,
    random_frame,
    random_vector,
    sparsity,
    support_pair_feasible,
    tao_min_sum,
)
from ncup.csmodule import ModuleOperator
from ncup.ncft import fourier_frame, standard_frame
from oracles import oracle_analysis, oracle_inner_product, oracle_op_apply
from oracles import embed_element, op_sub, vec_sub

C = AlgebraShape((1,))

AUDIT_DIMS = (2, 3, 4)
AUDIT_SPLIT = (334, 333, 333)  # 1000 instances per algebra
AUDIT_SEED = 97


def report(num: int, ok: bool, detail: str) -> None:
    status = "PASS" if ok else "FAIL"
    print(f"[criterion {num:02d}] {status}: {detail}")
    assert ok, f"criterion {num}: {detail}"


@pytest.fixture(scope="module")
def main_theorem_audits():
    """Shared instance set for criteria 1 and 2: 1000 Parseval pairs per algebra."""
    t0 = time.perf_counter()
    reports = {}
    for name, shape in ALGEBRAS.items():
        reports[name] = [
            random_audit(
                shape,
                d=d,
                n_tau=d + 1,
                n_omega=d + 2,
                trials=trials,
                seed=AUDIT_SEED,
            )
            for d, trials in zip(AUDIT_DIMS, AUDIT_SPLIT)
        ]
    elapsed = time.perf_counter() - t0
    return reports, elapsed


def test_criterion_01_main_theorem_audit(main_theorem_audits):
    reports, elapsed = main_theorem_audits
    violations = 0
    instances = 0
    additive_failures = 0
    for per_d in reports.values():
        for rep in per_d:
            violations += rep["violations"]
            instances += len(rep["records"])
            additive_failures += sum(
                not rec["additive_holds"] for rec in rep["records"]
            )
    ok = (
        instances == 4000
        and violations == 0
        and additive_failures == 0
        and elapsed < 120.0
    )
    report(
        1,
        ok,
        f"{instances} Parseval-pair instances, {violations} product violations, "
        f"{additive_failures} additive violations, {elapsed:.1f}s (< 120s)",
    )


def test_criterion_02_proof_chain_audit(main_theorem_audits):
    reports, _ = main_theorem_audits
    chain_failures = 0
    instances = 0
    for per_d in reports.values():
        for rep in per_d:
            for rec in rep["records"]:
                instances += 1
                if not rec["chain_holds"]:
                    chain_failures += 1
    ok = instances == 4000 and chain_failures == 0
    report(
        2,
        ok,
        f"every proof-chain inequality holds (tol 1e-9) on {instances} instances, "
        f"{chain_failures} failures",
    )


def test_criterion_03_donoho_stark_comb_equality():
    results = []
    for d in (4, 9, 16):
        spacing = int(np.sqrt(d))
        comb = dirac_comb(C, d, spacing)
        prod = sparsity(comb) * sparsity(ncdft(comb))
        results.append((d, prod))
    ok = all(prod == d for d, prod in results)
    report(3, ok, f"comb support products {results} equal d exactly")


def test_criterion_04_coherence_anchor():
    worst = 0.0
    for d in (2, 3, 4, 8):
        mu = coherence(standard_frame(C, d), fourier_frame(C, d))
        worst = max(worst, abs(mu - 1.0 / np.sqrt(d)))
    ok = worst <= 1e-12
    report(4, ok, f"standard vs Fourier coherence off 1/sqrt(d) by {worst:.2e} (<= 1e-12)")


def test_criterion_05_parsevalization():
    rng = np.random.default_rng(AUDIT_SEED + 1)
    worst_residual = 0.0
    worst_idem = 0.0
    checked = 0
    for shape in ALGEBRAS.values():
        for k in range(500):
            d = 2 + (k % 2)
            frame = random_frame(shape, d, d + 1 + (k % 3), rng)
            fixed = parsevalize(frame)
            residual = op_norm(
                op_sub(frame_operator(fixed), op_identity(shape, d))
            )
            again = parsevalize(fixed)
            idem = max(
                module_norm(vec_sub(a, b))
                for a, b in zip(fixed.vectors, again.vectors)
            )
            worst_residual = max(worst_residual, residual)
            worst_idem = max(worst_idem, idem)
            checked += 1
    ok = checked == 2000 and worst_residual <= 1e-8 and worst_idem <= 1e-8
    report(
        5,
        ok,
        f"{checked} frames: max ||S(parsevalize(F)) - I|| {worst_residual:.2e}, "
        f"max idempotence drift {worst_idem:.2e} (both <= 1e-8)",
    )


def test_criterion_06_cauchy_schwarz_gap():
    rng = np.random.default_rng(AUDIT_SEED + 2)
    worst = np.inf
    checked = 0
    for shape in ALGEBRAS.values():
        for _ in range(1000):
            x = random_vector(shape, 3, rng)
            y = random_vector(shape, 3, rng)
            worst = min(worst, cauchy_schwarz_gap(x, y))
            checked += 1
    ok = checked == 4000 and worst >= -1e-10
    report(6, ok, f"min Cauchy-Schwarz gap over {checked} pairs is {worst:.2e} (>= -1e-10)")


def test_criterion_07_tao_bound():
    exhaustive = {}
    t0 = time.perf_counter()
    for p in (2, 3, 5, 7):
        exhaustive[p] = tao_min_sum(p, mode="exhaustive")["min_sum"]
    p7_time = time.perf_counter() - t0
    sampled = {
        p: tao_min_sum(p, mode="sampled", samples=100_000, seed=AUDIT_SEED)
        for p in (11, 13)
    }
    ok = (
        all(exhaustive[p] == p + 1 for p in (2, 3, 5, 7))
        and p7_time < 60.0
        and all(rep["min_sum"] >= p + 1 for p, rep in sampled.items())
        and all("violating_patterns" not in rep for rep in sampled.values())
    )
    report(
        7,
        ok,
        f"exhaustive min sums {exhaustive} (= p+1, {p7_time:.2f}s < 60s), "
        f"sampled 1e5 pairs p=11,13 found none below "
        f"{ {p: rep['min_sum'] for p, rep in sampled.items()} }",
    )


def test_criterion_08_conjecture_audit():
    failures = []
    witness_sums = {}
    for dims in ((1, 1), (2,)):
        shape = AlgebraShape(dims)
        for p in (2, 3, 5):
            rep = conjecture_audit(shape, p, trials=10_000, seed=AUDIT_SEED)
            witness_sums[(dims, p)] = rep["delta_witness_sum"]
            # every pattern (T, R), |T| >= 1, |R| = p - |Omega| >= |T|, |Omega| >= 1
            patterns = sum(
                math.comb(p, s) * math.comb(p, r) for s in range(1, p) for r in range(s, p)
            )
            if not (
                rep["holds"]
                and rep["patterns_checked"] == patterns
                and rep["vector_violations"] == []
                and rep["pattern_violations"] == []
                and rep["delta_witness_sum"] == p + 1
            ):
                failures.append((dims, p))
    ok = not failures
    report(
        8,
        ok,
        "zero additive-bound violations for C^2 and M2 at p in {2,3,5} "
        f"(1e4 vectors + exhaustive patterns); delta witness sums = p+1; "
        f"failures: {failures}",
    )


def test_criterion_09_feasibility_oracle_agreement():
    disagreements = []
    checked = 0
    for p in (2, 3, 5):
        tau, omega = standard_frame(C, p), fourier_frame(C, p)
        subsets = [
            list(c) for s in range(0, p + 1) for c in combinations(range(p), s)
        ]
        for t_set in subsets:
            for o_set in subsets:
                probe, _ = support_pair_feasible(tau, omega, t_set, o_set)
                minor = pattern_feasible_minor(p, t_set, o_set)
                checked += 1
                if probe != minor:
                    disagreements.append((p, t_set, o_set))
    p = 7
    tau, omega = standard_frame(C, p), fourier_frame(C, p)
    rng = np.random.default_rng(AUDIT_SEED + 3)
    for _ in range(1500):
        s = int(rng.integers(1, p + 1))
        t = int(rng.integers(1, p + 1))
        t_set = sorted(rng.choice(p, size=s, replace=False).tolist())
        o_set = sorted(rng.choice(p, size=t, replace=False).tolist())
        probe, _ = support_pair_feasible(tau, omega, t_set, o_set)
        minor = pattern_feasible_minor(p, t_set, o_set)
        checked += 1
        if probe != minor:
            disagreements.append((p, t_set, o_set))
    ok = not disagreements
    report(
        9,
        ok,
        f"kernel probe and DFT-minor criterion agree on {checked} support pairs "
        f"at p <= 7; disagreements: {disagreements[:3]}",
    )


def test_criterion_10_flattening_oracle():
    rng = np.random.default_rng(AUDIT_SEED + 4)
    worst = 0.0
    checked = 0
    for shape in ALGEBRAS.values():
        for k in range(200):
            d = 2 + (k % 3)
            x = random_vector(shape, d, rng)
            y = random_vector(shape, d, rng)
            grid = [
                [random_element(shape, rng) for _ in range(d)] for _ in range(d)
            ]
            m = ModuleOperator.from_entries(grid)
            frame = random_frame(shape, d, d + 1, rng)

            gap = np.abs(
                embed_element(inner_product(x, y)) - oracle_inner_product(x, y)
            ).max()
            worst = max(worst, gap)

            lib = op_apply(m, x)
            dense = oracle_op_apply(m, x)
            pos = 0
            for e in lib.entries:
                blk = embed_element(e)
                n = blk.shape[0]
                gap = np.abs(blk - dense[:, pos : pos + n]).max()
                worst = max(worst, gap)
                pos += n

            coeffs = analysis(frame, x)
            for n_idx, dense_c in enumerate(oracle_analysis(frame, x)):
                gap = np.abs(
                    embed_element(coeffs.entry(n_idx)) - dense_c
                ).max()
                worst = max(worst, gap)
            checked += 1
    ok = checked == 800 and worst <= 1e-12
    report(
        10,
        ok,
        f"block paths match dense matmul oracle on {checked} cases, "
        f"max abs deviation {worst:.2e} (<= 1e-12)",
    )
