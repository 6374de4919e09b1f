"""Support-size uncertainty certificates for pairs of Parseval frames.

For modular Parseval frames tau, omega in A^d and nonzero x, the number of
effectively nonzero analysis coefficients against each frame obeys

    s_tau * s_omega >= 1 / mu**2,    mu = max ||<tau_n, omega_m>||,

together with the additive consequence ((s_tau + s_omega)/2)**2 >= 1/mu**2.
evaluate checks both on a concrete instance and replays the inequality
chain behind the bound step by step (certify and proof_chain_check return
one half each), and support_pair_feasible is an independent linear-algebra
oracle deciding whether a given pair of coefficient supports is achievable
at all, by a rank test on the frames' stacked constraint rows block by block.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass

import numpy as np

from .algebra import _as_count, _as_seed, _entry_norms
from .csmodule import ModuleVector, _check_same_module, basis_vector, module_norm, random_vector
from .errors import InputError, NonParsevalFrameError
from .frames import (
    PARSEVAL_TOL,
    SUPPORT_REL_TOL,
    ModularFrame,
    _check_rel_tol,
    _cross_grams,
    _numeric_rank,
    _validate_indices,
    analysis,
    is_parseval,
    random_parseval_frame,
    support,
)

__all__ = [
    "UncertaintyCertificate",
    "evaluate",
    "certify",
    "proof_chain_check",
    "support_pair_feasible",
    "random_audit",
]

# Inequalities count as holding down to this slack: supports are integers
# but 1/mu**2 carries floating error.
SLACK_TOL = 1e-9

# Vectors at or below this module norm count as zero and are rejected.
ZERO_VECTOR_TOL = 1e-12

# Relative tolerance for each replayed step of the inequality chain.
CHAIN_TOL = 1e-9

# Constraint-stack entries per chunk of _deficient_blocks, counted over all
# blocks, which bounds the SVD stacks of one chunk (720 scalar patterns in
# conjecture's largest group at p = 13, |T| = |Omega| = 6; one stack of
# that group's 17,424 classes raised the process's max RSS by 4.4 MiB).
_STACK_CHUNK = 1 << 17


@dataclass(frozen=True)
class UncertaintyCertificate:
    """Both uncertainty inequalities evaluated on one instance."""

    s_tau: int
    s_omega: int
    mu: float
    product_lhs: int
    additive_lhs: float
    rhs: float
    product_holds: bool
    additive_holds: bool
    slack: float

    def to_dict(self) -> dict:
        return asdict(self)


def _require_parseval(frame: ModularFrame, name: str) -> None:
    if not is_parseval(frame):
        raise NonParsevalFrameError(
            f"{name} frame is not Parseval at tolerance {PARSEVAL_TOL:g}; "
            f"run parsevalize first"
        )


def _require_nonzero(x: ModuleVector) -> None:
    if module_norm(x) <= ZERO_VECTOR_TOL:
        raise InputError("x is numerically zero; the bound excludes x = 0")


def evaluate(
    tau: ModularFrame,
    omega: ModularFrame,
    x: ModuleVector,
    rel_tol: float = SUPPORT_REL_TOL,
) -> tuple[UncertaintyCertificate, list[tuple[str, float, float, bool]]]:
    """Certificate and replayed proof chain for one instance (tau, omega, x).

    Both frames must pass the Parseval check at 1e-8 and x must be
    nonzero; violations raise NonParsevalFrameError / InputError.  The
    checks, both analyses, both supports and the cross Gram are computed
    once and shared by the two results; certify and proof_chain_check
    return one half each.

    With T, Omega the supports of the two coefficient sequences, u the
    omega-coefficients of x restricted to Omega, and w_n the cross
    coefficients (<tau_n, omega_m>)_{m in Omega}, the chain is

        ||x||^2 = ||sum_{n in T} <x,tau_n><tau_n,x>||        (tau Parseval)
                = ||sum_{n in T} <u,w_n><w_n,u>||            (omega Parseval)
               <= (sum_{n in T} ||<w_n,w_n>||) ||<u,u>||     (Cauchy-Schwarz)
               <= (sum_{n,m} ||<tau_n,omega_m>||^2) ||<u,u>||
               <= mu^2 |T| |Omega| ||<u,u>||
               <= mu^2 |T| |Omega| ||x||^2,

    which forces |T| |Omega| >= 1/mu^2.  The chain is one (step_name, lhs,
    rhs, holds) tuple per link; equalities and inequalities are tested
    with relative tolerance CHAIN_TOL.
    """
    _check_rel_tol(rel_tol)
    _require_parseval(tau, "first (tau)")
    _require_parseval(omega, "second (omega)")
    _require_nonzero(x)

    coeff_tau = analysis(tau, x)
    coeff_omega = analysis(omega, x)
    supp_t = support(coeff_tau, rel_tol=rel_tol)
    supp_o = support(coeff_omega, rel_tol=rel_tol)
    grams = _cross_grams(tau, omega)
    cross = _entry_norms(grams)
    mu = float(cross.max())
    if mu <= 0.0:
        raise InputError("coherence is zero; frame pair is degenerate")

    s_tau, s_omega = len(supp_t), len(supp_o)
    rhs = 1.0 / mu**2
    product_lhs = s_tau * s_omega
    additive_lhs = ((s_tau + s_omega) / 2.0) ** 2
    cert = UncertaintyCertificate(
        s_tau=s_tau,
        s_omega=s_omega,
        mu=mu,
        product_lhs=product_lhs,
        additive_lhs=additive_lhs,
        rhs=rhs,
        product_holds=bool(product_lhs >= rhs - SLACK_TOL),
        additive_holds=bool(additive_lhs >= rhs - SLACK_TOL),
        slack=float(product_lhs - rhs),
    )

    norm_stacks, gram_w = [], []
    with np.errstate(over="ignore", invalid="ignore"):
        for n, xm, ct, co, g in zip(
            x.shape.block_dims, x.mats, coeff_tau.mats, coeff_omega.mats, grams
        ):
            # a = tau-coefficients on T, u = omega-coefficients on Omega, as (n, |.| n)
            a = ct[:, _block_cols(supp_t, n)]
            u = co[:, _block_cols(supp_o, n)]
            # row block k of w is w_k = (<tau_k, omega_m>)_{m in Omega}, k in T
            w = g[np.ix_(supp_t, supp_o)].transpose(0, 2, 1, 3).reshape(len(supp_t) * n, -1)
            q = u @ w.conj().T  # column block k of q is q_k = <u, w_k>
            # <x,x>, sum_T <x,tau_n><tau_n,x>, sum_T <u,w_n><w_n,u> and <u,u>
            norm_stacks.append(np.stack([m @ m.conj().T for m in (xm, a, q, u)]))
            w_rows = w.reshape(len(supp_t), n, -1)
            gram_w.append(w_rows @ w_rows.conj().transpose(0, 2, 1))
    if not all(np.isfinite(s).all() for s in norm_stacks):
        raise InputError("Gram products overflow: the vector's entries are too large")
    v0, v1, v1x, norm_g = _entry_norms(norm_stacks).tolist()
    v2 = float(_entry_norms(gram_w).sum() * norm_g)
    v3 = float((cross[np.ix_(supp_t, supp_o)] ** 2).sum() * norm_g)
    v4 = mu**2 * product_lhs * norm_g
    v5 = mu**2 * product_lhs * v0

    def eq(a: float, b: float) -> bool:
        return abs(a - b) <= CHAIN_TOL * max(1.0, abs(a), abs(b))

    def le(a: float, b: float) -> bool:
        return a <= b + CHAIN_TOL * max(1.0, abs(a), abs(b))

    chain = [
        ("parseval_support_identity", v0, v1, eq(v0, v1)),
        ("dual_frame_expansion", v1, v1x, eq(v1, v1x)),
        ("cauchy_schwarz", v1x, v2, le(v1x, v2)),
        ("entrywise_norm_bound", v2, v3, le(v2, v3)),
        ("coherence_sup", v3, v4, le(v3, v4)),
        ("support_count_parseval", v4, v5, le(v4, v5)),
    ]
    return cert, chain


def certify(
    tau: ModularFrame,
    omega: ModularFrame,
    x: ModuleVector,
    rel_tol: float = SUPPORT_REL_TOL,
) -> UncertaintyCertificate:
    """Evaluate both uncertainty inequalities for x against the frame pair.

    The certificate half of evaluate.  A false product_holds on valid
    input signals an implementation bug, not new mathematics.
    """
    return evaluate(tau, omega, x, rel_tol)[0]


def proof_chain_check(
    tau: ModularFrame,
    omega: ModularFrame,
    x: ModuleVector,
    rel_tol: float = SUPPORT_REL_TOL,
) -> list[tuple[str, float, float, bool]]:
    """Replay the chain of norms behind the product bound on one instance.

    The chain half of evaluate, which documents the six steps.
    """
    return evaluate(tau, omega, x, rel_tol)[1]


def _block_cols(indices, n: int) -> np.ndarray:
    """Indices of the n-wide column (or row) blocks numbered by indices."""
    return (np.asarray(indices, dtype=int)[:, None] * n + np.arange(n)).ravel()


def support_pair_feasible(
    tau: ModularFrame,
    omega: ModularFrame,
    support_t,
    support_omega,
) -> tuple[bool, ModuleVector | None]:
    """Can a nonzero x have tau-support inside T and omega-support inside Omega?

    In block b the coefficient <x, tau_n> is X_b T_b[n]^H, with T_b[n] the
    n-th row block of the frame matrix, so the constraints <x, tau_n> = 0
    (n outside T) and <x, omega_m> = 0 (m outside Omega) split by block and
    by row of X_b: each row must lie in the kernel of the stacked rows
    T_b[n], W_b[m].  A nonzero x exists iff some block's stack has rank
    below d*n, with singular values at or below RANK_TOL times the largest
    one over all blocks counting as zero.  Returns the verdict and, when
    feasible, a unit-module-norm witness: the last right singular vector of
    that block's stack, placed in row 0 of X_b.
    """
    _check_same_module(tau, omega)
    supp_t = _validate_indices(tau.count, support_t, "support")
    supp_o = _validate_indices(omega.count, support_omega, "fourier support")
    comp_t = np.setdiff1d(np.arange(tau.count), supp_t)[None]
    comp_o = np.setdiff1d(np.arange(omega.count), supp_o)[None]
    shape, d = tau.shape, tau.d
    if not comp_t.size and not comp_o.size:
        return True, basis_vector(shape, d, 0)

    deficient = _deficient_blocks(tau, omega, comp_t, comp_o)[0]
    if not deficient.any():
        return False, None
    b = int(np.argmax(deficient))
    stack = _constraint_stack(tau.mats[b], omega.mats[b], shape.block_dims[b], comp_t, comp_o)
    mats = [np.zeros((m, d * m), dtype=np.complex128) for m in shape.block_dims]
    mats[b][0] = np.linalg.svd(stack[0])[2][-1]
    return True, ModuleVector._from_mats(shape, d, mats)


def _deficient_blocks(
    tau: ModularFrame, omega: ModularFrame, comp_t: np.ndarray, comp_o: np.ndarray
) -> np.ndarray:
    """Per pattern and block, is that block's constraint stack rank deficient?

    Pattern i excludes the tau indices comp_t[i] and the omega indices
    comp_o[i] (arrays of shape (m, a) and (m, c), a + c >= 1).  The patterns
    are decided in chunks of about _STACK_CHUNK stack entries, at least one
    pattern each, by one stacked SVD per block; the rank cutoff is RANK_TOL
    times the pattern's largest singular value over all blocks.  Returns an
    (m, B) mask; support_pair_feasible's verdict is its row's any().
    """
    dims = tau.shape.block_dims
    deficient = np.empty((len(comp_t), len(dims)), dtype=bool)
    per_pattern = (comp_t.shape[1] + comp_o.shape[1]) * tau.d * tau.shape.dim
    step = max(1, _STACK_CHUNK // per_pattern)
    for start in range(0, len(comp_t), step):
        part_t, part_o = comp_t[start : start + step], comp_o[start : start + step]
        svs = [
            np.linalg.svd(_constraint_stack(t, w, n, part_t, part_o), compute_uv=False)
            for n, t, w in zip(dims, tau.mats, omega.mats)
        ]
        ref = np.max([sv[:, :1] for sv in svs], axis=0)
        deficient[start : start + step] = np.stack(
            [_numeric_rank(sv, ref) < tau.d * n for n, sv in zip(dims, svs)], axis=1
        )
    return deficient


def _constraint_stack(t: np.ndarray, w: np.ndarray, n: int, comp_t, comp_o) -> np.ndarray:
    """Row blocks comp_t[i] of t over row blocks comp_o[i] of w: (m, (a + c) n, d n)."""
    m = len(comp_t)
    return np.concatenate(
        [
            mat.reshape(-1, n, mat.shape[1])[idx].reshape(m, -1, mat.shape[1])
            for mat, idx in ((t, comp_t), (w, comp_o))
        ],
        axis=1,
    )


def random_audit(
    shape,
    d: int,
    n_tau: int,
    n_omega: int,
    trials: int,
    seed: int = 0,
    rel_tol: float = SUPPORT_REL_TOL,
) -> dict:
    """Certify `trials` random Parseval pairs with random nonzero vectors.

    Each trial draws its own generator from (seed, trial), so every trial
    is reproducible on its own and so is the whole report.  The
    report counts violations (the bound guarantees zero), tracks the
    minimum slack and the tightest trial, and keeps one record per trial.
    """
    trials = _as_count(trials, "trials")
    _check_rel_tol(rel_tol)
    seed = _as_seed(seed)

    records = []
    for t in range(trials):
        rng = np.random.default_rng((seed, t))
        tau = random_parseval_frame(shape, d, n_tau, rng)
        omega = random_parseval_frame(shape, d, n_omega, rng)
        x = random_vector(shape, d, rng)
        while module_norm(x) <= ZERO_VECTOR_TOL:
            x = random_vector(shape, d, rng)
        cert, chain = evaluate(tau, omega, x, rel_tol=rel_tol)
        record = {"trial": t, **cert.to_dict()}
        record["chain_holds"] = all(holds for *_, holds in chain)
        failing = [name for name, _, _, holds in chain if not holds]
        if failing:
            record["failing_steps"] = failing
        records.append(record)

    violations = sum(
        1
        for r in records
        if not (r["product_holds"] and r["additive_holds"] and r["chain_holds"])
    )
    slacks = [r["slack"] for r in records]
    tightest = int(np.argmin(slacks))
    return {
        "algebra": list(shape.block_dims),
        "d": int(d),
        "n_tau": int(n_tau),
        "n_omega": int(n_omega),
        "trials": trials,
        "seed": seed,
        "rel_tol": float(rel_tol),
        "slack_tol": SLACK_TOL,
        "violations": int(violations),
        "min_slack": float(min(slacks)),
        "tightest_trial": tightest,
        "records": records,
    }
