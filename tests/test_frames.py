import json

import numpy as np
import pytest

from ncup import (
    AlgebraShape,
    InputError,
    ModularFrame,
    ModuleOperator,
    ModuleVector,
    NonParsevalFrameError,
    NotAFrameError,
    analysis,
    basis_vector,
    certify,
    coherence,
    cross_gram_norms,
    frame_operator,
    identity,
    inner_product,
    is_parseval,
    module_norm,
    norm,
    op_apply,
    op_identity,
    op_norm,
    parsevalize,
    random_element,
    random_frame,
    random_parseval_frame,
    random_vector,
    scale,
    sparsity,
    sub,
    support,
    synthesis,
)
from ncup import algebra, cli, csmodule, frames
from ncup.ncft import fourier_frame, standard_frame

from oracles import (
    embed_frame,
    embed_operator,
    embed_vector,
    module_scale,
    op_sub,
    oracle_cross_gram_norms,
    oracle_frame_operator,
    oracle_norm,
    oracle_parseval_residual,
    oracle_parsevalize,
    vec_add,
    vec_scale,
    vec_sub,
)

C = AlgebraShape((1,))
M2 = AlgebraShape((2,))
LARGE = AlgebraShape((4, 4, 8))


def scalar_vector(values):
    return ModuleVector(C, len(values), [np.array(values, complex).reshape(-1, 1, 1)])


def test_analysis_standard_basis_gives_coordinates(shape, rng):
    d = 3
    frame = standard_frame(shape, d)
    x = random_vector(shape, d, rng)
    coeffs = analysis(frame, x)
    for i in range(d):
        assert norm(sub(coeffs.entry(i), x.entry(i))) < 1e-14


def test_analysis_fourier_d2():
    frame = fourier_frame(C, 2)
    x = scalar_vector([1.0, 0.0])
    coeffs = analysis(frame, x)
    for m in range(2):
        assert abs(coeffs.entry(m).blocks[0][0, 0] - 1 / np.sqrt(2)) < 1e-14


def test_analysis_redundant_frame():
    e0 = basis_vector(M2, 2, 0)
    frame = ModularFrame.from_vectors([e0, e0])
    x = random_vector(M2, 2, np.random.default_rng(1))
    coeffs = analysis(frame, x)
    assert norm(sub(coeffs.entry(0), x.entry(0))) < 1e-14
    assert norm(sub(coeffs.entry(1), x.entry(0))) < 1e-14


@pytest.mark.parametrize(
    "vectors, message",
    [
        ([1], "frame vector 0 is not a module vector"),
        ([basis_vector(M2, 2, 0), np.zeros(2)], "frame vector 1 is not a module vector"),
    ],
)
def test_frame_vectors_are_type_checked_before_their_shape(vectors, message):
    with pytest.raises(InputError) as info:
        ModularFrame.from_vectors(vectors)
    assert str(info.value) == message


def test_analysis_shape_mismatch():
    with pytest.raises(InputError):
        analysis(standard_frame(C, 3), basis_vector(C, 2, 0))


def test_synthesis_reconstruction(shape, rng):
    d = 3
    frame = random_parseval_frame(shape, d, 5, rng)
    x = random_vector(shape, d, rng)
    back = synthesis(frame, analysis(frame, x))
    assert module_norm(vec_sub(back, x)) <= 1e-10


def test_synthesis_delta_sequence(shape):
    d = 2
    frame = standard_frame(shape, d)
    elems = [identity(shape) if n == 1 else scale(0.0, identity(shape)) for n in range(d)]
    delta = ModuleVector.from_entries(elems)
    out = synthesis(frame, delta)
    assert module_norm(vec_sub(out, frame.vector(1))) < 1e-14


def test_synthesis_adjointness(shape, rng):
    d = 3
    frame = random_frame(shape, d, 4, rng)
    x = random_vector(shape, d, rng)
    a = ModuleVector.from_entries(
        [random_element(shape, rng) for _ in range(4)]
    )
    lhs = inner_product(analysis(frame, x), a)
    rhs = inner_product(x, synthesis(frame, a))
    assert norm(sub(lhs, rhs)) <= 1e-10 * (1 + norm(lhs))


def test_synthesis_count_mismatch(shape):
    frame = standard_frame(shape, 2)
    coeffs = ModuleVector.from_entries([identity(shape)] * 3)
    with pytest.raises(InputError):
        synthesis(frame, coeffs)


def test_frame_operator_standard_is_identity(shape):
    d = 3
    s = frame_operator(standard_frame(shape, d))
    assert op_norm(op_sub(s, op_identity(shape, d))) < 1e-14


def test_frame_operator_redundant_diag():
    e0 = basis_vector(C, 2, 0)
    e1 = basis_vector(C, 2, 1)
    s = frame_operator(ModularFrame.from_vectors([e0, e0, e1]))
    assert abs(s.entry(0, 0).blocks[0][0, 0] - 2.0) < 1e-14
    assert abs(s.entry(1, 1).blocks[0][0, 0] - 1.0) < 1e-14
    assert abs(s.entry(0, 1).blocks[0][0, 0]) < 1e-14


def test_frame_operator_union_of_scaled_bases(shape):
    d = 2
    half = [vec_scale(1 / np.sqrt(2), v) for v in standard_frame(shape, d).vectors]
    frame = ModularFrame.from_vectors(half + half)
    assert frames._parseval_residual(frame) <= 1e-12


def test_frame_operator_matches_direct_sum(shape, rng):
    d = 3
    frame = random_frame(shape, d, 4, rng)
    s = frame_operator(frame)
    x = random_vector(shape, d, rng)
    direct = None
    for v in frame.vectors:
        term = module_scale(inner_product(x, v), v)
        direct = term if direct is None else vec_add(direct, term)
    assert module_norm(vec_sub(op_apply(s, x), direct)) <= 1e-10


def test_is_parseval_examples():
    e0 = basis_vector(C, 2, 0)
    e1 = basis_vector(C, 2, 1)
    assert is_parseval(ModularFrame.from_vectors([e0, e1]))
    assert not is_parseval(ModularFrame.from_vectors([e0, e0, e1]))
    scaled = [vec_scale(1 / np.sqrt(2), e0), vec_scale(1 / np.sqrt(2), e0), e1]
    assert frames._parseval_residual(ModularFrame.from_vectors(scaled)) <= 1e-12


def test_is_parseval_default_matches_certify():
    # S = (1 + 5e-9) I: within PARSEVAL_TOL of the identity, outside 1e-10
    shape = AlgebraShape((1, 2))
    std = standard_frame(shape, 3)
    frame = ModularFrame(shape, 3, [np.sqrt(1 + 5e-9) * blk for blk in std.blocks])
    assert is_parseval(frame)
    assert not frames._parseval_residual(frame) <= 1e-10
    assert ModularFrame.from_dict(frame.to_dict()).to_dict()["parseval"] is True
    assert certify(frame, frame, basis_vector(shape, 3, 0)).product_holds


def test_parseval_residual_measured_once(monkeypatch, rng):
    calls = []
    original = frames.frame_operator

    def counted(frame):
        calls.append(frame)
        return original(frame)

    monkeypatch.setattr(frames, "frame_operator", counted)
    raw = random_frame(M2, 3, 5, rng)
    fixed = parsevalize(raw)
    assert len(calls) == 2  # S of the input, then the residual of the output
    payload = fixed.to_dict()
    assert payload["parseval"] is True and len(calls) == 2
    loaded = ModularFrame.from_dict(payload)
    assert len(calls) == 3  # the claim is verified on load
    assert is_parseval(loaded) and len(calls) == 3


def count_norm_kernel(monkeypatch):
    """The stack shapes of each call of the norm kernel from frames from now on."""
    calls, kernel = [], frames._entry_norms

    def counted(stacks):
        calls.append([np.shape(s) for s in stacks])
        return kernel(stacks)

    monkeypatch.setattr(frames, "_entry_norms", counted)
    return calls


def scaled_identity_frame(eps):
    """The standard frame of LARGE^16 scaled so that S = (1 + eps) I."""
    return ModularFrame(LARGE, 16, [np.sqrt(1 + eps) * blk for blk in standard_frame(LARGE, 16).blocks])


def test_parsevalized_frames_decide_without_eigvalsh(monkeypatch):
    # Parsevalized (4,4,8), d = 16 frames have ||S - I||_F near 1e-14, far
    # inside the tolerance: the Frobenius bound decides them, and their
    # JSON round trip, which re-verifies the claim, without eigvalsh.
    def refuse(*args, **kwargs):
        raise AssertionError("eigvalsh called")

    rng = np.random.default_rng(7)
    monkeypatch.setattr(np.linalg, "eigvalsh", refuse)
    made = [random_parseval_frame(LARGE, 16, 24, rng) for _ in range(2)]
    loaded = [ModularFrame.from_dict(json.loads(json.dumps(f.to_dict()))) for f in made]
    assert all(is_parseval(f) for f in made + loaded)
    monkeypatch.undo()
    for frame in made + loaded:
        residual = frames._parseval_residual(frame)
        assert oracle_parseval_residual(frame) <= residual <= frames.PARSEVAL_TOL * (1 - 2.0**-20)


@pytest.mark.parametrize("eps, parseval", [(5e-9, True), (2e-8, False)])
def test_scaled_identity_is_decided_by_eigvalsh(monkeypatch, eps, parseval):
    # S = (1 + eps) I on (4,4,8)^16: ||D||_F = eps sqrt(128), 5.7e-8 at
    # eps = 5e-9, is past the tolerance, so the operator norm ||D||_2 = eps
    # decides, from one norm kernel call with every block's defect (whose
    # 64- and 128-row matrices take the kernel's eigvalsh).
    calls = count_norm_kernel(monkeypatch)
    frame = scaled_identity_frame(eps)
    assert is_parseval(frame) is parseval
    assert calls == [[(1, 64, 64), (1, 64, 64), (1, 128, 128)]]
    assert frames._parseval_residual(frame) == pytest.approx(eps, rel=1e-6)
    payload = frame.to_dict()
    payload["parseval"] = True
    if parseval:
        assert ModularFrame.from_dict(payload).to_dict()["parseval"] is True
    else:
        with pytest.raises(InputError) as exc:
            ModularFrame.from_dict(payload)
        assert str(exc.value) == (
            "frame: file claims a Parseval frame but the frame operator "
            "deviates from the identity by more than 1e-08"
        )
    # A normalization that leaves S as it is: parsevalize measures its output.
    monkeypatch.setattr(frames, "op_inv_sqrt", lambda s: op_identity(s.shape, s.d))
    if parseval:
        assert is_parseval(parsevalize(frame))
    else:
        with pytest.raises(NonParsevalFrameError) as exc:
            parsevalize(frame)
        expected = f"normalization left a frame-operator residual of {oracle_parseval_residual(frame):.3e}"
        assert str(exc.value) == expected == "normalization left a frame-operator residual of 2.000e-08"


def perturbed_frame(frame, perturbations):
    """frame with frame operator I + E per block, E Hermitian: T (I + E)^(1/2) for its Parseval T."""
    mats = []
    for t, e in zip(frame.mats, perturbations):
        vals, vecs = np.linalg.eigh(np.eye(len(e)) + e)
        mats.append(t @ ((vecs * np.sqrt(vals)) @ vecs.conj().T))
    return ModularFrame._from_mats(frame.shape, frame.d, frame.count, mats)


def hermitian_perturbation(rng, size, top, kind):
    """Hermitian matrix of operator norm top: one, a few, or a spread of nonzero eigenvalues."""
    u = np.linalg.qr(rng.standard_normal((size, size)) + 1j * rng.standard_normal((size, size)))[0]
    vals = np.zeros(size)
    if kind == "spread":
        vals = rng.uniform(-top, top, size)
    count = {"one": 1, "few": min(3, size), "spread": 1}[kind]
    vals[:count] = top * rng.choice([-1.0, 1.0], count)
    return (u * vals) @ u.conj().T


@pytest.mark.parametrize("dims, d, count", [((1,), 3, 5), ((1, 2), 3, 5), ((2,), 2, 3), ((4, 4, 8), 16, 24)])
def test_parseval_verdicts_match_eigvalsh_oracle(monkeypatch, dims, d, count):
    # ||D||_2 spread log-uniformly over [tol/10, 10 tol], carried by one
    # block and the other blocks below it: the residual must give the
    # verdict of eigvalsh on the dense S - I, and the Frobenius bound
    # decide, without the norm kernel, only Parseval frames.
    rng, shape, tol = np.random.default_rng(sum(dims) + d), AlgebraShape(dims), frames.PARSEVAL_TOL
    base = random_parseval_frame(shape, d, count, rng)
    decided = {True: 0, False: 0}
    for trial in range(6 if d == 16 else 60):
        top, peak_block, kind = tol * 10 ** rng.uniform(-1, 1), rng.integers(len(dims)), ("one", "few", "spread")[trial % 3]
        perturbations = [
            hermitian_perturbation(rng, d * n, top * (1 if b == peak_block else rng.uniform(0, 1)), kind)
            for b, n in enumerate(dims)
        ]
        frame = perturbed_frame(base, perturbations)
        oracle = oracle_parseval_residual(frame)
        calls = count_norm_kernel(monkeypatch)
        residual = frames._parseval_residual(frame)
        monkeypatch.undo()
        assert is_parseval(frame) == (oracle <= tol), (top, kind, residual, oracle)
        # S's rounding (about 1e-16 per entry) moves ||D|| by about 1e-8 of itself
        assert residual >= oracle * (1 - 1e-6)
        if calls:
            assert calls == [[(1, d * n, d * n) for n in dims]]
            assert residual == pytest.approx(oracle, rel=1e-6)
        else:
            assert residual <= tol
        decided[not calls] += 1
    assert decided[True] and decided[False]


HADAMARD4 = np.array([[1, 1, 1, 1], [1, -1, 1, -1], [1, 1, -1, -1], [1, -1, -1, 1]], dtype=complex)


@pytest.mark.parametrize("big", [np.eye(4), HADAMARD4], ids=["diagonal", "hadamard"])
def test_non_finite_frame_operator_residual_stays_infinite(big):
    # Block 1's S overflows: to inf + nan j on the diagonal, and to inf - inf
    # off it for the Hadamard rows; its mass is NaN.  Block 0 is exact, so
    # its Frobenius bound alone would pass.
    frame = ModularFrame._from_mats(AlgebraShape((1, 2)), 2, 2, [np.eye(2, dtype=complex), 1e200 * big])
    assert frames._parseval_residual(frame) == np.inf
    assert not is_parseval(frame)


def test_overflowing_defect_mass_takes_the_exact_path(monkeypatch):
    # S = 1e160 I in block 1 is finite, but its mass 4e320 is not: the norm kernel measures it.
    calls = count_norm_kernel(monkeypatch)
    frame = ModularFrame._from_mats(AlgebraShape((1, 2)), 2, 2, [np.eye(2, dtype=complex), 1e80 * np.eye(4)])
    assert frames._parseval_residual(frame) == pytest.approx(1e160)
    assert calls == [[(1, 2, 2), (1, 4, 4)]]


def test_rank_one_frame_with_finite_overflowing_hermitian_sum_is_not_parseval():
    # S = 1.44e308 everywhere is finite, S + S^* is not: D is taken halves
    # first, and its norm, past the float range, is an infinite residual.
    frame = ModularFrame(AlgebraShape((1,)), 2, [np.full((1, 2, 1, 1), 1.2e154)])
    assert np.isfinite(frame_operator(frame).mats[0]).all()
    assert not frames._parseval_residual(frame) <= frames.PARSEVAL_TOL
    assert not is_parseval(frame)
    payload = frame.to_dict()
    assert payload["parseval"] is False
    payload["parseval"] = True
    with pytest.raises(InputError, match="file claims a Parseval frame"):
        ModularFrame.from_dict(payload)


def test_parseval_definition_equivalence(shape, rng):
    d = 3
    parseval = random_parseval_frame(shape, d, 5, rng)
    crooked = random_frame(shape, d, 5, rng)
    for frame, expected in ((parseval, True), (crooked, False)):
        x = random_vector(shape, d, rng)
        total = None
        for v in frame.vectors:
            term = module_scale(inner_product(x, v), v)
            total = term if total is None else vec_add(total, term)
        defect = norm(sub(inner_product(x, x), inner_product(total, x)))
        close = defect <= 1e-8 * max(1.0, module_norm(x) ** 2)
        assert close == expected == is_parseval(frame)


def test_parsevalize_fixed_point(shape, rng):
    frame = random_parseval_frame(shape, 2, 4, rng)
    again = parsevalize(frame)
    worst = max(
        module_norm(vec_sub(a, b)) for a, b in zip(frame.vectors, again.vectors)
    )
    assert worst <= 1e-10


def test_parsevalize_scalar_example():
    frame = ModularFrame.from_vectors([vec_scale(2.0, basis_vector(C, 1, 0))])
    fixed = parsevalize(frame)
    assert abs(fixed.vector(0).blocks[0][0, 0, 0] - 1.0) < 1e-14


def test_parsevalize_redundant_example():
    e0 = basis_vector(C, 2, 0)
    e1 = basis_vector(C, 2, 1)
    fixed = parsevalize(ModularFrame.from_vectors([e0, e0, e1]))
    r = 1 / np.sqrt(2)
    assert abs(fixed.vector(0).blocks[0][0, 0, 0] - r) < 1e-14
    assert abs(fixed.vector(1).blocks[0][0, 0, 0] - r) < 1e-14
    assert abs(fixed.vector(2).blocks[0][1, 0, 0] - 1.0) < 1e-14


def test_parsevalize_rejects_non_spanning(shape):
    frame = ModularFrame.from_vectors([basis_vector(shape, 3, 0)])
    with pytest.raises(NotAFrameError):
        parsevalize(frame)


def test_coherence_examples():
    std4 = standard_frame(C, 4)
    assert abs(coherence(std4, std4) - 1.0) < 1e-14
    assert abs(coherence(std4, fourier_frame(C, 4)) - 0.5) < 1e-14
    one = ModularFrame.from_vectors([basis_vector(M2, 1, 0)])
    assert abs(coherence(one, one) - 1.0) < 1e-14


def test_coherence_symmetry(shape, rng):
    f = random_frame(shape, 3, 4, rng)
    g = random_frame(shape, 3, 5, rng)
    assert abs(coherence(f, g) - coherence(g, f)) < 1e-12


def test_parseval_coherence_bound(shape, rng):
    for _ in range(10):
        f = random_parseval_frame(shape, 2, 4, rng)
        g = random_parseval_frame(shape, 2, 5, rng)
        assert coherence(f, g) <= 1.0 + 1e-10


def test_support_examples():
    std = standard_frame(C, 4)
    coeffs = analysis(std, basis_vector(C, 4, 0))
    assert support(coeffs) == [0]
    assert sparsity(coeffs) == 1
    comb = scalar_vector([1.0, 0.0, 1.0, 0.0])
    assert sparsity(analysis(std, comb)) == 2
    near = ModuleVector.from_entries(
        [identity(C), scale(1e-12, identity(C)), scale(0.0, identity(C))]
    )
    assert sparsity(near, rel_tol=1e-8) == 1
    assert support(near, rel_tol=1e-8) == [0]


def test_support_rejects_rel_tol_outside_unit_interval(shape, rng):
    x = random_vector(shape, 4, rng)
    for bad in (1.0, 5.0, -0.1, float("nan")):
        with pytest.raises(InputError, match="rel_tol"):
            support(x, rel_tol=bad)
        with pytest.raises(InputError, match="rel_tol"):
            sparsity(x, rel_tol=bad)
    assert support(x, rel_tol=0.0) == [0, 1, 2, 3]


def test_support_of_zero_sequence(shape):
    coeffs = ModuleVector.from_entries(
        [scale(0.0, identity(shape)) for _ in range(3)]
    )
    assert support(coeffs) == []
    assert sparsity(coeffs) == 0


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf, complex(0.0, np.inf)])
def test_entry_norms_reject_non_finite(shape, bad):
    blocks = [np.ones((3, n, n), dtype=complex) for n in shape.block_dims]
    blocks[-1][1, 0, -1] = bad
    x = ModuleVector(shape, 3, blocks)
    operator = ModuleOperator(shape, 3, [np.stack([blk] * 3) for blk in blocks])
    calls = (support, sparsity, module_norm, lambda v: norm(v.entry(1)), lambda v: op_norm(operator))
    for call in (*calls, lambda v: frames._entry_norms(v.blocks)):
        with pytest.raises(InputError, match="finite"):
            call(x)
    frame = ModularFrame(shape, 1, [blk[:, None] for blk in blocks])
    with pytest.raises(InputError):
        cross_gram_norms(frame, standard_frame(shape, 1))


@pytest.mark.parametrize("magnitude", [1e300, 1e-300])
def test_entry_norms_match_svd_oracle_at_extreme_scales(shape, rng, magnitude):
    x = vec_scale(magnitude, random_vector(shape, 6, rng))
    expected = np.array([oracle_norm(e) for e in x.entries])
    assert np.allclose(frames._entry_norms(x.blocks), expected, rtol=2e-15, atol=0.0)
    assert support(x) == list(range(6))
    root = np.sqrt(magnitude)  # cross inner products of size ~magnitude
    tau = random_frame(shape, 2, 3, rng)
    omega = random_frame(shape, 2, 4, rng)
    tau, omega = (
        ModularFrame(shape, 2, [root * blk for blk in f.blocks]) for f in (tau, omega)
    )
    assert np.allclose(
        cross_gram_norms(tau, omega), oracle_cross_gram_norms(tau, omega), rtol=2e-15, atol=0.0
    )
    # norm, module_norm and op_norm share the kernel, so they also match a dense SVD
    assert np.allclose([norm(e) for e in x.entries], expected, rtol=2e-15, atol=0.0)
    dense = np.linalg.svd(embed_vector(x), compute_uv=False)[0]
    assert abs(module_norm(x) - dense) <= 2e-15 * dense
    op = ModuleOperator(shape, 3, [magnitude * blk for blk in random_frame(shape, 3, 3, rng).blocks])
    dense = np.linalg.svd(embed_operator(op), compute_uv=False)[0]
    assert abs(op_norm(op) - dense) <= 2e-15 * dense


def test_support_spans_the_whole_exponent_range(shape):
    # 1e300 and 1e-300 in one vector: the tiny entry is still nonzero at
    # rel_tol = 0, where an unscaled Gram product would underflow to zero.
    x = ModuleVector.from_entries(
        [scale(1e300, identity(shape)), scale(1e-300, identity(shape)), scale(0.0, identity(shape))]
    )
    assert support(x, rel_tol=0.0) == [0, 1]
    assert support(x) == [0]


SCREEN_DIMS = [(1,), (2,), (1, 2), (3,), (4, 4, 8)]
SCREEN_IDS = ["C", "M2", "C+M2", "M3", "448"]


def screen_stacks(dims, rows, rng):
    """One (m, k, n, n) stack per block; rows[i][j] = (kind, nu) builds entry (i, j) with C*-norm nu.

    kind "iso" puts nu times a random unitary in every block, so that
    nu^2 = phi^2 / r with r = sum(dims); kind "one" puts nu times a random
    rank-one partial isometry in one random block, so that nu^2 = phi^2.
    """
    stacks = [np.zeros((len(rows), len(rows[0]), n, n), dtype=complex) for n in dims]
    for i, row in enumerate(rows):
        for j, (kind, nu) in enumerate(row):
            if kind == "iso":
                for stack, n in zip(stacks, dims):
                    stack[i, j] = nu * np.linalg.qr(screen_gaussian(rng, n, n))[0]
            else:
                b = rng.integers(len(dims))
                u, v = (g / np.linalg.norm(g) for g in (screen_gaussian(rng, dims[b], 1) for _ in "uv"))
                stacks[b][i, j] = nu * (u @ v.conj().T)
    return stacks


def screen_gaussian(rng, *size):
    return rng.standard_normal(size) + 1j * rng.standard_normal(size)


def screened(stacks, rel_tol):
    """The screen's mask of the elements in stacks, and the rows it sent to the exact norms."""
    asked = []

    def entry_norms(rows):
        asked.extend(rows.tolist())
        return algebra._entry_norms([s[rows] for s in stacks])

    rank, masses = sum(s.shape[-1] for s in stacks), algebra._entry_masses(stacks)
    return frames._screened_support_mask(masses, rank, rel_tol, entry_norms), asked


def exact_mask(stacks, rel_tol):
    return frames._support_mask(algebra._entry_norms(stacks), rel_tol)


@pytest.mark.parametrize("rel_tol", [1e-8, 0.5, 0.9, 0.0, 3e-162])
@pytest.mark.parametrize("dims", SCREEN_DIMS, ids=SCREEN_IDS)
def test_screened_support_mask_equals_exact_rule(dims, rel_tol):
    # Rows hold a peak of either kind and entries of either kind at
    # rel_tol * peak times factors at the cut (1 +- 1e-15 and +- a few
    # ulps), at the screen's own margins (1 +- 1e-6 and sqrt(r) or
    # 1/sqrt(r) times 1 +- 1e-15), inside the bound band (0.9 to 1.1), far
    # above it (0.3) and exactly zero.  Scaled by 1 and 1e149 the rows keep
    # normal masses; scaled by 1e-170 their masses underflow, and by 1e300
    # they overflow.  At rel_tol = 3e-162, rel_tol**2 is a subnormal 10 %
    # off; the cut must not be formed from it.
    rng, r = np.random.default_rng(47), sum(dims)
    factors = [0.9, 0.99, 1 - 1e-6, 1 + 1e-6, 1.01, 1.1]
    factors += [1 + k * 2.0**-52 for k in range(-6, 7)] + [1 - 1e-15, 1 + 1e-15]
    factors += [edge * (1 + e) for edge in (r**0.5, r**-0.5) for e in (-1e-15, 1e-15)]
    rows = [
        [(peak, 1.0), (kind, rel_tol * f), (kind, 0.3), (kind, 0.0), ("one", 1e-3)]
        for _ in range(3)
        for peak in ("iso", "one")
        for kind in ("iso", "one")
        for f in factors
    ]
    stacks = screen_stacks(dims, rows, rng)
    for scale in (1.0, 1e149, 1e-170, 1e300):
        scaled = [scale * s for s in stacks]
        mask, asked = screened(scaled, rel_tol)
        assert np.array_equal(mask, exact_mask(scaled, rel_tol)), scale
        assert sorted(asked) == sorted(set(asked))
        if rel_tol == 0.0 or scale in (1e-170, 1e300):
            assert asked == list(range(len(rows)))
        elif rel_tol == 1e-8 and scale == 1.0:
            assert 0 < len(asked) < len(rows)  # the bounds decide every row without an entry at the cut
    # An entry at the cut goes to the exact norms; a row of ordinary entries does not.
    plain = screen_stacks(dims, [[("iso", 1.0), ("one", 0.3), ("iso", 0.0)]], rng)
    mask, asked = screened(plain, 1e-8)
    assert asked == [] and mask.tolist() == exact_mask(plain, 1e-8).tolist() == [[True, True, False]]


@pytest.mark.parametrize("bad", [np.nan, np.inf, complex(0.0, -np.inf)])
@pytest.mark.parametrize("dims", SCREEN_DIMS, ids=SCREEN_IDS)
def test_screened_support_mask_refuses_non_finite_entries_like_the_exact_rule(dims, bad):
    stacks = screen_stacks(dims, [[("iso", 1.0), ("one", 0.5)]] * 3, np.random.default_rng(5))
    stacks[-1][1, 1, 0, -1] = bad
    for rel_tol in (1e-8, 0.0):
        with pytest.raises(InputError) as exact:
            exact_mask(stacks, rel_tol)
        with pytest.raises(InputError) as screen:
            screened(stacks, rel_tol)
        assert str(screen.value) == str(exact.value) == "algebra elements must have finite entries"


def test_sparsity_scale_invariance(shape, rng):
    frame = random_parseval_frame(shape, 3, 5, rng)
    x = random_vector(shape, 3, rng)
    s1 = sparsity(analysis(frame, x))
    s2 = sparsity(analysis(frame, vec_scale(1e6 + 0.5j, x)))
    assert s1 == s2


def test_analysis_isometry(shape, rng):
    d = 3
    frame = random_parseval_frame(shape, d, 6, rng)
    for _ in range(20):
        x = random_vector(shape, d, rng)
        coeffs = analysis(frame, x)
        assert abs(module_norm(coeffs) - module_norm(x)) <= 1e-10


def test_random_parseval_frame_quality(shape, rng):
    frame = random_parseval_frame(shape, 3, 5, rng)
    assert frames._parseval_residual(frame) <= 1e-10
    with pytest.raises(InputError):
        random_parseval_frame(shape, 3, 2, rng)


def test_frame_json_round_trip(shape, rng):
    frame = random_parseval_frame(shape, 2, 4, rng)
    payload = frame.to_dict()
    assert payload["parseval"] is True
    back = ModularFrame.from_dict(payload)
    assert back.to_dict() == payload

    # signed zeros and subnormals survive a file round trip byte for byte
    special = random_frame(AlgebraShape((1, 2)), 2, 3, rng).to_dict()
    special["vectors"][0]["entries"][1]["blocks"][1][0][1] = [-0.0, 5e-324]
    special["vectors"][2]["entries"][0]["blocks"][0][0][0] = [2.225e-309, -0.0]
    text = json.dumps(special)
    assert "-0.0" in text and "5e-324" in text and "2.225e-309" in text
    back = ModularFrame.from_dict(json.loads(text))
    assert json.dumps(back.to_dict()) == text


def test_frame_json_rejects_false_parseval_claim():
    e0 = basis_vector(C, 2, 0)
    payload = ModularFrame.from_vectors([e0, e0]).to_dict()
    assert payload["parseval"] is False
    payload["parseval"] = True
    with pytest.raises(InputError, match="claims a Parseval frame"):
        ModularFrame.from_dict(payload)


def test_frame_json_errors_carry_location(error_through_reader):
    # Each payload fails with the same message from a dict and from a file.
    def error(payload):
        return error_through_reader(ModularFrame, payload, "frame.json")

    assert error({"algebra": [1]}) == "frame.json: missing key 'd'"
    bad = standard_frame(C, 2).to_dict()
    bad["d"] = "two"
    assert error(bad) == "frame.json: 'd' must be a positive integer"
    malformed = [
        [[[1.0, 0.0], [0.0, 0.0]], [[0.0, 0.0]]],  # ragged rows
        [[[1.0], [0.0]], [[0.0], [1.0]]],  # [re] singletons
        [[["1.0", "0.0"], [0.0, 0.0]], [[0.0, 0.0], [1.0, 0.0]]],  # strings
        [[[True, False], [False, False]], [[False, False], [True, False]]],  # booleans
        [[[1.0, 0.0], [0.0, 0.0]], [[0.0, 0.0], [1.0, False]]],  # one boolean
        [[[1.0, 0.0], [0.0, 0.0]], [[0.0, 0.0], [float("nan"), 0.0]]],
    ]
    for block in malformed:
        payload = json.loads(json.dumps(standard_frame(M2, 2).to_dict()))
        payload["vectors"][1]["entries"][0]["blocks"][0] = block
        assert error(payload).startswith("frame.json: vector 1: entry 0: block 0: ")


def _standard_payload():
    return json.loads(json.dumps(standard_frame(C, 2).to_dict()))


def _set_vector(item):
    def fault(payload):
        payload["vectors"][1] = item
    return fault


def _mix_entry_shapes(payload):
    payload["vectors"][1]["entries"][1] = identity(M2).to_dict()


@pytest.mark.parametrize(
    "fault, message",
    [
        (_set_vector(basis_vector(M2, 2, 0).to_dict()), "vector 1 has shape [2], expected [1]"),
        (_set_vector(basis_vector(C, 3, 0).to_dict()), "vector 1 has 3 entries, expected d=2"),
        (_set_vector([1.0, 0.0]), "vector 1: expected an object, got list"),
        (_mix_entry_shapes, "vector 1: entry 1 has shape (2,), expected (1,)"),
        (lambda p: p.update(algebra=[1.5]), "'algebra' must be a list of integers"),
        (lambda p: p.update(vectors=[]), "'vectors' must be a nonempty list"),
        (lambda p: p.update(parseval="yes"), "'parseval' must be a boolean"),
        # JSON true and false are not integers, although Python's bool is an int
        (lambda p: p.update(d=True), "'d' must be a positive integer"),
        (lambda p: p.update(algebra=[True]), "'algebra' must be a list of integers"),
        (
            lambda p: p["vectors"][1]["entries"][0].update(shape=[True]),
            "vector 1: entry 0: 'shape' must be a list of integers",
        ),
        # A vector payload in the wrong place keeps its keys after the reader decodes it.
        (
            lambda p: p["vectors"][1]["entries"].__setitem__(0, basis_vector(C, 2, 0).to_dict()),
            "vector 1: entry 0: missing key 'blocks'",
        ),
        (lambda p: p.update(vectors=basis_vector(C, 2, 0).to_dict()), "'vectors' must be a nonempty list"),
    ],
    ids=[
        "shape",
        "entry-count",
        "non-object",
        "mixed-entries",
        "algebra",
        "empty",
        "parseval",
        "d-boolean",
        "algebra-boolean",
        "entry-shape-boolean",
        "vector-as-entry",
        "vector-as-vectors",
    ],
)
def test_frame_json_error_lines(error_through_reader, fault, message):
    payload = _standard_payload()
    fault(payload)
    assert error_through_reader(ModularFrame, payload, "frame.json") == f"frame.json: {message}"


def test_vector_file_read_as_a_frame(error_through_reader):
    # The reader decodes the vector's entries but keeps its keys, so the frame check still fails.
    payload = basis_vector(C, 2, 0).to_dict()
    assert error_through_reader(ModularFrame, payload, "x.json") == "x.json: missing key 'algebra'"


def test_frame_json_names_the_first_faulty_vector(error_through_reader):
    # Vectors are decoded in file order, so of two faults the earlier one is reported.
    payload = _standard_payload()
    payload["vectors"][0]["entries"][0]["blocks"][0][0][0] = [float("nan"), 0.0]
    payload["vectors"][1] = basis_vector(M2, 2, 0).to_dict()
    assert error_through_reader(ModularFrame, payload, "frame.json") == (
        "frame.json: vector 0: entry 0: block 0: non-finite value (NaN or Infinity)"
    )


def test_frame_json_names_the_first_faulty_vector_across_blocks(error_through_reader):
    # Each vector is decoded whole, all of its blocks, before the next one, so
    # vector 0's fault in block 1 is named before vector 1's fault in block 0.
    payload = json.loads(json.dumps(standard_frame(AlgebraShape((1, 2)), 2).to_dict()))
    payload["vectors"][0]["entries"][0]["blocks"][1][0][0] = [float("nan"), 0.0]
    payload["vectors"][1]["entries"][1]["blocks"][0] = [[[1.0]]]
    assert error_through_reader(ModularFrame, payload, "frame.json") == (
        "frame.json: vector 0: entry 0: block 1: non-finite value (NaN or Infinity)"
    )
    # Alone, each fault is named where it is.
    payload["vectors"][0]["entries"][0]["blocks"][1][0][0] = [1.0, 0.0]
    assert error_through_reader(ModularFrame, payload, "frame.json") == (
        "frame.json: vector 1: entry 1: block 0: must be an 1x1 matrix of [re, im] number pairs"
    )


def test_frame_file_mixes_decoded_and_faulty_vectors(error_through_reader, rng):
    # The reader decodes the sound vectors and leaves the faulty ones raw; the
    # first fault in file order is named either way, whether it is a faulty
    # value or a sound vector of the wrong module.
    shape = AlgebraShape((1, 2))
    sound = random_frame(shape, 2, 5, rng).to_dict()
    payload = json.loads(json.dumps(sound))
    payload["vectors"][3]["entries"][1]["blocks"][1][1][0] = [0.0, float("inf")]
    payload["vectors"][4] = basis_vector(M2, 2, 0).to_dict()
    assert error_through_reader(ModularFrame, payload, "frame.json") == (
        "frame.json: vector 3: entry 1: block 1: non-finite value (NaN or Infinity)"
    )
    payload["vectors"][2] = basis_vector(shape, 3, 0).to_dict()
    assert error_through_reader(ModularFrame, payload, "frame.json") == (
        "frame.json: vector 2 has 3 entries, expected d=2"
    )


def test_frame_json_decodes_each_vector_once(monkeypatch, tmp_path, rng):
    # One _decode_matrices call per block per vector, in file order, whether
    # the frame comes as a dict or from a file, whose reader decodes each
    # vector as it closes it: from_dict then decodes none again.
    shape = AlgebraShape((1, 2, 3))
    payload = random_parseval_frame(shape, 3, 5, rng).to_dict()
    path = tmp_path / "frame.json"
    path.write_text(json.dumps(payload))
    calls = []

    def spy(raws, n, locate):
        calls.append((len(raws), n))
        return algebra._decode_matrices(raws, n, locate)

    monkeypatch.setattr(csmodule, "_decode_matrices", spy)
    assert ModularFrame.from_dict(payload).to_dict() == payload
    assert calls == [(3, 1), (3, 2), (3, 3)] * 5
    calls.clear()
    assert cli._load_frame(str(path)).to_dict() == payload
    assert calls == [(3, 1), (3, 2), (3, 3)] * 5


def test_block_views_are_read_only(rng):
    shape = AlgebraShape((1, 2))
    frame = random_frame(shape, 2, 3, rng)
    x = random_vector(shape, 2, rng)
    for obj in (x, frame, frame_operator(frame), analysis(frame, x)):
        for blk, mat in zip(obj.blocks, obj.mats):
            assert np.shares_memory(blk, mat)
            with pytest.raises(ValueError):
                blk[(0,) * blk.ndim] = 1.0
    # constructors copy, so the caller's stack stays writable and detached
    stack = np.zeros((2, 1, 1), dtype=complex)
    v = ModuleVector(C, 2, [stack])
    stack[0] = 5.0
    assert v.blocks[0][0, 0, 0] == 0.0


@pytest.mark.parametrize("d", [1, 2, 4])
def test_contractions_match_dense_oracle(shape, rng, d):
    tau = random_frame(shape, d, d + 2, rng)
    omega = random_frame(shape, d, d + 3, rng)
    close = dict(rtol=1e-12, atol=1e-12)
    assert np.allclose(embed_operator(frame_operator(tau)), oracle_frame_operator(tau), **close)
    assert np.allclose(cross_gram_norms(tau, omega), oracle_cross_gram_norms(tau, omega), **close)
    assert np.allclose(embed_frame(parsevalize(tau)), oracle_parsevalize(tau), **close)


def test_frame_vector_count_validation():
    with pytest.raises(InputError):
        ModularFrame.from_vectors([])
    with pytest.raises(InputError):
        ModularFrame.from_vectors([basis_vector(C, 2, 0), basis_vector(C, 3, 0)])
