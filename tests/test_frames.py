import json

import numpy as np
import pytest

from ncup import (
    AlgebraShape,
    InputError,
    ModularFrame,
    ModuleOperator,
    ModuleVector,
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
from ncup import frames
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
    oracle_parsevalize,
    vec_add,
    vec_scale,
    vec_sub,
)

C = AlgebraShape((1,))
M2 = AlgebraShape((2,))


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


def test_frame_json_errors_carry_location():
    with pytest.raises(InputError, match="missing key"):
        ModularFrame.from_dict({"algebra": [1]}, where="frame.json")
    good = standard_frame(C, 2).to_dict()
    bad = dict(good)
    bad["d"] = "two"
    with pytest.raises(InputError, match="frame.json"):
        ModularFrame.from_dict(bad, where="frame.json")
    malformed = [
        [[[1.0, 0.0], [0.0, 0.0]], [[0.0, 0.0]]],  # ragged rows
        [[[1.0], [0.0]], [[0.0], [1.0]]],  # [re] singletons
        [[["1.0", "0.0"], [0.0, 0.0]], [[0.0, 0.0], [1.0, 0.0]]],  # strings
        [[[1.0, 0.0], [0.0, 0.0]], [[0.0, 0.0], [float("nan"), 0.0]]],
    ]
    for block in malformed:
        payload = json.loads(json.dumps(standard_frame(M2, 2).to_dict()))
        payload["vectors"][1]["entries"][0]["blocks"][0] = block
        with pytest.raises(InputError, match="frame.json: vector 1: entry 0: block 0: "):
            ModularFrame.from_dict(payload, where="frame.json")


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
    ],
)
def test_frame_json_error_lines(fault, message):
    payload = _standard_payload()
    fault(payload)
    with pytest.raises(InputError) as info:
        ModularFrame.from_dict(payload, where="frame.json")
    assert str(info.value) == f"frame.json: {message}"


def test_frame_json_names_the_first_faulty_vector():
    # Vectors are decoded in file order, so of two faults the earlier one is reported.
    payload = _standard_payload()
    payload["vectors"][0]["entries"][0]["blocks"][0][0][0] = [float("nan"), 0.0]
    payload["vectors"][1] = basis_vector(M2, 2, 0).to_dict()
    with pytest.raises(InputError) as info:
        ModularFrame.from_dict(payload, where="frame.json")
    assert str(info.value) == (
        "frame.json: vector 0: entry 0: block 0: non-finite value (NaN or Infinity)"
    )


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
