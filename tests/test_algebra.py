import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from ncup import (
    AlgebraElement,
    AlgebraShape,
    InputError,
    add,
    identity,
    is_positive,
    mul,
    norm,
    random_element,
    scale,
    star,
    sub,
)

from ncup.algebra import _complex_gaussian, _entry_norms, _hermitian_part

from oracles import embed_element, oracle_min_eig, oracle_norm, reference_block_norms, reference_complex_gaussian

C = AlgebraShape((1,))
M2 = AlgebraShape((2,))
CC = AlgebraShape((1, 1))
CM2 = AlgebraShape((1, 2))


def elem(shape, *blocks):
    return AlgebraElement(shape, [np.array(b, dtype=complex) for b in blocks])


def test_shape_validation():
    assert AlgebraShape((1, 2)).dim == 5
    assert AlgebraShape((3,)).num_blocks == 1
    with pytest.raises(InputError):
        AlgebraShape(())
    with pytest.raises(InputError):
        AlgebraShape((0,))
    with pytest.raises(InputError):
        AlgebraShape((2, -1))
    for dims in ((1.7, 2), ("1",), (2.0,)):
        with pytest.raises(InputError, match="block dimensions must be integers"):
            AlgebraShape(dims)
    dims = AlgebraShape((np.int64(1), 2)).block_dims
    assert dims == (1, 2) and all(type(n) is int for n in dims)


def test_element_block_conformance():
    with pytest.raises(InputError):
        AlgebraElement(M2, [np.zeros((1, 1))])
    with pytest.raises(InputError):
        AlgebraElement(CC, [np.zeros((1, 1))])


def test_star_identity_is_identity():
    e = identity(M2)
    assert norm(sub(star(e), e)) == 0.0


def test_star_nilpotent():
    a = elem(M2, [[0, 1], [0, 0]])
    expected = elem(M2, [[0, 0], [1, 0]])
    assert norm(sub(star(a), expected)) == 0.0


def test_mul_blockwise_scalars():
    a = elem(CC, [[2]], [[3]])
    b = elem(CC, [[5]], [[7]])
    c = mul(a, b)
    assert c.blocks[0][0, 0] == 10
    assert c.blocks[1][0, 0] == 21


def test_shape_mismatch_rejected():
    with pytest.raises(InputError):
        add(identity(M2), identity(CC))
    with pytest.raises(InputError):
        mul(identity(M2), identity(CM2))


def test_norm_identity():
    for shape in (C, M2, CM2):
        assert norm(identity(shape)) == 1.0


def assert_norm_matches_oracle_at_all_scales(a, rng):
    for magnitude in (1.0, 1e300, 1e-300):
        for b in (a, random_element(a.shape, rng)):
            b = scale(magnitude, b)
            assert abs(norm(b) - oracle_norm(b)) <= 2e-15 * oracle_norm(b)


def test_norm_single_block_vs_svd_oracle():
    a = elem(M2, [[0, 2], [0, 0]])
    assert abs(norm(a) - 2.0) < 1e-14
    assert abs(norm(a) - oracle_norm(a)) < 1e-14
    assert_norm_matches_oracle_at_all_scales(a, np.random.default_rng(3))


def test_norm_max_over_blocks():
    a = elem(CM2, [[3]], [[0, 2], [0, 0]])
    assert abs(norm(a) - 3.0) < 1e-14
    assert abs(norm(a) - oracle_norm(a)) < 1e-14
    assert_norm_matches_oracle_at_all_scales(a, np.random.default_rng(4))


def hard_small_matrices(rng, n):
    """n x n matrices (n = 1 or 2) that stress the closed-form norm kernel."""
    u = np.linalg.qr(rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)))[0]
    rank_one = np.outer(rng.standard_normal(n) + 1j, rng.standard_normal(n) - 2j)
    flip = np.eye(n)[::-1]
    mats = [
        u,  # equal singular values
        np.eye(n),
        3.7 * np.eye(n),
        np.exp(2j * np.pi * np.outer(range(n), range(n)) / n) / np.sqrt(n),
        rank_one,
        np.zeros((n, n)),
        np.diag(rng.standard_normal(n) + 1j * rng.standard_normal(n)),
        np.diag([2.5 - 1j] * n),
        flip * (rng.standard_normal(n) + 1j * rng.standard_normal(n)),
        flip * (1 + 1j),
        rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)),
        5e-324 * np.arange(1, n * n + 1).reshape(n, n),
    ]
    return [m * scale for m in mats for scale in (1.0, 1e300, 1e-300)]


@pytest.mark.parametrize("shape", [C, M2], ids=["C", "M2"])
def test_closed_form_norms_match_svd_oracle(shape, rng):
    (n,) = shape.block_dims
    mats = hard_small_matrices(rng, n)
    mixed = np.stack(mats)  # entries from 5e-324 to 1e300 in one stack
    if n == 2:
        mats.append(np.array([[1e300, 5e-324], [1e-300, 0.0]]))
    expected = np.array([oracle_norm(AlgebraElement(shape, [m])) for m in mats])
    got = np.array([norm(AlgebraElement(shape, [m])) for m in mats])
    assert np.all(np.abs(got - expected) <= 2e-15 * expected)
    assert np.array_equal(_entry_norms([mixed]), got[: len(mixed)])


@pytest.mark.parametrize("rows", [1, 2])
def test_closed_form_norms_of_rectangular_stacks(rows, rng):
    for cols in (1, 3, 8):
        stack = rng.standard_normal((50, rows, cols)) + 1j * rng.standard_normal((50, rows, cols))
        stack[1] = 0.0
        stack[2] = np.outer(np.ones(rows), stack[2, 0])  # rank one
        stack[3] *= 1e300
        stack[4] *= 1e-300
        stack[5] = 5e-324
        expected = np.linalg.svd(stack, compute_uv=False)[:, 0]
        assert np.all(np.abs(_entry_norms([stack]) - expected) <= 2e-15 * expected)


def test_only_three_or_more_rows_reach_eigvalsh(monkeypatch, rng):
    def no_eigvalsh(*args, **kwargs):
        raise AssertionError("eigvalsh called")

    monkeypatch.setattr(np.linalg, "eigvalsh", no_eigvalsh)
    for dims in [(1, 1), (1, 4), (2, 2), (2, 6)]:
        _entry_norms([rng.standard_normal((5, *dims)) + 0j])
    assert norm(random_element(CM2, rng)) > 0
    with pytest.raises(AssertionError, match="eigvalsh called"):
        _entry_norms([rng.standard_normal((5, 3, 3)) + 0j])


def hard_stack(rng, lead, rows, cols):
    """Gaussian matrices at scales 1, 1e300 and 1e-300, with subnormal and zero ones."""
    k = int(np.prod(lead))
    stack = rng.standard_normal((k, rows, cols)) + 1j * rng.standard_normal((k, rows, cols))
    stack *= rng.choice([1.0, 1e300, 1e-300], size=k)[:, None, None]
    kind = rng.integers(0, 6, size=k)
    stack[kind == 0] = 5e-324 * rng.integers(0, 4, size=(np.sum(kind == 0), rows, cols))
    stack[kind == 1] = 0.0
    return stack.reshape(*lead, rows, cols)


def assert_same_bits(stack):
    got = _entry_norms([stack])
    assert np.array_equal(got.view(np.uint64), reference_block_norms(stack).view(np.uint64))


@pytest.mark.parametrize("rows", [1, 2, 3, 4])
def test_entry_norms_equal_reference_kernel_bit_for_bit(rows):
    rng = np.random.default_rng(rows)
    for cols in range(1, 10):
        for k in (1, 7, 4096, 4097, 20000):
            for lead in ((k,), (k // 5, 5)) if k >= 5 else ((k,),):
                assert_same_bits(hard_stack(rng, lead, rows, cols))


def test_entry_norms_equal_reference_kernel_on_audit_shapes():
    rng = np.random.default_rng(19)
    # conjecture's (trials, p, n, n) stacks, a share of the entries zeroed
    for n in (1, 2, 3):
        stack = hard_stack(rng, (20000, 5), n, n)
        stack *= (rng.random((20000, 5)) < 0.6)[:, :, None, None]
        assert_same_bits(stack)
    # module_norm's single (n, d*n) matrix, with sums short and long
    for n, d in ((1, 8), (1, 9), (1, 16), (2, 4), (2, 8), (2, 9), (3, 8)):
        for _ in range(20):
            assert_same_bits(hard_stack(rng, (1,), n, d * n))


@pytest.mark.parametrize("dims", [(2, 2), (2, 3), (1, 8), (1, 20), (3, 3)])
def test_norm_in_a_batch_equals_its_norm_alone(dims, rng):
    # Two-row matrices with four or more columns are left out: there numpy's
    # complex product of the rows can round differently in a large batch.
    for k in (100, 4096, 20000):
        stack = rng.standard_normal((k, *dims)) + 1j * rng.standard_normal((k, *dims))
        batch = _entry_norms([stack])
        for i in np.linspace(0, k - 1, 40).astype(int):
            assert batch[i] == _entry_norms([stack[i : i + 1]])[0]


def test_is_positive_identity():
    assert is_positive(identity(M2))


@pytest.mark.parametrize("sign", [1.0, -1.0], ids=["hermitian", "anti-hermitian"])
def test_is_positive_rejects_indefinite_elements_near_overflow(sign):
    # a + a^* overflows for both: the Hermitian one has eigenvalues
    # +-1.5e308, and the anti-Hermitian one a defect a - a^* of norm 3e308.
    a = elem(M2, [[0, 1.5e308], [sign * 1.5e308, 0]])
    assert is_positive(a) is False


def test_hermitian_part_halves_first_with_the_bits_of_the_sum(rng):
    for n in (1, 2, 7, 64):
        for scale in (1e-150, 1.0, 1e150):
            m = scale * (rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)))
            got = _hermitian_part(m)
            assert np.array_equal(got.view(np.uint64), ((m + m.conj().T) / 2.0).view(np.uint64))
    big = np.array([[1.5e308, 1.5e308], [-1.5e308, 1.5e308j]])
    assert np.array_equal(_hermitian_part(big), np.array([[1.5e308, 0], [0, 0]]))


def test_is_positive_rejects_non_hermitian():
    assert not is_positive(elem(M2, [[0, 1], [0, 0]]))


def test_is_positive_psd_boundary():
    # eigenvalues {0, 2}
    assert is_positive(elem(M2, [[1, 1], [1, 1]]))
    assert not is_positive(elem(M2, [[-1, 0], [0, 1]]))


@pytest.mark.parametrize("seed", [0, 7, 11, 4242, 2**63 + 5])
def test_complex_gaussian_matches_one_expression_bit_for_bit(seed):
    # One (2, *size) draw, halves scaled into one output: the same stream and
    # bytes as the real draw plus 1j times the imaginary one over sqrt(2).
    for size in [(1,), (3, 3), (30000, 2, 2), (4, 0, 2), (2, 5, 3, 3)]:
        got, ref = (draw(np.random.default_rng(seed), size) for draw in (_complex_gaussian, reference_complex_gaussian))
        assert got.shape == ref.shape == size and got.dtype == np.complex128
        assert got.tobytes() == ref.tobytes()
    # random_element draws its blocks in order through the same kernel.
    rng_a, rng_b = np.random.default_rng(seed), np.random.default_rng(seed)
    for shape in (C, CM2, AlgebraShape((4, 4, 8))):
        a = random_element(shape, rng_a)
        for blk, n in zip(a.blocks, shape.block_dims):
            assert blk.tobytes() == reference_complex_gaussian(rng_b, (n, n)).tobytes()


def test_scale_and_neg():
    a = random_element(CM2, np.random.default_rng(0))
    assert abs(norm(scale(2.0, a)) - 2 * norm(a)) < 1e-12
    assert norm(add(a, scale(-1.0, a))) == 0.0
    assert norm(sub(scale(2.0, a), add(a, a))) == 0.0


def test_cstar_identity_random(shape, rng):
    for _ in range(50):
        a = random_element(shape, rng)
        lhs = norm(mul(star(a), a))
        assert abs(lhs - norm(a) ** 2) <= 1e-10 * (1 + norm(a) ** 2)


def test_order_norm_monotonicity(shape, rng):
    for _ in range(50):
        c = random_element(shape, rng)
        e = random_element(shape, rng)
        a = mul(star(c), c)
        b = add(a, mul(star(e), e))
        assert is_positive(sub(b, a))
        assert norm(a) <= norm(b) + 1e-10


def test_submultiplicativity(shape, rng):
    for _ in range(50):
        a = random_element(shape, rng)
        b = random_element(shape, rng)
        assert norm(mul(a, b)) <= norm(a) * norm(b) + 1e-10


def test_star_antimultiplicative(shape, rng):
    a = random_element(shape, rng)
    b = random_element(shape, rng)
    assert norm(sub(star(mul(a, b)), mul(star(b), star(a)))) < 1e-12


def test_positivity_matches_dense_oracle(shape, rng):
    for _ in range(25):
        c = random_element(shape, rng)
        a = mul(star(c), c)
        assert is_positive(a)
        assert oracle_min_eig(a) >= -1e-10 * max(1.0, norm(a))


complex_2x2 = arrays(
    np.complex128,
    (2, 2),
    elements=st.complex_numbers(
        min_magnitude=0, max_magnitude=10, allow_nan=False, allow_infinity=False
    ),
)


@settings(max_examples=60, deadline=None)
@given(complex_2x2)
def test_cstar_identity_hypothesis(block):
    a = AlgebraElement(M2, [block])
    assert abs(norm(mul(star(a), a)) - norm(a) ** 2) <= 1e-10 * (1 + norm(a) ** 2)


@settings(max_examples=60, deadline=None)
@given(complex_2x2, complex_2x2)
def test_triangle_inequality_hypothesis(b1, b2):
    a = AlgebraElement(M2, [b1])
    b = AlgebraElement(M2, [b2])
    assert norm(add(a, b)) <= norm(a) + norm(b) + 1e-9 * (1 + norm(a) + norm(b))


def test_json_round_trip(shape, rng):
    a = random_element(shape, rng)
    back = AlgebraElement.from_dict(a.to_dict())
    assert norm(sub(a, back)) == 0.0
    assert back.to_dict() == a.to_dict()


def test_json_schema_shape():
    payload = identity(CM2).to_dict()
    assert payload["shape"] == [1, 2]
    assert payload["blocks"][0] == [[[1.0, 0.0]]]
    assert payload["blocks"][1][0][0] == [1.0, 0.0]


def test_json_errors_carry_context():
    with pytest.raises(InputError, match="missing key"):
        AlgebraElement.from_dict({"shape": [1]})
    with pytest.raises(InputError, match="block 0"):
        AlgebraElement.from_dict({"shape": [2], "blocks": [[[1.0, 0.0]]]}, where="x")
    with pytest.raises(InputError, match="list of integers"):
        AlgebraElement.from_dict({"shape": "nope", "blocks": []})


def test_blocks_are_read_only():
    a = identity(M2)
    with pytest.raises(ValueError):
        a.blocks[0][0, 0] = 5.0
