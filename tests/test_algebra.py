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

from oracles import embed_element, oracle_min_eig, oracle_norm

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
    assert norm(identity(M2)) == 1.0


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


def test_is_positive_identity():
    assert is_positive(identity(M2))


def test_is_positive_rejects_non_hermitian():
    assert not is_positive(elem(M2, [[0, 1], [0, 0]]))


def test_is_positive_psd_boundary():
    # eigenvalues {0, 2}
    assert is_positive(elem(M2, [[1, 1], [1, 1]]))
    assert not is_positive(elem(M2, [[-1, 0], [0, 1]]))


def test_scale_and_neg():
    a = random_element(CM2, np.random.default_rng(0))
    assert abs(norm(scale(2.0, a)) - 2 * norm(a)) < 1e-12
    assert norm(add(a, -a)) == 0.0
    assert norm(sub(2.0 * a, a * 2.0)) == 0.0


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
