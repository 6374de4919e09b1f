import numpy as np
import pytest

from ncup import (
    AlgebraElement,
    AlgebraShape,
    InputError,
    ModularFrame,
    ModuleOperator,
    ModuleVector,
    SingularOperatorError,
    add,
    basis_vector,
    cauchy_schwarz_gap,
    identity,
    inner_product,
    is_positive,
    module_norm,
    mul,
    norm,
    op_adjoint,
    op_apply,
    op_compose,
    op_identity,
    op_inv_sqrt,
    op_norm,
    random_element,
    random_vector,
    scale,
    star,
    sub,
)
from ncup.cli import _canonical
from ncup.csmodule import _vector_texts
from oracles import (
    embed_element,
    module_scale,
    op_sub,
    oracle_inner_product,
    oracle_op_apply,
    vec_add,
    vec_scale,
    vec_sub,
    zero_vector,
)

C = AlgebraShape((1,))
M2 = AlgebraShape((2,))


def random_operator(shape, d, rng):
    return ModuleOperator.from_entries(
        [[random_element(shape, rng) for _ in range(d)] for _ in range(d)]
    )


def test_basis_inner_products():
    e0 = basis_vector(M2, 2, 0)
    e1 = basis_vector(M2, 2, 1)
    assert norm(sub(inner_product(e0, e0), identity(M2))) == 0.0
    assert norm(inner_product(e0, e1)) == 0.0


def test_inner_product_hand_case():
    # x = ([[0,1],[0,0]], I) in M2(C)^2, so <x,x> = diag(2, 1)
    a = AlgebraElement(M2, [np.array([[0, 1], [0, 0]], dtype=complex)])
    x = ModuleVector.from_entries([a, identity(M2)])
    got = inner_product(x, x)
    assert np.allclose(got.blocks[0], np.diag([2.0, 1.0]), atol=1e-14)
    assert abs(module_norm(x) - np.sqrt(2)) < 1e-14


def test_inner_product_shape_mismatch():
    with pytest.raises(InputError):
        inner_product(basis_vector(M2, 2, 0), basis_vector(M2, 3, 0))
    with pytest.raises(InputError):
        inner_product(basis_vector(M2, 2, 0), basis_vector(C, 2, 0))


def test_module_norm_homogeneity():
    e0 = basis_vector(M2, 3, 0)
    assert module_norm(e0) == 1.0
    assert abs(module_norm(vec_scale(2.0, e0)) - 2.0) < 1e-14


def test_inner_product_axioms(shape, rng):
    d = 3
    for _ in range(30):
        x = random_vector(shape, d, rng)
        y = random_vector(shape, d, rng)
        z = random_vector(shape, d, rng)
        a = random_element(shape, rng)
        # additivity
        lhs = inner_product(vec_add(x, y), z)
        rhs = add(inner_product(x, z), inner_product(y, z))
        assert norm(sub(lhs, rhs)) <= 1e-10 * (1 + norm(lhs))
        # left A-linearity
        lhs = inner_product(module_scale(a, x), y)
        rhs = mul(a, inner_product(x, y))
        assert norm(sub(lhs, rhs)) <= 1e-10 * (1 + norm(lhs))
        # conjugate symmetry
        assert norm(sub(inner_product(x, y), star(inner_product(y, x)))) <= 1e-10
        # positivity
        assert is_positive(inner_product(x, x))


def test_definiteness_on_tiny_vectors(shape):
    d = 2
    blocks = [np.full((d, n, n), 1e-9, dtype=complex) for n in shape.block_dims]
    x = ModuleVector(shape, d, blocks)
    assert norm(inner_product(x, x)) <= 1e-12
    for e in x.entries:
        assert norm(e) <= 1e-6


def test_cauchy_schwarz_equality_case():
    e0 = basis_vector(M2, 2, 0)
    assert abs(cauchy_schwarz_gap(e0, e0)) < 1e-14


def test_cauchy_schwarz_zero_y():
    x = basis_vector(M2, 2, 0)
    y = zero_vector(M2, 2)
    assert abs(cauchy_schwarz_gap(x, y)) < 1e-14


def test_cauchy_schwarz_random(shape, rng):
    for _ in range(100):
        x = random_vector(shape, 3, rng)
        y = random_vector(shape, 3, rng)
        assert cauchy_schwarz_gap(x, y) >= -1e-10


def test_op_identity_action(shape, rng):
    x = random_vector(shape, 3, rng)
    y = op_apply(op_identity(shape, 3), x)
    assert module_norm(vec_sub(x, y)) < 1e-14


def test_op_apply_scalar_case():
    # d=1, M = (2 * 1_A): right multiplication doubles the entry
    m = ModuleOperator.from_entries([[scale(2.0, identity(M2))]])
    x = ModuleVector.from_entries([identity(M2)])
    y = op_apply(m, x)
    assert norm(sub(y.entry(0), scale(2.0, identity(M2)))) == 0.0


def test_adjoint_identity(shape, rng):
    d = 3
    for _ in range(20):
        m = random_operator(shape, d, rng)
        x = random_vector(shape, d, rng)
        y = random_vector(shape, d, rng)
        lhs = inner_product(op_apply(m, x), y)
        rhs = inner_product(x, op_apply(op_adjoint(m), y))
        assert norm(sub(lhs, rhs)) <= 1e-10 * (1 + norm(lhs))


def test_left_linearity_of_action(shape, rng):
    d = 3
    m = random_operator(shape, d, rng)
    a = random_element(shape, rng)
    x = random_vector(shape, d, rng)
    lhs = op_apply(m, module_scale(a, x))
    rhs = module_scale(a, op_apply(m, x))
    assert module_norm(vec_sub(lhs, rhs)) <= 1e-10 * (1 + module_norm(lhs))


def test_op_adjoint_is_starred_transpose(shape, rng):
    m = random_operator(shape, 3, rng)
    adj = op_adjoint(m)
    for i in range(3):
        for j in range(3):
            assert norm(sub(adj.entry(i, j), star(m.entry(j, i)))) == 0.0


def test_op_apply_matches_dense_oracle(shape, rng):
    d = 3
    m = random_operator(shape, d, rng)
    x = random_vector(shape, d, rng)
    got = op_apply(m, x)
    dense = oracle_op_apply(m, x)
    total = sum(shape.block_dims)
    for j in range(d):
        seg = dense[:, j * total : (j + 1) * total]
        assert np.allclose(embed_element(got.entry(j)), seg, rtol=1e-12, atol=1e-12)


def test_inner_product_matches_dense_oracle(shape, rng):
    x = random_vector(shape, 4, rng)
    y = random_vector(shape, 4, rng)
    assert np.allclose(
        embed_element(inner_product(x, y)),
        oracle_inner_product(x, y),
        rtol=1e-12,
        atol=1e-12,
    )


def test_op_inv_sqrt_identity():
    p = op_inv_sqrt(op_identity(M2, 2))
    assert op_norm(_op_sub_identity(p, M2, 2)) < 1e-12


def _op_sub_identity(p, shape, d):
    return op_sub(p, op_identity(shape, d))


def test_op_inv_sqrt_scalar():
    m = ModuleOperator.from_entries([[scale(4.0, identity(C))]])
    p = op_inv_sqrt(m)
    assert abs(p.entry(0, 0).blocks[0][0, 0] - 0.5) < 1e-14


def test_op_inv_sqrt_diagonal_block():
    diag = AlgebraElement(M2, [np.diag([4.0, 9.0]).astype(complex)])
    m = ModuleOperator.from_entries([[diag]])
    p = op_inv_sqrt(m)
    assert np.allclose(p.entry(0, 0).blocks[0], np.diag([0.5, 1.0 / 3.0]), atol=1e-14)


def test_op_inv_sqrt_postcondition(shape, rng):
    d = 3
    eye = op_identity(shape, d)
    for _ in range(10):
        g = random_operator(shape, d, rng)
        gg = op_compose(g, op_adjoint(g))
        # shift to keep the spectrum safely away from zero
        m = ModuleOperator(
            shape, d, [a + 0.5 * b for a, b in zip(gg.blocks, eye.blocks)]
        )
        p = op_inv_sqrt(m)
        resid = op_compose(op_compose(p, p), m)
        assert op_norm(_op_sub_identity(resid, shape, d)) <= 1e-8


def test_op_inv_sqrt_singular_raises():
    z = ModuleOperator.from_entries(
        [[identity(M2), identity(M2)], [identity(M2), identity(M2)]]
    )
    with pytest.raises(SingularOperatorError):
        op_inv_sqrt(z)


def test_vector_json_round_trip(shape, rng):
    x = random_vector(shape, 3, rng)
    back = ModuleVector.from_dict(x.to_dict())
    assert module_norm(vec_sub(x, back)) == 0.0
    assert back.to_dict() == x.to_dict()


# Signed zero, the least subnormal and normal, repr's switch to an exponent
# (below 1e-4 and from 1e16 up), the largest float and two of many digits.
EDGE_FLOATS = [
    0.0, -0.0, 5e-324, 2.2250738585072014e-308, 1e-05, 0.0001,
    9999999999999998.0, 1e16, 1e22, 1.7976931348623157e308, 3.0, 1 / 3,
]


@pytest.mark.parametrize("d", [1, 3, 16])
@pytest.mark.parametrize("dims", [(1,), (1, 2), (3,), (4, 4, 8)], ids=["C", "C+M2", "M3", "4,4,8"])
def test_vector_texts_are_the_canonical_payloads(dims, d):
    # The file writer's template against json.dumps of ModuleVector.to_dict:
    # every number differs from its neighbours' often enough that a key, separator
    # or slot out of order changes the text.
    shape, rng = AlgebraShape(dims), np.random.default_rng(sum(dims) * 100 + d)
    stacks = []
    for n in dims:
        # [re, im] pairs viewed as complex, as arithmetic would turn -0.0 parts into 0.0.
        pairs = rng.choice(EDGE_FLOATS, size=(2, d, n, n, 2)) * rng.choice([-1.0, 1.0], size=(2, d, n, n, 2))
        stacks.append(pairs.view(np.complex128)[..., 0])
    texts = list(_vector_texts(shape, stacks))
    vectors = (ModuleVector(shape, d, [stack[i] for stack in stacks]) for i in range(2))
    assert texts == [_canonical(vec.to_dict()) for vec in vectors]


def test_vector_json_errors(error_through_reader):
    # Each payload fails with the same message from a dict and from a file.
    def error(payload):
        return error_through_reader(ModuleVector, payload, "x.json")

    assert "x.json: missing key 'shape'" == error({"entries": []})
    assert "x.json: missing key 'entries'" == error({"shape": [1]})
    assert "x.json: entry 1 has shape" in error(
        {
            "shape": [1],
            "entries": [
                {"shape": [1], "blocks": [[[[1.0, 0.0]]]]},
                {"shape": [2], "blocks": [[[[1.0, 0.0]]]]},
            ],
        }
    )
    assert "declared shape" in error(
        {"shape": [2], "entries": [{"shape": [1], "blocks": [[[[1.0, 0.0]]]]}]}
    )
    # JSON true is not the integer 1, in an entry's shape or the declared one
    assert "x.json: entry 0: 'shape' must be a list of integers" in error(
        {"shape": [1], "entries": [{"shape": [True], "blocks": [[[[1.0, 0.0]]]]}]}
    )
    assert "declared shape" in error(
        {"shape": [True], "entries": [{"shape": [1], "blocks": [[[[1.0, 0.0]]]]}]}
    )
    blocks = (
        [[[1.0, 0.0]], []],
        [[[1.0]]],
        [[["1.0", "0.0"]]],
        [[[float("inf"), 0.0]]],
        # JSON true and false are not numbers, although numpy reads them as 1 and 0
        [[[True, False]]],
        [[[1.0, False]]],
    )
    for block in blocks:
        payload = {
            "shape": [1],
            "entries": [
                {"shape": [1], "blocks": [[[[1.0, 0.0]]]]},
                {"shape": [1], "blocks": [block]},
            ],
        }
        assert error(payload).startswith("x.json: entry 1: block 0: ")


@pytest.mark.parametrize(
    "call, message",
    [
        (lambda: ModuleOperator.from_entries([1]), "operator row must be a sequence, got int"),
        (
            lambda: ModuleOperator.from_entries(None),
            "operator entries must be a sequence, got NoneType",
        ),
        (lambda: ModuleVector.from_entries(5), "vector entries must be a sequence, got int"),
        (lambda: ModularFrame.from_vectors(None), "frame vectors must be a sequence, got NoneType"),
        (lambda: ModuleVector(M2, 2, 5), "block stacks must be a sequence, got int"),
        (lambda: ModuleOperator(M2, 2, 5), "block stacks must be a sequence, got int"),
        (lambda: ModularFrame(M2, 2, 5), "block stacks must be a sequence, got int"),
        (lambda: ModularFrame(M2, 2, [5]), "a frame needs at least one vector"),
        (lambda: AlgebraElement(M2, 5), "blocks must be a sequence, got int"),
    ],
    ids=[
        "operator-row", "operator-grid", "vector-entries", "frame-vectors",
        "vector-blocks", "operator-blocks", "frame-blocks", "frame-scalar-block",
        "element-blocks",
    ],
)
def test_constructors_refuse_non_sequences(call, message):
    with pytest.raises(InputError) as info:
        call()
    assert str(info.value) == message


def test_module_vector_validation():
    with pytest.raises(InputError):
        ModuleVector.from_entries([])
    with pytest.raises(InputError):
        ModuleVector(M2, 0, [])
    with pytest.raises(InputError):
        basis_vector(M2, 2, 5)


@pytest.mark.parametrize(
    "entries, message",
    [
        ([1, identity(M2)], "entry 0 is not an algebra element"),
        ([identity(M2), "1"], "entry 1 is not an algebra element"),
    ],
)
def test_vector_entries_are_type_checked_before_their_shape(entries, message):
    with pytest.raises(InputError) as info:
        ModuleVector.from_entries(entries)
    assert str(info.value) == message


@pytest.mark.parametrize(
    "grid, message",
    [
        ([[1]], "entry (0,0) is not an algebra element"),
        ([[identity(M2)] * 2, [identity(M2), 1]], "entry (1,1) is not an algebra element"),
    ],
)
def test_operator_entries_are_type_checked_before_their_shape(grid, message):
    with pytest.raises(InputError) as info:
        ModuleOperator.from_entries(grid)
    assert str(info.value) == message
