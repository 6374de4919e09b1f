"""Every call site of the shared input rules raises the same exact InputError line.

The rules live in ncup.algebra (_as_count, _as_seed, _json_fields,
_common_shape) and ncup.frames (_check_rel_tol); each row below is one call
site and one faulty value.
"""

import numpy as np
import pytest

from ncup import (
    AlgebraElement,
    AlgebraShape,
    InputError,
    ModularFrame,
    ModuleOperator,
    ModuleVector,
    conjecture_audit,
    identity,
    op_identity,
    random_audit,
    random_frame,
    support,
    tao_min_sum,
)
from ncup.ncft import standard_frame

C, M2 = AlgebraShape((1,)), AlgebraShape((2,))
ONE, TWO = identity(C), identity(M2)

# The positive-count rule: (call site, its name in the message).
COUNT_SITES = {
    "module-rank": (lambda n: op_identity(C, n), "module rank d"),
    "random-frame": (lambda n: random_frame(C, 1, n, np.random.default_rng(0)), "count"),
    "tao-samples": (lambda n: tao_min_sum(5, mode="sampled", samples=n), "samples"),
    # Exhaustive mode does not read samples or seed, but checks them all the same.
    "tao-exhaustive-samples": (lambda n: tao_min_sum(5, samples=n), "samples"),
    "conjecture-trials": (lambda n: conjecture_audit(C, 5, n), "trials"),
    "audit-trials": (lambda n: random_audit(C, 1, 1, 1, n), "trials"),
}
COUNT_VALUES = {
    "0": (0, "must be positive, got 0"),
    "-1": (-1, "must be positive, got -1"),
    "int64-0": (np.int64(0), "must be positive, got 0"),
    "True": (True, "must be an integer, got True"),
}

SEED_SITES = {
    "audit": lambda s: random_audit(C, 1, 1, 1, 1, seed=s),
    "conjecture": lambda s: conjecture_audit(C, 5, 1, seed=s),
    "tao-sampled": lambda s: tao_min_sum(5, mode="sampled", samples=1, seed=s),
    "tao-exhaustive": lambda s: tao_min_sum(5, seed=s),
}
SEED_VALUES = {
    "-1": (-1, "seed must fit in 64 bits, got -1"),
    "1.5": (1.5, "seed must be an integer, got 1.5"),
    "2**64": (2**64, f"seed must fit in 64 bits, got {2**64}"),
    "True": (True, "seed must be an integer, got True"),
}

REL_TOL_SITES = {
    "support": lambda r: support(ModuleVector.from_entries([ONE]), rel_tol=r),
    "audit": lambda r: random_audit(C, 1, 1, 1, 1, rel_tol=r),
    "conjecture": lambda r: conjecture_audit(C, 5, 1, rel_tol=r),
}
REL_TOL_VALUES = {
    "None": (None, "rel_tol must lie in [0, 1), got None"),
    "string": ("0.1", "rel_tol must lie in [0, 1), got '0.1'"),
}

CASES = {
    **{
        f"{site}-{name}": (lambda c=call, v=value: c(v), f"{what} {message}")
        for site, (call, what) in COUNT_SITES.items()
        for name, (value, message) in COUNT_VALUES.items()
    },
    **{
        f"seed-{site}-{name}": (lambda c=call, v=value: c(v), message)
        for site, call in SEED_SITES.items()
        for name, (value, message) in SEED_VALUES.items()
    },
    **{
        f"rel_tol-{site}-{name}": (lambda c=call, v=value: c(v), message)
        for site, call in REL_TOL_SITES.items()
        for name, (value, message) in REL_TOL_VALUES.items()
    },
    "vector-entries-type": (
        lambda: ModuleVector.from_entries([ONE, 5]), "entry 1 is not an algebra element"
    ),
    "vector-entries-shape": (
        lambda: ModuleVector.from_entries([ONE, TWO]), "entry 1 has shape (2,), expected (1,)"
    ),
    "vector-entries-type-before-shape": (
        lambda: ModuleVector.from_entries([ONE, TWO, None]), "entry 2 is not an algebra element"
    ),
    "operator-entries-type": (
        lambda: ModuleOperator.from_entries([[ONE, ONE], [ONE, 5]]),
        "entry (1,1) is not an algebra element",
    ),
    "operator-entries-shape": (
        lambda: ModuleOperator.from_entries([[ONE, TWO], [ONE, ONE]]),
        "entry (0,1) has shape (2,), expected (1,)",
    ),
    "operator-entries-type-before-shape": (
        lambda: ModuleOperator.from_entries([[ONE, TWO], [None, ONE]]),
        "entry (1,0) is not an algebra element",
    ),
}


@pytest.mark.parametrize("call, message", list(CASES.values()), ids=list(CASES))
def test_input_rule_message(call, message):
    with pytest.raises(InputError) as exc:
        call()
    assert str(exc.value) == message


def _vector(**change):
    return {**ModuleVector.from_entries([ONE]).to_dict(), **change}


def _frame(**change):
    return {**standard_frame(C, 1).to_dict(), **change}


def _without(payload, key):
    return {k: v for k, v in payload.items() if k != key}


# The JSON-object rule at each level: (class, payload, message after "<file>: ").
JSON_CASES = {
    "element-not-object": (AlgebraElement, [1], "expected an object, got list"),
    "element-missing-blocks": (AlgebraElement, {"shape": [1]}, "missing key 'blocks'"),
    "vector-not-object": (ModuleVector, "x", "expected an object, got str"),
    "vector-missing-shape": (ModuleVector, _without(_vector(), "shape"), "missing key 'shape'"),
    "vector-missing-entries": (ModuleVector, {"shape": [1]}, "missing key 'entries'"),
    "vector-entry-not-object": (ModuleVector, _vector(entries=[5]), "entry 0: expected an object, got int"),
    "vector-entry-missing-shape": (
        ModuleVector, _vector(entries=[{"blocks": [[[[1, 0]]]]}]), "entry 0: missing key 'shape'"
    ),
    "frame-not-object": (ModularFrame, None, "expected an object, got NoneType"),
    "frame-missing-parseval": (ModularFrame, _without(_frame(), "parseval"), "missing key 'parseval'"),
    "frame-vector-not-object": (ModularFrame, _frame(vectors=[7]), "vector 0: expected an object, got int"),
    "frame-vector-missing-entries": (
        ModularFrame, _frame(vectors=[{"shape": [1]}]), "vector 0: missing key 'entries'"
    ),
}


@pytest.mark.parametrize("cls, payload, message", list(JSON_CASES.values()), ids=list(JSON_CASES))
def test_json_object_rule_message(error_through_reader, cls, payload, message):
    assert error_through_reader(cls, payload, "item.json") == f"item.json: {message}"
