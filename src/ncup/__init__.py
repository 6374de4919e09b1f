"""Frames over finite-dimensional C*-algebras and support uncertainty bounds.

The package works with the algebra A = M_{n1}(C) + ... + M_{nB}(C), the
Hilbert C*-module A^d, and finite frames in it.  It certifies the product
and additive support-size bounds for Parseval frame pairs, replays the
inequality chain behind them, normalizes frames to Parseval form, and
brute-forces the additive bound for the entrywise Fourier transform at
prime length.
"""

from .algebra import (
    AlgebraElement,
    AlgebraShape,
    add,
    identity,
    is_positive,
    mul,
    norm,
    random_element,
    scale,
    star,
    sub,
    zero,
)
from .csmodule import (
    ModuleOperator,
    ModuleVector,
    basis_vector,
    cauchy_schwarz_gap,
    inner_product,
    module_norm,
    module_scale,
    op_adjoint,
    op_apply,
    op_compose,
    op_identity,
    op_inv_sqrt,
    op_norm,
    random_vector,
    zero_vector,
)
from .errors import (
    GenerationError,
    InputError,
    NcupError,
    NonParsevalFrameError,
    NotAFrameError,
    SingularOperatorError,
)
from .frames import (
    ModularFrame,
    analysis,
    coherence,
    cross_gram_norms,
    frame_operator,
    is_parseval,
    parsevalize,
    random_frame,
    random_parseval_frame,
    sparsity,
    support,
    synthesis,
)
from .ncft import (
    chebotarev_minor_nonsingular,
    conjecture_audit,
    cyclic_shift,
    dft_matrix,
    dirac_comb,
    fourier_frame,
    ncdft,
    ncdft_inverse,
    pattern_feasible_minor,
    standard_frame,
    tao_min_sum,
)
from .uncertainty import (
    UncertaintyCertificate,
    certify,
    evaluate,
    proof_chain_check,
    random_audit,
    support_pair_feasible,
)

__version__ = "0.1.0"
