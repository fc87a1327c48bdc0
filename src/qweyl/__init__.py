"""Symbolic and numeric verification kernel for the real q-Weyl algebra.

Exact normal forms over the deformation field, the symmetry action through
operator sandwiches, the Gaussian shift-operator representation, and the
invariant quantum-trace functional on finite-rank operators.
"""

from .coeff import NumericContext, ScalarValue
from .errors import (DescriptorMismatch, IndexOutOfRange, ParseError,
                     PoleAtEvaluationPoint, QweylError, ShapeMismatch)
from .gauss import (ElementaryOperator, GaussianState, apply_ops, inner, norm,
                    represent)
from .haar import (FiniteRankOperator, IntegralContext, quantum_trace,
                   rank_one)
from .parser import parse_algebra, parse_expression, parse_hopf, parse_scalar
from .uq import HopfElement, act, act_element, antipode, coproduct, counit
from .weyl import (AlgebraElement, a_op, b_op, gamma, gen_r, gen_x, gen_y,
                   normal_form, q_elem, q_elem_inv, rho, rho_inv,
                   verify_identity)

__version__ = "0.1.0"

__all__ = [
    "AlgebraElement", "DescriptorMismatch", "ElementaryOperator",
    "FiniteRankOperator", "GaussianState", "HopfElement", "IndexOutOfRange",
    "IntegralContext", "NumericContext", "ParseError",
    "PoleAtEvaluationPoint", "QweylError", "ScalarValue", "ShapeMismatch",
    "a_op", "act", "act_element", "antipode", "apply_ops", "b_op",
    "coproduct", "counit", "gamma", "gen_r", "gen_x", "gen_y", "inner",
    "norm", "normal_form", "parse_algebra",
    "parse_expression", "parse_hopf", "parse_scalar", "q_elem", "q_elem_inv",
    "quantum_trace", "rank_one", "represent", "rho", "rho_inv",
    "verify_identity",
]
