"""Exact inhomogeneous Lagrange spectra for period-two negative continued fractions.

The library computes, in exact real-quadratic arithmetic, the approximation
constants M(alpha, gamma) = liminf |n| ||n alpha - gamma|| for every target
class above the first limit point of the spectrum of a quadratic alpha with
period-two minus expansion, and cross-checks every closed form against an
independent exact evaluator and an exact record-walk oracle.
"""

from .quadfield import QuadNum, qnum
from .ncf import PeriodTwoAlpha, make_alpha, ncf_expand, NCFExpansion
from .expansion import (
    Block,
    TSequence,
    tseq_from_blocks,
    parse_period,
    gamma_value,
    d_plus,
    d_minus,
    s_star,
    reflect,
    m_star,
    m_value,
    max_digit_bound,
    repeated_t_bound,
)
from .spectrum import (
    ClassId,
    SpectrumCatalog,
    SpectrumPoint,
    class_tsequence,
    delta_closed_form,
    family_limit,
    spectrum_catalog,
    isolation_gap,
    euclidean_test,
    verify_equivalence,
    covered_pairs,
)
from .oracle import OracleM, OracleReport, brute_force_min, oracle_m

__version__ = "0.1.0"

__all__ = [
    "QuadNum", "qnum",
    "PeriodTwoAlpha", "make_alpha", "ncf_expand", "NCFExpansion",
    "Block", "TSequence", "tseq_from_blocks", "parse_period",
    "gamma_value", "d_plus", "d_minus", "s_star", "reflect",
    "m_star", "m_value", "max_digit_bound", "repeated_t_bound",
    "ClassId", "SpectrumCatalog", "SpectrumPoint",
    "class_tsequence", "delta_closed_form", "family_limit",
    "spectrum_catalog", "isolation_gap", "euclidean_test",
    "verify_equivalence", "covered_pairs",
    "OracleM", "OracleReport", "brute_force_min", "oracle_m",
]
