"""Exact-arithmetic certificates for the quartic j-pencil and its
exceptional degree-two integrable form.

The layers, bottom up: sparse polynomials over Q or over F_p, each
carrying its prime (poly), fraction-free exact linear algebra (linalg),
the text grammar (polytext), exterior calculus on polynomial
coefficients (exterior), binary quartics over Q with their invariants
and osculating data (binary), certified constructors for integrable
1-forms (components), the restriction/saturation pipeline with its
tangent-space computation (exceptional), and finite-field set
certificates (varietyprobe).  The cli module ties everything to the
`jpencil` command.
"""

from .binary import BinaryForm, invariants_qcd, j_invariant, root_pattern, veronese
from .components import build_linear_pullback, build_logarithmic, build_rational
from .exceptional import (
    check_double_tangency,
    derive_omega_bar,
    reference_form,
    tangent_system_dim,
)
from .exterior import DiffForm, descends_check, integrability_check, saturate
from .poly import FpElement, MultiPoly
from .varietyprobe import PointSet, compare_sets, stratum_points, zero_locus

__all__ = [
    "BinaryForm", "DiffForm", "FpElement", "MultiPoly", "PointSet",
    "build_linear_pullback", "build_logarithmic", "build_rational",
    "check_double_tangency", "compare_sets", "derive_omega_bar",
    "descends_check", "integrability_check", "invariants_qcd",
    "j_invariant", "reference_form", "root_pattern", "saturate",
    "stratum_points", "tangent_system_dim", "veronese", "zero_locus",
]

__version__ = "0.1.0"
