"""orbigenus: exact combinatorics of commuting tuples in symmetric groups.

Transitive Z^h-sets in canonical lattice form, conjugacy classes of
commuting h-tuples as orbit-type multisets, exact class-function algebra
with Young induction, and the symmetric-power / Hecke-operator series
calculus with an exact product-formula verifier.  All arithmetic is
integer or rational; nothing is floating point.
"""

from .classes import (
    GuardExceededError,
    OrbitTypeMultiset,
    Permutation,
    brute_force_classes,
    centralizer_order,
    class_representative,
    class_size,
    commute,
    enumerate_classes,
    hom_count,
    orbit_type_of_tuple,
)
from .classfun import (
    ClassFunction,
    augmentation,
    induce_young,
    inner_product,
    product_inner_product,
    restrict_young,
    thm_d_induction_oracle,
)
from .genus import (
    IntegerModel,
    SeriesComparison,
    SymbolicModel,
    TableModel,
    adams_series,
    equivariant_power_classfunction,
    geometric_power_series,
    hecke_log_series,
    hecke_operator,
    lambda_series,
    psi_of_class,
    sigma,
    symmetric_power_series,
    todd_orbifold_series,
    verify_product_formula,
)
from .orbits import (
    ALL_ORDERS,
    Mode,
    ModeError,
    TransitiveOrbit,
    canonicalize,
    enumerate_orbits,
)
from .psipoly import PsiPolynomial, PsiSymbol
from .series import TruncatedSeries

__version__ = "0.1.0"

__all__ = [
    "ALL_ORDERS",
    "ClassFunction",
    "GuardExceededError",
    "IntegerModel",
    "Mode",
    "ModeError",
    "OrbitTypeMultiset",
    "Permutation",
    "PsiPolynomial",
    "PsiSymbol",
    "SeriesComparison",
    "SymbolicModel",
    "TableModel",
    "TransitiveOrbit",
    "TruncatedSeries",
    "adams_series",
    "augmentation",
    "brute_force_classes",
    "canonicalize",
    "centralizer_order",
    "class_representative",
    "class_size",
    "commute",
    "enumerate_classes",
    "enumerate_orbits",
    "equivariant_power_classfunction",
    "geometric_power_series",
    "hecke_log_series",
    "hecke_operator",
    "hom_count",
    "induce_young",
    "inner_product",
    "lambda_series",
    "orbit_type_of_tuple",
    "product_inner_product",
    "psi_of_class",
    "restrict_young",
    "sigma",
    "symmetric_power_series",
    "thm_d_induction_oracle",
    "todd_orbifold_series",
    "verify_product_formula",
]
