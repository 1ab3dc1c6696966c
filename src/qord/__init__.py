"""qord: exact-arithmetic toolkit for quasi-ordered and valued rings.

Rings, ordered abelian value groups, valuations, quasi-orders, the
compatibility theory between the two, and the lifting construction that
classifies the compatible quasi-orders over a Manis valuation; plus a
small session language, a CLI, and a corpus of worked instances with
golden reports.
"""

from .baerkrull import (
    BasisData,
    EtaVector,
    LiftData,
    bk3_lift,
    default_basis,
    extract_eta,
    gamma_data,
    lift,
    mu_restrict,
    psi,
    reconstruct_check,
    roundtrip_check,
)
from .groups import (
    INF,
    TRIVIAL_GROUP,
    Z_GROUP,
    GammaDecomposition,
    ValueGroup,
    mod2_decompose,
    value_add,
    value_cmp,
)
from .quasiorders import (
    ORDER,
    PROPER,
    QuasiOrder,
    at_zero_order,
    check_derived_lemmas,
    check_qo_axioms,
    classify_qo,
    const_term_order,
    frac_extend_qo,
    from_valuation,
    leading_term_order,
    natural_order,
    transport_qo,
)
from .report import CheckResult, PreconditionError, Report, render_json, render_text
from .residues import (
    CompatReport,
    associated_qofield,
    implication_table,
    is_compatible,
    is_convex,
    iv_prec_one,
    rank_check,
    residue_qo,
    special_star_check,
    table_conditions,
    theorem_compat_report,
)
from .rings import (
    QQ,
    ZZ,
    PolynomialRing,
    PrincipalIdeal,
    RationalFunctionField,
    RingElement,
    VariableIdeal,
    ZeroIdeal,
    fraction_field,
    poly_ring,
    quotient_ring,
)
from .sampling import Bounds, SampleUniverse
from .valuations import (
    Valuation,
    check_val_axioms,
    coarsening_check,
    composite_valuation,
    degree_valuation,
    equivalent_check,
    frac_extend_val,
    gauss_on,
    padic_valuation,
    quotient_val,
    transport_to_residue,
    trivial_valuation,
)

__version__ = "0.1.0"
