"""Exact invariant Kahler geometry on generalized flag varieties.

The package computes, in arbitrary-precision rational arithmetic, the
invariant (1,1)-cohomology of a flag variety cut out by a simple Lie type
and a parabolic subset: anticanonical data, Lefschetz contractions and
eigenvalues, volumes and degrees, the degree-zero Picard lattice, and the
torus-bundle metric data built from it (Ricci-flat for every Hermitian
connection parameter below one, and balanced).  A small numeric lab
cross-checks the exact eigenvalue formulas on type-A big cells by finite
differences; only the lab needs numpy, which loads on first use of a lab name.
"""

from .errors import (
    DimensionMismatch,
    FlagcyError,
    IllConditioned,
    IndexOutOfRange,
    InvalidParameter,
    InvalidRank,
    NotKahler,
    NotPrimitive,
    NotProportional,
    OddCount,
    PicardRankOne,
    TrivialBundle,
    UnsupportedType,
)
from .root_system import (
    LieType,
    PositiveRoot,
    RootDatum,
    build_root_datum,
    cartan_matrix,
    positive_root_count,
    symmetrizer,
)
from .flag_geometry import (
    InvariantClass,
    ParabolicFlag,
    anticanonical_class,
    class_from_coeffs,
    degree,
    endomorphism_eigenvalues,
    fano_index,
    is_kahler,
    lefschetz_contraction,
    make_flag,
    ricci_class,
    volume,
)
from .picard_lattice import (
    LineBundleClass,
    PrimitiveBasis,
    integer_combination,
    primitive_basis,
)
from .bundle_constructor import (
    BalancedDatum,
    GauduchonDatum,
    build_balanced,
    build_t_gauduchon,
    lee_form_coefficients,
    ricci_flat_scale,
    verify_c1_trivial,
    verify_coclosed,
    verify_ricci_flat,
)

__version__ = "0.1.0"
_LAB_NAMES = ("EigenvalueReport", "check_eigenvalue_formula", "kahler_potential",
              "numeric_form_at_origin", "unipotent_matrix")


def __getattr__(name):
    if name not in _LAB_NAMES:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from . import potential_lab  # imports numpy, so only on the first use of a lab name
    return getattr(potential_lab, name)


def __dir__():
    return sorted({*globals(), *_LAB_NAMES})
