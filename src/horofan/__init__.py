"""horofan: exact combinatorics of horospherical varieties via coloured fans.

Construct coloured lattices from group-theoretic data (a Dynkin type, a
parabolic subset, a character sublattice), validate coloured cones and fans,
and read off the geometry: orbits and their closures, affineness,
completeness, toroidality, factoriality and smoothness, class and Picard
groups, Cartier data and ampleness, and anticanonical divisors.  All
arithmetic is exact.
"""

from .intlin import (
    AbelianGroup,
    IntMatrix,
    cokernel,
    hermite_normal_form,
    left_unimodular_equivalent,
    saturate,
    smith_normal_form,
    solve_integer_affine,
)
from .polyhedra import (
    Cone,
    LatticeLiftError,
    NotPointedError,
    dual_cone,
    faces,
    fan_is_complete,
    hilbert_basis,
    intersect,
    is_face_of,
)
# no library code calls ratlp; bench/spans.py looks its module up by name
from . import ratlp
from .rootsys import (
    RootDatum,
    colour_smoothness_check,
    flag_dimension,
    pairing,
    positive_roots,
)
from .horo import (
    Colour,
    ColouredCone,
    ColouredFan,
    ColouredLattice,
    ColouredLatticeMap,
    ColourOutsideSublatticeError,
    ColourPointMismatchError,
    GroupMismatchError,
    HorosphericalDatum,
    InvalidDatumError,
    NotASubdatumError,
    NotSaturatedError,
    build_coloured_lattice,
    coloured_faces,
    coloured_fan,
    coloured_lattice_map,
    homogeneous_spaces_isomorphic,
    product_coloured_fan,
    quotient_coloured_lattice,
    validate_coloured_fan,
)
from .dictionary import (
    CancellationToken,
    ConeNotInFanError,
    LatticeMismatchError,
    NotStronglyConvexError,
    OrbitRecord,
    PropertyReport,
    affine_local_structure,
    classify_variety,
    closure_contains,
    decolouration,
    morphism_check,
    open_toroidal_subfan,
    orbit_closure,
    orbit_table,
    regularity_report,
    weight_monoid_generators,
)
from .divisors import (
    AnticanonicalCoefficientError,
    BInvariantDivisor,
    CartierData,
    NotCompleteError,
    anticanonical,
    cartier_data,
    class_group,
    make_divisor,
    picard_group,
    positivity_check,
    principal_divisor,
)

__version__ = "0.1.0"
