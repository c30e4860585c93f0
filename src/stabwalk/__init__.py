"""Exact chamber, wall-crossing, and covering-space combinatorics for
normalized stability parameters attached to a tree of rational curves.

The package works entirely in integer and rational arithmetic: root
lattices and reflection groups from a dual graph (lattice), central
charges and exact phase comparison (charge), stratification of the
parameter space by walls and their integer punctures (strata), the
tilted heart attached to each stratum (hearts), composable twist and
flop words with their affine divisor shadow (fm_words), and exact path
lifting, meridians, and chamber bookkeeping for the covering of the
wall-and-puncture complement (covering).
"""

from .charge import (
    AmbientClass,
    ComplexDivisor,
    ExactComplex,
    KClass,
    central_charge,
    curve_class,
    euler_pairing,
    fiber_class,
    line_bundle_class,
    phase_compare,
    point_class,
    strip_index,
)
from .covering import (
    DISTINCT,
    EQUAL,
    UNDECIDED,
    Crossing,
    DeckElement,
    LiftState,
    TraceEvent,
    crossing_generator,
    default_basepoint,
    fundamental_state,
    isolating_depth,
    lift_path,
    meridian,
    meridian_waypoints,
    same_chamber,
    stack_theta,
    stack_word,
    strip_chamber_census,
)
from .errors import (
    BaseMismatch,
    CapExceeded,
    DimensionMismatch,
    ForbiddenStratum,
    IndexOutOfRange,
    NonGenericCrossing,
    NotATree,
    NotNegativeDefinite,
    OnWall,
    OutOfSector,
    PathHitsForbidden,
    StabwalkError,
    StartNotGeneric,
    UnsupportedSlice,
)
from .fm_words import (
    AffineMap,
    FMWord,
    Flop,
    Twist,
    affine_identity,
    compose,
    invert,
    is_in_g,
    is_in_g0,
    model_of,
    theta,
    word,
)
from .hearts import (
    FAMILY,
    RIGID,
    HeartDescriptor,
    StabilityEntry,
    StabilityReport,
    coherent_heart,
    generators,
    heart_for_stratum,
    partial_perverse_heart,
    perverse_heart,
    perverse_simples,
    stability_check,
    tilted_heart,
)
from .lattice import (
    DualGraph,
    Root,
    RootLattice,
    WeylElement,
    build_graph,
    build_lattice,
    chain_lattice,
    lattice_from_edges,
)
from .plot import plot_slice
from .strata import (
    AmpleChamber,
    DeepStratum,
    Forbidden,
    StratumLabel,
    WallStrip,
    classify,
    in_complement,
    locate_weyl_chamber,
)

__version__ = "0.1.0"
