"""Synchronization of LTI arrays coupled through matrix-weighted Laplacians.

Verify the synchronizability assumptions of an array of identical linear
systems with per-edge output matrices, synthesize coupling gains by the
CL-detectability and neutral-stability recipes, and certify the result by
spectral analysis and simulation.
"""

import types

from .array_model import (
    CONTINUOUS,
    DISCRETE,
    ArraySpec,
    NetworkGraph,
    NormalizedGraphLaplacian,
    build_graph,
    is_connected,
    normalized_laplacian,
    sync_complement_basis,
    validate_spec,
)
from .builders import (
    BuiltArray,
    BuiltinExample,
    build_lc,
    build_mass_spring,
    builtin_example,
)
from .errors import (
    DimensionMismatch,
    Diverged,
    Infeasible,
    MatsyncError,
    NonPositiveParameter,
    NotConnected,
    NotDetectable,
    NotNeutrallyStable,
    NotSPD,
    NotSymmetric,
    SingularP,
    SpecParseError,
    SplitIllConditioned,
    UnknownName,
)
from .gains import (
    CLDetectabilityCertificate,
    Condition14Report,
    GainSet,
    condition14,
    eps_bar,
    find_common_P,
    gains_ct_neutral,
    gains_dt_neutral,
    gains_theorem1,
    verify_cl_detectability,
)
from .mwl import build_laplacian, laplacian_from_outputs
from .simulation import (
    ClosedLoop,
    SimTrace,
    asymptotic_anchor,
    closed_loop,
    rho_sweep,
    simulate_ct,
    simulate_dt,
)
from .spectral import (
    SpectralSplit,
    StabilityClass,
    classify_stability,
    neutral_split,
    pbh_detectable,
    spd_sqrt,
)

__version__ = "0.1.0"

# every public name imported above, so the list is written once
__all__ = sorted(
    name for name, value in globals().items()
    if not name.startswith("_") and not isinstance(value, types.ModuleType)
)
