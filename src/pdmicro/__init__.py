"""pdmicro: a photodetachment-microscope simulator.

Forward problem: exact and semiclassical photoelectron current
distributions on a detector below a negative-ion source in a uniform
electric field, plus total detachment rates above and below threshold.
Inverse problem: electron energies from fringe patterns and the binding
energy from the Einstein line.
"""

from .units import PhysicalConstants, FieldScales, CODATA2018, make_scales, convert_energy
from .specfun import AiryValues, airy, airy_oracle
from .green import (
    SpacePoint,
    SourceKind,
    SourceModel,
    GreenEvaluation,
    kernel,
    green_energy,
    green_energy_quad,
    ldos_at_source,
    source_wave,
)
from .classical import (
    Trajectory,
    TrajectorySet,
    rho_max,
    find_trajectories,
    action_along,
    central_phase_difference,
    semiclassical_profile,
    semiclassical_wave,
)
from .detector import (
    DetectorPlane,
    CurrentMap,
    RadialProfile,
    FringeReport,
    current_density,
    radial_profile,
    map_plane,
    total_flux,
    count_fringes,
)
from .spectro import (
    SweepPoint,
    EinsteinFitResult,
    golden_rule_current,
    extract_energy,
    run_sweep,
    einstein_fit,
)

__version__ = "0.1.0"
