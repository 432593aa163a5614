"""sllab: a stochastic-mechanics simulation laboratory.

Wave dynamics with a tunable quantum-potential weight, pilot-wave and
diffusion trajectory ensembles, a pointer-measurement toy model, finite
contextuality analysis, and ensemble statistics, plus CLI/file-format
plumbing for reproducible experiments.
"""

__version__ = "0.1.0"

from .grid_field import (  # noqa: F401
    Grid,
    PhysicalParams,
    PotentialSpec,
    Wavefunction,
    gaussian_packet,
    harmonic_ground_state,
    make_grid,
    polar_decompose,
    quantum_potential,
)
from .dynamics import (  # noqa: F401
    EvolutionAbort,
    EvolutionConfig,
    EvolutionTrace,
    density_width,
    energy_expectation,
    evolve,
    fringe_visibility,
    lambda_sweep,
)
from .trajectories import (  # noqa: F401
    TrajectoryEnsemble,
    integrate_bohmian,
    integrate_nelson,
    static_trace,
)
from .ensemble import (  # noqa: F401
    chi2_against_target,
    coarse_grained_h,
    equivariance_test,
    relaxation_h_series,
    sample_density,
)
from .measurement import (  # noqa: F401
    MeasurementError,
    OutcomeReport,
    PointerModel,
    evolve_pointer,
    run_measurement,
)
