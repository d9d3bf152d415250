"""Discrete chirality energies on spin lattices and their sharp wall limits."""

from .errors import (
    ChiraLatticeError,
    ConfigError,
    DimensionError,
    DomainError,
    OptimizationError,
    ParameterError,
    ScalingError,
)
from .lattice_core import (
    Boundary,
    Grid,
    Rect,
    ScalarField,
    VectorField,
    cell_sum,
    curl_d,
    div_d,
    dpartial,
    format_float,
    grad_d,
    laplace_shifted,
    read_field_csv,
    write_field_csv,
)
from .spin_energy import (
    Ad,
    ChiralityFields,
    EnergyRecord,
    ModelParams,
    SpinField,
    Wd,
    angles,
    bulk_identity_check,
    chirality,
    energy_AGd,
    energy_E,
    energy_F,
    energy_Hn,
    energy_Hn_star,
    potential_W,
)
from .ground_states import (
    HelixSpec,
    commensurate_unit_chirality,
    ground_state_from_chirality,
    helical_field,
)
from .entropy import (
    Entropy,
    ent_norm_estimate,
    entropy_production,
    jin_kohn,
    modica_mortola_profile_energy,
    perp,
    psi_alpha,
    sigma_surface_density,
    total_variation_production,
)
from .recovery_limsup import (
    DEFAULT_KERNEL_RADIUS,
    ScalingSchedule,
    WallConfig,
    canonical_wall,
    discretize_potential,
    gamma_limsup_experiment,
    laplacian_AG_energy,
    mollified_wall_potential,
    mollify,
    quartic_bump,
    spin_from_potential,
)
from .relaxation import FixedAngles, RelaxConfig, f_gradient, relax, wall_start
from .diagnostics import (
    count_large_angle_cells,
    curl_l1,
    curl_quantization_residual,
    diagnose_report,
    hn_vs_hnstar,
    lp_norm,
)

__version__ = "0.1.0"
