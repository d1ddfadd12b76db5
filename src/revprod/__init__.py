"""Toolkit for studying what revenue data can and cannot say about production.

Simulates cost-minimizing firm panels under markup pricing, estimates
quantity and revenue production functions by proxy-variable GMM, and turns
the identification structure of the revenue case (flat directions, rank
deficiencies, observational-equivalence certificates, productivity
non-recovery) into executable diagnostics.
"""

__version__ = "0.1.0"

from .costmin import (
    CostSolution,
    SolverError,
    conditional_demands,
    cost_min_numeric,
    foc_input_price,
    marginal_cost_closed_form,
)
from .diagnostics import (
    IdentificationReport,
    OmegaRecovery,
    ProfileCurve,
    RankDiagnostics,
    beta_scale_scan,
    build_identification_report,
    jacobian_rank,
    observational_equivalence,
    omega_recovery_attempt,
    profile_scan,
)
from .estimate import (
    EstimateResult,
    EstimationError,
    FirstStage,
    MomentSystem,
    build_quantity_moments,
    build_revenue_moments,
    first_stage_project,
    gmm_minimize,
)
from .panel_io import Panel, PanelFormatError, read_panel_csv, write_panel_csv
from .simulate import (
    CapitalPolicy,
    PanelCheckReport,
    PriceProcess,
    ProductivityProcess,
    SimConfig,
    SimulationError,
    simulate_panel,
    verify_panel,
)
from .technology import (
    CES,
    CobbDouglas,
    DemandConfig,
    DomainError,
    ParameterError,
    ShockConfig,
    Technology,
    revenue_pf_reduced_form,
)
