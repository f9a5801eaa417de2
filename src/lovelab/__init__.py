"""lovelab: the Love/Lieb-Liniger integral equation, disc-capacitor
asymptotics, and numerical verification of the integral identities behind
the weak-coupling ground-state energy."""

from .errors import (
    BranchError,
    ConditioningError,
    ConvergenceError,
    DivergenceError,
    DomainError,
    LoveLabError,
    PoleError,
    RegimeWarning,
    ResolutionError,
    WindowError,
)
from .specfun import (
    EllipticPair,
    bessel_scaled,
    elliptic_e,
    elliptic_k_derivative,
    elliptic_ke,
    lambert_w,
    lambert_w_upper_cut,
    polylog,
)
from .quadrature import (
    LogTailFit,
    QuadratureRule,
    fit_log_tail,
    gauss_legendre,
)
from .love import (
    GAS_POTENTIAL,
    EnergyPoint,
    LoveProblem,
    LoveSolution,
    default_node_count,
    moments,
    observables,
    operator_norm,
    operator_norm_discrete,
    solve_love,
    third_moment_sigma,
    weak_coupling_fit,
)
from .capacitor2d import (
    EdgePotentialSample,
    cumulative_phi,
    cumulative_phi_log,
    phi_prime_polylog_integral,
    phi_psi,
    phi_series,
    psi_series,
)
from .asymptotics import (
    ENERGY_GAMMA2,
    ENERGY_GAMMA2_RIVAL,
    AsymptoticSeries,
    SeriesTerm,
    ThirdMomentBreakdown,
    assemble_ground_state,
    capacitance_series,
    default_delta,
    energy_series,
    epsilon_of_gamma,
    epsilon_series,
    far_field,
    green_traces,
    ground_state_series,
    j_split,
    k2_energy_integral,
    kernel_k,
    third_moment_expansion,
)
from .conjectures import (
    ConjectureReport,
    residue_identity,
    run_all,
    t_transform,
    tn_first,
    verify_gamma0,
    verify_gamma1,
    verify_gamma2,
    verify_integral4,
    verify_polylog_claim,
)

__version__ = "0.1.0"
