"""Large-deviation rate functions for random walks in random environments
on the strip Z x {1..d}: quenched and averaged hitting-time and speed rates,
transfer-matrix log-MGFs, and rare-event Monte Carlo."""

from .env import (
    EllipticityReport,
    EnvironmentSlice,
    EnvironmentSpec,
    EnvironmentWindow,
    SpecValidationError,
    StartDistribution,
    WindowExhaustedError,
    embed_bounded_jump,
    homogeneous_d1_spec,
    invert_window,
    load_spec,
    sample_window,
    two_point_d1_spec,
    validate_ellipticity,
)
from .phi import (
    ConvergenceError,
    CriticalExponent,
    PhiSolution,
    SupercriticalError,
    estimate_lambda_crit,
    phi_derivative,
    solve_phi_periodic,
    solve_phi_window,
)
from .products import (
    DirectionVector,
    NonPositiveFactorError,
    block_mu_vectors,
    block_nu_vectors,
    mu_vectors,
    nu_vectors,
)
from .lmgf import (
    EnvironmentAnalysis,
    LmgfEstimate,
    LmgfEvaluator,
    analyze_environment,
)
from .rates import (
    RateCurve,
    TiltedMeasure,
    averaged_rate_upper,
    averaged_speed_upper,
    hitting_rate_curve,
    legendre_point,
    speed_rate_curve,
)
from .montecarlo import (
    BudgetExhaustedError,
    TailEstimate,
    WalkRecord,
    empirical_hitting_tail,
    empirical_speed_tail,
    importance_sample_hitting,
    simulate_walk,
    slowdown_probability,
)

__version__ = "0.1.0"
