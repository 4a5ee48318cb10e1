"""Sharp large-deviation asymptotics for the fractional Ornstein-Uhlenbeck
process: rate functions, tail prefactors, saddlepoint machinery, exact
path simulation and validation oracles.
"""

from .energy import (
    EnergyBranch,
    SaddleSolution,
    TailApprox,
    c_star,
    classify_branch,
    order1_coeff_easy,
    rate_energy,
    saddle_solve,
    tail_boundary,
    tail_easy,
    tail_energy,
    tail_hard,
)
from .mle import (
    MleBranch,
    classify_mle,
    mle_domain,
    rate_mle,
    tail_mle,
    tail_mle_boundary,
    tail_mle_easy,
    tail_mle_hard,
    tail_mle_zero,
)
from .model import (
    DomainError,
    GenFnPoint,
    ModelParams,
    exact_lt,
    gen_fn_terms,
    in_domain_delta,
)
from .sim import (
    BatchResult,
    RngSpec,
    TimeGrid,
    clt_statistics,
    make_grid,
    simulate_fbm_batch,
    simulate_martingale_batch,
    simulate_martingale_path,
)
from .special import r_h, r_h_scaled
from .validate import (
    KSReport,
    MCReport,
    OracleReport,
    clt_test,
    gamma_contour_oracle,
    gamma_contour_series,
    legendre_oracle,
    mc_tail,
)

__version__ = "0.1.0"
