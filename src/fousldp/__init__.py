"""Sharp large-deviation asymptotics for the fractional Ornstein-Uhlenbeck
process: rate functions, tail prefactors, saddlepoint machinery, exact
path simulation and validation oracles.

The closed forms are pure ``math``, so ``import fousldp`` loads neither
numpy nor scipy. The simulator's names load ``sim``, and numpy with it,
on first use.
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
    in_domain_delta,
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

#: the names of ``sim`` this package exports, resolved on first use
_SIM_NAMES = frozenset({
    "BatchResult",
    "RngSpec",
    "TimeGrid",
    "clt_statistics",
    "make_grid",
    "simulate_fbm_batch",
    "simulate_martingale_batch",
    "simulate_martingale_path",
})


def __getattr__(name):
    if name in _SIM_NAMES:
        from . import sim

        return getattr(sim, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__():
    return sorted(set(globals()) | _SIM_NAMES)
