"""ES_p-arbitrage detection in positive-homogeneous markets.

Library layout: market data structures (market), the risk measure and its
coherence checks (risk), the hinge-LP detector and its threshold (detector),
closed-form criteria and synthetic markets (analytic), terminal price models
and quadratures (models), utility experiments (utility), file formats (io)
and the command line (cli).
"""

from .analytic import (
    CompleteMarketDensity,
    CompleteMarketVerdict,
    MarkowitzMarket,
    MarkowitzVerdict,
    StepArbitrageCandidate,
    StepCandidateResult,
    bs_ratio_density,
    capital_line_gradient,
    complete_market_arbitrage,
    density_market,
    density_market_mc,
    markowitz_arbitrage,
    markowitz_market,
    normal_es,
    normal_tail_factor,
    step_candidate,
)
from .detector import (
    Confirmation,
    DetectionResult,
    LpProblem,
    LpSolution,
    MinPResult,
    SolverError,
    arbitrage_epsilon,
    build_lp,
    detect,
    min_p,
    solve_lp,
)
from .market import (
    InstrumentQuote,
    MarketSnapshot,
    Portfolio,
    ScenarioSet,
    TradableLeg,
    WeightedSample,
    expand_quotes,
    payoff_distribution,
    price,
)
from .models import (
    CalibrationError,
    GarchFit,
    GarchModel,
    LognormalMixture,
    MixtureFit,
    calibrate_mixture,
    default_pl_grid,
    fit_garch,
    mc_quadrature,
    mixture_partial_moments,
    pl_quadrature,
    synthesize_chain,
)
from .risk import (
    CoherenceReport,
    RiskLevel,
    coherence_check,
    es_p,
    ru_objective,
    var_p,
)
from .seeding import substream
from .utility import (
    CapResult,
    ScanRow,
    UtilitySpec,
    classic_constraint_sup,
    expected_utility,
    scaling_scan,
)

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
