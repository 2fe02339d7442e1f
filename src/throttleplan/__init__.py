"""Bandwidth throttling plans: allocation model, optimizers, tier games, simulation."""

from .allocation import (
    Mode,
    Partition,
    Plan,
    ThresholdBound,
    allocation,
    consumption,
    max_threshold,
    partition,
    post_throttle_activity,
    rate_for_threshold,
    threshold_for_rate,
)
from .cyclesim import (
    CycleTrace,
    SimConfig,
    UserState,
    daily_average,
    diurnal_activity,
    simulate,
    variability_ratio,
)
from .download import (
    DownloadSolution,
    KickEvent,
    KickKind,
    grid_oracle,
    kick_points,
    optimize_download,
    threshold_curve,
)
from .errors import InfeasibleError, ParseError, ThrottlePlanError, ValidationError
from .population import (
    DEFAULT_SEED,
    Population,
    UserProfile,
    assign_tiers_binomial,
    generate_codec_uniform,
    generate_lognormal,
    load_population,
    save_population,
)
from .regret import (
    RegretParams,
    aggregate_regret,
    tiered_aggregate_regret,
    tiered_user_regret,
    user_regret,
)
from .streaming import (
    CodecCandidate,
    CodecSet,
    StreamSolution,
    optimize_streaming,
    solve_threshold,
    streaming_curve,
)
from .tiergame import (
    Assignment,
    EquilibriumReport,
    SweepPoint,
    TierConfig,
    check_equilibrium,
    deviation_regret,
    enumerate_equilibria,
    optimize_tier,
    solve_multi_tier,
    stackelberg_iterate,
    sweep_splits,
)

__version__ = "0.1.0"
