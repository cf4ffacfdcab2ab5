"""hatlab: exact and Monte-Carlo combinatorics of hat games and independent sets.

The package computes hat-guessing game values for three winning-set
families, independence numbers of Hamming powers of the disjoint-support
(Kneser-type) graph on bit words, certified blocker constructions, random
induced-subgraph independence statistics, and minimum hitting sets of
maximum independent sets.
"""

from .blockers import (
    BlockerFamily,
    BlockerSchedule,
    VerifyResult,
    blocker_schedule,
    build_ell_tuples,
    lemma_bound,
    lift_blockers,
    pair_blockers,
    verify_blocker,
)
from .constructions import (
    ProductIndex,
    cayley_distance_graph,
    hamming_power,
    hamming_product,
    kneser_hypercube,
    random_gnp,
    shift_graph,
)
from .errors import (
    BudgetExceededError,
    CapExceededError,
    GraphFormatError,
    RetryLimitError,
    SizeLimitError,
)
from .graph_core import (
    Graph,
    MISResult,
    VertexSet,
    enumerate_maximal_independent_sets,
    enumerate_maximum_independent_sets,
    graph_fingerprint,
    induced_subgraph,
    make_graph,
    max_independent_set,
    parse_graph_text,
    subset_alpha,
    subset_alpha_table,
    write_graph_text,
)
from .hat_game import (
    GameValue,
    WinningFamily,
    best_response,
    check_positive_correlation,
    coordinate_ascent,
    exact_value_one_player,
    exact_value_two_players,
    nested_lower_bound,
    r_v_distribution,
    winning_family,
    winning_set_of_strategy,
)
from .hitting_sets import (
    HittingSetResult,
    covering_code_check,
    greedy_hitting,
    h_of_graph,
    min_hitting_set,
)
from .random_subgraphs import (
    Estimate,
    HajnalReport,
    MarginReport,
    RemovalTrace,
    alpha_star_star_exact,
    alpha_star_star_margin,
    alpha_star_star_mc,
    hajnal_check,
    partition_bound_eval,
    removal_trace,
)

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
