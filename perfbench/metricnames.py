"""Names and units of the per-layer metrics, shared by the parent and the passes.

Kept free of hatlab imports: the parent process never imports hatlab.
"""

CHECKS = 13

# (metric name, unit); the traced run reports every one on every workload,
# 0 where the workload never calls the function
PER_LAYER = (
    [
        ("graph_core.max_independent_set.calls", "count"),
        ("graph_core.max_independent_set.self_s", "s"),
        ("graph_core.max_independent_set.vertices", "count"),
        ("graph_core.budget_nodes", "count"),
        ("graph_core.certified_gap", "count"),
        ("graph_core.enumerate_maximum_independent_sets.calls", "count"),
        ("graph_core.enumerate_maximum_independent_sets.self_s", "s"),
        ("graph_core.enumerate_maximum_independent_sets.sets", "count"),
        ("graph_core.enumerate_maximal_independent_sets.calls", "count"),
        ("graph_core.enumerate_maximal_independent_sets.self_s", "s"),
        ("graph_core.induced_subgraph.calls", "count"),
        ("graph_core.induced_subgraph.self_s", "s"),
        ("graph_core.subset_alpha_table.calls", "count"),
        ("graph_core.subset_alpha_table.self_s", "s"),
        ("hitting_sets.min_hitting_set.calls", "count"),
        ("hitting_sets.min_hitting_set.self_s", "s"),
        ("hitting_sets.min_hitting_set.nodes", "count"),
        ("hitting_sets.min_hitting_set.exact_ratio", "ratio"),
        ("hitting_sets.h_of_graph.self_s", "s"),
        ("hat_game.exact_value_two_players.calls", "count"),
        ("hat_game.exact_value_two_players.self_s", "s"),
        ("hat_game.exact_value_two_players.tables", "count"),
        ("hat_game.exact_value_two_players.tables_per_s", "1/s"),
        ("hat_game.best_response.calls", "count"),
        ("hat_game.best_response.self_s", "s"),
        ("hat_game.coordinate_ascent.calls", "count"),
        ("hat_game.coordinate_ascent.self_s", "s"),
        ("hat_game.coordinate_ascent.sweeps", "count"),
        ("hat_game.nested_lower_bound.self_s", "s"),
        ("hat_game.winning_family.self_s", "s"),
        ("blockers.verify_blocker.calls", "count"),
        ("blockers.verify_blocker.self_s", "s"),
        ("blockers.verify_blocker.nodes", "count"),
        ("blockers.verify_blocker.nodes_per_call", "count"),
        ("blockers.build_ell_tuples.self_s", "s"),
        ("blockers.lift_blockers.self_s", "s"),
        ("random_subgraphs.alpha_star_star_mc.calls", "count"),
        ("random_subgraphs.alpha_star_star_mc.self_s", "s"),
        ("random_subgraphs.alpha_star_star_mc.samples", "count"),
        ("random_subgraphs.alpha_star_star_mc.samples_per_s", "1/s"),
        ("random_subgraphs.alpha_star_star_exact.self_s", "s"),
        ("random_subgraphs.alpha_star_star_margin.self_s", "s"),
        ("random_subgraphs.hajnal_check.self_s", "s"),
        ("random_subgraphs.removal_trace.self_s", "s"),
        ("rng.u64.calls", "count"),
        ("rng.u64.self_s", "s"),
        ("constructions.calls", "count"),
        ("constructions.self_s", "s"),
        ("cli.run.calls", "count"),
        ("cli.run.self_s", "s"),
    ]
    + [(f"acceptance.check_{i:02d}.s", "s") for i in range(1, CHECKS + 1)]
    + [
        ("trace.spans", "count"),
        ("trace.wall_s", "s"),
        ("trace.overhead_ratio", "ratio"),
    ]
)
UNITS = dict(PER_LAYER)
