# The 22 figure and table binaries, in the section order of
# results/full_run.txt: the one list run_all_experiments.sh runs and
# check_routing_golden.sh checks. Sourced, not run.
# shellcheck disable=SC2034  # used by the scripts that source this file
FIGURES=(
  fig3_links fig4_degree_pdf fig5_hops fig6_stretch fig7_locality
  fig8_overlap fig9_multicast balance_ratio join_cost
  variants fault_isolation churn_resilience hierarchy_balance
  ablate_condition_b ablate_prox_samples ablate_lookahead skipnet_compare
  lookup_latency_sim cache_hits iterative_vs_recursive replication_availability
  shape_robustness
)
