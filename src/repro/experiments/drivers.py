"""Every experiment driver, once, in the order EXPERIMENTS.md reports them.

``repro experiments OUT_DIR`` runs this tuple and tier-1 holds each
entry's shape (``tests/test_experiments.py``); called from here a driver
takes no argument.  The tuple is not in the package ``__init__`` because
``repro.cli`` imports :mod:`repro.experiments.common` on every start and
a server has no use for the baselines.
"""

from repro.experiments import complexity, offline, online, tuning

DRIVERS = (
    offline.table4_graph_statistics,
    offline.table5_phrase_statistics,
    offline.table6_dictionary_precision,
    offline.table7_offline_time,
    online.table8_end_to_end,
    online.figure6_runtime,
    online.table9_heuristic_rules,
    online.table10_failure_analysis,
    online.table11_answered_questions,
    complexity.understanding_scaling,
    complexity.candidate_scaling,
    complexity.pruning_ablation,
    complexity.ta_ablation,
    offline.tfidf_ablation,
    tuning.theta_sweep,
    tuning.k_sweep,
    online.yago_generalization,
    complexity.kg_size_scaling,
)
