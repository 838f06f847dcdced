"""Table 12 / Table 3: measured complexity scaling of both pipelines.

The paper's claim is asymptotic: our question understanding is polynomial
(O(|Y|³) from the parser) while DEANNA's is NP-hard (ILP).  This driver
measures the claim's observable consequence:

* our understanding time grows smoothly with question length;
* DEANNA's understanding time grows steeply with the number of candidates
  per phrase (the ILP's input), while ours barely moves — evaluation-stage
  pruning absorbs the growth.

Also includes the pruning and TA ablations DESIGN.md calls out.
"""

from __future__ import annotations

import time

from repro import obs
from repro.baselines import Deanna
from repro.core import GAnswer
from repro.datasets import qald_questions
from repro.eval import evaluate_system
from repro.experiments.common import ExperimentResult, default_setup
from repro.linking import EntityLinker

#: Questions of increasing length for the understanding-time sweep.
_LENGTH_SWEEP = [
    "Who founded Intel?",
    "Who is the mayor of Berlin?",
    "Give me all movies directed by Francis Ford Coppola.",
    "Who was married to an actor that played in Philadelphia?",
    "Give me all people that were born in Vienna and died in Berlin.",
]

#: A question whose phrases all have rich candidate lists.
_CANDIDATE_SWEEP_QUESTION = "Who was married to an actor that played in Philadelphia?"


def understanding_scaling() -> ExperimentResult:
    """Understanding time vs question length (ours stays sub-linear-ish)."""
    setup = default_setup()
    system = GAnswer(setup.kg, setup.dictionary)
    result = ExperimentResult(
        "table12_length",
        "Table 12a — our question-understanding time vs question length "
        "(paper: polynomial O(|Y|^3) vs DEANNA's NP-hard ILP)",
        ["question", "words", "understanding (ms)"],
    )
    for question in _LENGTH_SWEEP:
        best = min(system.answer(question).understanding_time for _ in range(5))
        result.rows.append([question, len(question.split()), round(best * 1000, 3)])
    return result


def candidate_scaling() -> ExperimentResult:
    """Understanding time vs candidates per phrase, ours vs DEANNA.

    Candidate-list length is the ILP's input size; the distractor-padded
    graph supplies arbitrarily many same-label candidates.
    """
    setup = default_setup(distractors_per_entity=50)
    result = ExperimentResult(
        "table12_candidates",
        "Table 12b — understanding time vs candidates per phrase",
        ["candidates", "ours understand (ms)", "DEANNA understand (ms)", "ratio"],
    )

    def understanding_ms(system_class, count: int) -> float:
        linker = EntityLinker(setup.kg, max_candidates=count)
        system = system_class(setup.kg, setup.dictionary, linker=linker)
        return 1000 * min(
            system.answer(_CANDIDATE_SWEEP_QUESTION).understanding_time
            for _ in range(3)
        )

    for count in (5, 10, 20, 40):
        ours, deanna = understanding_ms(GAnswer, count), understanding_ms(Deanna, count)
        result.rows.append(
            [count, round(ours, 3), round(deanna, 3), f"{deanna / max(ours, 1e-6):.1f}x"]
        )
    result.notes.append(
        "shape to check: DEANNA's column grows with the candidate count "
        "(ILP input), ours stays flat (disambiguation deferred)"
    )
    return result


#: Segments of the sharded store on the storage axis.
_SHARDS = 8
#: Synthetic-graph sizes of the storage axis (tier-1 patches it to 10^4).
_TRIPLES_AXIS = (10_000, 100_000, 1_000_000)


def kg_size_scaling() -> ExperimentResult:
    """End-to-end time vs knowledge-graph size, plus the storage curve.

    Two axes share the table.  The distractor knob multiplies every
    entity's homonym count, which is what growing DBpedia does to this
    workload — per-question time should grow gently (pruning + TA absorb
    the candidates) while correctness is unchanged.  The triples axis
    grows a synthetic graph to 10^6 triples and runs the same
    subject-bound query workload against a single compact backend and a
    subject-hash :class:`~repro.rdf.shard.ShardedBackend` — identical
    results required, comparable time expected (bound-subject patterns
    route to exactly one segment).
    """
    question = "Who was married to an actor that played in Philadelphia?"
    result = ExperimentResult(
        "scaling_kg",
        "Scaling — answer time vs graph size (distractors + triples axes)",
        ["scale point", "graph size", "total (ms)", "answers"],
    )
    for level in (0, 10, 25, 50, 100):
        setup = default_setup(level)
        system = GAnswer(setup.kg, setup.dictionary)
        best = min(system.answer(question).total_time for _ in range(3))
        answer = system.answer(question)
        result.rows.append(
            [
                f"distractors={level}",
                f"{setup.kg.store.statistics()['nodes']} nodes",
                round(best * 1000, 3),
                ", ".join(str(a) for a in answer.answers),
            ]
        )
    result.notes.append("answers must be identical at every distractor scale")

    for total in _TRIPLES_AXIS:
        result.rows.extend(_storage_scaling_rows(total))
    result.notes.append(
        f"single vs sharded-{_SHARDS} must retrieve identical rows at every "
        f"triples scale (times are the 200-subject query workload)"
    )
    return result


def _storage_scaling_rows(total_triples: int):
    """One subject-bound workload timed on single, then sharded, storage."""
    from repro.datasets.synthetic import SyntheticConfig, build_synthetic_kg

    kg = build_synthetic_kg(
        SyntheticConfig.with_total_triples(total_triples, predicates=30)
    )
    base = kg.store
    subjects = [triple[0] for triple in base.triples_ids()][:4000:20]

    def workload(store) -> tuple[float, int]:
        started = time.perf_counter()
        rows = sum(1 for sid in subjects for _ in store.triples_ids(s=sid))
        return time.perf_counter() - started, rows

    for label, store in (
        ("single", base.compacted()),
        (f"sharded-{_SHARDS}", base.sharded(_SHARDS)),
    ):
        best, rows = min(workload(store) for _ in range(3))
        yield [
            f"triples={total_triples} {label}",
            f"{len(store)} triples",
            round(best * 1000, 3),
            f"{rows} rows",
        ]


#: Candidate-list depths the ablations run at: the padded graph the other
#: online experiments use, and Table 12b's deepest set-up — Algorithm 3's
#: claims are about deep candidate lists.
_ABLATION_DISTRACTORS = (25, 100)


def _switch_ablation(
    experiment_id: str, title: str, switch: str, labels: tuple[str, str]
) -> ExperimentResult:
    """One ``GAnswer`` switch on, then off, at each ablation depth.

    The search-effort counts come from one pass under a recording tracer
    and repeat exactly; a configuration's evaluation time is the fastest
    of three untraced passes over the question set (interference only
    ever slows a pass) and covers linking as well as the search.
    """
    result = ExperimentResult(
        experiment_id,
        title,
        [
            "distractors", "configuration", "right",
            "seeds explored", "expansions", "total evaluation time (ms)",
        ],
    )
    questions = qald_questions()
    for distractors in _ABLATION_DISTRACTORS:
        setup = default_setup(distractors_per_entity=distractors)
        for label, enabled in zip(labels, (True, False)):
            system = GAnswer(setup.kg, setup.dictionary, **{switch: enabled})
            tracer = obs.Tracer()
            with obs.use_tracer(tracer):
                right = evaluate_system(system, questions, label).summary.right
            with obs.use_tracer(obs.NOOP):
                passes = [evaluate_system(system, questions, label) for _ in range(3)]
            total_eval = min(
                sum(outcome.evaluation_time for outcome in run.outcomes)
                for run in passes
            )
            result.rows.append([
                distractors, label, right,
                int(tracer.metrics.counter("top_k.seeds_explored")),
                int(tracer.metrics.counter("matcher.expansions")),
                round(total_eval * 1000, 2),
            ])
    return result


def pruning_ablation() -> ExperimentResult:
    """Ablation: neighborhood pruning on/off (same answers, less search)."""
    result = _switch_ablation(
        "ablation_pruning",
        "Ablation — neighborhood-based pruning (Section 4.2.2)",
        "use_pruning",
        ("with pruning", "without pruning"),
    )
    result.notes.append("pruning must not change the right count, only time")
    return result


def ta_ablation() -> ExperimentResult:
    """Ablation: TA early termination on/off (same answers, fewer seeds)."""
    result = _switch_ablation(
        "ablation_ta",
        "Ablation — TA-style early termination (Algorithm 3)",
        "use_ta",
        ("with TA stop", "exhaustive seeding"),
    )
    result.notes.append("TA must not change the right count, only time")
    return result
