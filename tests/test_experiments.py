"""The paper's evaluation, held in tier-1: every driver of
``repro.experiments.drivers.DRIVERS`` is run with no argument and its
table asserted against the shape the paper reports.

Counts are asserted exactly.  Timings are asserted as orderings and
ratios between cells of one run, never as absolute values — the only
absolutes are the paper's own bounds from ``repro.experiments.paper``,
which this substrate clears by a wide margin.
"""

import functools
import statistics

import pytest

from repro.experiments import complexity, offline, online, paper, tuning
from repro.experiments.common import ExperimentResult, default_setup


@functools.cache
def result_of(driver) -> ExperimentResult:
    """One run per driver per session, however many tests read its table."""
    return driver()


def keyed(result: ExperimentResult) -> dict:
    return {row[0]: row for row in result.rows}


class TestCommon:
    def test_default_setup_cached(self):
        assert default_setup(0) is default_setup(0)

    def test_distractor_setups_distinct(self):
        assert default_setup(0) is not default_setup(2)

    def test_result_render(self):
        result = ExperimentResult("x", "Title", ["a", "b"], [[1, 2.5]], ["note"])
        text = result.render()
        assert "Title" in text
        assert "2.50" in text
        assert "note" in text


class TestOfflineDrivers:
    def test_table4(self):
        result = result_of(offline.table4_graph_statistics)
        assert result.experiment_id == "table4"
        assert len(result.rows) == 3
        _name, nodes, triples, predicates, _literals = result.rows[0]  # mini-DBpedia
        assert nodes > 100 and triples > 400 and predicates > 40

    def test_table5(self):
        """Patty's shape: the freebase-like dataset has several times the
        phrases, both with single-digit-to-teens average support."""
        result = result_of(offline.table5_phrase_statistics)
        assert len(result.rows) == 4
        small = next(row for row in result.rows if "wordnet" in row[0])
        large = next(row for row in result.rows if "freebase" in row[0])
        assert large[1] > 3 * small[1]
        assert 1 <= small[3] <= 15
        assert 1 <= large[3] <= 15

    def test_precision_by_length_degrades(self):
        """Exp 1: high P@3 for single predicates, lower for longer paths —
        and Table 6's notes print the very curve asserted here."""
        curve = offline.precision_by_length()
        longest = max(curve)
        assert longest > 1
        assert curve[1][0] > paper.EXP1_P_AT_3_LENGTH1
        assert curve[longest][0] < curve[1][0]
        result = result_of(offline.table6_dictionary_precision)
        assert len(result.rows) == 6
        assert result.notes == [
            f"P@3 at path length {length}: {precision:.2f} over {judged} mappings"
            for length, (precision, judged) in curve.items()
        ]

    def test_table7_mining_slows_with_theta_and_scale(self):
        small, large = result_of(offline.table7_offline_time).rows
        for _name, theta2, theta4, _slowdown in (small, large):
            assert theta4 > theta2
        assert large[2] > small[2]

    def test_tfidf_ablation_shape(self):
        """tf-idf drops the ubiquitous noise path and keeps the true
        3-hop path on top; raw frequency lets the noise survive."""
        result = result_of(offline.tfidf_ablation)
        tfidf, raw = result.rows
        assert "tf-idf" in tfidf[0] and "raw" in raw[0]
        assert [tfidf[3], raw[3]] == ["no", "yes"]
        assert tfidf[1] == 0.0 and tfidf[2] == 1.0


class TestOnlineDrivers:
    def test_table8_ours_beats_deanna_beats_template(self):
        """The headline: 32 right for us, 21 for DEANNA, and we win on
        every aggregate."""
        rows = keyed(result_of(online.table8_end_to_end))
        ours = rows["Our Method (repro)"]
        deanna = rows["DEANNA (repro)"]
        template = rows["Template QA (repro)"]
        assert ours[2] == paper.TABLE8["Our Method"][1] == 32
        assert deanna[2] == paper.TABLE8["DEANNA"][1] == 21
        assert ours[2] > deanna[2] > template[2]
        assert ours[1] > deanna[1]  # processed
        assert ours[6] > deanna[6] > template[6]  # F-1
        assert len(rows) == 3 + len(paper.TABLE8)

    def test_figure6_ours_faster_than_deanna(self):
        result = result_of(online.figure6_runtime)
        assert result.rows, "no commonly-answered questions to compare"
        speedups = [float(row[5].rstrip("x")) for row in result.rows]
        assert sum(s > 1.0 for s in speedups) / len(speedups) >= 0.8
        assert statistics.median(speedups) >= paper.FIGURE6_SPEEDUP_RANGE[0]
        assert max(speedups) / min(speedups) > 3  # a wide spread, as in the paper
        assert max(row[1] for row in result.rows) < paper.FIGURE6_UNDERSTANDING_BOUND_MS

    def test_table9_rules_lift_both_rows(self):
        arguments, answers = result_of(online.table9_heuristic_rules).rows
        assert arguments[2] > arguments[1]
        assert answers[2] > answers[1]
        assert answers[2] == paper.TABLE9["questions_correct"]["with_rules"] == 32

    def test_table10_ratios_sum_to_one(self):
        result = result_of(online.table10_failure_analysis)
        ratios = [float(row[2].rstrip("%")) for row in result.rows]
        assert sum(ratios) == pytest.approx(100, abs=3)

    def test_table10_class_order_and_ratios(self):
        """Aggregation > linking > relation extraction > other, each
        within ten points of the paper's share."""
        result = result_of(online.table10_failure_analysis)
        rows = {row[0].split(" ")[0]: row for row in result.rows}
        counts = [
            rows[reason][1]
            for reason in ("aggregation", "entity_linking", "relation_extraction", "other")
        ]
        assert counts == sorted(counts, reverse=True) and len(set(counts)) == 4
        for reason, (_count, share) in paper.TABLE10.items():
            assert abs(float(rows[reason][2].rstrip("%")) / 100 - share) < 0.10

    def test_table11_has_32_rows(self):
        """Exactly the paper's 32 question ids, each answered faster than
        the paper's slowest."""
        result = result_of(online.table11_answered_questions)
        assert len(result.rows) == 32
        assert {int(row[0][1:]) for row in result.rows} == set(paper.TABLE11_QUESTION_IDS)
        assert max(row[2] for row in result.rows) < paper.TABLE11_TIME_RANGE_MS[1]

    def test_yago_generalization_answers_all_twenty(self):
        result = result_of(online.yago_generalization)
        assert len(result.rows) == 20
        assert "exactly right: 20/20" in result.notes

    def test_paper_constants_importable(self):
        assert paper.TABLE8["Our Method"][1] == 32
        assert paper.TABLE8["DEANNA"][1] == 21
        assert len(paper.TABLE11_QUESTION_IDS) == 32


class TestComplexityDrivers:
    def test_table12a_understanding_stays_under_the_paper_bound(self):
        result = result_of(complexity.understanding_scaling)
        assert len(result.rows) == 5
        assert max(row[2] for row in result.rows) < paper.FIGURE6_UNDERSTANDING_BOUND_MS

    def test_table12b_deanna_grows_with_candidates_ours_does_not(self):
        rows = keyed(result_of(complexity.candidate_scaling))
        ours = {count: row[1] for count, row in rows.items()}
        deanna = {count: row[2] for count, row in rows.items()}
        assert deanna[40] > deanna[5]
        assert deanna[40] > 2 * ours[40]
        # The ILP's growth is its own, not the graph's: ours moves by less
        # over the same sweep than DEANNA does.
        assert deanna[40] / deanna[5] > 2 * ours[40] / ours[5]

    @pytest.mark.parametrize(
        "driver", [complexity.pruning_ablation, complexity.ta_ablation],
        ids=["pruning", "ta"],
    )
    def test_ablation_switch_changes_no_answer(self, driver):
        result = result_of(driver)
        assert len(result.rows) == 4  # two depths, switch on and off
        assert {row[2] for row in result.rows} == {32}

    def test_pruning_explores_fewer_seeds(self):
        rows = result_of(complexity.pruning_ablation).rows
        for pruned, unpruned in zip(rows[0::2], rows[1::2]):
            assert pruned[3] < unpruned[3]

    def test_scaling_same_answers_at_every_graph_size(self, monkeypatch):
        # The 10^6-triple storage point is `repro experiments`' (and CI's),
        # not tier-1's.
        monkeypatch.setattr(complexity, "_TRIPLES_AXIS", (10_000,))
        result = complexity.kg_size_scaling()
        padded = [row for row in result.rows if row[0].startswith("distractors=")]
        assert len(padded) == 5
        assert {row[3] for row in padded} == {"res:Melanie_Griffith"}
        times = [row[2] for row in padded]
        assert times[-1] < times[0] * 100  # 85x the nodes, far from 85x the time
        single, sharded = (row for row in result.rows if row[0].startswith("triples="))
        assert single[3] == sharded[3] and single[1] == sharded[1]


class TestTuningDrivers:
    def test_theta_default_is_on_the_quality_plateau(self):
        rows = keyed(result_of(tuning.theta_sweep))
        assert rows[4][1] == max(row[1] for row in rows.values())
        assert rows[4][1] > rows[1][1]  # multi-hop relations need θ > 1

    def test_k_default_matches_the_best_quality(self):
        rows = keyed(result_of(tuning.k_sweep))
        assert rows[10][1] == max(row[1] for row in rows.values())
