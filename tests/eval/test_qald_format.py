"""Tests for the QALD-3 result-format exporter."""

import json

import pytest

from repro.core import GAnswer
from repro.datasets import build_dbpedia_mini, build_phrase_dataset, qald_questions
from repro.eval import evaluate_system
from repro.eval.qald_format import run_to_qald_json, write_qald_results
from repro.paraphrase import ParaphraseMiner


@pytest.fixture(scope="module")
def run():
    kg = build_dbpedia_mini()
    dictionary = ParaphraseMiner(kg, max_path_length=4, top_k=3).mine(
        build_phrase_dataset()
    )
    return evaluate_system(
        GAnswer(kg, dictionary), qald_questions()[:12], "gAnswer (repro)"
    )


class TestQALDFormat:
    def test_valid_json_with_summary(self, run):
        payload = json.loads(run_to_qald_json(run))
        assert payload["system"] == "gAnswer (repro)"
        assert payload["summary"]["total"] == 12
        assert len(payload["questions"]) == 12

    def test_per_question_fields(self, run):
        payload = json.loads(run_to_qald_json(run))
        record = payload["questions"][0]
        # No timing: QALD-3 has no such field and the file must not
        # change between two runs that answer the same.
        assert list(record)[:8] == ["id", "question", "answers", "gold",
                                    "precision", "recall", "f1", "answered"]
        assert not any("time" in field for field in record)

    def test_right_question_scores_one(self, run):
        payload = json.loads(run_to_qald_json(run))
        by_id = {record["id"]: record for record in payload["questions"]}
        assert by_id[2]["f1"] == 1.0          # Q2 is a Table 11 question
        assert by_id[2]["answers"] == ["res:Lyndon_B._Johnson"]

    def test_boolean_question_fields(self, run):
        payload = json.loads(run_to_qald_json(run))
        by_id = {record["id"]: record for record in payload["questions"]}
        assert by_id[7]["gold_boolean"] is True  # Q7 yes/no
        assert "boolean" in by_id[7]

    def test_failure_class_recorded(self, run):
        payload = json.loads(run_to_qald_json(run))
        classes = {
            record.get("failure_class")
            for record in payload["questions"]
        }
        assert len(classes) > 1  # at least one failure class plus None

    def test_write_to_file(self, run, tmp_path):
        path = write_qald_results(run, tmp_path / "results.json")
        payload = json.loads(path.read_text())
        assert payload["summary"]["total"] == 12

    def test_deterministic(self, run):
        assert run_to_qald_json(run) == run_to_qald_json(run)
