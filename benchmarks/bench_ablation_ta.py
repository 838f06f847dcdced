"""Ablation — TA-style early termination (Algorithm 3).

The threshold stop must leave the top-k matches unchanged (it only skips
provably-dominated seeds).  The driver compares full-run right counts and
evaluation time with the stop on and off.
"""

from repro.core import GAnswer
from repro.experiments.complexity import ta_ablation


def test_ablation_ta(benchmark, record_result, setup_padded):
    system = GAnswer(setup_padded.kg, setup_padded.dictionary, use_ta=True)
    benchmark(
        lambda: system.answer("Which cities does the Weser flow through?")
    )
    result = record_result(ta_ablation())
    assert len({row[2] for row in result.rows}) == 1  # identical right counts
