"""Parallel offline mining: identical output at any job count.

The miner's contract is that ``jobs`` is purely a wall-clock knob — the
mined dictionary must be byte-for-byte identical between the serial loop,
the fork-process pool, and the thread fallback, and the path counters must
aggregate to the same totals.
"""

import pytest

from repro import obs
from repro.datasets import SyntheticConfig, build_phrase_dataset, build_synthetic_kg
from repro.datasets.patty_sim import scale_phrase_dataset
from repro.datasets.synthetic import entity_pool
from repro.exceptions import MiningError
from repro.paraphrase import ParaphraseMiner


@pytest.fixture(scope="module")
def scenario():
    kg = build_synthetic_kg(
        SyntheticConfig(entities=300, triples_per_entity=4, predicates=15)
    )
    dataset = scale_phrase_dataset(build_phrase_dataset(), 40, 4, entity_pool(kg))
    return kg, dataset


def mine_json(kg, dataset, tracer=obs.NOOP, **kwargs):
    miner = ParaphraseMiner(kg, max_path_length=3, top_k=3, **kwargs)
    with obs.use_tracer(tracer):
        return miner.mine(dataset).to_json()


class TestParallelDeterminism:
    def test_process_pool_output_is_byte_identical(self, scenario):
        kg, dataset = scenario
        assert mine_json(kg, dataset, jobs=1) == mine_json(kg, dataset, jobs=2)

    def test_thread_fallback_output_is_byte_identical(self, scenario, monkeypatch):
        kg, dataset = scenario
        serial = mine_json(kg, dataset, jobs=1)

        import multiprocessing  # the miner imports it only where it forks

        def no_fork(method):
            raise ValueError(f"cannot find context for {method!r}")

        monkeypatch.setattr(multiprocessing, "get_context", no_fork)
        assert mine_json(kg, dataset, jobs=2) == serial

    def test_auto_jobs_output_is_byte_identical(self, scenario):
        kg, dataset = scenario
        assert mine_json(kg, dataset, jobs=0) == mine_json(kg, dataset, jobs=1)

    def test_negative_jobs_rejected(self, scenario):
        kg, _ = scenario
        with pytest.raises(MiningError):
            ParaphraseMiner(kg, jobs=-1)

    def test_counters_aggregate_like_serial(self, scenario):
        kg, dataset = scenario
        counts = {}
        for jobs in (1, 2):
            tracer = obs.Tracer()
            mine_json(kg, dataset, tracer=tracer, jobs=jobs)
            counters = tracer.metrics.snapshot()["counters"]
            counts[jobs] = (
                counters.get("mining.path_queries"),
                counters.get("mining.paths_enumerated"),
            )
        assert counts[1] == counts[2]
        assert counts[1][0] > 0

    def test_jobs_recorded_on_span(self, scenario):
        kg, dataset = scenario
        tracer = obs.Tracer()
        mine_json(kg, dataset, tracer=tracer, jobs=2)
        spans = [
            span
            for root in tracer.roots
            for span in root.walk()
            if span.name == "mining.collect_paths"
        ]
        assert spans and spans[0].attributes["jobs"] == 2
