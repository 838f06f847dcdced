"""Span recorder and the percentile rule."""

import json

import pytest

from bench.spans import SpanRecorder, median, percentile, summarize, supported_tail


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self) -> float:
        return self.now


def test_self_time_is_span_minus_children_and_links_are_kept(tmp_path):
    clock = FakeClock()
    recorder = SpanRecorder(clock)
    with recorder.span("answer", request="req-1") as root:
        clock.now = 1.0
        with recorder.span("core.phrase_mapping") as mapping:
            clock.now = 2.0
            with recorder.span("linking.link") as link:
                clock.now = 5.0
            clock.now = 6.0
        with recorder.span("core.top_k") as top_k:
            clock.now = 9.0
        clock.now = 10.0

    assert mapping[4] == root[0] and top_k[4] == root[0] and link[4] == mapping[0]
    assert root[4] is None
    assert {row[5] for row in recorder.spans} == {"req-1"}
    own = recorder.self_times()
    assert own[root[0]] == pytest.approx(10.0 - 5.0 - 3.0)
    assert own[mapping[0]] == pytest.approx(5.0 - 3.0)
    assert own[link[0]] == pytest.approx(3.0)
    by_name = recorder.self_time_by_name()
    assert sum(by_name.values()) == pytest.approx(10.0)
    assert recorder.durations("core.top_k") == [pytest.approx(3.0)]

    recorder.write(tmp_path / "trace.json")
    written = json.loads((tmp_path / "trace.json").read_text())
    assert written["fields"] == ["id", "name", "start", "end", "parent", "request"]
    assert [row[1] for row in written["spans"]] == [
        "answer", "core.phrase_mapping", "linking.link", "core.top_k",
    ]


def test_spans_of_different_requests_do_not_share_an_id():
    recorder = SpanRecorder(FakeClock())
    with recorder.span("answer", request="a"):
        with recorder.span("nlp.parse"):
            pass
    with recorder.span("answer", request="b"):
        with recorder.span("nlp.parse"):
            pass
    assert [row[5] for row in recorder.spans] == ["a", "a", "b", "b"]


def test_added_spans_attach_to_their_parent():
    recorder = SpanRecorder(FakeClock())
    root = recorder.add("http.ask", 0.0, 4.0, request="http-0")
    recorder.add("serve.server.first_byte", 0.0, 1.0, root, "http-0")
    recorder.add("serve.server.body_gap", 1.0, 4.0, root, "http-0")
    assert recorder.self_times()[root] == pytest.approx(0.0)


def test_a_span_is_recorded_when_the_block_raises():
    recorder = SpanRecorder(FakeClock())
    with pytest.raises(ValueError):
        with recorder.span("answer"):
            raise ValueError("boom")
    assert [row[1] for row in recorder.spans] == ["answer"]
    with recorder.span("next") as row:
        pass
    assert row[4] is None  # the failed span was popped off the stack


def test_tail_needs_ten_samples_beyond_it():
    assert supported_tail(19) is None
    assert supported_tail(40) == 75.0
    assert supported_tail(100) == 90.0
    assert supported_tail(199) == 90.0
    assert supported_tail(200) == 95.0
    assert supported_tail(999) == 95.0
    assert supported_tail(1000) == 99.0
    assert supported_tail(10000) == 99.9


def test_percentiles_are_nearest_rank():
    values = [float(v) for v in range(1, 101)]
    assert percentile(values, 95.0) == 95.0
    assert percentile(values, 90.0) == 90.0
    assert median(values) == 50.0
    assert percentile([7.0], 99.0) == 7.0
    with pytest.raises(ValueError):
        percentile([], 50.0)


def test_summary_reports_count_median_and_supported_tail():
    summary = summarize([float(v) for v in range(1, 201)])
    assert summary == {"n": 200, "p50": 100.0, "tail_p": 95.0, "tail": 190.0}
    assert summarize([1.0, 2.0, 3.0])["tail"] is None
    assert summarize([])["n"] == 0
