"""Tests for the command-line interface."""

import os
import signal
import socket
import subprocess
import sys
from pathlib import Path

import pytest

from repro.cli import _engine_config, build_parser, main
from repro.serve import EngineConfig


class TestAsk:
    def test_ask_answers(self, capsys):
        rc = main(["ask", "Who is the mayor of Berlin?"])
        captured = capsys.readouterr()
        assert rc == 0
        assert "res:Klaus_Wowereit" in captured.out

    def test_ask_failure_exit_code(self, capsys):
        rc = main(["ask", "Give me all launch pads operated by NASA."])
        captured = capsys.readouterr()
        assert rc == 1
        assert "no answer" in captured.err

    def test_ask_with_sparql(self, capsys):
        rc = main(["ask", "--sparql", "Who is the mayor of Berlin?"])
        captured = capsys.readouterr()
        assert rc == 0
        assert "SELECT DISTINCT" in captured.out

    def test_ask_yes_no(self, capsys):
        main(["ask", "Is Michelle Obama the wife of Barack Obama?"])
        assert "yes" in capsys.readouterr().out

    def test_aggregation_extension_flag(self, capsys):
        rc = main(
            ["--aggregation", "ask", "Who is the youngest player in the Premier League?"]
        )
        captured = capsys.readouterr()
        assert rc == 0
        assert captured.out.strip() == "res:Raheem_Sterling"


class TestTrace:
    def test_trace_prints_span_tree(self, capsys):
        rc = main(["--trace", "ask", "Who is the mayor of Berlin?"])
        captured = capsys.readouterr()
        assert rc == 0
        assert "res:Klaus_Wowereit" in captured.out
        assert "-- trace:" in captured.err
        for stage in ("answer", "understanding", "parse", "top_k.search"):
            assert stage in captured.err

    def test_trace_json_to_stdout(self, capsys):
        import json

        rc = main(["--trace-json", "-", "ask", "Who is the mayor of Berlin?"])
        captured = capsys.readouterr()
        assert rc == 0
        payload = json.loads(captured.out.split("\n", 1)[1])
        assert payload["spans"][0]["name"] == "answer"
        assert payload["metrics"]["counters"]["top_k.seeds_explored"] >= 1

    def test_trace_json_to_file(self, capsys, tmp_path):
        import json

        out = tmp_path / "trace.json"
        rc = main(["--trace-json", str(out), "ask", "Who is the mayor of Berlin?"])
        capsys.readouterr()
        assert rc == 0
        payload = json.loads(out.read_text())
        assert payload["spans"][0]["name"] == "answer"

    def test_untraced_run_installs_no_tracer(self, capsys):
        from repro import obs

        main(["ask", "Who is the mayor of Berlin?"])
        capsys.readouterr()
        assert obs.get_tracer() is obs.NOOP


class TestSparql:
    def test_select(self, capsys):
        rc = main(["sparql", "SELECT ?x WHERE { <res:Berlin> <ont:mayor> ?x }"])
        captured = capsys.readouterr()
        assert rc == 0
        assert "res:Klaus_Wowereit" in captured.out

    def test_ask_form(self, capsys):
        main(["sparql", "ASK { <res:Berlin> <ont:mayor> <res:Klaus_Wowereit> }"])
        assert capsys.readouterr().out.strip() == "yes"

    def test_count_form(self, capsys):
        main(["sparql", "SELECT COUNT(?m) WHERE { ?p <ont:starring> ?m }"])
        assert capsys.readouterr().out.strip().isdigit()


class TestDictionary:
    def test_listing(self, capsys):
        rc = main(["dictionary"])
        captured = capsys.readouterr()
        assert rc == 0
        assert "spouse" in captured.out


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_k_option(self):
        args = build_parser().parse_args(["--k", "5", "ask", "q"])
        assert args.k == 5

    @pytest.mark.parametrize("command", ["serve", "shell"])
    def test_engine_defaults_come_from_engine_config(self, command):
        # With or without the serve flags, an unconfigured run is
        # EngineConfig() — a changed default cannot split serve from shell.
        args = build_parser().parse_args([command])
        assert _engine_config(args) == EngineConfig()


class TestShell:
    def test_shell_loop(self, capsys, monkeypatch):
        inputs = iter(["Who is the mayor of Berlin?", ""])
        monkeypatch.setattr("builtins.input", lambda prompt="": next(inputs))
        rc = main(["shell"])
        captured = capsys.readouterr()
        assert rc == 0
        assert "res:Klaus_Wowereit" in captured.out

    def test_shell_eof_exits(self, capsys, monkeypatch):
        def raise_eof(prompt=""):
            raise EOFError

        monkeypatch.setattr("builtins.input", raise_eof)
        assert main(["shell"]) == 0


class TestEval:
    def test_eval_summary(self, capsys):
        rc = main(["eval", "--failures"])
        captured = capsys.readouterr()
        assert rc == 0
        assert "right" in captured.out
        assert "aggregation" in captured.out


class TestExperiments:
    def test_writes_one_table_per_driver_and_the_qald_results(
        self, capsys, tmp_path, monkeypatch
    ):
        import json

        from repro.experiments import drivers, offline, online

        monkeypatch.setattr(
            drivers, "DRIVERS",
            (offline.table4_graph_statistics, online.table8_end_to_end),
        )
        out_dir = tmp_path / "nested" / "out"
        assert main(["experiments", str(out_dir)]) == 0
        capsys.readouterr()
        assert sorted(path.name for path in out_dir.iterdir()) == [
            "qald_results.json", "table4.txt", "table8.txt",
        ]
        table8 = (out_dir / "table8.txt").read_text()
        assert table8 == online.table8_end_to_end().render() + "\n"
        results = json.loads((out_dir / "qald_results.json").read_text())
        assert results["summary"]["right"] == 32
        assert results["system"] == "Our Method (repro)"

    def test_out_dir_is_required(self, capsys):
        with pytest.raises(SystemExit) as exit_info:
            main(["experiments"])
        assert exit_info.value.code == 2
        err = capsys.readouterr().err
        (line,) = [line for line in err.splitlines() if "error:" in line]
        assert "OUT_DIR" in line
        assert "Traceback" not in err


class TestUserErrors:
    """A mistake in the user's input ends in one ``error:`` line and exit
    status 2, never in a traceback."""

    @pytest.mark.parametrize(
        "argv, fragment",
        [
            (["sparql", "SELECT ?x WHERE {"], "missing '}'"),
            (["eval", "--snapshot", "/nonexistent.snap"], "/nonexistent.snap"),
            (["--trace", "sparql", "SELECT ?x WHERE {"], "missing '}'"),
            (["sparql", "SELECT ? WHERE { ?x ?y ?z }"], "expected a variable, found '?'"),
        ],
        ids=["sparql-syntax", "missing-snapshot", "traced", "bare-question-mark"],
    )
    def test_repro_error_is_one_line_and_exit_two(self, capsys, argv, fragment):
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        (line,) = captured.err.splitlines()
        assert line.startswith("error: ") and fragment in line

    def test_serve_refuses_a_format_5_snapshot(self, tmp_path):
        """A file an earlier build compiled, with the kernel rows as a
        section of their own, is sent back to the compiler: one
        ``error:`` line naming "recompile", and exit 2."""
        from repro.datasets import build_dbpedia_mini
        from repro.paraphrase import ParaphraseDictionary
        from repro.rdf.snapshot import compile_snapshot

        path = tmp_path / "old.snap"
        compile_snapshot(path, build_dbpedia_mini(), ParaphraseDictionary())
        raw = bytearray(path.read_bytes())
        raw[10:14] = (5).to_bytes(4, "little")  # the header's format, outside the digest
        path.write_bytes(raw)
        # A process of its own: a server that opened the file would not return.
        done = subprocess.run(
            [sys.executable, "-m", "repro", "serve", "--snapshot", str(path), "--port", "0"],
            capture_output=True, text=True, timeout=60,
            env=dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parents[1] / "src")),
        )
        assert done.returncode == 2 and done.stdout == ""
        (line,) = done.stderr.splitlines()
        assert line.startswith("error: ") and "format 5" in line and "recompile" in line

    def test_serve_stops_cleanly_on_sigterm(self, tmp_path):
        """A process manager's stop: SIGTERM unwinds ``serve_forever`` and
        the server shuts down, closes and exits 0 (it used to die of the
        signal, status 143, skipping all three)."""
        from repro.datasets import build_dbpedia_mini
        from repro.paraphrase import ParaphraseDictionary
        from repro.rdf.snapshot import compile_snapshot

        path = tmp_path / "graph.snap"
        compile_snapshot(path, build_dbpedia_mini(), ParaphraseDictionary())
        server = subprocess.Popen(
            [sys.executable, "-m", "repro", "serve", "--snapshot", str(path), "--port", "0"],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
            env=dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parents[1] / "src")),
        )
        try:
            banner = server.stdout.readline()
            assert "listening on http://" in banner, banner
            server.send_signal(signal.SIGTERM)
            _out, err = server.communicate(timeout=30)
        finally:
            if server.poll() is None:
                server.kill()
                server.communicate()
        assert server.returncode == 0 and "Traceback" not in err, (server.returncode, err)

    def test_compile_into_a_missing_directory(self, capsys, tmp_path):
        target = tmp_path / "missing" / "x.snap"
        assert main(["compile", str(target)]) == 2
        captured = capsys.readouterr()
        (line,) = captured.err.splitlines()
        assert line.startswith(f"error: cannot write snapshot {target}: ")
        assert not (tmp_path / "missing").exists()

    def test_compile_onto_a_directory(self, capsys, tmp_path):
        """The rename over ``DIR`` fails, and the temporary sibling goes."""
        target = tmp_path / "dir"
        target.mkdir()
        assert main(["compile", str(target)]) == 2
        (line,) = capsys.readouterr().err.splitlines()
        assert line.startswith(f"error: cannot write snapshot {target}: ")
        assert list(tmp_path.iterdir()) == [target] and list(target.iterdir()) == []

    def test_compact_to_a_url_that_is_not_one(self, capsys):
        assert main(["compact", "--url", "notaurl", "--token", "x"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        (line,) = captured.err.splitlines()
        assert line.startswith("error: --url 'notaurl' is not a server URL: ")

    @pytest.mark.parametrize("under_a_file", [True, False], ids=["under-a-file", "a-file"])
    def test_experiments_into_a_path_that_cannot_be_a_directory(
        self, capsys, tmp_path, monkeypatch, under_a_file
    ):
        from repro.experiments import drivers

        monkeypatch.setattr(drivers, "DRIVERS", (lambda: pytest.fail("a driver ran"),))
        a_file = tmp_path / "file"
        a_file.write_text("")
        out_dir = a_file / "x" if under_a_file else a_file
        assert main(["experiments", str(out_dir)]) == 2
        (line,) = capsys.readouterr().err.splitlines()
        assert line.startswith(f"error: cannot create {out_dir}: ")

    @pytest.mark.parametrize("deadline", ["nan", "inf", "-1"])
    def test_a_deadline_that_never_comes_due_is_refused_before_loading(
        self, capsys, monkeypatch, deadline
    ):
        import repro.cli

        monkeypatch.setattr(
            repro.cli, "_load_state", lambda args: pytest.fail("the graph was loaded")
        )
        assert main(["serve", "--port", "0", "--deadline", deadline]) == 2
        captured = capsys.readouterr()
        (line,) = captured.err.splitlines()
        assert line.startswith("error: ") and "deadline_s" in line

    @pytest.mark.parametrize(
        "flag, value, field",
        [("--cache-size", "-1", "cache_size")],
    )
    def test_a_cache_it_cannot_serve_under_is_refused_before_loading(
        self, capsys, monkeypatch, flag, value, field
    ):
        import repro.cli

        monkeypatch.setattr(
            repro.cli, "_load_state", lambda args: pytest.fail("the graph was loaded")
        )
        assert main(["serve", "--port", "0", flag, value]) == 2
        captured = capsys.readouterr()
        (line,) = captured.err.splitlines()
        assert line.startswith("error: ") and field in line

    @pytest.mark.parametrize(
        "argv, message",
        [
            (["--distractors", "-3", "ask", "q"], "argument --distractors: must be at least 0"),
            (["serve", "--workers", "0"], "argument --workers: must be at least 1"),
            (["serve", "--workers", "-2"], "argument --workers: must be at least 1"),
            (["serve", "--port", "70000"], "argument --port: must be at most 65535"),
            (["serve", "--port", "-1"], "argument --port: must be at least 0"),
            (["compact", "--timeout", "-1"], "argument --timeout: must be positive and finite"),
            (["compact", "--timeout", "nan"], "argument --timeout: must be positive and finite"),
        ],
        ids=[
            "negative-distractors", "zero-workers", "negative-workers",
            "port-too-high", "negative-port", "negative-timeout", "nan-timeout",
        ],
    )
    def test_an_out_of_range_count_is_rejected_at_parse_time(self, capsys, argv, message):
        with pytest.raises(SystemExit) as exit_info:
            main(argv)
        assert exit_info.value.code == 2
        err = capsys.readouterr().err
        (line,) = [line for line in err.splitlines() if "error:" in line]
        assert message in line
        assert "Traceback" not in err

    def test_the_cache_has_no_ttl_flag(self, capsys):
        with pytest.raises(SystemExit) as exit_info:
            main(["serve", "--cache-ttl", "5"])
        assert exit_info.value.code == 2
        err = capsys.readouterr().err
        (line,) = [line for line in err.splitlines() if "error:" in line]
        assert "unrecognized arguments: --cache-ttl 5" in line
        assert "Traceback" not in err

    def test_zero_distractors_and_one_worker_still_parse(self):
        args = build_parser().parse_args(["--distractors", "0", "serve", "--workers", "1"])
        assert (args.distractors, args.workers) == (0, 1)

    def test_k_below_one_is_rejected_at_parse_time(self, capsys):
        with pytest.raises(SystemExit) as exit_info:
            main(["--k", "0", "ask", "Who is the mayor of Berlin?"])
        assert exit_info.value.code == 2
        err = capsys.readouterr().err
        (line,) = [line for line in err.splitlines() if "error:" in line]
        assert "argument --k: must be at least 1" in line
        assert "Traceback" not in err

    @pytest.mark.parametrize("workers", ["1", "2"])
    def test_a_taken_port_is_one_line(self, capsys, workers):
        with socket.create_server(("127.0.0.1", 0)) as taken:
            port = str(taken.getsockname()[1])
            assert main(["serve", "--port", port, "--workers", workers]) == 2
        captured = capsys.readouterr()
        (line,) = captured.err.splitlines()
        assert line.startswith(f"error: cannot listen on 127.0.0.1:{port}: ")
        assert "Address already in use" in line
