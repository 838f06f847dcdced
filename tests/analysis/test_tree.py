"""Real-tree smoke: the shipped package lints clean, the CLI surface
behaves, the serving invariant — an engine owns no threads and never
crosses a fork — holds in the source, and the second paths and
single-valued options that were deleted stay deleted."""

import ast
import dataclasses
import importlib
import inspect
import json
import re
import textwrap
from pathlib import Path

import pytest

import repro
from repro.analysis import run_lint
from repro.cli import main
from repro.exceptions import LintError

PACKAGE_ROOT = Path(repro.__file__).resolve().parent
REPO_ROOT = PACKAGE_ROOT.parent.parent


class TestRealTree:
    def test_fresh_scan_has_zero_findings_and_one_pragma(self):
        """The committed policy: a fresh scan has zero findings.

        Violations get fixed, not grandfathered: the inline pragma is the
        only exception mechanism, and the tree carries exactly one.
        """
        report = run_lint([PACKAGE_ROOT])
        assert report.findings == ()
        assert report.ok
        assert report.suppressed == 1

    def test_every_rule_runs_over_the_tree(self):
        report = run_lint([PACKAGE_ROOT])
        assert set(report.rules_run) == {
            "lock-discipline",
            "frozen-store",
            "monotonic-time",
            "layering",
            "exception-discipline",
            "instance-cycle",
        }
        assert report.files_scanned > 50

    def test_the_one_sanctioned_pragma_is_counted(self):
        # KnowledgeGraph.kernel's double-checked read is the single
        # deliberate suppression in the tree; new pragmas should be rare
        # and reviewed, so the count is pinned.
        report = run_lint([PACKAGE_ROOT])
        assert report.suppressed == 1

    def test_unknown_rule_raises(self):
        with pytest.raises(LintError, match="unknown rule"):
            run_lint([PACKAGE_ROOT], rules=("no-such-rule",))

    def test_missing_path_raises(self, tmp_path):
        with pytest.raises(LintError, match="does not exist"):
            run_lint([tmp_path / "absent"])


class TestServingInvariant:
    def test_nothing_is_reset_after_a_fork(self):
        # Every lock, cache and counter is created in the process that
        # uses it; a reset hook would mean something crossed a fork.
        offenders = [
            str(path.relative_to(PACKAGE_ROOT))
            for path in sorted(PACKAGE_ROOT.rglob("*.py"))
            if re.search(r"def\s+reset_after_fork\b", path.read_text())
        ]
        assert offenders == []

    def test_serve_imports_nothing_from_concurrent_futures(self):
        # Requests are answered on the request thread: no executor, no
        # Future, anywhere in the serving package.
        from repro.analysis.engine import scan

        imported = {
            (module.relpath, name)
            for module in scan([PACKAGE_ROOT / "serve"])
            for name, _line in module.imports
            if name.split(".")[0] == "concurrent"
        }
        assert imported == set()

    def test_transport_has_one_thread_model_and_one_head_parser(self):
        """Request threads are reused and the head is read by
        ``server.read_head``: thread-per-connection and the ``email``
        feed-parser were replaced, not kept behind a switch, and only the
        transport ever starts a thread.  The server writes its own heads:
        the stdlib's HTTP server is used nowhere in the package."""
        for path in PACKAGE_ROOT.rglob("*.py"):
            text = path.read_text()
            for name in ("http.server", "BaseHTTPRequestHandler", "HTTPServer"):
                assert name not in text, (path, name)
        serve = PACKAGE_ROOT / "serve"
        source = {path.name: path.read_text() for path in serve.glob("*.py")}
        for name, text in source.items():
            assert "ThreadingHTTPServer" not in text, name
            assert "ThreadingMixIn" not in text, name
            assert "parse_headers" not in text, name
            assert not re.search(r"^\s*(import|from) email\b", text, re.M), name
        assert not re.search(r"^\s*import http\.client\b", source["server.py"], re.M)
        for name in ("engine.py", "cache.py", "admission.py"):
            assert "Thread(" not in source[name], name


class TestNoForksGrowBack:
    """One snapshot reader, one kernel row builder, one adjacency dialect,
    one SPARQL evaluator, one deploy artefact, a lint with one verdict,
    and no parameter that only ever took one value."""

    def test_load_snapshot_takes_only_a_path(self):
        from repro.rdf.snapshot import load_snapshot

        assert list(inspect.signature(load_snapshot).parameters) == ["path"]

    def test_opened_state_has_one_path_each(self):
        """Rows, terms and linker material of a snapshot are served one
        way: the eager constructors were replaced, not kept beside.  The
        label index is columns whether built or opened — no posting
        ``set``s or exact-match ``dict`` beside them."""
        from repro.datasets import build_dbpedia_mini
        from repro.linking.index import LabelIndex
        from repro.rdf.dictionary import TermDictionary
        from repro.rdf.kernel import AdjacencyKernel
        from repro.rdf.snapshot import CompiledState

        assert list(inspect.signature(AdjacencyKernel.__init__).parameters) == [
            "self", "store", "patch_from",
        ]
        assert list(inspect.signature(LabelIndex.__init__).parameters) == [
            "self", "kg", "columns",
        ]
        assert not hasattr(TermDictionary, "from_terms")
        index = LabelIndex(build_dbpedia_mini())
        for member in ("from_compiled", "prebuilt", "_by_word", "_exact"):
            assert not hasattr(index, member), member
        assert [field.name for field in dataclasses.fields(CompiledState)] == [
            "kg", "dictionary", "info", "index", "max_degree", "mapping",
        ]

    def test_one_writable_store_and_builders_freeze(self):
        """The overlay takes every write: no dict store beside it, no
        per-triple ``add`` on the backend protocol, and a built graph is
        frozen."""
        import repro.rdf.backend
        from repro.datasets import (
            SyntheticConfig,
            build_dbpedia_mini,
            build_synthetic_kg,
            build_yago_mini,
        )
        from repro.rdf.backend import StoreBackend

        assert not hasattr(repro.rdf.backend, "DictBackend")
        assert not hasattr(StoreBackend, "add")
        for kg in (
            build_dbpedia_mini(),
            build_yago_mini(),
            build_synthetic_kg(SyntheticConfig(entities=50)),
        ):
            assert not kg.store.writable

    def test_kernel_rows_are_store_reads(self):
        """The graph is its columns: a kernel row is read from the store's
        SPO and OSP runs, so there is no row builder, no CSR copy of the
        rows, no patch path that rebuilds them and no snapshot section
        that ships them."""
        import repro.rdf.kernel
        from repro.datasets import build_dbpedia_mini
        from repro.rdf import snapshot
        from repro.rdf.kernel import AdjacencyKernel, KernelRows

        assert "kernel" not in snapshot._SECTION_COLUMNS
        assert list(inspect.signature(AdjacencyKernel.__init__).parameters) == [
            "self", "store", "patch_from",
        ]
        for name in ("rows_from_sorted_triples", "over_columns"):
            assert not hasattr(repro.rdf.kernel, name), name
        for member in ("over_columns", "columns", "patched", "scan", "directory", "boxed"):
            assert not hasattr(KernelRows, member), member
        # The memo is a plain dict of the rows read so far: it does not
        # pass itself off as a mapping of every row.
        for member in (
            "__len__", "__contains__", "__iter__", "keys", "items", "values",
            "get", "__eq__", "__ne__", "__hash__",
        ):
            assert member not in vars(KernelRows), member
        assert not hasattr(AdjacencyKernel, "_rebuild_row")
        kernel = AdjacencyKernel(build_dbpedia_mini().store)
        assert kernel.statistics()["rows_boxed"] == 0 < kernel.statistics()["nodes_full"]
        rows = kernel.full_rows()
        assert type(rows) is dict and len(rows) == kernel.statistics()["nodes_full"]
        assert kernel.statistics()["rows_boxed"] == 0
        node = sorted(rows)[0]
        assert kernel.adjacency(node) is kernel.adjacency(node)
        assert kernel.statistics()["rows_boxed"] == 1

    def test_one_object_per_store_version(self):
        """Everything derived from a store version lives on its kernel: the
        kernel has no named scratch regions beside its slots, mining's
        walk memo belongs to the run, and the graph holds its store, its
        lock and its kernel — nothing a refresh would have to reset."""
        import repro.paraphrase.path_mining
        import repro.rdf.kernel
        from repro.datasets import build_dbpedia_mini
        from repro.linking import EntityLinker
        from repro.rdf.kernel import AdjacencyKernel

        assert not hasattr(AdjacencyKernel, "cache_region")
        for member in ("_regions", "_region_lock"):
            assert member not in AdjacencyKernel.__slots__, member
        assert not hasattr(repro.rdf.kernel, "_REGION_CAP")
        for name in ("forget_walks", "_TREE_REGION", "_PREFIX_REGION"):
            assert not hasattr(repro.paraphrase.path_mining, name), name
        kg = build_dbpedia_mini()
        EntityLinker(kg)
        for class_id in sorted(kg.class_ids)[:3]:
            kg.instances_of(class_id), kg.superclasses_of(class_id)
        kg.literal_ids_by_lexical("Berlin")
        assert set(vars(kg)) == {"store", "_kernel_lock", "_kernel"}

    def test_a_term_table_is_the_records_it_ships_in(self, tmp_path, monkeypatch):
        """A built, an empty and an opened dictionary hold one form — the
        three term-table columns plus a tail — and the compiler writes a
        built store's columns out as the very arrays it holds, encoding
        no term record."""
        import repro.rdf.dictionary
        from repro.datasets import build_dbpedia_mini
        from repro.paraphrase import ParaphraseDictionary
        from repro.rdf.dictionary import TermDictionary
        from repro.rdf.snapshot import compile_snapshot, load_snapshot

        kg = build_dbpedia_mini()
        built = kg.store.dictionary
        held = (built._offsets, built._records, built._by_record)
        assert all(column is array for column, array in zip(built.columns(), held))
        encoded = []
        with monkeypatch.context() as patch:
            patch.setattr(repro.rdf.dictionary, "encode_term_record", encoded.append)
            compile_snapshot(tmp_path / "mini.snap", kg, ParaphraseDictionary())
        assert encoded == []
        opened = load_snapshot(tmp_path / "mini.snap").kg.store.dictionary
        for dictionary in (TermDictionary(), built, opened):
            columns = (dictionary._offsets, dictionary._records, dictionary._by_record)
            assert None not in columns

    def test_mining_has_no_worker_pool(self, capsys):
        """Mining is one serial loop: no ``jobs`` on the miner, no global
        ``--jobs`` flag, no pool and no pool task state."""
        import repro.paraphrase.miner
        from repro.cli import build_parser
        from repro.paraphrase import ParaphraseMiner

        assert "jobs" not in inspect.signature(ParaphraseMiner.__init__).parameters
        for name in ("_WORKER_STATE", "_collect_phrase_paths"):
            assert not hasattr(repro.paraphrase.miner, name), name
        for name in ("_effective_jobs", "_collect_pooled"):
            assert not hasattr(ParaphraseMiner, name), name
        assert "--jobs" not in build_parser().format_help()
        with pytest.raises(SystemExit) as exit_info:
            build_parser().parse_args(["--jobs=2", "dictionary"])
        assert exit_info.value.code == 2
        assert "unrecognized arguments: --jobs" in capsys.readouterr().err

    def test_mining_has_one_path(self):
        """Algorithm 1 runs on one path over one kind of row: the kernel
        serves one row per node (mining drops its literal slots itself),
        the path BFS has one loop nest, and no re-mine beside ``mine()``
        scores a sub-corpus against itself."""
        import repro.paraphrase.tfidf
        from repro.paraphrase import ParaphraseMiner
        from repro.paraphrase.path_mining import _expand_tree
        from repro.rdf.kernel import AdjacencyKernel

        for member in ("entity_adjacency", "entity_neighbors"):
            assert not hasattr(AdjacencyKernel, member), member
        assert "_entity" not in AdjacencyKernel.__slots__
        assert not hasattr(ParaphraseMiner, "remine_for_predicates")
        assert not hasattr(repro.paraphrase.tfidf, "smoothed_idf_value")
        tree = ast.parse(textwrap.dedent(inspect.getsource(_expand_tree)))
        loops = [node for node in ast.walk(tree) if isinstance(node, (ast.For, ast.While))]
        assert len(loops) == 3  # levels, frontier walks, row slots

    def test_kernel_knows_nothing_about_shards(self):
        from repro.analysis.engine import scan

        (module,) = scan([PACKAGE_ROOT / "rdf" / "kernel.py"])
        assert [name for name, _line in module.imports if "shard" in name] == []

    def test_adjacency_has_one_dialect(self):
        import repro.rdf
        import repro.rdf.graph

        for module in (repro.rdf, repro.rdf.graph):
            assert not hasattr(module, "Edge")
            assert not hasattr(module, "Direction")

    def test_engine_config_has_only_the_fields_some_caller_sets(self):
        from repro.serve import EngineConfig

        assert [field.name for field in dataclasses.fields(EngineConfig)] == [
            "k", "pool_size", "queue_limit", "deadline_s", "cache_size",
            "enable_aggregation",
        ]

    def test_one_pipeline_answers_whatever_the_load(self):
        """No degraded second pipeline: no pressure knob, no flag, no
        candidate trim, no result wrapper and no response key for it."""
        import repro.serve.engine
        from repro.core import GAnswer
        from repro.serve import EngineConfig
        from repro.serve.admission import AdmissionController
        from tests.test_docs import serve_parser

        assert "degrade_pressure" not in {f.name for f in dataclasses.fields(EngineConfig)}
        assert "candidate_limit" not in inspect.signature(GAnswer.__init__).parameters
        assert not hasattr(GAnswer, "_degrade_space")
        assert not hasattr(AdmissionController, "pressure")
        assert not hasattr(repro.serve.engine, "EngineResult")
        serve_flags = {flag for action in serve_parser()._actions for flag in action.option_strings}
        assert "--degrade-pressure" not in serve_flags
        assert '"degraded"' not in inspect.getsource(repro.serve.engine)

    def test_tracers_are_per_call_or_process_wide_never_per_instance(self):
        from repro.baselines import Deanna, TemplateQA
        from repro.core import GAnswer
        from repro.core.top_k import TopKSearch
        from repro.linking import EntityLinker
        from repro.paraphrase import ParaphraseMiner

        for cls in (GAnswer, EntityLinker, TopKSearch, Deanna, TemplateQA, ParaphraseMiner):
            assert "tracer" not in inspect.signature(cls.__init__).parameters, cls


    def test_matcher_has_one_edge_semantics(self):
        from repro.match.matcher import SubgraphMatcher

        assert list(inspect.signature(SubgraphMatcher.__init__).parameters) == [
            "self", "kg", "space", "max_matches",
        ]

    @pytest.mark.parametrize("name", ["repro.bundle", "repro.sparql.graph_executor"])
    def test_deleted_modules_do_not_import(self, name):
        with pytest.raises(ModuleNotFoundError):
            importlib.import_module(name)

    def test_lint_has_no_config_object_and_no_baseline(self):
        import repro.analysis
        import repro.analysis.engine

        assert list(inspect.signature(run_lint).parameters) == ["paths", "rules"]
        for module in (repro.analysis, repro.analysis.engine):
            assert not hasattr(module, "LintConfig")

    def test_parameters_no_caller_passed_stay_gone(self):
        from repro.baselines import Deanna
        from repro.core.top_k import TopKSearch
        from repro.eval import evaluate_system

        for function, name in (
            (Deanna.__init__, "max_candidates"),
            (TopKSearch.__init__, "max_matches_per_seed"),
            (evaluate_system, "tracer"),
        ):
            assert name not in inspect.signature(function).parameters, function

    def test_linker_has_one_scoring_path_and_no_new_parameter(self):
        from repro.linking import EntityLinker

        assert list(inspect.signature(EntityLinker.__init__).parameters) == [
            "self", "kg", "max_candidates", "min_score", "index", "max_degree",
        ]
        assert not hasattr(EntityLinker, "_score")
        assert not hasattr(EntityLinker, "_keep_best")

    def test_serving_facts_have_one_copy(self):
        """The question as asked is the answer-cache key, and the engine's
        metrics registry is the only tally of cache and admission events."""
        import repro.obs
        import repro.serve
        from repro.datasets import build_dbpedia_mini
        from repro.paraphrase import ParaphraseDictionary
        from repro.serve import AdmissionController, EngineConfig, LRUCache, QAEngine

        for name in ("normalize_question", "answer_cache_key"):
            assert not hasattr(repro.serve, name), name
        assert not hasattr(EngineConfig, "fingerprint")
        assert not hasattr(repro.obs, "MetricsLike")
        engine = QAEngine(build_dbpedia_mini(), ParaphraseDictionary())
        instances = (
            LRUCache(), AdmissionController(1), engine.answer_cache,
            engine.link_cache, engine.admission, engine.write_admission,
        )
        for instance in instances:
            for name in ("_hits", "_misses", "_evictions", "_admitted", "_rejected", "_peak"):
                assert not hasattr(instance, name), (instance, name)
        assert all(instance.metrics is engine.metrics for instance in instances[2:])

    def test_a_snapshot_holds_what_serving_reads(self):
        """A snapshot hands over no graph structure beside the store's
        columns: the label dict, the class and closure sections, the
        kernel rows and the cache installer that took them were deleted,
        not kept beside them."""
        from repro.rdf import snapshot
        from repro.rdf.graph import KnowledgeGraph

        for member in ("preload", "closure_caches", "label_index", "label_of", "is_class"):
            assert not hasattr(KnowledgeGraph, member), member
        assert list(inspect.signature(KnowledgeGraph.__init__).parameters) == [
            "self", "store",
        ]
        assert snapshot.FORMAT_VERSION == 7
        assert snapshot._SECTIONS == (
            "literals", "linker", "dictionary", "terms", "spo", "pos", "osp",
        )
        for helper in ("_closure_columns", "_decode_closure"):
            assert not hasattr(snapshot, helper), helper

    def test_one_integer_width_and_permutations_as_run_tables(self):
        """Format 7: every integer column a snapshot ships is 4-byte, its
        width spelled in one module, and each permutation's first column is
        a run table — no int64 column, no second place that picks a width,
        and no bisect over a column that repeats each key per triple."""
        import repro
        from repro.rdf import columns, snapshot
        from repro.rdf.backend import CompactBackend

        source = Path(repro.__file__).parent
        # Code, not prose: a docstring names ``array('i')`` in backquotes.
        integer_typecode = r"""(?<!`)\b(array|cast)\(\s*["'][hilqHILQ]["']"""
        for name in ("rdf/backend.py", "rdf/snapshot.py", "rdf/dictionary.py", "linking/index.py"):
            text = (source / name).read_text(encoding="utf-8")
            assert not re.search(integer_typecode, text), name
        assert (columns.WIDTH, columns.COLUMN_LIMIT) == (4, 2**31 - 1)
        assert not re.search(r"""["']q["']""", (source / "rdf/columns.py").read_text(encoding="utf-8"))
        assert not hasattr(CompactBackend, "_distinct")
        assert snapshot._SECTION_COLUMNS["spo"] == snapshot._SECTION_COLUMNS["pos"] == 4
        assert snapshot._SECTION_COLUMNS["osp"] == 4

    def test_literals_are_one_flag_column_in_every_store(self, tmp_path):
        """Built, compacted, overlaid and opened stores keep their literal
        bookkeeping as one byte per term id: no ``set`` of literal ids
        beside it, and no constructor that takes one."""
        from repro.datasets import build_dbpedia_mini
        from repro.paraphrase.dictionary import ParaphraseDictionary
        from repro.rdf.snapshot import compile_snapshot, load_snapshot
        from repro.rdf.store import TripleStore

        assert list(inspect.signature(TripleStore.__init__).parameters) == [
            "self", "backend", "dictionary", "literal_flags",
        ]
        kg = build_dbpedia_mini()
        built = kg.store
        compile_snapshot(tmp_path / "s.snap", kg, ParaphraseDictionary())
        opened = load_snapshot(tmp_path / "s.snap").kg.store
        assert len(opened.literal_flags) == len(opened.dictionary)
        for store in (built, built.compacted(), built.compacted().overlay(), opened):
            assert type(store.literal_flags) is bytearray
            assert store.literal_count() > 0
            for value in vars(store).values():
                assert not isinstance(value, (set, frozenset)), value

    def test_experiments_have_one_path(self):
        """The paper's tables come from ``repro experiments`` and are held
        by tier-1: no wrapper around pytest's benchmark plugin, its
        dependency or its fixture grows back beside them (``bench/`` is
        the perf harness)."""
        sources = [
            path
            for top in ("src", "tests", "bench", "benchmarks", "examples")
            for path in sorted((REPO_ROOT / top).rglob("*.py"))
        ]
        assert [
            str(path.relative_to(REPO_ROOT))
            for path in sources
            if path.name.startswith("bench_") and REPO_ROOT / "bench" not in path.parents
        ] == []
        assert sorted(p.name for p in (REPO_ROOT / "benchmarks").iterdir()) == ["output"]
        plugin = re.compile(r"pytest[_-]benchmark|def test_\w+\([^)]*\bbenchmark\b")
        assert [
            str(path.relative_to(REPO_ROOT))
            for path in sources
            if path != Path(__file__) and plugin.search(path.read_text())
        ] == []
        packaging = (REPO_ROOT / "pyproject.toml").read_text()
        assert not plugin.search(packaging) and "bench_" not in packaging

    def test_a_driver_takes_no_argument_but_the_one_with_a_caller(self):
        from repro.experiments.drivers import DRIVERS

        parameters = {
            driver.__name__: list(inspect.signature(driver).parameters)
            for driver in DRIVERS
        }
        assert {name: taken for name, taken in parameters.items() if taken} == {
            "figure6_runtime": ["distractors"],  # examples/benchmark_comparison.py
        }
        assert len(parameters) == len(DRIVERS) == 18

    def test_dataset_builders_lost_their_single_valued_parameters(self):
        from repro.datasets.patty_sim import (
            build_noisy_phrase_dataset,
            scale_phrase_dataset,
        )
        from repro.experiments.common import default_setup

        assert list(inspect.signature(build_noisy_phrase_dataset).parameters) == []
        assert list(inspect.signature(scale_phrase_dataset).parameters) == [
            "base", "phrases", "pairs_per_phrase", "entity_pool",
        ]
        assert list(inspect.signature(default_setup.__wrapped__).parameters) == [
            "distractors_per_entity",
        ]

    def test_sharding_is_what_the_benchmark_builds_and_no_more(self):
        """The sharding verdict (docs/deployment.md): its own timing
        harness and baseline file, the fork-pool segment build, online
        re-sharding and both ``--shards`` flags are gone; the backend and
        its snapshot form stay only while ``bench/`` builds them."""
        import repro.rdf.shard
        from repro.rdf.shard import ShardedBackend
        from repro.rdf.snapshot import compile_snapshot
        from repro.rdf.store import TripleStore
        from repro.serve import QAEngine

        assert not (REPO_ROOT / "scripts").exists()
        assert [
            path.name for path in REPO_ROOT.glob("BENCH*.json")
        ] == ["BENCHMARK.json"]
        for builder in (ShardedBackend.from_triples, TripleStore.sharded, compile_snapshot):
            assert "jobs" not in inspect.signature(builder).parameters, builder
        # The pool that built segments in parallel and its task state.
        assert {
            name for name, value in vars(repro.rdf.shard).items()
            if inspect.isfunction(value) and value.__module__ == "repro.rdf.shard"
        } == {"shard_of", "partition_triples", "_merge_distinct"}
        assert not hasattr(repro.rdf.shard, "_BUILD_STATE")
        assert list(inspect.signature(QAEngine.compact).parameters) == [
            "self", "snapshot_path",
        ]

    def test_a_sharded_snapshot_is_one_container(self, tmp_path):
        """A sharded compile writes its segments into the single-file
        format: no manifest, no member files, no segment loaded on demand."""
        import repro.rdf.snapshot
        from repro.datasets import build_dbpedia_mini
        from repro.paraphrase import ParaphraseDictionary
        from repro.rdf.shard import ShardedBackend
        from repro.rdf.snapshot import compile_snapshot

        for name in ("MANIFEST_VERSION", "_load_sharded"):
            assert not hasattr(repro.rdf.snapshot, name), name
        for name in ("lazy", "loaded_segments"):
            assert not hasattr(ShardedBackend, name), name
        compile_snapshot(tmp_path / "g.snap", build_dbpedia_mini(), ParaphraseDictionary(), shards=2)
        assert [path.name for path in tmp_path.iterdir()] == ["g.snap"]

    @pytest.mark.parametrize("command", [["compile", "g.snap"], ["compact"]])
    def test_neither_command_takes_shards(self, command, tmp_path, monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        with pytest.raises(SystemExit) as exit_info:
            main([*command, "--shards", "2"])
        assert exit_info.value.code == 2
        assert "--shards" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("command", ["lint", "shell", "serve", "eval"])
    def test_help_offers_neither_baseline_nor_bundle(self, command, capsys):
        with pytest.raises(SystemExit):
            main([command, "--help"])
        out = capsys.readouterr().out
        assert "--baseline" not in out and "--bundle" not in out


class TestCli:
    def test_lint_exits_zero_on_clean_tree(self, capsys):
        assert main(["lint", str(PACKAGE_ROOT)]) == 0
        out = capsys.readouterr().out
        assert "0 finding(s)" in out

    def test_lint_json_reports_shape(self, capsys):
        assert main(["lint", "--json", str(PACKAGE_ROOT)]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["ok"] is True
        assert payload["findings"] == []
        assert payload["files_scanned"] > 50
        assert set(payload["counts_by_rule"]) <= set(payload["rules"])
        assert payload["suppressed"] == 1

    def test_lint_fails_on_seeded_violation(self, tmp_path, capsys):
        # The CI gate in one test: a tree with a fresh violation exits 1.
        bad = tmp_path / "bad.py"
        bad.write_text(
            "import time\n\n\ndef deadline(budget):\n"
            "    return time.time() + budget\n"
        )
        assert main(["lint", str(bad)]) == 1
        out = capsys.readouterr().out
        assert "[monotonic-time]" in out

    def test_lint_rule_filter(self, tmp_path, capsys):
        bad = tmp_path / "bad.py"
        bad.write_text(
            "import time\n\n\ndef deadline(budget):\n"
            "    return time.time() + budget\n"
        )
        assert main(["lint", "--rule", "layering", str(bad)]) == 0
        assert main(["lint", "--rule", "monotonic-time", str(bad)]) == 1
        capsys.readouterr()

    def test_lint_list_rules(self, capsys):
        assert main(["lint", "--list-rules"]) == 0
        out = capsys.readouterr().out
        rules = ("lock-discipline", "frozen-store", "monotonic-time",
                 "layering", "exception-discipline", "instance-cycle")
        for rule in rules:
            assert rule in out
        assert len(out.strip().splitlines()) == len(rules)

    def test_lint_bad_rule_exits_two(self, capsys):
        assert main(["lint", "--rule", "no-such-rule", str(PACKAGE_ROOT)]) == 2
        capsys.readouterr()
