"""Command-line interface: ask questions, run SPARQL, evaluate benchmarks.

Usage::

    python -m repro ask "Who is the mayor of Berlin?"
    python -m repro --trace ask "Who is the mayor of Berlin?"  # span tree
    python -m repro --trace-json trace.json ask "..."          # JSON export
    python -m repro shell                 # interactive question loop
    python -m repro serve --port 8765     # warm engine as a JSON HTTP service
    python -m repro sparql "SELECT ?x WHERE { ?x <ont:mayor> ?y }"
    python -m repro eval                  # the QALD benchmark summary
    python -m repro eval --served         # same benchmark through the engine
    python -m repro dictionary            # mined paraphrase dictionary
    python -m repro experiments OUT_DIR   # every table of the paper
    python -m repro compile graph.snap    # the deploy artefact (--snapshot)
    python -m repro compact --url URL     # fold a running server's delta
    python -m repro lint                  # project invariants, statically
"""

from __future__ import annotations

import argparse
import math
import sys

from repro import obs
from repro.core import GAnswer
from repro.exceptions import ReproError
from repro.experiments.common import default_setup


def _load_state(args):
    """``(kg, dictionary, base_linker)`` from ``--snapshot``, else from source.

    A compiled snapshot restores the prebuilt linker index too; the
    built-from-source setup leaves the linker (``None``) to the caller.
    """
    snapshot = getattr(args, "snapshot", None)
    if snapshot:
        from repro.rdf.snapshot import load_snapshot

        state = load_snapshot(snapshot)
        return state.kg, state.dictionary, state.build_linker()
    setup = default_setup(args.distractors)
    return setup.kg, setup.dictionary, None


def _build_system(args) -> GAnswer:
    kg, dictionary, linker = _load_state(args)
    return GAnswer(
        kg,
        dictionary,
        k=args.k,
        enable_aggregation=args.aggregation,
        linker=linker,
    )


def _engine_config(args):
    """:class:`EngineConfig` from CLI args.

    A flag that was not given — ``shell`` and ``eval --served`` have none
    of them, and ``serve`` declares them without a default — falls back
    to ``EngineConfig``'s field default, the one place those are written.
    """
    from repro.serve import EngineConfig

    defaults = EngineConfig()
    return EngineConfig(
        k=args.k,
        pool_size=getattr(args, "pool_size", defaults.pool_size),
        queue_limit=getattr(args, "queue_limit", defaults.queue_limit),
        deadline_s=getattr(args, "deadline", defaults.deadline_s) or None,
        cache_size=getattr(args, "cache_size", defaults.cache_size),
        enable_aggregation=args.aggregation,
    )


def _build_engine(args):
    """A warm :class:`repro.serve.QAEngine` from serve-flavored CLI args."""
    from repro.serve import QAEngine

    config = _engine_config(args)
    kg, dictionary, base_linker = _load_state(args)
    engine = QAEngine(kg, dictionary, config, base_linker=base_linker)
    engine.warm()
    return engine


def _print_answer(result) -> None:
    if result.boolean is not None:
        print("yes" if result.boolean else "no")
    elif result.answers:
        for term in result.answers:
            print(str(term))
    else:
        print(f"(no answer: {result.failure})", file=sys.stderr)
    if result.semantic_graph is not None:
        print(
            f"-- {result.understanding_time * 1000:.1f} ms understanding, "
            f"{result.evaluation_time * 1000:.1f} ms evaluation",
            file=sys.stderr,
        )


def cmd_ask(args) -> int:
    system = _build_system(args)
    result = system.answer(args.question)
    if args.explain:
        from repro.core.explain import explain

        setup = default_setup(args.distractors)
        print(explain(setup.kg, result))
        return 0 if result.processed else 1
    _print_answer(result)
    if args.sparql and result.sparql_queries:
        print("\n-- top match as SPARQL:", file=sys.stderr)
        print(result.sparql_queries[0])
    return 0 if result.processed else 1


def cmd_shell(args) -> int:
    # One warm engine for the whole loop: the KG, dictionary, linker index
    # and kernel are built exactly once, and repeated questions hit the
    # answer cache — the shell shares the server's serving path.
    engine = _build_engine(args)
    print("gAnswer shell over the mini-DBpedia KG.  Empty line to exit.")
    try:
        while True:
            try:
                question = input("? ").strip()
            except (EOFError, KeyboardInterrupt):
                break
            if not question:
                break
            _print_answer(engine.answer(question))
    finally:
        engine.close()
    return 0


def cmd_serve(args) -> int:
    import os
    import signal

    from repro.serve import build_server

    ingest_token = args.ingest_token or os.environ.get("REPRO_INGEST_TOKEN") or None
    if ingest_token and args.workers > 1:
        # Each pre-fork worker holds its own copy-on-write view of the
        # store; a write applied through one worker would silently
        # diverge the others.  Live ingest is single-worker by design.
        raise SystemExit(
            "error: --ingest-token requires --workers 1 (each pre-fork "
            "worker has a private store copy; writes would diverge them)"
        )
    source = f"snapshot {args.snapshot}" if args.snapshot else "dbpedia-mini"
    if args.workers > 1:
        # Pre-fork: load the graph and build its shared structures here,
        # once; bind, print the address, then fork the workers — each
        # builds and warms its own engine over that state — and
        # supervise.  This process never holds an engine.
        from repro.serve import PreforkServer, QAEngine

        config = _engine_config(args)
        kg, dictionary, base_linker = _load_state(args)
        supervisor = PreforkServer(
            QAEngine.factory(kg, dictionary, config, base_linker),
            host=args.host, port=args.port, workers=args.workers,
        )
        try:
            host, port = supervisor.start()
        except OSError as error:
            raise ReproError(f"cannot listen on {args.host}:{args.port}: {error}") from error
        print(
            f"repro serve listening on http://{host}:{port} "
            f"(source={source}, workers={args.workers}, "
            f"pool={config.pool_size}x{args.workers}, "
            f"store v{kg.store_version})",
            flush=True,
        )
        return supervisor.run()
    engine = _build_engine(args)
    try:
        server = build_server(
            engine, host=args.host, port=args.port, ingest_token=ingest_token
        )
    except OSError as error:
        raise ReproError(f"cannot listen on {args.host}:{args.port}: {error}") from error
    host, port = server.server_address[:2]
    # SIGTERM (a process manager's stop) raises KeyboardInterrupt, as
    # SIGINT does, so serve_forever unwinds and the cleanup below runs.
    # It must raise: a handler that called shutdown() would wait on the
    # loop it interrupted.
    previous = signal.signal(signal.SIGTERM, signal.default_int_handler)
    try:
        print(
            f"repro serve listening on http://{host}:{port} "
            f"(source={source}, pool={engine.config.pool_size}, "
            f"capacity={engine.admission.capacity}, "
            f"ingest={'on' if ingest_token else 'off'}, "
            f"store v{engine.store_version})",
            flush=True,
        )
        server.serve_forever()
    except KeyboardInterrupt:
        pass
    finally:
        signal.signal(signal.SIGTERM, previous)
        server.shutdown()
        server.server_close()
        engine.close()
    return 0


def cmd_sparql(args) -> int:
    from repro.sparql import evaluate, parse_query

    setup = default_setup(args.distractors)
    result = evaluate(setup.kg.store, parse_query(args.query))
    if isinstance(result, bool):
        print("yes" if result else "no")
    elif isinstance(result, int):
        print(result)
    else:
        for row in result:
            print("  ".join(f"{var}={term}" for var, term in sorted(
                row.items(), key=lambda kv: kv[0].name
            )))
    return 0


def cmd_eval(args) -> int:
    from repro.datasets import qald_questions
    from repro.eval import evaluate_system, format_table

    # --served: the same questions through the serving engine's full
    # request path (admission, slots, cache); the engine is the system.
    system = _build_engine(args) if args.served else _build_system(args)
    try:
        run = evaluate_system(system, qald_questions(), "gAnswer (repro)")
    finally:
        if args.served:
            system.close()
    summary = run.summary
    print(
        format_table(
            ["system", "processed", "right", "partially", "recall", "precision", "F-1"],
            [[
                run.system_name, summary.processed, summary.right,
                summary.partial, summary.recall, summary.precision, summary.f1,
            ]],
            title="QALD benchmark (99 questions)",
        )
    )
    if args.failures:
        print("\nfailure classes:")
        for reason, count in sorted(run.failure_counts().items()):
            print(f"  {reason}: {count}")
    return 0


def cmd_experiments(args) -> int:
    from pathlib import Path

    from repro.eval.qald_format import write_qald_results
    from repro.experiments.drivers import DRIVERS
    from repro.experiments.online import run_ganswer

    out_dir = Path(args.out_dir)
    try:
        out_dir.mkdir(parents=True, exist_ok=True)
    except OSError as error:  # a file is in the way
        print(f"error: cannot create {out_dir}: {error}", file=sys.stderr)
        return 2
    for driver in DRIVERS:
        result = driver()
        path = out_dir / f"{result.experiment_id}.txt"
        path.write_text(result.render() + "\n", encoding="utf-8")
        print(f"{path}: {result.title}")
    # Per question, in QALD-3 format (the paper's full version ships these).
    print(write_qald_results(run_ganswer(), out_dir / "qald_results.json"))
    return 0


def cmd_compile(args) -> int:
    import time
    from pathlib import Path

    from repro.rdf.snapshot import compile_snapshot

    setup = default_setup(args.distractors)
    started = time.perf_counter()
    info = compile_snapshot(Path(args.output), setup.kg, setup.dictionary)
    elapsed = time.perf_counter() - started
    print(
        f"compiled {info.triples} triples, {info.terms} terms, "
        f"{info.phrases} phrases → {info.path} "
        f"({info.total_bytes} bytes, {elapsed:.2f} s)"
    )
    if args.verbose:
        for name, size in sorted(
            info.section_bytes.items(), key=lambda kv: -kv[1]
        ):
            print(f"  {name:12s} {size:>10d} bytes")
    return 0


def cmd_compact(args) -> int:
    """Trigger online compaction on a running ``repro serve`` instance.

    POSTs the authenticated ``/compact`` endpoint: the server re-compacts
    its overlay store (base + delta + tombstones) into a fresh frozen
    base and swaps it in without dropping a request.
    """
    import json as json_module
    import os
    import urllib.error
    import urllib.request

    token = args.token or os.environ.get("REPRO_INGEST_TOKEN") or None
    if not token:
        print(
            "error: an ingest token is required (--token or REPRO_INGEST_TOKEN)",
            file=sys.stderr,
        )
        return 2
    payload: dict = {}
    if args.snapshot_out is not None:
        payload["snapshot_path"] = args.snapshot_out
    try:
        request = urllib.request.Request(
            f"{args.url.rstrip('/')}/compact",
            data=json_module.dumps(payload).encode("utf-8"),
            headers={
                "Content-Type": "application/json",
                "X-Ingest-Token": token,
            },
            method="POST",
        )
    except ValueError as error:  # "unknown url type"
        print(f"error: --url {args.url!r} is not a server URL: {error}", file=sys.stderr)
        return 2
    try:
        with urllib.request.urlopen(request, timeout=args.timeout) as response:
            body = json_module.loads(response.read())
    except urllib.error.HTTPError as error:
        detail = error.read().decode("utf-8", "replace")
        print(f"error: server answered {error.code}: {detail}", file=sys.stderr)
        return 1
    except (urllib.error.URLError, OSError) as error:
        print(f"error: cannot reach {args.url}: {error}", file=sys.stderr)
        return 1
    print(
        f"compacted {body['triples']} triples into a fresh base "
        f"(store v{body['store_version']})"
    )
    if body.get("snapshot"):
        print(f"snapshot written to {body['snapshot']}")
    return 0


def cmd_lint(args) -> int:
    from pathlib import Path

    from repro.analysis import run_lint
    from repro.analysis.report import render_json, render_text
    from repro.analysis.rules import ALL_RULES

    if args.list_rules:
        for rule in ALL_RULES:
            print(f"{rule.name:22s} {rule.summary}")
        return 0
    if args.paths:
        paths = [Path(path) for path in args.paths]
    else:
        # Default: the installed repro package itself, wherever it lives.
        paths = [Path(__file__).resolve().parent]
    report = run_lint(paths, args.rule)
    if args.json:
        print(render_json(report))
    else:
        print(render_text(report))
    return 0 if report.ok else 1


def cmd_dictionary(args) -> int:
    from repro.paraphrase.path_mining import describe_path

    setup = default_setup(args.distractors)
    for phrase in sorted(setup.dictionary.phrases()):
        mappings = setup.dictionary.lookup(phrase)
        if not mappings:
            continue
        rendered = ", ".join(
            f"{describe_path(setup.kg, m.path)} ({m.confidence:.2f})"
            for m in mappings
        )
        print(f"{' '.join(phrase):30s} → {rendered}")
    return 0


def _bounded_int(text: str, lower: int, upper: int = sys.maxsize) -> int:
    value = int(text)
    if value < lower:
        raise argparse.ArgumentTypeError(f"must be at least {lower}, got {value}")
    if value > upper:
        raise argparse.ArgumentTypeError(f"must be at most {upper}, got {value}")
    return value


def _port(text: str) -> int:
    return _bounded_int(text, 0, 65535)


def _positive_seconds(text: str) -> float:
    value = float(text)
    if not 0 < value < math.inf:  # NaN fails both comparisons
        raise argparse.ArgumentTypeError(f"must be positive and finite, got {text}")
    return value


def _positive_int(text: str) -> int:
    return _bounded_int(text, 1)


def _non_negative_int(text: str) -> int:
    return _bounded_int(text, 0)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Graph data driven natural language QA over RDF "
        "(gAnswer, SIGMOD 2014 reproduction)",
    )
    parser.add_argument(
        "--k", type=_positive_int, default=10, help="top-k matches (default 10)"
    )
    parser.add_argument(
        "--aggregation", action="store_true",
        help="enable the superlative post-processing extension",
    )
    parser.add_argument(
        "--distractors", type=_non_negative_int, default=0,
        help="label clones per entity (DBpedia-scale ambiguity)",
    )
    parser.add_argument(
        "--trace", action="store_true",
        help="record per-stage spans and print the span tree to stderr",
    )
    parser.add_argument(
        "--trace-json", metavar="FILE", default=None,
        help="export the recorded trace (spans + counters) as JSON; "
        "'-' writes to stdout",
    )
    commands = parser.add_subparsers(dest="command", required=True)

    def add_snapshot_flag(sub: argparse.ArgumentParser) -> None:
        sub.add_argument(
            "--snapshot", metavar="FILE", default=None,
            help="load a compiled snapshot (repro compile) instead of "
            "building the KG and dictionary from source",
        )

    ask = commands.add_parser("ask", help="answer one question")
    ask.add_argument("question")
    ask.add_argument("--sparql", action="store_true", help="print the top match's SPARQL")
    ask.add_argument(
        "--explain", action="store_true", help="print the full derivation trace"
    )
    ask.set_defaults(func=cmd_ask)

    shell = commands.add_parser("shell", help="interactive question loop")
    add_snapshot_flag(shell)
    shell.set_defaults(func=cmd_shell)

    serve = commands.add_parser(
        "serve", help="run the warm QA engine as a JSON HTTP service"
    )
    # Engine tunables carry no default here: an absent flag stays off the
    # namespace and _engine_config falls back to EngineConfig's own.
    unset = argparse.SUPPRESS
    serve.add_argument("--host", default="127.0.0.1", help="bind address")
    serve.add_argument(
        "--port", type=_port, default=8765, help="bind port (0 = ephemeral)"
    )
    serve.add_argument(
        "--workers", type=_positive_int, default=1,
        help="worker processes (>1 = pre-fork with SO_REUSEPORT; each "
        "worker builds its own engine, sharing the mmapped graph pages)",
    )
    serve.add_argument(
        "--pool-size", type=int, default=unset,
        help="concurrent answering slots",
    )
    serve.add_argument(
        "--queue-limit", type=int, default=unset,
        help="requests allowed to wait for a slot (excess → HTTP 429)",
    )
    serve.add_argument(
        "--deadline", type=float, default=unset,
        help="default per-request budget in seconds (0 disables)",
    )
    serve.add_argument(
        "--cache-size", type=int, default=unset,
        help="answer cache entries (0 disables caching)",
    )
    serve.add_argument(
        "--ingest-token", metavar="TOKEN", default=None,
        help="enable the authenticated POST /ingest and /compact write "
        "endpoints with this shared secret (or set REPRO_INGEST_TOKEN); "
        "requires --workers 1",
    )
    add_snapshot_flag(serve)
    serve.set_defaults(func=cmd_serve)

    sparql = commands.add_parser("sparql", help="run a SPARQL query on the KG")
    sparql.add_argument("query")
    sparql.set_defaults(func=cmd_sparql)

    evaluate = commands.add_parser("eval", help="run the QALD benchmark")
    evaluate.add_argument("--failures", action="store_true", help="show failure classes")
    evaluate.add_argument(
        "--served", action="store_true",
        help="run every question through the warm QAEngine (admission + cache) "
        "instead of a direct pipeline — accuracy must be identical",
    )
    add_snapshot_flag(evaluate)
    evaluate.set_defaults(func=cmd_eval)

    dictionary = commands.add_parser("dictionary", help="show the mined dictionary")
    dictionary.set_defaults(func=cmd_dictionary)

    experiments = commands.add_parser(
        "experiments",
        help="regenerate every table and figure of the paper's evaluation",
    )
    experiments.add_argument(
        "out_dir", metavar="OUT_DIR",
        help="directory for <experiment_id>.txt and qald_results.json",
    )
    experiments.set_defaults(func=cmd_experiments)

    lint = commands.add_parser(
        "lint",
        help="statically check project invariants (lock discipline, "
        "frozen stores, monotonic time, layering, exceptions)",
    )
    lint.add_argument(
        "paths", nargs="*",
        help="files/directories to scan (default: the repro package)",
    )
    lint.add_argument(
        "--rule", action="append", metavar="NAME", default=None,
        help="run only this rule (repeatable; see --list-rules)",
    )
    lint.add_argument(
        "--json", action="store_true", help="machine-readable report on stdout"
    )
    lint.add_argument(
        "--list-rules", action="store_true", help="print the rule catalog and exit"
    )
    lint.set_defaults(func=cmd_lint)

    compile_cmd = commands.add_parser(
        "compile",
        help="compile the KG + dictionary into an id-stable snapshot for "
        "near-instant cold start (load with --snapshot)",
    )
    compile_cmd.add_argument("output", help="snapshot file to write (e.g. graph.snap)")
    compile_cmd.add_argument(
        "--verbose", action="store_true", help="print per-section sizes"
    )
    compile_cmd.set_defaults(func=cmd_compile)

    compact = commands.add_parser(
        "compact",
        help="re-compact a running server's overlay store (base + delta) "
        "into a fresh frozen base, swapped in without downtime",
    )
    compact.add_argument(
        "--url", default="http://127.0.0.1:8765",
        help="base URL of the running repro serve instance",
    )
    compact.add_argument(
        "--token", default=None,
        help="ingest token (default: the REPRO_INGEST_TOKEN environment "
        "variable)",
    )
    compact.add_argument(
        "--snapshot-out", metavar="FILE", default=None,
        help="also persist a compiled snapshot of the compacted state "
        "(a path on the server's filesystem)",
    )
    compact.add_argument(
        "--timeout", type=_positive_seconds, default=600.0,
        help="seconds to wait for the compaction to finish",
    )
    compact.set_defaults(func=cmd_compact)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if not (args.trace or args.trace_json):
            return args.func(args)

        # Tracing: install a recording tracer for the whole command; every
        # component (pipeline, baselines, search, linker, miner) picks it up.
        tracer = obs.Tracer()
        with obs.use_tracer(tracer):
            rc = args.func(args)
    except ReproError as error:
        # A malformed query, an unreadable snapshot, an unknown lint rule:
        # the user's to fix, so one line and the usage-error exit code.
        print(f"error: {error}", file=sys.stderr)
        return 2
    if args.trace:
        rendered = tracer.render()
        if rendered:
            print("\n-- trace:", file=sys.stderr)
            print(rendered, file=sys.stderr)
    if args.trace_json:
        payload = tracer.to_json(indent=2)
        if args.trace_json == "-":
            print(payload)
        else:
            try:
                with open(args.trace_json, "w", encoding="utf-8") as handle:
                    handle.write(payload + "\n")
            except OSError as exc:
                print(f"error: cannot write trace JSON: {exc}", file=sys.stderr)
                return 1
            print(f"-- trace JSON written to {args.trace_json}", file=sys.stderr)
    return rc


if __name__ == "__main__":
    raise SystemExit(main())
