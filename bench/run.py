#!/usr/bin/env python3
"""The repository's one benchmark: five workloads, named metrics.

Two ways to run it, same code underneath::

    # one workload, one mode — what BENCHMARK.json's command is given
    python3 bench/run.py --workload http_fresh_zipf --seed 1 --seconds 15 --trace 0

    # the whole suite: every workload untraced, then traced
    python3 bench/run.py --seed 1 --out runs/a

A single run builds its inputs from ``--seed``, sets up (several times,
reporting the median), measures for ``--seconds``, checks the answers, and
prints every metric by name with its unit; the last line of standard
output is one JSON object ``{correct, attempted, failed, metrics}`` holding
the end-to-end metrics (``--trace 0``) or the per-layer metrics
(``--trace 1``).  A correctness gate that fails stops the run before any
metric is printed (exit code 1).  Files are written under ``--out`` only
(default ``.bench_out/<workload>`` in the checkout): ``inputs.json``, the
run record, and ``trace.json`` from a traced run.

The suite form writes ``results.json``, ``inputs.json`` and ``trace.json``
into ``--out``; ``bench/compare.py`` takes such directories.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SMOKE_SECONDS = 2.0


def load_spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def workload_functions() -> dict:
    from bench import http_workloads, inproc_workloads

    return {
        "http_keepalive_miss": http_workloads.http_keepalive_miss,
        "http_fresh_zipf": http_workloads.http_fresh_zipf,
        "inproc_explosion_backends": inproc_workloads.inproc_explosion_backends,
        "http_ingest_mixed": http_workloads.http_ingest_mixed,
        "offline_build_200k": inproc_workloads.offline_build_200k,
    }


def build_parser(spec: dict) -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument(
        "--workload", choices=[w["name"] for w in spec["workloads"]], default=None,
        help="run this workload once; omitted = the whole suite, both modes",
    )
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument(
        "--seconds", type=float, default=None,
        help=f"measured window (default {spec['run_seconds']}; {SMOKE_SECONDS} under --smoke)",
    )
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", type=Path, default=None, help="directory for the run's files")
    parser.add_argument(
        "--clients", type=int, default=None,
        help="client threads of the load generator (default min(2, nproc))",
    )
    parser.add_argument(
        "--smoke", action="store_true",
        help="tiny inputs, one set-up cycle, ~2 s windows: checks the harness, not the program",
    )
    return parser


def main(argv: list[str] | None = None) -> int:
    if not (ROOT / "src" / "repro").is_dir():
        print(f"error: {ROOT / 'src' / 'repro'} is missing; nothing to benchmark", file=sys.stderr)
        return 2
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]
    from bench.common import MAX_CLIENTS

    spec = load_spec()
    parser = build_parser(spec)
    args = parser.parse_args(argv)
    if args.clients is None:
        args.clients = MAX_CLIENTS
    if not 1 <= args.clients <= MAX_CLIENTS:
        parser.error(
            f"--clients {args.clients}: this host has {os.cpu_count()} CPUs; the generator "
            f"uses at most {MAX_CLIENTS} client threads so that it never measures itself"
        )
    if args.seconds is None:
        args.seconds = SMOKE_SECONDS if args.smoke else float(spec["run_seconds"])
    if args.workload is None:
        return run_suite(args, spec)
    return run_one(args, spec)


# --------------------------------------------------------------------- #
# One workload, one mode
# --------------------------------------------------------------------- #

def run_one(args, spec: dict) -> int:
    from bench import inputs
    from bench.common import GateError, Params

    out = args.out if args.out is not None else ROOT / ".bench_out" / args.workload
    params = Params(
        workload=args.workload, seed=args.seed, seconds=args.seconds,
        trace=bool(args.trace), clients=args.clients, smoke=args.smoke, out=out,
    )
    host = inputs.host_stamp()
    shutil.rmtree(params.work, ignore_errors=True)
    params.work.mkdir(parents=True)
    try:
        outcome = workload_functions()[args.workload](params)
    except GateError as error:
        print(f"GATE FAILED ({args.workload}): {error}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(params.work, ignore_errors=True)
    outcome.layers["failed_share"] = outcome.failed / outcome.attempted

    end_to_end = {m["name"]: m for m in spec["end_to_end"]}
    per_layer = {m["name"]: m for m in spec["per_layer"]}
    unknown = (set(outcome.e2e) - set(end_to_end)) | (set(outcome.layers) - set(per_layer))
    missing = set(end_to_end) - set(outcome.e2e)
    if unknown or missing:
        print(
            f"error: metrics out of step with BENCHMARK.json: unknown {sorted(unknown)}, "
            f"missing {sorted(missing)}", file=sys.stderr,
        )
        return 1
    # A per-layer metric this workload does not exercise reads 0.
    layers = {name: float(outcome.layers.get(name, 0.0)) for name in per_layer}

    (out / "inputs.json").write_text(
        json.dumps(
            {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
             "clients": args.clients, "smoke": args.smoke, "host": host,
             "digests": outcome.inputs}, indent=2,
        ) + "\n", encoding="utf-8",
    )
    if params.trace:
        outcome.recorder.write(out / "trace.json")
    record = {
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "attempted": outcome.attempted, "failed": outcome.failed,
        "end_to_end": outcome.e2e, "per_layer": layers, "notes": outcome.notes,
    }
    (out / f"run-trace{args.trace}.json").write_text(
        json.dumps(record, indent=2) + "\n", encoding="utf-8"
    )

    chosen, units = (layers, per_layer) if params.trace else (outcome.e2e, end_to_end)
    for name, value in chosen.items():
        print(f"{args.workload:26s} {name:42s} {value:16.6f} {units[name]['unit']}")
    print(
        json.dumps(
            {
                "correct": True,
                "attempted": outcome.attempted,
                "failed": outcome.failed,
                "metrics": {
                    name: {"value": value, "unit": units[name]["unit"]}
                    for name, value in chosen.items()
                },
            }
        )
    )
    return 0


# --------------------------------------------------------------------- #
# The whole suite
# --------------------------------------------------------------------- #

def run_suite(args, spec: dict) -> int:
    """Every workload untraced, then traced, each in its own interpreter
    (so ``peak_rss_mb`` of the in-process workload is its own)."""
    out = args.out if args.out is not None else ROOT / ".bench_out" / f"suite-seed{args.seed}"
    out.mkdir(parents=True, exist_ok=True)
    results: dict[str, dict] = {}
    for workload in (w["name"] for w in spec["workloads"]):
        for trace in (0, 1):
            command = [
                sys.executable, str(Path(__file__).resolve()),
                "--workload", workload, "--seed", str(args.seed),
                "--seconds", str(args.seconds), "--trace", str(trace),
                "--clients", str(args.clients), "--out", str(out / workload),
            ] + (["--smoke"] if args.smoke else [])
            done = subprocess.run(command, stdout=subprocess.PIPE, text=True)
            for line in done.stdout.splitlines():
                if not line.startswith("{"):  # the result line is in run-trace<N>.json
                    print(line)
            if done.returncode != 0:
                print(f"error: {workload} (trace {trace}) exited {done.returncode}", file=sys.stderr)
                return done.returncode
        untraced = json.loads((out / workload / "run-trace0.json").read_text(encoding="utf-8"))
        traced = json.loads((out / workload / "run-trace1.json").read_text(encoding="utf-8"))
        results[workload] = {
            "end_to_end": untraced["end_to_end"],
            "per_layer": traced["per_layer"],
            "attempted": untraced["attempted"] + traced["attempted"],
            "failed": untraced["failed"] + traced["failed"],
            "notes": {"untraced": untraced["notes"], "traced": traced["notes"]},
        }
    digests = {
        name: results[name]["notes"]["untraced"]["answers_sha256"]
        for name in ("http_keepalive_miss", "http_fresh_zipf", "inproc_explosion_backends")
    }
    if len(set(digests.values())) != 1:
        print(f"GATE FAILED (suite): answers_sha256 differs across workloads: {digests}", file=sys.stderr)
        return 1

    def gathered(name: str) -> dict:
        return {
            workload: json.loads((out / workload / name).read_text(encoding="utf-8"))
            for workload in results
        }

    (out / "results.json").write_text(
        json.dumps({"seed": args.seed, "seconds": args.seconds, "smoke": args.smoke,
                    "workloads": results}, indent=2) + "\n", encoding="utf-8",
    )
    (out / "inputs.json").write_text(json.dumps(gathered("inputs.json"), indent=2) + "\n", encoding="utf-8")
    (out / "trace.json").write_text(json.dumps(gathered("trace.json")) + "\n", encoding="utf-8")
    print(f"results written to {out / 'results.json'}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
