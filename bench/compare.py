#!/usr/bin/env python3
"""Compare two sets of suite runs, one row per end-to-end metric × workload.

    python3 bench/compare.py --base runs/a1 runs/a2 ... --change runs/b1 runs/b2 ...

Each directory is the ``--out`` of one ``bench/run.py`` suite run (it holds
``results.json``).  Run the two sides alternately, at least ten of each:
the *i*-th base run is paired with the *i*-th change run.

For every row: each side's median and quartiles, the ratio of the medians
with its base, and a verdict against the metric's bound in BENCHMARK.json —

* ``improved``     there are at least ten pairs, the change wins at least
                   9/10 of them (ties count for neither) and the medians
                   differ by more than the base side's own inter-quartile
                   spread;
* ``regressed``    the change's median is worse than the base's by more
                   than the bound;
* ``unresolved``   a side's inter-quartile spread is wider than the bound,
                   and the runs do not separate completely — the row says
                   nothing either way;
* ``within bound`` otherwise.

Exits non-zero when any row regressed, a workload's ``failed_share`` grew,
or the two sides' answers (``qald_right`` / ``answers_sha256``) differ.
``--layers`` also lists the per-layer medians (no verdicts: they have no
bounds).
"""

from __future__ import annotations

import argparse
import json
import statistics
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, _q2, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def verdict(base: list[float], change: list[float], better: str, bound: float) -> str:
    """The row's verdict; see the module docstring for the rules."""
    sign = -1.0 if better == "higher" else 1.0  # sign * value: lower is better
    b_q1, b_med, b_q3 = quartiles(base)
    c_q1, c_med, c_q3 = quartiles(change)
    worse_by = sign * (c_med - b_med) / abs(b_med)
    pairs = [(b, c) for b, c in zip(base, change) if b != c]
    wins = sum(sign * c < sign * b for b, c in pairs)
    if len(pairs) >= 10 and wins >= 0.9 * len(pairs) and sign * (b_med - c_med) > b_q3 - b_q1:
        return "improved"
    wide = max((b_q3 - b_q1) / abs(b_med), (c_q3 - c_q1) / abs(c_med)) > bound
    all_better = max(sign * c for c in change) < min(sign * b for b in base)
    all_worse = min(sign * c for c in change) > max(sign * b for b in base)
    if wide and not all_better and not all_worse:
        return "unresolved"
    return "regressed" if worse_by > bound else "within bound"


def load(directories: list[Path]) -> list[dict]:
    return [
        json.loads((directory / "results.json").read_text(encoding="utf-8"))["workloads"]
        for directory in directories
    ]


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--base", nargs="+", type=Path, required=True)
    parser.add_argument("--change", nargs="+", type=Path, required=True)
    parser.add_argument("--layers", action="store_true", help="also list per-layer medians")
    args = parser.parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    base, change = load(args.base), load(args.change)

    bad = False
    print(
        f"{'workload':26s} {'metric':16s} {'base median [q1, q3]':>36s} "
        f"{'change median [q1, q3]':>36s} {'ratio':>7s}  verdict"
    )
    for workload in (w["name"] for w in spec["workloads"]):
        for metric in spec["end_to_end"]:
            name = metric["name"]
            b = [run[workload]["end_to_end"][name] for run in base]
            c = [run[workload]["end_to_end"][name] for run in change]
            (b1, bm, b3), (c1, cm, c3) = quartiles(b), quartiles(c)
            outcome = verdict(b, c, metric["better"], metric["bound"])
            bad |= outcome == "regressed"
            print(
                f"{workload:26s} {name:16s} {bm:12.4f} [{b1:10.4f},{b3:10.4f}] "
                f"{cm:12.4f} [{c1:10.4f},{c3:10.4f}] {cm / bm:7.3f}  {outcome} "
                f"(base {bm:.4f} {metric['unit']}, bound {metric['bound']})"
            )
        shares = []
        for side in (base, change):
            attempted = sum(run[workload]["attempted"] for run in side)
            shares.append(sum(run[workload]["failed"] for run in side) / attempted)
        grew = shares[1] > shares[0]
        bad |= grew
        print(
            f"{workload:26s} {'failed_share':16s} {shares[0]:12.6f} {'':24s}"
            f"{shares[1]:12.6f} {'':32s} {'LARGER' if grew else 'not larger'}"
        )
        answers = {
            json.dumps(
                [run[workload]["per_layer"]["qald_right"],
                 run[workload]["notes"]["untraced"].get("answers_sha256")]
            )
            for run in base + change
        }
        if len(answers) > 1:
            bad = True
            print(f"{workload:26s} answers differ between runs: {sorted(answers)}")
        if args.layers:
            for metric in spec["per_layer"]:
                name = metric["name"]
                bm = statistics.median(run[workload]["per_layer"][name] for run in base)
                cm = statistics.median(run[workload]["per_layer"][name] for run in change)
                if bm or cm:
                    ratio = f"{cm / bm:7.3f}" if bm else "    n/a"
                    print(f"  {name:42s} {bm:14.4f} {cm:14.4f} {ratio} (base {bm:.4f} {metric['unit']})")
    return 1 if bad else 0


if __name__ == "__main__":
    raise SystemExit(main())
