"""A fresh interpreter's path to its first answer (spawned by the bench).

``python bench/coldstart.py SNAPSHOT QUESTION`` imports the serving layer,
boots a :class:`repro.serve.QAEngine` from the snapshot, warms it, answers
the question, and prints one JSON line the moment the answer exists.  The
parent times spawn → that line; the phases inside are reported too.
"""

from __future__ import annotations

import json
import sys
import time


def main() -> int:
    started = time.perf_counter()
    snapshot, question = sys.argv[1], sys.argv[2]
    from repro.serve import QAEngine

    imported = time.perf_counter()
    engine = QAEngine.from_snapshot(snapshot)
    loaded = time.perf_counter()
    engine.warm()
    warmed = time.perf_counter()
    response = engine.ask(question, use_cache=False)
    answered = time.perf_counter()
    with open("/proc/self/status", encoding="utf-8") as handle:
        peak_kb = next(int(line.split()[1]) for line in handle if line.startswith("VmHWM:"))
    print(
        json.dumps(
            {
                "answers": response["answers"],
                "import_s": imported - started,
                "load_s": loaded - imported,
                "warm_s": warmed - loaded,
                "first_question_s": answered - warmed,
                "peak_rss_mb": peak_kb / 1024.0,
            }
        ),
        flush=True,
    )
    engine.close()
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
