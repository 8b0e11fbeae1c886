"""Smoke-size self-test of the benchmark itself.

Runs every workload at the smoke size (q=8 classify, q=2 orbits) with
tracing off and on, and checks that each run emits exactly the metric names
BENCHMARK.json declares and passes its output checks.  Then it feeds a
deliberately wrong expected label (classify) and a wrong pinned orbit size
(orbits) and checks that the run reports failures.  Takes about half a
minute.  Run from the repository root::

    python3 perfbench/selftest.py
"""

from __future__ import annotations

import json
import os
import sys

import run


def declared(kind: str) -> set[str]:
    with open(os.path.join(run.ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return {m["name"] for m in json.load(fh)[kind]}


def check(ok: bool, what: str, problems: list[str]) -> None:
    print(("ok    " if ok else "FAIL  ") + what)
    if not ok:
        problems.append(what)


def main() -> int:
    problems: list[str] = []
    for workload in run.WORKLOADS:
        for trace, kind in ((False, "end_to_end"), (True, "per_layer")):
            res = run.execute(workload, 1, 1.0, trace, scale=run.SMOKE)["result"]
            check(set(res["metrics"]) == declared(kind),
                  "%s trace=%d emits every %s metric" % (workload, trace, kind), problems)
            check(res["correct"] and res["failed"] == 0 and res["attempted"] > 0,
                  "%s trace=%d passes its output checks" % (workload, trace), problems)

    inputs = run.classify_inputs(1, run.SMOKE)
    rnd = inputs["rounds"][0]
    i = next(i for i, r in enumerate(rnd) if r[3] is not None)
    q, kind, payload, label = rnd[i]
    rnd[i] = (q, kind, payload, "Sigma1" if label != "Sigma1" else "Sigma3")
    res = run.execute("classify", 1, 0.0, False, scale=run.SMOKE, inputs=inputs)["result"]
    check(res["failed"] >= 1 and not res["correct"],
          "classify: a wrong expected label gives error_rate %.4f > 0"
          % (res["failed"] / res["attempted"]), problems)

    inputs = run.orbits_inputs(1, run.SMOKE)
    inputs["sizes"] = dict(inputs["sizes"], Sigma22=inputs["sizes"]["Sigma22"] + 1)
    res = run.execute("orbits", 1, 0.0, False, scale=run.SMOKE, inputs=inputs)["result"]
    check(res["failed"] >= 1 and not res["correct"],
          "orbits: a wrong pinned orbit size gives error_rate %.4f > 0"
          % (res["failed"] / res["attempted"]), problems)

    print("selftest: %s" % ("FAILED: " + "; ".join(problems) if problems else "all checks passed"))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
