"""Body of one benchmark run, executed in a fresh process by run.py.

Protocol: ``python3 worker.py SPEC_JSON``.  The worker imports the program
from ``src/``, installs the tracer when the spec asks for it, performs the
workload's set-up and prints ``ready`` on stdout.  With ``setup_only`` it
exits there; otherwise it reads the job (the generated inputs and the
expected outputs) as one JSON document from stdin, runs the workload, checks
every output against the job's expectations and prints one JSON result line.
Anything else the program writes to stdout goes to stderr instead.
"""

from __future__ import annotations

import io
import json
import os
import resource
import sys
from time import perf_counter, perf_counter_ns

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))

from conicnets import action, atlas, cli, gf, projgeom  # noqa: E402

from tracer import Tracer  # noqa: E402


def call_cli(argv):
    """One in-process CLI request with stdout and stderr captured.

    Returns (exit code, stdout, stderr, latency in ns); only ``cli.main`` is
    inside the timed region.
    """
    out, err = io.StringIO(), io.StringIO()
    saved = sys.stdout, sys.stderr
    sys.stdout, sys.stderr = out, err
    try:
        t0 = perf_counter_ns()
        try:
            rc = cli.main(argv)
        except SystemExit as exc:
            rc = exc.code if isinstance(exc.code, int) else 2
        t1 = perf_counter_ns()
    finally:
        sys.stdout, sys.stderr = saved
    return rc, out.getvalue(), err.getvalue(), t1 - t0


def cli_output_ok(rc, out, err, expected) -> bool:
    """Label equals the source orbit with exit 0, or exit 3 off the family."""
    if expected is None:
        return rc == 3 and out == "" and err.startswith("out of family")
    if rc != 0 or err:
        return False
    try:
        record = json.loads(out)
    except json.JSONDecodeError:
        return False
    return record.get("label") == expected and record.get("schema") == atlas.SCHEMA


# -- set-up ----------------------------------------------------------------


def setup(spec) -> tuple[int, int]:
    """Make the workload ready; returns (set-up checks made, checks failed).

    For classify, set-up is one cold classification per orbit per q through
    the CLI, which fills the representatives, the signature tables, the line
    profiles and the q=4 orbit atlas.
    """
    attempted = failed = 0
    for q in spec["qs"]:
        gf.field(q)
    if spec["workload"] == "classify":
        for q in spec["qs"]:
            for label in atlas.LABELS:
                rc, out, err, _ = call_cli(
                    ["classify-plane", "--q", str(q), "--data", json.dumps({"label": label})])
                attempted += 1
                failed += not cli_output_ok(rc, out, err, label)
    return attempted, failed


# -- workloads -------------------------------------------------------------


def classify_rounds(rounds, seconds, count=None):
    """Closed loop, one caller: each request is sent after the previous one
    returned.  Whole rounds only, so every measurement holds the same mix:
    ``count`` rounds, or rounds until ``seconds`` have passed (at least one),
    wrapping round the generated stream if it runs out."""
    lat, kinds, bad = [], [], 0
    t0 = perf_counter()
    done = 0
    while (done < count) if count is not None else (done == 0 or perf_counter() - t0 < seconds):
        for argv, expected, kind in rounds[done % len(rounds)]:
            rc, out, err, ns = call_cli(argv)
            lat.append(ns / 1e6)
            kinds.append(kind)
            bad += not cli_output_ok(rc, out, err, expected)
        done += 1
    return {"wall_s": perf_counter() - t0, "latency_ms": lat, "kind": kinds,
            "attempted": len(lat), "failed": bad}


def run_classify(spec, job):
    rounds = [
        [(["classify-plane" if kind == "plane" else "classify-net",
           "--q", str(q), "--data", payload], expected, [q, kind, expected])
         for q, kind, payload, expected in rnd]
        for rnd in job["rounds"]
    ]
    return classify_rounds(rounds, spec["seconds"], spec.get("rounds"))


def run_orbits(spec, job):
    """Breadth-first orbits from moved representatives, then the line-orbit
    suites.  The whole job is one call (``orbits_s``), run once per process
    so the group closure behind the q=4 suite is always built cold."""
    field = gf.field(job["q"])
    starts = [(label, projgeom.Subspace(field, 5, tuple(map(tuple, rows))))
              for label, rows in job["starts"]]
    orbits, reports, line_orbits_s = {}, [], []
    t0 = perf_counter()
    for label, s in starts:
        orbits[label] = action.orbit_keys(s)
    bfs_s = perf_counter() - t0
    for q in job["line_orbit_qs"]:
        t = perf_counter()
        reports.append(atlas.verify_line_orbits(gf.field(q)))
        line_orbits_s.append(perf_counter() - t)
    wall = perf_counter() - t0
    bad = sum(len(keys) != job["sizes"][label] for label, keys in orbits.items())
    bad += sum(not (r["checks"] and all(c["pass"] for c in r["checks"])) for r in reports)
    # The orbits are pairwise disjoint and cover every plane meeting the
    # nucleus plane.
    partition_ok = (len(set().union(*orbits.values()))
                    == sum(map(len, orbits.values())) == job["meeting"])
    return {"wall_s": wall, "latency_ms": [wall * 1e3],
            "attempted": len(starts) + len(job["line_orbit_qs"]) + 1,
            "failed": bad + (not partition_ok),
            "bfs_s": bfs_s, "line_orbits_s": line_orbits_s}


RUN = {"classify": run_classify, "orbits": run_orbits}


def main() -> int:
    spec = json.loads(sys.argv[1])
    proto = sys.stdout
    sys.stdout = sys.stderr
    tracer = Tracer() if spec["trace"] else None
    if tracer is not None:
        tracer.install()
    setup_attempted, setup_failed = setup(spec)
    proto.write("ready\n")
    proto.flush()
    if spec.get("setup_only"):
        return 0
    job = json.load(sys.stdin)
    result = RUN[spec["workload"]](spec, job)
    result["attempted"] += setup_attempted
    result["failed"] += setup_failed
    self_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    child_kb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    result["peak_rss_mb"] = max(self_kb, child_kb) / 1024
    if tracer is not None:
        result["trace"] = tracer.stats()
        tracer.dump(spec["trace_path"])
    proto.write(json.dumps(result) + "\n")
    proto.flush()
    return 0


if __name__ == "__main__":
    sys.exit(main())
