"""conicnets benchmark: one command, one workload per run, every output checked.

Usage (from the repository root)::

    python3 perfbench/run.py --workload classify --seed 1 --seconds 20 --trace 0

The last line of stdout is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.  With ``--trace 0`` the metrics
are the end-to-end metrics of BENCHMARK.json, measured with tracing off;
with ``--trace 1`` they are the per-layer metrics of a separate traced run.
The line before it is a JSON object of workload details (per-q latencies and
the figures under the names the workloads were specified with).

Workloads (see README.md for why each was chosen):

* ``classify``: a closed loop with one caller sending in-process CLI
  requests in whole rounds for at least ``--seconds``; orbit-balanced, equal
  thirds at q = 4, 8, 16, half as nets, 1 in 19 off the nucleus plane
  (expected exit 3).
* ``orbits``: breadth-first orbits from the 18 moved q=4 representatives,
  then the line-orbit suites at q=4 and q=8; one fixed job per run, whatever
  ``--seconds`` says.

Each run starts the program in fresh worker processes (worker.py): set-up is
timed from process start to ready in several of them and reported as the
median.  Inputs are generated from ``--seed`` here, before any timing, and
the worker receives only those inputs and their expected outputs.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import statistics
import subprocess
import sys
import threading
from time import perf_counter

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORKER = os.path.join(HERE, "worker.py")
OUT = os.path.join(HERE, "out")
sys.path.insert(0, SRC)

WORKLOADS = ("classify", "orbits")

# Each run must end within 180 s; workers are killed past this point.
RUN_DEADLINE_S = 170.0

# Set-ups timed per run (median reported).  A classify set-up builds the
# q=4 orbit atlas and every signature table, ~12 s, so it gets two to keep
# a run near a minute; an orbits set-up is an import and two fields.
SETUP_SAMPLES = {"classify": 2, "orbits": 5}

FULL = {
    "classify_qs": (4, 8, 16),
    "rounds": 30,           # generated stream: 30 rounds of 3 x 38 requests
    "probes": ((4, "Sigma3"), (16, "Sigma22")),
    "orbit_q": 4,
    "line_orbit_qs": (4, 8),
}

# Smoke size for selftest.py: same code paths, seconds instead of minutes.
SMOKE = {
    "classify_qs": (8,),
    "rounds": 2,
    "probes": ((8, "Sigma3"),),
    "orbit_q": 2,
    "line_orbit_qs": (),
}

# Orbit sizes pinned by exhaustive enumeration (the acceptance suite's
# figures, held here so the benchmark does not import the tests).
ORBIT_SIZES = {
    2: {
        "Sigma1": 7, "Sigma3": 84, "Sigma4": 42, "Sigma7": 7, "Sigma8": 42,
        "Sigma9": 42, "Sigma10": 84, "Sigma11": 168, "Sigma15": 21, "SigmaN": 1,
        "Sigma16": 7, "Sigma17": 42, "Sigma18": 14, "Sigma19": 7, "Sigma20": 21,
        "Sigma21": 42, "Sigma22": 168, "Sigma23": 84,
    },
    4: {
        "Sigma1": 21, "Sigma3": 1680, "Sigma4": 2520, "Sigma7": 21, "Sigma8": 420,
        "Sigma9": 1260, "Sigma10": 5040, "Sigma11": 20160, "Sigma15": 315,
        "SigmaN": 1, "Sigma16": 63, "Sigma17": 1260, "Sigma18": 1260,
        "Sigma19": 630, "Sigma20": 1890, "Sigma21": 2520, "Sigma22": 60480,
        "Sigma23": 15120,
    },
}


class BenchError(RuntimeError):
    pass


def gaussian_binomial(n: int, k: int, q: int) -> int:
    num = den = 1
    for i in range(k):
        num *= q ** (n - i) - 1
        den *= q ** (i + 1) - 1
    return num // den


def meeting_count(q: int) -> int:
    """Planes of PG(5,q) meeting a fixed plane: all minus the q^9 complements."""
    return gaussian_binomial(6, 3, q) - q ** 9


# -- input generation ----------------------------------------------------------


def _plane_maker(field, rng):
    """Seeded plane generators over one field: ``moved(label)`` is the
    orbit's representative moved by a random invertible 3x3 matrix, and
    ``off_nucleus()`` a random plane that misses the nucleus plane."""
    from conicnets import action, atlas, invariants, projgeom

    reps = {label: projgeom.plane_from_pattern(field, atlas.representative_pattern(field, label)[0])
            for label in atlas.LABELS}

    def moved(label):
        while True:
            m = tuple(rng.randrange(field.q) for _ in range(9))
            if action.mat3_det(field, m):
                return action.act_subspace(reps[label], m)

    def off_nucleus():
        while True:
            rows = projgeom.rref(field, [[rng.randrange(field.q) for _ in range(6)] for _ in range(3)])
            if len(rows) == 3:
                s = projgeom.Subspace(field, 5, rows)
                if invariants.nucleus_meet_dim(s) < 0:
                    return s

    return moved, off_nucleus


def classify_inputs(seed: int, scale: dict) -> dict:
    """Orbit-balanced rounds, equal thirds per q, interleaved by q.

    Per q, a round holds each of the 18 orbits and one plane off the nucleus
    plane, each once as a plane and once as a net, in a seeded order; every
    orbit plane is its representative moved by a seeded random invertible
    matrix.  Whole rounds keep the mix identical whatever the seed.
    """
    from conicnets import atlas, gf

    rng = random.Random(seed)
    per_q = []
    for q in scale["classify_qs"]:
        moved, off_nucleus = _plane_maker(gf.field(q), rng)
        rounds = []
        for _ in range(scale["rounds"]):
            slots = [(label, kind) for label in (*atlas.LABELS, None) for kind in ("plane", "net")]
            rng.shuffle(slots)
            rnd = []
            for label, kind in slots:
                plane = off_nucleus() if label is None else moved(label)
                if kind == "net":
                    payload = {"forms": [list(f) for f in atlas.net_of_plane(plane)]}
                else:
                    payload = {"rows": [list(r) for r in plane.rows]}
                rnd.append((q, kind, json.dumps(payload), label))
            rounds.append(rnd)
        per_q.append(rounds)
    rounds = [[r for group in zip(*same) for r in group] for same in zip(*per_q)]
    probes = []
    for q, label in scale["probes"]:
        plane = _plane_maker(gf.field(q), rng)[0](label)
        probes.append((q, json.dumps({"rows": [list(r) for r in plane.rows]}), label))
    return {"rounds": rounds, "probes": probes}


def orbits_inputs(seed: int, scale: dict) -> dict:
    from conicnets import atlas, gf

    q = scale["orbit_q"]
    moved, _ = _plane_maker(gf.field(q), random.Random(seed))
    starts = [(label, [list(r) for r in moved(label).rows]) for label in atlas.LABELS]
    return {"q": q, "starts": starts, "sizes": ORBIT_SIZES[q],
            "meeting": meeting_count(q), "line_orbit_qs": list(scale["line_orbit_qs"])}


INPUTS = {"classify": classify_inputs, "orbits": orbits_inputs}


def worker_qs(workload: str, scale: dict) -> list[int]:
    if workload == "classify":
        return list(scale["classify_qs"])
    return sorted({scale["orbit_q"], *scale["line_orbit_qs"]})


# -- processes -----------------------------------------------------------------


def _env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def spawn_worker(spec: dict, job: dict | None, deadline: float):
    """Run worker.py in a fresh process; returns (seconds to ready, result).

    The process is killed if it is still running at ``deadline`` and is
    always waited for.
    """
    t0 = perf_counter()
    proc = subprocess.Popen(
        [sys.executable, WORKER, json.dumps(spec)],
        stdin=subprocess.PIPE, stdout=subprocess.PIPE, cwd=ROOT, env=_env(), text=True,
    )
    timer = threading.Timer(max(deadline - t0, 1.0), proc.kill)
    timer.start()
    try:
        line = proc.stdout.readline()
        ready_s = perf_counter() - t0
        if line != "ready\n":
            raise BenchError("worker did not reach ready (got %r)" % line[:200])
        if job is not None:
            proc.stdin.write(json.dumps(job))
        proc.stdin.close()
        out = proc.stdout.read()
        rc = proc.wait()
    finally:
        timer.cancel()
        if proc.poll() is None:
            proc.kill()
        proc.wait()
        proc.stdout.close()
    if rc != 0:
        raise BenchError("worker exited with code %d" % rc)
    if job is None:
        return ready_s, None
    lines = out.strip().splitlines()
    if not lines:
        raise BenchError("worker printed no result")
    return ready_s, json.loads(lines[-1])


def cold_probe(q: int, payload: str, label: str, deadline: float):
    """Cold ``conicnets classify-plane`` in its own process; (seconds, ok)."""
    t0 = perf_counter()
    proc = subprocess.run(
        [sys.executable, "-m", "conicnets.cli", "classify-plane", "--q", str(q), "--data", payload],
        cwd=ROOT, env=_env(), capture_output=True, text=True,
        timeout=max(deadline - t0, 1.0),
    )
    wall = perf_counter() - t0
    try:
        ok = proc.returncode == 0 and json.loads(proc.stdout)["label"] == label
    except (json.JSONDecodeError, KeyError):
        ok = False
    return wall, ok


# -- metrics -------------------------------------------------------------------


def p50(values) -> float:
    return statistics.median(values)


def p90(values) -> float:
    if len(values) < 2:
        return values[0]
    return statistics.quantiles(values, n=10)[8]


def typical_latencies(result: dict) -> list[float]:
    """One latency per distinct request: the median over the rounds that sent
    it.  The host's speed drifts in bursts of a second or two; taking each
    request's median over rounds keeps a burst from moving the figures."""
    if "kind" not in result:
        return result["latency_ms"]
    by_kind: dict[tuple, list[float]] = {}
    for ms, kind in zip(result["latency_ms"], result["kind"]):
        by_kind.setdefault(tuple(kind), []).append(ms)
    return [p50(v) for v in by_kind.values()]


def end_to_end(result: dict, setups: list[float]) -> dict:
    lat = typical_latencies(result)
    return {
        "setup_s": (p50(setups), "s"),
        # Closed loop with one caller: the reciprocal of the mean latency.
        "calls_per_s": (1e3 * len(lat) / sum(lat), "1/s"),
        "call_ms_p50": (p50(lat), "ms"),
        "call_ms_p90": (p90(lat), "ms"),
        "peak_rss_mb": (result["peak_rss_mb"], "MB"),
    }


# Per-layer metric -> (traced function, statistic, unit).  ``first_s`` sums
# the first call per key: a cold build.  Workloads that do not reach a
# function report 0 for it.
LAYER_STATS = {
    "projgeom.rref.calls": ("projgeom.rref", "calls", "count"),
    "projgeom.rref.self_s": ("projgeom.rref", "self_s", "s"),
    "projgeom.nullspace.calls": ("projgeom.nullspace", "calls", "count"),
    "projgeom.nullspace.self_s": ("projgeom.nullspace", "self_s", "s"),
    "projgeom.Subspace.points.calls": ("projgeom.Subspace.points", "calls", "count"),
    "projgeom.Subspace.points.self_s": ("projgeom.Subspace.points", "self_s", "s"),
    "veronese.classify_conic.calls": ("veronese.classify_conic", "calls", "count"),
    "veronese.classify_conic.self_s": ("veronese.classify_conic", "self_s", "s"),
    "veronese.point_class.calls": ("veronese.point_class", "calls", "count"),
    "veronese.point_class.self_s": ("veronese.point_class", "self_s", "s"),
    "invariants.plane_signature.calls": ("invariants.plane_signature", "calls", "count"),
    "invariants.hyperplane_class_counts.self_s": ("invariants.hyperplane_class_counts", "self_s", "s"),
    "invariants.point_class_counts.self_s": ("invariants.point_class_counts", "self_s", "s"),
    "invariants.cubic_type.self_s": ("invariants.cubic_type", "self_s", "s"),
    "invariants.cubic_points.self_s": ("invariants.cubic_points", "self_s", "s"),
    "invariants.line_class_profile.calls": ("invariants.line_class_profile", "calls", "count"),
    "invariants.line_class_profile.self_s": ("invariants.line_class_profile", "self_s", "s"),
    "invariants.forms_through.self_s": ("invariants.forms_through", "self_s", "s"),
    "invariants.nucleus_meet_dim.calls": ("invariants.nucleus_meet_dim", "calls", "count"),
    "action.lift.calls": ("action.lift", "calls", "count"),
    "action.lift.self_s": ("action.lift", "self_s", "s"),
    "action.pgl_elements.self_s": ("action.pgl_elements", "self_s", "s"),
    "action.k_equivalent.calls": ("action.k_equivalent", "calls", "count"),
    "atlas.representatives.build_s": ("atlas.representatives", "first_s", "s"),
    "atlas.signature_table.build_s": ("atlas.signature_table", "first_s", "s"),
    "atlas.orbit_atlas.build_s": ("atlas.orbit_atlas", "first_s", "s"),
    "atlas.classify_plane.calls": ("atlas.classify_plane", "calls", "count"),
    "atlas.classify_plane.self_s": ("atlas.classify_plane", "self_s", "s"),
    "atlas.net_base_points.self_s": ("atlas.net_base_points", "self_s", "s"),
    "atlas.net_double_line_count.self_s": ("atlas.net_double_line_count", "self_s", "s"),
    "cli.main.self_s": ("cli.main", "self_s", "s"),
}


def per_layer(result: dict, probes: dict) -> dict:
    st = result["trace"]
    m = {}
    m["gf.field_build_ms"] = (sum(st["gf.field"]["first_s"].values()) * 1e3, "ms")
    for name, (fn, stat, unit) in LAYER_STATS.items():
        v = st[fn][stat]
        m[name] = (sum(v.values()) if stat == "first_s" else v, unit)
    ok = st["action.orbit_keys"]
    m["action.orbit_keys.keys_per_s"] = (ok["items"] / ok["total_s"] if ok["total_s"] else 0.0, "1/s")
    lo = st["atlas.verify_line_orbits"]["first_s"]
    m["atlas.verify_line_orbits.q4_s"] = (lo.get("4", 0.0), "s")
    m["atlas.verify_line_orbits.q8_s"] = (lo.get("8", 0.0), "s")
    m["cli.cold_classify_q4_sigma3_s"] = (probes.get((4, "Sigma3"), 0.0), "s")
    m["cli.cold_classify_q16_sigma22_s"] = (probes.get((16, "Sigma22"), 0.0), "s")
    m["trace.overhead_pct"] = (
        (result["wall_s"] / result["baseline_wall_s"] - 1.0) * 100.0, "%")
    return m


def details(workload: str, result: dict, setups: list[float], inputs: dict) -> dict:
    """Figures under the names the workloads were specified with."""
    d = {"workload": workload, "setup_samples_s": setups}
    if workload == "classify":
        lat = result["latency_ms"]
        d["requests"] = len(lat)
        d["classify_per_s"] = len(lat) / result["wall_s"]
        d["classify_ms_p50"] = p50(lat)
        d["classify_ms_p90"] = p90(lat)
        for q in sorted({k[0] for k in result["kind"]}):
            sub = [x for x, k in zip(lat, result["kind"]) if k[0] == q]
            d["q%d" % q] = {"requests": len(sub), "ms_p50": p50(sub), "ms_p90": p90(sub)}
    else:
        d["orbits_s"] = result["wall_s"]
        d["bfs_s"] = result["bfs_s"]
        d["bfs_keys_per_s"] = sum(ORBIT_SIZES[inputs["q"]].values()) / result["bfs_s"]
        d["line_orbits_s"] = dict(zip(inputs["line_orbit_qs"], result["line_orbits_s"]))
    if "baseline_wall_s" in result:
        d["untraced_wall_s"] = result["baseline_wall_s"]
    return d


# -- one run -------------------------------------------------------------------


def execute(workload: str, seed: int, seconds: float, trace: bool,
            scale: dict = FULL, inputs: dict | None = None) -> dict:
    """One benchmark run; returns the result object and the workload details."""
    deadline = perf_counter() + RUN_DEADLINE_S
    if inputs is None:
        inputs = INPUTS[workload](seed, scale)
    os.makedirs(OUT, exist_ok=True)
    spec = {"workload": workload, "trace": trace, "seconds": seconds,
            "qs": worker_qs(workload, scale),
            "trace_path": os.path.join(OUT, "trace-%s.json" % workload)}
    setups = []
    if trace:
        # The untraced baseline for the overhead: the same work (one round
        # of classify) in its own fresh process, so both start equally cold.
        spec["rounds"] = 1
        _, base = spawn_worker(dict(spec, trace=False), inputs, deadline)
    else:
        for _ in range(SETUP_SAMPLES[workload] - 1):
            ready_s, _ = spawn_worker(dict(spec, setup_only=True), None, deadline)
            setups.append(ready_s)
    ready_s, result = spawn_worker(spec, inputs, deadline)
    setups.append(ready_s)
    attempted, failed = result["attempted"], result["failed"]
    probes = {}
    if trace:
        result["baseline_wall_s"] = base["wall_s"]
        attempted += base["attempted"]
        failed += base["failed"]
    if trace and workload == "classify":
        for q, payload, label in inputs["probes"]:
            wall, ok = cold_probe(q, payload, label, deadline)
            probes[(q, label)] = wall
            attempted += 1
            failed += not ok
    metrics = per_layer(result, probes) if trace else end_to_end(result, setups)
    return {
        "details": details(workload, result, setups, inputs),
        "result": {
            "correct": failed == 0,
            "attempted": attempted,
            "failed": failed,
            "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
        },
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "conicnets", "__init__.py")):
        print("error: no conicnets sources under %s" % SRC, file=sys.stderr)
        return 2
    try:
        run = execute(args.workload, args.seed, args.seconds, bool(args.trace))
    except (BenchError, OSError, ValueError, subprocess.TimeoutExpired) as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 1
    print(json.dumps(run["details"], sort_keys=True))
    print(json.dumps(run["result"], sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
