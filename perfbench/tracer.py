"""Outside-in tracer: wraps public conicnets functions from the benchmark.

Nothing under ``src/`` knows about it.  ``install`` rebinds every attribute
of every loaded ``conicnets`` module (and the ``Subspace`` class) that refers
to a traced function, because ``atlas``, ``invariants`` and ``cli`` bind
names with ``from ... import``.  A traced process stays traced until it
exits; untraced baselines run in processes of their own.

Each wrapped call is one span (name, start, end, parent).  Spans are kept in
memory, capped at ``span_cap`` so a long run stays small, and are written
out by ``dump``.  Per-name counters are exact whatever the cap:
calls, inclusive time, self time (inclusive time minus the time covered by
child spans), items returned, and the inclusive time of the first call per
key (a cold build such as ``field(q)`` or ``representatives(gf)``).
"""

from __future__ import annotations

import importlib
import json
import sys
from array import array
from dataclasses import dataclass
from typing import Callable
from time import perf_counter_ns


@dataclass(frozen=True)
class Target:
    """One traced function: ``module.attr`` (``attr`` may be ``Class.method``).

    ``key`` maps call arguments to the key whose first call is a cold build;
    ``items`` maps a result to the number of items it holds.
    """

    name: str
    module: str
    attr: str
    key: Callable | None = None
    items: Callable | None = None


def _gf_key(gf, *args, **kwargs):
    return gf.q


# The listed granularity: public entry points of each layer, never the
# per-point helpers below them (form_eval runs ~74.5k times per q=16 plane).
TARGETS = (
    Target("gf.field", "conicnets.gf", "field", key=lambda q, modulus=None: (q, modulus)),
    Target("projgeom.rref", "conicnets.projgeom", "rref"),
    Target("projgeom.nullspace", "conicnets.projgeom", "nullspace"),
    Target("projgeom.Subspace.points", "conicnets.projgeom", "Subspace.points"),
    Target("veronese.classify_conic", "conicnets.veronese", "classify_conic"),
    Target("veronese.point_class", "conicnets.veronese", "point_class"),
    Target("invariants.plane_signature", "conicnets.invariants", "plane_signature"),
    Target("invariants.hyperplane_class_counts", "conicnets.invariants", "hyperplane_class_counts"),
    Target("invariants.point_class_counts", "conicnets.invariants", "point_class_counts"),
    Target("invariants.cubic_type", "conicnets.invariants", "cubic_type"),
    Target("invariants.cubic_points", "conicnets.invariants", "cubic_points"),
    Target("invariants.line_class_profile", "conicnets.invariants", "line_class_profile"),
    Target("invariants.forms_through", "conicnets.invariants", "forms_through"),
    Target("invariants.nucleus_meet_dim", "conicnets.invariants", "nucleus_meet_dim"),
    Target("action.orbit_keys", "conicnets.action", "orbit_keys", items=len),
    Target("action.lift", "conicnets.action", "lift"),
    Target("action.pgl_elements", "conicnets.action", "pgl_elements"),
    Target("action.k_equivalent", "conicnets.action", "k_equivalent"),
    Target("atlas.representatives", "conicnets.atlas", "representatives", key=_gf_key),
    Target("atlas.signature_table", "conicnets.atlas", "signature_table", key=_gf_key),
    Target("atlas.orbit_atlas", "conicnets.atlas", "orbit_atlas", key=_gf_key),
    Target("atlas.classify_plane", "conicnets.atlas", "classify_plane"),
    Target("atlas.net_base_points", "conicnets.atlas", "net_base_points"),
    Target("atlas.net_double_line_count", "conicnets.atlas", "net_double_line_count"),
    Target("atlas.verify_line_orbits", "conicnets.atlas", "verify_line_orbits", key=_gf_key),
    Target("cli.main", "conicnets.cli", "main"),
)


class Tracer:
    def __init__(self, targets=TARGETS, span_cap: int = 50_000):
        self.targets = targets
        self.span_cap = span_cap
        n = len(targets)
        self.calls = [0] * n
        self.total_ns = [0] * n
        self.self_ns = [0] * n
        self.items = [0] * n
        self.first_ns: list[dict] = [{} for _ in range(n)]
        self.span_name = array("i")
        self.span_start = array("q")
        self.span_end = array("q")
        self.span_parent = array("i")
        self.spans_dropped = 0
        # One frame per open span: [span index or -1, child time in ns].
        self._stack: list[list[int]] = []

    # -- installation --------------------------------------------------

    def install(self) -> None:
        for i, t in enumerate(self.targets):
            mod = importlib.import_module(t.module)
            owner_name, _, attr = t.attr.rpartition(".")
            owner = getattr(mod, owner_name) if owner_name else None
            original = vars(owner)[attr] if owner is not None else getattr(mod, attr)
            wrapper = self._wrap(i, t, original)
            if owner is not None:
                setattr(owner, attr, wrapper)
                continue
            for name, m in list(sys.modules.items()):
                if m is None or not (name == "conicnets" or name.startswith("conicnets.")):
                    continue
                for a, v in list(vars(m).items()):
                    if v is original:
                        setattr(m, a, wrapper)

    def _wrap(self, i: int, t: Target, fn):
        stack = self._stack
        calls, total, selfs = self.calls, self.total_ns, self.self_ns
        items, first = self.items, self.first_ns[i]
        names, starts, ends, parents = (
            self.span_name, self.span_start, self.span_end, self.span_parent)
        cap = self.span_cap
        key_fn, items_fn = t.key, t.items

        def wrapper(*args, **kwargs):
            key = key_fn(*args, **kwargs) if key_fn is not None else None
            parent = stack[-1][0] if stack else -1
            t0 = perf_counter_ns()
            idx = len(starts)
            if idx < cap:
                names.append(i)
                starts.append(t0)
                ends.append(0)
                parents.append(parent)
            else:
                idx = -1
                self.spans_dropped += 1
            frame = [idx, 0]
            stack.append(frame)
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = perf_counter_ns()
                stack.pop()
                dur = t1 - t0
                calls[i] += 1
                total[i] += dur
                selfs[i] += dur - frame[1]
                if stack:
                    stack[-1][1] += dur
                if idx >= 0:
                    ends[idx] = t1
                if key_fn is not None and key not in first:
                    first[key] = dur
            if items_fn is not None:
                items[i] += items_fn(result)
            return result

        wrapper.__wrapped__ = fn
        wrapper.__name__ = getattr(fn, "__name__", t.name)
        return wrapper

    # -- results -----------------------------------------------------------

    def stats(self) -> dict:
        """name -> {calls, total_s, self_s, items, first_s: {key: s}}."""
        out = {}
        for i, t in enumerate(self.targets):
            out[t.name] = {
                "calls": self.calls[i],
                "total_s": self.total_ns[i] / 1e9,
                "self_s": self.self_ns[i] / 1e9,
                "items": self.items[i],
                "first_s": {repr(k): v / 1e9 for k, v in self.first_ns[i].items()},
            }
        return out

    def dump(self, path: str) -> None:
        """Write the recorded spans and per-name counters as one JSON file."""
        doc = {
            "names": [t.name for t in self.targets],
            "columns": ["name", "start_ns", "end_ns", "parent"],
            "spans": [list(row) for row in zip(
                self.span_name, self.span_start, self.span_end, self.span_parent)],
            "spans_dropped": self.spans_dropped,
            "stats": self.stats(),
        }
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(doc, fh)
