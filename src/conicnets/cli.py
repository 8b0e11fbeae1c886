"""Batch command line: classify planes and nets, dump the orbit atlas, and
run the verification suites.

Exit codes: 0 success, 2 usage or input error, 3 plane outside the
classified family, 4 verification or internal-consistency failure, 5
resource budget exhausted.  Output is deterministic for a fixed
configuration: keys are sorted, there are no timestamps, and worker counts
never change the bytes.

A well-formed command line, a command and then pairs of an exact option
string and a value, is read from the Actions that ``build_parser`` keeps;
argparse parses any other, and writes every help, usage and error message.
"""

from __future__ import annotations

import argparse
import functools
import io
import json
import sys
from json.encoder import encode_basestring_ascii as _json_str

from . import atlas
from .errors import (
    ClassificationError,
    ConfigurationError,
    OutOfFamilyError,
    ResourceBudgetError,
    VerificationError,
    brief,
)
from .gf import GF, field
from .invariants import nucleus_cut
from .projgeom import Subspace, plane_from_pattern
from .veronese import form_from_str, form_to_str

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_OUT_OF_FAMILY = 3
EXIT_VERIFY = 4
EXIT_BUDGET = 5

# verify --suite name -> the runner that builds its report from the field and args.
SUITES = {
    "distributions": lambda gf, args: atlas.verify_distributions(gf),
    "double-lines": lambda gf, args: atlas.verify_double_lines(
        gf, samples=args.samples, seed=args.seed or 0, workers=args.workers),
    "line-orbits": lambda gf, args: atlas.verify_line_orbits(gf),
    "partition": lambda gf, args: atlas.verify_partition(gf, workers=args.workers),
    "known-net": lambda gf, args: atlas.verify_known_net(gf),
}


class UsageError(ValueError):
    pass


def _field(args) -> GF:
    return field(args.q, args.modulus)


def _elements(gf: GF, values):
    """values itself when each is an element of GF(q); bools and floats are not."""
    q = gf.q
    for v in values:
        if type(v) is not int or not 0 <= v < q:
            raise UsageError("%s is not an element of GF(%d)" % (brief.repr(v), q))
    return values


def _read_payload(args) -> dict:
    """Inline --data, --input file, or stdin; always a JSON object."""
    data, path = getattr(args, "data", None), getattr(args, "input", None)
    if data is not None and path is not None:
        raise UsageError("give --data or --input, not both")
    if data is not None:
        text = data
    elif path is not None:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    else:
        text = sys.stdin.read()
    try:
        payload = json.loads(text)
    except json.JSONDecodeError as exc:
        raise UsageError("input is not valid JSON: %s" % exc) from exc
    except RecursionError as exc:
        raise UsageError("input JSON is nested too deeply") from exc
    if isinstance(payload, list):
        return {"rows": payload}
    if not isinstance(payload, dict):
        raise UsageError("input must be a JSON object or array")
    return payload


def _take_only(payload: dict, what: str, keys: set) -> None:
    if not payload.keys() <= keys:
        unknown = ", ".join(sorted(payload.keys() - keys))
        raise UsageError("%s input takes no key %s" % (what, brief.repr(unknown)))


def _plane_from_payload(gf: GF, payload: dict) -> Subspace:
    if "forms" in payload:
        raise UsageError('plane input takes no "forms" key')
    if "rows" in payload and "label" in payload:
        raise UsageError('plane input takes "rows" or "label", not both')
    if "parameters" in payload and "label" not in payload:
        raise UsageError('plane input gives "parameters" without "label"')
    _take_only(payload, "plane", {"rows", "label", "parameters"})
    if "rows" in payload:
        rows = payload["rows"]
        if (not isinstance(rows, list) or len(rows) != 3
                or any(not isinstance(r, list) or len(r) != 6 for r in rows)):
            raise UsageError("rows must be a 3x6 array of field elements")
        _elements(gf, rows[0] + rows[1] + rows[2])
        return plane_from_pattern(gf, rows)
    if "label" in payload:
        label = payload["label"]
        if not isinstance(label, str):
            raise UsageError("label must be a string")
        params = payload.get("parameters")
        if params is not None:
            if not isinstance(params, dict):
                raise UsageError("parameters must be an object of field elements")
            _elements(gf, params.values())
        return plane_from_pattern(gf, atlas.representative_pattern(gf, label, params)[0])
    raise UsageError('plane input needs "rows" or "label"')


def _forms_from_payload(gf: GF, payload: dict):
    forms = payload.get("forms")
    if not isinstance(forms, list) or len(forms) != 3:
        raise UsageError('net input needs "forms": three coefficient vectors or strings')
    if payload.keys() & {"rows", "label", "parameters"}:
        raise UsageError('net input takes "forms" alone, not "rows", "label" or "parameters"')
    _take_only(payload, "net", {"forms"})
    out = []
    for f in forms:
        if isinstance(f, str):
            try:
                coeffs = form_from_str(f)
            except ValueError as exc:
                raise UsageError("bad form %s: %s" % (brief.repr(f), exc)) from exc
            out.append(_elements(gf, coeffs))
        elif isinstance(f, list) and len(f) == 6:
            out.append(_elements(gf, f))
        else:
            raise UsageError("each form must be a string or a 6-element array")
    return out


def _emit(args, obj: dict | str) -> None:
    text = json.dumps(obj, indent=2, sort_keys=True) + "\n" if isinstance(obj, dict) else obj
    if args.output:
        with open(args.output, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _atlas_csv(report: dict) -> str:
    import csv  # only here: a classify request never loads it

    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow([
        "label", "size", "stabilizer_order", "od0", "od4", "cubic_type",
        "cubic_point_count", "representative_matrix", "parameters",
    ])
    for row in report["orbits"]:
        writer.writerow([
            row["label"],
            row["size"] if row["size"] is not None else "",
            row["stabilizer_order"] if row["stabilizer_order"] is not None else "",
            ";".join(map(str, row["od0"])),
            ";".join(map(str, row["od4"])),
            row["cubic_type"] or "",
            row["cubic_point_count"] if row["cubic_point_count"] is not None else "",
            " / ".join(",".join(map(str, r)) for r in row["representative_matrix"]),
            ";".join("%s=%d" % kv for kv in sorted(row["parameters"].items())),
        ])
    return buf.getvalue()


def _template(shape: dict) -> str:
    """json.dumps(shape, indent=2, sort_keys=True) + "\n" with its "%s" and
    "%d" strings unquoted: a record template, its slots in sorted key order."""
    text = json.dumps(shape, indent=2, sort_keys=True)
    return text.replace('"%s"', "%s").replace('"%d"', "%d") + "\n"


# The classify records have one fixed shape per command, so each is one
# template, keys written here in sorted order; only the meet basis and the
# base points have a variable length, and _rows writes them.
_ROW, _COUNTS = ["%d"] * 6, ["%d"] * 4
_PLANE_RECORD = _template({
    "cubic_type": "%s", "intersection_with_nucleus_plane": {"basis": "%s", "dimension": "%d"},
    "label": "%s", "od0": _COUNTS, "od4": _COUNTS, "plane": [_ROW] * 3, "q": "%d",
    "schema": "%s", "signature": {"cubic_kind": "%s", "cubic_point_count": "%s",
                                  "cubic_vanishes": "%s", "hyperplane_class_counts": _COUNTS,
                                  "nucleus_meet_dim": "%d", "point_class_counts": _COUNTS},
})
_NET_RECORD = _template({
    "base_points": "%s", "double_line_count": "%d", "form_vectors": [_ROW] * 3,
    "forms": ["%s"] * 3, "label": "%s", "plane": [_ROW] * 3, "q": "%d", "schema": "%s",
})
_SCHEMA = _json_str(atlas.SCHEMA)


def _rows(rows, pad: str) -> str:
    """The JSON text of a list of int tuples of one length, closing at pad."""
    if not rows:
        return "[]"
    inner = pad + "  "
    row = "[\n  " + inner + (",\n  " + inner).join(["%d"] * len(rows[0])) + "\n" + inner + "]"
    return "[\n" + inner + (",\n" + inner).join([row % r for r in rows]) + "\n" + pad + "]"


def _plane_record(q: int, label: str, sig, plane_rows, meet_rows) -> str:
    """The classify-plane record of a plane in orbit ``label``, whose
    expected signature is sig, with nucleus meet basis meet_rows."""
    kind = "null" if sig.cubic_kind is None else _json_str(sig.cubic_kind)
    od0, od4, zeros = sig.point_counts, sig.hyperplane_counts, sig.cubic_point_count
    r0, r1, r2 = plane_rows
    return _PLANE_RECORD % (
        kind, _rows(meet_rows, "    "), len(meet_rows) - 1, _json_str(label), *od0, *od4,
        *r0, *r1, *r2, q, _SCHEMA, kind, "null" if zeros is None else zeros,
        "true" if sig.cubic_kind is None else "false", *od4, sig.nucleus_meet_dim, *od0,
    )


def _net_record(q: int, label: str, forms, plane_rows, points, double_lines: int) -> str:
    """The classify-net record of the net of forms, in orbit ``label``."""
    (f0, f1, f2), (r0, r1, r2) = forms, plane_rows
    return _NET_RECORD % (
        _rows(points, "  "), double_lines, *f0, *f1, *f2, _json_str(form_to_str(f0)),
        _json_str(form_to_str(f1)), _json_str(form_to_str(f2)), _json_str(label),
        *r0, *r1, *r2, q, _SCHEMA,
    )


def cmd_classify_plane(args) -> int:
    gf = _field(args)
    plane = _plane_from_payload(gf, _read_payload(args))
    meet, points = nucleus_cut(plane)
    label = atlas.classify_plane_at(plane, meet, points)
    sig = atlas.expected_signatures(gf)[label]
    _emit(args, _plane_record(gf.q, label, sig, plane.rows, meet.rows))
    return EXIT_OK


def cmd_classify_net(args) -> int:
    gf = _field(args)
    forms = _forms_from_payload(gf, _read_payload(args))
    plane = atlas.plane_of_net(gf, forms)
    meet, points = nucleus_cut(plane)
    label = atlas.classify_plane_at(plane, meet, points)
    # the net's double lines are (plane + nucleus plane)^perp: as many as the meet's points
    double_lines = (gf.q ** len(meet.rows) - 1) // (gf.q - 1)
    _emit(args, _net_record(gf.q, label, forms, plane.rows, points, double_lines))
    return EXIT_OK


def cmd_atlas(args) -> int:
    report = atlas.verify_partition(_field(args), workers=args.workers)
    _emit(args, _atlas_csv(report) if args.format == "csv" else report)
    return EXIT_OK if all(c["pass"] for c in report["checks"]) else EXIT_VERIFY


def cmd_verify(args) -> int:
    gf = _field(args)
    if args.suite != "double-lines":
        for flag in ("samples", "seed"):
            if getattr(args, flag) is not None:
                raise UsageError("--%s applies only to --suite double-lines" % flag)
    report = SUITES[args.suite](gf, args)
    _emit(args, report)
    return EXIT_OK if all(c["pass"] for c in report["checks"]) else EXIT_VERIFY


def _option(p: argparse.ArgumentParser, name: str, **kwargs) -> None:
    """Add a plain store option to p and keep its Action in p.options, the
    option table that ``_read_options`` reads."""
    p.options[name] = p.add_argument(name, **kwargs)


def _add_common(p: argparse.ArgumentParser, io_input: bool = False) -> None:
    p.options = {}
    _option(p, "--q", type=int, required=True,
            help="field size, a power of 2 from 2 to 256")
    _option(p, "--modulus", type=int, default=None,
            help="override the irreducible modulus polynomial (bit mask)")
    _option(p, "--output", default=None, help="write the report here instead of stdout")
    if io_input:
        _option(p, "--data", default=None, help="inline JSON input")
        _option(p, "--input", default=None, help="read JSON input from this file")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="conicnets",
        description="Classify planes of PG(5,q) meeting the nucleus plane of "
                    "the Veronese surface (equivalently, nets of conics "
                    "containing a double line), and verify the orbit atlas.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("classify-plane", help="label a plane given by basis rows or a pattern")
    _add_common(p, io_input=True)
    p.set_defaults(run=cmd_classify_plane)

    p = sub.add_parser("classify-net", help="label a net of conics given by three forms")
    _add_common(p, io_input=True)
    p.set_defaults(run=cmd_classify_net)

    p = sub.add_parser("atlas", help="build the orbit atlas and partition report")
    _add_common(p)
    _option(p, "--workers", type=int, default=0, help="parallel sweep processes")
    _option(p, "--format", choices=("json", "csv"), default="json")
    p.set_defaults(run=cmd_atlas)

    p = sub.add_parser("verify", help="run one verification suite")
    _add_common(p)
    _option(p, "--suite", choices=SUITES, required=True)
    _option(p, "--workers", type=int, default=0, help="parallel sweep processes")
    _option(p, "--samples", type=int, default=None,
            help="sample the double-lines suite at any q, at most %d planes "
                 "(default: every plane for q <= 4, else 100000)" % atlas.MAX_SAMPLES)
    _option(p, "--seed", type=int, default=None,
            help="sampling seed of the double-lines suite (default: 0)")
    p.set_defaults(run=cmd_verify)

    parser.commands = sub.choices  # subcommand name -> its parser, for main
    return parser


# Parsing leaves a parser unchanged, so one serves every call in a process.
_parser = functools.cache(build_parser)


def _read_options(command: argparse.ArgumentParser, argv: list) -> argparse.Namespace | None:
    """The namespace ``command.parse_args(argv)`` returns, read from the
    command's option table when argv is pairs of an exact option string and
    a value that does not start with "-", each option given at most once,
    every value of its type and choices, and every required option given;
    None for any other argv, which argparse then parses and reports."""
    options = command.options
    given = dict(zip(argv[::2], argv[1::2]))  # an odd argv or a repeat loses a pair
    if 2 * len(given) != len(argv) or not given.keys() <= options.keys():
        return None
    args = argparse.Namespace(run=command.get_default("run"))
    for name, action in options.items():
        value = given.get(name)
        if value is None:
            if action.required:
                return None
            setattr(args, action.dest, action.default)
            continue
        if value.startswith("-"):
            return None
        try:
            value = value if action.type is None else action.type(value)
        except ValueError:
            return None
        if action.choices is not None and value not in action.choices:
            return None
        setattr(args, action.dest, value)
    return args


def main(argv=None) -> int:
    """Run one request.  A well-formed command line is read from the
    command's option table; any other goes to the command's own parser, and
    -h, a missing or an unknown command to the top-level parser."""
    argv = sys.argv[1:] if argv is None else argv
    parser = _parser()
    command = parser.commands.get(argv[0]) if argv else None
    args = ((_read_options(command, argv[1:]) or command.parse_args(argv[1:]))
            if command else parser.parse_args(argv))
    try:
        if getattr(args, "workers", 0) < 0:
            raise UsageError("--workers must be 0 or more, got %d" % args.workers)
        return args.run(args)
    except OutOfFamilyError as exc:
        print("out of family: %s" % exc, file=sys.stderr)
        return EXIT_OUT_OF_FAMILY
    except ResourceBudgetError as exc:
        print("resource budget exhausted: %s" % exc, file=sys.stderr)
        return EXIT_BUDGET
    except (VerificationError, ClassificationError) as exc:
        print("verification failure: %s" % exc, file=sys.stderr)
        return EXIT_VERIFY
    except (UsageError, ConfigurationError, ValueError, OSError) as exc:
        print("error: %s" % exc, file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
