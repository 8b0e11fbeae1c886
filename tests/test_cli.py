"""Command line behavior: payload parsing, report shapes, exit codes,
byte-level determinism."""

import argparse
import contextlib
import io
import itertools
import json
import multiprocessing
import random
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conicnets import atlas, cli
from conicnets.action import act_subspace, mat3_det
from conicnets.errors import ResourceBudgetError
from conicnets.gf import field
from conicnets.invariants import CUBIC_KINDS, PlaneSignature, nucleus_cut
from conicnets.projgeom import Subspace, rref
from oracles import net_record_by_dict, plane_record_by_dict


def run(args, capsys):
    code = cli.main(args)
    out, err = capsys.readouterr()
    return code, out, err


def test_classify_plane_rows(capsys):
    rows, _ = atlas.representative_pattern(field(4), "Sigma19")
    data = json.dumps({"rows": [list(r) for r in rows]})
    code, out, err = run(["classify-plane", "--q", "4", "--data", data], capsys)
    assert code == 0 and err == ""
    rec = json.loads(out)
    assert rec["label"] == "Sigma19"
    assert rec["schema"] == atlas.SCHEMA
    assert rec["q"] == 4
    assert rec["cubic_type"] == "ThreeConcurrentLines"
    assert sum(rec["od0"]) == 21
    assert rec["intersection_with_nucleus_plane"]["dimension"] in (0, 1, 2)


def test_classify_plane_bare_array_and_stdin(capsys, monkeypatch):
    rows, _ = atlas.representative_pattern(field(2), "Sigma9")
    monkeypatch.setattr("sys.stdin", io.StringIO(json.dumps([list(r) for r in rows])))
    code, out, _ = run(["classify-plane", "--q", "2"], capsys)
    assert code == 0
    assert json.loads(out)["label"] == "Sigma9"


def test_classify_plane_label_payload(capsys):
    code, out, _ = run(
        ["classify-plane", "--q", "8", "--data", '{"label": "Sigma20"}'], capsys
    )
    assert code == 0
    assert json.loads(out)["label"] == "Sigma20"


def test_classify_plane_label_with_parameters(capsys):
    # an alternate trace-1 value stays in the Sigma21 orbit
    payload = '{"label": "Sigma21", "parameters": {"a": 3}}'
    code, out, _ = run(["classify-plane", "--q", "4", "--data", payload], capsys)
    assert code == 0
    assert json.loads(out)["label"] == "Sigma21"


def test_classify_plane_input_file(capsys, tmp_path):
    rows, _ = atlas.representative_pattern(field(4), "Sigma16")
    path = tmp_path / "plane.json"
    path.write_text(json.dumps({"rows": [list(r) for r in rows]}))
    code, out, _ = run(["classify-plane", "--q", "4", "--input", str(path)], capsys)
    assert code == 0
    assert json.loads(out)["label"] == "Sigma16"


def test_classify_net_strings(capsys):
    payload = '{"forms": ["X0*X2 + X1^2", "X0^2 + X0*X2 + X1*X2", "X2^2"]}'
    code, out, _ = run(["classify-net", "--q", "4", "--data", payload], capsys)
    assert code == 0
    rec = json.loads(out)
    assert rec["label"] == "Sigma18"
    assert rec["base_points"] == []
    assert rec["double_line_count"] == 1


def test_classify_net_vectors(capsys):
    forms = [list(f) for f in atlas.example_net(field(8))]
    code, out, _ = run(
        ["classify-net", "--q", "8", "--data", json.dumps({"forms": forms})], capsys
    )
    assert code == 0
    assert json.loads(out)["label"] == "Sigma18"


def test_atlas_json_q2(capsys):
    code, out, _ = run(["atlas", "--q", "2"], capsys)
    assert code == 0
    rec = json.loads(out)
    assert rec["mode"] == "exhaustive"
    assert all(c["pass"] for c in rec["checks"])
    assert [r["label"] for r in rec["orbits"]] == list(atlas.LABELS)
    assert sum(r["size"] for r in rec["orbits"]) == 883


def test_atlas_csv_q2(capsys):
    code, out, _ = run(["atlas", "--q", "2", "--format", "csv"], capsys)
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0].startswith("label,size,stabilizer_order,od0,od4")
    assert len(lines) == 19
    assert lines[1].startswith("Sigma1,7,24,")


def test_output_flag_writes_file(capsys, tmp_path):
    path = tmp_path / "report.json"
    code, out, _ = run(["verify", "--q", "2", "--suite", "known-net",
                        "--output", str(path)], capsys)
    assert code == 0
    assert out == ""
    rec = json.loads(path.read_text())
    assert rec["suite"] == "known-net"


def test_deterministic_output_across_workers(capsys):
    code1, out1, _ = run(["verify", "--q", "2", "--suite", "partition"], capsys)
    code2, out2, _ = run(["verify", "--q", "2", "--suite", "partition",
                          "--workers", "2"], capsys)
    assert code1 == code2 == 0
    assert out1 == out2


@pytest.mark.parametrize("argv", [
    ["verify", "--q", "2", "--suite", "partition"],
    ["verify", "--q", "2", "--suite", "double-lines"],
    ["verify", "--q", "8", "--suite", "double-lines", "--samples", "2000"],
], ids=["partition-q2", "double-lines-q2-exhaustive", "double-lines-q8-sampled"])
def test_sweep_output_is_the_same_across_workers_and_start_methods(argv, capsys, monkeypatch):
    """Pool processes get the sweep state through the pool initializer, so
    a spawned process, which inherits nothing, reports what a forked one
    and the serial path report."""
    code, serial, _ = run(argv + ["--workers", "0"], capsys)
    assert code == 0
    monkeypatch.setattr(atlas.os, "cpu_count", lambda: 2)
    for method in ("fork", "spawn"):
        used = []

        def get_context(method=method):
            used.append(method)
            return multiprocessing.get_context(method)

        monkeypatch.setattr(atlas, "get_context", get_context)
        code, out, _ = run(argv + ["--workers", "2"], capsys)
        assert code == 0 and used == [method]
        assert out == serial, method


def test_verify_double_lines_sampled(capsys):
    code, out, _ = run(["verify", "--q", "8", "--suite", "double-lines",
                        "--samples", "2000", "--seed", "11"], capsys)
    assert code == 0
    rec = json.loads(out)
    assert rec["mode"] == "sampled"
    assert rec["totals"]["violations"] == 0
    # seeded runs are reproducible
    code2, out2, _ = run(["verify", "--q", "8", "--suite", "double-lines",
                          "--samples", "2000", "--seed", "11"], capsys)
    assert out2 == out


def test_samples_selects_sampling_at_every_q(capsys):
    argv = ["verify", "--q", "2", "--suite", "double-lines", "--samples", "300"]
    code, out, _ = run(argv, capsys)
    rec = json.loads(out)
    assert code == 0 and rec["mode"] == "sampled"
    assert rec["totals"]["planes_sampled"] == 300
    with pytest.raises(SystemExit) as info:
        cli.main(argv + ["--exhaustive"])
    assert info.value.code == 2


@pytest.mark.parametrize("flag", [["--samples", "5"], ["--seed", "3"]], ids=["samples", "seed"])
@pytest.mark.parametrize("suite", ["distributions", "line-orbits", "partition", "known-net"])
def test_sampling_flags_only_apply_to_double_lines(suite, flag, capsys):
    code, out, err = run(["verify", "--q", "4", "--suite", suite] + flag, capsys)
    assert code == 2 and out == ""
    assert err.startswith("error: ") and err.count("\n") == 1


def test_exit_code_usage_errors(capsys):
    code, _, err = run(["classify-plane", "--q", "4", "--data", "not json"], capsys)
    assert code == 2 and "error" in err
    code, _, err = run(["classify-plane", "--q", "6", "--data", "{}"], capsys)
    assert code == 2
    code, _, err = run(["classify-plane", "--q", "4", "--data", "{}"], capsys)
    assert code == 2  # neither rows nor label
    code, _, err = run(["classify-plane", "--q", "4", "--input", "/no/such/file"], capsys)
    assert code == 2
    code, _, err = run(["verify", "--q", "2", "--suite", "line-orbits"], capsys)
    assert code == 2  # suite defined only for q = 4, 8, 16
    for argv in (["verify", "--q", "16", "--suite", "partition"], ["atlas", "--q", "16"]):
        code, out, err = run(argv, capsys)  # the partition stops at q = 8
        assert code == 2 and out == "" and err.count("\n") == 1, argv
    code, _, err = run(
        ["classify-net", "--q", "4", "--data", '{"forms": ["X9^2", "X0^2", "X1^2"]}'],
        capsys,
    )
    assert code == 2


SIGMA19_Q4 = [[1, 0, 0, 0, 0, 1], [0, 1, 0, 1, 0, 0], [0, 0, 0, 1, 1, 0]]
EXAMPLE_NET_Q4 = ["X0*X2 + X1^2", "X0^2 + X0*X2 + X1*X2", "X2^2"]


def _with(rows, i, j, value):
    out = [list(r) for r in rows]
    out[i][j] = value
    return out


@pytest.mark.parametrize("command,payload", [
    # negative entries would wrap around as table indices
    ("classify-plane", {"rows": _with(SIGMA19_Q4, 0, 0, -1)}),
    ("classify-plane", {"rows": _with(SIGMA19_Q4, 2, 4, 7)}),
    ("classify-plane", {"rows": _with(SIGMA19_Q4, 1, 3, True)}),
    ("classify-plane", {"rows": _with(SIGMA19_Q4, 1, 1, 1.5)}),
    ("classify-net", {"forms": ["9*X0*X2 + X1^2"] + EXAMPLE_NET_Q4[1:]}),
    ("classify-net", {"forms": [[0, 0, -3, 1, 0, 0], [1, 0, 1, 0, 1, 0], [0, 0, 0, 0, 0, 1]]}),
    # a repeated monomial would cancel the bad coefficient by XOR
    ("classify-net", {"forms": ["9*X0*X2 + 9*X0*X2 + X1^2", "X0^2", "X2^2"]}),
    # a non-ASCII digit is no coefficient: an Arabic-Indic 3, a superscript 2
    ("classify-net", {"forms": ["\u0663*X0*X2 + X1^2"] + EXAMPLE_NET_Q4[1:]}),
    ("classify-net", {"forms": ["\u00b2*X2^2", "X0*X2 + X1^2", "X0^2 + X1*X2"]}),
    # label parameters: a bool is not 1, a float is not truncated
    ("classify-plane", {"label": "Sigma21", "parameters": {"a": True}}),
    ("classify-plane", {"label": "Sigma21", "parameters": {"a": 2.7}}),
    # a parameter name the orbit does not take
    ("classify-plane", {"label": "Sigma18", "parameters": {"z": 1}}),
    ("classify-plane", {"label": "Sigma21", "parameters": {"a": 1, "b": 2}}),
], ids=["row-negative", "row-too-large", "row-bool", "row-float",
        "form-string-coefficient", "form-vector-negative", "form-string-repeated-monomial",
        "form-string-arabic-indic-digit", "form-string-superscript-digit",
        "label-parameter-bool", "label-parameter-float", "label-parameter-unknown",
        "label-parameter-extra"])
def test_exit_code_rejects_non_field_elements(command, payload, capsys):
    code, out, err = run([command, "--q", "4", "--data", json.dumps(payload)], capsys)
    assert code == 2
    assert out == ""
    assert "Traceback" not in err
    assert err.startswith("error: ") and err.count("\n") == 1


def test_partial_parameter_override_names_the_missing_parameter(capsys):
    payload = {"label": "Sigma20", "parameters": {"c": 1}}
    code, out, err = run(["classify-plane", "--q", "4", "--data", json.dumps(payload)], capsys)
    assert (code, out) == (2, "")
    assert err == "error: orbit Sigma20 needs parameter b when overriding\n"


SIGMA7_Q4 = [list(r) for r in atlas.representative_pattern(field(4), "Sigma7")[0]]


@pytest.mark.parametrize("command,argv,stdin", [
    # an empty --data is input, not a cue to read stdin
    ("classify-plane", ["--data", ""], '{"label": "Sigma3"}'),
    ("classify-plane", ["--data", '{"label": "Sigma3"}', "--input", "FILE"], ""),
    ("classify-net", ["--input", "FILE", "--data", json.dumps({"forms": EXAMPLE_NET_Q4})], ""),
    # a plane given twice, once by rows and once by label
    ("classify-plane", ["--data", json.dumps({"rows": SIGMA7_Q4, "label": "Sigma3"})], ""),
    # label parameters with no label: they would be dropped unread
    ("classify-plane", ["--data", json.dumps({"rows": SIGMA7_Q4, "parameters": {"a": 1}})], ""),
    # a key of the other command: it would be dropped unread
    ("classify-net", ["--data", json.dumps({"forms": ["X0^2", "X1^2", "X2^2"],
                                            "label": "Sigma9"})], ""),
    ("classify-net", ["--data", json.dumps({"forms": EXAMPLE_NET_Q4, "rows": SIGMA7_Q4})], ""),
    ("classify-net", ["--data", json.dumps({"forms": EXAMPLE_NET_Q4,
                                            "parameters": {"a": 1}})], ""),
    ("classify-plane", ["--data", json.dumps({"label": "Sigma3", "forms": EXAMPLE_NET_Q4})], ""),
    ("classify-plane", ["--data", json.dumps({"rows": SIGMA7_Q4, "forms": EXAMPLE_NET_Q4})], ""),
    # a key neither command takes: it would be dropped unread
    ("classify-plane", ["--data", json.dumps({"label": "Sigma18", "paramters": {"c": 1}})], ""),
    ("classify-plane", ["--data", json.dumps({"rows": SIGMA7_Q4, "q": 4})], ""),
    ("classify-net", ["--data", json.dumps({"forms": EXAMPLE_NET_Q4, "q": 8})], ""),
], ids=["data-empty", "data-and-input-plane", "data-and-input-net", "rows-and-label",
        "parameters-without-label", "net-with-label", "net-with-rows", "net-with-parameters",
        "plane-label-with-forms", "plane-rows-with-forms", "plane-label-misspelled-parameters",
        "plane-rows-with-unknown-key", "net-with-unknown-key"])
def test_exit_code_rejects_ambiguous_input(command, argv, stdin, capsys, monkeypatch, tmp_path):
    path = tmp_path / "input.json"
    path.write_text('{"label": "Sigma3", "forms": %s}' % json.dumps(EXAMPLE_NET_Q4))
    monkeypatch.setattr("sys.stdin", io.StringIO(stdin))
    argv = [str(path) if a == "FILE" else a for a in argv]
    code, out, err = run([command, "--q", "4"] + argv, capsys)
    assert code == 2
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1


@pytest.mark.parametrize("command,payload,message", [
    ("classify-plane", {"label": "Sigma18", "paramters": {"c": 1}},
     "plane input takes no key 'paramters'"),
    ("classify-plane", {"rows": SIGMA7_Q4, "q": 4, "a": 1}, "plane input takes no key 'a, q'"),
    ("classify-net", {"forms": EXAMPLE_NET_Q4, "q": 8}, "net input takes no key 'q'"),
    # a key of the other command keeps its own message
    ("classify-plane", {"label": "Sigma3", "forms": EXAMPLE_NET_Q4, "q": 4},
     'plane input takes no "forms" key'),
    ("classify-net", {"forms": EXAMPLE_NET_Q4, "label": "Sigma3", "q": 4},
     'net input takes "forms" alone, not "rows", "label" or "parameters"'),
], ids=["plane-misspelled-key", "plane-two-unknown-keys", "net-unknown-key",
        "plane-forms-and-unknown-key", "net-label-and-unknown-key"])
def test_an_unknown_payload_key_is_named(command, payload, message, capsys):
    code, out, err = run([command, "--q", "4", "--data", json.dumps(payload)], capsys)
    assert (code, out, err) == (2, "", "error: %s\n" % message)


@pytest.mark.parametrize("argv", [
    ["verify", "--q", "8", "--suite", "double-lines", "--samples", "-5"],
    ["verify", "--q", "8", "--suite", "double-lines", "--samples", "0"],
    ["verify", "--q", "8", "--suite", "double-lines", "--seed", "-1"],
    ["verify", "--q", "2", "--suite", "double-lines", "--workers", "-1"],
    ["verify", "--q", "2", "--suite", "partition", "--workers", "-2"],
    ["atlas", "--q", "2", "--workers", "-1"],
    ["classify-plane", "--q", "4", "--modulus", "-7", "--data", '{"label": "Sigma3"}'],
], ids=["samples-negative", "samples-zero", "seed-negative", "workers-double-lines",
        "workers-partition", "workers-atlas", "modulus-negative"])
def test_exit_code_rejects_bad_sample_and_worker_counts(argv, capsys):
    code, out, err = run(argv, capsys)
    assert code == 2
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1


@pytest.mark.parametrize("command", ["classify-plane", "classify-net"])
@pytest.mark.parametrize("source", ["--data", "--input"])
def test_deeply_nested_json_exits_2(command, source, capsys, tmp_path):
    """json.loads raises RecursionError, not JSONDecodeError, past its
    nesting limit."""
    text = "[" * 100000 + "]" * 100000
    path = tmp_path / "deep.json"
    path.write_text(text)
    code, out, err = run([command, "--q", "4", source, text if source == "--data" else str(path)],
                         capsys)
    assert code == 2
    assert out == ""
    assert err == "error: input JSON is nested too deeply\n"


@pytest.mark.parametrize("command,payload,what", [
    ("classify-plane", {"rows": SIGMA19_Q4[:2] + [[1, 1, 0, 1, 0, 1]]}, "plane rows"),
    ("classify-net", {"forms": EXAMPLE_NET_Q4[:2] + ["X0^2 + X1^2 + X1*X2"]}, "net basis forms"),
], ids=["plane-rows", "net-forms"])
def test_dependent_input_names_what_the_user_gave(command, payload, what, capsys):
    code, out, err = run([command, "--q", "4", "--data", json.dumps(payload)], capsys)
    assert code == 2
    assert out == ""
    assert "Traceback" not in err
    assert err == "error: %s are linearly dependent\n" % what


def test_exit_code_out_of_family(capsys):
    data = '{"rows": [[1,0,0,0,0,0],[0,0,0,1,0,0],[0,0,0,0,0,1]]}'
    code, _, err = run(["classify-plane", "--q", "4", "--data", data], capsys)
    assert code == 3
    assert "out of family" in err


def test_exit_code_verification_failure(capsys, monkeypatch):
    failing = {
        "schema": atlas.SCHEMA, "suite": "known-net", "q": 2,
        "checks": [{"name": "classifies_as_sigma18", "pass": False, "details": {}}],
        "totals": {},
    }
    monkeypatch.setattr(atlas, "verify_known_net", lambda gf: failing)
    code, out, _ = run(["verify", "--q", "2", "--suite", "known-net"], capsys)
    assert code == 4


def test_exit_code_representative_fails_a_distribution_check(capsys, monkeypatch):
    """A representative whose scanned hyperplane distribution disagrees
    with its table row fails its one distribution check: exit 4, with the
    whole report on stdout.  The scan is the suite's check of the
    transform, made once per representative."""
    wrong = atlas.representatives(field(4))["Sigma9"]
    scan, calls = atlas.hyperplane_class_counts, []

    def skewed(s):
        calls.append(s)
        double, real, imaginary, nonsingular = scan(s)
        return double, real - (s is wrong), imaginary + (s is wrong), nonsingular

    monkeypatch.setattr(atlas, "hyperplane_class_counts", skewed)
    code, out, err = run(["verify", "--q", "4", "--suite", "distributions"], capsys)
    assert (code, err) == (4, "")
    assert [c["name"] for c in json.loads(out)["checks"] if not c["pass"]] == [
        "distribution[Sigma9]"]
    assert len(calls) == len(atlas.LABELS)


def test_exit_code_resource_budget(capsys, monkeypatch):
    def explode(s, meet, points):
        raise ResourceBudgetError("orbit too large", partial=123)

    monkeypatch.setattr(atlas, "classify_plane_at", explode)
    code, _, err = run(
        ["classify-plane", "--q", "4", "--data", '{"label": "Sigma9"}'], capsys
    )
    assert code == 5
    assert "resource budget" in err


@pytest.mark.parametrize("q", (4, 16))
def test_classify_requests_reduce_their_input_at_most_twice_or_three_times(q, capsys, rref_calls):
    """A classify-plane request reduces its rows once and its diagonal
    columns once (invariants.nucleus_cut); a classify-net request reduces
    its forms and their annihilator, then the plane's diagonal columns, and
    reads its double-line count off the meet.  Every module's rref is
    counted."""
    gf = field(q)
    requests = []
    for label in atlas.LABELS:
        moved = act_subspace(act_subspace(atlas.representative(gf, label), (2, 1, 0, 0, 3, 1, 1, 0, 2)),
                             (1, 1, 0, 0, 1, 0, 0, 0, 1))
        requests.append(("classify-plane", label, {"rows": [list(r) for r in moved.rows]}))
        requests.append(("classify-net", label, {"forms": [list(f) for f in atlas.net_of_plane(moved)]}))
    for command, label, payload in requests:
        rref_calls.clear()
        code, out, _ = run([command, "--q", str(q), "--data", json.dumps(payload)], capsys)
        assert code == 0 and json.loads(out)["label"] == label
        assert len(rref_calls) <= {"classify-plane": 2, "classify-net": 3}[command], (command, label)


@pytest.mark.parametrize("q", (2, 4, 8))
def test_net_records_count_the_double_lines_of_the_net(q, capsys):
    """A classify-net record reads its double_line_count off the nucleus
    meet, whose points match the net's double lines by duality; it equals
    net_double_line_count, the kernel of the forms' cross columns, on the
    moved representatives (every meet dimension) and on random nets."""
    gf = field(q)
    rng = random.Random(q)
    planes = [act_subspace(s, (0, 1, 1, 1, 0, 1, 1, 1, 1)) for s in atlas.representatives(gf).values()]
    while len(planes) < 60:
        rows = rref(gf, [[rng.randrange(q) for _ in range(6)] for _ in range(3)])
        if len(rows) == 3 and nucleus_cut(Subspace(gf, 5, rows))[0] is not None:
            planes.append(Subspace(gf, 5, rows))
    dims = set()
    for s in planes:
        forms = atlas.net_of_plane(s)
        code, out, _ = run(["classify-net", "--q", str(q), "--data",
                            json.dumps({"forms": [list(f) for f in forms]})], capsys)
        assert code == 0
        assert json.loads(out)["double_line_count"] == atlas.net_double_line_count(gf, forms), s
        dims.add(nucleus_cut(s)[0].dim)
    assert dims == {0, 1, 2}


def test_argparse_usage_exits_2():
    with pytest.raises(SystemExit) as info:
        cli.main([])
    assert info.value.code == 2
    with pytest.raises(SystemExit) as info:
        cli.main(["verify", "--q", "2", "--suite", "nonsense"])
    assert info.value.code == 2


def test_parser_is_shared_without_carrying_state(capsys, tmp_path):
    assert cli._parser() is cli._parser()
    assert cli.build_parser() is not cli.build_parser()
    path = tmp_path / "report.json"
    argv = ["verify", "--q", "2", "--suite", "known-net"]
    code, out, _ = run(argv + ["--output", str(path)], capsys)
    assert code == 0 and out == ""
    code, before, _ = run(argv, capsys)
    assert code == 0
    # a usage error in between exits 2 and leaves the next call unaffected,
    # read from the option table or by argparse
    with pytest.raises(SystemExit) as info:
        cli.main(["verify", "--q", "2"])
    assert info.value.code == 2
    code, after, _ = run(argv, capsys)
    assert code == 0
    code, parsed, _ = run(["verify", "--q=2", "--suite", "known-net"], capsys)
    assert code == 0
    assert after == parsed == before == path.read_text()


def test_requests_give_the_same_bytes_without_the_option_reader(capsys, monkeypatch):
    """Exit code, stdout and stderr of a request are the same whether the
    option reader or argparse reads its command line."""
    requests = []
    for q in (4, 8, 16):
        for label in ("Sigma3", "Sigma19", "Sigma22"):
            s = atlas.representative(field(q), label)
            requests += [
                ["classify-plane", "--q", str(q), "--data", json.dumps({"rows": s.rows})],
                ["classify-net", "--data", json.dumps({"forms": atlas.net_of_plane(s)}),
                 "--q", str(q)],
            ]
    requests += [
        ["classify-plane", "--q", "4", "--data",
         '{"rows": [[1,0,0,0,0,0],[0,0,0,1,0,0],[0,0,0,0,0,1]]}'],
        ["classify-plane", "--q", "4", "--data", "not json"],
        ["classify-plane", "--q", "6", "--data", '{"label": "Sigma9"}'],
        ["classify-net", "--q", "4", "--data", '{"forms": ["X9^2", "X0^2", "X1^2"]}'],
        ["verify", "--q", "2", "--suite", "known-net"],
        ["atlas", "--q", "2", "--format", "csv"],
    ]
    outputs = [run(argv, capsys) for argv in requests]
    assert {code for code, _, _ in outputs} == {0, 2, 3}
    monkeypatch.setattr(cli, "_read_options", lambda command, argv: None)
    assert [run(argv, capsys) for argv in requests] == outputs


@pytest.mark.parametrize("payload", [
    {"rows": _with(SIGMA19_Q4, 0, 0, [0] * 200000)},
    {"rows": _with(SIGMA19_Q4, 1, 2, "x" * 100000)},
    {"rows": _with(SIGMA19_Q4, 2, 5, {"k" * 1000: [1] * 100, "a" * 1000: 1, "b": 2})},
    {"label": "Sigma18", "parameters": {"c": json.loads("[" * 900 + "]" * 900)}},
    {"label": "Sigma18", "parameters": {"c": 10 ** 4000}},
    {"label": "S" * 100000, "parameters": {"a": 1}},
    {"label": "Sigma18", "parameters": {"z%d" % i * 50: 1 for i in range(2000)}},
    {"forms": ["X0^2" + " +" * 100000, "X1^2", "X2^2"]},
    {"forms": ["X9^2" * 100000, "X1^2", "X2^2"]},
], ids=["long-list", "long-string", "object-of-long-keys", "deeply-nested", "huge-int",
        "long-label", "long-parameter-names", "malformed-long-form", "long-unknown-monomial"])
def test_huge_input_values_give_a_short_one_line_message(payload, capsys):
    """A value echoed in an input error is shown in bounded form, so the
    message stays one short line however large or deep the value is."""
    command = "classify-net" if "forms" in payload else "classify-plane"
    code, out, err = run([command, "--q", "4", "--data", json.dumps(payload)], capsys)
    assert code == 2 and out == ""
    assert err.startswith("error: ") and err.count("\n") == 1
    assert len(err.encode()) < 200, err


def _count_argparse_passes(monkeypatch) -> list:
    """A list that gains the prog of each parser that parses a command line."""
    calls = []
    real = argparse.ArgumentParser.parse_known_args

    def counting(self, *args, **kwargs):
        calls.append(self.prog)
        return real(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "parse_known_args", counting)
    return calls


def test_well_formed_classify_requests_skip_argparse(capsys, monkeypatch):
    """A well-formed classify request is read from its command's option
    table with no argparse pass.  Any other command line gets exactly one
    pass, by the command's own parser, which reports or runs it as before."""
    calls = _count_argparse_passes(monkeypatch)
    for argv in (
        ["classify-plane", "--q", "4", "--data", json.dumps({"rows": SIGMA19_Q4})],
        ["classify-plane", "--data", '{"label": "Sigma18"}', "--q", "8"],
        ["classify-net", "--q", "4", "--data", json.dumps({"forms": EXAMPLE_NET_Q4})],
        ["classify-net", "--output", "", "--q", "16", "--data",
         json.dumps({"forms": EXAMPLE_NET_Q4})],
    ):
        calls.clear()
        code, out, _ = run(argv, capsys)
        assert code == 0 and json.loads(out)["q"] in (4, 8, 16)
        assert calls == [], argv
    data = json.dumps({"rows": SIGMA19_Q4})
    for argv, message in (
        (["classify-plane", "--q", "x", "--data", data], "argument --q: invalid int value: 'x'"),
        (["classify-net", "--q", "4", "--foo", "1"], "unrecognized arguments: --foo 1"),
    ):
        calls.clear()
        with pytest.raises(SystemExit) as info:
            cli.main(argv)
        out, err = capsys.readouterr()
        assert info.value.code == 2 and out == ""
        assert err.startswith("usage: conicnets %s [-h] --q Q" % argv[0])
        assert err.endswith("\nconicnets %s: error: %s\n" % (argv[0], message))
        assert calls == ["conicnets " + argv[0]], argv
    calls.clear()
    code, out, _ = run(["classify-plane", "--q=4", "--data", data], capsys)
    assert code == 0 and json.loads(out)["label"] == "Sigma19"
    assert calls == ["conicnets classify-plane"]


# One value of each option that its parser takes.
_OPTION_VALUES = {
    "--q": "4", "--modulus": "19", "--output": "report.json", "--data": "{}",
    "--input": "in.json", "--workers": "2", "--format": "csv", "--suite": "partition",
    "--samples": "10", "--seed": "3",
}


def _well_formed_argvs(command: str):
    """Every option order and every omission of each command's options,
    required ones included."""
    names = list(cli._parser().commands[command].options)
    for k in range(len(names) + 1):
        for subset in itertools.permutations(names, k):
            yield [word for name in subset for word in (name, _OPTION_VALUES[name])]


# Command lines of the reader's shape whose values argparse may reject: the
# reader must read each exactly as argparse does, or decline it as argparse
# does.
_VALUE_ARGVS = {
    "classify-plane": [
        ["--q", ""], ["--q", "x"], ["--q", "4.0"], ["--q", " 4 "], ["--q", "1_6"],
        ["--q", "4", "--data", ""], ["--q", "4", "--modulus", "0x13"],
        ["--q", "4", "--output", "", "--input", ""],
    ],
    "classify-net": [["--q", "8", "--data", "", "--input", ""], ["--q", "8 "], ["--q", "eight"]],
    "atlas": [
        ["--q", "2", "--format", "xml"], ["--q", "2", "--format", "CSV"],
        ["--q", "2", "--format", ""], ["--q", "2", "--workers", "two"],
        ["--q", "2", "--workers", ""],
    ],
    "verify": [
        ["--q", "4", "--suite", "nonsense"], ["--q", "4", "--suite", ""],
        ["--q", "4", "--suite", "partition", "--samples", "1e3"],
        ["--q", "4", "--suite", "double-lines", "--seed", "x"],
    ],
}

# Command lines outside the reader's shape, which it must leave to argparse,
# though argparse accepts some of them: a prefix, --opt=v, a repeat, a
# dashed value.
_OFF_SHAPE_ARGVS = {
    "classify-plane": [
        ["--q", "4", "--dat", "{}"], ["--q", "4", "--d", "{}"], ["--q", "4", "--mod", "19"],
        ["--q=4"], ["--q", "4", "--data={}"], ["--q", "4", "--q", "8"],
        ["--q", "4", "--data", "{}", "--data", "[]"], ["-h"], ["--q", "4", "--help"],
        ["--q", "-4"], ["--q", "4", "--modulus", "-1"], ["--q", "4", "--data", "-"],
        ["--q", "4", "--output", "-o"], ["--q", "4", "--input", "--data"], ["--", "--q", "4"],
        ["--q"], ["--q", "4", "--data"], ["--q", "4", "extra"], ["4", "--q"],
        ["--q", "4", "--foo", "1"], ["--q", "4", "--workers", "2"],
    ],
    "classify-net": [
        ["--q", "8", "--in", "f.json"], ["--q", "8", "--i", "f.json"], ["--q", "8", "--q", "8"],
        ["--q", "8", "--output=r.json"], ["--q", "8", "-h"], ["--q", "8", "--data", "-1"],
        ["--q", "8", "--suite", "known-net"],
    ],
    "atlas": [
        ["--q", "2", "--form", "csv"], ["--q", "2", "--w", "2"], ["--q", "2", "--format=csv"],
        ["--q", "2", "--format", "csv", "--format", "json"], ["--q", "2", "--workers", "-1"],
        ["--q", "2", "--format"], ["--q", "2", "--data", "{}"], ["--q", "2", "-h"],
    ],
    "verify": [
        ["--q", "4", "--su", "partition"], ["--q", "4", "--se", "1", "--suite", "partition"],
        ["--q", "4", "--s", "partition"], ["--q", "4", "--suite=partition"],
        ["--q", "4", "--suite", "partition", "--suite", "known-net"],
        ["--q", "4", "--suite", "double-lines", "--seed", "-1"],
        ["--q", "4", "--suite", "double-lines", "--samples", "--seed"],
        ["--q", "4", "--suite"], ["--q", "4", "--suite", "partition", "--format", "csv"],
    ],
}


def _parse_or_none(command, argv):
    """vars() of the namespace argparse returns for argv, or None where it
    exits (a usage error, or -h)."""
    try:
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
            return vars(command.parse_args(argv))
    except SystemExit:
        return None


@pytest.mark.parametrize("name", ["classify-plane", "classify-net", "atlas", "verify"])
def test_option_reader_agrees_with_argparse(name):
    """argparse is the oracle: the reader reads every command line of its
    shape as argparse does, or declines it where argparse rejects it, and
    it declines every command line outside its shape."""
    command = cli._parser().commands[name]
    for argv in itertools.chain(_well_formed_argvs(name), _VALUE_ARGVS[name]):
        args = cli._read_options(command, argv)
        assert (None if args is None else vars(args)) == _parse_or_none(command, argv), argv
    for argv in _OFF_SHAPE_ARGVS[name]:
        assert cli._read_options(command, argv) is None, argv


def test_unknown_option_is_reported_by_the_command_parser(capsys):
    with pytest.raises(SystemExit) as info:
        cli.main(["classify-plane", "--q", "4", "--foo", "1"])
    assert info.value.code == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("usage: conicnets classify-plane [-h] --q Q")
    assert err.endswith("\nconicnets classify-plane: error: unrecognized arguments: --foo 1\n")


@pytest.mark.parametrize("argv,code,stream,text", [
    ([], 2, "err", "conicnets: error: the following arguments are required: command\n"),
    (["bogus"], 2, "err", "conicnets: error: argument command: invalid choice: 'bogus'"),
    (["-h"], 0, "out", "usage: conicnets [-h]"),
], ids=["no-command", "unknown-command", "help"])
def test_top_level_arguments_go_through_the_top_level_parser(argv, code, stream, text, capsys):
    """No command, an unknown one or -h: exit code and message are those of
    the top-level parser, as before commands were parsed in one pass."""
    outputs = []
    for parse in (cli.main, cli.build_parser().parse_args):
        with pytest.raises(SystemExit) as info:
            parse(argv)
        outputs.append((info.value.code, capsys.readouterr()))
    assert outputs[0] == outputs[1]
    got_code, (out, err) = outputs[0]
    assert got_code == code
    assert text in {"out": out, "err": err}[stream]
    assert {"out": err, "err": out}[stream] == ""


# -- the report bytes ---------------------------------------------------------


def test_reports_are_written_as_json_dumps_writes_them(capsys, monkeypatch, tmp_path):
    """Each classify record is the bytes json.dumps(indent=2, sort_keys=True)
    writes of its own JSON, on stdout and through --output: the 18 moved
    representatives at q = 2, 4, 8, 16, 32 and 256, as planes and as nets.
    Every q=2 report of atlas and verify is the bytes of json.dumps of the
    dict handed to _emit."""
    move = (0, 1, 1, 1, 0, 1, 1, 1, 1)  # a 0/1 matrix of determinant 1: invertible at every q
    path = tmp_path / "record.json"
    for q in (2, 4, 8, 16, 32, 256):
        gf = field(q)
        assert mat3_det(gf, move) == 1
        for label in atlas.LABELS:
            moved = act_subspace(atlas.representative(gf, label), move)
            for argv in (
                ["classify-plane", "--q", str(q), "--data",
                 json.dumps({"rows": [list(r) for r in moved.rows]})],
                ["classify-net", "--q", str(q), "--data",
                 json.dumps({"forms": [list(f) for f in atlas.net_of_plane(moved)]})],
            ):
                code, out, _ = run(argv, capsys)
                record = json.loads(out)
                assert code == 0 and record["label"] == label, argv
                assert out == json.dumps(record, indent=2, sort_keys=True) + "\n", argv
                code, printed, _ = run(argv + ["--output", str(path)], capsys)
                assert (code, printed) == (0, "") and path.read_bytes() == out.encode(), argv

    requests = [["atlas", "--q", "2"]] + [
        ["verify", "--q", "2", "--suite", suite] for suite in cli.SUITES if suite != "line-orbits"
    ]
    objs = []
    real = cli._emit

    def spy(args, obj):
        objs.append(obj)
        real(args, obj)

    monkeypatch.setattr(cli, "_emit", spy)
    for argv in requests:
        objs.clear()
        code, out, _ = run(argv, capsys)
        assert code == 0 and len(objs) == 1, argv
        assert out == json.dumps(objs[0], indent=2, sort_keys=True) + "\n", argv


_elements_of = {q: st.integers(0, q - 1) for q in (2, 4, 8, 16, 256)}


@pytest.mark.parametrize("meet_rows", (1, 2, 3), ids=["meet-point", "meet-line", "meet-plane"])
@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(data=st.data())
def test_record_templates_match_the_record_dicts(meet_rows, data):
    """The classify records written from templates equal the records built
    as dicts and written by json.dumps (tests/oracles.py), on random
    signatures, cubic kinds (null included), rows and base points (empty
    included), at each meet dimension."""
    q = data.draw(st.sampled_from(sorted(_elements_of)))
    n = q * q + q + 1

    def rows(width, low, high):
        return st.lists(st.tuples(*[_elements_of[q]] * width), min_size=low, max_size=high)

    c0, c1, c2 = sorted(data.draw(st.lists(st.integers(0, n), min_size=3, max_size=3)))
    sig = PlaneSignature((c0, c1 - c0, c2 - c1, n - c2),
                         data.draw(st.sampled_from(CUBIC_KINDS + (None,))))
    label = data.draw(st.sampled_from(atlas.LABELS))
    plane, meet = data.draw(rows(6, 3, 3)), data.draw(rows(6, meet_rows, meet_rows))
    assert cli._plane_record(q, label, sig, plane, meet) == plane_record_by_dict(
        q, label, sig, plane, meet)
    forms = data.draw(st.lists(st.lists(_elements_of[q], min_size=6, max_size=6),
                               min_size=3, max_size=3))
    points = data.draw(rows(3, 0, 4))
    double_lines = (1, q + 1, n)[meet_rows - 1]
    assert cli._net_record(q, label, forms, plane, points, double_lines) == net_record_by_dict(
        q, label, forms, plane, points, double_lines)


@pytest.mark.parametrize("q", (4, 8))
def test_samples_past_the_budget_are_refused_before_the_sweep(q, capsys, monkeypatch):
    """--samples atlas.MAX_SAMPLES is split over the 128 sample chunks and
    swept; one more, or an absurd count, exits 5 with a one-line message
    and sweeps nothing."""
    swept = []

    def sweep(worker, state, chunks, workers):
        swept.append(list(chunks))
        return Counter(planes=sum(count for _, count in chunks)), []

    monkeypatch.setattr(atlas, "_sweep", sweep)
    argv = ["verify", "--q", str(q), "--suite", "double-lines", "--samples"]
    code, out, err = run(argv + [str(atlas.MAX_SAMPLES)], capsys)
    assert (code, err) == (0, "")
    assert len(swept) == 1 and len(swept[0]) == 128
    assert sum(count for _, count in swept[0]) == atlas.MAX_SAMPLES
    assert json.loads(out)["totals"]["planes_sampled"] == atlas.MAX_SAMPLES
    for samples in (atlas.MAX_SAMPLES + 1, 10**23 - 1):
        swept.clear()
        code, out, err = run(argv + [str(samples)], capsys)
        assert (code, out, swept) == (5, "", [])
        assert err == "resource budget exhausted: %d samples are past the budget of %d\n" % (
            samples, atlas.MAX_SAMPLES)


# -- malformed input, property-tested ---------------------------------------

# Field elements of the smaller fields, their near misses, and values of the
# wrong JSON type.
_values = st.one_of(
    st.integers(min_value=-3, max_value=20),
    st.booleans(),
    st.floats(allow_nan=False, allow_infinity=False, width=32),
    st.none(),
    st.text(max_size=3),
    st.lists(st.integers(0, 3), max_size=2),
)
_vectors = st.one_of(_values, st.lists(_values, min_size=0, max_size=7))
_monomials = st.sampled_from(
    ["X0^2", "X0*X1", "X1*X0", "X0*X2", "X1^2", "X1*X2", "X2^2", "X3^2", "X0", ""]
)
_terms = st.tuples(st.one_of(st.none(), st.integers(0, 12), st.text("0123456789*+", max_size=3)),
                   _monomials).map(lambda t: t[1] if t[0] is None else "%s*%s" % t)
_form_strings = st.one_of(
    st.lists(_terms, min_size=0, max_size=4).map(" + ".join),
    st.text("X0123^*+ 9", max_size=14),
)
_payloads = st.one_of(
    st.builds(lambda rows: ("classify-plane", {"rows": rows}),
              st.one_of(_vectors, st.lists(_vectors, min_size=0, max_size=4))),
    st.builds(lambda forms: ("classify-net", {"forms": forms}),
              st.lists(st.one_of(_form_strings, _vectors), min_size=0, max_size=4)),
    st.builds(lambda label, params: ("classify-plane", {"label": label, "parameters": params}),
              st.one_of(st.sampled_from(atlas.LABELS + ("Sigma99",)), _values),
              st.one_of(st.none(), _values,
                        st.dictionaries(st.sampled_from(["a", "b", "c", "d"]), _values,
                                        max_size=3))),
)


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(q=st.sampled_from([2, 4, 8]), request=_payloads)
def test_malformed_input_never_tracebacks(q, request):
    """Any payload ends in exit 0, 2 or 3, never in an uncaught exception;
    a rejected one gets a one-line message on stderr."""
    command, payload = request
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main([command, "--q", str(q), "--data", json.dumps(payload)])
    assert code in (0, 2, 3)
    assert "Traceback" not in err.getvalue()
    if code != 0:
        assert out.getvalue() == "" and err.getvalue().count("\n") == 1
