"""Command-line front end: output formats, schema validation, exit codes."""

import json
import os
import subprocess
import sys

import numpy as np
import pytest

jsonschema = pytest.importorskip("jsonschema")

import zdgspectra
from zdgspectra.classes import classes_associate
from zdgspectra.cli import main
from zdgspectra.graph import build_zdg
from zdgspectra.rings import parse_ring_spec
from zdgspectra.spectra import DecompositionError

SCHEMA_PATH = os.path.join(
    os.path.dirname(__file__), "..", "src", "zdgspectra", "schemas", "report.schema.json"
)
with open(SCHEMA_PATH) as fh:
    SCHEMA = json.load(fh)
PACKAGE_ROOT = os.path.dirname(os.path.dirname(zdgspectra.__file__))


def run_cli(args, env=None):
    """Run through a subprocess so exit codes and stream separation are real."""
    cmd = [sys.executable, "-m", "zdgspectra.cli", *args]
    merged = dict(os.environ)
    # the child imports the package this process imported, installed or not
    merged["PYTHONPATH"] = os.pathsep.join(
        filter(None, [PACKAGE_ROOT, os.environ.get("PYTHONPATH")])
    )
    if env:
        merged.update(env)
    proc = subprocess.run(cmd, capture_output=True, text=True, env=merged)
    return proc.returncode, proc.stdout, proc.stderr


def run_inproc(args):
    """Call main() directly when the exit code is all that matters."""
    import contextlib
    import io

    out = io.StringIO()
    err = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(list(args))
    return code, out.getvalue(), err.getvalue()


def validate(payload):
    jsonschema.validate(payload, SCHEMA)


# --- happy paths, one per verb ---


def test_classes_json():
    code, out, err = run_cli(["classes", "--ring", "Zn(18)", "--relation", "annihilator"])
    assert code == 0, err
    payload = json.loads(out)
    validate(payload)
    members = {frozenset(c["members"]) for c in payload["classes"]}
    assert frozenset({"6", "12"}) in members


def test_classes_csv():
    code, out, _ = run_cli(
        ["classes", "--ring", "Zn(16)", "--format", "csv"]
    )
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "rep,size,kind,members"
    assert len(lines) == 4  # header + 3 associate classes


def test_classes_json_equals_unit_orbit_definition():
    # the keyed associate partition, as printed, against the unit-orbit
    # definition: same classes, members and kinds, in the same order
    for spec in ["M(2,GF(3))", "M(2,GF(2))xZn(4)", "Zn(30)"]:
        code, out, err = run_cli(["classes", "--ring", spec, "--format", "json"])
        assert code == 0, err
        ring = parse_ring_spec(spec)
        payload = {"ring": ring.spec_string(), **classes_associate(ring).to_json(build_zdg(ring))}
        assert out == json.dumps(payload, indent=2) + "\n", spec


def test_graph_json_and_csv():
    code, out, _ = run_cli(["graph", "--ring", "Zn(6)"])
    assert code == 0
    payload = json.loads(out)
    validate(payload)
    assert payload["vertices"] == ["2", "3", "4"]
    code, out, _ = run_cli(["graph", "--ring", "Zn(6)", "--format", "csv"])
    assert code == 0
    assert out == "2 3\n3 4\n"


def test_spectrum_json_both_methods():
    code, out, err = run_cli(
        ["spectrum", "--ring", "Zn(18)", "--method", "both", "--flavor", "both"]
    )
    assert code == 0, err
    payload = json.loads(out)
    validate(payload)
    joins = [r for r in payload if r["method"] == "join"]
    assert len(joins) == 2
    for r in joins:
        assert r["verification"]["matched"] is True


def test_spectrum_csv_is_g12():
    code, out, _ = run_cli(
        ["spectrum", "--ring", "Zn(8)", "--flavor", "adjacency", "--format", "csv"]
    )
    assert code == 0
    rows = out.strip().splitlines()
    assert rows[0] == "flavor,method,index,value"
    values = [r.split(",")[-1] for r in rows[1:]]
    assert values[0] == "-1.41421356237"  # %.12g rendering of -sqrt(2)


def test_counts_verbs():
    code, out, _ = run_cli(["counts", "--what", "qbinom", "--n", "4", "--r", "2", "--q", "2"])
    assert code == 0
    payload = json.loads(out)
    validate(payload)
    assert payload["value"] == "35"

    code, out, _ = run_cli(["counts", "--what", "rank-count", "--n", "2", "--m", "2", "--r", "1", "--q", "2"])
    assert json.loads(out)["value"] == "9"

    code, out, _ = run_cli(["counts", "--what", "zn-profile", "--n", "18"])
    payload = json.loads(out)
    validate(payload)
    assert payload["value"]["class_count"] == 4


def test_counts_csv():
    code, out, _ = run_cli(
        ["counts", "--what", "idempotent-count", "--n", "2", "--q", "2", "--format", "csv"]
    )
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "formula,inputs,value"
    assert lines[1].endswith(",6")


def test_verify_single_ring():
    code, out, err = run_cli(["verify", "--ring", "Zn(36)"])
    assert code == 0, err
    payload = json.loads(out)
    validate(payload)
    assert payload["all_matched"] is True


def test_verify_sweep_csv():
    code, out, _ = run_cli(
        ["verify", "--sweep", "Zn:6..30", "--format", "csv", "--flavor", "adjacency"]
    )
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "ring,|Z|,flavor,method_agreement,max_dev,seconds"
    assert any(line.startswith("Zn(6),3,adjacency,true,") for line in lines)
    # primes have empty graphs: still one row each, agreeing trivially
    assert any(line.startswith("Zn(7),0,adjacency,true,") for line in lines)


def test_verify_sweep_matrix_shorthand():
    code, out, _ = run_cli(["verify", "--sweep", "M:2,GF(3)"])
    assert code == 0
    payload = json.loads(out)
    assert payload["all_matched"] is True
    assert payload["results"][0]["ring"] == "M(2,GF(3))"


def test_lift_json(tmp_path):
    matrix = tmp_path / "b.txt"
    matrix.write_text("-1 0 1\n0 2 0\n0 0 1\n")
    code, out, err = run_cli(
        [
            "lift",
            "--matrix",
            str(matrix),
            "--j",
            "1",
            "--m",
            "2",
            "--value",
            "2",
            "--vector",
            "0,1,0",
        ]
    )
    assert code == 0, err
    payload = json.loads(out)
    validate(payload)
    assert payload["mu"] == 4.0
    assert payload["vector"] == [0.0, 1.0, 1.0, 0.0]


def test_verify_sweep_skips_over_cap_rings():
    code, out, _ = run_inproc(["verify", "--sweep", "Zn:9..10", "--max-vertices", "3"])
    assert code == 0
    payload = json.loads(out)
    validate(payload)
    assert payload["all_matched"] is True
    skipped = [r for r in payload["results"] if r["skipped"]]
    assert [r["ring"] for r in skipped] == ["Zn(10)", "Zn(10)"]
    assert all(r["order"] is None and r["matched"] is None and "error" not in r for r in skipped)
    code, out, _ = run_inproc(
        ["verify", "--sweep", "Zn:9..10", "--max-vertices", "3", "--format", "csv"]
    )
    assert code == 0
    assert out.strip().splitlines()[-1] == "Zn(10),,laplacian,skipped,,"


@pytest.mark.parametrize(
    "exc",
    [np.linalg.LinAlgError("Eigenvalues did not converge"), DecompositionError("blow-up does not match")],
)
def test_verify_sweep_reports_error_rows(monkeypatch, exc):
    from zdgspectra import cli

    real = cli.verify_ring

    def flaky(ring, *args, **kwargs):
        if ring.spec_string() == "Zn(8)":
            raise exc
        return real(ring, *args, **kwargs)

    monkeypatch.setattr(cli, "verify_ring", flaky)
    code, out, _ = run_inproc(["verify", "--sweep", "Zn:6..9"])
    assert code == 2
    payload = json.loads(out)
    validate(payload)
    assert payload["all_matched"] is False
    bad = [r for r in payload["results"] if r["ring"] == "Zn(8)"]
    assert [r["flavor"] for r in bad] == ["adjacency", "laplacian"]
    for r in bad:
        assert r["error"] == f"{type(exc).__name__}: {exc}"
        assert r["matched"] is None and r["order"] is None and r["max_deviation"] is None
        assert r["skipped"] is False
    good = [r for r in payload["results"] if r["ring"] != "Zn(8)"]
    assert [r["ring"] for r in good] == ["Zn(6)", "Zn(6)", "Zn(7)", "Zn(7)", "Zn(9)", "Zn(9)"]
    assert all(r["matched"] is True and "error" not in r for r in good)

    code, out, _ = run_inproc(["verify", "--sweep", "Zn:6..9", "--format", "csv"])
    assert code == 2
    lines = out.strip().splitlines()
    assert lines[0] == "ring,|Z|,flavor,method_agreement,max_dev,seconds"
    assert "Zn(8),,adjacency,error,," in lines and "Zn(8),,laplacian,error,," in lines
    assert any(line.startswith("Zn(9),2,laplacian,true,") for line in lines)


# --- determinism ---


def test_json_outputs_are_byte_stable():
    for args in (
        ["classes", "--ring", "Zn(30)"],
        ["graph", "--ring", "Zn(30)"],
        ["spectrum", "--ring", "Zn(30)", "--method", "both"],
        ["counts", "--what", "class-count", "--n", "2", "--q", "3"],
        ["verify", "--ring", "Zn(30)"],
    ):
        _, first, _ = run_cli(args)
        _, second, _ = run_cli(args)
        assert first == second, args


def test_sweep_csv_stable_apart_from_seconds():
    _, first, _ = run_cli(["verify", "--sweep", "Zn:6..12", "--format", "csv"])
    _, second, _ = run_cli(["verify", "--sweep", "Zn:6..12", "--format", "csv"])

    def strip_seconds(text):
        return [line.rsplit(",", 1)[0] for line in text.strip().splitlines()]

    assert strip_seconds(first) == strip_seconds(second)


# --- exit codes ---


def test_exit_code_bad_ring_spec():
    code, out, err = run_inproc(["classes", "--ring", "GF(6)"])
    assert code == 1
    assert "error:" in err


def test_exit_code_bad_flag_is_input_error():
    code, _, _ = run_inproc(["classes", "--ring", "Zn(12)", "--format", "yaml"])
    assert code == 1


def test_exit_code_missing_count_arg():
    code, _, err = run_inproc(["counts", "--what", "qbinom", "--n", "4"])
    assert code == 1
    assert "error:" in err


def test_degree_zn_zero_divisor_is_an_input_error():
    # d = 0 must be refused before n % d is taken
    code, out, err = run_cli(["counts", "--what", "degree-zn", "--n", "5", "--d", "0"])
    assert code == 1
    assert out == ""
    assert "Traceback" not in err
    assert err.strip() == "error: RingError: 0 is not a nontrivial divisor of 5"


@pytest.mark.parametrize(
    "args",
    [
        ["--what", "nilpotent2-count", "--n", "0", "--q", "2"],
        ["--what", "nilpotent2-count", "--n", "-2", "--q", "2"],
        ["--what", "degree-matrix", "--n", "2", "--q", "1", "--r", "1"],
    ],
    ids=["nilpotent2-n0", "nilpotent2-n-2", "degree-matrix-q1"],
)
def test_counts_out_of_domain_is_an_input_error(args):
    # each of these used to print a count of 0
    code, out, err = run_cli(["counts", *args])
    assert code == 1
    assert out == ""
    assert "Traceback" not in err and err.startswith("error: ValueError: ")


@pytest.mark.parametrize(
    "args, env",
    [
        (["verify", "--sweep", "Zn:6..8", "--max-elements", "-3"], None),
        (["verify", "--ring", "GF(4)", "--max-vertices", "-1"], None),
        (["verify", "--sweep", "Zn:6..8"], {"ZDG_MAX_ELEMENTS": "-3"}),
    ],
    ids=["max-elements", "max-vertices", "env"],
)
def test_negative_cap_is_a_usage_error(args, env):
    # a negative cap refuses every ring, so verify would check nothing
    # and still report all_matched
    code, out, err = run_cli(args, env=env)
    assert code == 1
    assert out == ""
    assert "Traceback" not in err and "a cap must be 0 or more" in err


def test_exit_code_verification_mismatch():
    # a negative tolerance can never be met, so verify reports a mismatch
    code, out, _ = run_inproc(["verify", "--ring", "Zn(36)", "--tol", "-1"])
    assert code == 2


def test_exit_code_lift_residual_failure(tmp_path):
    matrix = tmp_path / "b.txt"
    matrix.write_text("0 1\n1 0\n")
    # (1, (1,1)) is an exact eigenpair, but column 0 is not proportional to
    # the eigenvector, so the shift formula produces a value the duplicated
    # matrix rejects: that is a verification failure, not an input error
    code, _, err = run_inproc(
        [
            "lift",
            "--matrix",
            str(matrix),
            "--j",
            "0",
            "--m",
            "2",
            "--value",
            "1.0",
            "--vector",
            "1,1",
        ]
    )
    assert code == 2
    assert "mu" in err or "residual" in err or "verification" in err


def test_exit_code_lift_bad_eigenpair_is_input_error(tmp_path):
    matrix = tmp_path / "b.txt"
    matrix.write_text("0 1\n1 0\n")
    code, _, _ = run_inproc(
        [
            "lift",
            "--matrix",
            str(matrix),
            "--j",
            "0",
            "--m",
            "2",
            "--value",
            "1.0",
            "--vector",
            "1,0.99",
        ]
    )
    assert code == 1


def test_exit_code_cap_exceeded():
    code, _, err = run_inproc(
        ["graph", "--ring", "Zn(210)", "--max-vertices", "10"]
    )
    assert code == 1


def test_auto_route_reports_the_cap():
    # neither ring has a closed route here (Z_2^13 has 8,192 classes, over
    # the closed route's cell cap; a relation other than the associate
    # one), so the cap is what the user must see
    for args in (
        ["spectrum", "--ring", "x".join(["Zn(2)"] * 13), "--max-vertices", "10"],
        ["spectrum", "--ring", "Zn(30)", "--relation", "neighborhood", "--max-vertices", "10"],
    ):
        code, _, err = run_inproc(args)
        assert code == 1, args
        assert "GraphCapError" in err and "over the cap 10" in err, err


def test_verify_checks_the_ring_under_the_flag_cap(monkeypatch):
    from zdgspectra import graph

    monkeypatch.setattr(graph, "DEFAULT_VERTEX_CAP", 10)
    code, out, err = run_inproc(
        ["verify", "--ring", "Zn(30)", "--relation", "neighborhood", "--max-vertices", "100"]
    )
    assert code == 0, err
    rows = json.loads(out)["results"]
    assert [(r["flavor"], r["skipped"], r["matched"]) for r in rows] == [
        ("adjacency", False, True),
        ("laplacian", False, True),
    ]


def test_classes_over_the_default_cap():
    # 5,999 vertices: the relation reads the graph built under --max-vertices
    code, out, err = run_inproc(
        ["classes", "--ring", "Zn(10000)", "--relation", "neighborhood",
         "--max-vertices", "10000", "--format", "csv"]
    )
    assert code == 0, err
    assert len(out.strip().splitlines()) == 1 + 114


def test_auto_route_falls_back_to_the_closed_route():
    # a Z_{p^a} factor next to a matrix ring: over the vertex cap, the
    # closed route answers with the graph route's spectrum
    ring = ["--ring", "Zn(4)xM(2,GF(3))"]
    code, out, _ = run_inproc(["spectrum", *ring, "--max-vertices", "10"])
    assert code == 0
    code, ref, _ = run_inproc(["spectrum", *ring, "--method", "join"])
    assert code == 0
    closed, graph = json.loads(out), json.loads(ref)
    assert [r["flavor"] for r in closed] == [r["flavor"] for r in graph] == ["adjacency", "laplacian"]
    for a, b in zip(closed, graph):
        assert len(a["values"]) == len(b["values"]) == 227
        assert np.abs(np.array(a["values"]) - np.array(b["values"])).max() <= 1e-9, a["flavor"]


def test_env_cap_is_weaker_than_flag():
    env = {"ZDG_MAX_ELEMENTS": "10"}
    code, _, _ = run_cli(["classes", "--ring", "Zn(30)"], env=env)
    assert code == 1
    code, _, _ = run_cli(
        ["classes", "--ring", "Zn(30)", "--max-elements", "100"], env=env
    )
    assert code == 0


def test_missing_verb_is_input_error():
    code, _, _ = run_inproc([])
    assert code == 1
