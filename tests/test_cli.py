"""Command-line front end: output formats, schema validation, exit codes."""

import contextlib
import csv
import inspect
import io
import json
import os
import subprocess
import sys
import time
import tracemalloc

import numpy as np
import pytest

jsonschema = pytest.importorskip("jsonschema")

import zdgspectra
from reference import classes_associate
from zdgspectra import spectra as spectra_module
from zdgspectra import cli as cli_module
from zdgspectra.cli import _COUNT_FORMS, _classes_report, main
from zdgspectra.graph import build_zdg
from zdgspectra.rings import GF, MatRing, ProductRing, RingError, Zn, parse_ring_spec
from zdgspectra.spectra import DecompositionError, SpectrumMultiset

SCHEMA_PATH = os.path.join(
    os.path.dirname(__file__), "..", "src", "zdgspectra", "schemas", "report.schema.json"
)
with open(SCHEMA_PATH) as fh:
    SCHEMA = json.load(fh)
PACKAGE_ROOT = os.path.dirname(os.path.dirname(zdgspectra.__file__))


def run_cli(args):
    """Run through a subprocess so exit codes and stream separation are real."""
    cmd = [sys.executable, "-m", "zdgspectra.cli", *args]
    merged = dict(os.environ)
    # the child imports the package this process imported, installed or not
    merged["PYTHONPATH"] = os.pathsep.join(
        filter(None, [PACKAGE_ROOT, os.environ.get("PYTHONPATH")])
    )
    proc = subprocess.run(cmd, capture_output=True, text=True, env=merged)
    return proc.returncode, proc.stdout, proc.stderr


def run_inproc(args):
    """Call main() directly when the exit code is all that matters."""
    out = io.StringIO()
    err = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(list(args))
    return code, out.getvalue(), err.getvalue()


def validate(payload):
    jsonschema.validate(payload, SCHEMA)


# --- happy paths, one per verb ---


def test_classes_json():
    code, out, err = run_cli(["classes", "--ring", "Zn(18)", "--relation", "associate"])
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


def test_csv_quotes_matrix_and_product_labels():
    # matrix labels and specs hold commas: unquoted, a row had more fields than its header
    code, out, err = run_inproc(["verify", "--ring", "M(2,GF(3))", "--format", "csv"])
    assert code == 0, err
    header, *rows = csv.reader(io.StringIO(out))
    assert [len(r) for r in rows] == [len(header)] * 2
    assert [r[0] for r in rows] == ["M(2,GF(3))"] * 2
    ring = ["--ring", "M(2,GF(2))xZn(4)"]
    code, out, err = run_inproc(["classes", *ring, "--format", "csv"])
    assert code == 0, err
    header, *rows = csv.reader(io.StringIO(out))
    assert header == ["rep", "size", "kind", "members"] and {len(r) for r in rows} == {4}
    classes = json.loads(run_inproc(["classes", *ring])[1])["classes"]
    assert rows == [[c["rep"], str(c["size"]), c["kind"], ";".join(c["members"])] for c in classes]


def test_classes_json_equals_unit_orbit_definition():
    # the keyed associate partition, as printed, against the unit-orbit
    # definition: same classes, members and kinds, in the same order
    for spec in ["M(2,GF(3))", "M(2,GF(2))xZn(4)", "Zn(30)"]:
        code, out, err = run_cli(["classes", "--ring", spec, "--format", "json"])
        assert code == 0, err
        ring = parse_ring_spec(spec)
        payload = _classes_report(build_zdg(ring), classes_associate(ring))
        assert out == json.dumps(payload, indent=2) + "\n", spec


def test_graph_json_and_csv():
    code, out, _ = run_cli(["graph", "--ring", "Zn(6)"])
    assert code == 0
    payload = json.loads(out)
    validate(payload)
    assert payload["vertices"] == ["2", "3", "4"]
    code, out, _ = run_cli(["graph", "--ring", "Zn(6)", "--format", "csv"])
    assert code == 0
    assert out == "u,v\n2,3\n3,4\n"


def test_graph_json_is_deterministic():
    # the same ring prints the same bytes, one label per vertex and one pair per edge
    for spec in ["Zn(12)", "M(2,GF(2))"]:
        code, out, err = run_inproc(["graph", "--ring", spec])
        assert (code, err) == (0, ""), spec
        assert run_inproc(["graph", "--ring", spec]) == (code, out, err), spec
        payload = json.loads(out)
        graph = build_zdg(parse_ring_spec(spec))
        assert payload["ring"] == spec
        assert len(payload["vertices"]) == graph.order
        assert len(payload["edges"]) == graph.edge_count


def test_graph_csv_is_one_quoted_row_per_edge():
    # matrix labels hold commas: a space-separated edge list splits them apart
    for spec in ["Zn(12)", "M(2,GF(2))"]:
        code, out, err = run_cli(["graph", "--ring", spec, "--format", "csv"])
        assert code == 0, err
        assert run_cli(["graph", "--ring", spec, "--format", "csv"])[1] == out
        header, *rows = csv.reader(io.StringIO(out))
        assert header == ["u", "v"]
        assert all(len(row) == 2 for row in rows), spec
        assert len(rows) == build_zdg(parse_ring_spec(spec)).edge_count


def test_spectrum_json_both_methods():
    # the assembled spectra print from `spectrum`; their comparison with the
    # dense oracle is `verify`'s
    code, out, err = run_cli(["spectrum", "--ring", "Zn(18)", "--flavor", "both"])
    assert code == 0, err
    payload = json.loads(out)
    validate(payload)
    assert [sorted(r) for r in payload] == [["clusters", "flavor", "ring", "values"]] * 2
    code, out, err = run_cli(["verify", "--ring", "Zn(18)"])
    assert code == 0, err
    assert [(r["flavor"], r["matched"]) for r in json.loads(out)["results"]] == [
        ("adjacency", True),
        ("laplacian", True),
    ]


def test_spectrum_csv_is_g12():
    code, out, _ = run_cli(
        ["spectrum", "--ring", "Zn(8)", "--flavor", "adjacency", "--format", "csv"]
    )
    assert code == 0
    rows = out.strip().splitlines()
    assert rows[0] == "flavor,index,value"
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
    code, out, _ = run_cli(["verify", "--sweep", "Zn:6..30", "--format", "csv"])
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "ring,|Z|,flavor,method_agreement,max_dev"
    # one row per ring and flavor, every flavor compared
    assert len(lines) == 1 + 2 * 25
    assert any(line.startswith("Zn(6),3,adjacency,true,") for line in lines)
    assert any(line.startswith("Zn(6),3,laplacian,true,") for line in lines)
    # primes have empty graphs: still one row each, agreeing trivially
    assert any(line.startswith("Zn(7),0,adjacency,true,") for line in lines)
    assert any(line.startswith("Zn(7),0,laplacian,true,") for line in lines)


def test_verify_sweep_matrix_shorthand():
    code, out, _ = run_cli(["verify", "--ring", "M(2,GF(3))"])
    assert code == 0
    payload = json.loads(out)
    assert payload["all_matched"] is True
    assert payload["results"][0]["ring"] == "M(2,GF(3))"


@pytest.mark.parametrize("sweep", ["M:2,GF(3)", "Zn(6)"])
def test_sweep_takes_only_zn_ranges(sweep):
    # one ring is a --ring: a second spelling of it under --sweep is refused
    code, out, err = run_cli(["verify", "--sweep", sweep])
    assert (code, out) == (1, "")
    assert len(err.splitlines()) == 1 and "--ring" in err, err
    assert err.startswith("error: UsageError: ") and "Traceback" not in err


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
    # a ring over the cap is compared with nothing, so its rows fail the
    # run; the sweep goes on to the next ring
    code, out, _ = run_inproc(["verify", "--sweep", "Zn:9..10", "--max-vertices", "3"])
    assert code == 2
    payload = json.loads(out)
    validate(payload)
    assert payload["all_matched"] is False
    skipped = [r for r in payload["results"] if r["skipped"]]
    assert [r["ring"] for r in skipped] == ["Zn(10)", "Zn(10)"]
    assert all(r["order"] is None and r["matched"] is None and "error" not in r for r in skipped)
    assert [r["matched"] for r in payload["results"] if not r["skipped"]] == [True, True]
    code, out, _ = run_inproc(
        ["verify", "--sweep", "Zn:9..10", "--max-vertices", "3", "--format", "csv"]
    )
    assert code == 2
    assert out.strip().splitlines()[-1] == "Zn(10),,laplacian,skipped,"


@pytest.mark.parametrize(
    "exc",
    [
        np.linalg.LinAlgError("Eigenvalues did not converge"),
        DecompositionError("blow-up does not match"),
        RingError("Zn(8): 4097 zero-divisor classes exceed the closed-route cap of 4096"),
    ],
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
    assert lines[0] == "ring,|Z|,flavor,method_agreement,max_dev"
    assert "Zn(8),,adjacency,error," in lines and "Zn(8),,laplacian,error," in lines
    assert any(line.startswith("Zn(9),2,laplacian,true,") for line in lines)


# --- determinism ---


def test_json_outputs_are_byte_stable():
    for args in (
        ["classes", "--ring", "Zn(30)"],
        ["graph", "--ring", "Zn(30)"],
        ["spectrum", "--ring", "Zn(30)"],
        ["spectrum", "--ring", "Zn(30)", "--format", "runs"],
        ["counts", "--what", "class-count", "--n", "2", "--q", "3"],
        ["verify", "--ring", "Zn(30)"],
    ):
        _, first, _ = run_cli(args)
        _, second, _ = run_cli(args)
        assert first == second, args


def test_sweep_csv_is_byte_stable():
    # the CSV holds the JSON report's fields and no wall clock
    _, first, _ = run_cli(["verify", "--sweep", "Zn:6..12", "--format", "csv"])
    _, second, _ = run_cli(["verify", "--sweep", "Zn:6..12", "--format", "csv"])
    assert first == second


# exact stdout and exit code of small reports that print no eigenvalue, so no
# BLAS build can move a digit; a format change in any verb shows up here
PINNED = [
    (
        ["classes", "--ring", "Zn(18)", "--relation", "associate", "--format", "csv"],
        """\
rep,size,kind,members
2,6,null,2;4;8;10;14;16
3,2,null,3;15
6,2,complete,6;12
9,1,null,9
""",
    ),
    (
        ["graph", "--ring", "Zn(6)", "--format", "csv"],
        """\
u,v
2,3
3,4
""",
    ),
    (
        ["counts", "--what", "zn-profile", "--n", "18"],
        """\
{
  "formula": "zn-profile",
  "inputs": {
    "n": 18
  },
  "value": {
    "class_count": 4,
    "complete_count": 1,
    "entries": [
      {
        "d": 2,
        "size": 6,
        "kind": "null",
        "neighbors": [
          9
        ],
        "N": 1
      },
      {
        "d": 3,
        "size": 2,
        "kind": "null",
        "neighbors": [
          6
        ],
        "N": 2
      },
      {
        "d": 6,
        "size": 2,
        "kind": "complete",
        "neighbors": [
          3,
          9
        ],
        "N": 3
      },
      {
        "d": 9,
        "size": 1,
        "kind": "null",
        "neighbors": [
          2,
          6
        ],
        "N": 8
      }
    ]
  }
}
""",
    ),
    (
        ["counts", "--what", "zn-profile", "--n", "18", "--format", "csv"],
        """\
d,size,kind,N,neighbors
2,6,null,1,9
3,2,null,2,6
6,2,complete,3,3;9
9,1,null,8,2;6
""",
    ),
    (
        ["counts", "--what", "degree-matrix", "--n", "3", "--q", "2", "--r", "1",
         "--squares-to-zero", "--format", "csv"],
        """\
formula,inputs,value
degree-matrix,n=3;q=2;r=1;squares_to_zero=True,110
""",
    ),
    (
        ["classes", "--ring", "M(2,GF(2))xZn(2)", "--format", "csv"],
        """\
rep,size,kind,members
"([[0,0],[0,0]],1)",1,null,"([[0,0],[0,0]],1)"
"([[0,0],[0,1]],0)",1,null,"([[0,0],[0,1]],0)"
"([[0,0],[0,1]],1)",1,null,"([[0,0],[0,1]],1)"
"([[0,0],[1,0]],0)",1,complete,"([[0,0],[1,0]],0)"
"([[0,0],[1,0]],1)",1,null,"([[0,0],[1,0]],1)"
"([[0,0],[1,1]],0)",1,null,"([[0,0],[1,1]],0)"
"([[0,0],[1,1]],1)",1,null,"([[0,0],[1,1]],1)"
"([[0,1],[0,0]],0)",1,complete,"([[0,1],[0,0]],0)"
"([[0,1],[0,0]],1)",1,null,"([[0,1],[0,0]],1)"
"([[0,1],[0,1]],0)",1,null,"([[0,1],[0,1]],0)"
"([[0,1],[0,1]],1)",1,null,"([[0,1],[0,1]],1)"
"([[0,1],[1,0]],0)",6,null,"([[0,1],[1,0]],0);([[0,1],[1,1]],0);([[1,0],[0,1]],0);([[1,0],[1,1]],0);([[1,1],[0,1]],0);([[1,1],[1,0]],0)"
"([[1,0],[0,0]],0)",1,null,"([[1,0],[0,0]],0)"
"([[1,0],[0,0]],1)",1,null,"([[1,0],[0,0]],1)"
"([[1,0],[1,0]],0)",1,null,"([[1,0],[1,0]],0)"
"([[1,0],[1,0]],1)",1,null,"([[1,0],[1,0]],1)"
"([[1,1],[0,0]],0)",1,null,"([[1,1],[0,0]],0)"
"([[1,1],[0,0]],1)",1,null,"([[1,1],[0,0]],1)"
"([[1,1],[1,1]],0)",1,complete,"([[1,1],[1,1]],0)"
"([[1,1],[1,1]],1)",1,null,"([[1,1],[1,1]],1)"
""",
    ),
    (
        ["graph", "--ring", "M(2,GF(2))", "--format", "csv"],
        """\
u,v
"[[0,0],[0,1]]","[[0,0],[1,0]]"
"[[0,0],[0,1]]","[[0,1],[0,0]]"
"[[0,0],[0,1]]","[[1,0],[0,0]]"
"[[0,0],[0,1]]","[[1,0],[1,0]]"
"[[0,0],[0,1]]","[[1,1],[0,0]]"
"[[0,0],[1,0]]","[[0,0],[1,1]]"
"[[0,0],[1,0]]","[[1,0],[0,0]]"
"[[0,0],[1,0]]","[[1,0],[1,0]]"
"[[0,0],[1,1]]","[[0,1],[0,1]]"
"[[0,0],[1,1]]","[[1,0],[0,0]]"
"[[0,0],[1,1]]","[[1,0],[1,0]]"
"[[0,0],[1,1]]","[[1,1],[1,1]]"
"[[0,1],[0,0]]","[[0,1],[0,1]]"
"[[0,1],[0,0]]","[[1,0],[0,0]]"
"[[0,1],[0,0]]","[[1,1],[0,0]]"
"[[0,1],[0,1]]","[[1,0],[0,0]]"
"[[0,1],[0,1]]","[[1,1],[0,0]]"
"[[0,1],[0,1]]","[[1,1],[1,1]]"
"[[1,0],[1,0]]","[[1,1],[0,0]]"
"[[1,0],[1,0]]","[[1,1],[1,1]]"
"[[1,1],[0,0]]","[[1,1],[1,1]]"
""",
    ),
    (
        ["verify", "--ring", "M(3,GF(3))"],
        """\
{
  "relation": "associate",
  "all_matched": false,
  "results": [
    {
      "ring": "M(3,GF(3))",
      "order": null,
      "flavor": "adjacency",
      "matched": null,
      "max_deviation": null,
      "skipped": true
    },
    {
      "ring": "M(3,GF(3))",
      "order": null,
      "flavor": "laplacian",
      "matched": null,
      "max_deviation": null,
      "skipped": true
    }
  ]
}
""",
    ),
    (
        ["verify", "--ring", "M(3,GF(3))", "--format", "csv"],
        """\
ring,|Z|,flavor,method_agreement,max_dev
"M(3,GF(3))",,adjacency,skipped,
"M(3,GF(3))",,laplacian,skipped,
""",
    ),
]


# M(3,GF(3)) has 8,450 vertices, over the default cap: verify compares nothing
# and fails both rows
PINNED_EXIT = {("verify", "--ring", "M(3,GF(3))"): 2, ("verify", "--ring", "M(3,GF(3))", "--format", "csv"): 2}


@pytest.mark.parametrize("args, expected", PINNED, ids=[" ".join(args) for args, _ in PINNED])
def test_small_outputs_are_pinned(args, expected):
    code, out, err = run_inproc(args)
    assert code == PINNED_EXIT.get(tuple(args), 0), err
    assert out == expected


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


# values every form takes; Z_4's 2 is a zero-divisor, so degree-zn takes d = 2
COUNT_VALUES = {"n": "4", "m": "2", "r": "1", "q": "2", "d": "2"}


def form_flags(what):
    """The integer flags a count form reads: its function's parameters, less
    the --squares-to-zero switch."""
    return [name for name in inspect.signature(_COUNT_FORMS[what]).parameters if name != "squares_to_zero"]


def count_args(what, names):
    return ["counts", "--what", what, *(x for name in names for x in (f"--{name}", COUNT_VALUES[name]))]


@pytest.mark.parametrize("what", sorted(_COUNT_FORMS))
def test_counts_refuse_a_flag_the_form_does_not_read(what):
    # qbinom --n 3 --r 1 --q 2 --d 5 printed 7 and exited 0
    needed = form_flags(what)
    assert run_inproc(count_args(what, needed))[0] == 0
    unread = next(name for name in COUNT_VALUES if name not in needed)
    code, out, err = run_inproc(count_args(what, [*needed, unread]))
    assert (code, out) == (1, "")
    assert err == f"error: UsageError: counts --what {what} does not read --{unread}\n"
    if what != "degree-matrix":
        code, out, err = run_inproc([*count_args(what, needed), "--squares-to-zero"])
        assert (code, out) == (1, "")
        assert err == f"error: UsageError: counts --what {what} does not read --squares-to-zero\n"


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


def test_degree_matrix_refuses_a_square_zero_class_that_cannot_exist():
    # printed 12, but no rank-2 matrix in M_3(F_2) squares to 0
    args = ["counts", "--what", "degree-matrix", "--n", "3", "--q", "2", "--r", "2", "--squares-to-zero"]
    code, out, err = run_inproc(args)
    assert code == 1
    assert out == ""
    assert err == "error: RingError: no rank-2 matrix in M_3(F_2) squares to zero\n"


@pytest.mark.parametrize(
    "args",
    [["verify", "--ring", "GF(4)", "--max-vertices", "-1"]],
    ids=["max-vertices"],
)
def test_negative_cap_is_a_usage_error(args):
    # a negative cap is malformed input, refused before any ring is read
    code, out, err = run_cli(args)
    assert code == 1
    assert out == ""
    assert "Traceback" not in err and "a cap must be 0 or more" in err


@pytest.mark.parametrize("n, m", [("-1", "2"), ("2", "-3")], ids=["n", "m"])
def test_rank_count_refuses_a_negative_dimension(n, m):
    # both printed 0 while qbinom --n -1 already refused
    code, out, err = run_inproc(["counts", "--what", "rank-count", "--n", n, "--m", m, "--r", "0", "--q", "2"])
    assert code == 1
    assert out == ""
    assert err == "error: ValueError: n and m must be nonnegative\n"


@pytest.mark.parametrize("m", ["1", "3"])
def test_non_finite_lift_value_is_a_usage_error(m, tmp_path):
    # lam = nan made both residuals nan, which no tol refused: lift exited 0
    # with "mu": NaN, which is not JSON
    matrix = tmp_path / "b.txt"
    matrix.write_text("2 0\n0 3\n")
    args = ["lift", "--matrix", str(matrix), "--j", "0", "--m", m, "--vector", "1,0"]
    code, out, err = run_inproc([*args, "--value", "nan"])
    assert code == 1
    assert out == ""
    assert "UsageError" in err and "argument --value: must be finite" in err


@pytest.mark.parametrize("where", ["matrix", "vector"])
def test_lift_refuses_a_rational_outside_float_range(where, tmp_path):
    # float(Fraction("1e400")) raises OverflowError, which ended in a traceback
    matrix = tmp_path / "b.txt"
    matrix.write_text("1e400 0\n0 3\n" if where == "matrix" else "2 0\n0 3\n")
    vector = "1e400,0" if where == "vector" else "1,0"
    args = ["lift", "--matrix", str(matrix), "--j", "0", "--m", "2", "--value", "2"]
    code, out, err = run_inproc([*args, "--vector", vector])
    assert code == 1
    assert out == ""
    assert err == "error: UsageError: bad rational '1e400'\n"


@pytest.mark.parametrize("vector, token", [("1,,0", ""), ("1,0,", ""), ("1 0", "1 0")])
def test_lift_refuses_a_vector_not_comma_separated(vector, token, tmp_path):
    # splitting on commas and spaces read "1,,0" and "1,0," as (1, 0):
    # lift exited 0 on a vector the user did not write
    matrix = tmp_path / "b.txt"
    matrix.write_text("2 0\n0 3\n")
    args = ["lift", "--matrix", str(matrix), "--j", "0", "--m", "2", "--value", "2"]
    code, out, err = run_inproc([*args, "--vector", vector])
    assert (code, out) == (1, "")
    assert err == f"error: UsageError: bad rational {token!r}\n"


def test_lift_refuses_a_zero_eigenvector(tmp_path):
    # v = 0 passed both residual checks: lift exited 0 with mu = 3.0
    matrix = tmp_path / "b.txt"
    matrix.write_text("2 1\n1 2\n")
    args = ["lift", "--matrix", str(matrix), "--j", "0", "--m", "3", "--value", "3", "--vector", "0,0"]
    code, out, err = run_inproc(args)
    assert (code, out) == (1, "")
    assert err == "error: LiftError: eigenvector must have a nonzero entry\n"


LIFT = ["lift", "--matrix", "{square}", "--j", "0", "--m", "3", "--value", "3", "--vector", "1,1"]


def lift_with(**changed):
    """LIFT with the value of each `--name` in `changed` replaced."""
    args = list(LIFT)
    for name, value in changed.items():
        args[args.index(f"--{name}") + 1] = value
    return args


# (argv, the one line on stderr); {square} is a 2x2 matrix file,
# {ragged} a matrix file with a short row, {missing} no file at all
REFUSALS = [
    (["verify", "--ring", "Zn(6)", "--sweep", "Zn:2..5"], "UsageError: give either --ring or --sweep, not both"),
    (["verify"], "UsageError: verify needs --ring or --sweep"),
    *[
        (["verify", "--sweep", spec], f"UsageError: bad Zn sweep range {spec!r}")
        for spec in ("Zn:a..b", "Zn:5..3", "Zn:1", "Zn:4..")
    ],
    (
        ["verify", "--ring", "Zn(6)", "--max-vertices", "x"],
        "UsageError: argument --max-vertices: invalid int value: 'x'",
    ),
    (lift_with(value="abc"), "UsageError: argument --value: invalid float value: 'abc'"),
    (
        lift_with(matrix="{missing}"),
        "UsageError: cannot read matrix file: [Errno 2] No such file or directory: '{missing}'",
    ),
    (lift_with(matrix="{ragged}"), "UsageError: matrix file must hold a square whitespace-separated matrix"),
    (lift_with(j="2"), "LiftError: index 2 out of range for order 2"),
    (lift_with(j="-1"), "LiftError: index -1 out of range for order 2"),
    (lift_with(m="0"), "LiftError: multiplicity must be at least 1"),
    (lift_with(vector="1,1,1"), "LiftError: eigenvector length must match the matrix order"),
]


@pytest.mark.parametrize("argv, message", REFUSALS, ids=[" ".join(argv) for argv, _ in REFUSALS])
def test_refusals_print_one_error_line(argv, message, tmp_path):
    paths = {"square": tmp_path / "b.txt", "ragged": tmp_path / "ragged.txt", "missing": tmp_path / "missing.txt"}
    paths["square"].write_text("2 1\n1 2\n")
    paths["ragged"].write_text("2 1\n1\n")
    code, out, err = run_inproc([arg.format_map(paths) for arg in argv])
    assert (code, out) == (1, "")
    assert err == f"error: {message.format_map(paths)}\n"


@pytest.mark.parametrize("scale", ["1", "1e-6", "1e-11", "1e-13"])
def test_lift_verdict_does_not_depend_on_the_vector_scale(scale, tmp_path):
    # absolute zero tests and a floored gate passed small vectors: B = [1]
    # lifted (1e-13) to mu = 1, and (1e-11, 1e-11) lifted on [[2, 1], [1, 2]]
    one = tmp_path / "one.txt"
    one.write_text("1\n")
    args = ["lift", "--matrix", str(one), "--j", "0", "--m", "2", "--value", "1", "--format", "csv"]
    code, out, _ = run_inproc([*args, "--vector", scale])
    assert code == 0 and out.splitlines()[1] == "mu,2"
    pair = tmp_path / "pair.txt"
    pair.write_text("2 1\n1 2\n")
    args = ["lift", "--matrix", str(pair), "--j", "0", "--m", "3", "--value", "3"]
    code, out, err = run_inproc([*args, "--vector", f"{scale},{scale}"])
    assert (code, out) == (2, "")
    assert err.startswith("error: LiftVerificationError: lifted pair fails verification")


def test_lift_at_m_one_shifts_nothing(tmp_path):
    # entries summing to 0 leave the formula no answer at m = 2, but m = 1
    # duplicates nothing, so the pair comes back as it went in
    matrix = tmp_path / "b.txt"
    matrix.write_text("0 1\n1 0\n")
    args = ["lift", "--matrix", str(matrix), "--j", "0", "--value", "-1", "--vector", "1,-1", "--format", "csv"]
    code, out, err = run_cli([*args, "--m", "1"])
    assert (code, err) == (0, "")
    assert out.splitlines() == ["quantity,value", "mu,-1", "residual,0", "vector,1;-1"]
    code, out, err = run_cli([*args, "--m", "2"])
    assert (code, out) == (1, "")
    assert err.startswith("error: LiftInapplicableError: formula inapplicable")


def test_lift_refuses_a_removed_flag(tmp_path):
    # the eigenpair checks run at the fixed spectra.LEMMA_TOL: no flag moves it
    matrix = tmp_path / "b.txt"
    matrix.write_text("2 0\n0 3\n")
    args = ["lift", "--matrix", str(matrix), "--j", "0", "--m", "2", "--value", "2", "--vector", "1,0"]
    code, out, err = run_inproc([*args, "--tol", "1e-9"])
    assert (code, out) == (1, "")
    assert err == "error: UsageError: unrecognized arguments: --tol 1e-9\n"


@pytest.mark.parametrize("verb", ["classes", "verify"])
def test_annihilator_is_not_a_relation(verb):
    # equal annihilators give the associate classes on every ring the parser builds
    code, out, err = run_inproc([verb, "--ring", "Zn(18)", "--relation", "annihilator"])
    assert (code, out) == (1, "")
    assert err == (
        "error: UsageError: argument --relation: invalid choice: 'annihilator' "
        "(choose from 'associate', 'neighborhood')\n"
    )


Q_FORMS = sorted(name for name in _COUNT_FORMS if "q" in form_flags(name))


@pytest.mark.parametrize("what", Q_FORMS)
def test_counts_refuse_a_q_that_is_no_prime_power(what):
    # every form printed a count over a "field" of 6 elements
    needed = form_flags(what)
    values = {"n": "2", "m": "2", "r": "1", "q": "6"}
    args = ["counts", "--what", what, *[a for name in needed for a in (f"--{name}", values[name])]]
    code, out, err = run_inproc(args)
    assert code == 1
    assert out == ""
    assert err == "error: ValueError: 6 is not a prime power\n"


@pytest.mark.parametrize("fmt", ["json", "csv"])
def test_spectrum_refuses_to_print_billions_of_values(fmt):
    # the closed route answers Zn(p^2), p = 2^31 - 1, at once; printing its
    # 2,147,483,646 eigenvalues per flavor ended in a MemoryError traceback
    started = time.perf_counter()
    code, out, err = run_cli(["spectrum", "--ring", "Zn(4611686014132420609)", "--format", fmt])
    assert time.perf_counter() - started < 30
    assert code == 1
    assert out == ""
    assert "Traceback" not in err
    assert err == (
        "error: RingError: Gamma(Zn(4611686014132420609)) has 2147483646 eigenvalues per "
        "flavor, over the 10000000 that json and csv print; --format runs prints them as runs\n"
    )


def test_spectrum_refuses_before_any_spectrum_is_solved(monkeypatch):
    # the ring's closed vertex count decides; no assemble or oracle call runs
    def unexpected(*args):
        raise AssertionError("a spectrum was solved before the refusal")

    monkeypatch.setattr(cli_module, "assemble_spectrum", unexpected)
    monkeypatch.setattr(spectra_module, "brute_spectrum", unexpected)
    monkeypatch.setattr(cli_module, "MAX_PRINTED_VALUES", 10)
    code, out, err = run_inproc(["spectrum", "--ring", "Zn(30)"])
    assert (code, out) == (1, "")
    assert err == (
        "error: RingError: Gamma(Zn(30)) has 21 eigenvalues per flavor, over the 10 "
        "that json and csv print; --format runs prints them as runs\n"
    )


@pytest.mark.parametrize("fmt", ["json", "csv"])
def test_spectrum_refuses_before_any_class_table(fmt, monkeypatch):
    # the closed vertex count n - phi(n) - 1 decides: the closed route's
    # 2,302-class table of Zn(6983776800) is never built only to be refused
    def unexpected(self):
        raise AssertionError("a class table was built before the refusal")

    monkeypatch.setattr(Zn, "_class_table", unexpected)
    code, out, err = run_inproc(["spectrum", "--ring", "Zn(6983776800)", "--format", fmt])
    assert (code, out) == (1, "")
    assert err == (
        "error: RingError: Gamma(Zn(6983776800)) has 5789383199 eigenvalues per flavor, over the "
        "10000000 that json and csv print; --format runs prints them as runs\n"
    )


def test_spectrum_runs_print_what_json_refuses():
    code, out, err = run_cli(["spectrum", "--ring", "Zn(4611686014132420609)", "--format", "runs"])
    assert code == 0, err
    payload = json.loads(out)
    validate(payload)
    # one complete cell, K_{p-1}, p = 2^31 - 1
    p = 2**31 - 1
    assert [r["runs"] for r in payload] == [
        [[-1.0, p - 2, "cell-inherited"], [float(p - 2), 1, "quotient"]],
        [[0.0, 1, "quotient"], [float(p - 1), p - 2, "cell-inherited"]],
    ]


@pytest.mark.parametrize(
    "args",
    [
        ["--ring", "Zn(36)"],
        ["--ring", "M(2,GF(3))"],
        ["--ring", "Zn(1000000)"],
    ],
    ids=["Zn(36)", "M(2,GF(3))", "Zn(1000000)"],
)
def test_spectrum_runs_follow_the_schema(args):
    code, out, _ = run_inproc(["spectrum", *args, "--format", "runs"])
    assert code == 0
    payload = json.loads(out)
    validate(payload)
    assert [r["flavor"] for r in payload] == ["adjacency", "laplacian"]
    dec = spectra_module.ring_join_decomposition(parse_ring_spec(args[1]))
    for report, spectrum in zip(payload, spectra_module.spectrum_pair(dec)):
        assert [tuple(run) for run in report["runs"]] == spectrum.runs


@pytest.mark.parametrize("fmt", ["json", "csv"])
def test_spectrum_streams_what_it_prints(fmt):
    # main writes the text a block at a time as it encodes it: the traced
    # peak is the two flavors' values lists, 16 bytes per vertex, and not
    # the whole text, which takes over 100
    args = ["spectrum", "--ring", "Zn(200000)", "--format", fmt]
    with open(os.devnull, "w") as sink, contextlib.redirect_stdout(sink):
        assert main(args) == 0  # imports and first-call caches
        tracemalloc.start()
        try:
            assert main(args) == 0
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    assert peak < 32 * Zn(200000).vertex_count(), peak


class CountingStdout(io.StringIO):
    writes = 0

    def write(self, text):
        self.writes += 1
        return super().write(text)


@pytest.mark.parametrize("fmt", ["json", "csv"])
def test_spectrum_writes_stdout_in_blocks(fmt):
    # unbuffered, every write is a system call: one per encoder chunk or
    # CSV row would be 241,497 or 239,999 of them here
    out = CountingStdout()
    with contextlib.redirect_stdout(out):
        assert main(["spectrum", "--ring", "Zn(200000)", "--format", fmt]) == 0
    assert out.writes <= 300, out.writes
    assert out.getvalue().count("\n") > Zn(200000).vertex_count()


def test_exit_code_verification_mismatch(monkeypatch):
    # an assembled spectrum shifted by 1 never meets the oracle, so verify reports a mismatch
    assemble = spectra_module.assemble_spectrum

    def shifted(dec, flavor):
        return SpectrumMultiset([(v + 1, k, tag) for v, k, tag in assemble(dec, flavor).runs])

    monkeypatch.setattr(spectra_module, "assemble_spectrum", shifted)
    code, out, _ = run_inproc(["verify", "--ring", "Zn(36)"])
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
    # `spectrum` reports the closed route's cap: it reads the class table,
    # and Z_2^13 has 8,190 zero-divisor classes, over its cap
    spec = "x".join(["Zn(2)"] * 13)
    code, out, err = run_inproc(["spectrum", "--ring", spec])
    assert (code, out) == (1, "")
    assert err == f"error: RingError: {spec}: 8190 zero-divisor classes exceed the closed-route cap of 4096\n"


def test_auto_route_reports_why_the_closed_route_refused(monkeypatch):
    # the class cap is `spectrum`'s one refusal, ahead of json's refusal of
    # Zn(963761198400)'s too many values, and it is read off closed counts,
    # with no class table built
    def unexpected(self):
        raise AssertionError("a class table was built before the refusal")

    monkeypatch.setattr(Zn, "_class_table", unexpected)
    monkeypatch.setattr(ProductRing, "_class_table", unexpected)
    for spec, count in (("Zn(963761198400)", 6718), ("x".join(["Zn(2)"] * 13), 8190)):
        code, out, err = run_inproc(["spectrum", "--ring", spec])
        assert (code, out) == (1, ""), spec
        assert err == (
            f"error: RingError: {spec}: {count} zero-divisor classes exceed the closed-route cap of 4096\n"
        ), err


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


def run_on_the_graph_route(monkeypatch, args):
    """run_inproc with `spectrum`'s decomposition forced onto the graph
    route, which `spectrum` never takes, under the default vertex cap."""
    decompositions = []
    decompose = spectra_module.decompose

    def recording(graph, partition):
        decompositions.append(decompose(graph, partition))
        return decompositions[-1]

    with monkeypatch.context() as patch:
        patch.setattr(spectra_module, "decompose", recording)
        patch.setattr(
            cli_module,
            "decomposition_semisimple_closed",
            lambda ring: spectra_module.ring_join_decomposition(ring, method="graph"),
        )
        result = run_inproc(args)
    assert len(decompositions) == 1
    return result


def test_auto_route_falls_back_to_the_closed_route(monkeypatch):
    # a Z_{p^a} factor next to a matrix ring: the closed route answers
    # with the graph route's spectrum
    ring = ["--ring", "Zn(4)xM(2,GF(3))"]
    code, out, _ = run_inproc(["spectrum", *ring])
    assert code == 0
    code, ref, _ = run_on_the_graph_route(monkeypatch, ["spectrum", *ring])
    assert code == 0
    closed, graph = json.loads(out), json.loads(ref)
    assert [r["flavor"] for r in closed] == [r["flavor"] for r in graph] == ["adjacency", "laplacian"]
    for a, b in zip(closed, graph):
        assert len(a["values"]) == len(b["values"]) == 227
        assert np.abs(np.array(a["values"]) - np.array(b["values"])).max() <= 1e-9, a["flavor"]


@pytest.mark.parametrize("form", [[], ["--format", "runs"]], ids=["json", "runs"])
def test_spectrum_builds_no_graph_where_the_class_table_takes_the_ring(form, monkeypatch):
    from zdgspectra import graph

    def no_graph(ring):
        raise AssertionError(f"built the graph of {ring.spec_string()}")

    monkeypatch.setattr(graph, "_build", no_graph)
    monkeypatch.setattr(graph, "_build_cached", no_graph)
    code, out, err = run_inproc(["spectrum", "--ring", "Zn(4620)", *form])
    assert code == 0, err
    assert [r["flavor"] for r in json.loads(out)] == ["adjacency", "laplacian"]


def test_verify_checks_the_closed_route_against_the_oracle(monkeypatch):
    # the graph is built for the oracle and the check: the spectra compared
    # are assembled from the closed route, which `spectrum` prints
    closed, assembled = [], []
    real_closed, assemble = spectra_module.decomposition_semisimple_closed, spectra_module.assemble_spectrum

    def recording(dec, flavor):
        assembled.append(dec)
        return assemble(dec, flavor)

    monkeypatch.setattr(
        spectra_module, "decomposition_semisimple_closed", lambda ring: closed.append(real_closed(ring)) or closed[-1]
    )
    monkeypatch.setattr(spectra_module, "assemble_spectrum", recording)
    code, out, err = run_inproc(["verify", "--ring", "Zn(30)"])
    assert code == 0, err
    assert [(r["flavor"], r["matched"]) for r in json.loads(out)["results"]] == [
        ("adjacency", True),
        ("laplacian", True),
    ]
    assert len(closed) == 1 and assembled == closed * 2


def test_verify_reports_a_closed_route_unlike_the_graph_as_error_rows(monkeypatch):
    closed = spectra_module.decomposition_semisimple_closed

    def one_kill_flipped(ring):
        dec = closed(ring)
        table = dec.table.copy()
        table[1, 5] = table[5, 1] = not table[1, 5]  # the classes of 3 and 12 in Z_36
        return spectra_module.JoinDecomposition(dec.sizes, table, dec.ring, dec.reps)

    monkeypatch.setattr(spectra_module, "decomposition_semisimple_closed", one_kill_flipped)
    code, out, err = run_inproc(["verify", "--ring", "Zn(36)"])
    assert code == 2, err
    message = "DecompositionError: the closed route differs from the graph route at the class of 3"
    assert [(r["flavor"], r["error"]) for r in json.loads(out)["results"]] == [
        ("adjacency", message),
        ("laplacian", message),
    ]


@pytest.mark.parametrize(
    "flag",
    [["--method", "both"], ["--relation", "neighborhood"], ["--tol", "1e-9"], ["--max-vertices", "10"]],
    ids=["method", "relation", "tol", "max-vertices"],
)
def test_spectrum_refuses_a_removed_flag(flag):
    # `verify` is the one check against the oracle; `spectrum` only prints,
    # from the class table, and builds no graph for a vertex cap to bound
    code, out, err = run_inproc(["spectrum", "--ring", "Zn(30)", *flag])
    assert (code, out) == (1, "")
    assert err == f"error: UsageError: unrecognized arguments: {' '.join(flag)}\n"


@pytest.mark.parametrize("flag", [["--tol", "1e-9"], ["--flavor", "adjacency"]], ids=["tol", "flavor"])
def test_verify_refuses_a_removed_flag(flag):
    # verify passes only when every flavor matched at DEFAULT_TOL: no flag
    # loosens the tolerance or leaves a flavor out
    code, out, err = run_inproc(["verify", "--ring", "Zn(30)", *flag])
    assert (code, out) == (1, "")
    assert err == f"error: UsageError: unrecognized arguments: {' '.join(flag)}\n"


@pytest.mark.parametrize(
    "args",
    [["--sweep", "Zn:6..20", "--max-vertices", "0"], ["--ring", "M(3,GF(3))"]],
    ids=["cap-0-sweep", "over-default-cap"],
)
def test_verify_that_compares_nothing_fails(args):
    # a ring skipped over the vertex cap is not a ring that matched; under
    # a cap of 0 only the primes' empty graphs are compared
    for fmt in ("json", "csv"):
        code, out, err = run_inproc(["verify", *args, "--format", fmt])
        assert (code, err) == (2, ""), fmt
    payload = json.loads(run_inproc(["verify", *args])[1])
    validate(payload)
    assert payload["all_matched"] is False
    rows = payload["results"]
    assert any(r["skipped"] for r in rows)
    assert all(r["matched"] is (None if r["skipped"] else True) for r in rows)


def test_one_graph_cap_flag():
    # the vertex cap bounds |R| too, so there is no element cap to set
    code, out, err = run_cli(["verify", "--ring", "Zn(30)", "--max-elements", "5"])
    assert (code, out) == (1, "")
    assert err == "error: UsageError: unrecognized arguments: --max-elements 5\n"


@pytest.mark.parametrize("spec", ["Zn(22201)", "GF(101)xGF(211)"])
def test_verify_takes_rings_past_the_old_element_cap(spec):
    # 22,201 and 21,311 elements but 148 and 310 vertices: the vertex cap
    # alone decides, and both flavors meet the oracle
    code, out, err = run_inproc(["verify", "--ring", spec])
    assert code == 0, err
    rows = json.loads(out)["results"]
    assert [(r["flavor"], r["skipped"], r["matched"]) for r in rows] == [
        ("adjacency", False, True),
        ("laplacian", False, True),
    ]


@pytest.mark.parametrize("spec", ["GF(1099511627776)", "M(1,GF(1099511627776))", "Zn(2305843009213693951)"])
def test_verify_takes_a_field_of_any_size(spec, monkeypatch):
    # a field has no vertex, so its empty graph is built without a unit
    # mask of |R| entries
    def no_mask(self):
        raise AssertionError("built a unit mask")

    for kind in (Zn, GF, MatRing, ProductRing):
        monkeypatch.setattr(kind, "_unit_mask", no_mask)
    code, out, err = run_inproc(["verify", "--ring", spec])
    assert code == 0, err
    rows = json.loads(out)["results"]
    assert [(r["order"], r["skipped"], r["matched"]) for r in rows] == [(0, False, True)] * 2


def test_spectrum_help_names_the_check():
    code, out, _ = run_cli(["spectrum", "--help"])
    assert code == 0
    assert "zdg verify --ring R" in " ".join(out.split())


def test_spectrum_of_one_by_one_matrices_builds_no_field_table(monkeypatch):
    # M(1,GF(q)) is GF(q): no zero-divisors, and no q x q table on either route
    def no_table(self):
        raise AssertionError("built a q x q table")

    monkeypatch.setattr(MatRing, "_field_tables", property(no_table))
    monkeypatch.setattr(MatRing, "_kills", property(no_table))
    code, out, err = run_inproc(["spectrum", "--ring", "M(1,GF(1048576))"])
    assert code == 0, err
    assert [(r["flavor"], r["values"], r["clusters"]) for r in json.loads(out)] == [
        ("adjacency", [], []),
        ("laplacian", [], []),
    ]
    for q in (2, 9, 4096):
        ring = f"M(1,GF({q}))"
        empty = {"matched": True, "max_deviation": 0.0, "skipped": False}
        expected = {
            "graph": {"ring": ring, "vertices": [], "edges": []},
            "classes": {"ring": ring, "relation": "associate", "classes": []},
            "verify": {
                "relation": "associate",
                "all_matched": True,
                "results": [
                    {"ring": ring, "order": 0, "flavor": flavor, **empty} for flavor in ("adjacency", "laplacian")
                ],
            },
        }
        for verb, payload in expected.items():
            code, out, err = run_inproc([verb, "--ring", ring])
            assert (code, err) == (0, ""), (verb, ring)
            assert out == json.dumps(payload, indent=2) + "\n", (verb, ring)


@pytest.mark.parametrize("form", [[], ["--format", "runs"]], ids=["json", "runs"])
def test_closed_route_prints_the_graph_route_spectrum(form, monkeypatch):
    # both routes list the classes by smallest member, so the closed route
    # that `spectrum` takes prints the graph route's bytes (2,303 vertices)
    ring = ["--ring", "M(2,GF(2))xM(2,GF(3))xZn(2)"]
    closed = run_inproc(["spectrum", *ring, *form])
    graph = run_on_the_graph_route(monkeypatch, ["spectrum", *ring, *form])
    assert closed[0] == graph[0] == 0
    assert closed[1] == graph[1]


def test_missing_verb_is_input_error():
    code, _, _ = run_inproc([])
    assert code == 1
