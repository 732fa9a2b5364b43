"""Command-line front end: ring specs in, JSON or CSV reports out.

Exit codes: 0 on success, 2 when a verification comparison fails or a
ring in a verify run errors (its rows carry the error), 1 for bad input
of any kind.  All output is deterministic for fixed inputs,
except the seconds column of the verify CSV.
"""
from __future__ import annotations

import argparse
import json
import os
import sys
import time
from fractions import Fraction

import numpy as np

from . import counts
from .classes import classes_for
from .graph import GraphCapError, build_zdg, degree_matring, degree_zn, edge_list_text, graph_json
from .rings import EnumerationCapError, MatRing, RingError, Zn, parse_ring_spec
from .spectra import (
    DecompositionError,
    LiftError,
    LiftVerificationError,
    ShiftLemmaError,
    assemble_spectrum,
    brute_spectrum,
    duplicate_lift,
    multiset_equal,
    ring_join_decomposition,
    verify_ring,
)

EXIT_OK = 0
EXIT_ERROR = 1
EXIT_MISMATCH = 2


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    # argparse exits with status 2 on bad flags, which this tool reserves
    # for verification mismatches; raise instead and let main() map it to 1
    def error(self, message):
        raise UsageError(message)


def _json_text(payload) -> str:
    return json.dumps(payload, indent=2) + "\n"


def _g12(x) -> str:
    return format(float(x), ".12g")


def _cap(text: str) -> int:
    """An element or vertex cap: an integer, 0 or more.  A negative cap
    would refuse every ring, so that `verify` checks nothing and passes."""
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
    if value < 0:
        raise argparse.ArgumentTypeError(f"a cap must be 0 or more, got {value}")
    return value


def _element_cap(args) -> int | None:
    if args.max_elements is not None:
        return args.max_elements
    env = os.environ.get("ZDG_MAX_ELEMENTS")
    try:
        return None if env is None else _cap(env)
    except argparse.ArgumentTypeError as exc:
        raise UsageError(f"ZDG_MAX_ELEMENTS: {exc}") from None


def _flavors(args) -> list[str]:
    if args.flavor == "both":
        return ["adjacency", "laplacian"]
    return [args.flavor]


# ---------------------------------------------------------------------------
# subcommand handlers; each returns (exit code, report text)


def _run_classes(args):
    ring = parse_ring_spec(args.ring)
    graph = build_zdg(ring, vertex_cap=args.max_vertices, element_cap=_element_cap(args))
    payload = {"ring": ring.spec_string(), **classes_for(graph, args.relation).to_json(graph)}
    if args.format == "json":
        return EXIT_OK, _json_text(payload)
    lines = ["rep,size,kind,members"]
    for c in payload["classes"]:
        kind = c["kind"] if c["kind"] is not None else ""
        lines.append(f"{c['rep']},{c['size']},{kind},{';'.join(c['members'])}")
    return EXIT_OK, "\n".join(lines) + "\n"


def _run_graph(args):
    ring = parse_ring_spec(args.ring)
    graph = build_zdg(ring, vertex_cap=args.max_vertices, element_cap=_element_cap(args))
    if args.format == "json":
        return EXIT_OK, _json_text(graph_json(graph))
    return EXIT_OK, edge_list_text(graph)


def _run_spectrum(args):
    ring = parse_ring_spec(args.ring)
    cap = _element_cap(args)
    need_join = args.method in ("join", "both")
    need_brute = args.method in ("brute", "both")
    dec = None
    graph = None
    if need_join:
        dec = ring_join_decomposition(
            ring, args.relation, element_cap=cap, vertex_cap=args.max_vertices
        )
    if need_brute:
        graph = build_zdg(ring, vertex_cap=args.max_vertices, element_cap=cap)

    reports = []
    mismatch = False
    for flavor in _flavors(args):
        if need_join:
            spectrum = assemble_spectrum(dec, flavor)
            verification = None
            if need_brute:
                check = multiset_equal(spectrum, brute_spectrum(graph, flavor), args.tol)
                verification = {
                    "matched": check.matched,
                    "max_deviation": None if check.length_mismatch else check.max_deviation,
                }
                mismatch = mismatch or not check.matched
            method = "join"
        else:
            spectrum = brute_spectrum(graph, flavor)
            verification = None
            method = "brute"
        reports.append(
            {
                "ring": ring.spec_string(),
                "relation": args.relation,
                "method": method,
                "flavor": flavor,
                "values": spectrum.values,
                "clusters": spectrum.clusters(),
                "verification": verification,
            }
        )
    code = EXIT_MISMATCH if mismatch else EXIT_OK
    if args.format == "json":
        return code, _json_text(reports)
    lines = ["flavor,method,index,value"]
    for rep in reports:
        for i, v in enumerate(rep["values"]):
            lines.append(f"{rep['flavor']},{rep['method']},{i},{_g12(v)}")
    return code, "\n".join(lines) + "\n"


_COUNT_FORMS = {
    "qbinom": (("n", "r", "q"), lambda a: counts.q_binomial(a.n, a.r, a.q)),
    "rank-count": (("n", "m", "r", "q"), lambda a: counts.rank_count(a.n, a.m, a.r, a.q)),
    "class-size": (("r", "q"), lambda a: counts.class_size_matrix(a.r, a.q)),
    "class-count": (("n", "q"), lambda a: counts.class_count_matrix(a.n, a.q)),
    "idempotent-count": (("n", "q"), lambda a: counts.idempotent_count(a.n, a.q)),
    "nilpotent2-count": (("n", "q"), lambda a: counts.nilpotent2_count(a.n, a.q)),
    "compressed-degree": (("n", "q", "r"), lambda a: counts.compressed_degree_matrix(a.n, a.q, a.r)),
    "degree-zn": (("n", "d"), lambda a: degree_zn(a.n, a.d)),
    "degree-matrix": (
        ("n", "q", "r"),
        lambda a: degree_matring(a.n, a.q, a.r, a.squares_to_zero),
    ),
}


def _run_counts(args):
    if args.what == "zn-profile":
        if args.n is None:
            raise UsageError("counts --what zn-profile requires --n")
        profile = counts.zn_profile(args.n)
        if args.format == "json":
            payload = {
                "formula": "zn-profile",
                "inputs": {"n": args.n},
                "value": {
                    "class_count": profile.class_count,
                    "complete_count": profile.complete_count,
                    "entries": [
                        {
                            "d": e.d,
                            "size": e.size,
                            "kind": e.kind,
                            "neighbors": e.neighbors,
                            "N": e.big_n,
                        }
                        for e in profile.entries
                    ],
                },
            }
            return EXIT_OK, _json_text(payload)
        lines = ["d,size,kind,N,neighbors"]
        for e in profile.entries:
            lines.append(
                f"{e.d},{e.size},{e.kind},{e.big_n},{';'.join(str(x) for x in e.neighbors)}"
            )
        return EXIT_OK, "\n".join(lines) + "\n"

    spec = _COUNT_FORMS.get(args.what)
    if spec is None:
        raise UsageError(f"unknown counting formula {args.what!r}")
    needed, fn = spec
    missing = [name for name in needed if getattr(args, name) is None]
    if missing:
        flags = ", ".join(f"--{name}" for name in missing)
        raise UsageError(f"counts --what {args.what} requires {flags}")
    value = fn(args)
    inputs = {name: getattr(args, name) for name in needed}
    if args.what == "degree-matrix":
        inputs["squares_to_zero"] = args.squares_to_zero
    if args.format == "json":
        return EXIT_OK, _json_text(
            {"formula": args.what, "inputs": inputs, "value": str(value)}
        )
    joined = ";".join(f"{k}={v}" for k, v in inputs.items())
    return EXIT_OK, f"formula,inputs,value\n{args.what},{joined},{value}\n"


def _sweep_rings(text: str):
    """Expand a sweep spec: 'Zn:6..200' ranges over moduli, 'M:2,GF(3)'
    names one matrix ring, anything else is a plain ring spec."""
    if text.startswith("Zn:"):
        body = text[3:]
        if ".." in body:
            lo, hi = body.split("..", 1)
        else:
            lo = hi = body
        try:
            lo_i, hi_i = int(lo), int(hi)
        except ValueError:
            raise UsageError(f"bad Zn sweep range {text!r}")
        if lo_i < 2 or hi_i < lo_i:
            raise UsageError(f"bad Zn sweep range {text!r}")
        return [Zn(n) for n in range(lo_i, hi_i + 1)]
    if text.startswith("M:"):
        body = text[2:]
        size_text, _, field_text = body.partition(",")
        try:
            size = int(size_text)
        except ValueError:
            raise UsageError(f"bad matrix sweep spec {text!r}")
        field = parse_ring_spec(field_text.strip() or "GF(2)")
        return [MatRing(size, field)]
    return [parse_ring_spec(text)]


_VERIFY_KEYS = ("ring", "order", "flavor", "matched", "max_deviation", "skipped", "error")


def _unverified_rows(ring, flavors, error: str | None = None) -> list[dict]:
    """One row per flavor for a ring that produced no comparison: skipped
    over a cap when error is None, otherwise failed with that error."""
    extra = {} if error is None else {"error": error}
    return [
        {
            "ring": ring.spec_string(),
            "order": None,
            "flavor": flavor,
            "matched": None,
            "max_deviation": None,
            "skipped": error is None,
            "seconds": 0.0,
            **extra,
        }
        for flavor in flavors
    ]


def _run_verify(args):
    if args.sweep and args.ring:
        raise UsageError("give either --ring or --sweep, not both")
    if args.sweep:
        rings = _sweep_rings(args.sweep)
    elif args.ring:
        rings = [parse_ring_spec(args.ring)]
    else:
        raise UsageError("verify needs --ring or --sweep")
    cap = _element_cap(args)
    flavors = _flavors(args)

    rows = []
    mismatch = False
    for ring in rings:
        started = time.perf_counter()
        try:
            outcome = verify_ring(
                ring,
                args.relation,
                args.tol,
                flavors=flavors,
                element_cap=cap,
                vertex_cap=args.max_vertices,
            )
        except (GraphCapError, EnumerationCapError):
            rows.extend(_unverified_rows(ring, flavors))
            continue
        except (np.linalg.LinAlgError, DecompositionError) as exc:
            # one ring the pipeline cannot handle fails its own rows, not the sweep
            mismatch = True
            rows.extend(_unverified_rows(ring, flavors, f"{type(exc).__name__}: {exc}"))
            continue
        seconds = time.perf_counter() - started
        for flavor in flavors:
            result = outcome.results[flavor]
            mismatch = mismatch or not result.matched
            rows.append(
                {
                    "ring": outcome.ring_spec,
                    "order": outcome.order,
                    "flavor": flavor,
                    "matched": result.matched,
                    "max_deviation": None if result.length_mismatch else result.max_deviation,
                    "skipped": False,
                    "seconds": seconds,
                }
            )
    code = EXIT_MISMATCH if mismatch else EXIT_OK

    if args.format == "json":
        payload = {
            "relation": args.relation,
            "all_matched": not mismatch,
            "results": [
                {key: row[key] for key in _VERIFY_KEYS if key in row} for row in rows
            ],
        }
        return code, _json_text(payload)
    lines = ["ring,|Z|,flavor,method_agreement,max_dev,seconds"]
    for row in rows:
        if row["skipped"] or "error" in row:
            status = "error" if "error" in row else "skipped"
            lines.append(f"{row['ring']},,{row['flavor']},{status},,")
            continue
        dev = "" if row["max_deviation"] is None else _g12(row["max_deviation"])
        lines.append(
            f"{row['ring']},{row['order']},{row['flavor']},"
            f"{'true' if row['matched'] else 'false'},{dev},{row['seconds']:.3f}"
        )
    return code, "\n".join(lines) + "\n"


def _parse_rational(token: str) -> float:
    try:
        return float(Fraction(token))
    except (ValueError, ZeroDivisionError):
        raise UsageError(f"bad rational {token!r}")


def _run_lift(args):
    try:
        with open(args.matrix, encoding="utf-8") as fh:
            rows = [
                [_parse_rational(tok) for tok in line.split()]
                for line in fh
                if line.strip()
            ]
    except OSError as exc:
        raise UsageError(f"cannot read matrix file: {exc}")
    if not rows or any(len(r) != len(rows) for r in rows):
        raise UsageError("matrix file must hold a square whitespace-separated matrix")
    vector = [_parse_rational(tok) for tok in args.vector.replace(",", " ").split()]
    result = duplicate_lift(
        np.array(rows), args.j, args.m, args.value, np.array(vector), tol=args.tol
    )
    payload = {
        "mu": result.mu,
        "vector": [float(x) for x in result.vector],
        "matrix": [[float(x) for x in row] for row in result.matrix],
        "residual": result.residual,
    }
    if args.format == "json":
        return EXIT_OK, _json_text(payload)
    lines = ["quantity,value", f"mu,{_g12(result.mu)}", f"residual,{_g12(result.residual)}"]
    lines.append("vector," + ";".join(_g12(x) for x in result.vector))
    return EXIT_OK, "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# wiring


def _build_parser() -> _Parser:
    parser = _Parser(prog="zdg", description="Spectra of zero-divisor graphs of finite rings.")
    sub = parser.add_subparsers(dest="verb", required=True)

    def common(p, ring=True, relation=True):
        if ring:
            p.add_argument("--ring", help="ring spec, e.g. Zn(18), GF(9), M(2,GF(3)), Zn(2)xZn(3)")
        if relation:
            p.add_argument(
                "--relation",
                choices=("associate", "neighborhood", "annihilator"),
                default="associate",
            )
        p.add_argument("--format", choices=("json", "csv"), default="json")
        p.add_argument("--max-elements", type=_cap, default=None, help="enumeration cap override")
        p.add_argument("--max-vertices", type=_cap, default=None, help="graph size cap override")

    p_classes = sub.add_parser("classes", help="vertex classes under a relation")
    common(p_classes)
    p_classes.set_defaults(handler=_run_classes)

    p_graph = sub.add_parser("graph", help="edge list or JSON dump of the graph")
    common(p_graph, relation=False)
    p_graph.set_defaults(handler=_run_graph)

    p_spectrum = sub.add_parser("spectrum", help="assembled and/or brute-force spectra")
    common(p_spectrum)
    p_spectrum.add_argument("--tol", type=float, default=1e-7)
    p_spectrum.add_argument("--flavor", choices=("adjacency", "laplacian", "both"), default="both")
    p_spectrum.add_argument("--method", choices=("join", "brute", "both"), default="join")
    p_spectrum.set_defaults(handler=_run_spectrum)

    p_counts = sub.add_parser("counts", help="closed-form counting formulas")
    p_counts.add_argument(
        "--what",
        required=True,
        choices=sorted(_COUNT_FORMS) + ["zn-profile"],
    )
    for flag in ("--n", "--m", "--r", "--q", "--d"):
        p_counts.add_argument(flag, type=int, default=None)
    p_counts.add_argument("--squares-to-zero", action="store_true")
    p_counts.add_argument("--format", choices=("json", "csv"), default="json")
    p_counts.set_defaults(handler=_run_counts)

    p_verify = sub.add_parser("verify", help="compare join spectra against the dense oracle")
    common(p_verify)
    p_verify.add_argument("--tol", type=float, default=1e-7)
    p_verify.add_argument("--sweep", help='e.g. "Zn:6..200" or "M:2,GF(3)"')
    p_verify.add_argument("--flavor", choices=("adjacency", "laplacian", "both"), default="both")
    p_verify.set_defaults(handler=_run_verify)

    p_lift = sub.add_parser("lift", help="duplicate a matrix index and track an eigenpair")
    p_lift.add_argument("--matrix", required=True, help="text file, one whitespace-separated row per line")
    p_lift.add_argument("--j", type=int, required=True, help="index to duplicate (0-based)")
    p_lift.add_argument("--m", type=int, required=True, help="how many copies the index ends up with")
    p_lift.add_argument("--value", type=float, required=True, help="eigenvalue of the input matrix")
    p_lift.add_argument("--vector", required=True, help="comma-separated eigenvector entries")
    p_lift.add_argument("--format", choices=("json", "csv"), default="json")
    p_lift.add_argument("--tol", type=float, default=1e-8)
    p_lift.set_defaults(handler=_run_lift)

    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        code, text = args.handler(args)
    except UsageError as exc:
        print(f"error: UsageError: {exc}", file=sys.stderr)
        return EXIT_ERROR
    except LiftVerificationError as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_MISMATCH
    except (
        RingError,
        LiftError,
        DecompositionError,
        ShiftLemmaError,
        np.linalg.LinAlgError,
        ValueError,
    ) as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_ERROR
    sys.stdout.write(text)
    return code


def console_main() -> None:
    sys.exit(main())


if __name__ == "__main__":
    console_main()
