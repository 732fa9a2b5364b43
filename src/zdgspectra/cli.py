"""Command-line front end: ring specs in, JSON or CSV reports out.

`zdg spectrum` takes the closed route wherever the ring's class table
can (associate relation), the graph route under the caps otherwise, and
`--method both` checks it against the graph's dense oracle.  `--format
runs` prints each spectrum as its runs [value, multiplicity,
provenance], in JSON, so its size grows with the class count; json and
csv print one value per eigenvalue and refuse a graph of more than
MAX_PRINTED_VALUES vertices, read off the ring's closed vertex count
after each route's own refusal and before anything is built.

Each verb's handler returns its report as a JSON payload and as a CSV
header with lazy rows; `main` alone formats one of the two and prints it.

Each input has one spelling: a ring is a `--ring` spec, `verify --sweep`
takes only `Zn:lo..hi` or `Zn:n`, the caps come only from their flags,
and both `--tol` defaults are `spectra.DEFAULT_TOL`.  An error prints as
one `error: <Type>: <message>` line; the `auto` route's cap error carries
the closed route's refusal in its own message.

Exit codes: 0 on success, 2 when a verification comparison fails or a
ring in a verify run errors (its rows carry the error), 1 for bad input
of any kind.  All output is deterministic for fixed inputs,
except the seconds column of the verify CSV.
"""
from __future__ import annotations

import argparse
import csv
import io
import json
import math
import sys
import time
from fractions import Fraction

import numpy as np

from . import counts
from .classes import classes_for
from .graph import GraphCapError, build_zdg, check_graph_caps, degree_matring, degree_zn, graph_json
from .rings import EnumerationCapError, RingError, Zn, parse_ring_spec
from .spectra import (
    DEFAULT_TOL,
    FLAVORS,
    DecompositionError,
    LiftError,
    LiftVerificationError,
    assemble_spectrum,
    brute_spectrum,
    duplicate_lift,
    join_route,
    multiset_equal,
    ring_join_decomposition,
    verify_ring,
)

EXIT_OK = 0
EXIT_ERROR = 1
EXIT_MISMATCH = 2

# per flavor; printing the 599,999 values per flavor of Zn(1000000) peaks
# at about 137 MB of RSS in json and 99 MB in csv
MAX_PRINTED_VALUES = 10**7


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    # argparse exits with status 2 on bad flags, which this tool reserves
    # for verification mismatches; raise instead and let main() map it to 1
    def error(self, message):
        raise UsageError(message)


def _json_text(payload) -> str:
    return json.dumps(payload, indent=2) + "\n"


def _csv_text(header: str, rows) -> str:
    """The header line, then one quoted-as-needed CSV line per row; None prints empty."""
    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(header.split(","))
    writer.writerows(rows)
    return out.getvalue()


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


def _finite(text: str) -> float:
    """A finite tolerance or eigenvalue: against nan or inf no residual check fails."""
    try:
        value = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid float value: {text!r}") from None
    if not math.isfinite(value):
        raise argparse.ArgumentTypeError(f"must be finite, got {text!r}")
    return value


def _tolerance(text: str) -> float:
    """A finite tolerance, 0 or more: below 0 every residual fails."""
    if (value := _finite(text)) < 0:
        raise argparse.ArgumentTypeError("must be 0 or more")
    return value


def _flavors(args) -> list[str]:
    if args.flavor == "both":
        return list(FLAVORS)
    return [args.flavor]


# ---------------------------------------------------------------------------
# subcommand handlers; each returns (exit code, JSON payload, CSV header, CSV rows)


def _comparison(check) -> dict:
    """A MultisetMatch as printed, no deviation when the lengths differ; nulls for None."""
    if check is None:
        return {"matched": None, "max_deviation": None}
    return {
        "matched": check.matched,
        "max_deviation": None if check.length_mismatch else check.max_deviation,
    }


def _run_classes(args):
    ring = parse_ring_spec(args.ring)
    graph = build_zdg(ring, vertex_cap=args.max_vertices, element_cap=args.max_elements)
    payload = {"ring": ring.spec_string(), **classes_for(graph, args.relation).to_json(graph)}
    rows = ([c["rep"], c["size"], c["kind"], ";".join(c["members"])] for c in payload["classes"])
    return EXIT_OK, payload, "rep,size,kind,members", rows


def _run_graph(args):
    ring = parse_ring_spec(args.ring)
    graph = build_zdg(ring, vertex_cap=args.max_vertices, element_cap=args.max_elements)
    payload = graph_json(graph)
    labels = payload["vertices"]
    return EXIT_OK, payload, "u,v", ([labels[i], labels[j]] for i, j in payload["edges"])


def _run_spectrum(args):
    ring = parse_ring_spec(args.ring)
    need_join = args.method in ("join", "both")
    need_brute = args.method in ("brute", "both")
    caps = {"element_cap": args.max_elements, "vertex_cap": args.max_vertices}
    # each route's refusal first, then the printed size, all before anything is built
    if need_join:
        join_route(ring, args.relation, **caps)
    if need_brute:
        check_graph_caps(ring, **caps)
    order = ring.vertex_count()
    if args.format != "runs" and order > MAX_PRINTED_VALUES:
        raise RingError(
            f"Gamma({ring.spec_string()}) has {order} eigenvalues per flavor, over the "
            f"{MAX_PRINTED_VALUES} that json and csv print; --format runs prints them as runs"
        )
    dec = ring_join_decomposition(ring, args.relation, **caps) if need_join else None
    graph = build_zdg(ring, **caps) if need_brute else None

    reports = []
    mismatch = False
    for flavor in _flavors(args):
        spectrum = assemble_spectrum(dec, flavor) if need_join else brute_spectrum(graph, flavor)
        verification = None
        if need_join and need_brute:
            check = multiset_equal(spectrum, brute_spectrum(graph, flavor), args.tol)
            verification = _comparison(check)
            mismatch = mismatch or not check.matched
        if args.format == "runs":
            spectrum_fields = {"runs": spectrum.runs}
        else:
            spectrum_fields = {"values": spectrum.values, "clusters": spectrum.clusters()}
        reports.append(
            {
                "ring": ring.spec_string(),
                "relation": args.relation,
                "method": "join" if need_join else "brute",
                "flavor": flavor,
                **spectrum_fields,
                "verification": verification,
            }
        )
    code = EXIT_MISMATCH if mismatch else EXIT_OK
    rows = ([r["flavor"], r["method"], i, _g12(v)] for r in reports for i, v in enumerate(r["values"]))
    return code, reports, "flavor,method,index,value", rows


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
    "zn-profile": (("n",), lambda a: counts.zn_profile(a.n)),
}


def _run_counts(args):
    needed, fn = _COUNT_FORMS[args.what]
    missing = [name for name in needed if getattr(args, name) is None]
    if missing:
        flags = ", ".join(f"--{name}" for name in missing)
        raise UsageError(f"counts --what {args.what} requires {flags}")
    value = fn(args)
    inputs = {name: getattr(args, name) for name in needed}
    if args.what == "zn-profile":
        entries = [
            {"d": e.d, "size": e.size, "kind": e.kind, "neighbors": e.neighbors, "N": e.big_n}
            for e in value.entries
        ]
        profile = {
            "class_count": value.class_count,
            "complete_count": value.complete_count,
            "entries": entries,
        }
        payload = {"formula": args.what, "inputs": inputs, "value": profile}
        rows = ([e.d, e.size, e.kind, e.big_n, ";".join(map(str, e.neighbors))] for e in value.entries)
        return EXIT_OK, payload, "d,size,kind,N,neighbors", rows
    if args.what == "degree-matrix":
        inputs["squares_to_zero"] = args.squares_to_zero
    payload = {"formula": args.what, "inputs": inputs, "value": str(value)}
    joined = ";".join(f"{k}={v}" for k, v in inputs.items())
    return EXIT_OK, payload, "formula,inputs,value", [[args.what, joined, value]]


def _sweep_rings(text: str):
    """Expand a sweep spec, 'Zn:lo..hi' or 'Zn:n', into the rings Z_n;
    one ring of any other kind is a --ring."""
    if not text.startswith("Zn:"):
        raise UsageError(f"--sweep takes Zn:lo..hi or Zn:n, not {text!r}; name one ring with --ring")
    lo, dots, hi = text[3:].partition("..")
    try:
        lo_i, hi_i = int(lo), int(hi if dots else lo)
    except ValueError:
        raise UsageError(f"bad Zn sweep range {text!r}")
    if lo_i < 2 or hi_i < lo_i:
        raise UsageError(f"bad Zn sweep range {text!r}")
    return [Zn(n) for n in range(lo_i, hi_i + 1)]


def _verify_csv_row(row, seconds):
    # a ring with no comparison has no order, deviation or seconds
    unverified = "error" if "error" in row else "skipped" if row["skipped"] else None
    agreement = unverified or ("true" if row["matched"] else "false")
    dev = None if row["max_deviation"] is None else _g12(row["max_deviation"])
    timing = None if seconds is None else f"{seconds:.3f}"
    return [row["ring"], row["order"], row["flavor"], agreement, dev, timing]


def _run_verify(args):
    if args.sweep and args.ring:
        raise UsageError("give either --ring or --sweep, not both")
    if args.sweep:
        rings = _sweep_rings(args.sweep)
    elif args.ring:
        rings = [parse_ring_spec(args.ring)]
    else:
        raise UsageError("verify needs --ring or --sweep")
    flavors = _flavors(args)

    timed = []  # (printed row, seconds or None)
    mismatch = False
    for ring in rings:
        started = time.perf_counter()
        checks, order, seconds = {}, None, None
        status = {"skipped": True}  # over a cap
        try:
            outcome = verify_ring(
                ring,
                args.relation,
                args.tol,
                flavors=flavors,
                element_cap=args.max_elements,
                vertex_cap=args.max_vertices,
            )
        except (GraphCapError, EnumerationCapError):
            pass
        except (np.linalg.LinAlgError, DecompositionError) as exc:
            # one ring the pipeline cannot handle fails its own rows, not the sweep
            mismatch = True
            status = {"skipped": False, "error": f"{type(exc).__name__}: {exc}"}
        else:
            seconds = time.perf_counter() - started
            checks, order, status = outcome.results, outcome.order, {"skipped": False}
        for flavor in flavors:
            check = checks.get(flavor)
            mismatch = mismatch or (check is not None and not check.matched)
            row = {"ring": ring.spec_string(), "order": order, "flavor": flavor}
            timed.append(({**row, **_comparison(check), **status}, seconds))
    code = EXIT_MISMATCH if mismatch else EXIT_OK
    payload = {
        "relation": args.relation,
        "all_matched": not mismatch,
        "results": [row for row, _ in timed],
    }
    rows = (_verify_csv_row(row, seconds) for row, seconds in timed)
    return code, payload, "ring,|Z|,flavor,method_agreement,max_dev,seconds", rows


def _parse_rational(token: str) -> float:
    try:
        return float(Fraction(token))
    except (ValueError, ZeroDivisionError, OverflowError):
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
    rows = [["mu", _g12(result.mu)], ["residual", _g12(result.residual)]]
    rows.append(["vector", ";".join(_g12(x) for x in result.vector)])
    return EXIT_OK, payload, "quantity,value", rows


# ---------------------------------------------------------------------------
# wiring


def _build_parser() -> _Parser:
    parser = _Parser(prog="zdg", description="Spectra of zero-divisor graphs of finite rings.")
    sub = parser.add_subparsers(dest="verb", required=True)

    def common(p, relation=True, formats=("json", "csv")):
        p.add_argument("--ring", help="ring spec, e.g. Zn(18), GF(9), M(2,GF(3)), Zn(2)xZn(3)")
        if relation:
            p.add_argument(
                "--relation",
                choices=("associate", "neighborhood", "annihilator"),
                default="associate",
            )
        p.add_argument("--format", choices=formats, default="json")
        p.add_argument("--max-elements", type=_cap, default=None, help="enumeration cap override")
        p.add_argument("--max-vertices", type=_cap, default=None, help="graph size cap override")

    p_classes = sub.add_parser("classes", help="vertex classes under a relation")
    common(p_classes)
    p_classes.set_defaults(handler=_run_classes)

    p_graph = sub.add_parser("graph", help="edge list or JSON dump of the graph")
    common(p_graph, relation=False)
    p_graph.set_defaults(handler=_run_graph)

    p_spectrum = sub.add_parser("spectrum", help="assembled and/or brute-force spectra")
    common(p_spectrum, formats=("json", "csv", "runs"))
    p_spectrum.add_argument("--tol", type=_tolerance, default=DEFAULT_TOL)
    p_spectrum.add_argument("--flavor", choices=(*FLAVORS, "both"), default="both")
    p_spectrum.add_argument("--method", choices=("join", "brute", "both"), default="join")
    p_spectrum.set_defaults(handler=_run_spectrum)

    p_counts = sub.add_parser("counts", help="closed-form counting formulas")
    p_counts.add_argument(
        "--what",
        required=True,
        choices=sorted(_COUNT_FORMS),
    )
    for flag in ("--n", "--m", "--r", "--q", "--d"):
        p_counts.add_argument(flag, type=int, default=None)
    p_counts.add_argument("--squares-to-zero", action="store_true")
    p_counts.add_argument("--format", choices=("json", "csv"), default="json")
    p_counts.set_defaults(handler=_run_counts)

    p_verify = sub.add_parser("verify", help="compare join spectra against the dense oracle")
    common(p_verify)
    p_verify.add_argument("--tol", type=_tolerance, default=DEFAULT_TOL)
    p_verify.add_argument("--sweep", help='the rings Z_lo..Z_hi, as "Zn:lo..hi" (e.g. "Zn:6..200") or "Zn:n"')
    p_verify.add_argument("--flavor", choices=(*FLAVORS, "both"), default="both")
    p_verify.set_defaults(handler=_run_verify)

    p_lift = sub.add_parser("lift", help="duplicate a matrix index and track an eigenpair")
    p_lift.add_argument("--matrix", required=True, help="text file, one whitespace-separated row per line")
    p_lift.add_argument("--j", type=int, required=True, help="index to duplicate (0-based)")
    p_lift.add_argument("--m", type=int, required=True, help="how many copies the index ends up with")
    p_lift.add_argument("--value", type=_finite, required=True, help="eigenvalue of the input matrix")
    p_lift.add_argument("--vector", required=True, help="comma-separated eigenvector entries")
    p_lift.add_argument("--format", choices=("json", "csv"), default="json")
    p_lift.add_argument("--tol", type=_tolerance, default=1e-8)
    p_lift.set_defaults(handler=_run_lift)

    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        code, payload, header, rows = args.handler(args)
        text = _csv_text(header, rows) if args.format == "csv" else _json_text(payload)
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
