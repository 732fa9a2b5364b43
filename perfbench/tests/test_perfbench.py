"""Tests of the benchmark itself: metric names, failure counting, seeded
draws, the tracer and the arithmetic the correctness checks rely on.

    python3 -m pytest perfbench/tests -q
"""
import json
import math
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent.parent
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src")]

import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from zdgspectra import classes, graph, spectra  # noqa: E402
from zdgspectra.rings import Zn, parse_ring_spec  # noqa: E402

BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())

# a couple of cheap rings per workload, so a tiny run takes a second or two
CHEAP = {
    "zn-verify": ["Zn(6)", "Zn(8)", "Zn(9)"],
    "ring-graph": ["M(2,GF(2))", "Zn(4)xZn(4)", "GF(4)xGF(8)"],
    "closed-large": ["Zn(200006)", "Zn(250000)"],
}


def _last_lines(capsys):
    lines = capsys.readouterr().out.strip().splitlines()
    return json.loads(lines[-2])["meta"], json.loads(lines[-1])


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("name", list(workloads.WORKLOADS))
def test_tiny_run_emits_every_named_metric(name, trace, monkeypatch, capsys):
    monkeypatch.setattr(type(workloads.WORKLOADS[name]), "draw", lambda self, seed: CHEAP[name])
    args = ["--workload", name, "--seed", "1", "--seconds", "1", "--trace", str(trace)]
    assert run.main(args) == 0
    meta, result = _last_lines(capsys)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["attempted"] >= 1
    section = "per_layer" if trace else "end_to_end"
    expected = {m["name"]: m["unit"] for m in BENCHMARK[section]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == expected
    for k, v in result["metrics"].items():
        assert isinstance(v["value"], (int, float)) and math.isfinite(v["value"]), k
    for key in ("eigensolver", "python", "numpy", "nproc", "blas_threads", "seed", "attempted"):
        assert key in meta
    # the tracer put every wrapped name back
    assert spectra.jacobi_eigen.__module__ == "zdgspectra.eig"
    assert not hasattr(classes.build_zdg, "__wrapped__")


def test_benchmark_json_names_what_the_code_emits():
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(workloads.WORKLOADS)
    assert {m["name"]: m["unit"] for m in BENCHMARK["end_to_end"]} == run.END_TO_END_UNITS
    assert {m["name"]: (m["unit"], m["better"]) for m in BENCHMARK["per_layer"]} == {
        k: (unit, better) for k, (unit, better, _) in tracing.METRICS.items()
    }
    layers = json.loads((HERE / "layers.json").read_text())["layers"]
    mapped = [m for row in layers for m in row["metrics"]]
    assert sorted(mapped) == sorted(tracing.METRICS)


class _Stub:
    """Raises on the rings in `bad`, returns a wrong answer on those in
    `wrong`, and succeeds on the rest."""

    def __init__(self, bad=(), wrong=()):
        self.bad, self.wrong = set(bad), set(wrong)
        self.seen = []

    def op(self, lib, spec, ring):
        self.seen.append(spec)
        if spec in self.bad:
            raise spectra.DecompositionError("stub")
        return spec

    def check(self, lib, spec, ring, result):
        return workloads.Outcome("check:stub" if spec in self.wrong else None)


def test_raising_op_is_counted_and_the_run_goes_on():
    items = [(s, None) for s in ("a", "b", "c", "d")]
    stub = _Stub(bad={"a", "c"})
    result = run.run_ops(None, stub, items, seconds=60)
    assert stub.seen == ["a", "b", "c", "d"]
    assert len(result["times"]) == 4
    assert result["failures"] == {"DecompositionError": 2}
    assert result["wrong"] == 0


def test_wrong_output_is_a_failure_and_not_correct():
    items = [(s, None) for s in ("a", "b")]
    result = run.run_ops(None, _Stub(wrong={"b"}), items, seconds=60)
    assert result["failures"] == {"check:stub": 1}
    assert result["wrong"] == 1


@pytest.mark.parametrize("name", list(workloads.WORKLOADS))
def test_same_seed_same_rings_other_seed_other_rings(name):
    w = workloads.WORKLOADS[name]
    first = w.draw(7)
    assert first == w.draw(7)
    assert first != w.draw(8)  # the same rings, in another order
    assert sorted(first) == sorted(w.draw(8))
    assert len(set(first)) == len(first)  # drawn without replacement


def test_closed_large_moduli_stay_in_their_bands():
    ns = workloads.CLOSED_LARGE_MODULI
    width = (workloads.V_MAX - workloads.V_MIN) // len(ns)
    for band, n in enumerate(sorted(ns, key=workloads.zn_vertex_count)):
        lo = workloads.V_MIN + band * width
        assert lo <= workloads.zn_vertex_count(n) < lo + width
        assert len(workloads.divisors(n)) - 2 <= workloads.CLASS_MAX


@pytest.mark.parametrize("n", [6, 12, 16, 30, 36, 49, 60, 97])
def test_independent_zn_counts_match_the_graph(n):
    g = graph.build_zdg(Zn(n))
    assert workloads.zn_vertex_count(n) == g.order
    assert workloads.zn_degree_sum(n) == 2 * g.edge_count


def test_pool_orders_match_enumeration():
    for spec, factors in workloads.POOL_FACTORS.items():
        ring = parse_ring_spec(spec)
        if ring.cardinality > 600:
            continue
        sizes = [workloads._factor_order_units(f) for f in factors]
        order = math.prod(s for s, _ in sizes) - math.prod(u for _, u in sizes) - 1
        assert order == len(ring.zero_divisors()), spec


def test_tail_leaves_ten_samples_above():
    value, pct, beyond = run.tail(list(range(100)))
    assert (value, beyond) == (89, 10) and pct == 90.0
    assert run.tail([3.0, 1.0]) == (3.0, 100.0, 0)


def test_self_time_subtracts_children():
    t = tracing.Tracer()
    t.spans = [
        ["op", 0.0, 10.0, None, 0, None, None],
        ["spectra.oracle", 1.0, 6.0, 0, 0, None, None],
        ["eig", 2.0, 5.0, 1, 0, None, 40],
        ["spectra.assemble", 6.0, 9.0, 0, 0, None, None],
        ["eig", 7.0, 8.0, 3, 0, "JacobiConvergenceError", 12],
    ]
    assert t.self_times() == [2.0, 2.0, 3.0, 2.0, 1.0]
    m = t.metrics(max_dev=1e-12)
    assert m["eig.oracle_s"] == 3.0 and m["eig.oracle_order_max"] == 40
    assert m["eig.quotient_s"] == 1.0 and m["eig.quotient_calls"] == 1
    assert m["spectra.oracle_s"] == 2.0 and m["spectra.assemble_s"] == 2.0
    assert m["eig.failures"] == 1


def test_vanished_name_is_reported_missing_not_zero(monkeypatch):
    monkeypatch.delattr(spectra, "zn_profile")
    t = tracing.Tracer().install()
    try:
        assert "spectra.zn_profile" in t.missing
        metrics = t.metrics(max_dev=0.0)
    finally:
        t.close()
    assert "counts.profile_s" not in metrics
    assert "spectra.closed_s" in metrics
    assert not hasattr(spectra.decompose, "__wrapped__")
