"""Spans around the calls into zdgspectra's layers, for the traced run.

The tracer rebinds the public names that zdgspectra's modules look up at
call time (`spectra.build_zdg`, `classes.build_zdg`, `spectra.jacobi_eigen`
and so on) to wrappers that record a span (name, start, end, parent) and a
few counts, and puts the originals back when it closes.  Nothing inside the
package is edited, and the untraced run never creates a tracer.

Spans stay in memory until the run writes them out.  A layer's time is its
spans' self time: duration less the time its child spans cover.  An eig
span counts as `oracle` or `quotient` by the layer that called it.
"""
from __future__ import annotations

import importlib
import json
import time
from contextlib import contextmanager

# span name -> the bindings that lead into that layer, as (module, attribute)
WRAPPED = {
    "graph.build": (("spectra", "build_zdg"), ("classes", "build_zdg")),
    "rings.enumerate": (("rings", "Ring.elements"),),
    "classes.partition": (("spectra", "classes_for"),),
    "spectra.decompose": (("spectra", "decompose"),),
    # spectrum_pair and assemble_spectrum both call these two
    "spectra.assemble": (
        ("spectra", "assemble_adjacency_spectrum"),
        ("spectra", "assemble_laplacian_spectrum"),
    ),
    "spectra.oracle": (("spectra", "brute_spectrum"),),
    "spectra.closed": (
        ("spectra", "decomposition_from_zn_profile"),
        ("spectra", "decomposition_semisimple_closed"),
    ),
    "counts.profile": (("spectra", "zn_profile"),),
    "eig": (("spectra", "jacobi_eigen"),),
}

# per-layer metric -> (unit, better, span it is read from)
METRICS = {
    "eig.oracle_s": ("s", "lower", "eig"),
    "eig.oracle_calls": ("count", "lower", "eig"),
    "eig.oracle_order_max": ("count", "lower", "eig"),
    "eig.quotient_s": ("s", "lower", "eig"),
    "eig.quotient_calls": ("count", "lower", "eig"),
    "eig.quotient_order_max": ("count", "lower", "eig"),
    "eig.failures": ("count", "lower", "eig"),
    "graph.build_s": ("s", "lower", "graph.build"),
    "graph.vertices": ("count", "lower", "graph.build"),
    "graph.pairs": ("count", "lower", "graph.build"),
    "graph.edges": ("count", "lower", "graph.build"),
    "rings.enumerate_s": ("s", "lower", "rings.enumerate"),
    "rings.elements": ("count", "lower", "rings.enumerate"),
    "classes.partition_s": ("s", "lower", "classes.partition"),
    "classes.count": ("count", "lower", "classes.partition"),
    "spectra.decompose_s": ("s", "lower", "spectra.decompose"),
    "spectra.blocks": ("count", "lower", "spectra.decompose"),
    "spectra.compression": ("V/m", "higher", "spectra.decompose"),
    "spectra.assemble_s": ("s", "lower", "spectra.assemble"),
    "spectra.values": ("count", "lower", "spectra.assemble"),
    "spectra.closed_s": ("s", "lower", "spectra.closed"),
    "counts.profile_s": ("s", "lower", "counts.profile"),
    "spectra.oracle_s": ("s", "lower", "spectra.oracle"),
    "spectra.max_dev": ("abs", "lower", None),
    "trace.overhead_s": ("s", "lower", None),
}

EIG_CALLERS = {"spectra.oracle": "oracle", "spectra.assemble": "quotient"}


def _resolve(module, attr):
    """(owner, name) for `attr` inside `module`, following one dot."""
    owner = module
    if "." in attr:
        cls, attr = attr.split(".")
        owner = getattr(module, cls, None)
    return owner, attr


class Tracer:
    def __init__(self):
        self.spans = []  # [name, start, end, parent, op, error, size]
        self.counts = dict.fromkeys(
            ("graph.vertices", "graph.pairs", "graph.edges", "rings.elements",
             "classes.count", "spectra.blocks", "spectra.decomposed", "spectra.values"),
            0,
        )
        self.overhead = 0.0
        self.missing = []
        self._stack = []
        self._op = None
        self._graphs = []  # graphs already counted in the current op
        self._restore = []

    # -- installing and removing the wrappers

    def install(self):
        for span, targets in WRAPPED.items():
            for module_name, attr in targets:
                module = importlib.import_module(f"zdgspectra.{module_name}")
                owner, name = _resolve(module, attr)
                original = getattr(owner, name, None) if owner is not None else None
                if original is None:
                    self.missing.append(f"{module_name}.{attr}")
                    continue
                setattr(owner, name, self._wrap(span, original))
                self._restore.append((owner, name, original))
        return self

    def close(self):
        for owner, name, original in reversed(self._restore):
            setattr(owner, name, original)
        self._restore = []

    def missing_spans(self) -> set[str]:
        """Spans none of whose bindings exist any more."""
        return {
            span
            for span, targets in WRAPPED.items()
            if all(f"{m}.{a}" in self.missing for m, a in targets)
        }

    # -- recording

    @contextmanager
    def op(self, index: int):
        """Root span of one op; every layer span inside it hangs below."""
        t0 = time.perf_counter()
        self._op = index
        self._graphs = []
        record = ["op", 0.0, 0.0, None, index, None, None]
        self.spans.append(record)
        self._stack.append(len(self.spans) - 1)
        t1 = time.perf_counter()
        try:
            yield
        except BaseException as exc:
            record[5] = type(exc).__name__
            raise
        finally:
            t2 = time.perf_counter()
            record[1], record[2] = t1, t2
            self._stack.pop()
            self._op = None
            self._graphs = []
            self.overhead += (t1 - t0) + (time.perf_counter() - t2)

    def _wrap(self, span, fn):
        tracer = self

        def wrapper(*args, **kwargs):
            t0 = time.perf_counter()
            parent = tracer._stack[-1] if tracer._stack else None
            record = [span, 0.0, 0.0, parent, tracer._op, None, None]
            tracer.spans.append(record)
            tracer._stack.append(len(tracer.spans) - 1)
            fresh = span == "rings.enumerate" and getattr(args[0], "_elements", None) is None
            t1 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                t2 = time.perf_counter()
                record[5] = type(exc).__name__
                raise
            else:
                t2 = time.perf_counter()
                tracer._observe(span, result, fresh)
            finally:
                record[1], record[2] = t1, t2
                tracer._stack.pop()
                if span == "eig":
                    record[6] = len(args[0])
                tracer.overhead += (t1 - t0) + (time.perf_counter() - t2)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def _observe(self, span, result, fresh):
        c = self.counts
        if span == "graph.build":
            if not any(g is result for g in self._graphs):
                self._graphs.append(result)
                v = result.order
                c["graph.vertices"] += v
                c["graph.pairs"] += v * (v - 1) // 2
                c["graph.edges"] += result.edge_count
        elif span == "rings.enumerate":
            if fresh:
                c["rings.elements"] += len(result)
        elif span == "classes.partition":
            c["classes.count"] += len(result.classes)
        elif span == "spectra.decompose":
            c["spectra.blocks"] += result.class_count
            c["spectra.decomposed"] += result.order
        elif span == "spectra.assemble":
            c["spectra.values"] += len(result.values)

    # -- results

    def self_times(self) -> list[float]:
        covered = [0.0] * len(self.spans)
        for name, start, end, parent, *_ in self.spans:
            if parent is not None:
                covered[parent] += end - start
        return [s[2] - s[1] - covered[i] for i, s in enumerate(self.spans)]

    def metrics(self, max_dev: float) -> dict[str, float]:
        """Every per-layer metric whose layer could still be wrapped."""
        self_time = self.self_times()
        totals = {}
        eig = {kind: {"s": 0.0, "calls": 0, "order_max": 0} for kind in EIG_CALLERS.values()}
        failures = 0
        for i, (name, _, _, parent, _, error, size) in enumerate(self.spans):
            totals[name] = totals.get(name, 0.0) + self_time[i]
            if name != "eig":
                continue
            failures += error is not None
            kind = EIG_CALLERS.get(self.spans[parent][0]) if parent is not None else None
            if kind is not None:
                eig[kind]["s"] += self_time[i]
                eig[kind]["calls"] += 1
                eig[kind]["order_max"] = max(eig[kind]["order_max"], size)
        c = self.counts
        values = {
            "eig.failures": failures,
            "spectra.compression": c["spectra.decomposed"] / c["spectra.blocks"]
            if c["spectra.blocks"]
            else 0.0,
            "spectra.max_dev": max_dev,
            "trace.overhead_s": self.overhead,
        }
        for kind, row in eig.items():
            for key, v in row.items():
                values[f"eig.{kind}_{key}"] = v
        for name, (unit, _, span) in METRICS.items():
            if name in c:
                values[name] = c[name]
            elif name not in values:  # the self time of a layer span
                values[name] = totals.get(span, 0.0)
        gone = self.missing_spans()
        return {
            name: values[name]
            for name, (_, _, span) in METRICS.items()
            if span not in gone
        }

    def write(self, path):
        """The spans as JSON lines, times relative to the first span."""
        origin = self.spans[0][1] if self.spans else 0.0
        with open(path, "w") as f:
            for i, (name, start, end, parent, op, error, size) in enumerate(self.spans):
                row = {
                    "id": i,
                    "name": name,
                    "start": start - origin,
                    "end": end - origin,
                    "parent": parent,
                    "op": op,
                }
                if error is not None:
                    row["error"] = error
                if size is not None:
                    row["size"] = size
                f.write(json.dumps(row) + "\n")
