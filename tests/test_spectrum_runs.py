"""The run readers of SpectrumMultiset against readers of the expanded values.

`multiset_equal` on two spectra and `clusters()` walk the runs without
expanding them.  The references below read the flat per-eigenvalue list
instead, as both readers did before they walked runs, and the walking
readers must agree with them bit for bit: the same `float.hex` for the
deviation and for every cluster value.
"""
import itertools
import math
import tracemalloc

from hypothesis import given, settings
from hypothesis import strategies as st

from zdgspectra.rings import Zn
from zdgspectra.spectra import (
    CLUSTER_GAP,
    DEFAULT_TOL,
    SpectrumMultiset,
    multiset_equal,
    ring_join_decomposition,
    spectrum_pair,
)


def expanded(runs) -> list[float]:
    return [v for v, k, _ in runs for _ in range(k)]


def reference_deviation(a, b):
    """max |x - y| over the sorted flat lists, None when the lengths differ."""
    a, b = sorted(a), sorted(b)
    if len(a) != len(b):
        return None
    if not a:
        return 0.0
    return max(abs(x - y) for x, y in zip(a, b))


def reference_clusters(values) -> list[dict]:
    out = []
    run: list[float] = []
    for v in values:
        if run and v - run[-1] > CLUSTER_GAP:
            out.append({"value": sum(run) / len(run), "multiplicity": len(run)})
            run = []
        run.append(v)
    if run:
        out.append({"value": sum(run) / len(run), "multiplicity": len(run)})
    return out


def hexed(clusters):
    return [(c["value"].hex(), c["multiplicity"]) for c in clusters]


# ties, both zeros, and values less than CLUSTER_GAP apart, so that clusters span runs
VALUES = st.one_of(
    st.sampled_from([0.0, -0.0, 1.0, -1.0, 4e-7, 9e-7, 1e-6, 2e-6, 1.0 + 5e-7, 1.0 + 1.5e-6]),
    st.floats(-10, 10, allow_nan=False, allow_infinity=False),
)
TAGS = st.sampled_from(["cell-inherited", "quotient", "brute"])


@st.composite
def run_lists(draw, total=None):
    """Ascending runs; with `total`, runs of that total multiplicity,
    otherwise short runs and at times one of up to a million."""
    if total is None:
        values = sorted(draw(st.lists(VALUES, max_size=6)))
        counts = [draw(st.integers(1, 3)) for _ in values]
        if values and draw(st.integers(0, 3)) == 0:
            long_run = st.one_of(st.integers(4, 10**6), st.just(10**6))
            counts[draw(st.integers(0, len(values) - 1))] = draw(long_run)
    else:
        cuts = sorted(draw(st.sets(st.integers(1, total - 1), max_size=5))) if total > 1 else []
        values = sorted(draw(st.lists(VALUES, min_size=len(cuts) + 1, max_size=len(cuts) + 1)))
        counts = [end - start for start, end in zip([0] + cuts, cuts + [total])]
    return [(v, k, draw(TAGS)) for v, k in zip(values, counts)]


@settings(max_examples=60, deadline=None)
@given(run_lists())
def test_clusters_and_expansion_match_the_flat_reference(runs):
    spectrum = SpectrumMultiset(runs)
    flat = expanded(runs)
    assert len(spectrum) == len(flat)
    assert spectrum.values == flat
    assert hexed(spectrum.clusters()) == hexed(reference_clusters(flat))


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_equal_length_deviation_matches_the_flat_reference(data):
    first = data.draw(run_lists())
    second = data.draw(run_lists(total=max(1, sum(k for _, k, _ in first))))
    if not first:
        first = [(0.0, 1, "brute")]
    match = multiset_equal(SpectrumMultiset(first), SpectrumMultiset(second))
    expected = reference_deviation(expanded(first), expanded(second))
    assert match.max_deviation.hex() == expected.hex()
    assert match.matched == (expected <= DEFAULT_TOL) and not match.length_mismatch
    # a plain list on one side becomes runs of one, with the same result
    mixed = multiset_equal(SpectrumMultiset(first), expanded(second))
    assert mixed.max_deviation.hex() == expected.hex()


@settings(max_examples=40, deadline=None)
@given(run_lists(), run_lists())
def test_any_two_run_lists_match_the_flat_reference(first, second):
    match = multiset_equal(SpectrumMultiset(first), SpectrumMultiset(second))
    expected = reference_deviation(expanded(first), expanded(second))
    if expected is None:
        assert match.length_mismatch and match.max_deviation == math.inf and not match.matched
    else:
        assert match.max_deviation.hex() == expected.hex()


def runs_of_sorted(values):
    """Runs of equal bits over the sorted values, so that -0.0 and 0.0 stay apart."""
    return [
        (float.fromhex(h), len(list(group)), "brute")
        for h, group in itertools.groupby(sorted(values), key=float.hex)
    ]


@settings(max_examples=80, deadline=None)
@given(st.data())
def test_lists_and_mixed_inputs_match_the_flat_reference(data):
    # list/list, list/runs, runs/list and runs/runs all walk runs; the
    # lists come unsorted, often of one length, with ties and both zeros
    first = data.draw(st.lists(VALUES, max_size=12))
    size = st.just(len(first)) if data.draw(st.booleans()) else st.integers(0, 12)
    n = data.draw(size)
    second = data.draw(st.lists(VALUES, min_size=n, max_size=n))
    expected = reference_deviation(first, second)
    forms = [(first, SpectrumMultiset(runs_of_sorted(first))), (second, SpectrumMultiset(runs_of_sorted(second)))]
    for a, b in itertools.product(*forms):
        match = multiset_equal(a, b)
        if expected is None:
            assert match.length_mismatch and match.max_deviation == math.inf and not match.matched
        else:
            assert match.max_deviation.hex() == expected.hex() and not match.length_mismatch
            assert match.matched == (expected <= DEFAULT_TOL)


def test_a_cluster_of_negative_zeros_sums_from_the_int_zero():
    # sum() starts from the int 0, and 0 + -0.0 is 0.0
    spectrum = SpectrumMultiset([(-0.0, 2, "quotient"), (0.0, 1, "quotient")])
    assert hexed(spectrum.clusters()) == hexed(reference_clusters(spectrum.values)) == [("0x0.0p+0", 3)]


def test_expanding_a_closed_route_spectrum_allocates_one_list():
    # 954,167 eigenvalues in 3 runs: the expansion is one list of that
    # length; a list per run beside the growing result doubled the peak
    adj, _ = spectrum_pair(ring_join_decomposition(Zn(1908334), "associate", "closed"))
    assert len(adj) == 954167 and len(adj.runs) == 3
    tracemalloc.start()
    try:
        values = adj.values
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(values) == len(adj)
    assert peak < 1.25 * 8 * len(adj) + 2**20, peak
