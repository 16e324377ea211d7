"""Histogram/EM/proximity operations and cluster-tree invariants."""

import math
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import ndimage

from em_oracle import segmented_em as frozen_em
from tree_oracle import reference_em, reference_flood

import mkfilter
from mkfilter import (NODE_DTYPE, ClusterConfig, ClusterTree, ConfigError,
                      Histogram, Raster, add_integral_noise, build_cluster_tree,
                      build_histogram, build_kernel_field,
                      em_similarity_cluster, initial_gauss_pair, phantoms,
                      proximity_cluster)
from mkfilter.clustering import (BIN_WIDTH, EM_MAX_ITERATIONS, EM_TOL,
                                 _segment_histograms, _segmented_em)

# ---------------------------------------------------------------------------
# oracles


def em_over_raw_values(values, mu, sigma, weight, tol, sigma_floor,
                       max_iter=500):
    """Plain-loop EM over the raw samples (no histogram), used as the
    independent reference for the binned implementation."""
    values = list(values)
    mu, sigma, weight = list(mu), list(sigma), list(weight)
    for _ in range(max_iter):
        resp = []
        for v in values:
            dens = [
                w / (s * math.sqrt(2 * math.pi))
                * math.exp(-0.5 * ((v - m) / s) ** 2)
                for m, s, w in zip(mu, sigma, weight)
            ]
            total = dens[0] + dens[1]
            resp.append((dens[0] / total, dens[1] / total))
        new_mu, new_sigma, new_weight = [], [], []
        for c in (0, 1):
            mass = sum(r[c] for r in resp)
            new_weight.append(mass / len(values))
            m = sum(r[c] * v for r, v in zip(resp, values)) / mass
            var = sum(r[c] * (v - m) ** 2 for r, v in zip(resp, values)) / mass
            new_mu.append(m)
            new_sigma.append(max(math.sqrt(var), sigma_floor))
        shift = max(
            max(abs(a - b) for a, b in zip(new_mu, mu)),
            max(abs(a - b) for a, b in zip(new_sigma, sigma)),
            max(abs(a - b) for a, b in zip(new_weight, weight)),
        )
        mu, sigma, weight = new_mu, new_sigma, new_weight
        if shift < tol:
            break
    return mu, sigma, weight


EIGHT = np.ones((3, 3), dtype=bool)  # scipy's 8-connectivity structure


def flood_fill_components(labels):
    """8-connected components of each input label via scipy flood fill."""
    out = np.full(labels.shape, -1, dtype=np.int64)
    next_id = 0
    for value in np.unique(labels):
        comp, count = ndimage.label(labels == value, structure=EIGHT)
        for c in range(1, count + 1):
            out[comp == c] = next_id
            next_id += 1
    return out


def row_major_components(labels):
    """The flood-fill oracle's components, renumbered in row-major order of
    each component's first pixel."""
    comp = flood_fill_components(labels).ravel()
    _, first = np.unique(comp, return_index=True)
    rank = np.empty(first.size, dtype=np.int64)
    rank[np.argsort(first)] = np.arange(first.size)
    return rank[comp].reshape(np.shape(labels))


def partitions_equal(a, b):
    """Two label maps induce the same partition of the pixels."""
    a, b = np.asarray(a).ravel(), np.asarray(b).ravel()
    pair_ab = {}
    pair_ba = {}
    for x, y in zip(a.tolist(), b.tolist()):
        if pair_ab.setdefault(x, y) != y or pair_ba.setdefault(y, x) != x:
            return False
    return True


# ---------------------------------------------------------------------------
# histogram


def test_histogram_single_value():
    h = build_histogram([5, 5, 5])
    assert h.centers.tolist() == [5.5]
    assert h.counts.tolist() == [3.0]


def test_histogram_spans_signed_range():
    h = build_histogram([-3000.0, 3000.0])
    assert h.centers.size == 2
    assert h.centers[1] - h.centers[0] == 6000.0


def test_histogram_rejects_bin_indices_beyond_int64():
    # 1e19 bins of width 1 span the range; the int64 cast would wrap
    message = "bin width 1.0 gives bin indices beyond the int64 range"
    with pytest.raises(ConfigError, match=message):
        build_histogram([0.0, 1e19])
    # through a tree: the same span in a cluster's intensities
    img = np.zeros((6, 6))
    img[:, 3:] = 1e19
    with pytest.raises(ConfigError, match=message):
        build_cluster_tree(Raster(img), ClusterConfig(max_cluster=4,
                                                      min_cluster=3))


def test_histogram_weights_sum_to_pixel_count():
    rng = np.random.default_rng(7)
    for _ in range(20):
        pixels = rng.normal(0, 50, rng.integers(1, 400))
        h = build_histogram(pixels)
        assert h.counts.sum() == pixels.size


def per_segment_histograms(values, segment, n_segments):
    """Each segment binned on its own with ``np.unique``, the way the tree
    oracle bins a cluster, then laid out back to back: (centers, counts,
    starts, inverse)."""
    centers, counts, starts = [], [], []
    inverse = np.empty(values.size, dtype=np.int64)
    offset = 0
    for s in range(n_segments):
        idx = np.flatnonzero(segment == s)
        pix = values[idx]
        base = math.floor(pix.min() / BIN_WIDTH) * BIN_WIDTH
        bins = np.floor((pix - base) / BIN_WIDTH).astype(np.int64)
        occupied, local, count = np.unique(bins, return_inverse=True,
                                           return_counts=True)
        centers.append(base + (occupied + 0.5) * BIN_WIDTH)
        counts.append(count.astype(np.float64))
        starts.append(offset)
        inverse[idx] = local + offset
        offset += occupied.size
    return (np.concatenate(centers), np.concatenate(counts),
            np.array(starts, dtype=np.int64), inverse)


def assert_histograms_match_per_segment(values, segment):
    n_segments = int(segment.max()) + 1
    hist, inverse = _segment_histograms(values, segment, n_segments)
    centers, counts, starts, ref_inverse = per_segment_histograms(
        values, segment, n_segments)
    for got, want in ((hist.centers, centers), (hist.counts, counts),
                      (hist.starts, starts), (inverse, ref_inverse)):
        assert got.dtype == want.dtype
        assert got.tobytes() == want.tobytes()


# narrow integer values in a few segments: a small key space, counted
NARROW_SAMPLES = st.lists(st.tuples(st.integers(0, 5),
                                    st.integers(-300, 300).map(float)),
                          min_size=1, max_size=200)
# narrow fractional values: several values per bin and values on the bin
# edges, counted
FRACTIONAL_SAMPLES = st.lists(
    st.tuples(st.integers(0, 5),
              st.integers(-1200, 1200).map(lambda q: q / 4.0)
              | st.floats(-300.0, 300.0, allow_nan=False)),
    min_size=1, max_size=200)
# wide float spans across many segments: a key space far beyond the
# number of values, ranked
WIDE_SAMPLES = st.lists(st.tuples(st.integers(0, 40),
                                  st.floats(-1e6, 1e6, allow_nan=False)),
                        min_size=1, max_size=200)


@settings(max_examples=150, deadline=None)
@given(samples=NARROW_SAMPLES | FRACTIONAL_SAMPLES | WIDE_SAMPLES)
def test_segment_histograms_match_per_segment_unique(samples):
    """Random segment layouts, negative values and ties, in counted and in
    ranked key spaces: each segment gets exactly the histogram it gets on
    its own."""
    ids, values = zip(*samples)
    segment = np.unique(ids, return_inverse=True)[1].astype(np.int64)
    assert_histograms_match_per_segment(np.array(values), segment)


def spy_on(monkeypatch, *names):
    """Count the calls of the named numpy functions, by name."""
    calls = dict.fromkeys(names, 0)
    for name in names:
        def spy(*args, _name=name, _call=getattr(np, name), **kwargs):
            calls[_name] += 1
            return _call(*args, **kwargs)
        monkeypatch.setattr(np, name, spy)
    return calls


def test_segment_histograms_count_a_narrow_key_space(monkeypatch):
    values = np.array([3.0, 7.5, 7.9, 3.2, -2.0, 250.0, -1.5, 7.0])
    segment = np.array([0, 0, 0, 0, 1, 1, 1, 2])
    calls = spy_on(monkeypatch, "argsort", "sort", "unique", "searchsorted")
    hist, inverse = _segment_histograms(values, segment, 3)
    assert calls == dict.fromkeys(calls, 0)
    assert hist.centers.tolist() == [3.5, 7.5, -1.5, 250.5, 7.5]
    assert hist.counts.tolist() == [2.0, 2.0, 2.0, 1.0, 1.0]
    assert hist.starts.tolist() == [0, 2, 4]
    assert inverse.tolist() == [0, 1, 1, 0, 2, 3, 2, 4]
    monkeypatch.undo()
    assert_histograms_match_per_segment(values, segment)


def test_segment_histograms_rank_a_wide_key_space(monkeypatch):
    # three segments spanning a million bins each, for five values
    values = np.array([0.0, 1e6, 5e5, -1e6, 0.25])
    segment = np.array([0, 0, 1, 1, 2])
    calls = spy_on(monkeypatch, "unique", "bincount")
    hist, inverse = _segment_histograms(values, segment, 3)
    assert calls == {"unique": 2, "bincount": 0}
    assert hist.centers.tolist() == [0.5, 1e6 + 0.5, -1e6 + 0.5, 5e5 + 0.5,
                                     0.5]
    assert hist.starts.tolist() == [0, 2, 4]
    assert inverse.tolist() == [0, 1, 3, 2, 4]
    monkeypatch.undo()
    assert_histograms_match_per_segment(values, segment)


def test_segment_histograms_rank_bins_when_the_key_would_wrap():
    # each segment spans 8e18 + 1 bins; segment * span + bin passes int64
    values = np.array([0.0, 8e18, 8e18, 0.0, 8e18])
    segment = np.array([0, 0, 1, 1, 1])
    assert_histograms_match_per_segment(values, segment)


# ---------------------------------------------------------------------------
# EM similarity clustering


def test_initial_pair_rule():
    assert initial_gauss_pair(255.0).tolist() == [
        [85.0, 170.0], [255.0, 255.0], [0.5, 0.5]]
    # per-cluster maxima give the same rule along a segment axis
    theta = initial_gauss_pair(np.array([255.0, -0.5]))
    assert theta.shape == (3, 2, 2)
    assert theta[:, :, 0].tolist() == initial_gauss_pair(255.0).tolist()
    assert theta[:, :, 1].tolist() == initial_gauss_pair(-0.5).tolist()
    # the deviations are |i_max|, unfloored; the EM floors its start, so a
    # start below BIN_WIDTH fits as the floored start does
    assert theta[1, :, 1].tolist() == [0.5, 0.5]
    hist = build_histogram([-0.5, -0.2, -1.7, -2.6])
    floored = initial_gauss_pair(-0.5)
    floored[1] = BIN_WIDTH
    assert _fit_bytes(em_similarity_cluster(hist, initial_gauss_pair(-0.5))) \
        == _fit_bytes(em_similarity_cluster(hist, floored))


def test_em_two_modes_match_raw_value_oracle():
    values = [0.0] * 100 + [255.0] * 100
    hist = build_histogram(values)
    init = initial_gauss_pair(255.0)
    result = em_similarity_cluster(hist, init)
    mu_ref, _, _ = em_over_raw_values(
        values, (85.0, 170.0), (255.0, 255.0), (0.5, 0.5), 1e-4, 1.0)
    # oracle converges onto the two modes (0, 255); the binned fit agrees
    # to within half a bin
    assert abs(mu_ref[0] - 0.0) < 1e-6 and abs(mu_ref[1] - 255.0) < 1e-6
    assert abs(result.theta[0, 0] - mu_ref[0]) <= 0.5 + 1e-9
    assert abs(result.theta[0, 1] - mu_ref[1]) <= 0.5 + 1e-9
    assert result.labels.tolist() == [0, 1]  # one label per mode
    assert not result.degenerate


def test_em_single_bin_degenerates():
    hist = build_histogram([7.0, 7.2, 7.4])
    result = em_similarity_cluster(hist, initial_gauss_pair(7.4))
    assert result.degenerate
    assert result.labels.tolist() == [0]
    assert result.theta[2].tolist() == [1.0, 0.0]
    assert result.iterations == 0


def test_em_log_likelihood_non_decreasing():
    rng = np.random.default_rng(11)
    for _ in range(10):
        values = np.concatenate([
            rng.normal(rng.uniform(0, 100), rng.uniform(1, 20), 150),
            rng.normal(rng.uniform(120, 255), rng.uniform(1, 20), 150),
        ])
        hist = build_histogram(values)
        init = initial_gauss_pair(float(values.max()))
        # a tighter tolerance than the trees' runs more iterations
        result = _segmented_em(hist, init, 1e-6, BIN_WIDTH, EM_MAX_ITERATIONS,
                               trace=True)
        diffs = np.diff(result.log_likelihood)
        assert diffs.min() > -1e-9


def test_em_sigma_respects_floor():
    values = [0.0] * 50 + [200.0] * 50
    hist = build_histogram(values)
    result = em_similarity_cluster(hist, initial_gauss_pair(200.0))
    assert result.theta[1].min() >= BIN_WIDTH


def test_segmented_em_matches_one_histogram_fits():
    """A K-segment batch gives each segment the fit it gets alone, and the
    per-cluster loop oracle agrees on labels, theta and iteration count.
    The fit is the same whether or not it records the log-likelihood, and
    each segment's iteration count is the length of its trace."""
    rng = np.random.default_rng(31)
    samples = [
        np.concatenate([rng.normal(40, 8, 120), rng.normal(190, 15, 80)]),
        rng.uniform(0, 255, 300),
        np.full(12, 7.25),  # one bin
        rng.normal(100, 3, 60),
        np.concatenate([rng.normal(-900, 40, 90), rng.normal(1200, 90, 60)]),
        np.array([3.0, 3.5]),  # one bin
        np.concatenate([rng.normal(60, 2, 30), rng.normal(64, 2, 30)]),
    ]
    inits = [initial_gauss_pair(float(v.max())) for v in samples]
    # a far, narrow second component gets no mass: that fit stops at once
    samples.append(rng.normal(50, 5, 40))
    inits.append(np.array([[50.0, 1e6], [5.0, 1.0], [0.5, 0.5]]))
    # equal components tie on every bin; ties go to the first component
    samples.append(rng.normal(80, 10, 50))
    inits.append(np.array([[80.0, 80.0], [10.0, 10.0], [0.5, 0.5]]))
    hists = [build_histogram(v) for v in samples]
    starts = np.cumsum([0] + [h.centers.size for h in hists[:-1]])
    batch = Histogram(np.concatenate([h.centers for h in hists]),
                      np.concatenate([h.counts for h in hists]), starts)
    fits = _segmented_em(batch, np.stack(inits, axis=-1), 1e-4, 1.0,
                         EM_MAX_ITERATIONS, trace=True)
    untraced = _segmented_em(batch, np.stack(inits, axis=-1), 1e-4, 1.0,
                             EM_MAX_ITERATIONS)
    assert untraced.log_likelihood is None
    for name in ("theta", "labels", "degenerate", "iterations"):
        got, want = getattr(untraced, name), getattr(fits, name)
        assert got.dtype == want.dtype
        assert got.tobytes() == want.tobytes()
    assert fits.iterations.tolist() == [t.size for t in fits.log_likelihood]
    ends = list(starts[1:]) + [None]
    for k, (hist, init) in enumerate(zip(hists, inits)):
        trace = fits.log_likelihood[k]
        for single in (em_similarity_cluster(hist, init),
                       reference_em(hist, init, EM_TOL, BIN_WIDTH)):
            assert np.array_equal(fits.labels[starts[k]:ends[k]], single.labels)
            assert bool(fits.degenerate[k]) == single.degenerate
            assert trace.size == single.log_likelihood.size
            assert fits.iterations[k] == single.iterations
            np.testing.assert_allclose(fits.theta[:, :, k], single.theta,
                                       rtol=1e-12, atol=0.0)
        if trace.size > 1:
            assert np.diff(trace).min() > -1e-9
    assert fits.degenerate.tolist() == [False, False, True, False, False,
                                        True, False, False, False]
    assert fits.iterations[fits.degenerate].tolist() == [0, 0]
    assert fits.theta[2, :, 2].tolist() == [1.0, 0.0]
    assert fits.log_likelihood[-2].size == 1
    assert fits.theta[:, 1, -2].tolist() == [1e6, 1.0, 0.5]
    assert not fits.labels[starts[-1]:].any()


def _batch(hists):
    """The histograms back to back, one segment each."""
    starts = np.cumsum([0] + [h.centers.size for h in hists[:-1]])
    return Histogram(np.concatenate([h.centers for h in hists]),
                     np.concatenate([h.counts for h in hists]), starts)


def _em_bytes(fit, segment, bins=slice(None)):
    """theta, labels, iterations and trace of one segment, as bytes."""
    return [fit.theta[:, :, segment].tobytes(), fit.labels[bins].tobytes(),
            fit.iterations[segment].tobytes(),
            fit.log_likelihood[segment].tobytes()]


@pytest.mark.parametrize("max_iterations", [1, 2, 7, EM_MAX_ITERATIONS])
def test_lone_segment_fit_equals_its_gathered_fit(max_iterations):
    """A histogram fitted alone broadcasts its parameters over its bins;
    fitted beside an identical copy, it gathers them by segment until
    both leave together. The two paths give the same bytes: the capped
    root fit of a noisy phantom, a fit that converges and one whose second
    component loses all mass at once."""
    rng = np.random.default_rng(7)
    root = add_integral_noise(phantoms.bsd_style(40, 40, seed=3), 1000.0, 11)
    bimodal = np.concatenate([rng.normal(40, 8, 120), rng.normal(190, 15, 80)])
    far = rng.normal(50, 5, 40)
    cases = [(root.data, initial_gauss_pair(float(root.data.max()))),
             (bimodal, initial_gauss_pair(float(bimodal.max()))),
             (far, np.array([[50.0, 1e6], [5.0, 1.0], [0.5, 0.5]]))]
    iterations = []
    for values, init in cases:
        hist = build_histogram(values)
        alone = _segmented_em(hist, init[..., None], 1e-4, 1.0, max_iterations,
                              trace=True)
        paired = _segmented_em(_batch([hist, hist]), np.stack([init, init], -1),
                               1e-4, 1.0, max_iterations, trace=True)
        size = hist.centers.size
        assert _em_bytes(alone, 0) == _em_bytes(paired, 0, slice(0, size))
        assert _em_bytes(alone, 0) == _em_bytes(paired, 1, slice(size, None))
        iterations.append(alone.iterations[0])
    if max_iterations == EM_MAX_ITERATIONS:  # the cap, convergence, lost
        assert iterations[0] == EM_MAX_ITERATIONS
        assert 2 < iterations[1] < EM_MAX_ITERATIONS
        assert iterations[2] == 1


@pytest.mark.parametrize("fixed_point", [True, False])
@pytest.mark.parametrize("max_iterations", [1, 2, 7])
def test_segmented_em_lost_converged_and_capped_in_one_iteration(
        max_iterations, fixed_point):
    """In one batch a component loses all mass at iteration 1 while the
    other segments go on; one fit converges at iteration 2 and two run to
    the cap. With a cap of 1 or 2 the exits coincide in one iteration.
    With ``fixed_point`` a fit that starts at its fixed point converges
    at iteration 1 beside the lost one; without it, nothing else leaves
    at iteration 1, so the one-reduction test alone must see the lost
    component. Every segment matches the one-histogram loop oracle at the
    same cap, and the bytes of its fit alone."""
    rng = np.random.default_rng(19)
    spikes = [0.2] * 30 + [100.7] * 10  # bins centred on 0.5 and 100.5
    exact = np.array([[0.5, 100.5], [1.0, 1.0], [0.75, 0.25]])
    near = exact.copy()
    near[0, 0] += 1e-3
    samples = [rng.normal(50, 5, 40), spikes,
               np.concatenate([rng.normal(40, 8, 120), rng.normal(190, 15, 80)]),
               rng.uniform(0, 255, 300)]
    inits = [np.array([[50.0, 1e6], [5.0, 1.0], [0.5, 0.5]]), near,
             initial_gauss_pair(float(samples[2].max())),
             initial_gauss_pair(float(samples[3].max()))]
    expected = [1, 2, max_iterations, max_iterations]
    if fixed_point:
        samples.append(spikes)
        inits.append(exact)
        expected.append(1)
    hists = [build_histogram(v) for v in samples]
    batch = _batch(hists)
    fits = _segmented_em(batch, np.stack(inits, axis=-1), 1e-4, 1.0,
                         max_iterations, trace=True)
    assert fits.iterations.tolist() == [min(k, max_iterations)
                                        for k in expected]
    # the lost component keeps its start; the exact start is a fixed point
    assert fits.theta[:, :, 0].tolist() == inits[0].tolist()
    if max_iterations >= 2:
        assert fits.theta[:, :, 1].tolist() == exact.tolist()
    if fixed_point:
        assert fits.theta[:, :, -1].tolist() == exact.tolist()
    ends = list(batch.starts[1:]) + [None]
    for k, (hist, init) in enumerate(zip(hists, inits)):
        bins = slice(batch.starts[k], ends[k])
        alone = _segmented_em(hist, init[..., None], 1e-4, 1.0,
                              max_iterations, trace=True)
        assert _em_bytes(alone, 0) == _em_bytes(fits, k, bins)
        ref = reference_em(hist, init, 1e-4, 1.0,
                           max_iterations=max_iterations)
        assert np.array_equal(fits.labels[bins], ref.labels)
        assert fits.iterations[k] == ref.iterations
        np.testing.assert_allclose(fits.theta[:, :, k], ref.theta,
                                   rtol=1e-12, atol=0.0)
        np.testing.assert_allclose(fits.log_likelihood[k], ref.log_likelihood,
                                   rtol=1e-12, atol=0.0)


@st.composite
def em_layouts(draw):
    """A segmented EM call on a random layout: up to 6 segments of up to 9
    bins each (single bins are common), counts from 1 to 40, starts at the
    initial rule, at random, or with a component that gets no mass (far
    away or of weight 0), a tolerance from tight to loose, so that segments
    leave on different iterations, and a cap from 1 iteration up."""
    n_seg = draw(st.integers(1, 6))
    floor = draw(st.sampled_from([0.5, 1.0, 2.0]))
    centers, counts, starts, inits = [], [], [], []
    for _ in range(n_seg):
        starts.append(len(centers))
        base = draw(st.integers(-50, 250)) * floor
        offsets = draw(st.lists(st.integers(0, 60), min_size=1, max_size=9,
                                unique=True))
        seg = base + (np.sort(offsets) + 0.5) * floor
        centers.extend(seg.tolist())
        counts.extend(draw(st.lists(st.integers(1, 40), min_size=seg.size,
                                    max_size=seg.size)))
        kind = draw(st.sampled_from(["rule", "random", "far", "weightless"]))
        if kind == "rule":
            init = initial_gauss_pair(float(seg.max()))
        else:
            mu = draw(st.lists(st.floats(-100, 400), min_size=2, max_size=2))
            sigma = draw(st.lists(st.floats(0.1, 200), min_size=2, max_size=2))
            weight = draw(st.floats(0.05, 0.95))
            init = np.array([mu, sigma, [weight, 1.0 - weight]])
            if kind == "far":
                init[:, 1] = [1e6, 1.0, 0.5]
            elif kind == "weightless":
                init[2] = [1.0, 0.0]
        inits.append(init)
    hist = Histogram(np.array(centers), np.array(counts, dtype=np.float64),
                     np.array(starts))
    theta = inits[0] if n_seg == 1 and draw(st.booleans()) else np.stack(
        inits, axis=-1)
    tol = draw(st.sampled_from([1e-12, 1e-6, 1e-4, 1e-2, 1.0, 10.0]))
    cap = draw(st.one_of(st.integers(1, 40), st.just(EM_MAX_ITERATIONS)))
    return hist, theta, tol, floor, cap, draw(st.booleans())


def _fit_bytes(fit):
    """Every field of an EM result as bytes, traces one by one."""
    traces = fit.log_likelihood
    if isinstance(traces, np.ndarray):
        traces = [traces]
    return [np.asarray(fit.theta).tobytes(), fit.labels.tobytes(),
            np.asarray(fit.degenerate).tobytes(),
            np.asarray(fit.iterations).tobytes(),
            None if traces is None else [t.tobytes() for t in traces]]


@settings(max_examples=300, deadline=None)
@given(layout=em_layouts())
def test_segmented_em_matches_frozen_oracle(layout):
    """The EM loop runs the float operations of the loop it replaced, in
    the same order, so every result is the same to the byte."""
    hist, theta, tol, floor, cap, trace = layout
    got = _segmented_em(hist, theta, tol, floor, cap, trace=trace)
    want = frozen_em(hist, theta, tol, floor, cap, trace=trace)
    assert _fit_bytes(got) == _fit_bytes(want)


@pytest.mark.parametrize("batched", [False, True], ids=["alone", "last"])
def test_lone_segment_finish_test_edges(batched):
    """A lone segment's quick finish test reads its six moves as Python
    floats. A largest move equal to ``tol`` goes on, as ``>=`` says: ``tol``
    is the largest move of iteration k + 1, read from the frozen loop capped
    at k and at k + 1, which is below every earlier move; the fit then
    stops one iteration later, and with a hair above it, at k + 1. A component
    that gets a weight of exactly 0 at iteration 1 loses all mass at
    iteration 2: its moves are nan, which Python's ``max`` passes over, and
    at a ``tol`` of 0 the other component's moves of 0 pass; the fit must
    stop there all the same. Each fit runs alone, and as the
    last segment of a batch whose other segment loses a component at
    iteration 1; every result is the frozen loop's, byte for byte."""
    k = 24
    converging = build_histogram(np.concatenate([
        np.random.default_rng(31).normal(40, 8, 120),
        np.random.default_rng(32).normal(190, 15, 80)]))
    start = initial_gauss_pair(converging.centers.max())
    before, after = (frozen_em(converging, start, 0.0, 1.0, cap).theta
                     for cap in (k, k + 1))
    tol = float(np.abs(after - before).max())
    losing = build_histogram(np.random.default_rng(7).normal(50, 5, 40))
    late = np.array([[50.0, 249.5], [5.0, 5.0], [0.5, 0.5]])
    cases = [(converging, start, tol, k + 2),
             (converging, start, np.nextafter(tol, np.inf), k + 1),
             (losing, late, 0.0, 2)]
    far = build_histogram(np.random.default_rng(19).normal(50, 5, 40))
    far_start = np.array([[50.0, 1e6], [5.0, 1.0], [0.5, 0.5]])
    for hist, init, tol, expected in cases:
        hists, inits = [hist], [init]
        if batched:
            hists.insert(0, far)
            inits.insert(0, far_start)
        batch, theta = _batch(hists), np.stack(inits, axis=-1)
        got = _segmented_em(batch, theta, tol, 1.0, EM_MAX_ITERATIONS,
                            trace=True)
        want = frozen_em(batch, theta, tol, 1.0, EM_MAX_ITERATIONS, trace=True)
        assert _fit_bytes(got) == _fit_bytes(want)
        assert got.iterations.tolist() == [1] * batched + [expected]
    # the lost component kept its iteration-1 parameters, weight 0
    one = frozen_em(losing, late, 0.0, 1.0, 1)
    assert one.theta[2, 1] == 0.0
    assert got.theta[:, :, -1].tobytes() == one.theta.tobytes()


# ---------------------------------------------------------------------------
# proximity clustering


def test_opposite_corners_split():
    labels = np.full((3, 3), 1)
    labels[0, 0] = labels[2, 2] = 0
    out = proximity_cluster(labels, 8)
    assert np.unique(out).size == 3
    assert partitions_equal(out, flood_fill_components(labels))


def test_uniform_map_single_label():
    out = proximity_cluster(np.zeros((5, 7), dtype=int), 8)
    assert np.unique(out).size == 1


def test_checkerboard_eight_connectivity_keeps_two():
    labels = np.indices((4, 4)).sum(axis=0) % 2
    out = proximity_cluster(labels, 8)
    assert np.unique(out).size == 2


def test_proximity_matches_flood_fill_oracle_on_random_maps():
    rng = np.random.default_rng(3)
    for _ in range(30):
        labels = rng.integers(0, 3, size=(10, 12))
        out = proximity_cluster(labels, 8)
        assert partitions_equal(out, flood_fill_components(labels))
        assert np.unique(out).size >= np.unique(labels).size


def spiral(size):
    """Two interleaved one-pixel spirals, key 1 starting at the top-left
    corner and key 0 just below it: each is one region whose far end lies
    (size/2)^2 steps along its path from its first pixel."""
    grid = np.zeros((size, size), dtype=np.int64)
    y, x, dy, dx = 0, 0, 0, 1
    grid[y, x] = 1
    while True:
        for _ in range(2):  # step ahead, else turn clockwise and try once more
            ny, nx, ay, ax = y + dy, x + dx, y + 2 * dy, x + 2 * dx
            if (0 <= ny < size and 0 <= nx < size and not grid[ny, nx]
                    and not (0 <= ay < size and 0 <= ax < size and grid[ay, ax])):
                y, x = ny, nx
                grid[y, x] = 1
                break
            dy, dx = dx, -dy
        else:
            return grid


def test_proximity_labels_follow_row_major_first_pixel():
    rng = np.random.default_rng(37)
    maps = [
        np.array([[5]]),
        np.array([[0, 0, 1, 1, 0, 2, 2, 0]]),
        np.array([[0, 0, 1, 1, 0, 2, 2, 0]]).T,
        spiral(17),
        np.indices((5, 6)).sum(axis=0) % 2,
    ] + [rng.integers(0, 3, size=shape) for shape in
         [(1, 9), (9, 1), (6, 6), (10, 12), (13, 7)] * 4]
    for labels in maps:
        out = proximity_cluster(labels, 8)
        assert out.dtype == np.int64 and out.shape == labels.shape
        assert np.array_equal(out, row_major_components(labels))
        assert np.array_equal(out, reference_flood(labels, 8))


@st.composite
def run_maps(draw):
    """Key maps from 1 x 1 to 32 x 32, 1 x N and N x 1 included, built
    from horizontal runs of at most three keys: random runs, or staircases
    of runs that touch the next row's run only at a corner. Some maps are
    float, with NaN pixels (NaN equals nothing, not even itself)."""
    side = st.just(1) | st.integers(1, 32)
    height, width = draw(side), draw(side)
    n_keys = draw(st.integers(1, 3))
    if draw(st.booleans()):
        lengths = draw(st.lists(st.integers(1, 12), min_size=1))
        run_keys = draw(st.lists(st.integers(0, n_keys - 1),
                                 min_size=len(lengths), max_size=len(lengths)))
        flat = np.resize(np.repeat(run_keys, lengths), height * width)
    else:
        step, offset = draw(st.integers(1, 6)), draw(st.integers(0, 6))
        direction = draw(st.sampled_from([1, -1]))
        x, y = np.arange(width), np.arange(height)[:, None]
        flat = ((x - direction * step * y - offset) // step % n_keys).ravel()
    grid = flat.reshape(height, width)
    spots = st.tuples(st.integers(0, height - 1), st.integers(0, width - 1))
    for y, x in draw(st.lists(spots, max_size=4)):
        grid[y, x] = (grid[y, x] + 1) % max(n_keys, 2)
    if draw(st.booleans()):
        grid = grid.astype(np.float64)
        for y, x in draw(st.lists(spots, max_size=6)):
            grid[y, x] = np.nan
    return grid


@settings(max_examples=300, deadline=None)
@given(keys=run_maps())
def test_proximity_matches_reference_flood_on_run_maps(keys):
    """Run-based connectivity against the stack flood fill, label for
    label, where runs are long and regions meet only diagonally."""
    out = proximity_cluster(keys, 8)
    assert out.dtype == np.int64 and out.shape == keys.shape
    assert np.array_equal(out, reference_flood(keys, 8))


def test_proximity_exact_labels_on_small_maps():
    assert proximity_cluster(np.array([[5]]), 8).tolist() == [[0]]
    row = np.array([[0, 0, 1, 1, 0, 2, 2, 0]])
    assert proximity_cluster(row, 8).tolist() == [[0, 0, 1, 1, 2, 3, 3, 4]]
    assert proximity_cluster(row.T, 8).ravel().tolist() == [0, 0, 1, 1, 2, 3, 3, 4]
    board = np.indices((3, 4)).sum(axis=0) % 2
    assert np.array_equal(proximity_cluster(board, 8), board)
    assert np.array_equal(proximity_cluster(spiral(17), 8), 1 - spiral(17))


def test_tree_build_leaves_scipy_sparse_unimported(tmp_path, src_env):
    # the library and the CLI run on numpy alone; scipy is only a test oracle
    pgm = tmp_path / "in.pgm"
    mkfilter.save_pgm(mkfilter.Raster(
        np.random.default_rng(1).integers(0, 256, (16, 16)).astype(float)), pgm)
    code = ("import sys, numpy as np, mkfilter, mkfilter.cli\n"
            "pgm, out = sys.argv[1:]\n"
            "mkfilter.build_cluster_tree(mkfilter.Raster("
            "np.random.default_rng(0).uniform(0, 255, (32, 32))),"
            " mkfilter.ClusterConfig(max_depth=3))\n"
            "assert mkfilter.cli.main(['metrics', pgm, pgm]) == 0\n"
            "assert mkfilter.cli.main(['denoise', pgm, out, '--filter', 'mkf',"
            " '--depth', '2']) == 0\n"
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
    proc = subprocess.run([sys.executable, "-c", code, str(pgm),
                           str(tmp_path / "out.pgm")], capture_output=True,
                          text=True, env=src_env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip().splitlines()[-1] == "[]"
    assert (tmp_path / "out.pgm").is_file()


def test_proximity_rejects_bad_neighborhood():
    for neighborhood in (6, 4):  # trees are 8-connected alone
        with pytest.raises(ConfigError, match="neighborhood must be 8"):
            proximity_cluster(np.zeros((2, 2), dtype=int), neighborhood)


def test_proximity_takes_the_tree_neighborhood():
    """The call as a tree's caller makes it, with the config's
    connectivity: a tree's leaves are connected and numbered in row-major
    order of their first pixels, so they come back as they are."""
    image = add_integral_noise(phantoms.bsd_style(24, 24, seed=3), 300.0, 5)
    tree = build_cluster_tree(image, ClusterConfig(max_depth=4))
    leaves = tree.levels[-1]
    assert np.array_equal(
        proximity_cluster(leaves, ClusterConfig.neighborhood),
        leaves - leaves.min())


# ---------------------------------------------------------------------------
# tree construction


def by_leaf(field):
    """The kernel field's columns as {leaf id: (delta, psi)}."""
    return dict(zip(field.ids.tolist(),
                    zip(field.delta.tolist(), field.psi.tolist())))


def two_region_image():
    img = np.zeros((8, 8))
    img[:, 4:] = 200.0
    return Raster(img)


def test_two_region_tree():
    cfg = ClusterConfig(max_depth=2, max_cluster=4, min_cluster=3)
    tree = build_cluster_tree(two_region_image(), cfg)
    level1 = tree.nodes[tree.nodes["level"] == 1]
    assert len(level1) == 2
    assert sorted(level1["mu"]) == [0.0, 200.0]
    assert all(level1["delta"] == 0.0)
    # the kernel consumer sees the floored deviation
    records = by_leaf(build_kernel_field(tree))
    for node_id in np.flatnonzero(tree.nodes["level"] == 1):
        child = np.flatnonzero(tree.nodes["parent"] == node_id)[0]
        assert records[child][0] == 1.0


def test_constant_image_is_single_chain():
    cfg = ClusterConfig(max_depth=4, max_cluster=10, min_cluster=2)
    tree = build_cluster_tree(Raster(np.full((6, 6), 9.0)), cfg)
    for level in range(cfg.max_depth + 1):
        assert np.count_nonzero(tree.nodes["level"] == level) == 1
        assert np.unique(tree.levels[level]).size == 1
    assert len(tree.nodes) == cfg.max_depth + 1


def test_invalid_config_rejected_before_work():
    with pytest.raises(ConfigError):
        build_cluster_tree(two_region_image(),
                           ClusterConfig(max_depth=1))


def _check_tree_invariants(tree: ClusterTree, cfg: ClusterConfig, n_pixels):
    nodes = tree.nodes
    assert nodes.dtype == NODE_DTYPE
    for level, label_map in enumerate(tree.levels):
        ids, counts = np.unique(label_map, return_counts=True)
        # partition: sizes recorded on the nodes match the map
        assert counts.sum() == n_pixels
        for node_id, count in zip(ids, counts):
            node = nodes[node_id]
            assert node["level"] == level
            assert node["size"] == count
            assert node["delta"] >= 0.0
        if level > 0:
            # refinement: every cluster nests in exactly one parent cluster
            prev = tree.levels[level - 1]
            for node_id in ids:
                parents = np.unique(prev[label_map == node_id])
                assert parents.size == 1
                assert nodes[node_id]["parent"] == parents[0]
    for node_id, node in enumerate(nodes):
        children = nodes[nodes["parent"] == node_id]
        if children.size:
            assert node["size"] == children["size"].sum()
        if node["parent"] >= 0:
            assert node["level"] == nodes[node["parent"]]["level"] + 1
        else:
            assert node_id == 0 and node["level"] == 0
    # connectivity: at every level, each cluster is one 8-connected
    # flood-fill component
    for label_map in tree.levels:
        for node_id in np.unique(label_map):
            _, count = ndimage.label(label_map == node_id, structure=EIGHT)
            assert count == 1


def test_tree_invariants_on_random_rasters():
    rng = np.random.default_rng(19)
    cfg = ClusterConfig(max_depth=3, max_cluster=12, min_cluster=4)
    for _ in range(10):
        img = Raster(rng.integers(0, 256, size=(16, 16)).astype(float))
        tree = build_cluster_tree(img, cfg)
        _check_tree_invariants(tree, cfg, 256)


def test_tree_is_deterministic():
    rng = np.random.default_rng(23)
    img = Raster(rng.integers(0, 256, size=(20, 20)).astype(float))
    cfg = ClusterConfig(max_depth=3, max_cluster=15, min_cluster=4)
    t1 = build_cluster_tree(img, cfg)
    t2 = build_cluster_tree(img, cfg)
    assert len(t1.nodes) == len(t2.nodes)
    for name in ("level", "size", "parent", "mu", "delta"):
        assert np.array_equal(t1.nodes[name], t2.nodes[name])
    for m1, m2 in zip(t1.levels, t2.levels):
        assert np.array_equal(m1, m2)


def test_tree_maps_are_read_only_and_derived_once():
    """A tree is its node table and its leaf map: the level maps, a build's
    and a cut's alike, are derived from them once, and no map takes
    writes."""
    image = add_integral_noise(phantoms.bsd_style(24, 24, seed=3), 300.0, 5)
    tree = build_cluster_tree(image, ClusterConfig(max_depth=4, min_cluster=1))
    for t in (tree, tree.cut(ClusterConfig(max_depth=3, max_cluster=40))):
        assert t.levels is t.levels
        assert len(t.levels) == t.depth + 1
        assert np.array_equal(t.levels[-1], t.leaf_map)
        for label_map in (t.leaf_map, *t.levels):
            assert label_map.shape == image.data.shape
            with pytest.raises(ValueError, match="read-only"):
                label_map[0, 0] = -1


# ---------------------------------------------------------------------------
# deviation context of the kernel field


def _hand_tree(spec, parents=None):
    """A tree from (level, delta, size) rows, one per node id; a chain
    (each node the parent of the next) unless `parents` is given. Its
    config keeps the default ``min_cluster`` of 9, so a node of more than
    9 pixels is eligible. The leaf map is one pixel per leaf."""
    nodes = np.zeros(len(spec), dtype=NODE_DTYPE)
    for name, column in zip(("level", "delta", "size"), zip(*spec)):
        nodes[name] = column
    nodes["parent"] = np.arange(-1, len(spec) - 1) if parents is None else parents
    depth = int(nodes["level"].max())
    cfg = ClusterConfig(max_depth=depth)
    assert cfg.min_cluster == 9
    return ClusterTree(nodes=nodes, config=cfg,
                       leaf_map=np.flatnonzero(nodes["level"] == depth)[None, :])


def test_context_full_chain():
    tree = _hand_tree([(0, 40.0, 100), (1, 20.0, 60), (2, 10.0, 30),
                       (3, 5.0, 15)])
    # (own, parent, grandparent) = (5, 10, 20): psi = (10 / 20)^2
    assert by_leaf(build_kernel_field(tree)) == {3: (5.0, 0.25)}


def test_context_level_two_falls_back_to_pair():
    tree = _hand_tree([(0, 20.0, 100), (1, 10.0, 60), (2, 5.0, 30)])
    # (own, parent) = (5, 10): psi = (5 / 10)^2
    assert by_leaf(build_kernel_field(tree)) == {2: (5.0, 0.25)}


def test_context_ineligible_leaf_inherits_ancestor():
    tree = _hand_tree([(0, 40.0, 100), (1, 20.0, 60), (2, 10.0, 30),
                       (3, 5.0, 4)])
    # effective node is the level-2 ancestor, which itself falls back to
    # the pair (10, 20)
    assert by_leaf(build_kernel_field(tree)) == {3: (10.0, 0.25)}


def test_context_floors_deviations():
    tree = _hand_tree([(0, 20.0, 100), (1, 0.0, 60), (2, 0.0, 30)])
    # (own, parent) = (1, 1) after the floor
    assert by_leaf(build_kernel_field(tree)) == {2: (1.0, 1.0)}


def test_context_all_leaves_at_once():
    """Leaves whose chains take every branch of the rule, resolved in one
    kernel field: a full triple, an ineligible leaf deferring one and two
    levels up, and an all-ineligible chain that ends at the root."""
    # sizes of more than 9 pixels are eligible, 10 and 9 on either side of
    # the bound; each node's size is its children's sum
    spec = [(0, 64.0, 45),                              # 0
            (1, 32.0, 36), (1, 2.0, 9),                 # 1, 2
            (2, 16.0, 16), (2, 8.0, 20),                # 3, 4
            (2, 0.5, 9),                                # 5
            (3, 4.0, 10), (3, 6.0, 6),                  # 6, 7
            (3, 0.5, 14), (3, 3.0, 6),                  # 8, 9
            (3, 7.0, 9)]                                # 10
    tree = _hand_tree(spec, parents=[-1, 0, 0, 1, 1, 2, 3, 3, 4, 4, 5])
    assert by_leaf(build_kernel_field(tree)) == {
        6: (4.0, 0.25),     # (own, parent, grandparent) = (4, 16, 32)
        7: (16.0, 0.25),    # defers to 3 at level 2: (own, parent) = (16, 32)
        8: (1.0, 0.0625),   # floored own deviation; (1, 8, 32)
        9: (8.0, 0.0625),   # defers to 4 at level 2: (8, 32)
        10: (64.0, 1.0),    # 10 -> 5 -> 2 -> the root, which has no parent
    }
