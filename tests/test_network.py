"""Tests for throughput traces, generators and the trace bank."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.network.bank import TraceBank
from repro.network.synthetic import (
    FCCLikeGenerator,
    HSDPALikeGenerator,
    MarkovTraceGenerator,
    RandomWalkTraceGenerator,
)
from repro.network.trace import _MIN_BANDWIDTH_MBPS, ThroughputTrace


def download_time_walk(
    trace: ThroughputTrace, size_bytes: float, start_time_s: float
) -> float:
    """Oracle for :meth:`ThroughputTrace.download_time_s`: walk the trace
    segment by segment until the bytes are delivered.

    Known artifact, kept on purpose: the walk's rate selection (no epsilon)
    and boundary stepping (``1e-12`` epsilon) disagree at knife-edge wraps.
    When float rounding leaves a wrapped time infinitesimally below a
    segment boundary — which happens systematically on traces whose
    timestamp spacing is not float-exact — the walk charges the entire
    following segment at the *previous* segment's rate.  That skip is also
    what guarantees the walk's forward progress.  On integer-spaced traces
    every boundary is float-exact and the walk agrees with the indexed
    integral to ~1e-13 relative.
    """
    timestamps = trace.timestamps_s
    if timestamps.size == 1:
        duration = 1.0
    else:
        duration = float(timestamps[-1]) + float(np.median(np.diff(timestamps)))
    remaining_bits = size_bytes * 8.0
    now = float(start_time_s)
    elapsed = 0.0
    for _ in range(10_000_000):
        wrapped = now % duration
        index = max(0, int(np.searchsorted(timestamps, wrapped, side="right") - 1))
        bandwidth_mbps = max(
            float(trace.bandwidths_mbps[index]), _MIN_BANDWIDTH_MBPS
        )
        rate_bits_per_s = bandwidth_mbps * 1e6
        later = timestamps[timestamps > wrapped + 1e-12]
        boundary = now - wrapped + (float(later[0]) if later.size else duration)
        window = boundary - now
        deliverable = rate_bits_per_s * window
        if deliverable >= remaining_bits:
            return elapsed + remaining_bits / rate_bits_per_s
        remaining_bits -= deliverable
        elapsed += window
        now = boundary
    raise RuntimeError("download_time_walk did not converge")


class TestThroughputTrace:
    def test_constant_trace_properties(self, constant_trace):
        assert constant_trace.mean_mbps == pytest.approx(2.0)
        assert constant_trace.std_mbps == pytest.approx(0.0)
        assert constant_trace.bandwidth_at(123.4) == 2.0

    def test_wraps_around(self, constant_trace):
        assert constant_trace.bandwidth_at(10 * constant_trace.duration_s + 1) == 2.0

    def test_download_time_constant_rate(self, constant_trace):
        # 1 MB at 2 Mbps = 4 seconds
        assert constant_trace.download_time_s(1_000_000, 0.0) == pytest.approx(4.0)

    def test_download_time_spans_rate_change(self):
        trace = ThroughputTrace.from_samples([(0.0, 1.0), (4.0, 4.0)], name="step")
        # 1 Mbit in the first second, then remaining 3 Mbit... 8 Mbit total:
        # 4 s at 1 Mbps = 4 Mbit, then 1 s at 4 Mbps = 4 Mbit -> 5 s.
        assert trace.download_time_s(1_000_000, 0.0) == pytest.approx(5.0)

    def test_download_time_requires_positive_size(self, constant_trace):
        with pytest.raises(ValueError):
            constant_trace.download_time_s(0.0, 0.0)

    def test_trace_arrays_frozen_against_desync(self, constant_trace):
        """In-place mutation would desync the cached download-time index."""
        with pytest.raises(ValueError):
            constant_trace.bandwidths_mbps[0] = 99.0
        with pytest.raises(ValueError):
            constant_trace.timestamps_s[0] = 1.0

    def test_pickle_drops_index_and_refreezes(self, constant_trace):
        """Work-order pickles ship only the declared fields; the clone
        re-derives its index and its arrays come back read-only."""
        import pickle

        payload = pickle.dumps(constant_trace)
        assert b"_cum_capacity_bits" not in payload
        clone = pickle.loads(payload)
        assert clone.download_time_s(1_000_000, 0.0) == pytest.approx(
            constant_trace.download_time_s(1_000_000, 0.0)
        )
        with pytest.raises(ValueError):
            clone.bandwidths_mbps[0] = 99.0

    def test_fast_integrator_matches_reference_walk(self):
        """The indexed download-time fast path must agree with the
        segment-by-segment walk oracle away from the walk's knife-edge
        boundary epsilon (see the characterization test below)."""
        from repro.network.bank import TraceBank

        rng = np.random.default_rng(3)
        traces = TraceBank(num_traces=3, duration_s=300.0, seed=23).traces()
        traces.append(ThroughputTrace.from_samples([(0.0, 0.5)], name="single"))
        for trace in traces:
            for _ in range(60):
                size = float(rng.uniform(5e3, 8e6))
                start = float(rng.uniform(0.0, 4.0 * trace.duration_s))
                fast = trace.download_time_s(size, start)
                reference = download_time_walk(trace, size, start)
                assert fast == pytest.approx(reference, rel=1e-9, abs=1e-9)

    def test_fast_integrator_is_exact_at_reference_knife_edge(self):
        """Characterization: at knife-edge wraps the walk oracle's 1e-12
        boundary epsilon charges a window at the previous segment's rate;
        the indexed fast path returns the exact piecewise integral."""
        from fractions import Fraction as F

        trace = ThroughputTrace(
            timestamps_s=np.array([0.0, 0.5, 0.6, 10.0]),
            bandwidths_mbps=np.array([5.0, 0.01, 20.0, 0.5]),
            name="uneven",
        )
        size_bytes, start = 33041341.75, 88.338
        # Exact integral in rational arithmetic (duration = 10 + median
        # spacing 0.5; per-segment capacities summed cycle by cycle).
        ts = [F(0), F(1, 2), F(3, 5), F(10)]
        duration = F(21, 2)
        rates = [F(5) * 10**6, F(1, 100) * 10**6, F(20) * 10**6, F(1, 2) * 10**6]
        ends = ts[1:] + [duration]
        caps = [r * (e - s) for r, s, e in zip(rates, ts, ends)]
        wrapped = F(88338, 1000) % duration
        seg = max(i for i in range(4) if ts[i] <= wrapped)
        bits_before = sum(caps[:seg]) + rates[seg] * (wrapped - ts[seg])
        target = bits_before + F(3304134175, 100) * 8
        full_cycles, within = divmod(target, sum(caps))
        cum = F(0)
        for j in range(4):
            if cum + caps[j] >= within:
                end_time = ts[j] + (within - cum) / rates[j]
                break
            cum += caps[j]
        exact = float(full_cycles * duration + end_time - wrapped)

        fast = trace.download_time_s(size_bytes, start)
        reference = download_time_walk(trace, size_bytes, start)
        assert fast == pytest.approx(exact, rel=1e-9)
        # The walk overshoots by an order of magnitude here — kept as
        # documentation of the divergence, not as desired behaviour.
        assert reference > 10 * fast

    def test_scaled(self, constant_trace):
        assert constant_trace.scaled(0.5).mean_mbps == pytest.approx(1.0)

    def test_scaled_rejects_nonpositive(self, constant_trace):
        with pytest.raises(ValueError):
            constant_trace.scaled(0.0)

    def test_with_added_noise_keeps_positive(self, constant_trace):
        noisy = constant_trace.with_added_noise(5.0, seed=1)
        assert np.all(noisy.bandwidths_mbps > 0)
        assert noisy.std_mbps > constant_trace.std_mbps

    def test_noise_zero_is_identity(self, constant_trace):
        same = constant_trace.with_added_noise(0.0, seed=1)
        assert np.allclose(same.bandwidths_mbps, constant_trace.bandwidths_mbps)

    def test_clipped_to_range(self):
        trace = ThroughputTrace.from_samples([(0, 0.1), (1, 10.0)])
        clipped = trace.clipped_to_range(0.2, 6.0)
        assert clipped.bandwidths_mbps.min() >= 0.2
        assert clipped.bandwidths_mbps.max() <= 6.0

    def test_truncated(self, constant_trace):
        short = constant_trace.truncated(10.0)
        assert short.timestamps_s.max() < 10.0

    def test_serialization_roundtrip(self, tmp_path, constant_trace):
        path = tmp_path / "trace.json"
        constant_trace.save(path)
        loaded = ThroughputTrace.load(path)
        assert loaded.name == constant_trace.name
        assert np.allclose(loaded.bandwidths_mbps, constant_trace.bandwidths_mbps)

    def test_rejects_negative_bandwidth(self):
        with pytest.raises(ValueError):
            ThroughputTrace.from_samples([(0.0, -1.0)])

    def test_rejects_nonzero_start(self):
        with pytest.raises(ValueError):
            ThroughputTrace.from_samples([(1.0, 1.0)])

    @given(st.floats(0.3, 5.0), st.floats(10_000, 5_000_000))
    @settings(max_examples=20, deadline=None)
    def test_download_time_matches_rate_formula(self, rate, size):
        trace = ThroughputTrace.constant(rate, duration_s=10_000.0)
        expected = size * 8 / (rate * 1e6)
        assert trace.download_time_s(size, 0.0) == pytest.approx(expected, rel=1e-6)


class TestGenerators:
    @pytest.mark.parametrize("generator_cls", [
        MarkovTraceGenerator, HSDPALikeGenerator, FCCLikeGenerator,
        RandomWalkTraceGenerator,
    ])
    def test_generates_valid_trace(self, generator_cls):
        trace = generator_cls(seed=3).generate("t", duration_s=300.0)
        assert trace.duration_s >= 299.0
        assert np.all(trace.bandwidths_mbps > 0)

    def test_generation_is_deterministic(self):
        a = HSDPALikeGenerator(seed=3).generate("t", 200.0)
        b = HSDPALikeGenerator(seed=3).generate("t", 200.0)
        assert np.allclose(a.bandwidths_mbps, b.bandwidths_mbps)

    def test_different_names_differ(self):
        a = HSDPALikeGenerator(seed=3).generate("t1", 200.0)
        b = HSDPALikeGenerator(seed=3).generate("t2", 200.0)
        assert not np.allclose(a.bandwidths_mbps, b.bandwidths_mbps)

    def test_fcc_is_faster_than_hsdpa_on_average(self):
        fcc = FCCLikeGenerator(seed=3).generate_many(5, 600.0)
        hsdpa = HSDPALikeGenerator(seed=3).generate_many(5, 600.0)
        assert np.mean([t.mean_mbps for t in fcc]) > np.mean(
            [t.mean_mbps for t in hsdpa]
        )

    def test_bandwidth_range_matches_paper(self):
        traces = HSDPALikeGenerator(seed=3).generate_many(4, 600.0) + \
            FCCLikeGenerator(seed=3).generate_many(4, 600.0)
        for trace in traces:
            assert 0.2 <= trace.mean_mbps <= 6.0

    def test_generate_many_count(self):
        traces = FCCLikeGenerator(seed=1).generate_many(3, 100.0, prefix="x")
        assert [t.name for t in traces] == ["x-00", "x-01", "x-02"]


class TestTraceBank:
    def test_bank_size(self):
        bank = TraceBank(num_traces=6, duration_s=300.0)
        assert len(bank.traces()) == 6

    def test_bank_sorted_by_throughput(self):
        bank = TraceBank(num_traces=8, duration_s=300.0)
        means = bank.mean_throughputs_mbps()
        assert means == sorted(means)

    def test_bank_is_cached(self):
        bank = TraceBank(num_traces=4, duration_s=300.0)
        assert bank.traces()[0].name == bank.traces()[0].name

    def test_trace_index_bounds(self):
        bank = TraceBank(num_traces=3, duration_s=300.0)
        with pytest.raises(ValueError):
            bank.trace(3)

    def test_names_unique(self):
        bank = TraceBank(num_traces=10, duration_s=300.0)
        names = bank.names()
        assert len(set(names)) == len(names)
