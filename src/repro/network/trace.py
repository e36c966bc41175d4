"""Throughput traces: piecewise-constant bandwidth over time.

A trace is a sequence of (timestamp, bandwidth) samples.  Bandwidth is held
constant between consecutive timestamps and the trace wraps around when a
streaming session outlives it (standard practice in trace-driven ABR
evaluation, e.g. Pensieve's simulator).
"""

from __future__ import annotations

import json
from bisect import bisect_right
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import List, Optional, Sequence, Tuple, Union

import numpy as np

from repro.utils.rand import rng_from_seed
from repro.utils.validation import require, require_positive

_MIN_BANDWIDTH_MBPS = 0.01  # floor to keep download times finite


@dataclass(frozen=True)
class ThroughputTrace:
    """A piecewise-constant throughput trace.

    Attributes
    ----------
    timestamps_s:
        Strictly increasing sample times in seconds, starting at 0.
    bandwidths_mbps:
        Bandwidth in Mbps for the interval starting at each timestamp.
    name:
        Identifier used in reports (e.g. ``"hsdpa-03"``).
    """

    timestamps_s: np.ndarray
    bandwidths_mbps: np.ndarray
    name: str = "trace"

    def __post_init__(self) -> None:
        # Own copies, frozen: the download-time index below is derived from
        # these arrays at construction, so in-place mutation would silently
        # desync bandwidth_at() from download_time_s().  Transformations go
        # through scaled()/with_added_noise()/..., which build new traces.
        ts = np.array(self.timestamps_s, dtype=float)
        bw = np.array(self.bandwidths_mbps, dtype=float)
        ts.setflags(write=False)
        bw.setflags(write=False)
        object.__setattr__(self, "timestamps_s", ts)
        object.__setattr__(self, "bandwidths_mbps", bw)
        require(ts.ndim == 1 and bw.ndim == 1, "trace arrays must be 1-D")
        require(ts.size == bw.size, "timestamps and bandwidths must align")
        require(ts.size >= 1, "trace must have at least one sample")
        require(abs(float(ts[0])) < 1e-9, "trace must start at t=0")
        require(bool(np.all(np.diff(ts) > 0)), "timestamps must be increasing")
        require(bool(np.all(bw > 0)), "bandwidths must be positive")
        # Duration and the download-time integrator index are immutable
        # consequences of the sample arrays; computing them once here keeps
        # the per-download hot path free of repeated median/cumsum work.
        if ts.size == 1:
            duration = 1.0
        else:
            spacing = float(np.median(np.diff(ts)))
            duration = float(ts[-1]) + spacing
        object.__setattr__(self, "_duration_s", duration)
        segment_ends = np.append(ts[1:], duration)
        rates_bits = np.maximum(bw, _MIN_BANDWIDTH_MBPS) * 1e6
        capacity_bits = rates_bits * (segment_ends - ts)
        cum_capacity = np.cumsum(capacity_bits)
        segment_ends.setflags(write=False)
        rates_bits.setflags(write=False)
        cum_capacity.setflags(write=False)
        object.__setattr__(self, "_segment_ends", segment_ends)
        object.__setattr__(self, "_segment_rates_bits", rates_bits)
        object.__setattr__(self, "_cum_capacity_bits", cum_capacity)
        # Plain-float mirrors of the index arrays: ``download_time_s`` is
        # called once per chunk of every session of a grid sweep, and
        # ``bisect`` over a list plus native float arithmetic is several
        # times cheaper than numpy scalar indexing at these sizes.  Values
        # are identical (``tolist`` round-trips the exact doubles), so the
        # integral is unchanged.
        object.__setattr__(self, "_ts_list", ts.tolist())
        object.__setattr__(self, "_rates_list", rates_bits.tolist())
        object.__setattr__(self, "_cum_list", cum_capacity.tolist())

    def __getstate__(self) -> dict:
        """Pickle only the declared fields.

        The derived integrator index (underscore attributes) roughly
        doubles the payload and is cheap to re-derive, so process-pool
        work orders ship without it.
        """
        from repro.utils.pickling import public_state

        return public_state(self)

    def __setstate__(self, state: dict) -> None:
        for key, value in state.items():
            object.__setattr__(self, key, value)
        # Re-derive the index and re-freeze the arrays (numpy pickling drops
        # the write=False flag).
        self.__post_init__()

    # --------------------------------------------------------------- basics

    @property
    def duration_s(self) -> float:
        """Nominal duration: last timestamp plus the median sample spacing."""
        return self._duration_s

    @property
    def mean_mbps(self) -> float:
        """Mean bandwidth in Mbps."""
        return float(np.mean(self.bandwidths_mbps))

    @property
    def std_mbps(self) -> float:
        """Standard deviation of bandwidth in Mbps."""
        return float(np.std(self.bandwidths_mbps))

    @property
    def std_kbps(self) -> float:
        """Standard deviation of bandwidth in kbps (Figure 17's x-axis)."""
        return self.std_mbps * 1000.0

    def bandwidth_at(self, time_s: float) -> float:
        """Bandwidth (Mbps) at an absolute time; the trace wraps around."""
        require(time_s >= 0, "time must be >= 0")
        wrapped = float(time_s) % self.duration_s
        index = int(np.searchsorted(self.timestamps_s, wrapped, side="right") - 1)
        index = max(0, index)
        return float(self.bandwidths_mbps[index])

    # --------------------------------------------------------- download model

    def download_time_s(self, size_bytes: float, start_time_s: float) -> float:
        """Seconds needed to download ``size_bytes`` starting at ``start_time_s``.

        Integrates the piecewise-constant bandwidth (with wrap-around) until
        the requested number of bytes has been delivered.  Uses the cumulative
        per-cycle capacity index built at construction, so each call costs two
        binary searches instead of a walk over the trace segments.

        This is the exact piecewise integral, with no boundary epsilon.
        A segment-by-segment walk (the test oracle in
        ``tests/test_network.py``) agrees with it to floating-point
        tolerance on integer-spaced traces, but misattributes a segment's
        rate at knife-edge boundary wraps on traces whose timestamp spacing
        is not float-exact
        (``test_fast_integrator_is_exact_at_reference_knife_edge``).
        """
        require_positive(size_bytes, "size_bytes")
        require(start_time_s >= 0, "start_time_s must be >= 0")
        ts = self._ts_list
        cum = self._cum_list
        rates = self._rates_list
        duration = self._duration_s
        num_segments = len(ts)
        cycle_bits = cum[-1]

        wrapped = float(start_time_s) % duration
        start_seg = max(bisect_right(ts, wrapped) - 1, 0)
        seg_end = ts[start_seg + 1] if start_seg + 1 < num_segments else duration
        # Bits deliverable from the cycle start up to the wrapped start time.
        bits_before = cum[start_seg] - rates[start_seg] * (seg_end - wrapped)
        target_bits = bits_before + size_bytes * 8.0

        full_cycles, within_cycle = divmod(target_bits, cycle_bits)
        end_seg = bisect_right(cum, within_cycle)
        if end_seg >= num_segments:  # within_cycle landed on cum[-1] by rounding
            end_seg = num_segments - 1
        bits_into_seg = within_cycle - (cum[end_seg - 1] if end_seg else 0.0)
        end_time = ts[end_seg] + bits_into_seg / rates[end_seg]
        return full_cycles * duration + end_time - wrapped

    def download_times_batch(
        self, sizes_bytes: np.ndarray, start_times_s: np.ndarray
    ) -> np.ndarray:
        """Vectorised :meth:`download_time_s` over aligned size/start arrays.

        One fused evaluation of the indexed integral for a whole batch of
        downloads — the lockstep engine calls this once per chunk step per
        trace instead of once per session.

        Bit-identity contract: every operation is the elementwise numpy
        counterpart of the scalar path's arithmetic on the *same* float64
        values — ``np.mod``/``np.divmod`` implement CPython's float
        ``%``/``divmod`` semantics exactly (both reduce to ``fmod`` plus the
        identical sign/rounding corrections), ``np.searchsorted(side="right")``
        is ``bisect_right``, and +, -, *, / are IEEE-754 regardless of batch
        shape — so each entry of the result is bitwise equal to calling
        :meth:`download_time_s` with that entry's arguments alone.  Enforced
        by the hypothesis suite (``tests/test_properties.py``) and the
        lockstep golden masters.
        """
        sizes = np.asarray(sizes_bytes, dtype=float)
        starts = np.asarray(start_times_s, dtype=float)
        require(sizes.shape == starts.shape, "sizes and starts must align")
        require(bool(np.all(sizes > 0)), "size_bytes must be positive")
        require(bool(np.all(starts >= 0)), "start_time_s must be >= 0")
        return self._download_times_batch_unchecked(sizes, starts)

    def _download_times_batch_unchecked(
        self, sizes: np.ndarray, starts: np.ndarray
    ) -> np.ndarray:
        """:meth:`download_times_batch` without input validation.

        The lockstep stepping calls this once per chunk step per trace with
        arguments it constructs itself (chunk sizes are positive by video
        construction, wall clocks are monotone from 0), so the per-call
        validation would be pure overhead on the hottest loop in the
        engine.  Everything else about the public method's bit-identity
        contract applies unchanged.
        """
        ts = self.timestamps_s
        cum = self._cum_capacity_bits
        rates = self._segment_rates_bits
        seg_ends = self._segment_ends
        duration = self._duration_s
        num_segments = ts.size
        cycle_bits = cum[-1]

        wrapped = np.mod(starts, duration)
        start_seg = np.maximum(
            np.searchsorted(ts, wrapped, side="right") - 1, 0
        )
        # Bits deliverable from the cycle start up to the wrapped start time.
        bits_before = cum[start_seg] - rates[start_seg] * (
            seg_ends[start_seg] - wrapped
        )
        target_bits = bits_before + sizes * 8.0
        full_cycles, within_cycle = np.divmod(target_bits, cycle_bits)
        end_seg = np.searchsorted(cum, within_cycle, side="right")
        # within_cycle can land on cum[-1] by rounding, exactly like the
        # scalar path's clamp.
        end_seg = np.minimum(end_seg, num_segments - 1)
        prev_cum = np.where(end_seg > 0, cum[np.maximum(end_seg - 1, 0)], 0.0)
        bits_into_seg = within_cycle - prev_cum
        end_time = ts[end_seg] + bits_into_seg / rates[end_seg]
        return full_cycles * duration + end_time - wrapped

    # ---------------------------------------------------------- transformations

    def scaled(self, ratio: float, name: Optional[str] = None) -> "ThroughputTrace":
        """Trace with every bandwidth multiplied by ``ratio`` (Figures 6, 12b)."""
        require_positive(ratio, "ratio")
        return replace(
            self,
            bandwidths_mbps=self.bandwidths_mbps * ratio,
            name=name or f"{self.name}*{ratio:g}",
        )

    def with_added_noise(
        self, sigma_mbps: float, seed: Optional[int] = None, name: Optional[str] = None
    ) -> "ThroughputTrace":
        """Trace with zero-mean Gaussian noise added to every sample (Fig. 17)."""
        require(sigma_mbps >= 0, "sigma must be >= 0")
        rng = rng_from_seed(seed)
        noisy = self.bandwidths_mbps + sigma_mbps * rng.standard_normal(
            self.bandwidths_mbps.size
        )
        noisy = np.maximum(noisy, _MIN_BANDWIDTH_MBPS)
        return replace(
            self,
            bandwidths_mbps=noisy,
            name=name or f"{self.name}+noise{sigma_mbps:g}",
        )

    def clipped_to_range(
        self, low_mbps: float, high_mbps: float
    ) -> "ThroughputTrace":
        """Trace with bandwidths clipped into [low, high] Mbps."""
        require(0 < low_mbps < high_mbps, "need 0 < low < high")
        return replace(
            self,
            bandwidths_mbps=np.clip(self.bandwidths_mbps, low_mbps, high_mbps),
        )

    def truncated(self, duration_s: float) -> "ThroughputTrace":
        """Trace truncated to the first ``duration_s`` seconds."""
        require_positive(duration_s, "duration_s")
        mask = self.timestamps_s < duration_s
        require(bool(np.any(mask)), "truncation removes every sample")
        return replace(
            self,
            timestamps_s=self.timestamps_s[mask],
            bandwidths_mbps=self.bandwidths_mbps[mask],
        )

    # -------------------------------------------------------------- persistence

    def to_dict(self) -> dict:
        """JSON-serialisable representation."""
        return {
            "name": self.name,
            "timestamps_s": self.timestamps_s.tolist(),
            "bandwidths_mbps": self.bandwidths_mbps.tolist(),
        }

    @classmethod
    def from_dict(cls, payload: dict) -> "ThroughputTrace":
        """Inverse of :meth:`to_dict`."""
        return cls(
            timestamps_s=np.asarray(payload["timestamps_s"], dtype=float),
            bandwidths_mbps=np.asarray(payload["bandwidths_mbps"], dtype=float),
            name=str(payload.get("name", "trace")),
        )

    def save(self, path: Union[str, Path]) -> None:
        """Save the trace as JSON."""
        Path(path).write_text(json.dumps(self.to_dict()))

    @classmethod
    def load(cls, path: Union[str, Path]) -> "ThroughputTrace":
        """Load a trace saved with :meth:`save`."""
        return cls.from_dict(json.loads(Path(path).read_text()))

    # ------------------------------------------------------------- constructors

    @classmethod
    def constant(
        cls, bandwidth_mbps: float, duration_s: float = 600.0, step_s: float = 1.0,
        name: str = "constant",
    ) -> "ThroughputTrace":
        """A constant-bandwidth trace (useful for tests and sanity checks)."""
        require_positive(bandwidth_mbps, "bandwidth_mbps")
        require_positive(duration_s, "duration_s")
        timestamps = np.arange(0.0, duration_s, step_s)
        return cls(
            timestamps_s=timestamps,
            bandwidths_mbps=np.full(timestamps.size, float(bandwidth_mbps)),
            name=name,
        )

    @classmethod
    def from_samples(
        cls,
        samples: Sequence[Tuple[float, float]],
        name: str = "trace",
    ) -> "ThroughputTrace":
        """Build a trace from (timestamp, bandwidth) pairs."""
        require(len(samples) >= 1, "need at least one sample")
        ts = np.array([s[0] for s in samples], dtype=float)
        bw = np.array([s[1] for s in samples], dtype=float)
        return cls(timestamps_s=ts, bandwidths_mbps=bw, name=name)
