"""Test-only oracles for the planner kernel.

:func:`evaluate_candidates_loop` is the loop-structured single-session
planner: Python loops over stall options and throughput scenarios around a
per-candidate buffer simulation.  :func:`repro.abr.planner.evaluate_candidates`
(the batch kernel on a one-session stack) is required to reproduce its
choices (``tests/test_engine.py::TestVectorizedEvaluator``).

:func:`evaluate_batch_legacy` is the pre-arena implementation of
:func:`repro.abr.planner.evaluate_candidates_batch`: the same elementwise
operation sequence, written with a fresh temporary per step instead of the
arena's precomputed tables and views into one shared scratch buffer.  The
production arena kernel is required to match it bit for bit
(``tests/test_kernel_arena.py``), and ``benchmarks/test_perf_kernel.py``
times the arena kernel against it.  It shares the helpers the arena kernel
still uses (prefix tree, switch constants, index memo), so a regression in
those shows up in both; the oracle guards the arena-specific rewrites.
"""

from __future__ import annotations

from typing import Optional, Sequence, Tuple

import numpy as np

from repro.abr.base import PlayerObservation
from repro.abr.planner import (
    BatchPlanEvaluation,
    PlanEvaluation,
    _arange,
    _per_session_or_scalar,
    _prefix_tree,
    _switch_constants,
)
from repro.qoe.ksqi import KSQIModel


def evaluate_candidates_loop(
    observation: PlayerObservation,
    candidates: np.ndarray,
    throughput_scenarios: Sequence[Tuple[float, float]],
    quality_model: KSQIModel,
    weights: Optional[np.ndarray] = None,
    stall_options_s: Sequence[float] = (0.0,),
    chunk_duration_s: Optional[float] = None,
) -> PlanEvaluation:
    """The loop-structured planner: Python loops over stalls and scenarios.

    Same arguments as :func:`repro.abr.planner.evaluate_candidates`.
    """
    horizon = candidates.shape[1]
    chunk_duration = (
        chunk_duration_s if chunk_duration_s is not None
        else observation.chunk_duration_s
    )
    if weights is None:
        weights = np.ones(horizon)
    weights = np.asarray(weights, dtype=float)[:horizon]
    sizes = observation.upcoming_sizes_bytes[:horizon]
    quality = observation.upcoming_quality[:horizon]
    bitrates = np.asarray(observation.ladder.bitrates_kbps, dtype=float)
    top_bitrate = bitrates[-1]
    coeffs = quality_model.coefficients
    num_candidates = candidates.shape[0]

    previous_bitrate = (
        bitrates[observation.last_level]
        if observation.last_level >= 0
        else bitrates[0]
    )

    best_score = -np.inf
    best_level = int(candidates[0, 0])
    best_stall = float(stall_options_s[0])
    best_rebuffer = 0.0

    candidate_sizes = np.take_along_axis(
        np.broadcast_to(sizes, (num_candidates, horizon, bitrates.size)),
        candidates[:, :, None],
        axis=2,
    )[:, :, 0]
    candidate_quality = np.take_along_axis(
        np.broadcast_to(quality, (num_candidates, horizon, bitrates.size)),
        candidates[:, :, None],
        axis=2,
    )[:, :, 0]
    candidate_bitrates = bitrates[candidates]
    previous_rates = np.concatenate(
        [np.full((num_candidates, 1), previous_bitrate), candidate_bitrates[:, :-1]],
        axis=1,
    )
    switch_terms = np.abs(candidate_bitrates - previous_rates) / top_bitrate

    for stall_s in stall_options_s:
        expected_scores = np.zeros(num_candidates)
        expected_rebuffer = np.zeros(num_candidates)
        for throughput_mbps, probability in throughput_scenarios:
            rate_bytes_per_s = max(throughput_mbps, 1e-3) * 1e6 / 8.0
            download_times = candidate_sizes / rate_bytes_per_s
            # Simulate buffer evolution for every candidate simultaneously.
            buffer_levels = np.full(
                num_candidates, observation.buffer_s + stall_s
            )
            rebuffer = np.zeros((num_candidates, horizon))
            for step in range(horizon):
                dt = download_times[:, step]
                shortfall = np.maximum(dt - buffer_levels, 0.0)
                rebuffer[:, step] = shortfall
                buffer_levels = np.maximum(buffer_levels - dt, 0.0) + chunk_duration
                buffer_levels = np.minimum(
                    buffer_levels, observation.buffer_capacity_s
                )
            chunk_scores = (
                coeffs.intercept
                + coeffs.quality_weight * candidate_quality / 100.0
                - coeffs.rebuffer_weight * rebuffer
                - coeffs.switch_weight * switch_terms
            )
            # The deliberately scheduled stall is charged to the next chunk,
            # weighted by that chunk's sensitivity.
            stall_penalty = coeffs.rebuffer_weight * stall_s * weights[0]
            plan_scores = chunk_scores @ weights - stall_penalty
            expected_scores += probability * plan_scores
            expected_rebuffer += probability * rebuffer.sum(axis=1)
        top_index = int(np.argmax(expected_scores))
        if float(expected_scores[top_index]) > best_score:
            best_score = float(expected_scores[top_index])
            best_level = int(candidates[top_index, 0])
            best_stall = float(stall_s)
            best_rebuffer = float(expected_rebuffer[top_index])

    return PlanEvaluation(
        best_level=best_level,
        best_stall_s=best_stall,
        best_score=best_score,
        expected_rebuffer_s=best_rebuffer,
        num_candidates=(
            num_candidates * len(stall_options_s) * len(throughput_scenarios)
        ),
    )


def evaluate_batch_legacy(
    candidates: np.ndarray,
    sizes: np.ndarray,
    quality: np.ndarray,
    weights: np.ndarray,
    buffer_s: np.ndarray,
    last_level: np.ndarray,
    scenario_tputs: np.ndarray,
    scenario_probs: np.ndarray,
    bitrates_kbps: np.ndarray,
    quality_model: KSQIModel,
    stall_options_s: Sequence[float],
    chunk_duration_s,
    buffer_capacity_s,
    candidate_mask: Optional[np.ndarray],
    need_expected_rebuffer: bool,
    weights_uniform: Optional[bool],
) -> BatchPlanEvaluation:
    """The pre-arena batch kernel (allocating temporaries per call).

    Same arguments, all required, as
    :func:`repro.abr.planner.evaluate_candidates_batch`; the result must
    match the arena kernel bit for bit.
    """
    num_sessions, horizon = weights.shape
    num_candidates = candidates.shape[0]
    bitrates = np.asarray(bitrates_kbps, dtype=float)
    top_bitrate = bitrates[-1]
    coeffs = quality_model.coefficients
    previous_bitrate = bitrates[np.maximum(last_level, 0)]  # (N,)

    step_index = _arange(horizon)
    candidate_quality = quality[:, step_index, candidates]  # (N, C, h)
    # Switch terms: only the first step depends on the session (previous
    # level); later steps are per-(candidates, ladder) constants shared by
    # every call over that pair, so they live as (C,)-sized rows broadcast
    # into the accumulation instead of a full (N, C, h) tensor.  Per
    # element the operation sequence (subtract, abs, divide) matches the
    # flat formulation exactly.
    first_bitrates, later_switch = _switch_constants(candidates, bitrates)
    first_switch = np.abs(
        first_bitrates[None, :] - previous_bitrate[:, None]
    )
    first_switch /= top_bitrate                             # (N, C)

    # The quality and switch terms do not depend on the stall or scenario:
    # fold them (and the per-chunk intercept) into one static score per
    # (session, candidate), leaving only the rebuffer term dynamic.  The
    # weight reductions are explicit loops over the horizon (see the
    # bit-identity contract above).
    # Weight-uniform batches (every planner without sensitivity weights)
    # skip the weight multiplies outright: ``x * 1.0 == x`` bit for bit, so
    # the accumulated sums are unchanged.
    uniform_weights = (
        bool(np.all(weights == 1.0))
        if weights_uniform is None else weights_uniform
    )
    weight_total = weights[:, 0].copy()                     # (N,)
    if uniform_weights:
        quality_dot = candidate_quality[:, :, 0].copy()
        switch_dot = first_switch
        for step in range(1, horizon):
            weight_total += weights[:, step]
            quality_dot += candidate_quality[:, :, step]
            switch_dot += later_switch[None, :, step - 1]
    else:
        quality_dot = candidate_quality[:, :, 0] * weights[:, 0, None]
        switch_dot = first_switch * weights[:, 0, None]
        step_product = np.empty_like(quality_dot)
        for step in range(1, horizon):
            weight_total += weights[:, step]
            np.multiply(
                candidate_quality[:, :, step], weights[:, step, None],
                out=step_product,
            )
            quality_dot += step_product
            np.multiply(
                later_switch[None, :, step - 1], weights[:, step, None],
                out=step_product,
            )
            switch_dot += step_product
    static_scores = (
        coeffs.intercept * weight_total[:, None]
        + (coeffs.quality_weight / 100.0) * quality_dot
        - coeffs.switch_weight * switch_dot
    )                                                       # (N, C)

    rates_bytes_per_s = np.maximum(scenario_tputs, 1e-3) * 1e6 / 8.0
    stalls = np.asarray(stall_options_s, dtype=float)
    num_stalls = stalls.size
    num_scenarios = scenario_tputs.shape[1]
    chunk_gain = _per_session_or_scalar(chunk_duration_s, num_sessions)
    capacity = _per_session_or_scalar(buffer_capacity_s, num_sessions)

    # Download times for every tree node at once, shared by every stall
    # option below; each step's slice is a view into the flat tensor.
    tree = _prefix_tree(candidates)
    flat_node_sizes = sizes[:, tree.flat_steps, tree.flat_levels]  # (N, ΣM)
    flat_download_times = (
        flat_node_sizes[:, None, :] / rates_bytes_per_s[:, :, None]
    )                                                       # (N, S, ΣM)
    offsets = tree.offsets
    node_download_times = [
        flat_download_times[:, :, offsets[step]:offsets[step + 1]]
        for step in range(horizon)
    ]                                                       # (N, S, M_k)

    # Selection state, mirroring the reference loop per session: stalls
    # considered in order, the first candidate index wins ties within a
    # stall, and a later stall must *strictly* beat the incumbent.  For the
    # dominant single-stall calls the first iteration's results are adopted
    # directly (every session improves on -inf), skipping the running
    # where-merges.
    session_index = _arange(num_sessions)
    best_score = None
    best_level = None
    best_stall = None
    best_candidate = None

    for stall_index in range(num_stalls):
        # The buffer/rebuffer recursion runs over the candidate *prefix
        # tree*: candidates sharing their first k levels share buffer
        # evolution, so each unique prefix is evolved once and fanned out
        # to its children by a gather.  Per leaf, the adds happen in the
        # same step order with the same operand values as a flat
        # per-candidate recursion, so the result is bit-identical — just
        # without recomputing shared prefixes.
        start_levels = buffer_s + stalls[stall_index]       # (N,)
        state = None  # (2, N, S, M): plane 0 buffers, plane 1 rebuffer
        for step, (node_levels, node_parents) in enumerate(tree.steps):
            dt = node_download_times[step]                  # (N, S, M)
            if step == 0:
                num_nodes = node_levels.size
                state = np.zeros(
                    (2, num_sessions, num_scenarios, num_nodes)
                )
                state[0] = start_levels[:, None, None]
            else:
                # One gather fans both planes out to this step's nodes; it
                # produces a fresh array, so the updates run in place.
                state = state[:, :, :, node_parents]
            parent_buffers = state[0]
            parent_weighted = state[1]
            shortfall = dt - parent_buffers
            np.maximum(shortfall, 0.0, out=shortfall)
            if uniform_weights:
                parent_weighted += shortfall
            else:
                parent_weighted += shortfall * weights[:, step, None, None]
            if step < horizon - 1:
                # The final step's buffer update feeds nothing: skip it (it
                # is also the widest level of the tree).
                np.subtract(parent_buffers, dt, out=parent_buffers)
                np.maximum(parent_buffers, 0.0, out=parent_buffers)
                parent_buffers += chunk_gain
                np.minimum(parent_buffers, capacity, out=parent_buffers)
        weighted_rebuffer = state[1]

        # plan_scores = static - rebuffer_weight * rebuffer - penalty,
        # built in place over the weighted-rebuffer buffer.  The expectation
        # must run over the *scores* (not distribute over the scenario sum):
        # a proactive stall's penalty can offset its rebuffer reduction
        # EXACTLY, and the reference loop resolves such ties towards the
        # earlier stall option — reassociating the algebra would break the
        # tie by one ulp and flip the decision.
        plan_scores = weighted_rebuffer                     # (N, S, C)
        np.multiply(plan_scores, coeffs.rebuffer_weight, out=plan_scores)
        np.subtract(static_scores[:, None, :], plan_scores, out=plan_scores)
        if stalls[stall_index] != 0.0:
            # ``x - 0.0 == x`` bitwise for every finite x (and -0.0), so
            # the zero-stall penalty subtraction is a bit-exact no-op and
            # is skipped on the dominant no-stall calls.
            stall_penalty = (
                coeffs.rebuffer_weight * stalls[stall_index] * weights[:, 0]
            )                                               # (N,)
            np.subtract(
                plan_scores, stall_penalty[:, None, None], out=plan_scores
            )
        expected_scores = scenario_probs[:, 0, None] * plan_scores[:, 0, :]
        partial = np.empty_like(expected_scores)            # (N, C)
        for scenario in range(1, num_scenarios):
            np.multiply(
                scenario_probs[:, scenario, None],
                plan_scores[:, scenario, :],
                out=partial,
            )
            expected_scores += partial

        if candidate_mask is not None:
            # Masked-out candidates never win the (first-maximum)
            # selection, so each session's choice over its own subtree is
            # reproduced exactly.
            expected_scores = np.where(
                candidate_mask, expected_scores, -np.inf
            )

        top = np.argmax(expected_scores, axis=1)
        score = expected_scores[session_index, top]
        if best_score is None:
            # First stall option: adopted outright, exactly as the running
            # merge below would against the -inf initial incumbent.
            best_score = score
            best_level = candidates[top, 0]
            best_stall = np.full(num_sessions, float(stalls[stall_index]))
            best_candidate = top
            continue
        better = score > best_score
        best_score = np.where(better, score, best_score)
        best_level = np.where(better, candidates[top, 0], best_level)
        best_stall = np.where(better, stalls[stall_index], best_stall)
        best_candidate = np.where(better, top, best_candidate)

    if need_expected_rebuffer:
        # The caller only ever reads the rebuffer expectation of the
        # *chosen* plan, so it is recomputed here along each session's
        # single winning path instead of being tracked for every candidate
        # through the main recursion.  Same download times, same buffer
        # recursion, same accumulation order — bit-identical values at a
        # tiny fraction of the traffic.
        path_levels = candidates[best_candidate]            # (N, h)
        path_sizes = sizes[
            session_index[:, None], step_index[None, :], path_levels
        ]                                                   # (N, h)
        path_dt = path_sizes[:, None, :] / rates_bytes_per_s[:, :, None]
        path_gain = (
            chunk_gain if isinstance(chunk_gain, float) else chunk_gain[:, :, 0]
        )
        path_capacity = (
            capacity if isinstance(capacity, float) else capacity[:, :, 0]
        )
        path_buffer = np.empty((num_sessions, num_scenarios))
        path_buffer[:] = (buffer_s + best_stall)[:, None]
        path_total = np.zeros_like(path_buffer)
        for step in range(horizon):
            dt = path_dt[:, :, step]
            shortfall = dt - path_buffer
            np.maximum(shortfall, 0.0, out=shortfall)
            path_total += shortfall
            if step < horizon - 1:
                np.subtract(path_buffer, dt, out=path_buffer)
                np.maximum(path_buffer, 0.0, out=path_buffer)
                path_buffer += path_gain
                np.minimum(path_buffer, path_capacity, out=path_buffer)
        best_rebuffer = scenario_probs[:, 0] * path_total[:, 0]
        for scenario in range(1, num_scenarios):
            best_rebuffer = (
                best_rebuffer
                + scenario_probs[:, scenario] * path_total[:, scenario]
            )
    else:
        best_rebuffer = np.zeros(num_sessions)

    return BatchPlanEvaluation(
        best_level=best_level,
        best_stall_s=best_stall,
        best_score=best_score,
        expected_rebuffer_s=best_rebuffer,
        num_candidates=num_candidates * num_stalls * num_scenarios,
    )
