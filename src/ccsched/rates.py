"""Finite-SNR evaluation of a schedule under nullspace zero-forcing.

Per column, every scheduled stream gets an equal share of the transmit
power; each user applies its combiner followed by the zero-forcing inverse
of its own effective matrix.  The column rate is the bottleneck stream's
log2(1 + SINR), the per-column time is 1/(Theta * R(i)), and the symmetric
rate divides the user count by the total delivery time.

Absolute values are in normalized rate units (log2(1+SINR) per channel use
with the file normalization folded into Theta); only orderings and
high-SNR slopes are meaningful quantities here.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ParameterError, VerificationError
from .model import ScheduleColumn, ScheduleTable
from .verifier import (
    TRIAL_BLOCK,
    BeamformerSolution,
    ChannelRealization,
    build_beamformers,
    decodability_check,
    effective_matrix,
)


def stream_coefficients(
    column: ScheduleColumn,
    channels: ChannelRealization,
    solution: BeamformerSolution,
) -> dict[tuple, tuple[float, float]]:
    """Power-independent SINR coefficients per (group, instance, member user).

    With per-stream power p, the stream's SINR is p / (N0*c + p*l): c is the
    squared norm of the zero-forcing row (noise amplification) and l the
    residual cross-group leakage power gain (machine-precision small for
    nullspace beamformers, but carried exactly).  On a batch of draws c and
    l are arrays over the trials.
    """
    if not solution.streams:
        raise ParameterError("column has no scheduled streams")
    coeffs: dict[tuple, tuple[float, float]] = {}
    for k in channels.users:
        if solution.beta[k] == 0:
            continue
        eff, cross = effective_matrix(solution, channels, k)
        try:
            inv = np.linalg.inv(eff)
        except np.linalg.LinAlgError as exc:
            raise VerificationError(f"singular effective matrix at user {k}") from exc
        # rows first, so that row i is a scalar for one draw and a trial array for a batch
        noise_gain = np.sum(np.abs(inv) ** 2, axis=-1).T
        leak_gain = np.sum(np.abs(inv @ cross) ** 2, axis=-1).T
        for row, (g, inst) in enumerate(s for s in solution.streams if k in s[0]):
            coeffs[(g, inst, k)] = (noise_gain[row], leak_gain[row])
    return coeffs


def sinrs_from_coefficients(
    coeffs: dict[tuple, tuple[float, float]],
    n_streams: int,
    power_total: float,
    N0: float,
) -> dict[tuple, float]:
    if power_total < 0:
        raise ParameterError("power_total must be non-negative")
    if power_total == 0:
        return {key: 0.0 for key in coeffs}
    p = power_total / n_streams
    return {key: p / (N0 * c + p * l) for key, (c, l) in coeffs.items()}


def stream_sinrs(
    column: ScheduleColumn,
    channels: ChannelRealization,
    solution: BeamformerSolution,
    power_total: float,
    N0: float,
) -> dict[tuple, float]:
    """SINR of every (group, instance, member user) stream at total power."""
    coeffs = stream_coefficients(column, channels, solution)
    return sinrs_from_coefficients(coeffs, len(solution.streams), power_total, N0)


def column_rate(sinrs: dict[tuple, float]) -> float:
    """Common rate every scheduled stream can sustain: the bottleneck one."""
    if not sinrs:
        raise ParameterError("empty SINR map")
    return math.log2(1.0 + min(sinrs.values()))


@dataclass(frozen=True)
class RatePoint:
    """Aggregated rate statistics of one SNR grid point."""

    snr_db: float
    per_column_rate: tuple[float, ...]
    symmetric_rate: float
    std_rsym: float
    trials: int
    seed: int


def symmetric_rate_from_columns(rates, theta: int, n_users: int) -> float:
    """K / total time, with per-column time 1/(Theta * R(i))."""
    rates = list(rates)
    if any(r <= 0 for r in rates):
        return 0.0
    t_total = sum(1.0 / (theta * r) for r in rates)
    return n_users / t_total


def snr_sweep(
    table: ScheduleTable,
    snr_grid_db,
    trials: int = 200,
    seed: int = 0,
    N0: float = 1.0,
) -> list[RatePoint]:
    """Average symmetric rate across random channels for every SNR point.

    Channel draws are shared across the grid (paired sampling) and the SINR
    coefficients are computed once per (trial, column), so each per-column
    mean rate is exactly non-decreasing in SNR.  Per-column rates are
    averaged over trials first; the symmetric rate then follows from the
    time-accounting identity applied to those means.  ``std_rsym`` is the
    standard deviation of the per-trial symmetric rates.  ``trials`` must be
    at least 1.
    """
    if trials < 1:
        raise ParameterError(f"trials must be at least 1, got {trials}")
    report = decodability_check(table)
    if not report.ok:
        raise VerificationError(f"table fails the symbolic check: {report.witnesses[0]}")
    snr_grid_db = [float(s) for s in snr_grid_db]
    n_users = len(table.users)
    theta = table.subpacketization
    n_cols = len(table.columns)
    powers = np.array([N0 * 10.0 ** (s / 10.0) for s in snr_grid_db])

    rates = np.zeros((len(powers), trials, n_cols))
    for idx, column in enumerate(table.columns):
        for first in range(0, trials, TRIAL_BLOCK):
            last = min(first + TRIAL_BLOCK, trials)
            seeds = [seed + 7919 * trial + idx for trial in range(first, last)]
            channels = ChannelRealization.draw(table.users, table.G, table.L, N0=N0, seed=seeds)
            solution = build_beamformers(column, channels)
            # (stream, c or l, trial) against the per-stream power of every grid point
            coeffs = np.array(list(stream_coefficients(column, channels, solution).values()))
            p = powers[:, None, None] / len(solution.streams)
            worst = np.min(p / (N0 * coeffs[:, 0] + p * coeffs[:, 1]), axis=1)
            rates[:, first:last, idx] = [[math.log2(1.0 + s) for s in row] for row in worst]

    points = []
    for p_idx, snr in enumerate(snr_grid_db):
        mean_cols = rates[p_idx].mean(axis=0)
        per_trial = [
            symmetric_rate_from_columns(rates[p_idx, tr], theta, n_users)
            for tr in range(trials)
        ]
        points.append(
            RatePoint(
                snr_db=snr,
                per_column_rate=tuple(float(r) for r in mean_cols),
                symmetric_rate=symmetric_rate_from_columns(mean_cols, theta, n_users),
                std_rsym=float(np.std(per_trial)),
                trials=trials,
                seed=seed,
            )
        )
    return points


def high_snr_slope(points: list[RatePoint], top_db: float = 10.0) -> float:
    """Least-squares slope of the symmetric rate over the top SNR decade."""
    cutoff = max(p.snr_db for p in points) - top_db
    xs = [p.snr_db for p in points if p.snr_db >= cutoff]
    ys = [p.symmetric_rate for p in points if p.snr_db >= cutoff]
    if len(xs) < 2:
        raise ParameterError("need at least two points in the top decade")
    return float(np.polyfit(xs, ys, 1)[0])


def sweep_to_csv(points: list[RatePoint], dof: int, theta: int) -> str:
    """CSV rows matching the command-line contract."""
    lines = ["snr_db,mean_rsym,std_rsym,min_column_rate,dof,theta"]
    for p in points:
        lines.append(
            f"{p.snr_db:g},{p.symmetric_rate:.10g},{p.std_rsym:.10g},"
            f"{min(p.per_column_rate):.10g},{dof},{theta}"
        )
    return "\n".join(lines) + "\n"
