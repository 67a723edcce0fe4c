"""Finite-SNR evaluation of a schedule under nullspace zero-forcing.

Per column, every scheduled stream gets an equal share of the transmit
power; each user combines its first receive antennas, one per stream it
decodes (``verifier``'s module docstring), and applies the zero-forcing
inverse of its own effective matrix.  The column rate is the bottleneck
stream's log2(1 + SINR), the per-column time is 1/(Theta * R(i)), and the
symmetric rate divides the user count by the total delivery time.

Absolute values are in normalized rate units (log2(1+SINR) per channel use
with the file normalization folded into Theta); only orderings and
high-SNR slopes are meaningful quantities here.

``snr_sweep`` evaluates a whole table in one numeric run of the oracle's
kernel, one draw per (trial, column) cell; ``verifier``'s module docstring
describes the run, its batches and draws (``verifier._numeric_run``).  This
module's reduction, the SINR step, inverts each (user, stream count) stack
of effective matrices and takes its noise and leakage gains; the SINRs,
rates and per-trial symmetric rates follow in array passes.  Every rate is
bit for bit the one the per-column reference gives on the column's own
draws: ``verifier.build_beamformers``, then ``stream_coefficients``,
``sinrs_from_coefficients`` and ``column_rate``.  That path stays public,
and the tests compare against it.
"""

from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np

from .errors import ParameterError, VerificationError
from .model import ScheduleColumn, ScheduleTable
from .verifier import (
    BeamformerSolution,
    ChannelRealization,
    _KernelLayout,
    _numeric_run,
    _TablePlan,
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
    """SINR of every (group, instance, member user) stream of ``coeffs``
    (``stream_coefficients``) at total power, shared by ``n_streams``."""
    if power_total < 0:
        raise ParameterError("power_total must be non-negative")
    if power_total == 0:
        return {key: 0.0 for key in coeffs}
    p = power_total / n_streams
    return {key: p / (N0 * c + p * l) for key, (c, l) in coeffs.items()}


def column_rate(sinrs: dict[tuple, float]) -> float:
    """Common rate every scheduled stream can sustain: the bottleneck one."""
    if not sinrs:
        raise ParameterError("empty SINR map")
    return math.log2(1.0 + min(sinrs.values()))


class RatePoint(NamedTuple):
    """Rate statistics of one SNR grid point; ``std_rsym`` is the per-trial spread, not a standard error."""

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


def _singular(E: np.ndarray) -> list[int]:
    """Every index i at which ``np.linalg.inv(E[i])`` raises."""
    found = []
    for i, matrices in enumerate(E):
        try:
            np.linalg.inv(matrices)
        except np.linalg.LinAlgError:
            found.append(i)
    return found


def _batch_sinrs(plan: _TablePlan, layout: _KernelLayout, kernel, T: int, powers):
    """Bottleneck SINR of every (grid point, column, trial) of a batch and a
    trial block of T trials, (P, C, T), from the kernel's gains (``kernel``):
    per stream set and stream count, one inverse of the stacked effective
    matrices, then their noise and leakage gains.  Each value is bit for bit
    that of ``stream_coefficients`` on the column's own draws, as every
    product keeps the per-column layout and every reduction its axis.  A
    singular effective matrix raises VerificationError at the batch's first
    (column, user) that has one."""
    C, U = len(layout.columns), len(plan.users)
    b_max = max(entry[1] for streams, *_ in layout.sets for entry in streams.entries)
    noise = np.ones((C, T, U, b_max))
    leak = np.zeros_like(noise)
    cells = np.zeros((C, 1, U, b_max), dtype=bool)  # true where user u decodes a b-th stream
    singular = []  # (column, user position) of every singular effective matrix
    for streams, gains in kernel:
        by_count: dict[int, list] = {}  # per stream count: (columns, user, own, cross) of each entry
        for (u, b, rows, r, own, cross), entry_gains in gains:
            # own and cross gains as (R, b, T, b) and (R, n - b, T, b): the
            # layout of a boolean-masked (T, b, n) product, transposed
            by_count.setdefault(b, []).append(
                (streams.columns[rows], u, entry_gains[r, :, :, own], entry_gains[r, :, :, cross])
            )
        for b, parts in by_count.items():
            at = np.concatenate([part[0] for part in parts])
            users = np.repeat([part[1] for part in parts], [len(part[0]) for part in parts])
            effective, cross_gains = (np.concatenate([part[k] for part in parts]).transpose(0, 2, 3, 1) for k in (2, 3))
            try:
                inv = np.linalg.inv(effective)
            except np.linalg.LinAlgError:
                singular += [(int(at[i]), int(users[i])) for i in _singular(effective)]
                continue
            at = layout.draw[at]  # the column's draw: its position in the batch
            cells[at, 0, users, :b] = True
            noise[at, :, users, :b] = np.sum(np.abs(inv) ** 2, axis=-1)
            leak[at, :, users, :b] = np.sum(np.abs(inv @ cross_gains) ** 2, axis=-1)
    if singular:
        raise VerificationError(f"singular effective matrix at user {plan.users[min(singular)[1]]}")
    streams_per_column = np.array([len(plan.columns[c]) for c in layout.columns.tolist()])
    p = (powers[:, None] / streams_per_column)[:, :, None, None, None]
    return np.where(cells, p / (noise + p * leak), np.inf).min(axis=(-2, -1))


def column_rates(table: ScheduleTable, powers: np.ndarray, trials: int, seed: int) -> np.ndarray:
    """Rate of every (power, trial, column), (P, trials, C): log2(1 + SINR) of
    the column's bottleneck stream on its own draw of each trial, with
    ``powers`` the total transmit powers over a unit noise power.  An empty
    column raises ParameterError before any draw; a degenerate draw, the
    first error in scan order: trial block, batch, the nullspaces (column,
    then group), then the effective matrices (column, then user)."""
    if not all(column.groups for column in table.columns):
        raise ParameterError("column has no scheduled streams")
    rates = np.empty((len(powers), trials, len(table.columns)))

    def store(plan, block, layout, kernel):
        sinrs = _batch_sinrs(plan, layout, kernel, len(block), powers)
        # math.log2, as the rate of one column was taken
        rate = np.reshape([math.log2(1.0 + s) for s in sinrs.ravel().tolist()], sinrs.shape)
        rates[:, block.start : block.stop, layout.columns] = rate.swapaxes(1, 2)

    _numeric_run(table, trials, seed, False, store)
    return rates


def snr_sweep(table: ScheduleTable, snr_grid_db, trials: int = 200, seed: int = 0) -> list[RatePoint]:
    """Average symmetric rate across random channels for every SNR point,
    the total transmit power over a unit noise power.

    Channel draws are shared across the grid (paired sampling) and the SINR
    coefficients are computed once per (trial, column), so each per-column
    mean rate is exactly non-decreasing in SNR.  Per-column rates are
    averaged over trials first; the symmetric rate then follows from the
    time-accounting identity applied to those means.  ``std_rsym`` is the
    spread of the per-trial symmetric rates, not a standard error of the
    symmetric rate.  ``trials`` must be at least 1.
    """
    if trials < 1:
        raise ParameterError(f"trials must be at least 1, got {trials}")
    report = decodability_check(table)
    if not report.ok:
        raise VerificationError(f"table fails the symbolic check: {report.witnesses[0]}")
    snr_grid_db = [float(s) for s in snr_grid_db]
    n_users = len(table.users)
    theta = table.subpacketization
    powers = np.array([10.0 ** (s / 10.0) for s in snr_grid_db])
    rates = column_rates(table, powers, trials, seed)
    # symmetric_rate_from_columns of every trial: a sequential cumsum sums
    # left to right, as sum() does
    with np.errstate(divide="ignore"):
        per_trial = n_users / np.cumsum(1.0 / (theta * rates), axis=-1)[..., -1]
    per_trial = np.where((rates <= 0).any(axis=-1), 0.0, per_trial)

    points = []
    for p_idx, snr in enumerate(snr_grid_db):
        mean_cols = rates[p_idx].mean(axis=0)
        points.append(
            RatePoint(
                snr_db=snr,
                per_column_rate=tuple(float(r) for r in mean_cols),
                symmetric_rate=symmetric_rate_from_columns(mean_cols, theta, n_users),
                std_rsym=float(np.std(per_trial[p_idx])),
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
