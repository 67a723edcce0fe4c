"""Finite-SNR evaluation of a schedule under nullspace zero-forcing.

Per column, every scheduled stream gets an equal share of the transmit
power; each user applies its combiner followed by the zero-forcing inverse
of its own effective matrix.  The column rate is the bottleneck stream's
log2(1 + SINR), the per-column time is 1/(Theta * R(i)), and the symmetric
rate divides the user count by the total delivery time.

Absolute values are in normalized rate units (log2(1+SINR) per channel use
with the file normalization folded into Theta); only orderings and
high-SNR slopes are meaningful quantities here.

``snr_sweep`` evaluates a whole table with a kernel planned once per table
from the numeric oracle's plan.  Per trial block and chunk of SWEEP_COLUMNS
columns it draws all the chunk's channels at once and takes one
combined-channel product and one inverse per (stream set, stream count) and
one nullspace SVD per (column, outside-stream count); the SINRs, rates and
per-trial symmetric rates follow in array passes.  Every rate is bit for bit
the one ``build_beamformers`` and ``stream_coefficients`` give on the
column's own draws; those stay public, and the tests compare against them.
A chunk's draws are seeded in bulk: when it has at least BULK_SEEDS seeds
below 2**32, they are hashed in one numpy pass and set, one after another,
as the state of one PCG64, which gives ``np.random.default_rng``'s draws bit
for bit; other seeds, and every seed if that path disagrees with numpy's
seeding, use ``default_rng``.
"""

from __future__ import annotations

import math
from typing import NamedTuple, NoReturn

import numpy as np

from .errors import ParameterError, VerificationError
from .model import ScheduleColumn, ScheduleTable
from .verifier import (
    TRIAL_BLOCK,
    BeamformerSolution,
    ChannelRealization,
    _hermitian,
    _plan_table,
    _stream_beams,
    _TablePlan,
    build_beamformers,
    decodability_check,
    effective_matrix,
    nullspace_basis,
)

# columns per stacked pass of the rate kernel: a pass draws at most
# SWEEP_COLUMNS * TRIAL_BLOCK channels, which bounds its memory
SWEEP_COLUMNS = 2


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


class RatePoint(NamedTuple):
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


def _sweep_seeds(seed: int, column: int, trials: range) -> list[int]:
    """Channel seeds of one column (0-based index) over a range of trials."""
    return [seed + 7919 * trial + column for trial in trials]


class _PairGroup(NamedTuple):
    """The (column, user) pairs of a chunk in which the user decodes b of the
    column's n streams, over columns with one layout of beams."""

    b: int
    columns: np.ndarray  # (N,) positions in the chunk
    users: np.ndarray  # (N,) user positions
    beams: np.ndarray  # (N, n) direction-library index of each of the column's streams
    l_fast: bool  # the layout of the column's own stack of beams (_StreamSet.l_fast)
    own: np.ndarray  # (N, b) the user's streams, in stream order
    cross: np.ndarray  # (N, n - b) the other streams, in stream order


class _SweepChunk(NamedTuple):
    """What the rate kernel needs of a chunk of SWEEP_COLUMNS columns that no
    draw changes."""

    columns: np.ndarray  # (C,) 0-based column indices, ascending
    streams: np.ndarray  # (C,) stream total of every column
    pairs: tuple[_PairGroup, ...]
    # per (column, outside-stream count r): the (M, r) row-library rows that
    # stack into the interference channel of each of its profiles, and the
    # number of leading nullspace directions kept of each
    nullspaces: tuple[tuple[np.ndarray, int], ...]
    cells: np.ndarray  # (C, 1, U, b_max): true where user u decodes a b-th stream


def _plan_sweep(table: ScheduleTable) -> tuple[_SweepChunk, ...]:
    """The numeric oracle's table plan in chunks of SWEEP_COLUMNS columns,
    each chunk's stream sets regrouped by stream count."""
    users = tuple(sorted(table.users))
    plan = _plan_table(table.columns, users, SWEEP_COLUMNS)
    take = np.array([m for _, m in plan.directions], dtype=np.intp)
    by_chunk: dict[int, list] = {}
    for streams in plan.sets:
        by_chunk.setdefault(int(streams.columns[0]) // SWEEP_COLUMNS, []).append(streams)
    return tuple(
        _plan_chunk(plan, sets, np.cumsum(take) - take, chunk * SWEEP_COLUMNS, len(table.columns))
        for chunk, sets in sorted(by_chunk.items())
    )


def _plan_chunk(plan: _TablePlan, sets, profile_start: np.ndarray, c0: int, n_cols: int) -> _SweepChunk:
    """One chunk of the rate kernel's plan, and its two libraries, which a
    trial block fills.  The row library holds the combined channel of every
    (column, user) pair with streams, group by group, (pair, combiner)
    within a group.  The direction library holds, per (column, outside-stream
    count), the leading nullspace directions of each outside-user profile of
    that column; ``profile_start`` is where each profile begins among the
    oracle's directions, which the stream sets index."""
    users = plan.users
    columns = np.arange(c0, min(c0 + SWEEP_COLUMNS, n_cols))
    groups = []  # (set index, set rows, chunk positions, stream count, users, own, cross)
    for i, streams in enumerate(sets):
        set_rows = np.arange(len(streams.columns))
        for b in sorted({entry[1] for entry in streams.entries}):
            entries = [(set_rows[rows], u, own, cross) for u, bu, rows, _, own, cross in streams.entries if bu == b]
            rows = np.concatenate([e[0] for e in entries])
            groups.append((i, rows, streams.columns[rows] - c0, b,
                           np.concatenate([np.full(len(e[0]), e[1]) for e in entries]),
                           *(np.concatenate([e[k] for e in entries]) for k in (2, 3))))
    b_max = max(b for _, _, _, b, *_ in groups)
    cells = np.zeros((len(columns), 1, len(users), b_max), dtype=bool)
    row_start, seen = {}, 0  # (position, user) -> first row in the row library
    for _, _, at, b, at_users, _, _ in groups:
        cells[at, 0, at_users, :b] = True
        for c, u in zip(at.tolist(), at_users.tolist()):
            row_start[c, users[u]] = seen
            seen += b
    # the profile and instance of every stream, from its oracle direction, and
    # per (position, profile) the number of directions its streams take
    profile = [np.searchsorted(profile_start, s.beams, side="right") - 1 for s in sets]
    instance = [s.beams - profile_start[pid] for s, pid in zip(sets, profile)]
    taken: dict[tuple[int, int], int] = {}
    for streams, pid, inst in zip(sets, profile, instance):
        for c, ps, js in zip((streams.columns - c0).tolist(), pid.tolist(), inst.tolist()):
            for p, j in zip(ps, js):
                taken[c, p] = max(taken.get((c, p), 0), j + 1)
    stacks: dict[tuple[int, int], list] = {}  # (position, r) -> (position, profile, rows)
    for c, p in taken:
        rows = [row_start[c, k] + j for k, b in plan.directions[p][0] for j in range(b)]
        stacks.setdefault((c, len(rows)), []).append((c, p, rows))
    nullspaces, first_direction, seen = [], {}, 0
    for (_, r), stack in sorted(stacks.items()):
        m = max(taken[c, p] for c, p, _ in stack)
        for k, (c, p, _) in enumerate(stack):
            first_direction[c, p] = seen + k * m
        seen += len(stack) * m
        nullspaces.append((np.array([rows for *_, rows in stack], dtype=np.intp).reshape(len(stack), r), m))
    # each stream's direction in the chunk's library
    directions = [
        np.array([[first_direction[c, p] for p in ps] for c, ps in zip((s.columns - c0).tolist(), pid.tolist())],
                 dtype=np.intp).reshape(pid.shape) + inst
        for s, pid, inst in zip(sets, profile, instance)
    ]
    pairs = tuple(
        _PairGroup(b, at, at_users, directions[i][rows], sets[i].l_fast, own, cross)
        for i, rows, at, b, at_users, own, cross in groups
    )
    streams_per_column = np.array([len(plan.columns[c]) for c in columns])
    return _SweepChunk(columns, streams_per_column, pairs, tuple(nullspaces), cells)


def _chunk_sinrs(chunk: _SweepChunk, table: ScheduleTable, seeds, powers: np.ndarray, N0: float):
    """Bottleneck SINR of every (grid point, column, trial) of one chunk and
    trial block, (P, C, T), from one draw of all its channels; None when a
    draw is degenerate (a nullspace of the wrong dimension or a singular
    effective matrix).

    Each value is bit for bit that of ``build_beamformers`` and
    ``stream_coefficients`` on the column's own draws: LAPACK treats each
    matrix of a stack on its own, each product keeps the shapes and memory
    layout of the per-column one, and every reduction runs along the same
    contiguous axis."""
    C, T, L, G = len(seeds), len(seeds[0]), table.L, table.G
    users = tuple(sorted(table.users))
    channels = ChannelRealization.draw(users, G, L, N0=N0, seed=[s for row in seeds for s in row])
    pool = channels.haar_combiner_pool()
    H = np.stack([channels.H[k] for k in users], axis=1).reshape(C, T, len(users), G, L)
    Q = np.stack([pool[k] for k in users], axis=1).reshape(C, T, len(users), G, G)
    del channels, pool  # each stage frees what the next, larger ones no longer need
    # per pair group, (N, T, b, L)
    combined = [_hermitian(Q[g.columns, :, g.users, :, : g.b]) @ H[g.columns, :, g.users] for g in chunk.pairs]
    del H, Q
    rows = np.concatenate([c.swapaxes(0, 1).reshape(T, -1, L) for c in combined], axis=1)
    directions = []
    for index, m in chunk.nullspaces:
        basis, rank = nullspace_basis(rows[:, index], L)
        if (rank != index.shape[1]).any():
            return None
        directions.append(basis[..., :m].swapaxes(-1, -2).reshape(T, -1, L))
    del rows
    library = np.concatenate(directions, axis=1)
    noise = np.ones(chunk.cells.shape[:1] + (T,) + chunk.cells.shape[2:])
    leak = np.zeros_like(noise)
    for g in chunk.pairs:
        gains = combined.pop(0) @ _stream_beams(library, g.beams, g.l_fast)  # (N, T, b, n)
        r = np.arange(len(gains))[:, None]
        try:
            inv = np.linalg.inv(gains[r, :, :, g.own].transpose(0, 2, 3, 1))
        except np.linalg.LinAlgError:
            return None
        # the cross gains as (N, T, b, n - b), in the layout of a
        # boolean-masked (T, b, n) product
        cross = gains[r, :, :, g.cross].transpose(0, 2, 3, 1)
        noise[g.columns, :, g.users, : g.b] = np.sum(np.abs(inv) ** 2, axis=-1)
        leak[g.columns, :, g.users, : g.b] = np.sum(np.abs(inv @ cross) ** 2, axis=-1)
    p = (powers[:, None] / chunk.streams)[:, :, None, None, None]
    return np.where(chunk.cells, p / (N0 * noise + p * leak), np.inf).min(axis=(-2, -1))


def _raise_column_error(table: ScheduleTable, trials: int, seed: int, N0: float) -> NoReturn:
    """Raise the error that evaluating one column and trial block after
    another meets first, with the per-column functions."""
    for idx, column in enumerate(table.columns):
        for first in range(0, trials, TRIAL_BLOCK):
            seeds = _sweep_seeds(seed, idx, range(first, min(first + TRIAL_BLOCK, trials)))
            channels = ChannelRealization.draw(table.users, table.G, table.L, N0=N0, seed=seeds)
            stream_coefficients(column, channels, build_beamformers(column, channels))
    raise VerificationError("the stacked rate kernel failed on draws that pass one column at a time")


def column_rates(table: ScheduleTable, powers: np.ndarray, trials: int, seed: int, N0: float) -> np.ndarray:
    """Rate of every (power, trial, column), (P, trials, C): log2(1 + SINR) of
    the column's bottleneck stream on the draw of seed + 7919*trial + column
    index, with ``powers`` the total transmit powers.

    The table is planned once; a trial block then takes, per chunk of
    SWEEP_COLUMNS columns, one draw of all its channels, one combined-channel
    product and one inverse per (stream set, stream count), and one
    nullspace SVD per (column, outside-stream count).  An empty column
    raises ParameterError before any draw; a degenerate draw raises the
    error that ``build_beamformers`` or ``stream_coefficients`` raises on it
    first, column by column."""
    if not all(column.groups for column in table.columns):
        raise ParameterError("column has no scheduled streams")
    chunks = _plan_sweep(table)
    rates = np.empty((len(powers), trials, len(table.columns)))
    for first in range(0, trials, TRIAL_BLOCK):
        block = range(first, min(first + TRIAL_BLOCK, trials))
        for chunk in chunks:
            seeds = [_sweep_seeds(seed, idx, block) for idx in chunk.columns.tolist()]
            sinrs = _chunk_sinrs(chunk, table, seeds, powers, N0)
            if sinrs is None:
                _raise_column_error(table, trials, seed, N0)
            # math.log2, as the rate of one column was taken
            rate = np.reshape([math.log2(1.0 + s) for s in sinrs.ravel().tolist()], sinrs.shape)
            rates[:, block.start : block.stop, chunk.columns] = rate.swapaxes(1, 2)
    return rates


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
    powers = np.array([N0 * 10.0 ** (s / 10.0) for s in snr_grid_db])
    rates = column_rates(table, powers, trials, seed, N0)
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
