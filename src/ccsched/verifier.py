"""Linear decodability certification.

Symbolic side: the two antenna conditions, checked on every column of a table at once,
  tx: for every scheduled group, the streams of users outside it plus the
      group's own multiplicity fit inside the transmit antenna count;
  rx: no user decodes more streams than it has receive antennas.

Numeric side: a Monte-Carlo oracle that draws random channels, stacks the
combined interference channel of every scheduled group, computes its
nullspace by complete QR with a screened rank (``nullspace_basis``), places
one unit-norm beamformer per stream instance inside that nullspace, and
verifies rank-nullity, interference leakage, and per-user invertibility of
the effective channel.  Every numeric array may carry a leading trial axis,
so one call handles a batch of draws.
Receive combiners select antennas: a user decoding b streams combines its
first b receive antennas, so its combined channel is the leading b rows of
its draw.  For i.i.d. Rayleigh channels this loses nothing: a Haar unitary
U drawn independently of H leaves U^H H i.i.d. CN(0, 1) (unitary
invariance; Tulino and Verdu, Random Matrix Theory and Wireless
Communications, 2004), so every verdict and every margin and rate
distribution is the one Haar combiners give.
For one column on its own draw, ``build_beamformers``, ``effective_matrix``
and ``verify_numeric`` state that oracle directly; they are the reference
the table kernel below is checked against, and share nothing across columns.

A numeric run of a table, the oracle's (``verify_table_numeric``) or the
rate sweep's (``rates.column_rates``), has one driver, ``_numeric_run``.  It
plans the table once (``_plan_table``) in batches of ``_batch_columns``
columns, a fixed number of column-trials, so a run of few trials takes few
large batches.  Every draw is keyed by the run's seed alone and addressed
by a (trial, column) cell in Philox's counter (``_complex_normals``), so no
two cells of a run share a draw.  The oracle shares the draw of cell
(trial, 0) among all columns and lays all stream sets out once
(``_kernel_layout``); the sweep draws cell (trial, column) for every column
and lays each batch out once.  Per trial block of TRIAL_BLOCK trials and
layout, the run draws the channels and hands the kernel, ``_stream_gains``,
to the caller's reduction: the oracle's margin scan (``_MarginScan.add``) or
the sweep's SINR step (``rates._batch_sinrs``).
The kernel takes one combined channel per (user, stream count), the draw's
leading rows, one stacked nullspace QR per (draw, outside-stream count)
over the outside-user profiles present, and one direction library, and
yields every stream set's
own and cross gains from beams in C order, the one layout of a column's
own stack (``BeamformerSolution.stacked``), as a BLAS product rounds by
layout.  The margin scan's conditioning margin is screened: a batched
inverse bounds every effective matrix's smallest singular value from both
sides, and LAPACK's SVD runs only on the matrices that can be the minimum
or can fail, so the report is exactly the one a full SVD gives.

The kernel's nullspace QRs run on every usable core.  A run opens one
``concurrent.futures.ThreadPoolExecutor``, imported only then, of one
thread per usable core (``_worker_count``), or none on one core.  A kernel
call of two or more (draw, outside-stream count) stacks and at least
THREAD_MATRICES matrices maps its whole stacks over the pool, which queues
and balances them, while the calling thread waits; any other call loops
over its stacks on the calling thread.  A stack is never split, and LAPACK
factors each matrix on its own, so every basis and rank, the nullity
check's scan order, and any error are the loop's, bit for bit.  The pool's
threads start at the run's first mapped call, at most one per usable
core, and every one is joined before the run returns or raises, whether
the kernel or the caller's reduction raised.
"""

from __future__ import annotations

import contextlib
import math
import operator
import os
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .errors import MalformedTableError, NullityDeficientError, ParameterError, VerificationError
from .model import Group, ScheduleColumn, ScheduleTable

RANK_RTOL = 1e-8
# channel draws per batch of the numeric kernel; bounds its memory
TRIAL_BLOCK = 32
# column-trials per batch of the numeric kernel, oracle and rate sweep alike:
# a batch's draws, beams and gains are formed together, so it bounds their
# memory; a run of T trials takes BATCH_COLUMN_TRIALS // min(T, TRIAL_BLOCK)
# columns per batch (_batch_columns), at least TRIAL_BLOCK so that a batch
# holds a column.  On 2 cores, 256 against 16 columns saves 17 % of the
# 4-trial oracle workload at 1 % more peak memory (128: 12 % at the same;
# 512: 18 % at 6 % more), and against 2 columns 5 % of the 200-trial sweep
# at 4 % more.  The conditioning screen inverts about this many at a time.
BATCH_COLUMN_TRIALS = 256
# the most complex entries a numeric run's trial block may hold in its channel
# draws (users x G x L per draw) and its kernel calls' L x L nullspace Q
# factors, about 0.8 GB at 16 bytes an entry: a table whose antenna counts
# need more is refused before the first draw (_numeric_run).  The tables of the tests and the benchmark hold under 10**6.
MAX_KERNEL_ENTRIES = 5 * 10**7
# the conditioning screen (_MarginScan._sigma_min): the relative margin by
# which a cell's lower bound must clear the threshold to skip its SVD, and the
# largest estimated condition number at which that bound is trusted
SCREEN_SLACK = 1e-2
SCREEN_CEILING = 1e6
# the fewest matrices a kernel call's nullspace QRs must hold to be mapped
# over the pool (_stack_nullspaces): every stack of a mapped call goes to the
# pool, and a run's first mapped call starts its threads.  On 2 cores, a
# matrix takes about 7-11 us, the threads' start about 0.1 ms, and a stack's
# handoff up to about 0.2 ms.  Timed call by call on the two workloads'
# tables, pooled against serial (medians of 15 rounds, two sets), floors
# from 0 to 256 gave the same totals within 1.1 ms over the 35 calls of the
# 200-trial Example 1 sweeps (80 to 1792 matrices): 252 and 203 ms against
# 365 and 234 ms serial, and 273 and 207 ms at 512.  Over the 27 of the
# 4-trial Fig. 3 oracle (16 to 840), floors from 128 to 512 took 26.7 and
# 20.2 ms against 29.6 and 21.8 ms serial, and floors of 0 and 64 more.  So
# the floor stays at 256: a lower one gains nothing measurable, and would
# start the threads, and their memory, in most oracle runs instead of one in 27
THREAD_MATRICES = 256


class Witness(NamedTuple):
    """One violated condition: where, which rule, and the offending numbers."""

    column: int
    condition: str
    subject: tuple
    lhs: int
    bound: int

    def __str__(self) -> str:
        return (
            f"column {self.column}: {self.condition} at {self.subject} "
            f"gives {self.lhs} > {self.bound}"
        )


class SymbolicReport(NamedTuple):
    ok: bool
    witnesses: tuple[Witness, ...]
    per_column: tuple[bool, ...]
    min_slack: int


def decodability_check(table: ScheduleTable) -> SymbolicReport:
    """Symbolic decodability verdict for every column of a table, in array passes.

    Each distinct group gets an id in sorted order and a row of user indices,
    padded with a user U that decodes nothing.  One bincount gives the
    per-(column, user) stream counts beta and np.unique the (column, group)
    multiplicities; a group's tx left-hand side is its multiplicity plus the
    column's streams minus its members' streams.  Witnesses come per column:
    tx by sorted group, then rx by user.
    """
    L, G = table.L, table.G
    served, n = sorted(set(table.users)), len(table.columns)
    slots = [g for col in table.columns for g in col.groups]
    distinct = sorted(set(slots))
    U, D, width = len(served), len(distinct), max(map(len, distinct), default=0)
    user_index = {k: i for i, k in enumerate(served)}
    try:
        rows = [[user_index[k] for k in g] + [U] * (width - len(g)) for g in distinct]
    except KeyError:
        k = next(k for g in slots for k in g if k not in user_index)
        raise MalformedTableError(f"user {k} not in served set {served}") from None
    members = np.array(rows, dtype=np.intp).reshape(D, width)
    gid = np.fromiter(map({g: i for i, g in enumerate(distinct)}.__getitem__, slots), np.intp, len(slots))
    col = np.repeat(np.arange(n), [len(c.groups) for c in table.columns])
    beta = np.bincount((col[:, None] * (U + 1) + members[gid]).ravel(), minlength=n * (U + 1))
    beta = beta.reshape(n, U + 1) * (np.arange(U + 1) < U)  # the padding user decodes nothing
    key, mult = np.unique(col * max(D, 1) + gid, return_counts=True)
    pcol, pgid = np.divmod(key, max(D, 1))
    lhs = mult + beta.sum(axis=1)[pcol] - beta[pcol[:, None], members[pgid]].sum(axis=1)
    tx = np.flatnonzero(lhs > L)
    rx_col, rx_user = np.nonzero(beta[:, :U] > G)
    found = [
        Witness(c + 1, "tx", distinct[g], v, L)
        for c, g, v in zip(pcol[tx].tolist(), pgid[tx].tolist(), lhs[tx].tolist())
    ] + [
        Witness(c + 1, "rx", (served[k],), v, G)
        for c, k, v in zip(rx_col.tolist(), rx_user.tolist(), beta[rx_col, rx_user].tolist())
    ]
    found.sort(key=lambda w: (w.column, w.condition == "rx"))  # stable: keeps each kind's order
    bad = np.zeros(n, dtype=bool)
    bad[pcol[tx]] = bad[rx_col] = True
    # min_slack is the least of L and every L - lhs
    return SymbolicReport(not found, tuple(found), tuple((~bad).tolist()), L - int(lhs.max(initial=0)))


def _key_word(value) -> bool:
    """Whether ``value`` is an integer in [0, 2**64), a word of Philox's key
    or counter: a draw's seed, or either half of its (trial, column) cell."""
    return isinstance(value, (int, np.integer)) and 0 <= int(value) < 1 << 64


def _complex_normals(seed: int, cells, shape: tuple) -> np.ndarray:
    """Per leading index of ``shape``, a real then an imaginary block of
    standard normals from ``Generator(Philox(key=[seed, 0], counter=[0, 0,
    trial, column]))`` at one (trial, column) cell (None: (0, 0)), or one
    draw per cell of a sequence, stacked on a leading axis.

    One reused Philox is set per cell, through its ``state`` setter, to that
    generator's start: key, counter, empty buffer.  A draw advances only the
    counter's two low words, so no two cells overlap.  A seed, or a cell
    that is not a pair, with a word outside the range [0, 2**64) raises
    ParameterError.  The parts of a whole stack are combined in one
    operation, which is exact."""
    if not _key_word(seed):
        raise ParameterError(f"a channel draw's seed must be an integer in [0, 2**64), got {seed}")
    dims = np.shape((0, 0) if cells is None else cells)  # (2,) for one cell, (n, 2) for n
    one = len(dims) == 1  # None or a single (trial, column) pair
    cells = [(0, 0) if cells is None else cells] if one else cells
    if len(dims) not in (1, 2) or dims[-1] != 2:
        raise ParameterError(f"a channel draw's cells must be (trial, column) pairs, got {cells}")
    bitgen = np.random.Philox(key=np.array([seed, 0], dtype=np.uint64))
    generator = np.random.Generator(bitgen)
    state = bitgen.state  # a fresh Philox's: zero counter, empty buffer
    counter = state["state"]["counter"]
    z = np.empty((len(cells), shape[0], 2) + shape[1:])
    for (trial, column), out in zip(cells, z):
        if not (_key_word(trial) and _key_word(column)):
            raise ParameterError(f"a channel draw's cell must be a pair of integers in [0, 2**64), got {(trial, column)}")
        counter[2:] = trial, column
        bitgen.state = state
        generator.standard_normal(out=out)
    h = 1j * z[:, :, 1]
    h += z[:, :, 0]  # re + 1j * im in place: the real parts add a zero, the imaginary ones to a zero
    return h[0] if one else h


def _hermitian(a: np.ndarray) -> np.ndarray:
    return a.conj().swapaxes(-1, -2)


@dataclass(frozen=True)
class ChannelRealization:
    """Per-user complex channel matrices, reproducible from the seed and cells.

    ``cells`` is one (trial, column) cell of the seed's draws, None for cell
    (0, 0), or a sequence of cells: a batch, every array with a leading trial
    axis, each draw bit for bit its cell's alone (``_complex_normals``).  The
    channels take the key [seed, 0], users in sorted order.  A cell must be
    a pair of integers in [0, 2**64), or ParameterError is raised."""

    users: tuple[int, ...]
    G: int
    L: int
    seed: int
    cells: tuple | None = None
    H: dict[int, np.ndarray] = field(compare=False, default_factory=dict)

    @staticmethod
    def draw(users, G: int, L: int, seed: int = 0, cells=None) -> "ChannelRealization":
        """I.i.d. unit-variance complex Gaussian entries, users in sorted order."""
        users, cells = tuple(sorted(users)), cells if np.ndim(cells) < 2 else tuple(map(tuple, cells))
        h = _complex_normals(seed, cells, (len(users), G, L))
        h /= np.sqrt(2)
        return ChannelRealization(users, G, L, seed, cells, dict(zip(users, np.moveaxis(h, -3, 0))))

    def haar_combiner_pool(self) -> dict[int, np.ndarray]:
        """Every user's receive combiners: the GxG identity, broadcast over
        the batch (read-only), whose leading b columns select the first b
        receive antennas (the module docstring says why that loses nothing).
        Nothing is drawn.  The name is historical: it stays only because the
        benchmark's tracer, ``bench/tracer.py``, binds it, until the
        benchmark reads a trace the library owns (ROADMAP.md)."""
        batch = () if np.ndim(self.cells) < 2 else (len(self.cells),)
        return dict.fromkeys(self.users, np.broadcast_to(np.eye(self.G, dtype=complex), batch + (self.G, self.G)))


def nullspace_basis(A: np.ndarray) -> tuple[np.ndarray, int]:
    """Orthonormal nullspace basis of an r x L matrix A, in C^L.

    Returns (basis, rank).  The rank is the thresholded SVD's: singular
    values below RANK_RTOL times the largest count as zero; an empty A means
    the nullspace is the whole space.  A stack of matrices (leading batch
    axes) is factored in one batched call: the rank is then an int array over
    the batch and the basis spans, in every matrix, the directions past the
    largest rank of the stack.

    For 0 < r < L the basis is the last L - r columns of Q in the complete QR
    A^H = QR (Golub and Van Loan, Matrix Computations, s. 5.2): they are
    orthogonal to A's row space, and span the nullspace when A has rank r.
    QR does not reveal rank, so the rank is screened as
    ``_MarginScan._sigma_min`` screens.  R's leading r x r block T has A's
    singular values; with X^ a batched inverse of T, l^ = 1/|X^|_F bounds
    the smallest from below and h^ = |T|_F the largest from above.  A matrix
    with l^ > (1 + SCREEN_SLACK) RANK_RTOL h^ has rank r.  Every other matrix,
    and every one when ``inv`` raises, takes the thresholded SVD's rank.  A
    stack whose largest rank is below r, and an A with r = 0 or r >= L, take
    the SVD's basis instead: its trailing right singular vectors.

    Why a screened matrix has the SVD's rank (Higham, Accuracy and Stability
    of Numerical Algorithms, 2002; u = 2^-53, small constants dropped).
    - Householder QR is backward stable: the computed T is the exact factor of
      A^H + E with |E|_F <= L r u |A|_F (Thm 19.4), so by Weyl's inequality
      each of its singular values is within L r u h^ of A's.
    - T is triangular, so ``inv``'s LU pivots nowhere and leaves T exact, and
      each column of X^ is a triangular solve, (T + dT_j) x^_j = e_j with
      |dT_j|_F <= r u h^ (Thm 8.5).  So l^ is within a relative r u k of
      1/|inv(T)|_F, where k = h^/l^ < 1/RANK_RTOL = 1e8 for a screened matrix.
    - zgesdd is backward stable: its values are within r u |A|_2 of A's
      (LAPACK Users' Guide, s. 4.9).
    At the shapes here (L, r below about 100) each error is below 1e-3 of
    A's smallest singular value, for which l^ > RANK_RTOL h^ vouches, so the
    slack of 1 % absorbs them all: the SVD's smallest value clears RANK_RTOL
    times its largest, and its rank is r.
    """
    r, L = A.shape[-2:]
    if 0 < r < L:
        q, R = np.linalg.qr(_hermitian(A), mode="complete")
        T = R[..., :r, :]
        rank = np.full(A.shape[:-2], r)
        try:
            X = np.linalg.inv(T)
        except np.linalg.LinAlgError:  # an exactly singular T: every matrix in doubt
            X = np.full_like(T, np.nan)
        with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
            # in doubt also where the inverse is not finite: nan and 0 do not clear
            doubt = ~(1 / np.sqrt(_frobenius_sq(X)) > (1 + SCREEN_SLACK) * RANK_RTOL * np.sqrt(_frobenius_sq(T)))
        if doubt.any():
            s = np.linalg.svd(A[doubt], compute_uv=False)
            rank[doubt] = np.sum(s > RANK_RTOL * s[..., :1], axis=-1)
        if rank.max() == r:
            return q[..., r:], int(rank) if rank.ndim == 0 else rank
    _, s, vh = np.linalg.svd(A)
    rank = np.sum(s > RANK_RTOL * s[..., :1], axis=-1)
    return _hermitian(vh[..., rank.max():, :]), int(rank) if rank.ndim == 0 else rank


class BeamformerSolution(NamedTuple):
    """Receive combiners and transmit beamformers for one column: ``stacked``
    is (..., L, n) in C order, one beamformer per stream in ``streams`` order,
    and ``beams[g]`` is the (..., L, theta_g) block of group g."""

    combiners: dict[int, np.ndarray]
    beams: dict[Group, np.ndarray]
    nullities: dict[Group, int]
    beta: dict[int, int]
    streams: tuple[tuple[Group, int], ...]
    stacked: np.ndarray


def _check_nullity(group: Group, theta: int, nullity: int, widest: int, expected: int) -> None:
    """Raise NullityDeficientError unless a group's nullspace, of smallest
    and largest dimension ``nullity`` and ``widest`` over a batch, hosts its
    theta instances and is the rank-nullity value ``expected`` everywhere."""
    if nullity < theta:
        raise NullityDeficientError(
            f"group {group}: nullity {nullity} cannot host {theta} stream instances"
        )
    if not nullity == widest == expected:
        raise NullityDeficientError(
            f"group {group}: computed nullity (min {nullity}, max {widest}) != rank-nullity "
            f"value {expected} (non-generic channel draw)"
        )


def build_beamformers(column: ScheduleColumn, channels: ChannelRealization) -> BeamformerSolution:
    """Nullspace beamformers for one column under random channels.

    Combiners are fixed first: each user's first beta_k receive antennas
    (``ChannelRealization.haar_combiner_pool``).  For every
    scheduled group the interference channel of all outside users is
    stacked and the group's stream instances take the first theta
    orthonormal nullspace directions.  The column is built from its own
    draw alone; the table kernel (``_stream_gains``) gives the same beams
    while sharing nullspaces across columns.

    Raises NullityDeficientError when a nullspace cannot host its group's
    instances, or when its dimension anywhere in the batch is not the
    rank-nullity value L minus the outside streams.
    """
    pool = channels.haar_combiner_pool()
    users, L = channels.users, channels.L
    theta = column.theta()
    beta = column.beta(users)
    combiners = {k: pool[k][..., : beta[k]] for k in users}
    empty = channels.H[users[0]][..., :0, :]  # no outside user: (..., 0, L)
    beams: dict[Group, np.ndarray] = {}
    nullities: dict[Group, int] = {}
    for g in sorted(theta):
        outside = [k for k in users if k not in g and beta[k] > 0]
        # the outside users' combined channels combiner^H H, stacked
        rows = [_hermitian(combiners[k]) @ channels.H[k] for k in outside]
        basis, rank = nullspace_basis(np.concatenate(rows or [empty], axis=-2))
        nullities[g] = L - sum(beta[k] for k in outside)
        _check_nullity(g, theta[g], L - int(np.max(rank)), L - int(np.min(rank)), nullities[g])
        beams[g] = basis[..., : theta[g]]
    streams = tuple((g, inst) for g in sorted(theta) for inst in range(theta[g]))
    batch = channels.H[users[0]].shape[:-2]
    stacked = np.concatenate([beams[g] for g in sorted(theta)] or [np.zeros(batch + (L, 0))], axis=-1)
    return BeamformerSolution(combiners, beams, nullities, dict(beta), streams, np.ascontiguousarray(stacked))


class NumericReport(NamedTuple):
    """Verdict with the worst margins and where they occur: ``min_sigma_at``
    names trial and user, ``max_leakage_at`` trial, user and group (a table
    report adds the 1-based column); None when no such quantity exists."""

    ok: bool
    max_leakage: float
    min_sigma: float
    failures: tuple[tuple, ...]
    max_leakage_at: dict | None
    min_sigma_at: dict | None


def effective_matrix(
    solution: BeamformerSolution, channels: ChannelRealization, k: int
) -> tuple[np.ndarray, np.ndarray]:
    """User k's beta_k x beta_k effective matrix over its own streams, and its
    gains from every other stream, (..., beta_k, n_other); both are columns
    of one combiner^H H @ W product, in ``solution.streams`` order."""
    own = np.array([k in g for g, _ in solution.streams])
    gains = _hermitian(solution.combiners[k]) @ channels.H[k] @ solution.stacked
    return gains[..., own], gains[..., ~own]


class _StreamSet(NamedTuple):
    """The columns of one batch with the same number n of streams."""

    columns: np.ndarray  # (C,) 0-based column indices
    # (C, n) every stream's outside-user profile, and its instance: the
    # profile's direction that its beam takes
    profiles: np.ndarray
    instances: np.ndarray
    # per (user position u, stream count b > 0): the rows of the R columns
    # that give the user b streams (a slice when all do), arange(R)[:, None],
    # and the indices of its own (R, b) and cross (R, n - b) streams, each in
    # stream order
    entries: tuple[tuple[int, int, np.ndarray | slice, np.ndarray, np.ndarray, np.ndarray], ...]


class _TablePlan(NamedTuple):
    """Everything the numeric kernel needs of a table that no draw changes."""

    users: tuple[int, ...]
    columns: tuple[tuple[Group, ...], ...]  # sorted groups: one entry per stream
    # per run of equal groups in a column, in scan order: the column, the
    # run's first position in it, its profile and its theta
    runs: np.ndarray
    # per outside-user profile: its (user, stream count) pairs, and as (P,)
    # arrays the most instances any of its groups takes and its outside-stream count
    directions: tuple[tuple, ...]
    take: np.ndarray
    outside: np.ndarray
    sets: tuple[_StreamSet, ...]


def _batch_columns(trials: int) -> int:
    """Columns per batch of a run of ``trials`` trials, in both reductions."""
    return BATCH_COLUMN_TRIALS // min(trials, TRIAL_BLOCK)


def _plan_table(columns, users: tuple[int, ...], width: int) -> _TablePlan:
    """Stream order, outside-user profiles and per-(user, stream count) index
    arrays of every column, in array passes over the table's group slots;
    batches of ``width`` columns are split into stream sets by stream total."""
    cols = tuple(tuple(sorted(c.groups)) for c in columns)
    U, n = len(users), np.array([len(c) for c in cols], dtype=np.intp)
    slots = [g for c in cols for g in c]
    distinct = sorted(set(slots))
    index = {k: i for i, k in enumerate(users)}
    member = np.zeros((len(distinct), U), dtype=bool)
    for d, g in enumerate(distinct):
        member[d, [index[k] for k in g]] = True
    gid = np.fromiter(map({g: i for i, g in enumerate(distinct)}.__getitem__, slots), np.intp, len(slots))
    col = np.repeat(np.arange(len(cols)), n)
    decodes = member[gid]  # (slot, user)
    s, u = np.nonzero(decodes)
    beta = np.bincount(col[s] * U + u, minlength=len(cols) * U).reshape(len(cols), U)
    # a run of equal groups in a column holds the group's theta instances
    head = np.ones(len(slots), dtype=bool)
    head[1:] = (gid[1:] != gid[:-1]) | (col[1:] != col[:-1])
    heads = np.flatnonzero(head)
    run = np.cumsum(head) - 1
    theta = np.diff(np.append(heads, len(slots)))
    # a group's profile: the stream counts of the users outside it; an id per
    # distinct profile from one lexicographic sort (np.unique(axis=0) is slower)
    outside = beta[col[heads]] * ~member[gid[heads]]
    by = np.lexsort(outside.T[::-1])
    new = np.ones(len(by), dtype=bool)
    new[1:] = (outside[by[1:]] != outside[by[:-1]]).any(axis=1)
    pid = np.empty(len(by), dtype=np.intp)
    pid[by] = np.cumsum(new) - 1
    keys = [tuple((users[i], b) for i, b in enumerate(row) if b) for row in outside[by[new]].tolist()]
    take = np.zeros(len(keys), dtype=np.intp)
    np.maximum.at(take, pid, theta)
    starts = np.cumsum(n) - n
    runs = np.stack([col[heads], heads - starts[col[heads]], pid, theta], axis=1)
    profile, instance = pid[run], np.arange(len(slots)) - heads[run]
    step, sets = int(beta.max(initial=0)) + 1, []
    for c0 in range(0, len(cols), width):
        block = np.arange(c0, min(c0 + width, len(cols)))
        for total in sorted(set(n[block].tolist())):
            rows_all = block[n[block] == total]
            stream = starts[rows_all][:, None] + np.arange(total)
            # (user, row) pairs with streams, by user and stream count, rows ascending
            pair_user, pair_row = np.nonzero(beta[rows_all].T)
            pair_key = pair_user * step + beta[rows_all][pair_row, pair_user]
            grouped = np.argsort(pair_key, kind="stable")
            pair_key, pair_user, pair_row = pair_key[grouped].tolist(), pair_user[grouped], pair_row[grouped]
            # per pair: own streams first, then cross ones, each in stream order
            order = np.argsort(~decodes[stream[pair_row], pair_user[:, None]], axis=1, kind="stable")
            bounds = [i for i, k in enumerate(pair_key) if i == 0 or k != pair_key[i - 1]]
            r, entries = np.arange(len(rows_all))[:, None], []
            for lo, hi in zip(bounds, bounds[1:] + [len(pair_key)]):
                user, b = divmod(pair_key[lo], step)
                at = slice(None) if hi - lo == len(rows_all) else pair_row[lo:hi]
                entries.append((user, b, at, r[: hi - lo], order[lo:hi, :b], order[lo:hi, b:]))
            if entries:
                sets.append(_StreamSet(rows_all, profile[stream], instance[stream], tuple(entries)))
    return _TablePlan(users, cols, runs, tuple(keys), take, outside[by[new]].sum(axis=1), tuple(sets))


def _stream_beams(library: np.ndarray, index: np.ndarray) -> np.ndarray:
    """The (C, trials, L, n) beams of C columns with n streams each, in C
    order as ``BeamformerSolution.stacked``, gathered from a contiguous
    (trials, direction, L) library by their (C, n) direction ``index``."""
    trials, directions, L = library.shape
    rows = index[:, None, :] + np.arange(trials)[:, None] * directions  # (C, trials, n)
    return library.ravel()[rows[:, :, None, :] * L + np.arange(L)[:, None]]


def _set_gains(plan: _TablePlan, streams: _StreamSet, beams: np.ndarray, combined: dict, draws: np.ndarray):
    """Every entry of a stream set with its (R, trials, b, n) gains, one entry
    at a time, from the set's (C, trials, L, n) beams.  ``combined[k, b]``
    stacks user k's combined channels over the D draws, (D, trials, b, L),
    and ``draws`` gives each of the set's columns its draw.  The beams are
    freed with the generator, once its last entry is taken."""
    for entry in streams.entries:
        u, b, rows = entry[:3]
        channel = combined[plan.users[u], b]  # one draw broadcasts over the columns
        yield entry, (channel if len(channel) == 1 else channel[draws[rows]]) @ beams[rows]


class _KernelLayout(NamedTuple):
    """What the kernel needs of a batch of stream sets that no draw changes."""

    draw: np.ndarray  # the draw of every column of the table
    draws: int  # D: the channels stack D draws over the same trials
    columns: np.ndarray  # the sets' columns, ascending
    # per set: the set, the draw of each of its columns, and the (C, n)
    # direction-library index of every stream
    sets: tuple[tuple[_StreamSet, np.ndarray, np.ndarray], ...]
    # the (user, stream count) of every entry and the first of the b rows
    # that its combined channels take in the row library
    combined: tuple[tuple[int, int, int], ...]
    # per (draw, outside-stream count r): the draw, the profiles, the (P, r)
    # row-library rows of each profile's outside users, and the directions
    # kept of each profile; the library holds them in this order
    stacks: tuple[tuple[int, np.ndarray, np.ndarray, int], ...]


def _kernel_layout(plan: _TablePlan, sets, draw: np.ndarray) -> _KernelLayout:
    """The layout of ``sets`` in the kernel's libraries, with ``draw`` the
    draw of every column: one for all in the oracle, one per column of a
    batch in the rate sweep."""
    columns = np.array(sorted({c for streams in sets for c in streams.columns.tolist()}), dtype=np.intp)
    D = int(draw[columns].max(initial=0)) + 1
    first, n_rows = {}, 0  # each entry's first row in the row library
    for streams in sets:
        for u, b, *_ in streams.entries:
            if (plan.users[u], b) not in first:
                first[plan.users[u], b], n_rows = n_rows, n_rows + b
    pairs: dict[tuple[int, int], list] = {}  # the sets' profiles by draw and outside-stream count
    for d, p in sorted({(d, p) for s in sets for d, row in zip(draw[s.columns].tolist(), s.profiles.tolist()) for p in row}):
        pairs.setdefault((d, int(plan.outside[p])), []).append(p)
    offset = np.zeros((D, len(plan.directions)), dtype=np.intp)  # where each pair's directions start
    stacks, seen = [], 0
    for (d, r), profiles in pairs.items():
        rows = [[first[k, b] + i for k, b in plan.directions[p] for i in range(b)] for p in profiles]
        m = int(plan.take[profiles].max())
        offset[d, profiles] = seen + m * np.arange(len(profiles))
        seen += m * len(profiles)
        stacks.append((d, np.array(profiles), np.array(rows, dtype=np.intp).reshape(len(profiles), r), m))
    sets = tuple((s, draw[s.columns], offset[draw[s.columns][:, None], s.profiles] + s.instances) for s in sets)
    return _KernelLayout(draw, D, columns, sets, tuple((k, b, i) for (k, b), i in first.items()), tuple(stacks))


def _worker_count() -> int:
    """The threads of the kernel's pool: one per usable core, or none on
    one core, where the calling thread factors every stack."""
    try:
        cores = len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity on this platform
        cores = os.cpu_count() or 1
    return cores if cores > 1 else 0


def _stack_nullspaces(rows: np.ndarray, stacks, pool) -> tuple[np.ndarray, list]:
    """The (trials, direction, L) direction library of every (draw,
    outside-stream count) stack, in stack order, and each stack's ranks.

    A call of two or more stacks and at least THREAD_MATRICES matrices maps
    its stacks over the ``pool``, when there is one, while the calling
    thread waits; any other call loops over them on the calling thread (a
    single stack has nothing to share, and a handoff alone costs).  No
    stack is split, and LAPACK factors each matrix on its own, so every
    basis and rank is the loop's, bit for bit.  ``map`` yields in stack
    order and raises the first error in stack order, the one the loop
    raises, after cancelling the stacks not yet started."""
    T, L = rows.shape[1], rows.shape[-1]
    starts = np.cumsum([0] + [len(index) * m for _, _, index, m in stacks]).tolist()
    library = np.empty((T, starts[-1], L), dtype=rows.dtype)

    def factor(i: int) -> np.ndarray:
        d, _, index, m = stacks[i]
        # one QR of the (P, T, r, L) stack of the profiles' outside combined channels
        basis, rank = nullspace_basis(rows[d][:, index].swapaxes(0, 1))
        # (trials, profile, direction, L), each direction contiguous; a basis
        # narrower than m directions fails the nullity check before any is used
        k = min(m, basis.shape[-1])
        part = library[:, starts[i] : starts[i + 1]].reshape(T, len(index), m, L)
        part[:, :, :k] = basis[..., :k].swapaxes(-1, -2).swapaxes(0, 1)
        return rank

    matrices = T * sum(len(index) for _, _, index, _ in stacks)
    split = pool is not None and len(stacks) > 1 and matrices >= THREAD_MATRICES
    return library, list((pool.map if split else map)(factor, range(len(stacks))))


def _stream_gains(plan: _TablePlan, layout: _KernelLayout, channels: ChannelRealization, pool):
    """The numeric kernel of a batch of stream sets and a trial block, whose
    channels stack the layout's draws: every set with its entries' gains
    (``_set_gains``), from one combined channel per (user, stream count),
    the draw's leading rows (antenna selection), one nullspace QR per (draw,
    outside-stream count), mapped over the ``pool`` when it pays
    (``_stack_nullspaces``), and one direction library.  LAPACK and BLAS see each matrix on its own and in the layout
    of its one-column product, so every gain is the one-column one, bit for
    bit.  Before any gain, raises NullityDeficientError at the first run of
    groups in scan order (column, then group) whose nullspace is not the
    rank-nullity value in every trial or cannot host its instances."""
    if not layout.sets:
        return
    L, D = channels.L, layout.draws
    T = len(channels.H[plan.users[0]]) // D
    # (D, T, row, L): the entries' combined channels, which hold every profile's
    rows = np.concatenate([channels.H[k][..., :b, :] for k, b, _ in layout.combined], axis=1)
    rows = rows.reshape(D, T, -1, L)
    del channels  # frees the draw, when the caller keeps no reference to it
    combined = {(k, b): rows[:, :, i : i + b] for k, b, i in layout.combined}
    library, ranks = _stack_nullspaces(rows, layout.stacks, pool)
    if any((rank != index.shape[1]).any() or m > L - index.shape[1] for rank, (_, _, index, m) in zip(ranks, layout.stacks)):
        # raise at the first run of groups, in scan order, that a failing
        # (draw, profile) pair shapes, with the pair's smallest and largest nullity
        nullity = {(d, p): (L - int(r.max()), L - int(r.min()))
                   for (d, profiles, _, _), rank in zip(layout.stacks, ranks) for p, r in zip(profiles.tolist(), rank)}
        for c, at, p, theta in plan.runs[np.isin(plan.runs[:, 0], layout.columns)].tolist():
            _check_nullity(plan.columns[c][at], theta, *nullity[int(layout.draw[c]), p], L - int(plan.outside[p]))
    for streams, draws, index in layout.sets:
        # no reference to the beams here: the entries' generator frees them
        yield streams, _set_gains(plan, streams, _stream_beams(library, index), combined, draws)


def _numeric_run(table: ScheduleTable, trials: int, seed: int, shared: bool, reduce) -> None:
    """Run the kernel over ``trials`` draws of a table, as the module
    docstring describes: cell (trial, 0) shared by every column if
    ``shared``, else cell (trial, column).  Per trial block and layout,
    calls ``reduce(plan, block, layout, kernel)`` with the block's range of
    trials and the kernel's generator of stream sets and gains.  Before
    any draw, raises ParameterError if a trial block's channel draws and
    nullspace Q factors would hold more than MAX_KERNEL_ENTRIES complex
    entries."""
    users, width = tuple(sorted(table.users)), _batch_columns(trials)
    plan = _plan_table(table.columns, users, width)
    if shared:
        layouts = [_kernel_layout(plan, plan.sets, np.zeros(len(plan.columns), dtype=np.intp))]
    else:
        batches: dict[int, list] = {}  # the stream sets of every batch of columns
        for streams in plan.sets:
            batches.setdefault(int(streams.columns[0]) // width, []).append(streams)
        draw = np.arange(len(plan.columns)) % width  # one draw per column of a batch
        layouts = [_kernel_layout(plan, sets, draw) for sets in batches.values()]
    G, L = table.G, table.L
    for layout in layouts:  # a trial block's draws and L x L Q factors
        matrices = sum(len(index) for _, _, index, _ in layout.stacks)
        entries = min(trials, TRIAL_BLOCK) * (layout.draws * len(users) * G * L + matrices * L * L)
        if entries > MAX_KERNEL_ENTRIES:
            raise ParameterError(f"L = {L}, G = {G}: a trial block would hold {entries} complex entries, "
                                 f"more than {MAX_KERNEL_ENTRIES}, in its channel draws and nullspace Q factors")
    from concurrent.futures import ThreadPoolExecutor  # here: no other command needs it

    workers = _worker_count()
    # a pool thread starts only when handed a stack; on one core there is no pool
    with ThreadPoolExecutor(workers, "ccsched-kernel") if workers else contextlib.nullcontext() as pool:
        for first in range(0, trials, TRIAL_BLOCK):
            block = range(first, min(first + TRIAL_BLOCK, trials))
            for layout in layouts:
                cells = [(t, 0) for t in block] if shared else [(t, c) for c in layout.columns.tolist() for t in block]
                # no name here for the draw: the kernel, its only holder, frees it once sliced
                kernel = _stream_gains(plan, layout, ChannelRealization.draw(users, G, L, seed=seed, cells=cells), pool)
                reduce(plan, block, layout, kernel)
            if not plan.sets:  # no column carries a stream
                break


def _frobenius_sq(a: np.ndarray) -> np.ndarray:
    """Squared Frobenius norm of every matrix of a complex stack."""
    re = np.ascontiguousarray(a).view(np.float64)
    return np.einsum("...ij,...ij->...", re, re)


def _streams(groups: tuple[Group, ...]) -> list[tuple[Group, int]]:
    """(group, instance) of every stream of a column with sorted groups."""
    return [(g, i - groups.index(g)) for i, g in enumerate(groups)]


class _MarginScan:
    """Worst leakage and conditioning over the cells of a scan, and every
    failing cell.

    A conditioning cell is a (column, trial, user); a leakage cell adds one of
    the user's cross streams.  Each stream set is reduced in array passes:
    one screened SVD per stream count, and one argmax/argmin per margin over
    arrays in (column, trial, user, stream) order, padded with -inf/+inf.
    Ties go to the first cell in scan order: trial block, column, trial,
    user, stream, where a user's conditioning cell precedes its leakage
    cells.  Failures are listed in scan order, whatever the batches.
    An unnamed scan reports failures and locations without the column."""

    def __init__(self, tol: float, sigma_tol: float, named: bool = True) -> None:
        for name, value in (("tol", tol), ("sigma_tol", sigma_tol)):
            if not (math.isfinite(value) and value > 0):
                raise ParameterError(f"{name} must be a finite positive number, got {value}")
        self.tol, self.sigma_tol, self.named = tol, sigma_tol, named
        # per margin kind: (value, scan position, trial, column, label) of the worst cell so far
        self.worst: dict[str, tuple | None] = {"leakage": None, "sigma_min": None}
        self.failures: list[tuple] = []  # (scan position, failure)

    def add(self, plan: _TablePlan, streams: _StreamSet, gains, trials: range) -> None:
        """Fold the margins of one stream set over ``trials``, given each of
        its entries with its (R, trials, b, n) gains (``_set_gains``)."""
        (C, n), T, first = streams.profiles.shape, len(trials), trials.start
        leak = np.full((C, T, len(plan.users), n), -np.inf)
        sigma = np.full((C, T, len(plan.users)), np.inf)
        # per stream count, one stack of every entry's effective matrices, in
        # entry order: each entry's slot in its stack
        size: dict[int, int] = {}
        slots = []
        for _, b, _, r, _, _ in streams.entries:
            slots.append(slice(size.get(b, 0), size.get(b, 0) + len(r)))
            size[b] = slots[-1].stop
        effs = {b: np.empty((N, T, b, b), dtype=complex) for b, N in size.items()}
        # a plain loop, so that each entry's gains are freed before the next
        # entry's are formed (zip would hold them a step longer)
        slot_of = iter(slots)
        for (u, b, rows, r, own, cross), entry_gains in gains:
            # cross gains as (R, n - b, T, b): each norm sums along the contiguous
            # combiner axis, in the order the norm of one column's gains sums
            leak[rows, :, u, : n - b] = np.linalg.norm(entry_gains[r, :, :, cross], axis=-1).swapaxes(1, 2)
            effs[b][next(slot_of)] = entry_gains[r, :, :, own].transpose(0, 2, 3, 1)
            del entry_gains
        self._fold("leakage", plan, streams, first, leak, leak > self.tol)
        del leak
        # each stack is freed once screened
        smallest = {b: self._sigma_min(effs.pop(b)) for b in list(effs)}
        for (u, b, rows, *_), slot in zip(streams.entries, slots):
            sigma[rows, :, u] = smallest[b][slot]
        self._fold("sigma_min", plan, streams, first, sigma, sigma <= self.sigma_tol)

    def _sigma_min(self, E: np.ndarray) -> np.ndarray:
        """Smallest singular value of every cell of a (N, T, b, b) stack:
        LAPACK's, as ``np.linalg.svd`` gives it, on each cell that can be the
        stack's first minimum or can fail, and +inf on every other cell.

        The screen.  A batched inverse X^ of the stack gives each cell
        l^ = 1/|X^|_F and k^ = |E|_F |X^|_F.  A cell is sound when k^ is finite
        and at most min(SCREEN_CEILING, delta / (128 u b^3 (3^b + 1))), with
        u = 2^-53 and delta = SCREEN_SLACK.  Let m be the sound cell of least
        l^.  A sound cell s skips the SVD when
        l^_s > (1 + delta) max(sqrt(b) l^_m, sigma_tol).  Every other cell keeps
        it, and so does every cell when ``inv`` raises on an exactly singular one.

        Why a skipped cell changes nothing.  Exactly, with X = inv(E),
        l = 1/|X|_F and k = |E|_F |X|_F, we have l <= sigma <= sqrt(b) l, since
        sigma = 1/|X|_2 and |X|_2 <= |X|_F <= sqrt(b) |X|_2.  Two roundings
        separate the computed values from these (Higham, Accuracy and
        Stability of Numerical Algorithms, 2002).
        - ``inv`` solves E X = I by LU with partial pivoting.  Each computed
          column solves (E + dE_j) x^_j = e_j with |dE_j|_F <= 8 u b^3 3^b |E|_F:
          Thm 9.4 with complex rounding (s. 3.6), |l_ij| <= sqrt(2) and the
          growth factor (1 + sqrt(2))^(b-1) of complex pivoting.  Hence
          |X^ - X|_F <= 8 u b^3 3^b k |X^|_F (ch. 14), and k <= 2 k^, so l^ is
          within a relative eps1 = 16 u b^3 3^b k^ of l.
        - zgesdd is backward stable: sigma^ = sigma_min(E + F) with
          |F|_2 <= p_b u |E|_2 (LAPACK Users' Guide, s. 4.9), budgeted here at
          p_b = 8 b^3.  By Weyl's inequality |sigma^ - sigma| <= p_b u |E|_F
          <= p_b u k sigma, a relative eps2 = 16 u b^3 k^.
        A sound cell has eps = eps1 + eps2 <= delta / 8, which also absorbs the
        roundings of the norms.  For a skipped cell s,
          sigma^_s >= (1 - eps)^2 l^_s > (1 + delta)(1 - eps)^2 sqrt(b) l^_m
                   >= (1 + delta)(1 - eps)^3 / (1 + eps) sigma^_m > sigma^_m,
        and likewise sigma^_s > (1 + delta)(1 - eps)^2 sigma_tol > sigma_tol.
        The cell m keeps its SVD, so s is neither the stack's minimum nor tied
        with it, and it does not fail.  Every kept cell gets the value the full
        stack's SVD gives it, since LAPACK treats each matrix on its own.  The
        minimum, its first location, and the failures are therefore unchanged.
        """
        b = E.shape[-1]
        ceiling = min(SCREEN_CEILING, SCREEN_SLACK / (128 * 2.0**-53 * b**3 * (3**b + 1)))
        sigma = np.full(E.shape[:-2], np.inf)
        keep = np.ones(sigma.shape, dtype=bool)
        inv_sq = np.empty(sigma.shape)
        # the inverse of about BATCH_COLUMN_TRIALS cells at a time, so that it
        # adds no more than that to the stack's memory
        step = max(1, BATCH_COLUMN_TRIALS // math.prod(E.shape[1:-2]))
        try:
            for lo in range(0, len(E), step):
                X = np.linalg.inv(E[lo : lo + step])
                with np.errstate(over="ignore", invalid="ignore"):  # X may not be finite
                    inv_sq[lo : lo + step] = _frobenius_sq(X)
        except np.linalg.LinAlgError:
            pass
        else:
            with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
                lower = 1 / np.sqrt(inv_sq)
                # false where the inverse is not finite
                sound = _frobenius_sq(E) * inv_sq <= ceiling**2
            if sound.any():
                floor = max(math.sqrt(b) * float(lower[sound].min()), self.sigma_tol)
                keep = ~sound | (lower <= (1 + SCREEN_SLACK) * floor)
        sigma[keep] = np.linalg.svd(E[keep], compute_uv=False)[..., -1]
        return sigma

    # per margin kind: the padding value, the pick of the first worst cell, and
    # whether a value is worse than another
    _WORST = {"leakage": (-np.inf, np.argmax, operator.gt), "sigma_min": (np.inf, np.argmin, operator.lt)}

    def _fold(self, kind, plan, streams, first, values, failing) -> None:
        """Fold one set's margins into ``worst[kind]``: its first worst cell
        replaces the worst so far when worse, or equal and earlier in scan
        order.  Failing cells join the failures."""
        pad, pick, better = self._WORST[kind]
        i = int(pick(values))
        value = float(values.flat[i])
        if value == pad:  # padding only: the set has no such cell
            return
        cell = self._cell(plan, streams, first, values.shape, i)
        worst = self.worst[kind]
        if worst is None or better(value, worst[0]) or (value == worst[0] and cell[0] < worst[1]):
            self.worst[kind] = (value, *cell)
        for i in np.flatnonzero(failing).tolist():
            position, trial, column, label = self._cell(plan, streams, first, values.shape, i)
            at = (trial, column) if self.named else (trial,)
            self.failures.append((position, at + (kind,) + label + (float(values.flat[i]),)))

    @staticmethod
    def _cell(plan, streams, first, shape, i) -> tuple:
        """(scan position, trial, 1-based column, label) of flat index i."""
        r, t, u, *j = (int(x) for x in np.unravel_index(i, shape))
        column, k = int(streams.columns[r]), plan.users[u]
        label = (k,)
        if j:  # the j-th stream that user k does not decode
            label += [s for s in _streams(plan.columns[column]) if k not in s[0]][j[0]]
        return (first, column, t, u, *j), first + t, column + 1, label

    def report(self) -> NumericReport:
        """The verdict; a margin with no cell reads 0.0 at location None."""
        margins, locations = [], []
        for kind in ("leakage", "sigma_min"):
            if self.worst[kind] is None:
                margins.append(0.0)
                locations.append(None)
                continue
            value, _, trial, column, label = self.worst[kind]
            at = {"trial": trial, "user": label[0]}
            if kind == "leakage":
                at["group"] = list(label[1])
            if self.named:
                at["column"] = column
            margins.append(value)
            locations.append(at)
        failures = tuple(f for _, f in sorted(self.failures, key=operator.itemgetter(0)))
        return NumericReport(not failures, *margins, failures, *locations)


def verify_numeric(
    column: ScheduleColumn,
    channels: ChannelRealization,
    solution: BeamformerSolution,
    tol: float = 1e-9,
    sigma_tol: float = 1e-6,
) -> NumericReport:
    """Check leakage and effective-matrix conditioning at every user (and on
    a batch, every trial): the table kernel's margin scan over this one
    column and the solution's beams.  Failures read (trial, kind, user, ...).
    ``tol`` and ``sigma_tol`` must be finite and positive."""
    scan = _MarginScan(tol, sigma_tol, named=False)
    plan = _plan_table((column,), channels.users, 1)
    beams = solution.stacked[None] if solution.stacked.ndim == 3 else solution.stacked[None, None]
    combined = {(k, b): (_hermitian(solution.combiners[k]) @ channels.H[k])[None]  # one draw
                for k, b in solution.beta.items() if b}
    for streams in plan.sets:
        gains = _set_gains(plan, streams, beams, combined, np.zeros(1, dtype=np.intp))
        scan.add(plan, streams, gains, range(beams.shape[1]))
    return scan.report()


def verify_table_numeric(
    table: ScheduleTable,
    trials: int = 100,
    seed: int = 0,
    tol: float = 1e-9,
    sigma_tol: float = 1e-6,
    symbolic: SymbolicReport | None = None,
) -> NumericReport:
    """Aggregate numeric verification over one random channel draw per trial,
    shared by every column (the module docstring's numeric run).

    Every (column, trial) must pass; the report carries the worst leakage
    and conditioning seen anywhere and where they occur, the first in
    (trial block, column, trial, user, stream) order on ties.  Failures read
    (trial, column, kind, user, ...), in scan order.  ``trials`` must be at
    least 1 and ``tol`` and ``sigma_tol`` finite and positive.  A table
    failing the symbolic check is refused; pass ``symbolic``, the table's
    own ``decodability_check`` report, to skip running that check again."""
    scan = _MarginScan(tol, sigma_tol)
    if trials < 1:
        raise ParameterError(f"trials must be at least 1, got {trials}")
    report = symbolic if symbolic is not None else decodability_check(table)
    if not report.ok:
        raise VerificationError(f"symbolic check fails: {report.witnesses[0]}")

    def fold(plan, block, layout, kernel):
        for streams, gains in kernel:
            scan.add(plan, streams, gains, block)

    _numeric_run(table, trials, seed, True, fold)
    return scan.report()
