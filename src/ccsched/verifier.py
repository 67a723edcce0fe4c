"""Linear decodability certification.

Symbolic side: the two antenna conditions, checked on every column of a table at once,
  tx: for every scheduled group, the streams of users outside it plus the
      group's own multiplicity fit inside the transmit antenna count;
  rx: no user decodes more streams than it has receive antennas.
Both read the loads of one array pass over the table's group slots
(``_group_slots``), from which a numeric run also refuses and plans.

Numeric side: a Monte-Carlo oracle that draws random channels, stacks the
combined interference channel of every scheduled group, computes its
nullspace by complete QR with a rank certified by bounds on R's leading
block (``nullspace_basis``), places one unit-norm beamformer per stream
instance inside that nullspace, and verifies rank-nullity, interference
leakage, and per-user invertibility of the effective channel.  Every
numeric array may carry a leading trial axis, so one call handles a batch
of draws.
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
rate sweep's (``rates.column_rates``), has one driver, ``_numeric_run``,
which alone checks the run's inputs.  It plans the table once
(``_plan_table``) in batches of ``_batch_columns`` columns, a fixed number
of column-trials, so a run of few trials takes few large batches.  Every
draw is keyed by the run's seed alone and addressed by a (trial, column)
cell in Philox's counter (``_complex_normals``), so no two cells of a run
share a draw.  The oracle shares the draw of cell (trial, 0) among all
columns and lays all stream sets out once (``_kernel_layout``); the sweep
draws cell (trial, column) for every column and lays each batch out once.
A unit of the run is one trial block of TRIAL_BLOCK trials and one layout.
Per unit, the run draws the channels and hands the kernel, ``_stream_gains``,
to the caller's reduction: the oracle's margin scan, one per unit and
merged in scan order (``_MarginScan.merge``), or the sweep's SINR step
(``rates._batch_sinrs``), whose rates go to the unit's own slice of the run's.
The kernel stacks the draws once, reads every combined channel in it as a
user's leading rows, takes one stacked nullspace QR per (draw, outside-stream
count) over the outside-user profiles present and one direction library,
and yields every stream set's own and cross gains from beams in C order, the
one layout of a column's own stack (``BeamformerSolution.stacked``), as a
BLAS product rounds by layout.  The margin scan's conditioning margin is
screened (``_MarginScan._sigma_min``): every effective matrix's smallest
singular value has a certified floor, the nullspace ranks' determinant
floor (``_log_floor``) from one batched ``slogdet`` or, where that is in
doubt, a batched inverse bound, and LAPACK's SVD runs only on the matrices
whose floor does not clear real SVD values: those of each stack's few
matrices of least floor, and the least one the scan has found.  The
floor's LU is exact for a matrix within 8 u b^3 3^b |E|_F of E, so under a
ceiling on |E|_F over the floor it loses at most a third of the slack by
which it must clear, and the report is exactly the one a full SVD gives.

The units run on every usable core.  The (trial, column) cells make every
unit independent of the others, so a run of two or more units on more than
one usable core opens one ``concurrent.futures.ThreadPoolExecutor``,
imported only then, of one thread per usable core (``_worker_count``) but no
more than the units, nor than MAX_KERNEL_ENTRIES allows at once, and maps
whole units over it while the calling thread waits; any other run, such as
the oracle's at a few trials, loops over its units on the calling thread.
Every unit computes its draw, bases, ranks and reduction as the loop does,
and the calling thread takes the results in scan order (trial block, then
layout), so every output and the first error in scan order are the
loop's, bit for bit.  Every thread is joined before the run returns or
raises, whether the kernel or the caller's reduction raised.
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
# need more is refused before the first draw (_numeric_run), and the units
# the pool runs at once hold no more together.  The tables of the tests and
# the benchmark hold under 10**6.
MAX_KERNEL_ENTRIES = 5 * 10**7
# the conditioning screen (_MarginScan._sigma_min): the relative margin by
# which a cell's lower bound must clear the threshold to skip its SVD, and the
# largest estimated ratio of |E|_F to that bound at which it is trusted
SCREEN_SLACK = 1e-2
SCREEN_CEILING = 1e6
# the cells of least determinant floor whose SVD sets each stack's threshold
SCREEN_PROBES = 4


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


def _group_slots(columns, users) -> tuple:
    """The one array pass over a table's group slots, read by the symbolic
    check and the numeric plan: (distinct, member, col, gid, beta, heads,
    theta, outside).  The sorted distinct groups and their (D, U) membership
    of the sorted ``users``; every slot's column and group id, by column and
    then group, from one sort of keys; the (n, U) stream counts beta; and per
    run of equal keys, a group's instances in a column, its first slot, its
    theta and its profile, the (runs, U) beta of the users outside the group.
    A repeated user or a member outside ``users`` raises
    MalformedTableError, naming the first."""
    slots = [g for c in columns for g in c.groups]
    distinct = sorted(set(slots))
    n, U, D, index = len(columns), len(users), max(len(distinct), 1), {k: i for i, k in enumerate(users)}
    if len(index) < U:
        raise MalformedTableError(f"user {next(k for k, j in zip(users, users[1:]) if k == j)} repeats in the user list")
    try:
        flat = [index[k] for g in distinct for k in g]
    except KeyError:
        k = next(k for g in slots for k in g if k not in index)
        raise MalformedTableError(f"user {k} not in served set {list(users)}") from None
    member = np.zeros((len(distinct), U), dtype=bool)
    member[np.repeat(np.arange(len(distinct)), [len(g) for g in distinct]), flat] = True
    gid = np.fromiter(map({g: i for i, g in enumerate(distinct)}.__getitem__, slots), np.intp, len(slots))
    key = np.sort(np.repeat(np.arange(n), [len(c.groups) for c in columns]) * D + gid)
    col, gid = np.divmod(key, D)
    s, u = np.nonzero(member[gid])
    beta = np.bincount(col[s] * U + u, minlength=n * U).reshape(n, U)
    head = np.ones(len(key), dtype=bool)
    head[1:] = key[1:] != key[:-1]  # the first slot of a run of equal keys
    heads = np.flatnonzero(head)
    theta = np.diff(heads, append=len(key))
    return distinct, member, col, gid, beta, heads, theta, beta[col[heads]] * ~member[gid[heads]]


def _symbolic_report(slots, users, L: int, G: int) -> SymbolicReport:
    """The witness step of the symbolic check, on a table's slot pass
    (``_group_slots``) over the sorted ``users``: a run of equal groups
    fails tx when its theta plus the streams outside it exceed L, and a user
    fails rx when its beta exceeds G.  Witnesses come per column: tx by
    sorted group, then rx by user."""
    distinct, _, col, gid, beta, heads, theta, outside = slots
    lhs = theta + outside.sum(axis=1)
    tx = np.flatnonzero(lhs > L)
    rx_col, rx_user = np.nonzero(beta > G)
    found = [
        Witness(c + 1, "tx", distinct[g], v, L)
        for c, g, v in zip(col[heads[tx]].tolist(), gid[heads[tx]].tolist(), lhs[tx].tolist())
    ] + [
        Witness(c + 1, "rx", (users[k],), v, G)
        for c, k, v in zip(rx_col.tolist(), rx_user.tolist(), beta[rx_col, rx_user].tolist())
    ]
    found.sort(key=lambda w: (w.column, w.condition == "rx"))  # stable: keeps each kind's order
    bad = np.zeros(len(beta), dtype=bool)
    bad[col[heads[tx]]] = bad[rx_col] = True
    # min_slack is the least of L and every L - lhs
    return SymbolicReport(not found, tuple(found), tuple((~bad).tolist()), L - int(lhs.max(initial=0)))


def _symbolic_pass(table: ScheduleTable) -> tuple:
    """A table's slot pass (``_group_slots``) over its sorted users, and the
    witness step's report on it (``_symbolic_report``)."""
    served = tuple(sorted(table.users))
    slots = _group_slots(table.columns, served)
    return slots, _symbolic_report(slots, served, table.L, table.G)


def decodability_check(table: ScheduleTable) -> SymbolicReport:
    """Symbolic decodability verdict for every column of a table: the
    witness step on its slot pass (``_symbolic_pass``)."""
    return _symbolic_pass(table)[1]


def _key_word(value) -> bool:
    """Whether ``value`` is an integer in [0, 2**64), a word of Philox's key
    or counter: a draw's seed, or either half of its (trial, column) cell."""
    return isinstance(value, (int, np.integer)) and 0 <= int(value) < 1 << 64


def _complex_normals(seed: int, cells: tuple, shape: tuple) -> np.ndarray:
    """Per leading index of ``shape``, a real then an imaginary block of
    standard normals from ``Generator(Philox(key=[seed, 0], counter=[0, 0,
    trial, column]))``, one draw per (trial, column) pair of ``cells``,
    stacked on a leading axis.

    One reused Philox is set per cell, through its ``state`` setter, to that
    generator's start: key, counter, empty buffer.  A draw advances only the
    counter's two low words, so no two cells overlap.  A cell with a word
    outside the range [0, 2**64) raises ParameterError.  The parts of a
    whole stack are combined in one operation, which is exact."""
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
    return h


def _hermitian(a: np.ndarray) -> np.ndarray:
    return a.conj().swapaxes(-1, -2)


@dataclass(frozen=True)
class ChannelRealization:
    """Per-user complex channel matrices, reproducible from the seed and cells.

    ``cells`` is one (trial, column) cell of the seed's draws, None for cell
    (0, 0), or a sequence of cells: a batch, every array with a leading trial
    axis, each draw bit for bit its cell's alone (``_complex_normals``).  The
    channels take the key [seed, 0], users in sorted order.  A cell must be
    a pair of integers in [0, 2**64) and no user may repeat, or
    ParameterError is raised."""

    users: tuple[int, ...]
    G: int
    L: int
    seed: int
    cells: tuple | None = None
    H: dict[int, np.ndarray] = field(compare=False, default_factory=dict)

    @staticmethod
    def draw(users, G: int, L: int, seed: int = 0, cells=None) -> "ChannelRealization":
        """I.i.d. unit-variance complex Gaussian entries, users in sorted order.
        The cells' form is read once, by unpacking alone: a sequence of
        (trial, column) pairs, else one pair (None: (0, 0))."""
        if not _key_word(seed):
            raise ParameterError(f"a channel draw's seed must be an integer in [0, 2**64), got {seed}")
        for one, given in ((False, cells), (True, [(0, 0) if cells is None else cells])):
            with contextlib.suppress(TypeError, ValueError):  # not a sequence of pairs
                if pairs := tuple((trial, column) for trial, column in given):
                    break
        else:
            raise ParameterError(f"a channel draw's cells must be (trial, column) pairs, got {cells}")
        users = tuple(sorted(users))
        for k, j in zip(users, users[1:]):
            if k == j:  # H would hold one draw for both
                raise ParameterError(f"a channel draw's users must be distinct: user {k} repeats")
        h = _complex_normals(seed, pairs, (len(users), G, L))
        h /= np.sqrt(2)
        h = h[0] if one else h
        return ChannelRealization(users, G, L, seed, cells if one else pairs, dict(zip(users, np.moveaxis(h, -3, 0))))

    def haar_combiner_pool(self) -> dict[int, np.ndarray]:
        """Every user's receive combiners: the GxG identity, broadcast over
        the batch (read-only), whose leading b columns select the first b
        receive antennas (the module docstring says why that loses nothing).
        Nothing is drawn.  The name is historical: it stays only because the
        benchmark's tracer, ``bench/tracer.py``, binds it, until the
        benchmark reads a trace the library owns (ROADMAP.md)."""
        batch = () if np.ndim(self.cells) < 2 else (len(self.cells),)
        return dict.fromkeys(self.users, np.broadcast_to(np.eye(self.G, dtype=complex), batch + (self.G, self.G)))


def _log_floor(log_det: np.ndarray, h2: np.ndarray, b: int) -> np.ndarray:
    """log of the determinant floor f on the smallest singular value s_b of
    b x b matrices M, from log|det M| and h^2 = |M|_F^2 (Hong and Pan,
    Linear Algebra Appl. 1992): s_b times the other b - 1 values is |det M|,
    and by AM-GM their squares multiply to at most (h^2/(b-1))^(b-1), so
    s_b >= f = |det M| ((b-1)/h^2)^((b-1)/2), which is |M| at b = 1.  In
    logarithms no power overflows and no product underflows; it loosens
    exponentially in b.  A nan or -inf log clears no threshold.

    Its rounding (Higham, Accuracy and Stability of Numerical Algorithms,
    2002; u = 2^-53, small constants dropped).  Each caller sums log|det|
    over the diagonal of a triangular factor that is exact for M + dM with
    |dM|_F <= c u h: R of a QR (Thm 19.4) or U of an LU with partial
    pivoting (Thm 9.3).  So the computed f^ is the floor of M + dM, taken
    with h for |M + dM|_F, which moves it by at most (1 + c u)^(b-1), and
    with the logarithms' roundings, under b^2 u |log f|; and s_b(M + dM) is
    within c u h of s_b by Weyl's inequality.  Hence s_b >= f^ (1 - rho -
    c u h/f^) with rho about b c u: a caller trusts f^ only under a ceiling
    on h/f^, its soundness ceiling, that makes both terms small."""
    return log_det - (b - 1) / 2 * (np.log(h2) - math.log(max(b - 1, 1)))


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
    QR does not reveal rank, so the rank is screened from R's leading r x r
    block T, which has A's singular values s_1 >= ... >= s_r, and h = |T|_F
    >= s_1.  First the determinant floor f (``_log_floor``), with |det T| =
    prod_i |t_ii|: s_r >= h l with l = f/h.  It takes no
    LAPACK call but clears random r x (r+1) matrices only up to r of about
    32, none from 40, so the matrices it leaves in doubt take the inverse
    bound s_r >= h l' = 1/|X|_F >= s_r/sqrt(r), X a batched inverse of T.
    A matrix with l or l' > (1 + SCREEN_SLACK) RANK_RTOL has rank r; every
    other one (not finite, h = 0, or an exactly singular T, for which
    ``inv`` raises) takes the thresholded SVD's rank.  A stack whose largest
    rank is below r, and an A with r = 0 or r >= L, take the SVD's basis
    instead: its trailing right singular vectors.

    Why a screened matrix has the SVD's rank (Higham, Accuracy and Stability
    of Numerical Algorithms, 2002; u = 2^-53, small constants dropped): the
    computed T is the exact factor of A^H + E, |E|_F <= L r u |A|_F (Thm
    19.4), so by Weyl's inequality each of its singular values is within
    L r u h of A's, and ``_log_floor`` gives s_r >= h l (1 - r^2 L u -
    L r u/l) with 1/l < 1e8; ``inv`` pivots nowhere on a triangular T, so
    each column of X solves (T + dT_j) x_j = e_j with |dT_j|_F <= r u h
    (Thm 8.5), and l' is within a relative r u h/s_r < r u 1e8 of its value
    on T; and zgesdd's values are within r u |A|_2 of A's (LAPACK Users'
    Guide, s. 4.9).  For L and r below about 300 each error is below 1e-3 of
    A's smallest singular value, for which l or l' > RANK_RTOL vouches, so
    the slack of 1 % absorbs them all: the SVD's smallest value clears
    RANK_RTOL times its largest; its rank is r.
    """
    r, L = A.shape[-2:]
    if 0 < r < L:
        q, R = np.linalg.qr(_hermitian(A), mode="complete")
        T = R[..., :r, :]
        rank = np.full(A.shape[:-2], r)
        floor = (1 + SCREEN_SLACK) * RANK_RTOL
        with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
            # the docstring's l and l': nan, 0 and -inf do not clear
            h2 = _frobenius_sq(T)
            log_l = _log_floor(np.log(np.abs(np.diagonal(T, axis1=-2, axis2=-1))).sum(-1), h2, r) - np.log(h2) / 2
            doubt = np.asarray(~(log_l > math.log(floor)))
            if doubt.any():
                with contextlib.suppress(np.linalg.LinAlgError):  # an exactly singular T
                    doubt[doubt] = ~(1 / np.sqrt(h2[doubt] * _frobenius_sq(np.linalg.inv(T[doubt]))) > floor)
        if doubt.any():
            s = np.linalg.svd(A[doubt], compute_uv=False)
            rank[doubt] = np.sum(s > RANK_RTOL * s[..., :1], axis=-1)
        if rank.max() == r:
            return q[..., r:], int(rank) if rank.ndim == 0 else rank
    _, s, vh = np.linalg.svd(A)
    rank = np.sum(s > RANK_RTOL * s[..., :1], axis=-1)
    return _hermitian(vh[..., rank.max():, :]), int(rank) if rank.ndim == 0 else rank


class BeamformerSolution(NamedTuple):
    """Transmit beamformers for one column: ``stacked`` is (..., L, n) in C
    order, one beamformer per stream in ``streams`` order, and ``beams[g]``
    is the (..., L, theta_g) block of group g."""

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

    User k combines its first beta_k receive antennas, the leading beta_k
    rows of its draw.  For every scheduled group the combined channels of
    all outside users are stacked and the group's stream instances take the
    first theta orthonormal nullspace directions.  The column is built from
    its own draw alone; the table kernel (``_stream_gains``) gives the same
    beams while sharing nullspaces across columns.

    Raises NullityDeficientError when a nullspace cannot host its group's
    instances, or when its dimension anywhere in the batch is not the
    rank-nullity value L minus the outside streams.
    """
    users, L = channels.users, channels.L
    theta = column.theta()
    beta = column.beta(users)
    empty = channels.H[users[0]][..., :0, :]  # no outside user: (..., 0, L)
    beams: dict[Group, np.ndarray] = {}
    nullities: dict[Group, int] = {}
    for g in sorted(theta):
        outside = [k for k in users if k not in g and beta[k] > 0]
        # the outside users' combined channels, their draws' leading rows, stacked
        rows = [channels.H[k][..., : beta[k], :] for k in outside]
        basis, rank = nullspace_basis(np.concatenate(rows or [empty], axis=-2))
        nullities[g] = L - sum(beta[k] for k in outside)
        _check_nullity(g, theta[g], L - int(np.max(rank)), L - int(np.min(rank)), nullities[g])
        beams[g] = basis[..., : theta[g]]
    streams = tuple((g, inst) for g in sorted(theta) for inst in range(theta[g]))
    batch = channels.H[users[0]].shape[:-2]
    stacked = np.concatenate([beams[g] for g in sorted(theta)] or [np.zeros(batch + (L, 0))], axis=-1)
    return BeamformerSolution(beams, nullities, dict(beta), streams, np.ascontiguousarray(stacked))


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
    of one product of its combined channel, the leading beta_k rows of its
    draw, with the stacked beams, in ``solution.streams`` order."""
    own = np.array([k in g for g, _ in solution.streams])
    gains = channels.H[k][..., : solution.beta[k], :] @ solution.stacked
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


def _plan_table(slots, users: tuple[int, ...], width: int) -> _TablePlan:
    """Stream order, outside-user profiles and per-(user, stream count) index
    arrays of every column, from a table's slot pass (``_group_slots``);
    batches of ``width`` columns are split into stream sets by stream total."""
    distinct, member, col, gid, beta, heads, theta, outside = slots
    n = np.bincount(col, minlength=len(beta))  # every column's stream total
    starts = np.cumsum(n) - n
    groups = [distinct[g] for g in gid.tolist()]  # by column, each column's in sorted order
    cols = tuple(tuple(groups[s : s + k]) for s, k in zip(starts.tolist(), n.tolist()))
    run = np.repeat(np.arange(len(heads)), theta)  # every slot's run
    # an id per distinct profile from one lexicographic sort (np.unique(axis=0) is slower)
    by = np.lexsort(outside.T[::-1])
    new = np.ones(len(by), dtype=bool)
    new[1:] = (outside[by[1:]] != outside[by[:-1]]).any(axis=1)
    pid = np.empty(len(by), dtype=np.intp)
    pid[by] = np.cumsum(new) - 1
    keys = [tuple((users[i], b) for i, b in enumerate(row) if b) for row in outside[by[new]].tolist()]
    take = np.zeros(len(keys), dtype=np.intp)
    np.maximum.at(take, pid, theta)
    runs = np.stack([col[heads], heads - starts[col[heads]], pid, theta], axis=1)
    profile, instance = pid[run], np.arange(len(gid)) - heads[run]
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
            order = np.argsort(~member[gid[stream[pair_row]], pair_user[:, None]], axis=1, kind="stable")
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


def _set_gains(streams: _StreamSet, beams: np.ndarray, h: np.ndarray, draws: np.ndarray):
    """Every entry of a stream set with its (R, trials, b, n) gains, one entry
    at a time, from the set's (C, trials, L, n) beams and the first b rows of
    user position u in the (D, trials, U, G, L) draws ``h``; ``draws`` gives
    each of the set's columns its draw.  The beams are freed with the
    generator, once its last entry is taken."""
    for entry in streams.entries:
        u, b, rows = entry[:3]
        channel = h[:, :, u, :b]  # one draw broadcasts over the columns
        yield entry, (channel if len(h) == 1 else channel[draws[rows]]) @ beams[rows]


class _KernelLayout(NamedTuple):
    """What the kernel needs of a batch of stream sets that no draw changes."""

    draw: np.ndarray  # the draw of every column of the table
    draws: int  # D: the channels stack D draws over the same trials
    columns: np.ndarray  # the sets' columns, ascending
    # per set: the set, the draw of each of its columns, and the (C, n)
    # direction-library index of every stream
    sets: tuple[tuple[_StreamSet, np.ndarray, np.ndarray], ...]
    # per (draw, outside-stream count r): the draw, the profiles, the (P, r, 2)
    # (user position, antenna) rows of each profile's outside users, and the
    # directions kept of each profile; the library holds them in this order
    stacks: tuple[tuple[int, np.ndarray, np.ndarray, int], ...]


def _kernel_layout(plan: _TablePlan, sets, draw: np.ndarray) -> _KernelLayout:
    """The layout of ``sets`` in the kernel's libraries, with ``draw`` the
    draw of every column: one for all in the oracle, one per column of a
    batch in the rate sweep."""
    columns = np.array(sorted({c for streams in sets for c in streams.columns.tolist()}), dtype=np.intp)
    D = int(draw[columns].max(initial=0)) + 1
    pairs: dict[tuple[int, int], list] = {}  # the sets' profiles by draw and outside-stream count
    for d, p in sorted({(d, p) for s in sets for d, row in zip(draw[s.columns].tolist(), s.profiles.tolist()) for p in row}):
        pairs.setdefault((d, int(plan.outside[p])), []).append(p)
    offset = np.zeros((D, len(plan.directions)), dtype=np.intp)  # where each pair's directions start
    stacks, seen = [], 0
    for (d, r), profiles in pairs.items():
        # an outside user decoding b streams gives the rows of its first b antennas
        rows = [[(plan.users.index(k), i) for k, b in plan.directions[p] for i in range(b)] for p in profiles]
        m = int(plan.take[profiles].max())
        offset[d, profiles] = seen + m * np.arange(len(profiles))
        seen += m * len(profiles)
        stacks.append((d, np.array(profiles), np.array(rows, dtype=np.intp).reshape(len(profiles), r, 2), m))
    sets = tuple((s, draw[s.columns], offset[draw[s.columns][:, None], s.profiles] + s.instances) for s in sets)
    return _KernelLayout(draw, D, columns, sets, tuple(stacks))


def _worker_count() -> int:
    """The threads of the run's pool: one per usable core, or none on one
    core, where the calling thread runs every unit."""
    try:
        cores = len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity on this platform
        cores = os.cpu_count() or 1
    return cores if cores > 1 else 0


def _stack_nullspaces(h: np.ndarray, stacks) -> tuple[np.ndarray, list]:
    """The (trials, direction, L) direction library of every (draw,
    outside-stream count) stack of draws ``h``, in stack order, and its ranks."""
    T, L = h.shape[1], h.shape[-1]
    starts = np.cumsum([0] + [len(index) * m for _, _, index, m in stacks]).tolist()
    library = np.empty((T, starts[-1], L), dtype=h.dtype)
    ranks = []
    for (d, _, index, m), lo, hi in zip(stacks, starts, starts[1:]):
        # one QR of the (P, T, r, L) stack of the profiles' outside combined channels
        basis, rank = nullspace_basis(h[d][:, index[..., 0], index[..., 1]].swapaxes(0, 1))
        # (trials, profile, direction, L), each direction contiguous; the
        # run's symbolic check leaves at least m = theta <= L - r directions
        library[:, lo:hi].reshape(T, len(index), m, L)[:] = basis[..., :m].swapaxes(-1, -2).swapaxes(0, 1)
        ranks.append(rank)
    return library, ranks


def _stream_gains(plan: _TablePlan, layout: _KernelLayout, channels: ChannelRealization):
    """The numeric kernel of a batch of stream sets and a trial block, whose
    channels stack the layout's draws: every set with its entries' gains
    (``_set_gains``), from the draws stacked once, whose leading rows are
    the combined channels (antenna selection), one nullspace QR per (draw,
    outside-stream count) (``_stack_nullspaces``), and one direction
    library.  LAPACK and BLAS see each matrix on its own and in the layout
    of its one-column product, so every gain is the one-column one, bit for
    bit.  Before any gain, raises NullityDeficientError at the first run of
    groups in scan order (column, then group) whose nullspace is not the
    rank-nullity value in every trial, a degenerate draw (the run's symbolic
    check leaves room)."""
    if not layout.sets:
        return
    L = channels.L
    # (D, T, U, G, L): the draws, stacked once; combined channels are leading rows
    h = np.stack([channels.H[k] for k in plan.users], axis=1)
    h = h.reshape(layout.draws, -1, *h.shape[1:])
    del channels  # frees the draw, when the caller keeps no reference to it
    library, ranks = _stack_nullspaces(h, layout.stacks)
    if any((rank != index.shape[1]).any() for rank, (_, _, index, _) in zip(ranks, layout.stacks)):
        # raise at the first run of groups, in scan order, that a failing
        # (draw, profile) pair shapes, with the pair's smallest and largest nullity
        nullity = {(d, p): (L - int(r.max()), L - int(r.min()))
                   for (d, profiles, _, _), rank in zip(layout.stacks, ranks) for p, r in zip(profiles.tolist(), rank)}
        for c, at, p, theta in plan.runs[np.isin(plan.runs[:, 0], layout.columns)].tolist():
            _check_nullity(plan.columns[c][at], theta, *nullity[int(layout.draw[c]), p], L - int(plan.outside[p]))
    for streams, draws, index in layout.sets:
        # no reference to the beams here: the entries' generator frees them
        yield streams, _set_gains(streams, _stream_beams(library, index), h, draws)


def _numeric_run(table: ScheduleTable, trials: int, seed: int, shared: bool, reduce, checked=None) -> list:
    """Run the kernel over ``trials`` draws of a table, as the module
    docstring describes: cell (trial, 0) shared by every column if
    ``shared``, else cell (trial, column).  Per unit, one trial block of one
    layout, it draws the channels and returns ``reduce(plan, block, layout,
    kernel)``, with the block's range of trials and the kernel's generator of
    stream sets and gains; the run returns every unit's result in scan
    order: trial block, then layout.  Before any draw it checks the run's
    inputs: ParameterError below one trial; on the table's slot pass and
    symbolic report (``_symbolic_pass``, or ``checked`` when the caller has
    taken them), MalformedTableError (``_group_slots``) and the symbolic
    check's VerificationError, with its first witness; and ParameterError if
    a trial block's channel draws and nullspace Q factors would hold more
    than MAX_KERNEL_ENTRIES complex entries."""
    if trials < 1:
        raise ParameterError(f"trials must be at least 1, got {trials}")
    users, width = tuple(sorted(table.users)), _batch_columns(trials)
    slots, symbolic = checked or _symbolic_pass(table)
    G, L = table.G, table.L
    if not symbolic.ok:
        raise VerificationError(f"table fails the symbolic check: {symbolic.witnesses[0]}")
    plan = _plan_table(slots, users, width)
    if shared:
        layouts = [_kernel_layout(plan, plan.sets, np.zeros(len(plan.columns), dtype=np.intp))]
    else:
        batches: dict[int, list] = {}  # the stream sets of every batch of columns
        for streams in plan.sets:
            batches.setdefault(int(streams.columns[0]) // width, []).append(streams)
        draw = np.arange(len(plan.columns)) % width  # one draw per column of a batch
        layouts = [_kernel_layout(plan, sets, draw) for sets in batches.values()]
    largest = 1
    for layout in layouts:  # a trial block's draws and L x L Q factors
        matrices = sum(len(index) for _, _, index, _ in layout.stacks)
        entries = min(trials, TRIAL_BLOCK) * (layout.draws * len(users) * G * L + matrices * L * L)
        if entries > MAX_KERNEL_ENTRIES:
            raise ParameterError(f"L = {L}, G = {G}: a trial block would hold {entries} complex entries, "
                                 f"more than {MAX_KERNEL_ENTRIES}, in its channel draws and nullspace Q factors")
        largest = max(largest, entries)
    # every trial block, or the first alone when no column carries a stream
    units = [(range(first, min(first + TRIAL_BLOCK, trials)), layout)
             for first in range(0, trials if plan.sets else 1, TRIAL_BLOCK) for layout in layouts]

    def unit(block: range, layout: _KernelLayout):
        cells = [(t, 0) for t in block] if shared else [(t, c) for c in layout.columns.tolist() for t in block]
        # no name here for the draw: the kernel, its only holder, frees it once sliced
        kernel = _stream_gains(plan, layout, ChannelRealization.draw(users, G, L, seed=seed, cells=cells))
        return reduce(plan, block, layout, kernel)

    threads = min(_worker_count(), len(units), MAX_KERNEL_ENTRIES // largest)
    if threads < 2:
        return [unit(*u) for u in units]
    from concurrent.futures import ThreadPoolExecutor  # here: no other command needs it

    with ThreadPoolExecutor(threads, "ccsched-kernel") as pool:
        # map yields in unit order and raises the first error in that order
        return list(pool.map(unit, *zip(*units)))


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
        # each stack is freed once screened, against the least value found so far
        found = self.worst["sigma_min"][0] if self.worst["sigma_min"] else np.inf
        smallest = {}
        for b in list(effs):
            smallest[b] = self._sigma_min(effs.pop(b), found)
            found = min(found, float(smallest[b].min()))
        for (u, b, rows, *_), slot in zip(streams.entries, slots):
            sigma[rows, :, u] = smallest[b][slot]
        self._fold("sigma_min", plan, streams, first, sigma, sigma <= self.sigma_tol)

    def _sigma_min(self, E: np.ndarray, found: float) -> np.ndarray:
        """Smallest singular value of every cell of a (N, T, b, b) stack:
        LAPACK's, as ``np.linalg.svd`` gives it, on each cell that can be the
        scan's first minimum or can fail, and +inf on every other cell, given
        ``found``, the least value the scan has found (+inf: none).

        The screen.  With h = |E|_F, u = 2^-53, delta = SCREEN_SLACK and the
        soundness ceiling C = min(SCREEN_CEILING, delta / (128 u b^3 (3^b +
        1))), every cell takes the determinant floor f^ (``_log_floor``) from
        one batched ``slogdet``.  The SCREEN_PROBES cells of least f^ take the
        SVD, and U is the least of their values and ``found``: real values of
        the scan, so no cell above U is the minimum or ties with it.  A cell
        skips the SVD when f^ > t = (1 + delta) max(U, sigma_tol) and h/f^ <= C.
        The others (an exactly singular or subnormal-pivot cell, whose floor is
        not finite or not sound, among them) take a batched inverse X^: with
        l^ = 1/|X^|_F and k^ = h |X^|_F, a cell skips when l^ > t and k^ <= C.
        Every other cell keeps the SVD, and so does every one left when
        ``inv`` raises on an exactly singular one.

        Why a skipped cell changes nothing.  Exactly, sigma >= f and sigma >=
        l = 1/|X|_F with X = inv(E), as sigma = 1/|X|_2 and |X|_2 <= |X|_F.
        Roundings separate the computed values from these (Higham, Accuracy
        and Stability of Numerical Algorithms, 2002).
        - LU with partial pivoting, in ``slogdet`` and ``inv``, is exact for
          E + dE with |dE|_F <= 8 u b^3 3^b h: Thm 9.3 with complex rounding
          (s. 3.6), |l_ij| <= sqrt(2) and the growth factor (1 + sqrt(2))^(b-1)
          of complex pivoting.  By ``_log_floor`` the floor loses a relative
          8 u b^3 3^b (b + h/f^) <= (sqrt(b) + 1) delta/16, as C >= h/f^ >=
          h/sigma >= sqrt(b); that is at most 5 delta/16 for b <= 16, and past
          16 C < sqrt(b), so no floor is sound.  Each computed column of X^
          solves (E + dE_j) x^_j = e_j (Thm 9.4), so |X^ - X|_F <= 8 u b^3 3^b
          k |X^|_F (ch. 14), and k <= 2 k^: l^ is within a relative
          16 u b^3 3^b k^ of l.
        - zgesdd is backward stable: sigma^ = sigma_min(E + F) with |F|_2 <=
          p_b u |E|_2 (LAPACK Users' Guide, s. 4.9), budgeted at p_b = 8 b^3,
          so by Weyl's inequality |sigma^ - sigma| <= 8 u b^3 h, a relative
          8 u b^3 h/f^ or 8 u b^3 k^ of the bounds.
        A skipped cell's bound is sound, so these add to at most delta/2,
        which also absorbs the roundings of the norms, and its bound exceeds t:
          sigma^_s > (1 - delta/2)(1 + delta) max(U, sigma_tol) > max(U, sigma_tol).
        So s is neither the minimum nor tied with it, and it does not fail.
        Every kept cell gets the value the full stack's SVD gives it, since
        LAPACK treats each matrix on its own.  The minimum, its first location,
        and the failures are therefore unchanged.
        """
        b = E.shape[-1]
        log_ceiling = min(math.log(SCREEN_CEILING), math.log(SCREEN_SLACK / (128 * 2.0**-53 * b**3)) - math.log(3**b + 1))
        sigma = np.full(E.shape[:-2], np.inf)
        cells, flat = E.reshape(-1, b, b), sigma.reshape(-1)
        h2 = _frobenius_sq(cells)
        with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
            # nan, -inf and +inf floors are not sound
            log_floor = _log_floor(np.linalg.slogdet(cells)[1], h2, b)
            sound = np.log(h2) / 2 - log_floor <= log_ceiling
        probes = np.linalg.svd(cells[np.argsort(log_floor)[:SCREEN_PROBES]], compute_uv=False)[:, -1]  # -inf first, nan last
        bound = (1 + SCREEN_SLACK) * max(min(found, float(probes.min())), self.sigma_tol)
        keep = np.flatnonzero(~(sound & (log_floor > math.log(bound))))
        inv_sq = np.empty(len(keep))
        try:
            # about BATCH_COLUMN_TRIALS cells at a time, which bounds the inverse's memory
            for lo in range(0, len(keep), BATCH_COLUMN_TRIALS):
                X = np.linalg.inv(cells[keep[lo : lo + BATCH_COLUMN_TRIALS]])
                with np.errstate(over="ignore", invalid="ignore"):  # X may not be finite
                    inv_sq[lo : lo + BATCH_COLUMN_TRIALS] = _frobenius_sq(X)
        except np.linalg.LinAlgError:
            pass
        else:
            with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
                # false where the inverse is not finite
                keep = keep[~((1 / np.sqrt(inv_sq) > bound) & (np.log(h2[keep] * inv_sq) / 2 <= log_ceiling))]
        flat[keep] = np.linalg.svd(cells[keep], compute_uv=False)[..., -1]
        return sigma

    # per margin kind: the padding value, the pick of the first worst cell, and
    # whether a value is worse than another
    _WORST = {"leakage": (-np.inf, np.argmax, operator.gt), "sigma_min": (np.inf, np.argmin, operator.lt)}

    def _fold(self, kind, plan, streams, first, values, failing) -> None:
        """Fold one set's margins into ``worst[kind]``: its first worst cell
        replaces the worst so far when worse, or equal and earlier in scan
        order.  Failing cells join the failures."""
        pad, pick, _ = self._WORST[kind]
        i = int(pick(values))
        value = float(values.flat[i])
        if value == pad:  # padding only: the set has no such cell
            return
        self._keep(kind, (value, *self._cell(plan, streams, first, values.shape, i)))
        for i in np.flatnonzero(failing).tolist():
            position, trial, column, label = self._cell(plan, streams, first, values.shape, i)
            at = (trial, column) if self.named else (trial,)
            self.failures.append((position, at + (kind,) + label + (float(values.flat[i]),)))

    def _keep(self, kind, candidate) -> None:
        """Make ``candidate``, a (value, scan position, ...) cell, the worst
        of its kind when it is worse than the worst so far, or equal and
        earlier in scan order."""
        better, worst = self._WORST[kind][2], self.worst[kind]
        if worst is None or better(candidate[0], worst[0]) or (candidate[0] == worst[0] and candidate[1] < worst[1]):
            self.worst[kind] = candidate

    def merge(self, other: "_MarginScan") -> None:
        """Fold another scan's cells into this one: its worst cells by the
        rule of ``_keep``, and its failures.  A scan keeps the worst cell by
        value, then by scan position, and sorts its failures by position, so
        the scans of disjoint units, merged in scan order, report as one scan
        of them all."""
        for kind, worst in other.worst.items():
            if worst is not None:
                self._keep(kind, worst)
        self.failures += other.failures

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
    plan = _plan_table(_group_slots((column,), channels.users), channels.users, 1)
    beams = solution.stacked[None] if solution.stacked.ndim == 3 else solution.stacked[None, None]
    h = np.stack([channels.H[k] for k in channels.users], axis=-3)
    h = h.reshape(1, -1, *h.shape[-3:])  # (1, trials, U, G, L): one draw
    for streams in plan.sets:
        gains = _set_gains(streams, beams, h, np.zeros(1, dtype=np.intp))
        scan.add(plan, streams, gains, range(beams.shape[1]))
    return scan.report()


def verify_table_numeric(
    table: ScheduleTable,
    trials: int = 100,
    seed: int = 0,
    tol: float = 1e-9,
    sigma_tol: float = 1e-6,
    *,
    checked: tuple | None = None,
) -> NumericReport:
    """Aggregate numeric verification over one random channel draw per trial,
    shared by every column (the module docstring's numeric run).

    Every (column, trial) must pass; the report carries the worst leakage
    and conditioning seen anywhere and where they occur, the first in
    (trial block, column, trial, user, stream) order on ties.  Failures read
    (trial, column, kind, user, ...), in scan order.  ``tol`` and
    ``sigma_tol`` must be finite and positive; the run refuses fewer than
    one trial and a table failing the symbolic check (``_numeric_run``).
    ``checked`` is this table's slot pass and symbolic report from
    ``_symbolic_pass``, when the caller has taken them (``verify
    --numeric`` does, for its printed report), so that the run does not
    take them again."""
    scan = _MarginScan(tol, sigma_tol)

    def fold(plan, block, layout, kernel):
        unit = _MarginScan(tol, sigma_tol)
        for streams, gains in kernel:
            unit.add(plan, streams, gains, block)
        return unit

    for unit in _numeric_run(table, trials, seed, True, fold, checked):
        scan.merge(unit)
    return scan.report()
