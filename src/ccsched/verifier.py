"""Linear decodability certification.

Symbolic side: the two antenna conditions, checked on every column of a table at once,
  tx: for every scheduled group, the streams of users outside it plus the
      group's own multiplicity fit inside the transmit antenna count;
  rx: no user decodes more streams than it has receive antennas.

Numeric side: a Monte-Carlo oracle that draws random channels, stacks the
combined interference channel of every scheduled group, computes its
nullspace by thresholded SVD, places one unit-norm beamformer per stream
instance inside that nullspace, and verifies rank-nullity, interference
leakage, and per-user invertibility of the effective channel.  Every numeric
array may carry a leading trial axis, so one call handles a batch of draws.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass, field, replace

import numpy as np

from .errors import MalformedTableError, NullityDeficientError, ParameterError, VerificationError
from .model import Group, ScheduleColumn, ScheduleTable

RANK_RTOL = 1e-8
# channel draws per batch of the numeric kernel; bounds its memory
TRIAL_BLOCK = 32
# columns whose margins are reduced together; bounds the memory of the
# gathered effective matrices (a whole Fig. 3 table at once raised the
# oracle's peak RSS by 17 % for a 2-3 % faster run)
FLUSH_COLUMNS = 16


@dataclass(frozen=True)
class Witness:
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


@dataclass(frozen=True)
class SymbolicReport:
    ok: bool
    witnesses: tuple[Witness, ...]
    per_column: tuple[bool, ...]
    min_slack: int


def check_column(
    col: ScheduleColumn, users, L: int, G: int, column_index: int = 1
) -> tuple[list[Witness], int]:
    """Witnesses of violated conditions in one column, plus the minimum
    transmit-side slack (L minus the largest left-hand side over groups)."""
    report = decodability_check(ScheduleTable(tuple(users), 0, L, G, (col,)))
    return [replace(w, column=column_index) for w in report.witnesses], report.min_slack


def decodability_check(table: ScheduleTable, L: int | None = None, G: int | None = None) -> SymbolicReport:
    """Symbolic decodability verdict for every column of a table, in array passes.

    Each distinct group gets an id in sorted order and a row of user indices,
    padded with a user U that decodes nothing.  One bincount gives the
    per-(column, user) stream counts beta and np.unique the (column, group)
    multiplicities; a group's tx left-hand side is its multiplicity plus the
    column's streams minus its members' streams.  Witnesses come per column:
    tx by sorted group, then rx by user.
    """
    L, G = table.L if L is None else L, table.G if G is None else G
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


def _complex_normals(seed, shape: tuple, salt: int | None = None) -> np.ndarray:
    """Per leading index of ``shape``, a real then an imaginary block of
    standard normals from the generator of ``seed`` (mixed with ``salt`` if
    given); a sequence of seeds stacks one draw per seed on a leading axis."""
    def one(s):
        rng = np.random.default_rng(s if salt is None else np.random.SeedSequence([s, salt]))
        z = rng.standard_normal((shape[0], 2) + shape[1:])
        return z[:, 0] + 1j * z[:, 1]

    return one(seed) if np.ndim(seed) == 0 else np.stack([one(s) for s in seed])


def _hermitian(a: np.ndarray) -> np.ndarray:
    return a.conj().swapaxes(-1, -2)


@dataclass(frozen=True)
class ChannelRealization:
    """Per-user complex channel matrices, reproducible from the seed.

    ``seed`` may be a sequence: the realization is then a batch with one draw
    per seed, every array carries a leading trial axis, and each draw is bit
    for bit the one its seed gives alone.
    """

    users: tuple[int, ...]
    G: int
    L: int
    N0: float
    seed: int | tuple[int, ...]
    H: dict[int, np.ndarray] = field(compare=False, default_factory=dict)

    @staticmethod
    def draw(users, G: int, L: int, N0: float = 1.0, seed=0) -> "ChannelRealization":
        """I.i.d. unit-variance complex Gaussian entries, users in sorted order."""
        users = tuple(sorted(users))
        seed = seed if np.ndim(seed) == 0 else tuple(seed)
        h = _complex_normals(seed, (len(users), G, L)) / np.sqrt(2)
        return ChannelRealization(users, G, L, N0, seed, dict(zip(users, np.moveaxis(h, -3, 0))))

    def haar_combiner_pool(self) -> dict[int, np.ndarray]:
        """One GxG random unitary per user (QR of a Gaussian draw); combiners
        for any stream count are its leading columns."""
        z = _complex_normals(self.seed, (len(self.users), self.G, self.G), salt=0x636F6D62)
        q, rmat = np.linalg.qr(z)
        # fix the phases so the factorization is unique
        d = np.diagonal(rmat, axis1=-2, axis2=-1)
        q = q * (d / np.abs(d))[..., None, :]
        return dict(zip(self.users, np.moveaxis(q, -3, 0)))


def nullspace_basis(A: np.ndarray, dim: int) -> tuple[np.ndarray, int]:
    """Orthonormal nullspace basis of A (thresholded SVD) in C^dim.

    Returns (basis, rank).  Singular values below RANK_RTOL times the largest
    count as zero; an empty A means the nullspace is the whole space.  A stack
    of matrices (leading batch axes) gets one batched SVD: the rank is then an
    int array over the batch and the basis spans, in every matrix, the
    directions past the largest rank of the stack.
    """
    _, s, vh = np.linalg.svd(A)
    rank = np.sum(s > RANK_RTOL * s[..., :1], axis=-1)
    return _hermitian(vh[..., rank.max():, :]), int(rank) if rank.ndim == 0 else rank


@dataclass(frozen=True)
class BeamformerSolution:
    """Receive combiners and transmit beamformers for one column: ``stacked``
    is (..., L, n), one beamformer per stream in ``streams`` (group, instance)
    order, and ``beams[g]`` is the (..., L, theta_g) block of group g."""

    combiners: dict[int, np.ndarray]
    beams: dict[Group, np.ndarray]
    nullities: dict[Group, int]
    beta: dict[int, int]
    streams: tuple[tuple[Group, int], ...]
    stacked: np.ndarray


def build_beamformers(
    column: ScheduleColumn,
    channels: ChannelRealization,
    combiner_policy: str = "haar",
    cache: dict | None = None,
) -> BeamformerSolution:
    """Nullspace beamformers for one column under random channels.

    Combiners are fixed first (random orthonormal columns by default, or the
    leading left singular vectors of the user's channel for the
    "channel-aligned" policy).  For every scheduled group the interference
    channel of all outside users is stacked and the group's stream instances
    take the first theta orthonormal nullspace directions.

    Nullspaces depend only on the outside users and their stream counts: a
    caller passes one ``cache`` dict per realization and policy to share the
    combiners and the nullspace of every outside-user profile across columns.
    """
    if combiner_policy not in ("haar", "channel-aligned"):
        raise ParameterError(f"unknown combiner policy: {combiner_policy}")
    users, L = channels.users, channels.L
    theta = column.theta()
    beta = column.beta(users)
    cache = {} if cache is None else cache
    if "combiners" not in cache:
        cache["combiners"] = channels.haar_combiner_pool() if combiner_policy == "haar" else {
            k: np.linalg.svd(channels.H[k])[0] for k in users
        }
    combiners = {k: cache["combiners"][k][..., : beta[k]] for k in users}

    beams: dict[Group, np.ndarray] = {}
    nullities: dict[Group, int] = {}
    for g in sorted(theta):
        outside = [k for k in users if k not in g and beta[k] > 0]
        key = tuple((k, beta[k]) for k in outside)
        if key not in cache:
            rows = [_hermitian(combiners[k]) @ channels.H[k] for k in outside]
            rows = rows or [channels.H[users[0]][..., :0, :]]  # no outside user: (..., 0, L)
            basis, rank = nullspace_basis(np.concatenate(rows, axis=-2), L)
            cache[key] = basis, L - int(np.max(rank)), L - int(np.min(rank))
        basis, nullity, widest = cache[key]  # smallest and largest nullity over the batch
        expected = L - sum(beta[k] for k in outside)
        if nullity < theta[g]:
            raise NullityDeficientError(
                f"group {g}: nullity {nullity} cannot host {theta[g]} stream instances"
            )
        if not nullity == widest == expected:
            raise NullityDeficientError(
                f"group {g}: computed nullity (min {nullity}, max {widest}) != rank-nullity "
                f"value {expected} (non-generic channel draw)"
            )
        beams[g] = basis[..., : theta[g]]
        nullities[g] = expected
    streams = tuple((g, inst) for g in sorted(theta) for inst in range(theta[g]))
    stacked = np.concatenate([beams[g] for g in sorted(theta)], axis=-1)
    return BeamformerSolution(combiners, beams, nullities, dict(beta), streams, stacked)


@dataclass(frozen=True)
class NumericReport:
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
    solution: BeamformerSolution, channels: ChannelRealization, k: int, cache: dict | None = None
) -> tuple[np.ndarray, np.ndarray]:
    """User k's beta_k x beta_k effective matrix over its own streams, and its
    gains from every other stream, (..., beta_k, n_other); both are columns
    of one combiner^H H @ W product, in ``solution.streams`` order.

    With the ``cache`` of ``build_beamformers`` the combiner^H H factor is
    kept there and shared by every column giving user k the same stream count.
    """
    key = ("combined", k, solution.beta[k])
    cache = {} if cache is None else cache
    if key not in cache:
        cache[key] = _hermitian(solution.combiners[k]) @ channels.H[k]
    own = np.array([k in g for g, _ in solution.streams])
    gains = cache[key] @ solution.stacked
    return gains[..., own], gains[..., ~own]


class _MarginScan:
    """Worst leakage and conditioning over the (column, trial) cells of a scan.

    Columns are gathered and reduced FLUSH_COLUMNS at a time: one SVD per
    stream count and one argmax/argmin per margin.  Ties go to the first
    cell in scan order: column, then trial, then user and stream.  A column
    added without an index reports failures and locations without one."""

    def __init__(self, tol: float, sigma_tol: float) -> None:
        for name, value in (("tol", tol), ("sigma_tol", sigma_tol)):
            if not (math.isfinite(value) and value > 0):
                raise ParameterError(f"{name} must be a finite positive number, got {value}")
        self.tol, self.sigma_tol = tol, sigma_tol
        # per margin kind: (value, (column, trial, label)) of the worst cell so far
        self.worst: dict[str, tuple | None] = {"leakage": None, "sigma_min": None}
        self.failures: list[tuple] = []
        self._columns = 0
        # pending segments: ((column, first trial, labels), values or stream count)
        self._leaks: list[tuple] = []
        self._groups: list[tuple] = []
        self._effs: dict[int, list[np.ndarray]] = {}  # by stream count, for one SVD each

    def add(self, channels, solution, cache=None, column=None, first: int = 0) -> None:
        """Gather one column's margins; trials of its draws count from ``first``."""
        norms, leak_keys = [], []
        groups: dict[int, tuple[int, list]] = {}  # stream count -> (first stack index, users)
        for k in channels.users:
            b = solution.beta[k]
            if b > 0:
                eff, cross = effective_matrix(solution, channels, k, cache)
                norms.append(np.linalg.norm(cross, axis=-2))
                leak_keys += [(k, g, inst) for g, inst in solution.streams if k not in g]
                effs = self._effs.setdefault(b, [])
                groups.setdefault(b, (len(effs), []))[1].append((k,))
                effs.append(eff)
        if leak_keys:
            leak = np.concatenate(norms, axis=-1).reshape(-1, len(leak_keys))
            self._leaks.append(((column, first, leak_keys), leak))
        self._groups += [((column, first, users), (b, at)) for b, (at, users) in groups.items()]
        self._columns += 1
        if self._columns == FLUSH_COLUMNS:
            self.flush()

    def flush(self) -> None:
        """Reduce the gathered columns into the running worst margins."""
        sigmas = {
            b: np.linalg.svd(np.stack(effs, axis=-3), compute_uv=False)[..., -1]
            for b, effs in self._effs.items()
        }
        sigma = [
            (tag, sigmas[b][..., at : at + len(tag[2])].reshape(-1, len(tag[2])))
            for tag, (b, at) in self._groups
        ]
        self._fold("leakage", self._leaks, np.argmax, operator.gt, lambda v: v > self.tol)
        self._fold("sigma_min", sigma, np.argmin, operator.lt, lambda v: v <= self.sigma_tol)
        self._leaks, self._groups, self._effs, self._columns = [], [], {}, 0

    def _fold(self, kind, segments, pick, better, failing) -> None:
        """Fold the worst of (labels, (trials, members) values) segments in
        scan order into ``worst[kind]``: ``pick`` finds its first occurrence,
        ``better`` must hold strictly to replace an earlier flush's worst."""
        if not segments:
            return
        flat = np.concatenate([values.ravel() for _, values in segments])
        ends = np.cumsum([values.size for _, values in segments])

        def cell(i):
            s = int(np.searchsorted(ends, i, side="right"))
            (column, first, labels), values = segments[s]
            trial, j = divmod(int(i) - int(ends[s]) + values.size, values.shape[1])
            return column, first + trial, labels[j]

        i = pick(flat)
        worst = self.worst[kind]
        if worst is None or better(flat[i], worst[0]):
            self.worst[kind] = float(flat[i]), cell(i)
        for i in np.flatnonzero(failing(flat)):
            column, trial, label = cell(i)
            at = (trial,) if column is None else (trial, column)
            self.failures.append(at + (kind,) + label + (float(flat[i]),))

    def report(self) -> NumericReport:
        """Flush the rest; a margin with no cell reads 0.0 at location None."""
        self.flush()
        margins, locations = [], []
        for kind in ("leakage", "sigma_min"):
            if self.worst[kind] is None:
                margins.append(0.0)
                locations.append(None)
                continue
            value, (column, trial, label) = self.worst[kind]
            at = {"trial": trial, "user": label[0]}
            if kind == "leakage":
                at["group"] = list(label[1])
            if column is not None:
                at["column"] = column
            margins.append(value)
            locations.append(at)
        return NumericReport(not self.failures, *margins, tuple(self.failures), *locations)


def verify_numeric(
    column: ScheduleColumn,
    channels: ChannelRealization,
    solution: BeamformerSolution,
    tol: float = 1e-9,
    sigma_tol: float = 1e-6,
) -> NumericReport:
    """Check leakage and effective-matrix conditioning at every user (and on
    a batch, every trial).  Failures read (trial, kind, user, ...).  ``tol``
    and ``sigma_tol`` must be finite and positive."""
    scan = _MarginScan(tol, sigma_tol)
    scan.add(channels, solution)
    return scan.report()


def verify_table_numeric(
    table: ScheduleTable,
    trials: int = 100,
    seed: int = 0,
    tol: float = 1e-9,
    sigma_tol: float = 1e-6,
    combiner_policy: str = "haar",
    symbolic: SymbolicReport | None = None,
) -> NumericReport:
    """Aggregate numeric verification over random channel seeds seed + trial.

    Every (column, trial) must pass; the report carries the worst leakage
    and conditioning seen anywhere and where they occur, the first in
    (trial block, column, trial) order on ties.  Trials run in blocks of
    TRIAL_BLOCK draws whose nullspaces and combined channels are shared by
    all columns; margins are reduced FLUSH_COLUMNS columns at a time.
    Failures read (trial, column, kind, user, ...).  ``tol`` and
    ``sigma_tol`` must be finite and positive.  A table failing the
    symbolic check is refused; pass ``symbolic``, the table's own
    ``decodability_check`` report, to skip running that check again."""
    scan = _MarginScan(tol, sigma_tol)
    report = symbolic if symbolic is not None else decodability_check(table)
    if not report.ok:
        raise VerificationError(f"symbolic check fails: {report.witnesses[0]}")
    for first in range(0, trials, TRIAL_BLOCK):
        seeds = range(seed + first, seed + min(first + TRIAL_BLOCK, trials))
        channels = ChannelRealization.draw(table.users, table.G, table.L, seed=seeds)
        cache: dict = {}
        for idx, column in enumerate(table.columns, start=1):
            solution = build_beamformers(column, channels, combiner_policy, cache)
            scan.add(channels, solution, cache, column=idx, first=first)
        scan.flush()  # the next block may hold fewer draws, which do not stack with these
    return scan.report()
