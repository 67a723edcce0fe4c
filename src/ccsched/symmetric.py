"""Reference symmetric scheduling: hat-parameters, feasible stream counts,
base partition construction, and replication/regrouping into the reference
table.

The base partition splits all C(omega, t+1) groups into S_hat columns of
B_hat groups so that every user appears exactly beta_hat times per column.
Baranyai's theorem guarantees one for every shape, and its stage-wise
max-flow proof builds it directly (``resolution_partition``): the cost
depends only on the shape.
"""

from __future__ import annotations

import math
from typing import NamedTuple

from .errors import ConstructionError, ParameterError
from .model import Group, ScheduleColumn, ScheduleTable, enumerate_groups

DEFAULT_DELTA_MAX = 12


class HatParams(NamedTuple):
    """Base-partition shape: per-column user multiplicity, column size, count."""

    beta_hat: int
    B_hat: int
    S_hat: int


class SymmetricPlan(NamedTuple):
    """A concrete (eta, delta) choice on top of the base partition."""

    omega: int
    t: int
    hat: HatParams
    eta: int
    delta: int

    @property
    def beta(self) -> int:
        return self.eta * self.hat.beta_hat

    @property
    def B(self) -> int:
        return self.eta * self.hat.B_hat

    @property
    def S(self) -> int:
        return self.delta * self.hat.S_hat // self.eta


def hat_params(omega: int, t: int) -> HatParams:
    """Integer triple describing the base partition for (omega, t)."""
    if t < 0:
        raise ParameterError(f"t must be non-negative, got t={t}")
    if omega < t + 1:
        raise ParameterError(f"need omega >= t+1, got omega={omega}, t={t}")
    g = math.gcd(t + 1, omega)
    beta_hat = (t + 1) // g
    b_hat = omega // g
    s_hat, rem = divmod(math.comb(omega, t + 1), b_hat)
    assert rem == 0, "C(omega, t+1) is always divisible by omega/gcd(t+1, omega)"
    return HatParams(beta_hat, b_hat, s_hat)


def _eta_bound(L: int, G: int, t: int, omega: int, hat: HatParams) -> int:
    """Largest eta allowed by the transmit- and receive-antenna constraints."""
    if L < 1 or G < 1:
        raise ParameterError(f"L and G must be at least 1, got L={L}, G={G}")
    tx = L * hat.S_hat // (1 + (omega - t - 1) * hat.S_hat * hat.beta_hat)
    return min(tx, G // hat.beta_hat)


def min_delta(eta: int, s_hat: int) -> int:
    """Smallest delta with delta*S_hat divisible by eta."""
    return eta // math.gcd(eta, s_hat)


def feasible_beta_set(
    L: int, G: int, t: int, omega: int, delta_max: int = DEFAULT_DELTA_MAX
) -> list[int]:
    """All symmetric per-user stream counts admissible at these parameters.

    Members are eta*beta_hat for every eta meeting the antenna bounds and
    admitting an integer regrouping with delta <= delta_max.  An empty list is
    a valid result, not an error; L or G below 1 or a negative t is one.
    """
    if delta_max < 1:
        raise ParameterError("delta_max must be at least 1")
    hat = hat_params(omega, t)
    # min_delta(eta, S_hat) >= eta / S_hat, so no eta past delta_max * S_hat admits one
    top = min(_eta_bound(L, G, t, omega, hat), delta_max * hat.S_hat)
    return [eta * hat.beta_hat for eta in range(1, top + 1) if min_delta(eta, hat.S_hat) <= delta_max]


def plan_symmetric(
    L: int,
    G: int,
    t: int,
    omega: int,
    beta: int,
    delta_max: int = DEFAULT_DELTA_MAX,
    min_columns: int = 1,
) -> SymmetricPlan:
    """Resolve beta into the canonical (eta, delta) plan.

    ``min_columns`` can be raised to 2 by callers that need a donor column;
    delta is then doubled as needed (any multiple keeps the plan valid).
    """
    hat = hat_params(omega, t)
    if beta % hat.beta_hat != 0:
        raise ParameterError(f"beta={beta} is not a multiple of beta_hat={hat.beta_hat}")
    eta = beta // hat.beta_hat
    if eta < 1 or eta > _eta_bound(L, G, t, omega, hat):
        raise ParameterError(f"beta={beta} is outside the feasible set for these parameters")
    delta = min_delta(eta, hat.S_hat)
    plan = SymmetricPlan(omega, t, hat, eta, delta)
    while plan.S < min_columns:
        delta += min_delta(eta, hat.S_hat)
        plan = SymmetricPlan(omega, t, hat, eta, delta)
    if plan.delta > delta_max:
        raise ParameterError(f"no delta <= {delta_max} yields an integer regrouping")
    return plan


class _Dinic:
    """Minimal deterministic max-flow (integer capacities)."""

    def __init__(self, n: int):
        self.adj: list[list[list[int]]] = [[] for _ in range(n)]

    def add(self, u: int, v: int, cap: int) -> None:
        self.adj[u].append([v, cap, len(self.adj[v])])
        self.adj[v].append([u, 0, len(self.adj[u]) - 1])

    def maxflow(self, src: int, dst: int) -> int:
        flow = 0
        n = len(self.adj)
        while True:
            level = [-1] * n
            level[src] = 0
            queue = [src]
            for u in queue:
                for v, cap, _ in self.adj[u]:
                    if cap > 0 and level[v] < 0:
                        level[v] = level[u] + 1
                        queue.append(v)
            if level[dst] < 0:
                return flow
            it = [0] * n

            def augment(u: int, limit: int) -> int:
                if u == dst:
                    return limit
                while it[u] < len(self.adj[u]):
                    edge = self.adj[u][it[u]]
                    v, cap, rev = edge
                    if cap > 0 and level[v] == level[u] + 1:
                        pushed = augment(v, min(limit, cap))
                        if pushed:
                            edge[1] -= pushed
                            self.adj[v][rev][1] += pushed
                            return pushed
                    it[u] += 1
                return 0

            while True:
                pushed = augment(src, 1 << 60)
                if not pushed:
                    break
                flow += pushed


def resolution_partition(omega: int, size: int) -> list[list[Group]]:
    """All size-subsets of [omega] split into classes of omega/gcd(size, omega)
    parts in which every element appears exactly size/gcd(size, omega) times.

    When size divides omega these are parallel classes.  Stage-wise
    construction (Baranyai): elements are added one at a time, and a max-flow
    decides, for every class, which ``degree`` of its partial parts receive
    the new element.  Demands require each subset A of the processed prefix
    to appear as a part in exactly C(omega-j, size-|A|) places; giving every
    part the new element with weight (size-|A|)/(omega-j) meets them
    fractionally, so an integral flow always exists and the construction
    never backtracks.
    """
    if not 0 < size <= omega:
        raise ParameterError(f"need 0 < size <= omega, got size={size}, omega={omega}")
    g = math.gcd(size, omega)
    degree, parts_per_class = size // g, omega // g
    n_classes = math.comb(omega, size) // parts_per_class
    classes: list[dict[frozenset, int]] = [
        {frozenset(): parts_per_class} for _ in range(n_classes)
    ]
    for j in range(omega):
        x = j + 1
        growable = sorted(
            {A for cls in classes for A in cls if len(A) < size},
            key=lambda A: tuple(sorted(A)),
        )
        index = {A: i for i, A in enumerate(growable)}
        src = n_classes + len(growable)
        dst = src + 1
        net = _Dinic(dst + 1)
        for c, cls in enumerate(classes):
            net.add(src, c, degree)
            for A, mult in sorted(cls.items(), key=lambda kv: tuple(sorted(kv[0]))):
                if len(A) < size:
                    net.add(c, n_classes + index[A], mult)
        for A in growable:
            net.add(n_classes + index[A], dst, math.comb(omega - j - 1, size - len(A) - 1))
        pushed = net.maxflow(src, dst)
        assert pushed == n_classes * degree, "stage flow must saturate every class"
        for c, cls in enumerate(classes):
            for v, _, rev in net.adj[c]:
                # the units this class pushed show up on the reverse edge
                moved = net.adj[v][rev][1] if n_classes <= v < src else 0
                if moved:
                    chosen = growable[v - n_classes]
                    cls[chosen] -= moved
                    if cls[chosen] == 0:
                        del cls[chosen]
                    grown = chosen | {x}
                    cls[grown] = cls.get(grown, 0) + moved
    result = []
    for cls in classes:
        groups: list[Group] = []
        for A, mult in cls.items():
            groups.extend([tuple(sorted(A))] * mult)
        result.append(sorted(groups))
    return result


def build_base_partition(omega: int, t: int) -> list[ScheduleColumn]:
    """Partition all groups into S_hat columns, beta_hat-regular per column,
    by the stage-wise flow construction (no search, same result every run)."""
    return [ScheduleColumn.of(col) for col in resolution_partition(omega, t + 1)]


def validate_base_partition(columns: list[ScheduleColumn], omega: int, t: int) -> None:
    """Raise unless the columns form a valid beta_hat-regular partition."""
    hat = hat_params(omega, t)
    if len(columns) != hat.S_hat:
        raise ConstructionError(f"expected {hat.S_hat} columns, got {len(columns)}")
    seen: list[Group] = []
    for col in columns:
        if len(col) != hat.B_hat:
            raise ConstructionError(f"column size {len(col)} != {hat.B_hat}")
        beta = col.beta(range(1, omega + 1))
        if any(b != hat.beta_hat for b in beta.values()):
            raise ConstructionError(f"column multiplicities {beta} are not all {hat.beta_hat}")
        seen.extend(col.groups)
    if sorted(seen) != enumerate_groups(range(1, omega + 1), t):
        raise ConstructionError("columns do not partition the full group enumeration")


def regroup(
    base: list[ScheduleColumn],
    eta: int,
    delta: int,
    *,
    L: int,
    G: int,
    users: tuple[int, ...] | None = None,
    t: int | None = None,
) -> ScheduleTable:
    """Replicate the base columns delta times and merge eta of them per output.

    The replicated sequence lists each base column delta times consecutively
    and deals it round-robin over the S output slots, which keeps merges as
    diverse as possible while staying canonical.
    """
    if not base:
        raise ParameterError("base partition is empty")
    if t is None:
        t = len(base[0].groups[0]) - 1
    if users is None:
        max_user = max(u for col in base for g in col.groups for u in g)
        users = tuple(range(1, max_user + 1))
    s_hat = len(base)
    if (delta * s_hat) % eta != 0:
        raise ParameterError(f"delta*S_hat={delta * s_hat} is not divisible by eta={eta}")
    n_out = delta * s_hat // eta
    merged: list[list[Group]] = [[] for _ in range(n_out)]
    sequence = [col for col in base for _ in range(delta)]
    for idx, col in enumerate(sequence):
        merged[idx % n_out].extend(col.groups)
    columns = tuple(ScheduleColumn.of(c) for c in merged)
    table = ScheduleTable(users=users, t=t, L=L, G=G, columns=columns, delta=delta)
    table.validate()
    return table


def schedule_symmetric(
    L: int,
    G: int,
    t: int,
    omega: int,
    beta: int,
    delta_max: int = DEFAULT_DELTA_MAX,
    min_columns: int = 1,
    base: list[ScheduleColumn] | None = None,
) -> ScheduleTable:
    """Build the reference table for a feasible beta, regrouping ``base`` when
    the caller already holds the (omega, t) base partition."""
    plan = plan_symmetric(L, G, t, omega, beta, delta_max, min_columns)
    if base is None:
        base = build_base_partition(omega, t)
    return regroup(
        base, plan.eta, plan.delta, L=L, G=G, users=tuple(range(1, omega + 1)), t=t
    )
