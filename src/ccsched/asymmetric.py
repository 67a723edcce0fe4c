"""Asymmetric per-user stream allocation on top of the symmetric reference:
replication/decomposition arithmetic, donor mapping, balanced greedy
candidate selection with swap repair, and table assembly.

Construction outline: replicate the reference table, keep ``d`` copies of
each baseline column, dissolve the rest, and append ``m`` group indices from
the donor column (the cyclic neighbour) to every retained copy.  The m-sets
are chosen greedily so that every donor group is reused equally often
(regularity ``r``) and every augmented column stays linearly decodable.
"""

from __future__ import annotations

import math
from collections import Counter
from typing import NamedTuple

from .errors import (
    AssemblyError,
    ConstructionError,
    InfeasibleMError,
    NoDonorError,
    ParameterError,
    SearchFailureError,
)
from .model import Group, ScheduleColumn, ScheduleTable
from .verifier import decodability_check


class AsymPlan(NamedTuple):
    """Integer bookkeeping of one decomposition-reassignment round."""

    B: int
    S: int
    m: int
    d: int
    r: int
    delta_tilde: int
    S_tilde: int
    tau: int
    I_max: int

    def check(self) -> None:
        assert self.m * self.S_tilde == self.B * (self.delta_tilde * self.S - self.S_tilde)
        assert self.r * self.B == self.d * self.m
        assert self.delta_tilde * self.B == (self.B + self.m) * self.d
        assert self.S_tilde == self.d * self.S

    def scaled(self, factor: int) -> "AsymPlan":
        """Multiply d (and everything driven by it); all identities survive."""
        plan = self._replace(
            d=self.d * factor,
            r=self.r * factor,
            delta_tilde=self.delta_tilde * factor,
            S_tilde=self.S_tilde * factor,
        )
        plan.check()
        return plan


def max_additions(G: int, beta: int, omega: int, t: int) -> int:
    """Receive-antenna bound on per-column additions: (G-beta)*floor(omega/(t+1))."""
    return (G - beta) * (omega // (t + 1))


def solve_plan(
    B: int,
    S: int,
    m: int,
    G: int,
    beta: int,
    omega: int,
    t: int,
    tau: int | None = None,
    I_max: int | None = None,
) -> AsymPlan:
    """Smallest integer (d, r, delta_tilde, S_tilde) for the requested m.

    Integrality needs B | d*m, so the minimal d is B/gcd(B, m).  A plan with
    d above 1000 is rejected: it would replicate every column that often.
    """
    if m < 0:
        raise ParameterError("m must be non-negative")
    bound = max_additions(G, beta, omega, t)
    if m > bound:
        raise InfeasibleMError(
            f"m={m} exceeds (G-beta)*floor(omega/(t+1)) = ({G}-{beta})*{omega // (t + 1)} = {bound}"
        )
    if tau is None:
        tau = t
    if m == 0:
        return AsymPlan(B, S, 0, 1, 0, 1, S, tau, 50 if I_max is None else I_max)
    if B < 1:
        raise ParameterError(f"B must be positive, got {B}")
    d = B // math.gcd(B, m)
    if d > 1000:
        raise SearchFailureError(f"no integral plan with d <= 1000 for B={B}, m={m}")
    I_max = 50 * m if I_max is None else I_max
    plan = AsymPlan(B, S, m, d, d * m // B, (B + m) * d // B, d * S, tau, I_max)
    plan.check()
    return plan


def donor_map(i: int, S: int) -> int:
    """Cyclic donor column for 1-based column i: (i mod S) + 1."""
    if S < 2:
        raise NoDonorError("donor mapping needs at least two baseline columns")
    if not 1 <= i <= S:
        raise ParameterError(f"column index {i} outside 1..{S}")
    return (i % S) + 1


class ColumnLoad:
    """The antenna loads of one column under construction: per-user stream
    counts b, group multiplicities c and the stream total n.  ``fits`` is
    the rule for linear decodability: b(k) <= G for every user, and
    c(T) + n - (sum of b over T) <= L for every scheduled group T."""

    def __init__(self, L: int, G: int, groups=()) -> None:
        self.L, self.G, self.n = L, G, 0
        self.b, self.c = Counter(), Counter()
        for g in groups:
            self.add(g)

    def add(self, g: Group, step: int = 1) -> None:
        """Add ``step`` instances of g; a negative step removes them."""
        self.c[g] += step
        for k in g:
            self.b[k] += step
        self.n += step * len(g)

    def fits(self) -> bool:
        b = self.b
        return max(b.values(), default=0) <= self.G and all(
            mult + self.n - sum(b[k] for k in g) <= self.L for g, mult in self.c.items() if mult
        )

    def admits(self, g: Group) -> bool:
        """Whether one more instance of g keeps both bounds."""
        self.add(g)
        ok = self.fits()
        self.add(g, -1)
        return ok


def linear_feasible_check(
    host: ScheduleColumn,
    pending: list[Group],
    donor_groups: list[Group],
    L: int,
    G: int,
    served_users,
) -> list[Group]:
    """Donor groups, sorted and distinct, whose addition to host+pending
    keeps both antenna bounds (``ColumnLoad.admits``)."""
    load = ColumnLoad(L, G, list(host.groups) + list(pending))
    return [g for g in sorted(set(donor_groups)) if load.admits(g)]


class CandidateCollection(NamedTuple):
    """The d chosen m-sets for one baseline column, drawn from its donor."""

    column_index: int
    donor_index: int
    sets: tuple[tuple[Group, ...], ...]


def validate_collection(
    coll: CandidateCollection,
    donor: ScheduleColumn,
    plan: AsymPlan,
) -> None:
    """Check sizes, membership, regularity, and pairwise overlap."""
    donor_theta = donor.theta()
    if len(coll.sets) != plan.d:
        raise ConstructionError(f"expected {plan.d} sets, got {len(coll.sets)}")
    usage: Counter = Counter()
    for a in coll.sets:
        if len(a) != plan.m:
            raise ConstructionError(f"set {a} does not have m={plan.m} groups")
        if len(set(a)) != len(a):
            raise ConstructionError(f"set {a} repeats a group")
        for g in a:
            if g not in donor_theta:
                raise ConstructionError(f"group {g} not drawn from the donor column")
            usage[g] += 1
        for x, y in ((x, y) for i, x in enumerate(a) for y in a[i + 1 :]):
            if len(set(x) & set(y)) > plan.tau:
                raise ConstructionError(f"overlap |{x} ∩ {y}| exceeds tau={plan.tau}")
    for g, mult in donor_theta.items():
        if usage[g] != plan.r * mult:
            raise ConstructionError(
                f"group {g} used {usage[g]} times, expected r*theta = {plan.r * mult}"
            )


def balanced_greedy(
    i: int,
    plan: AsymPlan,
    baseline: ScheduleTable,
) -> CandidateCollection:
    """Build the candidate collection for baseline column i (1-based).

    Greedy selection with quota-driven regularity: each donor group starts
    with quota r (times its multiplicity in the donor column) and the next
    group is the feasible candidate minimizing
    beta * (overlap with the current set) - remaining quota,
    ties broken lexicographically.  When no candidate is feasible, a swap
    with a previously built set is attempted; swaps must keep both sets
    inside the overlap threshold and linearly decodable.  When the swap fails
    too, the greedy raises at once: nothing changed, so no later iteration
    could do better.  I_max bounds the iterations spent on swaps.
    """
    donor_idx = donor_map(i, plan.S)
    host = baseline.columns[i - 1]
    donor = baseline.columns[donor_idx - 1]
    L, G = baseline.L, baseline.G
    load = ColumnLoad(L, G, host.groups)  # the host plus the set being built
    beta_weight = max(load.b.values(), default=0)
    donor_theta = donor.theta()
    distinct_donor = sorted(donor_theta)
    if plan.m > len(distinct_donor):
        raise ConstructionError(
            f"m={plan.m} exceeds the {len(distinct_donor)} distinct donor groups",
            structural=True,
        )

    quota = {g: plan.r * donor_theta[g] for g in distinct_donor}
    if any(q > plan.d for q in quota.values()):
        # r*theta > d is m*theta > B, whatever d is
        raise ConstructionError(
            "quota exceeds d: some donor group cannot be placed distinctly", structural=True
        )
    collection: list[list[Group]] = []

    def overlap(a: Group, b: Group) -> int:
        return len(set(a) & set(b))

    def within_tau(g: Group, others: list[Group]) -> bool:
        return all(overlap(g, other) <= plan.tau for other in others)

    def try_swap(current: list[Group]) -> bool:
        # picks and swaps keep every set distinct and within tau, so a swap
        # needs only its new pairs and both sets' loads checked
        for b_idx, b_set in enumerate(collection):
            for t_b in sorted(b_set):
                for t_a in sorted(current):
                    if t_b in current or t_a in b_set:
                        continue
                    new_a = [g for g in current if g != t_a] + [t_b]
                    new_b = [g for g in b_set if g != t_b] + [t_a]
                    if not (within_tau(t_b, new_a[:-1]) and within_tau(t_a, new_b[:-1])):
                        continue
                    load.add(t_a, -1)
                    if load.admits(t_b) and ColumnLoad(L, G, host.groups + tuple(new_b)).fits():
                        load.add(t_b)
                        current[:] = new_a
                        collection[b_idx] = new_b
                        return True
                    load.add(t_a)
        return False

    while len(collection) < plan.d:
        current: list[Group] = []
        iterations = 0
        while len(current) < plan.m and iterations < plan.I_max:
            iterations += 1
            candidates = [
                g
                for g in distinct_donor
                if quota[g] > 0
                and g not in current
                and within_tau(g, current)
                and load.admits(g)
            ]
            if not candidates:
                if try_swap(current):
                    continue
                # nothing changed, so every further iteration would stall alike
                break
            best = min(
                candidates,
                key=lambda g: (
                    beta_weight * sum(overlap(g, other) for other in current) - quota[g],
                    g,
                ),
            )
            current.append(best)
            load.add(best)
            quota[best] -= 1
        if len(current) < plan.m:
            raise ConstructionError(
                f"greedy stalled at column {i}: built {len(current)}/{plan.m} groups "
                f"after {iterations} iterations (tau={plan.tau})",
                # the first pick of the first set depends on the host and
                # donor columns alone, and there is no earlier set to swap with
                structural=not collection and not current,
            )
        collection.append(sorted(current))
        for g in current:
            load.add(g, -1)
    coll = CandidateCollection(i, donor_idx, tuple(tuple(a) for a in collection))
    validate_collection(coll, donor, plan)
    return coll


def assemble_table(
    baseline: ScheduleTable,
    collections: list[CandidateCollection],
    plan: AsymPlan,
) -> ScheduleTable:
    """Repeat every baseline column d times and append one m-set per copy."""
    if len(collections) != len(baseline.columns):
        raise AssemblyError("need exactly one candidate collection per baseline column")
    columns = []
    for col, coll in zip(baseline.columns, collections):
        for a in coll.sets:
            columns.append(ScheduleColumn.of(list(col.groups) + list(a)))
    table = ScheduleTable(
        users=baseline.users,
        t=baseline.t,
        L=baseline.L,
        G=baseline.G,
        columns=tuple(columns),
        delta=baseline.delta,
        delta_tilde=plan.delta_tilde,
        m=plan.m,
    )
    table.validate()
    report = decodability_check(table)
    if not report.ok:
        raise AssemblyError(f"assembled table fails the symbolic check: {report.witnesses[0]}")
    return table


def dof_of_table(table: ScheduleTable) -> int | list[int]:
    """Per-column total stream count; the per-column vector if not uniform."""
    sums = [ColumnLoad(table.L, table.G, col.groups).n for col in table.columns]
    if not sums:
        raise ParameterError("table has no columns")
    if len(set(sums)) == 1:
        return sums[0]
    return sums


def schedule_asymmetric(
    baseline: ScheduleTable,
    m: int,
    tau: int | None = None,
    I_max: int | None = None,
    seed: int | None = None,
    d_factor: int = 1,
) -> tuple[ScheduleTable, AsymPlan, list[CandidateCollection]]:
    """Full pipeline from a symmetric reference table to the augmented table.

    The construction is deterministic: ``seed`` is accepted and has no
    effect on it.
    """
    first = baseline.columns[0]
    beta = max(ColumnLoad(baseline.L, baseline.G, first.groups).b.values())
    plan = solve_plan(len(first), len(baseline.columns), m, baseline.G, beta, baseline.omega,
                      baseline.t, tau, I_max)
    if d_factor > 1:
        plan = plan.scaled(d_factor)
    if m == 0:
        return baseline, plan, []
    collections = [balanced_greedy(i, plan, baseline) for i in range(1, plan.S + 1)]
    table = assemble_table(baseline, collections, plan)
    return table, plan, collections
