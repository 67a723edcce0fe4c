"""Achievable-DoF exploration: enumerate total stream counts reachable at
given antenna parameters, with a certified witness table for every value.

Every reported value is backed by a constructed table passing the symbolic
decodability check; nothing is claimed from arithmetic alone.  Two
constructors are tried per candidate:

* the donor-column greedy (replication/decomposition of the reference
  table), which preserves the full symmetric column and is preferred;
* a windowed replication pattern used when donor augmentation is
  combinatorially impossible (notably when columns contain complementary
  group pairs, which caps their total streams at 2L-2 regardless of the
  candidate sets): all stream instances are concentrated on a (t+2)-user
  window, every window of the served set is scheduled under every cyclic
  rotation of the multiplicity profile, which keeps conservation exact.

The per-beta addition ladder stops at min((G-beta)*floor(omega/(t+1)),
L-1-B): the first bound is the receive-antenna necessary condition, the
second keeps one transmit dimension of slack per column, matching the
regions the construction actually reaches.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field

from .asymmetric import derive_seed, max_additions, schedule_asymmetric
from .errors import (
    CcschedError,
    ConstructionError,
    InfeasibleMError,
    ParameterError,
    SearchFailureError,
)
from .model import ScheduleColumn, ScheduleTable
from .symmetric import (
    DEFAULT_DELTA_MAX,
    build_base_partition,
    feasible_beta_set,
    plan_symmetric,
    schedule_symmetric,
)
from .verifier import decodability_check


@dataclass(frozen=True)
class RegionBudget:
    """Retry ladder for the donor constructor."""

    taus_extra: int = 1
    reseeds: int = 2
    d_factors: tuple[int, ...] = (1, 2, 3)
    delta_max: int = DEFAULT_DELTA_MAX
    seed: int = 0


@dataclass(frozen=True)
class DofWitness:
    scheme: str
    beta: int
    m: int
    dof: int
    table: ScheduleTable


@dataclass(frozen=True)
class DofRegion:
    L: int
    G: int
    t: int
    omega: int
    symmetric_dofs: tuple[int, ...]
    asymmetric_dofs: tuple[int, ...]
    witnesses: dict[int, DofWitness] = field(compare=False, default_factory=dict)


def symmetric_region(
    L: int, G: int, t: int, omega: int, delta_max: int = DEFAULT_DELTA_MAX
) -> list[int]:
    """Total stream counts of the symmetric scheme: omega*beta per feasible beta."""
    return sorted(omega * beta for beta in feasible_beta_set(L, G, t, omega, delta_max))


def windowed_pattern_table(
    L: int, G: int, t: int, omega: int, total_streams: int
) -> ScheduleTable | None:
    """Balanced table whose columns carry ``total_streams`` group instances
    concentrated on a (t+2)-user window; None when no such profile fits.

    Within a column over window W, the group missing user j appears theta_j
    times; every user in W then decodes total_streams - theta_j streams and
    the transmit-side left-hand side equals total_streams for every scheduled
    group, so feasibility is total_streams <= L plus the per-user cap.
    Scheduling all windows under all cyclic rotations of the profile covers
    every group of the full enumeration equally often.
    """
    w = t + 2
    if w > omega or total_streams < 1:
        return None
    if total_streams > L:
        return None
    base, extra = divmod(total_streams, w)
    theta_vec = [base + 1] * extra + [base] * (w - extra)
    if total_streams - min(theta_vec) > G:
        return None
    # the distinct cyclic rotations, in first-shift order; with period p there
    # are p of them, and each position of a window sees one period's sum
    rotations = list(dict.fromkeys(tuple(theta_vec[s:] + theta_vec[:s]) for s in range(w)))
    users = tuple(range(1, omega + 1))
    columns = []
    for window in itertools.combinations(users, w):
        # window minus its j-th user, for j from the last: canonical group order
        dropped = [window[:j] + window[j + 1 :] for j in reversed(range(w))]
        for rotated in rotations:
            groups = []
            for g, mult in zip(dropped, reversed(rotated)):
                groups.extend([g] * mult)
            columns.append(ScheduleColumn(tuple(groups)))
    # each group lies in omega-t-1 windows, and in each once per rotation at
    # its dropped user's position: total_streams*p/w times
    table = ScheduleTable(
        users=users,
        t=t,
        L=L,
        G=G,
        columns=tuple(columns),
        delta=1,
        delta_tilde=(omega - t - 1) * total_streams * len(rotations) // w,
        m=0,
    )
    table.validate()
    if not decodability_check(table).ok:
        return None
    return table


def clique_window_table(
    L: int, G: int, t: int, omega: int, dof: int
) -> ScheduleTable | None:
    """Balanced table whose columns schedule every group of a w-user window
    uniformly; None when no (w, multiplicity) pair matches the target DoF.

    Per column, every window user decodes mu*C(w-1, t) streams, every group
    sees a transmit-side load of mu*((w-t-1)*C(w-1, t) + 1), and taking one
    column per w-subset of the served set keeps conservation exact.
    """
    for w in range(t + 2, omega + 1):
        per_user = math.comb(w - 1, t)
        mu, rem = divmod(dof, w * per_user)
        if rem != 0 or mu < 1:
            continue
        if mu * per_user > G or mu * ((w - t - 1) * per_user + 1) > L:
            continue
        users = tuple(range(1, omega + 1))
        columns = []
        for window in itertools.combinations(users, w):
            groups = []
            for comb in itertools.combinations(window, t + 1):
                groups.extend([comb] * mu)
            columns.append(ScheduleColumn.of(groups))
        coverage = mu * math.comb(omega - t - 1, w - t - 1)
        table = ScheduleTable(
            users=users,
            t=t,
            L=L,
            G=G,
            columns=tuple(columns),
            delta=1,
            delta_tilde=coverage,
            m=0,
        )
        table.validate()
        if decodability_check(table).ok:
            return table
    return None


def _donor_attempts(baseline: ScheduleTable, m: int, budget: RegionBudget, label: str):
    """Yield donor-greedy tables over the retry ladder; exhausts silently.

    The ladder ends at the first failure that no rung can change: a rejected
    plan, or a greedy failure marked structural.
    """
    t = baseline.t
    for tau in range(t, t + budget.taus_extra + 1):
        for reseed in range(budget.reseeds + 1):
            seed = None if reseed == 0 else derive_seed(budget.seed, f"{label}:r{reseed}")
            for d_factor in budget.d_factors:
                try:
                    table, _, _ = schedule_asymmetric(
                        baseline, m, tau=tau, seed=seed, d_factor=d_factor
                    )
                    yield table
                    return
                except (InfeasibleMError, SearchFailureError):
                    return
                except ConstructionError as exc:
                    if exc.structural:
                        return
                except CcschedError:
                    continue


def asymmetric_region(
    L: int,
    G: int,
    t: int,
    omega: int,
    budget: RegionBudget = RegionBudget(),
) -> DofRegion:
    """All witnessed DoF values: symmetric baselines plus m-ladder additions.

    For each feasible beta, additions m = 1, 2, ... are attempted up to the
    ladder cap; the donor greedy is tried first, the windowed pattern as the
    fallback.  A value is reported only with a table that passed the
    symbolic check (the constructors enforce it).
    """
    witnesses: dict[int, DofWitness] = {}
    sym_dofs = []
    betas = feasible_beta_set(L, G, t, omega, budget.delta_max)
    # one base partition per region: every symmetric witness and baseline
    # below is a regrouping of it
    base = build_base_partition(omega, t) if betas else None
    for beta in betas:
        dof_ref = omega * beta
        sym_dofs.append(dof_ref)
        if dof_ref not in witnesses:
            table = schedule_symmetric(L, G, t, omega, beta, budget.delta_max, base=base)
            witnesses[dof_ref] = DofWitness("sym", beta, 0, dof_ref, table)
        plan = plan_symmetric(L, G, t, omega, beta, budget.delta_max)
        B = plan.B
        m_cap = min(max_additions(G, beta, omega, t), L - 1 - B)
        baseline = None
        for m in range(1, m_cap + 1):
            dof = dof_ref + m * (t + 1)
            if dof in witnesses:
                continue
            table = None
            if baseline is None:
                try:
                    baseline = schedule_symmetric(
                        L, G, t, omega, beta, budget.delta_max, min_columns=2, base=base
                    )
                except ParameterError:
                    baseline = False
            if baseline is not False:
                label = f"omega{omega}t{t}b{beta}m{m}"
                table = next(_donor_attempts(baseline, m, budget, label), None)
            scheme = "asym"
            if table is None:
                table = windowed_pattern_table(L, G, t, omega, B + m)
                scheme = "asym-window"
            if table is None:
                table = clique_window_table(L, G, t, omega, dof)
                scheme = "asym-clique"
            if table is not None:
                witnesses[dof] = DofWitness(scheme, beta, m, dof, table)
    return DofRegion(
        L=L,
        G=G,
        t=t,
        omega=omega,
        symmetric_dofs=tuple(sorted(set(sym_dofs))),
        asymmetric_dofs=tuple(sorted(witnesses)),
        witnesses=witnesses,
    )


def region_to_csv_rows(region: DofRegion, witness_name) -> list[str]:
    """Rows for the region CSV; ``witness_name(dof) -> str`` supplies paths."""
    rows = []
    for dof in region.asymmetric_dofs:
        w = region.witnesses[dof]
        rows.append(
            f"{w.scheme},{region.omega},{region.t},{w.beta},{w.m},{dof},{witness_name(dof)}"
        )
    return rows
