"""Achievable-DoF exploration: enumerate total stream counts reachable at
given antenna parameters, with a certified witness table for every value.

Every reported value is backed by a constructed table passing the symbolic
decodability check; nothing is claimed from arithmetic alone.  The
constructors, in the order they are tried per candidate:

* the donor-column greedy (replication/decomposition of the reference
  table), which preserves the full symmetric column and is preferred;
* window tables when donor augmentation is combinatorially impossible
  (notably when columns contain complementary group pairs, which caps
  their total streams at 2L-2 regardless of the candidate sets):
  ``window_orbit_table`` takes multiplicity profiles of a w-user window
  that together balance its groups onto every window of the served set.
  The windowed pattern (w = t+2, the cyclic rotations of one profile) is
  tried before the clique pattern (every group of the window alike).

The per-beta addition ladder stops at min((G-beta)*floor(omega/(t+1)),
L-1-B): the first bound is the receive-antenna necessary condition, the
second keeps one transmit dimension of slack per column, matching the
regions the construction actually reaches.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from typing import NamedTuple

from .asymmetric import ColumnLoad, max_additions, schedule_asymmetric
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
    schedule_symmetric,
)
from .verifier import decodability_check


# plan scalings the donor greedy tries for each addition count: a larger d
# gives every column more copies, and so the greedy more sets to balance
D_FACTORS = (1, 2, 3)


class RegionBudget(NamedTuple):
    """Settings of a region; ``seed`` has no effect on the construction."""

    delta_max: int = DEFAULT_DELTA_MAX
    seed: int = 0


class DofWitness(NamedTuple):
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


def window_orbit_table(
    L: int, G: int, t: int, omega: int, w: int, profiles: list[tuple[int, ...]]
) -> ScheduleTable | None:
    """One column per w-subset of the served users and per profile; None
    when the table fails the symbolic check.

    A profile gives the multiplicity of each (t+1)-subset of the window, in
    ``itertools.combinations`` order.  The profiles must together schedule
    every group of a window equally often; then every group of the full
    enumeration appears C(omega, w) * (sum of all profile entries) /
    C(omega, t+1) times, which ``validate`` confirms.
    """
    def column(subsets: list[tuple[int, ...]], profile: tuple[int, ...]) -> ScheduleColumn:
        groups = []
        for g, mult in zip(subsets, profile):
            groups.extend([g] * mult)
        return ScheduleColumn(tuple(groups))

    users = tuple(range(1, omega + 1))
    first = column(list(itertools.combinations(users[:w], t + 1)), profiles[0])
    if not ColumnLoad(L, G, first.groups).fits():  # then the whole table fails
        return None
    windows = [list(itertools.combinations(x, t + 1)) for x in itertools.combinations(users, w)]
    columns = [column(subsets, p) for subsets in windows for p in profiles]
    instances = math.comb(omega, w) * sum(map(sum, profiles))
    table = ScheduleTable(
        users=users,
        t=t,
        L=L,
        G=G,
        columns=tuple(columns),
        delta=1,
        delta_tilde=instances // math.comb(omega, t + 1),
        m=0,
    )
    table.validate()
    if not decodability_check(table).ok:
        return None
    return table


def windowed_pattern_table(
    L: int, G: int, t: int, omega: int, total_streams: int
) -> ScheduleTable | None:
    """Balanced table whose columns carry ``total_streams`` group instances
    concentrated on a (t+2)-user window; None when no such profile fits.

    Within a column over window W, the group missing user j appears theta_j
    times, the theta_j as even as possible.  Scheduling all windows under
    all cyclic rotations of the profile covers every group of the full
    enumeration equally often.
    """
    w = t + 2
    if w > omega or total_streams < 1:
        return None
    base, extra = divmod(total_streams, w)
    theta_vec = [base + 1] * extra + [base] * (w - extra)
    # the distinct cyclic rotations, in first-shift order: each position of a
    # window sees every entry equally often.  theta_j belongs to the group
    # missing the window's j-th user, which comes (w-1-j)-th in combinations
    # order, so a profile is a reversed rotation
    rotations = dict.fromkeys(tuple(theta_vec[s:] + theta_vec[:s]) for s in range(w))
    return window_orbit_table(L, G, t, omega, w, [rotated[::-1] for rotated in rotations])


def clique_window_table(
    L: int, G: int, t: int, omega: int, dof: int
) -> ScheduleTable | None:
    """Balanced table whose columns schedule every group of a w-user window
    mu times; None when no (w, mu) pair that fits matches the target DoF."""
    for w in range(t + 2, omega + 1):
        per_user = math.comb(w - 1, t)
        mu, rem = divmod(dof, w * per_user)
        if rem != 0 or mu < 1:
            continue
        table = window_orbit_table(L, G, t, omega, w, [(mu,) * math.comb(w, t + 1)])
        if table is not None:
            return table
    return None


def _donor_attempts(baseline: ScheduleTable, m: int) -> ScheduleTable | None:
    """The donor-greedy table at the first plan scaling in D_FACTORS that
    succeeds; None when none does.

    The attempts end at the first failure that no scaling can change: a
    rejected plan, or a greedy failure marked structural.
    """
    for d_factor in D_FACTORS:
        try:
            return schedule_asymmetric(baseline, m, d_factor=d_factor)[0]
        except (InfeasibleMError, SearchFailureError):
            return None
        except ConstructionError as exc:
            if exc.structural:
                return None
        except CcschedError:
            continue
    return None


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
        symmetric = schedule_symmetric(L, G, t, omega, beta, budget.delta_max, base=base)
        if dof_ref not in witnesses:
            witnesses[dof_ref] = DofWitness("sym", beta, 0, dof_ref, symmetric)
        B = len(symmetric.columns[0])
        m_cap = min(max_additions(G, beta, omega, t), L - 1 - B)
        # the donor greedy needs two columns; a table of one is rebuilt with more
        baseline = symmetric if len(symmetric.columns) >= 2 else None
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
                table = _donor_attempts(baseline, m)
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
