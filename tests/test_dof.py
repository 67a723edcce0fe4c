import itertools
import math
from collections import Counter

import pytest

import ccsched.dof as dof_module
from ccsched.dof import (
    RegionBudget,
    asymmetric_region,
    clique_window_table,
    symmetric_region,
    windowed_pattern_table,
)
from ccsched.verifier import decodability_check
from ccsched.asymmetric import dof_of_table
from ccsched.model import ScheduleColumn, ScheduleTable


def test_symmetric_region_reference_values():
    assert symmetric_region(11, 8, 1, 4) == [4, 8, 12, 16]
    assert symmetric_region(11, 8, 2, 6) == [6, 12, 18]
    assert symmetric_region(11, 8, 3, 8) == [8, 16]


@pytest.mark.parametrize(
    "omega,t,sym_want,asym_want",
    [
        (4, 1, [4, 8, 12, 16], list(range(4, 21, 2))),
        (6, 2, [6, 12, 18], list(range(6, 31, 3))),
        (8, 3, [8, 16], list(range(8, 41, 4))),
    ],
)
def test_regions_at_reference_antennas(omega, t, sym_want, asym_want):
    region = asymmetric_region(11, 8, t, omega)
    assert list(region.symmetric_dofs) == sym_want
    assert list(region.asymmetric_dofs) == asym_want
    # symmetric values are always included (m = 0 is available)
    assert set(region.symmetric_dofs) <= set(region.asymmetric_dofs)


def test_every_region_value_has_a_passing_witness():
    region = asymmetric_region(11, 8, 2, 6)
    for dof, witness in region.witnesses.items():
        assert witness.dof == dof
        assert dof_of_table(witness.table) == dof
        assert decodability_check(witness.table).ok
        witness.table.validate()


def test_region_spacing_per_beta():
    region = asymmetric_region(11, 8, 1, 4)
    by_beta = {}
    for w in region.witnesses.values():
        by_beta.setdefault(w.beta, []).append(w.dof)
    for beta, dofs in by_beta.items():
        dofs = sorted(dofs)
        assert all(b - a == 2 for a, b in zip(dofs, dofs[1:]))


def test_region_small_network_family():
    region = asymmetric_region(10, 3, 1, 5)
    assert list(region.asymmetric_dofs) == [10, 12, 14]
    region3 = asymmetric_region(10, 3, 1, 3)
    assert set(region3.asymmetric_dofs) == {6, 8}
    region10 = asymmetric_region(10, 3, 1, 10)
    assert {10, 12} <= set(region10.asymmetric_dofs)


def test_windowed_pattern_table_structure():
    table = windowed_pattern_table(11, 8, 3, 8, total_streams=10)
    assert table is not None
    assert dof_of_table(table) == 40
    assert decodability_check(table).ok
    table.validate()
    # every column concentrates its streams on a five-user window
    for col in table.columns:
        support = {k for g in col.groups for k in g}
        assert len(support) == 5
        assert len(col.groups) == 10


def _windowed_columns_by_rotation(t, omega, total_streams):
    """Reference: every window under every cyclic shift of the profile,
    each column sorted, repeats within a window dropped; plus the uniform
    group count."""
    w = t + 2
    base, extra = divmod(total_streams, w)
    theta_vec = [base + 1] * extra + [base] * (w - extra)
    columns = []
    for window in itertools.combinations(range(1, omega + 1), w):
        seen = set()
        for shift in range(w):
            rotated = theta_vec[shift:] + theta_vec[:shift]
            groups = []
            for j, mult in enumerate(rotated):
                groups.extend([tuple(u for u in window if u != window[j])] * mult)
            col = ScheduleColumn.of(groups)
            if col not in seen:
                seen.add(col)
                columns.append(col)
    counts = set(Counter(g for col in columns for g in col.groups).values())
    assert len(counts) == 1
    return tuple(columns), counts.pop()


@pytest.mark.parametrize("t,omega", [(1, 4), (1, 5), (2, 5), (2, 6), (3, 7), (2, 7), (4, 7)])
def test_windowed_pattern_table_matches_rotation_reference(t, omega):
    """The directly emitted columns and the arithmetic delta_tilde equal the
    sort-and-dedupe over every rotation, for periodic and aperiodic profiles."""
    built = 0
    for total_streams in range(1, 3 * (t + 2) + 2):
        table = windowed_pattern_table(3 * (t + 2), 3 * (t + 2), t, omega, total_streams)
        if table is None:
            continue
        columns, count = _windowed_columns_by_rotation(t, omega, total_streams)
        assert table.columns == columns
        assert (table.delta, table.delta_tilde) == (1, count)
        built += 1
    assert built >= t + 2


def test_windowed_pattern_respects_caps():
    # per-user cap: 10 instances on a 3-user window needs beta 7 <= G
    assert windowed_pattern_table(11, 6, 1, 4, total_streams=10) is None
    # transmit cap: more instances than antennas is rejected
    assert windowed_pattern_table(9, 8, 1, 4, total_streams=10) is None


def test_clique_window_table():
    table = clique_window_table(10, 3, 1, 10, dof=12)
    assert table is not None
    assert dof_of_table(table) == 12
    assert decodability_check(table).ok
    table.validate()
    assert clique_window_table(10, 3, 1, 10, dof=14) is None


def _clique_window_reference(L, G, t, omega, dof):
    """Reference: the clique table built window by window before the orbit
    constructor, with its closed-form delta_tilde."""
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
        table = ScheduleTable(
            users=users,
            t=t,
            L=L,
            G=G,
            columns=tuple(columns),
            delta=1,
            delta_tilde=mu * math.comb(omega - t - 1, w - t - 1),
            m=0,
        )
        table.validate()
        if decodability_check(table).ok:
            return table
    return None


@pytest.mark.parametrize("t", [0, 1, 2, 3])
def test_clique_window_table_matches_reference(t):
    """Every field of the orbit-built clique table equals the window-by-window
    reference, including the counted delta_tilde."""
    built = 0
    for L, G, omega in itertools.product((3, 6, 10, 13), (1, 3, 8), range(t + 1, 8)):
        for dof in range(1, 4 * (t + 1) * omega):
            table = clique_window_table(L, G, t, omega, dof)
            assert table == _clique_window_reference(L, G, t, omega, dof)
            if table is not None:
                assert (table.delta, table.m, table.omega) == (1, 0, omega)
                built += 1
    assert built >= 10


def test_region_with_budget_seed_is_deterministic():
    """The construction ignores the seed: two seeds give one region."""
    a = asymmetric_region(11, 8, 1, 4, RegionBudget(seed=5))
    b = asymmetric_region(11, 8, 1, 4, RegionBudget(seed=6))
    assert a == b
    assert a.witnesses.keys() == b.witnesses.keys()
    for dof in a.witnesses:
        assert a.witnesses[dof] == b.witnesses[dof]


def test_donor_attempts_try_each_plan_scaling_once(monkeypatch):
    """On (21, 3, 1, 9) the donor greedy needs d = 2 at m = 3 and fails
    non-structurally at m = 4: 7 attempts, one per (baseline, m, d_factor).
    Retrying each d_factor under a second tau and two reseeds took 22."""
    calls = []

    def counting(baseline, m, **kwargs):
        calls.append((baseline, m, kwargs.get("d_factor", 1)))
        return schedule_asymmetric(baseline, m, **kwargs)

    schedule_asymmetric = dof_module.schedule_asymmetric
    monkeypatch.setattr(dof_module, "schedule_asymmetric", counting)
    region = asymmetric_region(21, 3, 1, 9)
    assert region.asymmetric_dofs == (18, 20, 22, 24)
    assert [(m, d) for _, m, d in calls] == [(1, 1), (2, 1), (3, 1), (3, 2), (4, 1), (4, 2), (4, 3)]
    assert len(set(calls)) == len(calls)


def test_donor_ladder_stops_at_rung_independent_failures(monkeypatch):
    """On (11, 8, 3, 8) every donor failure is structural: a rejected plan,
    too few donor groups, or a first pick with no feasible donor group.  No
    plan scaling can change those, so each m costs one attempt: 8 here,
    where retrying every rung of the earlier 18-rung ladder took 110."""
    calls = []
    failed = []

    def counting(*args, **kwargs):
        calls.append((args[0], args[1]))
        try:
            return schedule_asymmetric(*args, **kwargs)
        except Exception:
            failed.append(args[1])
            raise

    schedule_asymmetric = dof_module.schedule_asymmetric
    monkeypatch.setattr(dof_module, "schedule_asymmetric", counting)
    region = asymmetric_region(11, 8, 3, 8, RegionBudget(seed=7))
    assert list(region.asymmetric_dofs) == list(range(8, 41, 4))
    assert len(calls) == 8 and len(failed) == 6
    assert len(set(calls)) == len(calls)  # one attempt per (beta, m)


@pytest.mark.parametrize("shape", [(11, 8, 3, 8), (21, 8, 3, 9)])
def test_base_partition_built_once_per_region(monkeypatch, shape):
    """Every symmetric witness and donor baseline of a region regroups one
    (omega, t) base partition; building it per table took 2 calls on each."""
    import ccsched.symmetric as symmetric_module

    calls = []
    build_base_partition = symmetric_module.build_base_partition

    def counting(*args):
        calls.append(args)
        return build_base_partition(*args)

    monkeypatch.setattr(symmetric_module, "build_base_partition", counting)
    monkeypatch.setattr(dof_module, "build_base_partition", counting, raising=False)
    L, G, t, omega = shape
    region = asymmetric_region(L, G, t, omega)
    assert calls == [(omega, t)]
    assert region.symmetric_dofs
