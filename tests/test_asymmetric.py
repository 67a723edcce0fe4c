import itertools
from collections import Counter

import pytest
from hypothesis import given, settings, strategies as st

from ccsched.asymmetric import (
    AsymPlan,
    CandidateCollection,
    ColumnLoad,
    assemble_table,
    balanced_greedy,
    donor_map,
    dof_of_table,
    linear_feasible_check,
    max_additions,
    schedule_asymmetric,
    solve_plan,
    validate_collection,
)
from ccsched.errors import (
    ConstructionError,
    InfeasibleMError,
    NoDonorError,
    ParameterError,
    SearchFailureError,
)
from ccsched.model import ScheduleColumn, ScheduleTable
from ccsched.symmetric import schedule_symmetric
from ccsched.verifier import decodability_check

# reference 5-user instances, kept verbatim as fixtures
EX1_COLS = None  # built from the deterministic partition in fixtures below
EX2_S1 = [(1, 2, 3), (1, 2, 4), (3, 4, 5), (2, 3, 5), (1, 4, 5)]
EX2_S2 = [(1, 2, 5), (1, 3, 4), (2, 3, 4), (2, 4, 5), (1, 3, 5)]
EX2_COLL1 = [
    [(1, 2, 5), (1, 3, 4), (2, 3, 4)],
    [(1, 2, 5), (2, 3, 4), (1, 3, 5)],
    [(1, 3, 4), (2, 4, 5), (1, 2, 5)],
    [(1, 3, 4), (2, 4, 5), (1, 3, 5)],
    [(2, 3, 4), (1, 3, 5), (2, 4, 5)],
]
EX2_COLL2 = [
    [(1, 2, 3), (3, 4, 5), (1, 2, 4)],
    [(1, 2, 3), (1, 4, 5), (2, 3, 5)],
    [(1, 2, 4), (3, 4, 5), (2, 3, 5)],
    [(1, 2, 4), (2, 3, 5), (1, 4, 5)],
    [(3, 4, 5), (1, 2, 3), (1, 4, 5)],
]


@pytest.fixture
def ex1_baseline():
    return schedule_symmetric(10, 3, 1, 5, 2)


@pytest.fixture
def ex2_reference_baseline():
    return ScheduleTable(
        users=tuple(range(1, 6)),
        t=2,
        L=11,
        G=6,
        columns=(ScheduleColumn.of(EX2_S1), ScheduleColumn.of(EX2_S2)),
    )


def test_solve_plan_example1():
    plan = solve_plan(B=5, S=2, m=2, G=3, beta=2, omega=5, t=1)
    assert (plan.d, plan.r, plan.delta_tilde, plan.S_tilde) == (5, 2, 7, 10)
    # only an absent cap takes the default 50*m; an explicit one is kept
    assert plan.I_max == 100
    assert solve_plan(B=5, S=2, m=2, G=3, beta=2, omega=5, t=1, I_max=0).I_max == 0


def test_solve_plan_example2():
    plan = solve_plan(B=5, S=2, m=3, G=6, beta=3, omega=5, t=2)
    assert (plan.d, plan.r, plan.delta_tilde, plan.S_tilde) == (5, 3, 8, 10)


def test_solve_plan_infeasible_m():
    # bound (6-3)*floor(5/3) = 3 < 4
    with pytest.raises(InfeasibleMError):
        solve_plan(B=5, S=2, m=4, G=6, beta=3, omega=5, t=2)


def test_solve_plan_zero_additions():
    plan = solve_plan(B=5, S=2, m=0, G=3, beta=2, omega=5, t=1)
    assert (plan.d, plan.r, plan.delta_tilde, plan.S_tilde) == (1, 0, 1, 2)


def test_solve_plan_takes_the_smallest_integral_d():
    # B | d*m first holds at d = B/gcd(B, m); above d = 1000 the plan is
    # rejected with the construction exit code
    for B in range(1, 41):
        for m in range(1, B + 1):
            want = next(d for d in range(1, B + 1) if d * m % B == 0)
            assert solve_plan(B, 2, m, G=50, beta=1, omega=8, t=1).d == want
    assert solve_plan(1000, 2, 3, G=50, beta=1, omega=8, t=1).d == 1000
    with pytest.raises(SearchFailureError, match="d <= 1000") as exc:
        solve_plan(B=1009, S=2, m=1, G=3, beta=2, omega=5, t=1)
    assert exc.value.exit_code == 3
    # gcd gives no minimal d without a positive column size
    for B in (0, -3):
        with pytest.raises(ParameterError, match="B must be positive"):
            solve_plan(B=B, S=2, m=1, G=3, beta=2, omega=5, t=1)


def test_plan_identities_random():
    import random

    rng = random.Random(11)
    seen = 0
    while seen < 200:
        B = rng.randint(1, 12)
        S = rng.randint(1, 8)
        m = rng.randint(1, B)
        omega, t = 8, 1
        try:
            plan = solve_plan(B, S, m, G=20, beta=2, omega=omega, t=t)
        except InfeasibleMError:
            continue
        seen += 1
        assert plan.m * plan.S_tilde == plan.B * (plan.delta_tilde * plan.S - plan.S_tilde)
        assert plan.r * plan.B == plan.d * plan.m
        assert plan.delta_tilde * plan.B == (plan.B + plan.m) * plan.d
        assert plan.S_tilde == plan.d * plan.S
        scaled = plan.scaled(3)
        assert scaled.S_tilde == 3 * plan.S_tilde


def test_donor_map():
    assert donor_map(1, 2) == 2
    assert donor_map(2, 2) == 1
    assert donor_map(3, 4) == 4
    for S in range(2, 9):
        image = {donor_map(i, S) for i in range(1, S + 1)}
        assert image == set(range(1, S + 1))
        assert all(donor_map(i, S) != i for i in range(1, S + 1))
    with pytest.raises(NoDonorError):
        donor_map(1, 1)
    with pytest.raises(ParameterError):
        donor_map(5, 4)


def _algorithm2_oracle(host_groups, pending, candidate, L, G, users):
    """Literal transcription of the check loop, kept independent of the
    production implementation."""
    U = list(host_groups) + list(pending) + [candidate]
    b = {k: 0 for k in users}
    c = Counter()
    for T in U:
        c[T] += 1
        for k in T:
            b[k] += 1
    n = {T: c[T] + sum(b[k] for k in users if k not in T) for T in set(U)}
    return max(b.values()) <= G and max(n.values()) <= L


def test_linear_feasible_check_example2_sequence(ex2_reference_baseline):
    host = ex2_reference_baseline.columns[0]
    users = range(1, 6)
    # candidate 125 against the bare host: per-user counts (4,4,3,3,4)
    feas = linear_feasible_check(host, [], [(1, 2, 5)], 11, 6, users)
    assert feas == [(1, 2, 5)]
    # the reference first m-set passes one group at a time
    pending = []
    for cand in [(1, 2, 5), (1, 3, 4), (2, 3, 4)]:
        assert cand in linear_feasible_check(host, pending, [cand], 11, 6, users)
        assert _algorithm2_oracle(host.groups, pending, cand, 11, 6, range(1, 6))
        pending.append(cand)


def test_linear_feasible_check_matches_oracle_randomized(ex2_reference_baseline):
    import random

    rng = random.Random(3)
    host = ex2_reference_baseline.columns[0]
    donor = list(ex2_reference_baseline.columns[1].groups)
    users = list(range(1, 6))
    for _ in range(40):
        pending = rng.sample(donor, rng.randint(0, 2))
        L = rng.randint(8, 13)
        G = rng.randint(3, 7)
        got = linear_feasible_check(host, pending, donor, L, G, users)
        want = [g for g in sorted(set(donor)) if _algorithm2_oracle(host.groups, pending, g, L, G, users)]
        assert got == want


def test_linear_feasible_check_saturated_host():
    # every user already decodes G streams; nothing can be added
    host = ScheduleColumn.of([(1, 2), (1, 2), (1, 3), (2, 3), (1, 3), (2, 3)])
    feas = linear_feasible_check(host, [], [(1, 2), (1, 3), (2, 3)], 20, 4, [1, 2, 3])
    assert feas == []


def test_linear_feasible_check_single_group_system():
    # omega = t+1: no outside users, n(T) equals the copy count
    host = ScheduleColumn.of([(1, 2)] * 3)
    assert linear_feasible_check(host, [], [(1, 2)], 4, 9, [1, 2]) == [(1, 2)]
    full = ScheduleColumn.of([(1, 2)] * 4)
    assert linear_feasible_check(full, [], [(1, 2)], 4, 9, [1, 2]) == []


@st.composite
def random_columns(draw):
    """A column of (t+1)-groups over a few users, with every such group as a
    candidate, and groups added to the state and removed again."""
    t = draw(st.integers(0, 2))
    users = tuple(range(1, draw(st.integers(t + 1, 7)) + 1))
    groups = list(itertools.combinations(users, t + 1))
    column, extra = (draw(st.lists(st.sampled_from(groups), max_size=size)) for size in (12, 3))
    return users, t, groups, column, extra


@given(random_columns(), st.integers(2, 14), st.integers(1, 8))
@settings(max_examples=300, deadline=None)
def test_column_load_matches_certifier_and_algorithm2(drawn, L, G):
    users, t, groups, column, extra = drawn
    load = ColumnLoad(L, G, column + extra)
    for g in extra:
        load.add(g, -1)
    table = ScheduleTable(users, t, L, G, (ScheduleColumn(tuple(column)),))
    assert load.fits() == decodability_check(table).ok
    admitted = [g for g in groups if load.admits(g)]
    assert admitted == [g for g in groups if _algorithm2_oracle(column, [], g, L, G, users)]
    # a query leaves the state as it was
    loads = (Counter(k for g in column for k in g), Counter(column), len(column) * (t + 1))
    assert (load.b, load.c, load.n) == loads


def test_paper_collections_validate(ex2_reference_baseline):
    plan = solve_plan(B=5, S=2, m=3, G=6, beta=3, omega=5, t=2)
    c1 = CandidateCollection(1, 2, tuple(tuple(sorted(a)) for a in EX2_COLL1))
    c2 = CandidateCollection(2, 1, tuple(tuple(sorted(a)) for a in EX2_COLL2))
    validate_collection(c1, ex2_reference_baseline.columns[1], plan)
    validate_collection(c2, ex2_reference_baseline.columns[0], plan)


def test_collection_validator_rejects_bad_regularity(ex2_reference_baseline):
    plan = solve_plan(B=5, S=2, m=3, G=6, beta=3, omega=5, t=2)
    sets = [tuple(sorted(a)) for a in EX2_COLL1]
    sets[0] = tuple(sorted([(1, 2, 5), (2, 4, 5), (2, 3, 4)]))  # 134 now used twice
    bad = CandidateCollection(1, 2, tuple(sets))
    with pytest.raises(ConstructionError):
        validate_collection(bad, ex2_reference_baseline.columns[1], plan)


def _all_regular_pair_collections(donor_groups, d, r, host, L, G, users):
    """Exhaustive oracle: every multiset of d two-element subsets of the donor
    column in which each donor group appears exactly r times and every set
    passes the feasibility check."""
    pairs = [p for p in itertools.combinations(sorted(donor_groups), 2)]
    feasible_pairs = [
        p
        for p in pairs
        if p[1] in linear_feasible_check(host, [p[0]], [p[1]], L, G, users)
        and p[0] in linear_feasible_check(host, [], [p[0]], L, G, users)
    ]
    out = []
    for combo in itertools.combinations_with_replacement(feasible_pairs, d):
        usage = Counter(g for p in combo for g in p)
        if all(usage[g] == r for g in donor_groups):
            out.append(Counter(combo))
    return out


def test_balanced_greedy_example1_matches_exhaustive_oracle(ex1_baseline):
    plan = solve_plan(B=5, S=2, m=2, G=3, beta=2, omega=5, t=1)
    coll = balanced_greedy(1, plan, ex1_baseline)
    donor = list(ex1_baseline.columns[1].groups)
    oracle = _all_regular_pair_collections(
        donor, plan.d, plan.r, ex1_baseline.columns[0], 10, 3, range(1, 6)
    )
    assert oracle, "the exhaustive search must find at least one valid collection"
    assert Counter(coll.sets) in oracle


def test_balanced_greedy_full_column_absorption(ex1_baseline):
    # m = B with tau = t+1: every set must be the entire donor column
    plan = AsymPlan(B=5, S=2, m=5, d=1, r=1, delta_tilde=2, S_tilde=2, tau=2, I_max=250)
    table = ScheduleTable(
        users=ex1_baseline.users,
        t=1,
        L=30,
        G=30,
        columns=ex1_baseline.columns,
    )
    coll = balanced_greedy(1, plan, table)
    assert coll.sets == (tuple(sorted(table.columns[1].groups)),)


def test_balanced_greedy_deterministic_under_seed(ex1_baseline):
    plan = solve_plan(B=5, S=2, m=2, G=3, beta=2, omega=5, t=1)
    a = balanced_greedy(1, plan, ex1_baseline)
    b = balanced_greedy(1, plan, ex1_baseline)
    assert a == b


@pytest.mark.parametrize("seed", [None, 5])
def test_balanced_greedy_stall_fails_fast(monkeypatch, seed):
    # (L, G, t, omega) = (12, 4, 1, 6), beta = 2, m = 2, tau = 1: the second
    # set stalls with a built set to swap against; the swap fails too.  The
    # full pipeline accepts a seed and stalls the same way whatever it is.
    import ccsched.asymmetric as asym

    baseline = schedule_symmetric(12, 4, 1, 6, 2, min_columns=2)
    calls = []
    admits = asym.ColumnLoad.admits

    def counting(load, g):
        calls.append(1)
        return admits(load, g)

    monkeypatch.setattr(asym.ColumnLoad, "admits", counting)
    counts = []
    for I_max in (50, 5000):
        plan = solve_plan(B=6, S=len(baseline.columns), m=2, G=4, beta=2, omega=6, t=1,
                          tau=1, I_max=I_max)
        calls.clear()
        with pytest.raises(ConstructionError, match="greedy stalled") as exc:
            balanced_greedy(1, plan, baseline)
        # a set was built before the stall, and another plan scaling d
        # changes the sets: not structural
        assert not exc.value.structural
        counts.append(len(calls))
        calls.clear()
        with pytest.raises(ConstructionError, match="greedy stalled") as exc:
            schedule_asymmetric(baseline, 2, tau=1, I_max=I_max, seed=seed)
        assert not exc.value.structural
        assert len(calls) == counts[-1]
    assert counts[0] == counts[1]
    assert counts[0] < 50


@pytest.mark.parametrize("shape,beta,m,match", [
    ((11, 8, 1, 4), 1, 3, "exceeds the 2 distinct donor groups"),
    ((10, 7, 1, 4), 4, 5, "quota exceeds d"),
    ((13, 6, 2, 7), 3, 1, "built 0/1 groups after 1 iterations"),
])
def test_rung_independent_failures_are_structural(shape, beta, m, match):
    """Too few donor groups, m*theta > B, and a first pick with no linearly
    feasible donor group fail for every tau and d alike."""
    baseline = schedule_symmetric(*shape, beta, min_columns=2)
    for tau, d_factor in ((None, 1), (shape[2] + 1, 3)):
        with pytest.raises(ConstructionError, match=match) as exc:
            schedule_asymmetric(baseline, m, tau=tau, d_factor=d_factor)
        assert exc.value.structural


def test_assemble_example1(ex1_baseline):
    table, plan, colls = schedule_asymmetric(ex1_baseline, m=2)
    assert len(table.columns) == 10
    assert all(len(c) == 7 for c in table.columns)
    profiles = [tuple(sorted(c.beta(table.users).values())) for c in table.columns]
    assert set(profiles) == {(2, 3, 3, 3, 3)}
    assert dof_of_table(table) == 14 == 10 + 2 * 2
    assert decodability_check(table).ok
    table.validate()  # every pair appears exactly delta_tilde = 7 times


def test_assemble_example2_from_paper_collections(ex2_reference_baseline):
    plan = solve_plan(B=5, S=2, m=3, G=6, beta=3, omega=5, t=2)
    colls = [
        CandidateCollection(1, 2, tuple(tuple(sorted(a)) for a in EX2_COLL1)),
        CandidateCollection(2, 1, tuple(tuple(sorted(a)) for a in EX2_COLL2)),
    ]
    table = assemble_table(ex2_reference_baseline, colls, plan)
    assert len(table.columns) == 10
    assert all(len(c) == 8 for c in table.columns)
    assert dof_of_table(table) == 24
    table.validate()
    # the zero-slack instance: some scheduled group has outside-sum 10 and
    # multiplicity 1, meeting the transmit bound with equality
    report = decodability_check(table)
    assert report.ok and report.min_slack == 0
    found = False
    for idx, col in enumerate(table.columns, start=1):
        theta = col.theta()
        beta = col.beta(table.users)
        total = sum(beta.values())
        for g, mult in theta.items():
            if mult == 1 and total - sum(beta[k] for k in g) == 10:
                found = True
    assert found


def test_assemble_m0_returns_baseline(ex1_baseline):
    table, plan, colls = schedule_asymmetric(ex1_baseline, m=0)
    assert table is ex1_baseline
    assert dof_of_table(table) == 10
    assert colls == []


def test_dof_of_table_nonuniform_reports_vector():
    t = ScheduleTable(
        users=(1, 2, 3),
        t=1,
        L=5,
        G=5,
        columns=(ScheduleColumn.of([(1, 2)]), ScheduleColumn.of([(1, 2), (1, 3)])),
    )
    assert dof_of_table(t) == [2, 4]


def test_conservation_of_assembled_tables(ex1_baseline):
    table, plan, _ = schedule_asymmetric(ex1_baseline, m=1)
    totals = table.group_totals()
    assert set(totals.values()) == {plan.delta_tilde * ex1_baseline.delta}


def test_greedy_monotone_bookkeeping(ex1_baseline):
    # adding a group increments each member's count and the group multiplicity
    table, plan, colls = schedule_asymmetric(ex1_baseline, m=2)
    for coll, base_col in zip(colls, ex1_baseline.columns):
        base_beta = base_col.beta(table.users)
        base_theta = base_col.theta()
        for a in coll.sets:
            col = ScheduleColumn.of(list(base_col.groups) + list(a))
            beta = col.beta(table.users)
            theta = col.theta()
            for g in a:
                assert theta[g] == base_theta.get(g, 0) + 1
            for k in table.users:
                bump = sum(1 for g in a if k in g)
                assert beta[k] == base_beta[k] + bump


def test_max_additions_bound():
    assert max_additions(3, 2, 5, 1) == 2
    assert max_additions(6, 3, 5, 2) == 3
    assert max_additions(8, 1, 4, 1) == 14
