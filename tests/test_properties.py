"""Property tests for the structural invariants the schedulers promise."""

import json
import math

from hypothesis import given, settings, strategies as st

from ccsched.asymmetric import donor_map, solve_plan
from ccsched.errors import InfeasibleMError
from ccsched.model import (
    ScheduleColumn,
    ScheduleTable,
    enumerate_groups,
    table_to_json,
)
from ccsched.symmetric import (
    build_base_partition,
    feasible_beta_set,
    hat_params,
    plan_symmetric,
    schedule_symmetric,
    validate_base_partition,
)
from ccsched.verifier import decodability_check

omega_t = st.integers(2, 8).flatmap(
    lambda om: st.tuples(st.just(om), st.integers(1, om - 1))
)


@given(omega_t, st.data())
@settings(max_examples=60, deadline=None)
def test_counting_identity(om_t, data):
    omega, t = om_t
    pool = enumerate_groups(range(1, omega + 1), t)
    picks = data.draw(st.lists(st.sampled_from(pool), min_size=1, max_size=15))
    col = ScheduleColumn.of(picks)
    theta, beta = col.theta(), col.beta(range(1, omega + 1))
    assert sum(beta.values()) == (t + 1) * sum(theta.values())
    assert all(v >= 1 for v in theta.values())


@given(omega_t)
@settings(max_examples=40, deadline=None)
def test_enumerate_groups_shape(om_t):
    omega, t = om_t
    groups = enumerate_groups(range(1, omega + 1), t)
    assert len(groups) == math.comb(omega, t + 1)
    assert len(set(groups)) == len(groups)
    assert groups == sorted(groups)
    assert all(len(g) == t + 1 for g in groups)


@given(omega_t)
@settings(max_examples=25, deadline=None)
def test_base_partition_is_valid(om_t):
    omega, t = om_t
    columns = build_base_partition(omega, t)
    validate_base_partition(columns, omega, t)


@given(omega_t, st.integers(2, 13), st.integers(1, 8))
@settings(max_examples=40, deadline=None)
def test_feasible_set_structure(om_t, L, G):
    omega, t = om_t
    hat = hat_params(omega, t)
    betas = feasible_beta_set(L, G, t, omega)
    assert betas == sorted(set(betas))
    for beta in betas:
        assert beta % hat.beta_hat == 0
        assert beta <= G


@given(omega_t, st.integers(2, 13), st.integers(1, 8))
@settings(max_examples=30, deadline=None)
def test_symmetric_tables_decodable_with_bounded_multiplicity(om_t, L, G):
    """Feasible-set membership guarantees the symbolic conditions, with
    per-column group multiplicity bounded by the merge factor."""
    omega, t = om_t
    hat = hat_params(omega, t)
    for beta in feasible_beta_set(L, G, t, omega):
        table = schedule_symmetric(L, G, t, omega, beta)
        plan = plan_symmetric(L, G, t, omega, beta)
        assert decodability_check(table).ok
        for col in table.columns:
            assert len(col) == plan.B
            assert set(col.beta(table.users).values()) == {beta}
            assert max(col.theta().values()) <= plan.eta
        table.validate()


@given(st.integers(2, 30), st.integers(1, 30))
@settings(max_examples=60, deadline=None)
def test_donor_map_bijective(S, i):
    i = 1 + (i - 1) % S
    if S < 2:
        return
    psi = donor_map(i, S)
    assert 1 <= psi <= S and psi != i
    assert {donor_map(j, S) for j in range(1, S + 1)} == set(range(1, S + 1))


@given(
    st.integers(1, 10),
    st.integers(1, 6),
    st.integers(1, 10),
    st.integers(2, 9),
    st.integers(1, 4),
)
@settings(max_examples=80, deadline=None)
def test_plan_arithmetic(B, S, m, G, t):
    omega = t + 2
    beta = 1
    try:
        plan = solve_plan(B, S, min(m, B), G, beta, omega, t)
    except InfeasibleMError:
        assert min(m, B) > (G - beta) * (omega // (t + 1))
        return
    assert plan.m * plan.S_tilde == plan.B * (plan.delta_tilde * plan.S - plan.S_tilde)
    assert plan.r * plan.B == plan.d * plan.m
    assert plan.S_tilde == plan.d * plan.S


ints = st.integers(-(10**12), 10**12)
groups = st.lists(ints, max_size=4).map(tuple)
tables = st.builds(
    ScheduleTable,
    users=st.lists(ints, max_size=6).map(tuple),
    t=ints,
    L=ints,
    G=ints,
    columns=st.lists(st.lists(groups, max_size=5).map(lambda c: ScheduleColumn(tuple(c))), max_size=5)
    .map(tuple),
    delta=ints,
    delta_tilde=ints,
    m=ints,
)


@given(tables)
@settings(max_examples=200, deadline=None)
def test_table_to_json_is_json_dumps_indent_2(table):
    """The direct writer gives the bytes of the json module's indent=2 layout,
    empty lists, negative and repeated groups included."""
    doc = {
        "omega": table.omega,
        "t": table.t,
        "L": table.L,
        "G": table.G,
        "users": list(table.users),
        "delta": table.delta,
        "delta_tilde": table.delta_tilde,
        "m": table.m,
        "columns": [[list(g) for g in col.groups] for col in table.columns],
    }
    assert table_to_json(table) == json.dumps(doc, indent=2) + "\n"
