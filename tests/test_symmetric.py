import itertools
import math
from fractions import Fraction

import pytest

from ccsched.errors import ParameterError
from ccsched.model import ScheduleColumn
from ccsched.symmetric import (
    DEFAULT_DELTA_MAX,
    HatParams,
    build_base_partition,
    feasible_beta_set,
    hat_params,
    min_delta,
    plan_symmetric,
    regroup,
    resolution_partition,
    schedule_symmetric,
    validate_base_partition,
)
from ccsched.verifier import decodability_check


def test_hat_params_examples():
    assert hat_params(5, 1) == HatParams(2, 5, 2)
    assert hat_params(5, 2) == HatParams(3, 5, 2)
    assert hat_params(4, 1) == HatParams(1, 2, 3)  # gcd(2,4)=2, C(4,2)/2
    with pytest.raises(ParameterError):
        hat_params(3, 3)


def test_feasible_beta_set_examples():
    assert feasible_beta_set(11, 8, 2, 4) == [3, 6]
    assert feasible_beta_set(10, 3, 1, 5) == [2]
    assert feasible_beta_set(10, 3, 1, 10) == [1]
    # eta <= min(33/7, 8) -> eta in 1..4, each admitting a delta <= 12
    assert feasible_beta_set(11, 8, 1, 4) == [1, 2, 3, 4]


def test_feasible_beta_set_matches_a_fraction_reference():
    """The integer floors of the two antenna bounds against exact rationals."""
    for L, G, t in itertools.product(range(1, 31), range(1, 13), range(5)):
        for omega in range(t + 1, 15):
            hat = hat_params(omega, t)
            tx = Fraction(L * hat.S_hat, 1 + (omega - t - 1) * hat.S_hat * hat.beta_hat)
            eta_max = int(min(tx, Fraction(G, hat.beta_hat)))
            want = [
                eta * hat.beta_hat
                for eta in range(1, eta_max + 1)
                if min_delta(eta, hat.S_hat) <= DEFAULT_DELTA_MAX
            ]
            assert feasible_beta_set(L, G, t, omega) == want, (L, G, t, omega)


def test_feasible_beta_set_members_bounded_by_G():
    for L, G, t, omega in [(11, 8, 2, 6), (10, 3, 1, 3), (16, 5, 2, 7)]:
        hat = hat_params(omega, t)
        for beta in feasible_beta_set(L, G, t, omega):
            assert beta % hat.beta_hat == 0
            assert beta <= G


def test_feasible_beta_empty_is_valid():
    # one transmit antenna cannot serve interference-free pairs at omega=4
    assert feasible_beta_set(1, 1, 1, 4) == []


def _brute_force_matching_partitions(omega):
    """All ways to split the edge set of the complete graph into perfect
    matchings, as frozensets of frozensets (independent oracle)."""
    edges = list(itertools.combinations(range(1, omega + 1), 2))
    matchings = [
        frozenset(m)
        for m in itertools.combinations(edges, omega // 2)
        if len({u for e in m for u in e}) == omega
    ]
    partitions = set()

    def extend(remaining, chosen):
        if not remaining:
            partitions.add(frozenset(chosen))
            return
        anchor = min(remaining)
        for m in matchings:
            if anchor in m and m <= remaining:
                extend(remaining - m, chosen + [m])

    extend(frozenset(edges), [])
    return partitions


def test_base_partition_k4_matches_bruteforce():
    oracle = _brute_force_matching_partitions(4)
    assert len(oracle) == 1  # K4 has a unique 1-factorization
    cols = build_base_partition(4, 1)
    got = frozenset(frozenset(c.groups) for c in cols)
    assert got in oracle
    assert got == frozenset(
        {
            frozenset({(1, 2), (3, 4)}),
            frozenset({(1, 3), (2, 4)}),
            frozenset({(1, 4), (2, 3)}),
        }
    )


def test_base_partition_trivial_single_group():
    cols = build_base_partition(3, 2)
    assert len(cols) == 1
    assert cols[0].groups == ((1, 2, 3),)


def test_reference_instance_passes_partition_validator():
    # a hand-picked 5-user, t=2 partition is a valid base partition
    cols = [
        ScheduleColumn.of([(1, 2, 3), (1, 2, 4), (3, 4, 5), (2, 3, 5), (1, 4, 5)]),
        ScheduleColumn.of([(1, 2, 5), (1, 3, 4), (2, 3, 4), (2, 4, 5), (1, 3, 5)]),
    ]
    validate_base_partition(cols, 5, 2)


# every shape up to 16 users whose group count stays at most 5000
PARTITION_SHAPES = [
    (omega, t)
    for omega in range(1, 17)
    for t in range(omega)
    if math.comb(omega, t + 1) <= 5000
]


@pytest.mark.parametrize("omega,t", PARTITION_SHAPES)
def test_base_partition_valid_across_shapes(omega, t):
    # the flow construction needs no search, whatever the shape
    validate_base_partition(build_base_partition(omega, t), omega, t)


def test_base_partition_deterministic():
    for omega, t in [(5, 1), (5, 2), (7, 2), (7, 3), (8, 2), (9, 3), (11, 4)]:
        a = build_base_partition(omega, t)
        b = build_base_partition(omega, t)
        assert [c.groups for c in a] == [c.groups for c in b]


@pytest.mark.parametrize("omega,size", [(4, 2), (6, 2), (6, 3), (8, 4), (9, 3), (10, 5), (12, 3), (12, 4)])
def test_resolution_partition_parallel_classes(omega, size):
    # the flow construction yields disjoint classes covering every subset once
    classes = resolution_partition(omega, size)
    assert len(classes) == math.comb(omega - 1, size - 1)
    seen = []
    for cls in classes:
        assert len(cls) == omega // size
        covered = [u for g in cls for u in g]
        assert sorted(covered) == list(range(1, omega + 1))
        seen.extend(cls)
    assert sorted(seen) == [
        tuple(c) for c in itertools.combinations(range(1, omega + 1), size)
    ]


def test_resolution_partition_is_deterministic():
    assert resolution_partition(9, 3) == resolution_partition(9, 3)


def test_regroup_identity_is_reference_table():
    base = build_base_partition(5, 1)
    table = regroup(base, eta=1, delta=1, L=10, G=3)
    assert len(table.columns) == 2
    for col in table.columns:
        assert len(col) == 5
        assert set(col.beta(table.users).values()) == {2}
    table.validate()


def test_regroup_full_merge_single_column():
    base = build_base_partition(4, 1)  # S_hat = 3
    table = regroup(base, eta=3, delta=1, L=11, G=8)
    assert len(table.columns) == 1
    assert set(table.columns[0].beta(table.users).values()) == {3}


def test_regroup_example2_shape():
    base = build_base_partition(5, 2)
    table = regroup(base, eta=1, delta=1, L=11, G=6)
    assert len(table.columns) == 2
    for col in table.columns:
        assert set(col.beta(table.users).values()) == {3}


def test_regroup_divisibility_error():
    base = build_base_partition(4, 1)
    with pytest.raises(ParameterError):
        regroup(base, eta=2, delta=1, L=11, G=8)  # 3 not divisible by 2


def test_regroup_conservation_with_replication():
    base = build_base_partition(4, 1)
    table = regroup(base, eta=2, delta=2, L=11, G=8)
    assert len(table.columns) == 3
    table.validate()  # every pair appears exactly delta=2 times
    for col in table.columns:
        assert set(col.beta(table.users).values()) == {2}


def test_min_delta():
    assert min_delta(1, 3) == 1
    assert min_delta(2, 3) == 2
    assert min_delta(4, 3) == 4
    assert min_delta(3, 3) == 1
    assert min_delta(6, 9) == 2


def test_plan_symmetric_min_columns_bumps_delta():
    # beta=3 at omega=4 gives S=1; a donor-needing caller asks for 2 columns
    plan = plan_symmetric(11, 8, 1, 4, beta=3)
    assert plan.S == 1
    plan2 = plan_symmetric(11, 8, 1, 4, beta=3, min_columns=2)
    assert plan2.S == 2 and plan2.beta == 3


def test_plan_symmetric_rejects_infeasible_beta():
    with pytest.raises(ParameterError):
        plan_symmetric(10, 3, 1, 5, beta=3)


def test_feasible_betas_yield_decodable_tables():
    # membership in the feasible set guarantees the symbolic conditions,
    # with per-group multiplicity at most eta
    for L, G, t, omega in [(11, 8, 1, 4), (11, 8, 2, 4), (10, 3, 1, 5), (11, 8, 2, 6), (12, 4, 1, 6)]:
        hat = hat_params(omega, t)
        for beta in feasible_beta_set(L, G, t, omega):
            table = schedule_symmetric(L, G, t, omega, beta)
            assert decodability_check(table).ok, (L, G, t, omega, beta)
            eta = beta // hat.beta_hat
            worst = max(max(col.theta().values()) for col in table.columns)
            assert worst <= eta
