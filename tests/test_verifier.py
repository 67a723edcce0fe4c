from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from ccsched.errors import MalformedTableError, NullityDeficientError, ParameterError, VerificationError
from ccsched.model import ScheduleColumn, ScheduleTable
from ccsched.symmetric import schedule_symmetric
from ccsched.asymmetric import schedule_asymmetric
from ccsched.verifier import (
    ChannelRealization,
    build_beamformers,
    check_column,
    nullspace_basis,
    decodability_check,
    verify_numeric,
    verify_table_numeric,
    SymbolicReport,
    Witness,
)


@pytest.fixture(scope="module")
def ex1_table():
    base = schedule_symmetric(10, 3, 1, 5, 2)
    table, _, _ = schedule_asymmetric(base, m=2)
    return table


def test_symbolic_check_example1_passes(ex1_table):
    report = decodability_check(ex1_table)
    assert report.ok
    assert all(report.per_column)


def test_symbolic_check_overloaded_column_fails_with_witness():
    col = ScheduleColumn.of([(1, 2)] * 11)  # L+1 copies, user 3 idle
    table = ScheduleTable(
        users=(1, 2, 3), t=1, L=10, G=30, columns=(col,), delta=1, delta_tilde=11
    )
    report = decodability_check(table)
    assert not report.ok
    w = report.witnesses[0]
    assert (w.column, w.condition, w.subject) == (1, "tx", (1, 2))
    assert w.lhs == 11 and w.bound == 10


def test_symbolic_check_rx_witness():
    col = ScheduleColumn.of([(1, 2)] * 4)
    table = ScheduleTable(users=(1, 2), t=1, L=30, G=3, columns=(col,), delta_tilde=4)
    report = decodability_check(table)
    assert not report.ok
    assert {w.condition for w in report.witnesses} == {"rx"}


def test_nullspace_basis_thresholding():
    rng = np.random.default_rng(0)
    A = rng.standard_normal((3, 6)) + 1j * rng.standard_normal((3, 6))
    basis, rank = nullspace_basis(A)
    assert rank == 3 and basis.shape == (6, 3)
    assert np.linalg.norm(A @ basis) < 1e-10
    assert np.allclose(basis.conj().T @ basis, np.eye(3), atol=1e-10)
    # duplicated rows lose rank
    B = np.vstack([A, A[0]])
    _, rank_b = nullspace_basis(B)
    assert rank_b == 3


def test_nullspace_empty_matrix_is_full_space():
    basis, rank = nullspace_basis(np.empty((0, 4), dtype=complex))
    assert rank == 0 and basis.shape == (4, 4)


def test_build_beamformers_single_group_full_space():
    # all users cached-covered: no outside users, any theta <= L unit vectors fit
    col = ScheduleColumn.of([(1, 2)] * 3)
    ch = ChannelRealization.draw((1, 2), G=4, L=4, seed=1)
    sol = build_beamformers(col, ch)
    assert sol.nullities[(1, 2)] == 4
    assert sol.beams[(1, 2)].shape == (4, 3)


def test_build_beamformers_example1_nullities(ex1_table):
    ch = ChannelRealization.draw(ex1_table.users, G=3, L=10, seed=3)
    col = ex1_table.columns[0]
    beta = col.beta(ex1_table.users)
    sol = build_beamformers(col, ch)
    for g, nullity in sol.nullities.items():
        outside = sum(beta[k] for k in ex1_table.users if k not in g)
        assert nullity == 10 - outside
        assert nullity in (1, 2)


def test_build_beamformers_unit_stream_case():
    # two single-user groups, two copies each: nullity per group is L - beta_other
    col = ScheduleColumn.of([(1,), (1,), (2,), (2,)])
    ch = ChannelRealization.draw((1, 2), G=2, L=4, seed=5)
    sol = build_beamformers(col, ch)
    assert sol.nullities[(1,)] == 4 - 2
    assert sol.nullities[(2,)] == 4 - 2


def test_build_beamformers_detects_overload():
    col = ScheduleColumn.of([(1, 2)] * 11)
    ch = ChannelRealization.draw((1, 2, 3), G=30, L=10, seed=7)
    with pytest.raises(NullityDeficientError):
        build_beamformers(col, ch)


def test_verify_numeric_passes_on_valid_column(ex1_table):
    ch = ChannelRealization.draw(ex1_table.users, G=3, L=10, seed=11)
    col = ex1_table.columns[2]
    sol = build_beamformers(col, ch)
    rep = verify_numeric(col, ch, sol, tol=1e-9, sigma_tol=1e-6)
    assert rep.ok
    assert rep.max_leakage <= 1e-9
    assert rep.min_sigma > 1e-6
    # the worst margins are located: a single draw is trial 0
    assert rep.min_sigma_at["trial"] == 0 and rep.min_sigma_at["user"] in ex1_table.users
    assert rep.max_leakage_at["trial"] == 0 and tuple(rep.max_leakage_at["group"]) in col.groups


def test_verify_numeric_monotone_in_tol(ex1_table):
    ch = ChannelRealization.draw(ex1_table.users, G=3, L=10, seed=13)
    col = ex1_table.columns[0]
    sol = build_beamformers(col, ch)
    strict = verify_numeric(col, ch, sol, tol=1e-13, sigma_tol=1e-6)
    loose = verify_numeric(col, ch, sol, tol=1e-6, sigma_tol=1e-6)
    if strict.ok:
        assert loose.ok
    assert loose.max_leakage == strict.max_leakage


def test_verify_numeric_beta_equals_G_still_full_rank():
    # square combiner: beta_k = G, effective matrix generically invertible
    col = ScheduleColumn.of([(1, 2), (1, 2), (1, 3), (2, 3)])
    ch = ChannelRealization.draw((1, 2, 3), G=3, L=9, seed=17)
    sol = build_beamformers(col, ch)
    rep = verify_numeric(col, ch, sol)
    assert rep.ok and rep.min_sigma > 1e-6


def test_numeric_oracle_over_seeds(ex1_table):
    rep = verify_table_numeric(ex1_table, trials=25, seed=100)
    assert rep.ok
    assert rep.max_leakage <= 1e-9
    assert rep.min_sigma > 1e-6


def test_symbolic_numeric_agreement_on_violation():
    # transmit bound violated by one: the nullspace cannot host all copies
    col = ScheduleColumn.of([(1, 2)] * 11)
    failures = 0
    for seed in range(100):
        ch = ChannelRealization.draw((1, 2, 3), G=30, L=10, seed=seed)
        try:
            build_beamformers(col, ch)
        except NullityDeficientError:
            failures += 1
    assert failures >= 99


def test_verify_table_numeric_rejects_symbolic_failures():
    col = ScheduleColumn.of([(1, 2)] * 11)
    table = ScheduleTable(users=(1, 2, 3), t=1, L=10, G=30, columns=(col,), delta_tilde=11)
    with pytest.raises(VerificationError):
        verify_table_numeric(table, trials=1)
    with pytest.raises(VerificationError):
        verify_table_numeric(table, trials=1, symbolic=decodability_check(table))


@pytest.mark.parametrize("bad", [float("nan"), float("inf"), 0.0, -1.0])
@pytest.mark.parametrize("name", ["tol", "sigma_tol"])
def test_tolerances_must_be_finite_positive(ex1_table, name, bad):
    # nan or inf would pass every cell; 0 or less would fail every one
    with pytest.raises(ParameterError, match=name):
        verify_table_numeric(ex1_table, trials=1, **{name: bad})
    ch = ChannelRealization.draw(ex1_table.users, G=3, L=10, seed=1)
    col = ex1_table.columns[0]
    with pytest.raises(ParameterError, match=name):
        verify_numeric(col, ch, build_beamformers(col, ch), **{name: bad})


@pytest.mark.parametrize("trials", [0, -3])
def test_verify_table_numeric_needs_a_trial(ex1_table, monkeypatch, trials):
    # no trial would draw no channel and pass every table
    drawn = []
    monkeypatch.setattr(ChannelRealization, "draw", lambda *a, **k: drawn.append(a))
    with pytest.raises(ParameterError, match="trials"):
        verify_table_numeric(ex1_table, trials=trials)
    assert not drawn


def test_channel_realization_deterministic():
    a = ChannelRealization.draw((1, 2, 3), G=2, L=4, seed=9)
    b = ChannelRealization.draw((1, 2, 3), G=2, L=4, seed=9)
    for k in a.users:
        assert np.array_equal(a.H[k], b.H[k])
    c = ChannelRealization.draw((1, 2, 3), G=2, L=4, seed=10)
    assert not np.array_equal(a.H[1], c.H[1])


def test_check_column_slack():
    col = ScheduleColumn.of([(1, 2), (3, 4)])
    witnesses, slack = check_column(col, (1, 2, 3, 4), L=5, G=2)
    # each group: outside-sum 2 plus multiplicity 1 -> lhs 3, slack 2
    assert not witnesses and slack == 2


def _reference_check_column(col, users, L, G, column_index):
    """The per-column loop the table-level certifier replaced."""
    theta = col.theta()
    beta = col.beta(users)
    total = sum(beta.values())
    witnesses = []
    min_slack = L
    for g, mult in sorted(theta.items()):
        lhs = mult + total - sum(beta[k] for k in g)
        min_slack = min(min_slack, L - lhs)
        if lhs > L:
            witnesses.append(Witness(column_index, "tx", g, lhs, L))
    for k in sorted(beta):
        if beta[k] > G:
            witnesses.append(Witness(column_index, "rx", (k,), beta[k], G))
    return witnesses, min_slack


def _reference_decodability_check(table, L=None, G=None):
    L = table.L if L is None else L
    G = table.G if G is None else G
    witnesses, per_column, min_slack = [], [], L
    for idx, col in enumerate(table.columns, start=1):
        found, slack = _reference_check_column(col, table.users, L, G, idx)
        per_column.append(not found)
        witnesses.extend(found)
        min_slack = min(min_slack, slack)
    return SymbolicReport(not witnesses, tuple(witnesses), tuple(per_column), min_slack)


@st.composite
def random_tables(draw):
    """Tables over a few users with repeated groups of mixed sizes, empty
    columns, canonical or raw group order, and loads around L and G."""
    users = draw(st.lists(st.integers(1, 12), min_size=1, max_size=6, unique=True))
    group = st.lists(st.sampled_from(sorted(users)), min_size=1, max_size=4, unique=True).map(
        lambda g: tuple(sorted(g))
    )
    pool = draw(st.lists(group, min_size=1, max_size=6))
    columns = []
    for groups in draw(st.lists(st.lists(st.sampled_from(pool), max_size=9), max_size=6)):
        columns.append(ScheduleColumn.of(groups) if draw(st.booleans()) else ScheduleColumn(tuple(groups)))
    return ScheduleTable(
        users=tuple(users), t=1, L=draw(st.integers(0, 12)), G=draw(st.integers(0, 6)),
        columns=tuple(columns),
    )


@given(random_tables(), st.none() | st.integers(-1, 14), st.none() | st.integers(-1, 8))
@settings(max_examples=200, deadline=None)
def test_table_certifier_matches_per_column_reference(table, L, G):
    overridden = replace(table, L=table.L if L is None else L, G=table.G if G is None else G)
    assert decodability_check(overridden) == _reference_decodability_check(table, L, G)
    for idx, col in enumerate(table.columns, start=3):
        want = _reference_check_column(col, table.users, table.L, table.G, idx)
        assert check_column(col, table.users, table.L, table.G, idx) == want


def test_table_certifier_orders_witnesses_per_column():
    # column 1 fails tx on (1, 2) and (3,) and rx on users 1 and 2; column 2
    # is empty; column 3 passes; a repeated group and mixed sizes throughout
    cols = (
        ScheduleColumn.of([(1, 2)] * 3 + [(3,), (1, 2, 3)]),
        ScheduleColumn(()),
        ScheduleColumn.of([(1, 3), (4,)]),
    )
    table = ScheduleTable(users=(1, 2, 3, 4), t=1, L=3, G=3, columns=cols)
    report = decodability_check(table)
    assert report == _reference_decodability_check(table)
    assert [(w.column, w.condition, w.subject) for w in report.witnesses] == [
        (1, "tx", (1, 2)), (1, "tx", (3,)), (1, "rx", (1,)), (1, "rx", (2,)),
    ]
    assert report.per_column == (False, True, True)
    assert report.min_slack == 3 - 9
    empty = ScheduleTable(users=(1, 2), t=1, L=4, G=2, columns=())
    assert decodability_check(empty) == SymbolicReport(True, (), (), 4)


def test_table_certifier_rejects_users_outside_the_served_set():
    col = ScheduleColumn.of([(1, 2), (2, 5)])
    table = ScheduleTable(users=(1, 2, 3), t=1, L=9, G=9, columns=(col,))
    with pytest.raises(MalformedTableError, match="user 5"):
        decodability_check(table)
    with pytest.raises(MalformedTableError, match="user 5"):
        check_column(col, table.users, 9, 9)
