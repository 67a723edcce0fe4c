import dataclasses
import itertools
import math
from pathlib import Path

import numpy as np
import pytest

from ccsched.errors import MalformedTableError, ParameterError, VerificationError
from ccsched.model import ScheduleColumn, ScheduleTable, table_from_json
from ccsched.symmetric import schedule_symmetric
from ccsched.asymmetric import schedule_asymmetric
from ccsched.rates import (
    column_rate,
    column_rates,
    high_snr_slope,
    sinrs_from_coefficients,
    snr_sweep,
    stream_coefficients,
    sweep_to_csv,
    symmetric_rate_from_columns,
)
from ccsched.verifier import ChannelRealization, build_beamformers, decodability_check, verify_table_numeric


@pytest.fixture(scope="module")
def ex1_tables():
    base = schedule_symmetric(10, 3, 1, 5, 2)
    asym, _, _ = schedule_asymmetric(base, m=2)
    return base, asym


def _solution(table, col_idx, seed):
    col = table.columns[col_idx]
    ch = ChannelRealization.draw(table.users, table.G, table.L, seed=seed)
    sol = build_beamformers(col, ch)
    return col, ch, sol


def test_single_user_scalar_channel_sinr():
    # one user, one antenna each side, |h| = 1: SINR = P/N0 exactly
    col = ScheduleColumn.of([(1,)])
    ch = ChannelRealization.draw((1,), G=1, L=1, seed=0)
    ch.H[1][:] = 1.0
    sol = build_beamformers(col, ch)
    sinrs = sinrs_from_coefficients(stream_coefficients(col, ch, sol), len(sol.streams), power_total=5.0, N0=0.5)
    assert len(sinrs) == 1
    assert next(iter(sinrs.values())) == pytest.approx(10.0, rel=1e-12)


def test_perfect_zf_leakage_negligible(ex1_tables):
    _, asym = ex1_tables
    col, ch, sol = _solution(asym, 0, seed=21)
    coeffs = stream_coefficients(col, ch, sol)
    p = 1.0 / len(sol.streams)
    for c, l in coeffs.values():
        assert l * p <= 1e-12 * p  # residual cross-group power is machine noise


def test_doubling_power_doubles_sinr(ex1_tables):
    _, asym = ex1_tables
    col, ch, sol = _solution(asym, 1, seed=22)
    coeffs, n = stream_coefficients(col, ch, sol), len(sol.streams)
    s1 = sinrs_from_coefficients(coeffs, n, power_total=2.0, N0=1.0)
    s2 = sinrs_from_coefficients(coeffs, n, power_total=4.0, N0=1.0)
    for key in s1:
        assert s2[key] == pytest.approx(2 * s1[key], rel=1e-9)


def test_scale_invariance(ex1_tables):
    _, asym = ex1_tables
    col, ch, sol = _solution(asym, 2, seed=23)
    coeffs, n = stream_coefficients(col, ch, sol), len(sol.streams)
    a = sinrs_from_coefficients(coeffs, n, power_total=3.0, N0=1.0)
    b = sinrs_from_coefficients(coeffs, n, power_total=30.0, N0=10.0)
    for key in a:
        assert b[key] == pytest.approx(a[key], rel=1e-12)


def test_column_rate_uniform_and_bottleneck():
    assert column_rate({("a", 0, 1): 3.0, ("b", 0, 2): 3.0}) == pytest.approx(2.0)
    assert column_rate({("a", 0, 1): 0.0, ("b", 0, 2): 100.0}) == 0.0
    with pytest.raises(ParameterError):
        column_rate({})


def test_zero_power_gives_zero_rate():
    coeffs = {("g", 0, 1): (1.0, 0.0)}
    sinrs = sinrs_from_coefficients(coeffs, 1, 0.0, 1.0)
    assert column_rate(sinrs) == 0.0
    assert symmetric_rate_from_columns([0.0, 1.0], theta=5, n_users=5) == 0.0


def test_symmetric_rate_of_a_stack_and_of_no_rates():
    """One statement for one table's column rates, a float, and for a stack
    of them, an array over its leading axes; no rates are refused."""
    rates = np.array([[1.5, 2.0, 4.0], [1.5, 0.0, 4.0], [3.0, 0.5, 0.25]])
    stacked = symmetric_rate_from_columns(rates, 35, 5)
    one = [symmetric_rate_from_columns(row, 35, 5) for row in rates]
    assert all(type(r) is float for r in one) and one[1] == 0.0
    assert stacked.shape == (3,) and stacked.tolist() == one
    for empty in ([], np.zeros((2, 0))):
        with pytest.raises(ParameterError, match="no column rates"):
            symmetric_rate_from_columns(empty, 35, 5)


def test_symmetric_rate_identity():
    rates = [1.5, 2.0, 4.0]
    theta, n_users = 35, 5
    rsym = symmetric_rate_from_columns(rates, theta, n_users)
    t_total = sum(1.0 / (theta * r) for r in rates)
    assert rsym == pytest.approx(n_users / t_total, rel=1e-12)


def test_snr_sweep_monotone_and_identity(ex1_tables):
    base, _ = ex1_tables
    points = snr_sweep(base, [0, 10, 20, 30], trials=20, seed=5)
    rs = [p.symmetric_rate for p in points]
    assert all(a <= b for a, b in zip(rs, rs[1:]))
    for p in points:
        theta = math.comb(5, 1) * base.delta * base.delta_tilde
        assert p.symmetric_rate == pytest.approx(
            symmetric_rate_from_columns(p.per_column_rate, theta, 5), rel=1e-12
        )
        assert p.trials == 20 and p.seed == 5


def test_snr_sweep_deterministic(ex1_tables):
    base, _ = ex1_tables
    a = snr_sweep(base, [10, 20], trials=5, seed=9)
    b = snr_sweep(base, [10, 20], trials=5, seed=9)
    assert a == b


def test_example1_positive_rates_at_30db(ex1_tables):
    _, asym = ex1_tables
    points = snr_sweep(asym, [30], trials=30, seed=77)
    assert all(r > 0 for r in points[0].per_column_rate)


def test_high_snr_slope_ratio(ex1_tables):
    base, asym = ex1_tables
    grid = [20, 25, 30, 35]
    p10 = snr_sweep(base, grid, trials=60, seed=31)
    p14 = snr_sweep(asym, grid, trials=60, seed=31)
    ratio = high_snr_slope(p14) / high_snr_slope(p10)
    assert 1.4 * 0.85 <= ratio <= 1.4 * 1.15


def test_sweep_csv_format(ex1_tables):
    base, _ = ex1_tables
    points = snr_sweep(base, [0, 10], trials=3, seed=1)
    csv = sweep_to_csv(points, dof=10, theta=5)
    lines = csv.strip().split("\n")
    assert lines[0] == "snr_db,mean_rsym,std_rsym,min_column_rate,dof,theta"
    assert len(lines) == 3
    assert lines[1].endswith(",10,5")


@pytest.mark.parametrize("trials", [0, -3])
def test_snr_sweep_needs_a_trial(ex1_tables, recwarn, trials):
    # no trial would average empty arrays into NaN rates; the per-column
    # rates are refused alike (at 0 trials their batch width divided by zero)
    runs = (
        lambda: snr_sweep(ex1_tables[0], [0, 10], trials=trials),
        lambda: column_rates(ex1_tables[0], np.array([1.0]), trials, 0),
    )
    for run in runs:
        with pytest.raises(ParameterError, match=f"trials must be at least 1, got {trials}"):
            run()
    assert not recwarn.list


def _no_draw(*args, **kwargs):
    raise AssertionError("a channel was drawn")


@pytest.mark.parametrize("field,value,witness", [
    ("G", 2, "column 1: rx at (1,) gives 3 > 2"),
    ("L", 8, "column 1: tx at (1, 2) gives 9 > 8"),
], ids=["G", "L"])
def test_numeric_runs_refuse_a_failing_table_alike(monkeypatch, field, value, witness):
    """Example 1 at DoF 14 with one antenna fewer on either side fails the
    antenna-load rule: the oracle, the sweep and its per-column rates all
    refuse it before any draw, with the same reason naming the first
    witness.  The per-column rates used to end in an IndexError at G = 2."""
    text = (Path(__file__).parent / "data" / "example1_dof14.json").read_text()
    table = dataclasses.replace(table_from_json(text), **{field: value})
    monkeypatch.setattr(ChannelRealization, "draw", staticmethod(_no_draw))
    runs = (
        lambda: verify_table_numeric(table, trials=2),
        lambda: snr_sweep(table, [0, 10], trials=2),
        lambda: column_rates(table, np.array([1.0]), 2, 0),
    )
    for run in runs:
        with pytest.raises(VerificationError) as refused:
            run()
        assert str(refused.value) == f"table fails the symbolic check: {witness}"


def test_repeated_user_is_refused_before_any_draw(monkeypatch):
    """A user list that repeats a user passes ``validate()`` but would count
    the user twice: the sweep read Theta as 42 instead of 35 and rates of
    0.380 and 72.6 instead of 0.244 and 50.0 at 0 and 30 dB.  The slot pass
    that every verdict and rate reads refuses it before any draw, with the
    reason ``table_from_json`` gives for the same user list."""
    text = (Path(__file__).parent / "data" / "example1_dof14.json").read_text()
    table = table_from_json(text)
    repeated = dataclasses.replace(table, users=table.users + (1,))
    repeated.validate()
    with pytest.raises(MalformedTableError) as parsed:
        table_from_json(text.replace('"users": [', '"users": [\n    1,', 1))
    monkeypatch.setattr(ChannelRealization, "draw", staticmethod(_no_draw))
    runs = (
        lambda: decodability_check(repeated),
        lambda: verify_table_numeric(repeated, trials=2),
        lambda: snr_sweep(repeated, [0, 30], trials=2),
        lambda: column_rates(repeated, np.array([1.0]), 2, 0),
    )
    for run in runs:
        with pytest.raises(MalformedTableError) as refused:
            run()
        assert str(refused.value) == str(parsed.value) == "user 1 repeats in the user list"


def test_empty_column_is_refused_before_any_draw(ex1_tables, monkeypatch):
    """An empty column holds no stream to rate: the sweep refuses the table
    at once, without drawing the channels of the columns before it."""
    _, asym = ex1_tables
    table = dataclasses.replace(asym, columns=asym.columns + (ScheduleColumn(()),))
    monkeypatch.setattr(ChannelRealization, "draw", staticmethod(_no_draw))
    with pytest.raises(ParameterError, match="column has no scheduled streams"):
        snr_sweep(table, [0, 10], trials=3000)


def test_table_without_columns_is_refused_before_any_draw(monkeypatch):
    """A table with no columns has no rate to average: the sweep and the
    per-column rates refuse it at once."""
    table = ScheduleTable((1, 2, 3), 1, 4, 2, ())
    monkeypatch.setattr(ChannelRealization, "draw", staticmethod(_no_draw))
    for run in (lambda: snr_sweep(table, [0], trials=2), lambda: column_rates(table, np.array([1.0]), 2, 0)):
        with pytest.raises(ParameterError, match="table has no columns"):
            run()


def exponential_integral(x: float) -> float:
    """E1(x) for x > 0: the power series -gamma - ln x - sum_k (-x)^k/(k k!)
    up to 1, the continued fraction e^-x/(x + 1 - 1/(x + 3 - 4/(x + 5 - ...)))
    above, by Lentz's method (Abramowitz and Stegun 5.1.11 and 5.1.22)."""
    if x <= 1:
        total, term, k = 0.0, 1.0, 0
        while abs(term) > 1e-17:
            k += 1
            term *= -x / k
            total += term / k
        return -0.5772156649015329 - math.log(x) - total
    b, c, d = x + 1, 1e300, 1 / (x + 1)
    fraction, step, i = d, 0.0, 0
    while abs(step - 1) > 1e-16:
        i += 1
        b += 2
        d = 1 / (b - i * i * d)
        c = b - i * i / c
        step = c * d
        fraction *= step
    return fraction * math.exp(-x)


def test_exponential_integral_known_values():
    # E1(0.5), E1(1) and E1(2), from Abramowitz and Stegun table 5.1
    for x, want in ((0.5, 0.5597735947761608), (1.0, 0.21938393439552029), (2.0, 0.04890051070806112)):
        assert exponential_integral(x) == pytest.approx(want, rel=1e-14)


def test_one_group_columns_match_the_closed_form_rate():
    """An analytic anchor for the rate model.  A column of one group has one
    stream, whose beam spans the nullspace of no outside stream, a fixed unit
    vector; each of the group's t + 1 members decodes it on its first
    antenna with an Exp(1) gain, so the bottleneck SINR is P Y with Y ~
    Exp(t + 1) and E[R] = log2(e) e^(l/P) E1(l/P), l = t + 1.  Every (trial,
    column) cell is its own draw, so the mean over the cells has standard
    error s/sqrt(n), s their spread: 0.0026, 0.0072 and 0.0116 bits at 0, 10
    and 30 dB for this table at 4000 trials and seed 5, where the means lie
    1.1, 0.6 and 0.5 of them from the closed form.  The tolerance
    is 4 standard errors, a two-sided false alarm of 6e-5 per point for a
    mean of that many cells; a wrong normalization of the draw, or of the
    power, moves the 30 dB mean by about a bit."""
    users = (1, 2, 3, 4)
    table = ScheduleTable(users, 1, 3, 2, tuple(ScheduleColumn.of([g]) for g in itertools.combinations(users, 2)))
    snr_db = np.array([0.0, 10.0, 30.0])
    rates = column_rates(table, 10.0 ** (snr_db / 10), 4000, 5)  # (P, trials, C)
    for snr, power, cells in zip(snr_db, 10.0 ** (snr_db / 10), rates):
        x = (table.t + 1) / power
        want = math.log2(math.e) * math.exp(x) * exponential_integral(x)
        se = cells.std() / math.sqrt(cells.size)
        assert abs(cells.mean() - want) < 4 * se, (snr, cells.mean(), want, se)
