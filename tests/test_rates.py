import dataclasses
import math

import pytest

from ccsched.errors import ParameterError
from ccsched.model import ScheduleColumn
from ccsched.symmetric import schedule_symmetric
from ccsched.asymmetric import schedule_asymmetric
from ccsched.rates import (
    column_rate,
    high_snr_slope,
    sinrs_from_coefficients,
    snr_sweep,
    stream_coefficients,
    sweep_to_csv,
    symmetric_rate_from_columns,
)
from ccsched.verifier import ChannelRealization, build_beamformers


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
    # no trial would average empty arrays into NaN rates
    with pytest.raises(ParameterError, match="trials"):
        snr_sweep(ex1_tables[0], [0, 10], trials=trials)
    assert not recwarn.list


def _no_draw(*args, **kwargs):
    raise AssertionError("a channel was drawn")


def test_empty_column_is_refused_before_any_draw(ex1_tables, monkeypatch):
    """An empty column holds no stream to rate: the sweep refuses the table
    at once, without drawing the channels of the columns before it."""
    _, asym = ex1_tables
    table = dataclasses.replace(asym, columns=asym.columns + (ScheduleColumn(()),))
    monkeypatch.setattr(ChannelRealization, "draw", staticmethod(_no_draw))
    with pytest.raises(ParameterError, match="column has no scheduled streams"):
        snr_sweep(table, [0, 10], trials=3000)
