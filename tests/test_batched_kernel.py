"""The trial-batched numeric kernel against one channel draw at a time, and
against the per-stream loops it replaced; its conditioning screen against the
full SVD of every effective matrix; the table-level rate kernel against the
per-column loop it replaced."""

import itertools
import json
import math
import sys
import threading
from concurrent.futures import ThreadPoolExecutor
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from ccsched import verifier
from ccsched.asymmetric import schedule_asymmetric
from ccsched.cli import main
from ccsched.errors import NullityDeficientError, VerificationError
from ccsched.model import ScheduleColumn, ScheduleTable, table_from_json, table_to_json
from ccsched.rates import (
    RatePoint,
    column_rates,
    snr_sweep,
    stream_coefficients,
    symmetric_rate_from_columns,
)
from ccsched.symmetric import schedule_symmetric
from ccsched.verifier import (
    BATCH_COLUMN_TRIALS,
    TRIAL_BLOCK,
    ChannelRealization,
    _batch_columns,
    _MarginScan,
    build_beamformers,
    decodability_check,
    effective_matrix,
    nullspace_basis,
    verify_numeric,
    verify_table_numeric,
)

DATA = Path(__file__).parent / "data"
# channel gains are O(1), so an absolute tolerance on them is a relative one
TOL = 1e-12


def trial_cells(trials, column=0):
    """The (trial, column) draw cells of ``trials`` in one column."""
    return [(t, column) for t in trials]


@pytest.fixture(scope="module")
def example_tables():
    ex1 = schedule_asymmetric(schedule_symmetric(10, 3, 1, 5, 2), m=2)[0]
    ex2 = schedule_asymmetric(schedule_symmetric(11, 6, 2, 5, 3, min_columns=2), m=3)[0]
    return {"example1": ex1, "example2": ex2}


def reference_margins(column, channels, solution):
    """Worst leakage and smallest effective singular value of one draw, each
    with the user it occurs at, by the per-stream loops of the unbatched kernel."""
    beta = column.beta(channels.users)
    leak, sigma = (0.0, None), (math.inf, None)
    for k in channels.users:
        if beta[k] == 0:
            continue
        combined = solution.combiners[k].conj().T @ channels.H[k]
        own = []
        for g, inst in solution.streams:
            gain = combined @ solution.beams[g][:, inst]
            if k in g:
                own.append(gain)
            else:
                leak = max(leak, (float(np.linalg.norm(gain)), k))
        sigma = min(sigma, (float(np.linalg.svd(np.column_stack(own), compute_uv=False)[-1]), k))
    return leak, sigma


def test_draws_match_the_per_user_reference():
    """One draw per user from a shared generator, as the unbatched kernel drew
    them: the channels keyed [seed, 0]."""
    channels = ChannelRealization.draw((3, 1, 2), G=2, L=4, seed=9)
    rng = np.random.Generator(np.random.Philox(key=[9, 0]))
    for k in (1, 2, 3):
        h = (rng.standard_normal((2, 4)) + 1j * rng.standard_normal((2, 4))) / np.sqrt(2)
        assert np.array_equal(channels.H[k], h)


@pytest.mark.parametrize("shared", [True, False], ids=["oracle", "sweep"])
def test_kernel_combines_the_leading_rows_of_one_draw(monkeypatch, shared):
    """Receive combiners select antennas: every (user, stream count b)
    combined channel the kernel hands its reduction is the leading b rows of
    that user's draw, bit for bit, and a run makes one channel draw, one
    ``_complex_normals`` call, per (trial block, layout) and nothing more."""
    table = table_from_json((DATA / "example1_dof12.json").read_text())
    trials = TRIAL_BLOCK + 3
    draws, combined, normals = [], [], []
    draw, set_gains, complex_normals = ChannelRealization.draw, verifier._set_gains, verifier._complex_normals

    def keep_draw(*args, **kwargs):
        draws.append(draw(*args, **kwargs))
        return draws[-1]

    def keep_combined(plan, streams, beams, rows, at):
        combined.append((len(draws) - 1, rows))
        return set_gains(plan, streams, beams, rows, at)

    monkeypatch.setattr(ChannelRealization, "draw", staticmethod(keep_draw))
    monkeypatch.setattr(verifier, "_set_gains", keep_combined)
    monkeypatch.setattr(verifier, "_complex_normals", lambda *args: normals.append(args[1]) or complex_normals(*args))
    if shared:
        assert verify_table_numeric(table, trials=trials, seed=6).ok
    else:
        column_rates(table, np.array([1.0]), trials, 6)
    layouts = 1 if shared else math.ceil(len(table.columns) / _batch_columns(trials))
    assert shared or layouts > 1  # the sweep takes two batches of columns
    assert len(normals) == len(draws) == 2 * layouts  # two trial blocks
    assert {i for i, _ in combined} == set(range(len(draws)))
    for i, rows in combined:
        for (k, b), channel in rows.items():
            leading = draws[i].H[k][..., :b, :]
            assert channel.tobytes() == np.ascontiguousarray(leading).reshape(channel.shape).tobytes()


@pytest.mark.parametrize("name", ["example1", "example2"])
@pytest.mark.parametrize("seeds", [range(3, 5), ((1 << 64) - 1,)])
def test_batch_matches_single_draws(example_tables, name, seeds):
    """Per seed, a batch of cells in both counter words against each cell
    drawn alone."""
    for seed in seeds:
        assert_batch_matches_single_draws(example_tables[name], seed, [(0, 0), (1, 0), (0, 1), (5, 2)])


def assert_batch_matches_single_draws(table, seed, batch_cells):
    batch = ChannelRealization.draw(table.users, table.G, table.L, seed=seed, cells=batch_cells)
    singles = [ChannelRealization.draw(table.users, table.G, table.L, seed=seed, cells=c) for c in batch_cells]
    batch_pool = batch.haar_combiner_pool()
    for i, single in enumerate(singles):
        pool = single.haar_combiner_pool()
        for k in table.users:
            # the draws themselves are bit for bit those of each cell alone
            assert np.array_equal(batch.H[k][i], single.H[k])
            assert np.array_equal(batch_pool[k][i], pool[k])
    for column in table.columns:
        sol = build_beamformers(column, batch)
        rep = verify_numeric(column, batch, sol)
        coeffs = stream_coefficients(column, batch, sol)
        reports = []
        for i, single in enumerate(singles):
            one = build_beamformers(column, single)
            assert one.nullities == sol.nullities
            for g in one.beams:
                assert one.beams[g].shape == sol.beams[g].shape[1:]
                np.testing.assert_allclose(sol.beams[g][i], one.beams[g], rtol=0, atol=TOL)
            single_rep = verify_numeric(column, single, one)
            (leak, _), (sigma, sigma_user) = reference_margins(column, single, one)
            assert single_rep.max_leakage == pytest.approx(leak, abs=TOL)
            assert single_rep.min_sigma == pytest.approx(sigma, rel=TOL)
            assert single_rep.min_sigma_at == {"trial": 0, "user": sigma_user}
            reports.append(single_rep)
            for key, (c, l) in stream_coefficients(column, single, one).items():
                assert coeffs[key][0][i] == pytest.approx(c, rel=TOL)
                assert coeffs[key][1][i] == pytest.approx(l, abs=TOL)
        assert rep.ok
        assert rep.max_leakage == pytest.approx(max(r.max_leakage for r in reports), abs=TOL)
        assert rep.min_sigma == pytest.approx(min(r.min_sigma for r in reports), rel=TOL)
        # the batch locates its worst margins where the single draws put them
        at = rep.min_sigma_at
        assert reports[at["trial"]].min_sigma_at == dict(at, trial=0)
        at = rep.max_leakage_at
        assert reports[at["trial"]].max_leakage_at == dict(at, trial=0)


@pytest.mark.parametrize("seed", [0, 1, 2, (0, 1, 2)])
def test_reference_stack_of_beams_is_c_ordered(seed):
    """A column's own stack of beams is in C order, the kernel's one layout,
    also when a group repeats, where concatenating the groups' blocks makes L
    the fast axis; a single draw of each seed and a batch (the tuple: seed
    0's trials 0 to 2) alike."""
    column = ScheduleColumn.of([(1, 2), (1, 2), (3, 4)])
    batch = isinstance(seed, tuple)
    channels = ChannelRealization.draw((1, 2, 3, 4), G=2, L=6, seed=0 if batch else seed,
                                       cells=trial_cells(seed) if batch else None)
    stacked = build_beamformers(column, channels).stacked
    assert stacked.shape[-2:] == (6, 3) and stacked.flags.c_contiguous


def test_nullspace_basis_batch_matches_single_matrices():
    rng = np.random.default_rng(4)
    A = rng.standard_normal((6, 3, 7)) + 1j * rng.standard_normal((6, 3, 7))
    basis, rank = nullspace_basis(A)
    assert basis.shape == (6, 7, 4) and rank.tolist() == [3] * 6
    for i in range(6):
        one, one_rank = nullspace_basis(A[i])
        assert one_rank == 3 and isinstance(one_rank, int)
        assert np.array_equal(basis[i], one)


def svd_nullspace(A, svd=np.linalg.svd):
    """The thresholded-SVD nullspace: the trailing right singular vectors
    past the stack's largest rank, with every matrix's rank and singular
    values.  ``svd`` is bound here, so a spy on ``np.linalg.svd`` does not
    see the reference's own calls."""
    _, s, vh = svd(A)
    rank = np.sum(s > verifier.RANK_RTOL * s[..., :1], axis=-1)
    return verifier._hermitian(vh[..., rank.max():, :]), rank, s


def nullspace_inputs():
    """(label, A) over L = 1..14, r = 0..L + 1 and batch shapes (), (3,) and
    (2, 4): random complex stacks, then rank-deficient ones (a duplicated
    row, a zero row, a row equal to another plus eps noise for eps either
    side of RANK_RTOL) and stacks mixing full-rank and deficient matrices."""
    rng = np.random.default_rng(24)
    for L in range(1, 15):
        for r in range(L + 2):
            for batch in ((), (3,), (2, 4)):
                shape = batch + (r, L)
                A = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
                yield "random", A
                if r < 2:
                    continue
                noise = rng.standard_normal(shape[:-2] + (L,)) + 1j * rng.standard_normal(shape[:-2] + (L,))
                for label, row in [("duplicated", A[..., 0, :]), ("zero", 0 * A[..., 0, :])] + [
                    (f"eps {eps:g}", A[..., 0, :] + eps * noise) for eps in (1e-6, 1e-9, 1e-12)
                ]:
                    deficient = A.copy()
                    deficient[..., -1, :] = row
                    yield label, deficient
                    if batch:  # the first matrix of the stack deficient, the others full rank
                        mixed = A.copy()
                        mixed.reshape((-1, r, L))[0] = deficient.reshape((-1, r, L))[0]
                        yield "mixed " + label, mixed


def test_nullspace_basis_matches_svd_reference(monkeypatch):
    """The QR basis and screened rank against the thresholded SVD: the same
    rank, exactly, and basis width; an orthonormal basis that A maps to
    zero; on full-rank matrices the SVD's projector onto the nullspace.  A
    stack whose largest rank is below r takes the SVD's basis, bit for bit.
    Both SVD branches of the QR path are reached: the rank of the matrices
    in doubt alone, and that rank followed by the whole stack's basis."""
    svd, branches, reached = np.linalg.svd, [], set()

    def spy(a, *args, **kwargs):
        branches.append("rank" if kwargs.get("compute_uv") is False else "basis")
        return svd(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "svd", spy)
    for label, A in nullspace_inputs():
        want, want_rank, s = svd_nullspace(A)
        branches.clear()
        basis, rank = nullspace_basis(A)
        r, L = A.shape[-2:]
        if 0 < r < L:
            reached.add(tuple(branches))
        assert np.array_equal(rank, want_rank) and basis.shape == want.shape, (label, A.shape)
        if A.ndim == 2:
            assert isinstance(rank, int)
        if not 0 < want_rank.max() == r < L:  # the SVD's path
            assert np.array_equal(basis, want), (label, A.shape)
            continue
        width = basis.shape[-1]
        assert np.abs(verifier._hermitian(basis) @ basis - np.eye(width)).max() <= TOL, (label, A.shape)
        residual = np.linalg.norm(A @ basis, axis=(-2, -1))
        assert (residual <= TOL * np.linalg.norm(A, axis=(-2, -1))).all(), (label, A.shape)
        # the projectors differ by about u times A's condition number: to 1e-12
        # up to a condition number of 1e3 (every random draw here is below
        # 50), and to 1e-15 times it beyond (the rows eps = 1e-6 apart)
        full = want_rank == r
        error = np.abs(basis @ verifier._hermitian(basis) - want @ verifier._hermitian(want)).max(axis=(-2, -1))[full]
        condition = s[full][:, 0] / s[full][:, -1]
        assert (error <= TOL * np.maximum(1, condition / 1e3)).all(), (label, A.shape)
    assert {("rank",), ("rank", "basis")} <= reached


def test_overloaded_column_fails_inside_a_batch():
    # 11 copies of one pair at L = 10: the nullspace cannot host them in any trial
    col = ScheduleColumn.of([(1, 2)] * 11)
    channels = ChannelRealization.draw((1, 2, 3), G=30, L=10, seed=0, cells=trial_cells(range(5)))
    with pytest.raises(NullityDeficientError):
        build_beamformers(col, channels)


def test_one_degenerate_draw_fails_the_batch():
    col = ScheduleColumn.of([(1,), (2,)])
    channels = ChannelRealization.draw((1, 2), G=2, L=4, seed=0, cells=trial_cells(range(4)))
    assert build_beamformers(col, channels).nullities == {(1,): 3, (2,): 3}
    channels.H[2][1] = 0.0  # user 2 is silent in trial 1 only: its nullity there is 4
    with pytest.raises(NullityDeficientError, match="non-generic"):
        build_beamformers(col, channels)


def test_table_scan_names_the_first_deficient_group(monkeypatch):
    """A draw in which one user is silent fails the table at the first group,
    in scan order, whose nullspace that user shapes, as building the columns
    one after another does."""
    table = table_from_json((DATA / "example1_dof14.json").read_text())
    draw = ChannelRealization.draw

    def silent(*args, **kwargs):
        channels = draw(*args, **kwargs)
        channels.H[3][1] = 0.0  # user 3 is silent in trial 1
        return channels

    monkeypatch.setattr(ChannelRealization, "draw", staticmethod(silent))
    channels = ChannelRealization.draw(table.users, table.G, table.L, seed=0, cells=trial_cells(range(4)))
    with pytest.raises(NullityDeficientError, match="non-generic") as want:
        for column in table.columns:
            build_beamformers(column, channels)
    with pytest.raises(NullityDeficientError) as got:
        verify_table_numeric(table, trials=4)
    assert str(got.value) == str(want.value)


def profiles_by_outside_streams(table):
    plan = verifier._plan_table(table.columns, tuple(sorted(table.users)), 1)
    by_streams = {}
    for profile in plan.directions:
        by_streams.setdefault(sum(b for _, b in profile), []).append(profile)
    return by_streams


def profile_rows(channels, profile):
    """The (..., r, L) combined channels combiner^H H of a profile's outside
    users, over their leading combiners."""
    pool = channels.haar_combiner_pool()
    rows = [pool[k][..., :b].conj().swapaxes(-1, -2) @ channels.H[k] for k, b in profile]
    return np.concatenate(rows or [channels.H[channels.users[0]][..., :0, :]], axis=-2)


def stacked_nullspaces(channels, profiles):
    """Per profile, its basis and its smallest and largest nullity over the
    batch, from one nullspace factorization of the profiles' stacked rows."""
    basis, rank = nullspace_basis(np.stack([profile_rows(channels, p) for p in profiles]))
    L = channels.L
    return {p: (b, L - r.max(), L - r.min()) for p, b, r in zip(profiles, basis, rank)}


def test_stacked_nullspaces_match_one_profile_at_a_time(monkeypatch):
    """One nullspace factorization per outside-stream count and trial block,
    and every profile's basis and nullities bit for bit those of its rows
    alone."""
    table = table_from_json((DATA / "fig3_omega8_t3_dof24.json").read_text())
    by_streams = profiles_by_outside_streams(table)
    assert max(map(len, by_streams.values())) > 1
    channels = ChannelRealization.draw(table.users, table.G, table.L, seed=5, cells=trial_cells(range(4)))
    for profiles in by_streams.values():
        stacked = stacked_nullspaces(channels, profiles)
        for profile in profiles:
            basis, rank = nullspace_basis(profile_rows(channels, profile))
            assert np.array_equal(stacked[profile][0], basis)
            assert stacked[profile][1:] == (table.L - rank.max(), table.L - rank.min())
    shapes = []
    monkeypatch.setattr(verifier, "nullspace_basis", lambda A: shapes.append(A.shape) or nullspace_basis(A))
    verify_table_numeric(table, trials=TRIAL_BLOCK + 1, seed=3)
    want = sorted((len(p), T, r, table.L) for T in (TRIAL_BLOCK, 1) for r, p in by_streams.items())
    assert sorted(shapes) == want


def test_stacked_nullspaces_name_the_first_deficient_group(monkeypatch):
    """Two profiles with two outside streams each are rank-deficient in
    different trials: the error names the first group in check order, with
    its own profile's nullities (4 to 5), not those of the stack (4 to 6)."""
    table = ScheduleTable((1, 2, 3, 4, 5), 0, 6, 2, (
        ScheduleColumn.of([(1,), (2,), (3,)]),  # group (1,): profile ((2, 1), (3, 1))
        ScheduleColumn.of([(4,), (5,), (5,)]),  # group (4,): profile ((5, 2),)
        ScheduleColumn.of([(1,), (2,), (3,), (4,)]),
    ), delta=2)
    table.validate()
    draw = ChannelRealization.draw

    def silent(*args, **kwargs):
        channels = draw(*args, **kwargs)
        channels.H[3][0] = 0.0  # one outside stream fewer for group (1,), in trial 0
        channels.H[5][1] = 0.0  # two fewer for group (4,), in trial 1
        return channels

    monkeypatch.setattr(ChannelRealization, "draw", staticmethod(silent))
    channels = ChannelRealization.draw(table.users, table.G, table.L, seed=0, cells=trial_cells(range(4)))
    stacked = stacked_nullspaces(channels, profiles_by_outside_streams(table)[2])
    assert stacked[((2, 1), (3, 1))][1:] == (4, 5) and stacked[((5, 2),)][1:] == (4, 6)
    with pytest.raises(NullityDeficientError) as want:
        for column in table.columns:
            build_beamformers(column, channels)
    with pytest.raises(NullityDeficientError) as got:
        verify_table_numeric(table, trials=4)
    assert str(got.value) == str(want.value) == (
        "group (1,): computed nullity (min 4, max 5) != rank-nullity value 4 (non-generic channel draw)"
    )


def test_stacked_nullspaces_without_outside_streams():
    """A group whose outside users decode nothing keeps the whole space, next
    to profiles with outside streams."""
    table = ScheduleTable((1, 2, 3), 1, 4, 2, (
        ScheduleColumn.of([(1, 2)]),  # user 3 decodes nothing
        ScheduleColumn.of([(1, 3), (2, 3)]),
    ), delta=1)
    table.validate()
    assert sorted(profiles_by_outside_streams(table)) == [0, 1]
    channels = ChannelRealization.draw(table.users, table.G, table.L, seed=0, cells=trial_cells(range(3)))
    stacked = stacked_nullspaces(channels, [()])
    basis, _ = nullspace_basis(channels.H[1][..., :0, :])
    assert np.array_equal(stacked[()][0], basis) and stacked[()][1:] == (4, 4)
    rep = verify_table_numeric(table, trials=3, seed=2, tol=1e-300, sigma_tol=1e300)
    max_leakage, leak_at, min_sigma, sigma_at, failures = fold_column_reports(table, 3, 2, 1e-300, 1e300)
    assert (rep.max_leakage, rep.max_leakage_at) == (max_leakage, leak_at)
    assert (rep.min_sigma, rep.min_sigma_at) == (min_sigma, sigma_at)
    assert sorted(rep.failures) == sorted(failures)


SWEEP_GOLDENS = [
    # one partial trial block
    ("example1_dof14.json", ["--trials", "20", "--seed", "5"], "example1_dof14_sweep_trials20_seed5.csv"),
    # two full trial blocks and a partial one, over more columns than one pass takes
    ("example1_dof12.json", ["--trials", "70", "--seed", "11"], "example1_dof12_sweep_trials70_seed11.csv"),
    # a seed above 2**32
    ("example1_dof14.json", ["--trials", "40", "--seed", "4294967280"],
     "example1_dof14_sweep_trials40_seed4294967280.csv"),
    # the benchmark's shape: six full trial blocks and a partial one, each in
    # a full batch of columns and a partial one; 2-column batches write it too
    ("example1_dof14.json", ["--trials", "200", "--seed", "42"], "example1_dof14_sweep_trials200_seed42.csv"),
]


def test_rate_sweep_csv_golden(tmp_path, capsys):
    """The Example 1 sweeps are byte for byte what the CLI wrote when
    receive combiners first selected antennas."""
    for table, flags, golden in SWEEP_GOLDENS:
        out = tmp_path / golden
        code = main(["rate-sweep", "--table", str(DATA / table), *flags, "-o", str(out)])
        capsys.readouterr()
        assert code == 0
        assert out.read_bytes() == (DATA / golden).read_bytes(), golden


@pytest.mark.parametrize("table,flags,golden", [
    # 40 trials cross a trial block; 280 columns cross many batches
    ("example1_dof14.json", ["--trials", "40", "--seed", "3"],
     "example1_dof14_verify_trials40_seed3.json"),
    ("fig3_omega8_t3_dof24.json", ["--trials", "4"], "fig3_omega8_t3_dof24_verify_trials4.json"),
    # 33 trials cross a trial block; its large stacks skip most SVDs
    ("fig3_omega8_t3_dof24.json", ["--trials", "33", "--seed", "9"],
     "fig3_omega8_t3_dof24_verify_trials33_seed9.json"),
    # a seed above 2**32
    ("example1_dof14.json", ["--trials", "8", "--seed", "4294967292"],
     "example1_dof14_verify_trials8_seed4294967292.json"),
])
def test_verify_numeric_output_golden(capsys, table, flags, golden):
    """`verify --numeric` prints byte for byte what the CLI printed when
    receive combiners first selected antennas."""
    code = main(["verify", "--table", str(DATA / table), "--numeric", *flags])
    assert code == 0
    assert capsys.readouterr().out == (DATA / golden).read_text()


def column_report(channels, solution, tol, sigma_tol):
    """One column's worst margins, their locations and its failures, by the
    per-user effective matrices of the one-column-at-a-time oracle: cells in
    (trial, user, stream) order, the first of equal values wins."""
    leaks, leak_labels, sigmas, sigma_labels = [], [], [], []
    for k in channels.users:
        if solution.beta[k] > 0:
            eff, cross = effective_matrix(solution, channels, k)
            leaks.append(np.linalg.norm(cross, axis=-2))
            leak_labels += [(k, g, inst) for g, inst in solution.streams if k not in g]
            sigmas.append(np.linalg.svd(eff, compute_uv=False)[..., -1:])
            sigma_labels.append((k,))
    worst, failures = [], []
    for kind, parts, labels, pick, failing in (
        ("leakage", leaks, leak_labels, np.argmax, lambda v: v > tol),
        ("sigma_min", sigmas, sigma_labels, np.argmin, lambda v: v <= sigma_tol),
    ):
        if not labels:
            worst.append((None, None))
            continue
        values = np.concatenate(parts, axis=-1).reshape(-1, len(labels))  # (trial, cell)
        trial, cell = divmod(int(pick(values)), len(labels))
        at = {"trial": trial, "user": labels[cell][0]}
        if kind == "leakage":
            at["group"] = list(labels[cell][1])
        worst.append((float(values[trial, cell]), at))
        failing_cells = zip(*np.nonzero(failing(values)))
        failures += [(t, kind) + labels[c] + (float(values[t, c]),) for t, c in failing_cells]
    return worst, failures


def fold_column_reports(table, trials, seed, tol, sigma_tol):
    """The table verdict by per-column reports, folded in scan order (trial
    block, column, then trial, user and stream within the column report): a
    later cell replaces the worst only when strictly worse."""
    max_leakage, leak_at, min_sigma, sigma_at = 0.0, None, math.inf, None
    failures = []
    for first in range(0, trials, TRIAL_BLOCK):
        block = trial_cells(range(first, min(first + TRIAL_BLOCK, trials)))
        channels = ChannelRealization.draw(table.users, table.G, table.L, seed=seed, cells=block)
        for idx, column in enumerate(table.columns, start=1):
            solution = build_beamformers(column, channels)
            ((leak, at), (sigma, sat)), found = column_report(channels, solution, tol, sigma_tol)
            failures += [(first + f[0], idx) + f[1:] for f in found]
            if at is not None and (leak_at is None or leak > max_leakage):
                max_leakage, leak_at = leak, dict(at, trial=first + at["trial"], column=idx)
            if sat is not None and sigma < min_sigma:
                min_sigma, sigma_at = sigma, dict(sat, trial=first + sat["trial"], column=idx)
    return max_leakage, leak_at, min_sigma, sigma_at, failures


@pytest.fixture(scope="module")
def scan_tables():
    example1 = table_from_json((DATA / "example1_dof14.json").read_text())
    return {
        "fig3_witness": table_from_json((DATA / "fig3_omega8_t3_dof24.json").read_text()),
        # every column four times: each cell has exact ties in the other
        # copies, at least one of them in a later batch
        "repeated_example1": replace(
            example1, columns=example1.columns * 4, delta=4 * example1.delta
        ),
        # stream totals 1, 2, 7, 9 and 10 side by side, users without
        # streams, and users with G = 8 streams and one or two cross streams
        "mixed_totals": replace(example1, L=12, G=8, columns=(
            ScheduleColumn.of([(1, 2)] * 7 + [(1, 3), (2, 3)]),
            ScheduleColumn.of([(1, 2)]),
            ScheduleColumn.of([(1, 2)] * 6 + [(1, 3), (1, 4), (2, 3), (2, 5)]),
            *example1.columns[:3],
            ScheduleColumn.of([(3, 4), (4, 5)]),
        ) * 4),
    }


@pytest.mark.parametrize("name,trials", [
    ("fig3_witness", 2),
    ("repeated_example1", TRIAL_BLOCK + 3),
    ("mixed_totals", TRIAL_BLOCK + 5),
    # a last block of one draw
    ("fig3_witness", TRIAL_BLOCK + 1),
])
def test_table_scan_matches_folded_column_reports(scan_tables, name, trials):
    table = scan_tables[name]
    # the table spans at least two batches at this trial count
    assert len(table.columns) > BATCH_COLUMN_TRIALS // min(trials, TRIAL_BLOCK)
    # tolerances at the typical margins, so that both kinds of failure occur
    tol, sigma_tol = 1e-15, 0.05
    rep = verify_table_numeric(table, trials=trials, seed=11, tol=tol, sigma_tol=sigma_tol)
    max_leakage, leak_at, min_sigma, sigma_at, failures = fold_column_reports(
        table, trials, 11, tol, sigma_tol
    )
    assert rep.max_leakage == max_leakage and rep.max_leakage_at == leak_at
    assert rep.min_sigma == min_sigma and rep.min_sigma_at == sigma_at
    assert {f[2] for f in failures} == {"leakage", "sigma_min"}
    assert sorted(rep.failures) == sorted(failures)
    assert rep.ok is False
    if name != "fig3_witness":
        # ties go to the first copy of the column
        copies = len(table.columns) // 4
        assert leak_at["column"] <= copies and sigma_at["column"] <= copies


@st.composite
def decodable_tables(draw, max_G=8):
    """Small tables of columns that pass the symbolic check, at any antenna
    counts: repeated groups, stream totals that differ between columns, and
    users without streams."""
    U, L, G = draw(st.integers(2, 6)), draw(st.integers(2, 14)), draw(st.integers(1, max_G))
    t = draw(st.integers(0, min(2, U - 1)))
    users = tuple(range(1, U + 1))
    groups = st.sampled_from(list(itertools.combinations(users, t + 1)))
    columns = draw(st.lists(st.lists(groups, min_size=1, max_size=10).map(ScheduleColumn.of), max_size=20))
    columns = [c for c in columns if decodability_check(ScheduleTable(users, t, L, G, (c,))).ok]
    assume(columns)
    return ScheduleTable(users, t, L, G, tuple(columns))


@given(decodable_tables(), st.sampled_from([1, 3, TRIAL_BLOCK + 1]), st.integers(0, 999))
@settings(max_examples=40, deadline=None)
def test_table_scan_matches_column_reference_on_random_tables(table, trials, seed):
    """Every margin value, bit for bit: at these tolerances every nonzero
    margin fails, so the failures list them all.  A product's rounding
    depends on the layout of its beams, which the kernel must therefore keep."""
    rep = verify_table_numeric(table, trials=trials, seed=seed, tol=1e-300, sigma_tol=1e300)
    max_leakage, leak_at, min_sigma, sigma_at, failures = fold_column_reports(
        table, trials, seed, 1e-300, 1e300
    )
    assert (rep.max_leakage, rep.max_leakage_at) == (max_leakage, leak_at)
    assert (rep.min_sigma, rep.min_sigma_at) == (min_sigma, sigma_at)
    assert sorted(rep.failures) == sorted(failures)


def scan_order(failure):
    """A named failure's place in scan order: trial block, column, trial,
    user, then the user's conditioning cell before its leakage cells by
    stream ((group, instance) tuples sort in stream order)."""
    trial, column, kind, user, *stream, _ = failure
    return trial // TRIAL_BLOCK, column, trial, user, kind == "leakage", stream


@given(
    decodable_tables(),
    st.sampled_from([1, 3, TRIAL_BLOCK + 1]),
    st.integers(0, 999),
    st.sampled_from([1e-9, 1e-15]),
    st.sampled_from([1e-6, 0.3]),
)
@settings(max_examples=40, deadline=None)
def test_report_does_not_depend_on_the_batch_width(table, trials, seed, tol, sigma_tol):
    """The whole report, failures in order, is the same with one column per
    batch and with one batch holding the whole table.  At tol = 1e-15 and
    sigma_tol = 0.3 both kinds of failure occur, in many columns."""
    block = min(trials, TRIAL_BLOCK)
    reports = []
    for width in (1, len(table.columns)):
        with pytest.MonkeyPatch.context() as monkeypatch:
            monkeypatch.setattr(verifier, "BATCH_COLUMN_TRIALS", width * block)
            reports.append(verify_table_numeric(table, trials=trials, seed=seed, tol=tol, sigma_tol=sigma_tol))
    assert reports[0] == reports[1]
    assert list(reports[0].failures) == sorted(reports[0].failures, key=scan_order)


@pytest.mark.parametrize("trials,width", [(1, 256), (4, 64), (32, 8), (100, 8)])
def test_batch_width_is_the_budget_over_the_block(monkeypatch, trials, width):
    """A run of T trials plans BATCH_COLUMN_TRIALS // min(T, TRIAL_BLOCK)
    columns per batch, and no stream set crosses a batch."""
    table = table_from_json((DATA / "fig3_omega8_t3_dof24.json").read_text())
    assert BATCH_COLUMN_TRIALS // min(trials, TRIAL_BLOCK) == width
    plan_table, plans = verifier._plan_table, []

    def planned(*args):
        plans.append((args[2], plan_table(*args)))
        raise StopIteration  # the plan is all this test needs

    monkeypatch.setattr(verifier, "_plan_table", planned)
    with pytest.raises(StopIteration):
        verify_table_numeric(table, trials=trials)
    [(got, plan)] = plans
    assert got == width
    batches = {int(streams.columns[0]) // width for streams in plan.sets}
    assert batches == set(range(math.ceil(len(table.columns) / width)))
    assert all(len(set(streams.columns // width)) == 1 for streams in plan.sets)


class FullSVDScan(_MarginScan):
    """The margin scan without the conditioning screen: LAPACK's SVD of every
    effective matrix, as the kernel computed it before the screen."""

    def _sigma_min(self, E):
        return np.linalg.svd(E, compute_uv=False)[..., -1]


def full_svd_report(monkeypatch, *args, **kwargs):
    """``verify_table_numeric`` with the full-SVD scan in place of the screen."""
    with monkeypatch.context() as patch:
        patch.setattr(verifier, "_MarginScan", FullSVDScan)
        return verify_table_numeric(*args, **kwargs)


def count_svd_cells(monkeypatch):
    """Count the matrices passed to the singular-value-only SVD calls."""
    cells, svd = [0], np.linalg.svd

    def counting(a, *args, **kwargs):
        if kwargs.get("compute_uv") is False:
            cells[0] += math.prod(a.shape[:-2])
        return svd(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "svd", counting)
    return cells


@given(
    decodable_tables(),
    st.sampled_from([1, 3, TRIAL_BLOCK + 1]),
    st.integers(0, 999),
    st.sampled_from([1e-6, 0.3]),
)
@settings(max_examples=60, deadline=None)
def test_screened_scan_matches_full_svd_reference(table, trials, seed, sigma_tol):
    """The whole report, bit for bit: values, locations and failures.  At
    sigma_tol = 0.3 many cells fail, and none of them may be screened away."""
    with pytest.MonkeyPatch.context() as monkeypatch:
        want = full_svd_report(monkeypatch, table, trials=trials, seed=seed, sigma_tol=sigma_tol)
    assert verify_table_numeric(table, trials=trials, seed=seed, sigma_tol=sigma_tol) == want


def test_screen_skips_most_cells_of_a_large_table(monkeypatch):
    """On the Fig. 3 witness few cells can be the minimum, so few reach the
    SVD, and the report is still that of the full scan."""
    table = table_from_json((DATA / "fig3_omega8_t3_dof24.json").read_text())
    cells = count_svd_cells(monkeypatch)
    want = full_svd_report(monkeypatch, table, trials=TRIAL_BLOCK + 1, seed=9)
    total, cells[0] = cells[0], 0
    assert verify_table_numeric(table, trials=TRIAL_BLOCK + 1, seed=9) == want
    assert 0 < cells[0] < total / 10


def test_sweep_takes_no_nullspace_svd(monkeypatch):
    """A 200-trial Example 1 DoF-14 sweep: every outside-channel matrix
    clears the rank screen, so no nullspace takes an SVD."""
    table = table_from_json((DATA / "example1_dof14.json").read_text())
    inside, calls, svd_calls = threading.local(), [0], [0]
    basis, svd = verifier.nullspace_basis, np.linalg.svd

    def counting_basis(A):
        calls[0] += 1
        inside.on = True
        try:
            return basis(A)
        finally:
            inside.on = False

    def counting_svd(a, *args, **kwargs):
        svd_calls[0] += getattr(inside, "on", False)
        return svd(a, *args, **kwargs)

    monkeypatch.setattr(verifier, "nullspace_basis", counting_basis)
    monkeypatch.setattr(np.linalg, "svd", counting_svd)
    column_rates(table, np.array([1.0, 10.0**3.5]), 200, 42)
    assert calls[0] > 0 and svd_calls[0] == 0


def assert_screen_exact(got, E, sigma_tol):
    """A screened stack agrees with the full SVD on every kept cell, on its
    first minimum and on which cells fail; skipped cells read +inf."""
    want = np.linalg.svd(E, compute_uv=False)[..., -1]
    kept = np.isfinite(got)
    assert np.array_equal(got[kept], want[kept])
    assert int(np.argmin(got)) == int(np.argmin(want)) and got.min() == want.min()
    assert np.array_equal(got <= sigma_tol, want <= sigma_tol)
    return kept


def test_screen_keeps_the_cells_its_bounds_cannot_rule_out():
    scan = _MarginScan(1e-9, 1e-6)
    # l = 1/|inv E|_F orders these two cells against their sigma_min: only the
    # sqrt(b) factor of the threshold keeps the second, the minimum
    E = np.array([np.diag([0.1, 0.1]), np.diag([0.09, 100.0])], dtype=complex)[:, None]
    assert assert_screen_exact(scan._sigma_min(E), E, 1e-6).all()
    # condition number 1e8, over the ceiling: kept though far above the minimum
    E = np.array([np.eye(2), np.diag([1e9, 10.0]), np.diag([50.0, 60.0])], dtype=complex)[:, None]
    assert assert_screen_exact(scan._sigma_min(E), E, 1e-6)[:, 0].tolist() == [True, True, False]
    # a subnormal pivot: the inverse is not finite, and inv does not raise;
    # the sound cells of least bound, the first and the third, keep the SVD
    E = np.array([np.diag([3.0, 2.0]), np.diag([1e-310, 1.0]), np.diag([2.0, 3.0]), np.diag([9.0, 8.0])],
                 dtype=complex)[:, None]
    assert assert_screen_exact(scan._sigma_min(E), E, 1e-6)[:, 0].tolist() == [True, True, True, False]


@pytest.mark.parametrize("b", [1, 2, 5, 8])
def test_screen_on_random_stacks_of_mixed_conditioning(b):
    """Cells scaled over six orders of magnitude, nine of them nearly
    singular; at sigma_tol = 0.3 about half of them fail."""
    rng = np.random.default_rng(b)
    E = rng.standard_normal((40, 3, b, b)) + 1j * rng.standard_normal((40, 3, b, b))
    E *= 10.0 ** rng.uniform(-3, 3, (40, 3, 1, 1))
    if b > 1:
        E[:3, :, -1, :] = E[:3, :, 0, :] + 1e-9 * E[3:6, :, -1, :]
    for sigma_tol in (1e-6, 0.3):
        kept = assert_screen_exact(_MarginScan(1e-9, sigma_tol)._sigma_min(E), E, sigma_tol)
        if sigma_tol < 1e-3:
            assert kept.sum() < kept.size / 2


def repeat_user_1_row_0(monkeypatch):
    """Draw every channel with user 1's receive antenna 1 a copy of its
    antenna 0, in the same cells."""
    draw = ChannelRealization.draw

    def repeated_row(*args, **kwargs):
        channels = draw(*args, **kwargs)
        channels.H[1][..., 1, :] = channels.H[1][..., 0, :]
        return channels

    monkeypatch.setattr(ChannelRealization, "draw", staticmethod(repeated_row))


def test_singular_effective_matrix_falls_back_to_the_full_scan(monkeypatch):
    """Two equal channel rows make user 1's effective matrix exactly
    singular in the columns where it decodes two streams.  It is inside every
    group there, so no nullspace sees its second row.  The batched inverse
    raises, every cell of the stack takes the SVD, and the report fails at
    user 1 as the full scan's does."""
    table = ScheduleTable((1, 2, 3), 1, 4, 2, (
        ScheduleColumn.of([(1, 2), (1, 3)]),
        ScheduleColumn.of([(1, 2), (2, 3)]),  # user 2 decodes two regular streams
        ScheduleColumn.of([(1, 3)]),
    ) * 2)
    repeat_user_1_row_0(monkeypatch)
    raised, inv = [], np.linalg.inv

    def spy(a):
        try:
            return inv(a)
        except np.linalg.LinAlgError:
            raised.append(a.shape)
            raise

    monkeypatch.setattr(np.linalg, "inv", spy)
    want = full_svd_report(monkeypatch, table, trials=3, seed=4)
    got = verify_table_numeric(table, trials=3, seed=4)
    assert raised and all(shape[-1] == 2 for shape in raised)
    assert got == want
    assert not got.ok and got.min_sigma_at["user"] == 1
    assert {(f[1], f[3]) for f in got.failures if f[2] == "sigma_min"} == {(1, 1), (4, 1)}


def reference_rates(table, powers, trials, seed, N0=1.0):
    """(power, trial, column) rates by the loop the rate sweep ran before its
    table kernel: per column and trial block, build_beamformers and
    stream_coefficients on that column's own draws."""
    rates = np.zeros((len(powers), trials, len(table.columns)))
    for idx, column in enumerate(table.columns):
        for first in range(0, trials, TRIAL_BLOCK):
            last = min(first + TRIAL_BLOCK, trials)
            block = trial_cells(range(first, last), idx)
            channels = ChannelRealization.draw(table.users, table.G, table.L, seed=seed, cells=block)
            solution = build_beamformers(column, channels)
            coeffs = np.array(list(stream_coefficients(column, channels, solution).values()))
            p = powers[:, None, None] / len(solution.streams)
            worst = np.min(p / (N0 * coeffs[:, 0] + p * coeffs[:, 1]), axis=1)
            rates[:, first:last, idx] = [[math.log2(1.0 + s) for s in row] for row in worst]
    return rates


def reference_sweep(table, grid, trials, seed):
    """The rate points, aggregated from ``reference_rates`` as before."""
    powers = np.array([10.0 ** (s / 10.0) for s in grid])
    rates = reference_rates(table, powers, trials, seed)
    theta, n_users = table.subpacketization, len(table.users)
    points = []
    for p_idx, snr in enumerate(grid):
        mean_cols = rates[p_idx].mean(axis=0)
        per_trial = [symmetric_rate_from_columns(rates[p_idx, tr], theta, n_users) for tr in range(trials)]
        points.append(RatePoint(
            snr, tuple(float(r) for r in mean_cols), symmetric_rate_from_columns(mean_cols, theta, n_users),
            float(np.std(per_trial)), trials, seed,
        ))
    return points


def assert_sweep_matches_reference(table, trials, seed):
    """Every rate and every rate point, bit for bit."""
    grid = [0.0, 17.0, 35.0]
    powers = np.array([10.0 ** (s / 10.0) for s in grid])
    got = column_rates(table, powers, trials, seed)
    assert got.tobytes() == reference_rates(table, powers, trials, seed).tobytes()
    assert snr_sweep(table, grid, trials=trials, seed=seed) == reference_sweep(table, grid, trials, seed)


@given(decodable_tables(max_G=4), st.sampled_from([1, TRIAL_BLOCK + 1, 70]), st.integers(0, 999))
@settings(max_examples=25, deadline=None)
def test_sweep_kernel_matches_column_reference_on_random_tables(table, trials, seed):
    """Repeated groups, users without streams, stream totals that differ
    between columns, and tables of more columns than one pass takes."""
    assert_sweep_matches_reference(table, trials, seed)


def test_sweep_kernel_matches_column_reference_across_passes(scan_tables):
    table, trials = scan_tables["mixed_totals"], TRIAL_BLOCK + 1
    # more than three batches of columns in each trial block
    assert len(table.columns) > 3 * _batch_columns(trials)
    assert_sweep_matches_reference(table, trials, 8)


@pytest.mark.parametrize("trials,width,copies", [(200, 8, 1), (70, 8, 1), (20, 12, 2), (1, 256, 26)])
def test_sweep_batch_width_is_the_budget_over_the_block(monkeypatch, trials, width, copies):
    """A sweep of T trials draws BATCH_COLUMN_TRIALS // min(T, TRIAL_BLOCK)
    columns of a trial block at once, as the oracle batches them: no draw
    takes more than BATCH_COLUMN_TRIALS cells, a full batch takes exactly
    width x min(T, TRIAL_BLOCK), and each batch draws its columns over the
    block's trials once, each (trial, column) cell of the run's one seed."""
    example1 = table_from_json((DATA / "example1_dof14.json").read_text())
    table = replace(example1, columns=example1.columns * copies)
    assert _batch_columns(trials) == width and len(table.columns) > width
    seed, draw, drawn = 5, ChannelRealization.draw, []

    def spy(*args, **kwargs):
        assert kwargs["seed"] == seed
        drawn.append(kwargs["cells"])
        return draw(*args, **kwargs)

    monkeypatch.setattr(ChannelRealization, "draw", staticmethod(spy))
    column_rates(table, np.array([1.0]), trials, seed)
    C, block = len(table.columns), min(trials, TRIAL_BLOCK)
    for first in range(0, trials, TRIAL_BLOCK):
        trials_in_block = list(range(first, min(first + TRIAL_BLOCK, trials)))
        batches = [cells for cells in drawn if cells[0][0] == first]
        # batch by batch, the block's columns, each over the block's trials
        assert [sorted({c for _, c in cells}) for cells in batches] == [
            list(range(c0, min(c0 + width, C))) for c0 in range(0, C, width)
        ]
        for cells in batches:
            assert sorted(cells) == sorted((t, c) for c in {c for _, c in cells} for t in trials_in_block)
    assert all(len(cells) <= BATCH_COLUMN_TRIALS for cells in drawn)
    assert len(drawn[0]) == width * block


def test_sweep_names_the_first_deficient_group(monkeypatch, capsys):
    """A user silent in every trial fails the sweep at the group, column and
    trial block where one column at a time fails it, with that message."""
    path = DATA / "example1_dof14.json"
    table = table_from_json(path.read_text())
    draw = ChannelRealization.draw

    def silent(*args, **kwargs):
        channels = draw(*args, **kwargs)
        channels.H[3][:] = 0.0
        return channels

    monkeypatch.setattr(ChannelRealization, "draw", staticmethod(silent))
    with pytest.raises(NullityDeficientError, match="non-generic") as want:
        reference_rates(table, np.array([1.0]), 40, 3)
    with pytest.raises(NullityDeficientError) as got:
        snr_sweep(table, [0.0], trials=40, seed=3)
    assert str(got.value) == str(want.value)
    assert main(["rate-sweep", "--table", str(path), "--trials", "40", "--seed", "3"]) == 4
    error = json.loads(capsys.readouterr().err)["error"]
    assert error == {"type": "NullityDeficientError", "reason": str(want.value)}


def test_sweep_names_the_first_error_in_scan_order(monkeypatch, capsys):
    """Two draws are degenerate at different groups: one of column 2 in the
    first trial block, one of column 1 in the second.  The sweep names the
    first in its scan order, trial block before column: column 2's group.
    Evaluating one column after another, over all its trial blocks, meets
    column 1's first."""
    path = DATA / "example1_dof14.json"
    table = table_from_json(path.read_text())
    trials, seed, draw = TRIAL_BLOCK + 8, 3, ChannelRealization.draw
    silent = {(5, 1): 1, (TRIAL_BLOCK + 1, 0): 5}  # (trial, 0-based column) -> silent user

    def degenerate(*args, **kwargs):
        channels = draw(*args, **kwargs)
        for i, cell in enumerate(kwargs["cells"]):
            user = silent.get(cell)
            if user is not None:
                channels.H[user][i] = 0.0
        return channels

    monkeypatch.setattr(ChannelRealization, "draw", staticmethod(degenerate))
    want = []
    for column, first in ((1, 0), (0, TRIAL_BLOCK)):
        block = trial_cells(range(first, min(first + TRIAL_BLOCK, trials)), column)
        channels = ChannelRealization.draw(table.users, table.G, table.L, seed=seed, cells=block)
        with pytest.raises(NullityDeficientError) as err:
            build_beamformers(table.columns[column], channels)
        want.append(str(err.value))
    assert want[0].startswith("group (2, 4):") and want[1].startswith("group (1, 2):")
    with pytest.raises(NullityDeficientError) as got:
        snr_sweep(table, [0.0], trials=trials, seed=seed)
    assert str(got.value) == want[0]
    with pytest.raises(NullityDeficientError) as column_major:
        reference_rates(table, np.array([1.0]), trials, seed)
    assert str(column_major.value) == want[1]
    argv = ["rate-sweep", "--table", str(path), "--trials", str(trials), "--seed", str(seed)]
    assert main(argv) == 4
    assert json.loads(capsys.readouterr().err)["error"] == {"type": "NullityDeficientError", "reason": want[0]}


def test_sweep_singular_effective_matrix_names_the_user(monkeypatch, tmp_path, capsys):
    """Two equal channel rows make user 1's effective matrix exactly
    singular where it decodes two streams (inside every group there, so no
    nullspace sees the second): the sweep fails at user 1, as one column at a time does."""
    table = ScheduleTable((1, 2, 3), 1, 4, 2, (
        ScheduleColumn.of([(2, 3)]),
        ScheduleColumn.of([(1, 2), (1, 3)]),
    ) * 2, delta=2)
    repeat_user_1_row_0(monkeypatch)
    table.validate()
    with pytest.raises(VerificationError) as want:
        reference_rates(table, np.array([1.0]), 3, 4)
    assert str(want.value) == "singular effective matrix at user 1"
    with pytest.raises(VerificationError) as got:
        snr_sweep(table, [0.0, 10.0], trials=3, seed=4)
    assert type(got.value) is VerificationError and str(got.value) == str(want.value)
    # the command line refuses this table's column totals (2 and 4) before it
    # sweeps; it meets the singular matrix on a table of uniform totals whose
    # first column is the one above
    uniform = replace(table, columns=(
        ScheduleColumn.of([(1, 2), (1, 3)]),
        ScheduleColumn.of([(1, 2), (2, 3)]),
        ScheduleColumn.of([(1, 3), (2, 3)]),
    ))
    uniform.validate()
    with pytest.raises(VerificationError, match="singular effective matrix at user 1"):
        reference_rates(uniform, np.array([1.0]), 3, 4)
    for sweep_table, reason in ((table, "non-uniform per-column stream totals: [2, 4, 2, 4]"),
                                (uniform, "singular effective matrix at user 1")):
        path = tmp_path / "table.json"
        path.write_text(table_to_json(sweep_table))
        assert main(["rate-sweep", "--table", str(path), "--trials", "3", "--seed", "4"]) == 4
        error = json.loads(capsys.readouterr().err)["error"]
        assert error == {"type": "VerificationError", "reason": reason}


def test_sweep_checks_a_whole_batch_of_nullspaces_first(monkeypatch):
    """Column 1's draws give user 1 a singular effective matrix (a repeated
    channel row), and column 3's draws silence user 1, which group (2, 3) of
    that column sees.  In 2-column batches the first batch fails at the
    singular matrix; in the batches of the column-trial budget, all six
    columns at three trials, the nullspaces of the whole batch are checked
    first, and the sweep names column 3's group."""
    table = ScheduleTable((1, 2, 3), 1, 4, 2, tuple(
        ScheduleColumn.of(groups) for groups in [[(1, 2), (1, 3)]] * 2 + [[(1, 2), (2, 3)]] * 2 + [[(1, 3), (2, 3)]] * 2
    ), delta=4)
    table.validate()
    trials, seed = 3, 4
    draw = ChannelRealization.draw

    def degenerate(*args, **kwargs):
        channels = draw(*args, **kwargs)
        for i, (_, column) in enumerate(kwargs["cells"]):
            if column == 1:
                channels.H[1][i, 1] = channels.H[1][i, 0]
            if column == 3:
                channels.H[1][i] = 0.0
        return channels

    monkeypatch.setattr(ChannelRealization, "draw", staticmethod(degenerate))
    channels = ChannelRealization.draw(table.users, table.G, table.L, seed=seed, cells=trial_cells(range(trials), 3))
    with pytest.raises(NullityDeficientError) as want:
        build_beamformers(table.columns[3], channels)
    assert str(want.value).startswith("group (2, 3):")
    assert _batch_columns(trials) >= len(table.columns)
    with pytest.raises(NullityDeficientError) as got:
        snr_sweep(table, [0.0], trials=trials, seed=seed)
    assert str(got.value) == str(want.value)
    monkeypatch.setattr(verifier, "BATCH_COLUMN_TRIALS", 2 * trials)
    with pytest.raises(VerificationError) as two_columns:
        snr_sweep(table, [0.0], trials=trials, seed=seed)
    assert type(two_columns.value) is VerificationError
    assert str(two_columns.value) == "singular effective matrix at user 1"


# -- the nullspace stage on worker threads ------------------------------------


def thread_kind(name):
    """A kernel pool thread's name without the number the pool gives it
    (ccsched-kernel_<n>); any other thread's name as it is."""
    return "ccsched-kernel" if name.startswith("ccsched-kernel") else name


def use_workers(monkeypatch, workers, floor=0):
    """Run the kernel with a pool of ``workers`` threads, none for a serial
    run, splitting every call of at least ``floor`` matrices; returns the
    kind (``thread_kind``) of the thread that factored each stack."""
    monkeypatch.setattr(verifier, "_worker_count", lambda: workers)
    monkeypatch.setattr(verifier, "THREAD_MATRICES", floor)
    factored, basis = [], verifier.nullspace_basis

    def spy(A):
        factored.append(thread_kind(threading.current_thread().name))
        return basis(A)

    monkeypatch.setattr(verifier, "nullspace_basis", spy)
    return factored


def example1_tables():
    return [schedule_symmetric(10, 3, 1, 5, 2)] + [
        table_from_json((DATA / name).read_text()) for name in ("example1_dof12.json", "example1_dof14.json")
    ]


@pytest.mark.parametrize("trials", [33, 200])
def test_sweep_is_bit_for_bit_the_same_on_worker_threads(monkeypatch, trials):
    """Every rate of the three Example 1 sweeps is the same bits whether the
    calling thread factors every stack or a pool thread does."""
    powers = np.array([1.0, 10.0**3.5])
    for table in example1_tables():
        with pytest.MonkeyPatch.context() as patch:
            serial_threads = use_workers(patch, 0)
            serial = column_rates(table, powers, trials, 42)
        with pytest.MonkeyPatch.context() as patch:
            threaded_threads = use_workers(patch, 1)
            threaded = column_rates(table, powers, trials, 42)
        assert serial.tobytes() == threaded.tobytes()
        assert set(serial_threads) == {threading.main_thread().name}
        assert set(threaded_threads) == {"ccsched-kernel"}


def test_oracle_is_bit_for_bit_the_same_on_worker_threads(monkeypatch):
    table = table_from_json((DATA / "fig3_omega8_t3_dof24.json").read_text())
    reports = []
    for workers in (0, 1):
        with pytest.MonkeyPatch.context() as patch:
            factored = use_workers(patch, workers)
            # margins tight enough that both kinds of failure are listed
            reports.append(verify_table_numeric(table, trials=TRIAL_BLOCK + 1, seed=9, tol=1e-15, sigma_tol=0.05))
        assert ("ccsched-kernel" in factored) == bool(workers)
    assert repr(reports[0]) == repr(reports[1]) and reports[0].failures


def test_more_workers_than_cores_give_the_serial_bits(monkeypatch):
    """More pool threads than usable cores, switching threads as often as
    the interpreter allows: a lost, doubled or misplaced stack would change
    the rates.  The run gets a minute."""
    table = table_from_json((DATA / "example1_dof14.json").read_text())
    powers = np.array([1.0, 10.0**3.5])
    with pytest.MonkeyPatch.context() as patch:
        use_workers(patch, 0)
        serial = column_rates(table, powers, 40, 7)
    factored = use_workers(monkeypatch, verifier._worker_count() + 2)
    got, interval = [], sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        run = threading.Thread(target=lambda: got.append(column_rates(table, powers, 40, 7)))
        run.start()
        run.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not run.is_alive() and len(got) == 1
    assert got[0].tobytes() == serial.tobytes()
    assert factored.count("ccsched-kernel") > 1


@pytest.mark.parametrize("pooled", [False, True])
def test_worker_shares_name_the_first_deficient_group(monkeypatch, pooled):
    """The table and silent users of
    ``test_stacked_nullspaces_name_the_first_deficient_group``, with every
    stack factored on the calling thread or on a pool thread: several
    stacks hold deficient profiles, and either way the error names the
    first group in scan order, with its own profile's nullities."""
    table = ScheduleTable((1, 2, 3, 4, 5), 0, 6, 2, (
        ScheduleColumn.of([(1,), (2,), (3,)]),
        ScheduleColumn.of([(4,), (5,), (5,)]),
        ScheduleColumn.of([(1,), (2,), (3,), (4,)]),
    ), delta=2)
    draw = ChannelRealization.draw

    def silent(*args, **kwargs):
        channels = draw(*args, **kwargs)
        channels.H[3][0] = 0.0
        channels.H[5][1] = 0.0
        return channels

    monkeypatch.setattr(ChannelRealization, "draw", staticmethod(silent))
    factored = use_workers(monkeypatch, int(pooled))
    with pytest.raises(NullityDeficientError) as got:
        verify_table_numeric(table, trials=4)
    assert str(got.value) == (
        "group (1,): computed nullity (min 4, max 5) != rank-nullity value 4 (non-generic channel draw)"
    )
    assert set(factored) == {"ccsched-kernel" if pooled else threading.main_thread().name}


@pytest.mark.parametrize("failing,raised", [({1, 3}, 1), ({0, 2}, 0), ({2}, 2)])
def test_worker_errors_are_raised_in_stack_order(monkeypatch, failing, raised):
    """Stacks of 1 to 4 matrices mapped over a pool of two threads: the
    first stack in stack order that raises is the one whose error comes
    out, whichever thread factored it and whenever it finished."""
    rows = np.ones((1, 1, 4, 3), dtype=complex)
    stacks = [(0, None, np.zeros((p, 1), dtype=np.intp), 1) for p in (1, 2, 3, 4)]

    failing = set(failing)

    def failing_basis(A):
        if len(A) - 1 in failing:
            raise np.linalg.LinAlgError(f"stack {len(A) - 1}")
        return nullspace_basis(A)

    monkeypatch.setattr(verifier, "nullspace_basis", failing_basis)
    monkeypatch.setattr(verifier, "THREAD_MATRICES", 0)
    with ThreadPoolExecutor(2) as pool:
        with pytest.raises(np.linalg.LinAlgError, match=f"stack {raised}"):
            verifier._stack_nullspaces(rows, stacks, pool)
        # the pool is left ready for the next call, whose results come in stack order
        failing.clear()
        library, ranks = verifier._stack_nullspaces(rows, stacks, pool)
    serial_library, serial_ranks = verifier._stack_nullspaces(rows, stacks, None)
    assert [rank.shape for rank in ranks] == [(1, 1), (2, 1), (3, 1), (4, 1)]
    assert library.shape == (1, 10, 3) and library.tobytes() == serial_library.tobytes()
    assert all(np.array_equal(a, b) for a, b in zip(ranks, serial_ranks))


NUMERIC_COMMANDS = [
    ["rate-sweep", "--table", str(DATA / "example1_dof14.json"), "--trials", "40", "--seed", "3"],
    ["verify", "--table", str(DATA / "example1_dof14.json"), "--numeric", "--trials", "40", "--seed", "3"],
]


@pytest.mark.parametrize(
    "argv,code", [(NUMERIC_COMMANDS[0], 0), (NUMERIC_COMMANDS[1], 0), (NUMERIC_COMMANDS[0], 4)],
    ids=["rate-sweep", "verify", "failing-rate-sweep"],
)
def test_no_thread_outlives_a_command(monkeypatch, capsys, argv, code):
    """A numeric command starts at most one pool thread per usable core,
    and every one has ended when the command returns, also when it fails:
    with user 3's channel zero in every draw, every stack holding user 3,
    whichever thread factors it, has a nullity above the rank-nullity
    value, and the sweep exits 4 at its first kernel call."""
    before, started, alive = threading.active_count(), [], []
    start, basis = threading.Thread.start, verifier.nullspace_basis

    def counting_start(thread):
        started.append(thread.name)
        start(thread)

    def spy(A):
        alive.append(threading.active_count())
        return basis(A)

    monkeypatch.setattr(threading.Thread, "start", counting_start)
    monkeypatch.setattr(verifier, "nullspace_basis", spy)
    if code:
        draw = ChannelRealization.draw

        def silent(*args, **kwargs):
            channels = draw(*args, **kwargs)
            channels.H[3][:] = 0.0
            return channels

        monkeypatch.setattr(ChannelRealization, "draw", staticmethod(silent))
    assert main(argv) == code
    err = capsys.readouterr().err
    assert ("NullityDeficientError" in err) == bool(code)
    workers = verifier._worker_count()
    assert threading.active_count() == before
    assert set(map(thread_kind, started)) <= {"ccsched-kernel"} and len(started) <= workers
    assert bool(started) == (workers > 0)
    assert max(alive) - before <= workers


def test_no_thread_outlives_a_failing_reduction(monkeypatch, capsys):
    """The sweep's reduction raises after the kernel has split its call
    over the pool, forced on whatever the cores: the command exits 4, and
    every pool thread has ended."""
    before, started, start = threading.active_count(), [], threading.Thread.start

    def counting_start(thread):
        started.append(thread.name)
        start(thread)

    def failing_sinrs(plan, layout, kernel, *args):
        for _ in kernel:  # the kernel factors its stacks on the pool
            pass
        raise VerificationError("reduction fails")

    monkeypatch.setattr(threading.Thread, "start", counting_start)
    factored = use_workers(monkeypatch, 2)
    monkeypatch.setattr("ccsched.rates._batch_sinrs", failing_sinrs)
    assert main(NUMERIC_COMMANDS[0]) == 4
    assert json.loads(capsys.readouterr().err)["error"] == {"type": "VerificationError", "reason": "reduction fails"}
    assert set(factored) == {"ccsched-kernel"} and started
    assert threading.active_count() == before


@pytest.mark.parametrize("argv", NUMERIC_COMMANDS, ids=["rate-sweep", "verify"])
def test_one_usable_core_starts_no_thread(monkeypatch, capsys, argv):
    monkeypatch.setattr(verifier.os, "sched_getaffinity", lambda pid: {0}, raising=False)
    started, start = [], threading.Thread.start

    def counting_start(thread):
        started.append(thread.name)
        start(thread)

    monkeypatch.setattr(threading.Thread, "start", counting_start)
    assert verifier._worker_count() == 0
    assert main(argv) == 0
    capsys.readouterr()
    assert started == []
