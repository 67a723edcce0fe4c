"""The trial-batched numeric kernel against one channel draw at a time, and
against the per-stream loops it replaced; its conditioning screen against the
full SVD of every effective matrix; the table-level rate kernel against the
per-column loop it replaced."""

import builtins
import itertools
import json
import math
import sys
import threading
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from ccsched import verifier
from ccsched.asymmetric import schedule_asymmetric
from ccsched.cli import main
from ccsched.errors import NullityDeficientError, ParameterError, VerificationError
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
        combined = channels.H[k][: beta[k]]  # its first beta_k antennas
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
    ``_complex_normals`` call, per (trial block, layout) and nothing more.
    Units may run on several threads at once, and a unit draws and forms
    its gains on one thread, so each thread's last draw is its unit's."""
    table = table_from_json((DATA / "example1_dof12.json").read_text())
    trials = TRIAL_BLOCK + 3
    draws, combined, normals, current = [], [], [], threading.local()
    draw, set_gains, complex_normals = ChannelRealization.draw, verifier._set_gains, verifier._complex_normals

    def keep_draw(*args, **kwargs):
        current.channels = draw(*args, **kwargs)
        draws.append(current.channels)
        return current.channels

    def keep_combined(streams, beams, h, at):
        combined.append((current.channels, streams, h))
        return set_gains(streams, beams, h, at)

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
    assert {id(channels) for channels, *_ in combined} == set(map(id, draws))
    for channels, streams, h in combined:
        for u, b, *_ in streams.entries:
            channel = h[:, :, u, :b]
            leading = channels.H[channels.users[u]][..., :b, :]
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
    users = tuple(sorted(table.users))
    plan = verifier._plan_table(verifier._group_slots(table.columns, users), users, 1)
    by_streams = {}
    for profile in plan.directions:
        by_streams.setdefault(sum(b for _, b in profile), []).append(profile)
    return by_streams


def profile_rows(channels, profile):
    """The (..., r, L) combined channels of a profile's outside users: each
    one's first b antennas, the leading b rows of its draw."""
    rows = [channels.H[k][..., :b, :] for k, b in profile]
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

    def _sigma_min(self, E, found):
        return np.linalg.svd(E, compute_uv=False)[..., -1]


def full_svd_report(monkeypatch, *args, **kwargs):
    """``verify_table_numeric`` with the full-SVD scan in place of the screen."""
    with monkeypatch.context() as patch:
        patch.setattr(verifier, "_MarginScan", FullSVDScan)
        return verify_table_numeric(*args, **kwargs)


def rank_screen_inputs():
    """(label, A): seeded stacks of complex r x L matrices.  Sixteen each over
    L <= 12 and every 1 <= r < L, plain random, graded (columns scaled over
    1e-6 to 1e6), and near-deficient (the last row 1e-6 or 1e-9 away from the
    first); then a few random r = L - 1 ones at L = 24, 40 and 64, and two at
    r = 258, L = 260, past the determinant bound's reach."""
    rng = np.random.default_rng(29)
    for L in range(2, 13):
        for r in range(1, L):
            shape = (16, r, L)
            A = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
            yield "random", A
            yield "graded", A * 10.0 ** rng.uniform(-6, 6, (16, 1, L))
            for eps in (1e-6, 1e-9) if r > 1 else ():
                deficient = A.copy()
                deficient[:, -1] = A[:, 0] + eps * (rng.standard_normal((16, L)) + 1j * rng.standard_normal((16, L)))
                yield f"eps {eps:g}", deficient
    for n, L in ((8, 24), (8, 40), (4, 64), (2, 260)):
        shape = (n, L - 1 - (L > 64), L)
        yield f"large {L}", rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


def test_rank_screen_bounds_against_svd_reference(monkeypatch):
    """Both lower bounds on the smallest singular value of R's leading block
    T, the determinant bound h l and the inverse bound h l' = 1/|T^-1|_F,
    never exceed T's SVD's smallest value; ``nullspace_basis`` sends to the
    SVD exactly the matrices neither clears, and every other one has the
    thresholded SVD's rank r.  The determinant bound clears every random
    r = L - 1 matrix at L = 24 and none from L = 40 on, where the inverse
    bound clears them all, so none of them takes the SVD."""
    svd, sent, cleared_any, doubted_any = np.linalg.svd, [], False, False

    def spy(a, *args, **kwargs):
        if kwargs.get("compute_uv") is False:
            sent.append(a)
        return svd(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "svd", spy)
    floor = (1 + verifier.SCREEN_SLACK) * verifier.RANK_RTOL
    for label, A in rank_screen_inputs():
        r = A.shape[-2]
        T = np.linalg.qr(verifier._hermitian(A), mode="complete")[1][..., :r, :]
        h, s_min = np.sqrt(verifier._frobenius_sq(T)), svd(T, compute_uv=False)[..., -1]
        log_l = np.log(np.abs(np.diagonal(T, axis1=-2, axis2=-1)) / h[..., None]).sum(-1) + (r - 1) / 2 * math.log(max(r - 1, 1))
        l_inv = 1 / (h * np.sqrt(verifier._frobenius_sq(np.linalg.inv(T))))
        for l in (np.exp(log_l), l_inv):
            assert (h * l <= s_min * (1 + 1e-12)).all(), (label, A.shape)
        by_det = log_l > math.log(floor)
        cleared = by_det | (l_inv > floor)
        sent.clear()
        nullspace_basis(A)
        assert np.array_equal(np.concatenate(sent or [A[:0]]), A[~cleared]), (label, A.shape)
        assert (svd_nullspace(A)[1][cleared] == r).all(), (label, A.shape)
        if label.startswith("large"):
            assert cleared.all() and by_det.all() == (A.shape[-1] < 40) and by_det.any() == (A.shape[-1] < 40)
        cleared_any, doubted_any = cleared_any or cleared.any(), doubted_any or not cleared.all()
    assert cleared_any and doubted_any


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


def count_screen_cells(monkeypatch):
    """Count the effective matrices ``_MarginScan._sigma_min`` screens, and
    of those the ones it passes to ``np.linalg.inv``."""
    cells, inside = {"screened": 0, "inverted": 0}, threading.local()
    screen, inv = _MarginScan._sigma_min, np.linalg.inv

    def counting_screen(self, E, found):
        cells["screened"] += math.prod(E.shape[:-2])
        inside.on = True
        try:
            return screen(self, E, found)
        finally:
            inside.on = False

    def counting_inv(a):
        if getattr(inside, "on", False):
            cells["inverted"] += math.prod(a.shape[:-2])
        return inv(a)

    monkeypatch.setattr(_MarginScan, "_sigma_min", counting_screen)
    monkeypatch.setattr(np.linalg, "inv", counting_inv)
    return cells


def test_screen_skips_most_cells_of_a_large_table(monkeypatch):
    """On the Fig. 3 witness few cells can be the minimum, so few reach the
    SVD, and the report is still that of the full scan.  The determinant
    floor clears all but a few of them, so under a tenth take the inverse."""
    table = table_from_json((DATA / "fig3_omega8_t3_dof24.json").read_text())
    cells = count_svd_cells(monkeypatch)
    want = full_svd_report(monkeypatch, table, trials=TRIAL_BLOCK + 1, seed=9)
    total, cells[0] = cells[0], 0
    screened = count_screen_cells(monkeypatch)
    assert verify_table_numeric(table, trials=TRIAL_BLOCK + 1, seed=9) == want
    assert 0 < cells[0] < total / 10
    assert screened["screened"] == total and 0 < screened["inverted"] < total / 10


@pytest.mark.parametrize("name,run", [
    ("example1_dof14.json", lambda table: column_rates(table, np.array([1.0, 10.0**3.5]), 200, 42)),
    ("fig3_omega8_t3_dof24.json", lambda table: verify_table_numeric(table, trials=4)),
], ids=["sweep", "oracle"])
def test_nullspace_screen_takes_no_inverse_or_svd(monkeypatch, name, run):
    """The 200-trial Example 1 DoF-14 sweep and the 4-trial Fig. 3 witness
    oracle: every outside-channel matrix clears the rank screen, so no
    nullspace takes an inverse or an SVD."""
    table = table_from_json((DATA / name).read_text())
    inside, calls, linalg_calls = threading.local(), [0], {"inv": 0, "svd": 0}
    basis = verifier.nullspace_basis

    def counting_basis(A):
        calls[0] += 1
        inside.on = True
        try:
            return basis(A)
        finally:
            inside.on = False

    def counting(routine, f):
        def spy(*args, **kwargs):
            linalg_calls[routine] += getattr(inside, "on", False)
            return f(*args, **kwargs)
        return spy

    monkeypatch.setattr(verifier, "nullspace_basis", counting_basis)
    for routine in linalg_calls:
        monkeypatch.setattr(np.linalg, routine, counting(routine, getattr(np.linalg, routine)))
    run(table)
    assert calls[0] > 0 and linalg_calls == {"inv": 0, "svd": 0}


def assert_screen_exact(got, E, sigma_tol):
    """A screened stack agrees with the full SVD on every kept cell, on its
    first minimum and on which cells fail; skipped cells read +inf."""
    want = np.linalg.svd(E, compute_uv=False)[..., -1]
    kept = np.isfinite(got)
    assert np.array_equal(got[kept], want[kept])
    assert int(np.argmin(got)) == int(np.argmin(want)) and got.min() == want.min()
    assert np.array_equal(got <= sigma_tol, want <= sigma_tol)
    return kept


def screen_floor(E):
    """The screen's determinant floor of every cell of a stack, and the ratio
    of |E|_F to it, which the soundness ceiling bounds."""
    b, h2 = E.shape[-1], verifier._frobenius_sq(E)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        floor = np.exp(verifier._log_floor(np.linalg.slogdet(E)[1], h2, b))
        return floor, np.sqrt(h2) / floor


def soundness_ceiling(b):
    return min(verifier.SCREEN_CEILING, verifier.SCREEN_SLACK / (128 * 2.0**-53 * b**3 * (3**b + 1)))


def test_screen_keeps_the_cells_its_bounds_cannot_rule_out():
    """U, the least SVD value of the SCREEN_PROBES cells of least floor, sets
    the threshold t = 1.01 max(U, 1e-6); in the first three stacks every cell
    is a probe."""
    scan = _MarginScan(1e-9, 1e-6)
    # U = 0.09 from the second cell, the minimum.  The first cell's floor,
    # 0.01/sqrt(0.02) = 0.0707, and its inverse bound 1/sqrt(200), the same,
    # are under t; so are the second's, 9/|E|_F = 0.089999 and 0.089999
    E = np.array([np.diag([0.1, 0.1]), np.diag([0.09, 100.0])], dtype=complex)[:, None]
    assert assert_screen_exact(scan._sigma_min(E, np.inf), E, 1e-6).all()
    # U = 1 from the identity, whose floor 1/sqrt(2) is under t.  The second
    # cell's floor, 1e10/|E|_F = 10, clears t, but |E|_F over it is 1e8, over
    # the ceiling of 1e6, and so is its estimated condition number: kept
    # though far above the minimum.  The third's floor, 3000/sqrt(6100) = 38,
    # clears t with |E|_F over it 2.03
    E = np.array([np.eye(2), np.diag([1e9, 10.0]), np.diag([50.0, 60.0])], dtype=complex)[:, None]
    assert assert_screen_exact(scan._sigma_min(E, np.inf), E, 1e-6)[:, 0].tolist() == [True, True, False]
    # a subnormal pivot: U = 1e-310 from the second cell, so t = 1.01e-6.  Its
    # floor is 1e-310, with |E|_F over it not finite, and its inverse is not
    # finite (inv does not raise): kept.  The other floors, 6/sqrt(13) = 1.66
    # twice and 72/sqrt(145) = 5.98, clear t with |E|_F over them at most 2.2
    E = np.array([np.diag([3.0, 2.0]), np.diag([1e-310, 1.0]), np.diag([2.0, 3.0]), np.diag([9.0, 8.0])],
                 dtype=complex)[:, None]
    assert assert_screen_exact(scan._sigma_min(E, np.inf), E, 1e-6)[:, 0].tolist() == [False, True, False, False]
    # at b = 1 the floor is |e| with |E|_F over it 1, and it rounds above
    # LAPACK's value for about half of these v.  The probes are the cells of
    # values v to 4 v, U = v, and at sigma_tol = 1e-12 only the slack of t =
    # 1.01 v keeps the minimum; the inverse bound, v, keeps it too
    for v in 1e-3 * (1 + np.arange(16) / 16):
        E = (v * np.arange(1, 6) * np.exp(0.7j)).reshape(5, 1, 1, 1)
        kept = assert_screen_exact(_MarginScan(1e-9, 1e-12)._sigma_min(E, np.inf), E, 1e-12)
        assert kept[:, 0].tolist() == [True, False, False, False, False]


def mixed_stack(b, rng):
    """A (40, 3, b, b) stack of cells scaled over six orders of magnitude:
    in the first nine the last row is the first plus 1e-9 times a row of the
    next nine, whose columns are graded (scaled over 1e-2 to 1e2)."""
    E = rng.standard_normal((40, 3, b, b)) + 1j * rng.standard_normal((40, 3, b, b))
    E *= 10.0 ** rng.uniform(-3, 3, (40, 3, 1, 1))
    E[9:18] *= 10.0 ** rng.uniform(-2, 2, (9, 3, 1, b))
    if b > 1:
        E[:9, :, -1, :] = E[:9, :, 0, :] + 1e-9 * E[9:18, :, -1, :]
    return E


@pytest.mark.parametrize("b", range(1, 9))
def test_screen_on_random_stacks_of_mixed_conditioning(b):
    """The determinant floor never exceeds LAPACK's smallest singular value,
    beyond rounding, and equals it where the other values are equal; the
    screen agrees with the full SVD.  At sigma_tol = 0.3 about half of the
    cells fail."""
    rng = np.random.default_rng(b)
    E = mixed_stack(b, rng)
    sigma = np.linalg.svd(E, compute_uv=False)[..., -1]
    floor, _ = screen_floor(E)
    assert (floor <= sigma * (1 + 1e-12) + 2.0**-40 * np.sqrt(verifier._frobenius_sq(E))).all()
    # Hong and Pan's bound is tight for singular values (s, 1, ..., 1), s small
    u, _ = np.linalg.qr(rng.standard_normal((8, b, b)) + 1j * rng.standard_normal((8, b, b)))
    tight = u * np.r_[1e-4, np.ones(b - 1)] @ u.conj().swapaxes(-1, -2)
    assert np.allclose(screen_floor(tight)[0], 1e-4, rtol=1e-6)
    for sigma_tol in (1e-6, 0.3):
        kept = assert_screen_exact(_MarginScan(1e-9, sigma_tol)._sigma_min(E, np.inf), E, sigma_tol)
        if sigma_tol < 1e-3:
            assert kept.sum() < kept.size / 2


@pytest.mark.parametrize("kind", ["singular", "subnormal pivot", "over the ceiling"])
def test_screen_sends_unsound_floors_to_the_inverse(monkeypatch, kind):
    """A cell whose floor is not finite or not sound takes the inverse bound:
    an exactly singular cell (inv then raises, and every cell the floor does
    not clear keeps the SVD), a subnormal pivot, and a cell whose floor clears
    the threshold with |E|_F over it above the soundness ceiling."""
    odd = {"singular": [[1.0, 2.0], [1.0, 2.0]], "subnormal pivot": np.diag([1e-310, 1.0]),
           "over the ceiling": np.diag([1e9, 10.0])}[kind]
    rng = np.random.default_rng(7)
    E = rng.standard_normal((12, 2, 2, 2)) + 1j * rng.standard_normal((12, 2, 2, 2))
    E[5, 1] = odd
    floor, ratio = screen_floor(E[5, 1])
    assert not (np.isfinite(floor) and ratio <= soundness_ceiling(2))
    sent, raised, inv = [], [], np.linalg.inv

    def spy(a):
        sent.extend(a)
        try:
            return inv(a)
        except np.linalg.LinAlgError:
            raised.append(kind)
            raise

    monkeypatch.setattr(np.linalg, "inv", spy)
    kept = assert_screen_exact(_MarginScan(1e-9, 1e-6)._sigma_min(E, np.inf), E, 1e-6)
    assert any(np.array_equal(a, E[5, 1]) for a in sent)
    assert bool(raised) == (kind == "singular") and kept[5, 1]
    if raised:
        floor, ratio = screen_floor(E)
        bound = 1.01 * max(float(np.linalg.svd(E, compute_uv=False)[..., -1].min()), 1e-6)
        assert np.array_equal(kept, ~((floor > bound) & (ratio <= soundness_ceiling(2))))


@pytest.mark.parametrize("b", [2, 5])
def test_screen_under_a_smaller_value_found_keeps_only_what_it_cannot_clear(b):
    """A stack screened after the scan found a smaller value, in a stack of
    nearly singular cells, keeps no cell whose sound floor or inverse bound
    clears 1.01 times that value, fewer than on its own, and every cell it
    skips lies above it."""
    stack = mixed_stack(b, np.random.default_rng(20 + b))
    scan = _MarginScan(1e-9, 1e-12)
    found = float(scan._sigma_min(stack[:9], np.inf).min())
    E = stack[9:]
    sigma = np.linalg.svd(E, compute_uv=False)[..., -1]
    got = scan._sigma_min(E, found)
    kept = np.isfinite(got)
    assert found < sigma.min() and np.array_equal(got[kept], sigma[kept]) and (sigma[~kept] > found).all()
    floor, ratio = screen_floor(E)
    lower = 1 / np.sqrt(verifier._frobenius_sq(np.linalg.inv(E)))
    k, ceiling = np.sqrt(verifier._frobenius_sq(E)) / lower, soundness_ceiling(b)
    clears = ((floor > 1.01 * found) & (ratio <= ceiling)) | ((lower > 1.01 * found) & (k <= ceiling))
    assert clears.any() and not (kept & clears).any()
    assert kept.sum() < np.isfinite(scan._sigma_min(E, np.inf)).sum()


def test_table_scan_screens_later_stacks_against_the_value_found(monkeypatch):
    """In a table scan, ``add`` passes each stack the least value found so
    far, which is below some stack's own values, and the report is still
    the full scan's."""
    table = table_from_json((DATA / "example1_dof14.json").read_text())
    want = full_svd_report(monkeypatch, table, trials=40, seed=3)
    calls, screen = [], _MarginScan._sigma_min

    def recording(self, E, found):
        calls.append((found, float(np.linalg.svd(E, compute_uv=False)[..., -1].min())))
        return screen(self, E, found)

    monkeypatch.setattr(_MarginScan, "_sigma_min", recording)
    assert verify_table_numeric(table, trials=40, seed=3) == want
    assert any(found < least for found, least in calls)


def test_screen_past_the_float_range_of_its_ceiling():
    """At b = 647, 3^b is past the float range; the soundness ceiling, taken
    in logarithms, is far below 1, so no bound is sound and the cell keeps
    the SVD."""
    E = np.random.default_rng(3).standard_normal((1, 1, 647, 647)) + 0j
    assert assert_screen_exact(_MarginScan(1e-9, 1e-6)._sigma_min(E, np.inf), E, 1e-6).all()


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


def test_sweep_time_accounting_does_not_depend_on_sum(monkeypatch):
    """From Python 3.12 on, ``sum()`` of floats is compensated, so it no
    longer adds left to right as a cumsum does.  The per-trial and the
    mean-rate symmetric rates are one statement that calls no ``sum()``: with
    ``sum()`` of floats compensated (``math.fsum``), the sweep still matches
    its reference bit for bit."""
    plain = builtins.sum

    def compensated(values, start=0):
        values = list(values)
        return start + math.fsum(values) if any(isinstance(v, float) for v in values) else plain(values, start)

    monkeypatch.setattr(builtins, "sum", compensated)
    for name in ("example1_dof14.json", "example1_dof12.json"):
        assert_sweep_matches_reference(table_from_json((DATA / name).read_text()), 40, 3)


def test_no_path_reads_the_combiner_pool(monkeypatch):
    """Combined channels are read from the draw itself: with
    ``ChannelRealization.haar_combiner_pool`` raising, the reference path,
    the oracle and the sweep all still run."""

    def no_pool(self):
        raise AssertionError("the combiner pool was read")

    monkeypatch.setattr(ChannelRealization, "haar_combiner_pool", no_pool)
    table = table_from_json((DATA / "example1_dof14.json").read_text())
    channels = ChannelRealization.draw(table.users, table.G, table.L, seed=2, cells=trial_cells(range(3)))
    for column in table.columns:
        solution = build_beamformers(column, channels)
        for k in channels.users:
            own, _ = effective_matrix(solution, channels, k)
            assert own.shape == (3, solution.beta[k], solution.beta[k])
        assert verify_numeric(column, channels, solution).ok
    assert verify_table_numeric(table, trials=3, seed=2).ok
    assert len(snr_sweep(table, [0.0, 30.0], trials=3, seed=2)) == 2


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


# -- whole units on worker threads ---------------------------------------------


def thread_kind(name):
    """A kernel pool thread's name without the number the pool gives it
    (ccsched-kernel_<n>); any other thread's name as it is."""
    return "ccsched-kernel" if name.startswith("ccsched-kernel") else name


def use_workers(monkeypatch, workers):
    """Run the kernel as if on ``workers`` usable cores (0: one core), so
    that a run of two or more units maps them over a pool of that many
    threads; returns the kind (``thread_kind``) of the thread that factored
    each nullspace stack, the thread that ran its unit."""
    monkeypatch.setattr(verifier, "_worker_count", lambda: workers)
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
    calling thread runs every unit or two pool threads do."""
    powers = np.array([1.0, 10.0**3.5])
    for table in example1_tables():
        with pytest.MonkeyPatch.context() as patch:
            serial_threads = use_workers(patch, 0)
            serial = column_rates(table, powers, trials, 42)
        with pytest.MonkeyPatch.context() as patch:
            threaded_threads = use_workers(patch, 2)
            threaded = column_rates(table, powers, trials, 42)
        assert serial.tobytes() == threaded.tobytes()
        assert set(serial_threads) == {threading.main_thread().name}
        assert set(threaded_threads) == {"ccsched-kernel"}


def test_oracle_is_bit_for_bit_the_same_on_worker_threads(monkeypatch):
    """The Fig. 3 witness at 2 * TRIAL_BLOCK + 1 trials, three units: the
    report is the same whether the calling thread runs every unit or two
    pool threads do, and each unit's scan is merged into the run's."""
    table = table_from_json((DATA / "fig3_omega8_t3_dof24.json").read_text())
    reports = []
    for workers in (0, 2):
        with pytest.MonkeyPatch.context() as patch:
            factored = use_workers(patch, workers)
            # margins tight enough that both kinds of failure are listed
            reports.append(verify_table_numeric(table, trials=2 * TRIAL_BLOCK + 1, seed=9, tol=1e-15, sigma_tol=0.05))
        assert set(factored) == {"ccsched-kernel" if workers else threading.main_thread().name}
    same = repr(reports[0]) == repr(reports[1])  # a named bool: pytest would diff the long reprs for minutes
    assert same and reports[0].failures
    assert {trial for trial, *_ in reports[0].failures} >= {0, TRIAL_BLOCK, 2 * TRIAL_BLOCK}


@pytest.mark.parametrize("trials", [TRIAL_BLOCK + 1, 40])
def test_merged_unit_scans_give_the_one_scan_report(monkeypatch, trials):
    """The oracle's per-unit scans, merged, against one scan that folds
    every stream set of every unit in scan order on the calling thread: the
    same report ``repr``, with failures of both kinds listed, whether the
    units ran on the calling thread or on two pool threads."""
    table = table_from_json((DATA / "fig3_omega8_t3_dof24.json").read_text())
    tol, sigma_tol = 1e-15, 0.05
    one = _MarginScan(tol, sigma_tol)

    def fold(plan, block, layout, kernel):
        for streams, gains in kernel:
            one.add(plan, streams, gains, block)

    with pytest.MonkeyPatch.context() as patch:
        use_workers(patch, 0)
        verifier._numeric_run(table, trials, 9, True, fold)
    want = one.report()
    assert {kind for _, _, kind, *_ in want.failures} == {"leakage", "sigma_min"}
    for workers in (0, 2):
        with pytest.MonkeyPatch.context() as patch:
            use_workers(patch, workers)
            got = verify_table_numeric(table, trials=trials, seed=9, tol=tol, sigma_tol=sigma_tol)
        same = repr(got) == repr(want)  # a named bool: pytest would diff the long reprs for minutes
        assert same


def test_more_workers_than_cores_give_the_serial_bits(monkeypatch):
    """More pool threads than usable cores, switching threads as often as
    the interpreter allows: a lost, doubled or misplaced unit would change
    the rates.  The run gets a minute."""
    table = table_from_json((DATA / "example1_dof14.json").read_text())
    powers = np.array([1.0, 10.0**3.5])
    trials = 5 * TRIAL_BLOCK  # at least five units
    with pytest.MonkeyPatch.context() as patch:
        use_workers(patch, 0)
        serial = column_rates(table, powers, trials, 7)
    factored = use_workers(monkeypatch, verifier._worker_count() + 2)
    got, interval = [], sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        run = threading.Thread(target=lambda: got.append(column_rates(table, powers, trials, 7)))
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
    ``test_stacked_nullspaces_name_the_first_deficient_group``, over two
    units run on the calling thread or on pool threads: both units hold
    deficient profiles, and either way the error names the first group of
    the first unit in scan order, with its own profile's nullities."""
    table = ScheduleTable((1, 2, 3, 4, 5), 0, 6, 2, (
        ScheduleColumn.of([(1,), (2,), (3,)]),
        ScheduleColumn.of([(4,), (5,), (5,)]),
        ScheduleColumn.of([(1,), (2,), (3,), (4,)]),
    ), delta=2)
    draw = ChannelRealization.draw

    def silent(*args, **kwargs):
        channels = draw(*args, **kwargs)
        channels.H[3][0] = 0.0  # the first trial of each unit
        channels.H[5][1] = 0.0
        return channels

    monkeypatch.setattr(ChannelRealization, "draw", staticmethod(silent))
    factored = use_workers(monkeypatch, 2 * pooled)
    with pytest.raises(NullityDeficientError) as got:
        verify_table_numeric(table, trials=TRIAL_BLOCK + 2)
    assert str(got.value) == (
        "group (1,): computed nullity (min 4, max 5) != rank-nullity value 4 (non-generic channel draw)"
    )
    assert set(factored) == {"ccsched-kernel" if pooled else threading.main_thread().name}


@pytest.mark.parametrize("failing,raised", [({1, 3}, 1), ({0, 2}, 0), ({2}, 2)])
def test_unit_errors_are_raised_in_scan_order(monkeypatch, failing, raised):
    """Four units of an oracle run on a pool of two threads, some of which
    fail at their draw: the error that comes out is the first failing unit's
    in scan order, though that unit fails only after every later failing
    unit has, and no thread outlives the run."""
    table = table_from_json((DATA / "example1_dof14.json").read_text())
    before, failed, later_failed = threading.active_count(), [], threading.Event()
    draw = ChannelRealization.draw

    def failing_draw(*args, cells, **kwargs):
        unit = cells[0][0] // TRIAL_BLOCK  # the oracle's units are its trial blocks
        if unit in failing:
            if unit == raised and failing != {raised}:
                assert later_failed.wait(timeout=30)
            failed.append(unit)
            if len(failed) == len(failing) - 1:
                later_failed.set()
            raise np.linalg.LinAlgError(f"unit {unit}")
        return draw(*args, cells=cells, **kwargs)

    monkeypatch.setattr(ChannelRealization, "draw", staticmethod(failing_draw))
    use_workers(monkeypatch, 2)
    with pytest.raises(np.linalg.LinAlgError, match=f"unit {raised}$"):
        verify_table_numeric(table, trials=4 * TRIAL_BLOCK)
    assert failed == sorted(failing, reverse=True)
    assert threading.active_count() == before


NUMERIC_COMMANDS = [
    ["rate-sweep", "--table", str(DATA / "example1_dof14.json"), "--trials", "40", "--seed", "3"],
    ["verify", "--table", str(DATA / "example1_dof14.json"), "--numeric", "--trials", "40", "--seed", "3"],
]


@pytest.mark.parametrize(
    "argv,code", [(NUMERIC_COMMANDS[0], 0), (NUMERIC_COMMANDS[1], 0), (NUMERIC_COMMANDS[0], 4)],
    ids=["rate-sweep", "verify", "failing-rate-sweep"],
)
def test_no_thread_outlives_a_command(monkeypatch, capsys, argv, code):
    """A numeric command of two or more units (two trial blocks) starts at
    most one pool thread per usable core, and every one has ended when the
    command returns, also when it fails: with user 3's channel zero in every
    draw, every stack holding user 3, whichever thread runs its unit, has a
    nullity above the rank-nullity value, and the sweep exits 4 with its
    first unit's error."""
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
    """The sweep's reduction raises in every unit, each run on the pool,
    forced on whatever the cores, after its kernel has run: the command
    exits 4, and every pool thread has ended."""
    before, started, start = threading.active_count(), [], threading.Thread.start

    def counting_start(thread):
        started.append(thread.name)
        start(thread)

    def failing_sinrs(plan, layout, kernel, *args):
        for _ in kernel:  # the kernel factors its stacks on the unit's thread
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


def test_one_unit_starts_no_thread(monkeypatch, capsys):
    """``verify --numeric`` at a few trials is one unit, one trial block of
    the oracle's one layout: it runs on the calling thread, whatever the
    cores."""
    started, start = [], threading.Thread.start

    def counting_start(thread):
        started.append(thread.name)
        start(thread)

    monkeypatch.setattr(threading.Thread, "start", counting_start)
    factored = use_workers(monkeypatch, 2)
    assert main(NUMERIC_COMMANDS[1][:-4] + ["--trials", "4"]) == 0
    capsys.readouterr()
    assert started == [] and set(factored) == {threading.main_thread().name}


def test_units_in_flight_hold_at_most_the_entry_bound(monkeypatch):
    """The pool runs no more units at once than MAX_KERNEL_ENTRIES holds:
    a bound that holds one unit's draws and Q factors but not two keeps a
    two-unit oracle run on the calling thread, with the same report."""
    table = table_from_json((DATA / "example1_dof14.json").read_text())
    monkeypatch.setattr(verifier, "MAX_KERNEL_ENTRIES", 0)
    with pytest.raises(ParameterError) as refused:
        verify_table_numeric(table, trials=TRIAL_BLOCK + 1)
    entries = int(str(refused.value).split(" would hold ")[1].split()[0])
    reports = []
    for bound, pooled in ((entries, False), (2 * entries - 1, False), (2 * entries, True)):
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(verifier, "MAX_KERNEL_ENTRIES", bound)
            factored = use_workers(patch, 2)
            reports.append(repr(verify_table_numeric(table, trials=TRIAL_BLOCK + 1)))
        assert set(factored) == {"ccsched-kernel" if pooled else threading.main_thread().name}
    assert len(set(reports)) == 1
