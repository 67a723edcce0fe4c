"""The channel draws against numpy's own Philox: every (trial, column) cell
of a seed's draws, alone or stacked, is bit for bit a fresh
``Generator(Philox(key=[seed, 0], counter=[0, 0, trial, column]))``, a
seed or a cell outside [0, 2**64) is refused, and no numeric run draws a
cell twice."""

import numpy as np
import pytest

from ccsched import verifier
from ccsched.errors import ParameterError
from ccsched.model import ScheduleColumn, ScheduleTable
from ccsched.rates import column_rates
from ccsched.verifier import ChannelRealization, verify_table_numeric

# both ends of the key word's range, both sides of 2**32 and 2**63, and
# numpy integers
STRADDLING = [
    (1 << 32) - 3, (1 << 32) - 1, 1 << 32, (1 << 32) + 1,
    0, (1 << 64) - 1, np.int64(5), np.uint64((1 << 64) - 2), 1 << 40, (1 << 63) - 1, 1 << 63, (1 << 63) + 1,
]
# both counter words at 0, 1, across 2**32 and at the top of their range
CELLS = [(0, 0), (1, 0), (0, 1), (7, 3), ((1 << 32) + 1, 1 << 32), ((1 << 64) - 1, (1 << 64) - 1), (3, 0)]


def generator(seed, cell=(0, 0)):
    """A fresh generator keyed [seed, 0] at the cell's counter.  Key and
    counter go in as uint64 words: numpy turns a list holding a word of
    2**63 or more into floats first, which rounds it."""
    key = np.array([seed, 0], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key, counter=np.array([0, 0, *cell], dtype=np.uint64)))


def reference_draw(seed, users, G, L, cell=(0, 0)):
    """Channels of one cell, each user from one fresh generator in turn, as
    the per-user kernel drew them."""
    rng = generator(seed, cell)
    return {k: (rng.standard_normal((G, L)) + 1j * rng.standard_normal((G, L))) / np.sqrt(2) for k in users}


def assert_matches_reference(channels, seed, cell, users, index=()):
    H = reference_draw(seed, users, channels.G, channels.L, cell)
    for k in users:
        assert np.array_equal(channels.H[k][index], H[k]), (seed, cell, k)


def test_draws_straddling_two_to_the_32_match_a_fresh_philox():
    """A single draw, cell (0, 0), of every seed: a fresh Philox at a zero
    counter, the draw each seed gave before cells were counted."""
    for seed in STRADDLING:
        one = ChannelRealization.draw((2, 1), 2, 3, seed=seed)
        assert one.cells is None
        assert_matches_reference(one, seed, (0, 0), (1, 2))
        keyed_only = np.random.Generator(np.random.Philox(key=np.array([seed, 0], dtype=np.uint64)))
        assert np.array_equal(keyed_only.standard_normal(8), generator(seed).standard_normal(8))


@pytest.mark.parametrize("seed", [0, (1 << 64) - 1, np.uint64(1 << 63)])
def test_cells_match_a_fresh_philox_at_their_counter(seed):
    """Every cell of a batch, and a cell drawn alone, is a fresh Philox whose
    counter holds (0, 0, trial, column); the
    reused generator's state setter places the counter, with an empty
    buffer, as the constructor does."""
    users = (1, 2, 4)
    batch = ChannelRealization.draw(users, 3, 5, seed=seed, cells=CELLS)
    assert batch.cells == tuple(CELLS) and batch.H[1].shape == (len(CELLS), 3, 5)
    for i, cell in enumerate(CELLS):
        assert_matches_reference(batch, seed, cell, users, i)
        alone = ChannelRealization.draw(users, 3, 5, seed=seed, cells=cell)
        assert alone.H[1].shape == (3, 5)
        assert_matches_reference(alone, seed, cell, users)
    # cell (0, 0) named or left out is one draw
    assert np.array_equal(ChannelRealization.draw(users, 3, 5, seed=seed, cells=(0, 0)).H[4],
                          ChannelRealization.draw(users, 3, 5, seed=seed).H[4])


@pytest.mark.parametrize("seed", [-1, 1 << 64, 99999999999999999999999, 1.0, [0, 5, 1 << 64], [-3, 0]])
def test_seeds_outside_the_key_range_are_refused(seed):
    """A seed is one integer key word; a sequence of seeds is refused too."""
    with pytest.raises(ParameterError, match=r"seed must be an integer in \[0, 2\*\*64\), got "):
        ChannelRealization.draw((1, 2), 2, 3, seed=seed)
    with pytest.raises(ParameterError, match=r"seed must be an integer in \[0, 2\*\*64\)"):
        ChannelRealization.draw((1, 2), 2, 3, seed=seed, cells=[(0, 0), (1, 0)])


@pytest.mark.parametrize("cell", [(-1, 0), (1 << 64, 0), (0.5, 0), (0, -1), (0, 1 << 64), (0, 0.5)])
def test_cells_outside_the_counter_range_are_refused(cell):
    """Each half of a cell is one integer counter word, alone or in a batch:
    a negative or too large one used to end in an OverflowError, a float
    was truncated to another cell."""
    for cells in (cell, [(0, 0), cell]):
        with pytest.raises(ParameterError, match=r"cell must be a pair of integers in \[0, 2\*\*64\), got "):
            ChannelRealization.draw((1, 2), 2, 3, seed=1, cells=cells)


@pytest.mark.parametrize("cells", [5, (1, 2, 3), [(0, 0, 0)], [[(0, 0)]]])
def test_cells_that_are_not_pairs_are_refused(cells):
    with pytest.raises(ParameterError, match=r"cells must be \(trial, column\) pairs, got "):
        ChannelRealization.draw((1, 2), 2, 3, seed=1, cells=cells)


def spy_cells(monkeypatch):
    """Record the (seed, cell) of every draw that ``_complex_normals`` makes."""
    drawn, draw = [], verifier._complex_normals

    def spy(seed, cells, shape):
        drawn.extend((int(seed), tuple(cell)) for cell in ([cells or (0, 0)] if np.ndim(cells) < 2 else cells))
        return draw(seed, cells, shape)

    monkeypatch.setattr(verifier, "_complex_normals", spy)
    return drawn


def test_a_sweep_draws_every_cell_once(monkeypatch):
    """A 2-trial sweep of 7 920 one-group columns, enough for trial 1 of
    column 0 to meet trial 0 of column 7 919 under a seed offset of 7 919
    per trial: every channel draw is a distinct (key, counter) pair, one per
    (trial, column) cell."""
    columns, trials = 7920, 2
    table = ScheduleTable((1,), 0, 2, 1, (ScheduleColumn.of([(1,)]),) * columns, delta=columns)
    table.validate()
    drawn = spy_cells(monkeypatch)
    rates = column_rates(table, np.array([1.0]), trials, (1 << 64) - 1)
    assert rates.shape == (1, trials, columns) and (rates > 0).all()
    assert len(drawn) == len(set(drawn)) == trials * columns
    assert sorted(cell for _, cell in drawn) == [(t, c) for t in range(trials) for c in range(columns)]
    assert {seed for seed, _ in drawn} == {(1 << 64) - 1}


def test_oracle_runs_at_neighbouring_seeds_share_no_draw(monkeypatch):
    """``verify --numeric`` at s and s + 1 draws disjoint (key, counter)
    pairs, where trial i + 1 of s and trial i of s + 1 used to coincide;
    within a run, trial i draws cell (i, 0)."""
    table = ScheduleTable((1, 2, 3), 1, 4, 2, (
        ScheduleColumn.of([(1, 2), (1, 3)]), ScheduleColumn.of([(1, 2), (2, 3)]), ScheduleColumn.of([(1, 3), (2, 3)]),
    ), delta=2)
    runs = []
    for seed in (41, 42):
        with pytest.MonkeyPatch.context() as patch:
            drawn = spy_cells(patch)
            assert verify_table_numeric(table, trials=5, seed=seed).ok
        runs.append(set(drawn))
        assert len(drawn) == len(runs[-1]) == 5
        assert sorted(cell for _, cell in drawn) == [(t, 0) for t in range(5)]
    assert not runs[0] & runs[1]
