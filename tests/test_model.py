import itertools
import json
import math
from pathlib import Path

import pytest

from ccsched.errors import MalformedTableError, ParameterError
from ccsched.model import (
    ScheduleColumn,
    ScheduleTable,
    enumerate_groups,
    make_group,
    table_from_json,
    table_to_json,
)


def test_make_group_canonicalization():
    assert make_group([3, 1, 2]) == (1, 2, 3)
    with pytest.raises(ParameterError):
        make_group([1, 1, 2])
    with pytest.raises(ParameterError):
        make_group([1, 2], size=3)


def test_enumerate_groups_pairs():
    groups = enumerate_groups(range(1, 6), t=1)
    assert len(groups) == 10
    assert groups == sorted(groups)
    assert groups[0] == (1, 2) and groups[-1] == (4, 5)


def test_enumerate_groups_matches_example2_universe():
    # the two reference columns of the 5-user, t=2 instance partition exactly
    # the full enumeration
    col_a = [(1, 2, 3), (1, 2, 4), (3, 4, 5), (2, 3, 5), (1, 4, 5)]
    col_b = [(1, 2, 5), (1, 3, 4), (2, 3, 4), (2, 4, 5), (1, 3, 5)]
    assert sorted(col_a + col_b) == enumerate_groups(range(1, 6), t=2)


def test_enumerate_groups_edge_and_errors():
    assert enumerate_groups([1, 2], t=1) == [(1, 2)]
    with pytest.raises(ParameterError):
        enumerate_groups([1, 2], t=2)


def test_column_multiplicities_example2_column():
    col = ScheduleColumn.of([(1, 2, 3), (1, 2, 4), (3, 4, 5), (2, 3, 5), (1, 4, 5)])
    theta, beta = col.theta(), col.beta(range(1, 6))
    assert all(v == 1 for v in theta.values())
    assert beta == {k: 3 for k in range(1, 6)}


def test_column_multiplicities_repeated_group():
    col = ScheduleColumn.of([(1, 2), (1, 2)])
    theta, beta = col.theta(), col.beta([1, 2, 3])
    assert theta == {(1, 2): 2}
    assert beta == {1: 2, 2: 2, 3: 0}


def test_column_multiplicities_foreign_user():
    col = ScheduleColumn.of([(1, 9)])
    with pytest.raises(MalformedTableError):
        col.beta([1, 2, 3])


def test_counting_identity_random_columns():
    import random

    rng = random.Random(5)
    for _ in range(50):
        omega = rng.randint(2, 7)
        t = rng.randint(1, omega - 1)
        pool = enumerate_groups(range(1, omega + 1), t)
        col = ScheduleColumn.of(rng.choices(pool, k=rng.randint(1, 12)))
        theta, beta = col.theta(), col.beta(range(1, omega + 1))
        assert sum(beta.values()) == (t + 1) * sum(theta.values())


def _toy_table(columns, users=(1, 2, 3, 4, 5), t=1, **kw):
    return ScheduleTable(
        users=tuple(users),
        t=t,
        L=10,
        G=3,
        columns=tuple(ScheduleColumn.of(c) for c in columns),
        **kw,
    )


def test_table_subpacketization():
    """Theta over the served users: C(omega, t) * delta * delta_tilde."""
    pairs = list(itertools.combinations(range(1, 6), 2))
    assert _toy_table([pairs], delta=1, delta_tilde=7).subpacketization == math.comb(5, 1) * 7
    assert _toy_table([pairs], delta=1, delta_tilde=1).subpacketization == math.comb(5, 1)
    table2 = ScheduleTable(
        users=tuple(range(1, 6)),
        t=2,
        L=11,
        G=6,
        columns=(ScheduleColumn.of(itertools.combinations(range(1, 6), 3)),),
        delta=1,
        delta_tilde=8,
    )
    assert table2.subpacketization == math.comb(5, 2) * 8


def test_table_validate_conservation():
    pairs = list(itertools.combinations(range(1, 6), 2))
    good = _toy_table([pairs], delta=1, delta_tilde=1)
    good.validate()
    bad = _toy_table([pairs + [(1, 2)]], delta=1, delta_tilde=1)
    with pytest.raises(MalformedTableError):
        bad.validate()


def universe_validate(table):
    """The check ``validate`` replaced, which builds the whole universe of
    (t+1)-groups: the reference for its verdicts and messages."""
    expected = set(enumerate_groups(table.users, table.t))
    totals = table.group_totals()
    foreign = set(totals) - expected
    if foreign:
        raise MalformedTableError(f"groups outside the served universe: {sorted(foreign)[:3]}")
    want = table.delta * table.delta_tilde
    bad = {g: c for g, c in totals.items() if c != want}
    missing = expected - set(totals)
    if bad or missing:
        raise MalformedTableError(
            f"conservation violated: expected every group {want} times, "
            f"got deviations {sorted(bad.items())[:3]}, missing {sorted(missing)[:3]}"
        )


PAIRS = list(itertools.combinations(range(1, 6), 2))


@pytest.mark.parametrize("columns,delta", [
    ([PAIRS], 1),
    ([PAIRS[1:]], 1),  # three missing and more
    ([PAIRS[:-2]], 1),  # the last two missing
    ([PAIRS, PAIRS[:1]], 1),  # a deviation
    ([PAIRS, PAIRS[:4]], 2),  # deviations and missing groups
    ([PAIRS + [(1, 9)]], 1),  # a user outside the table
    ([PAIRS + [(2, 1), (3, 3)]], 1),  # unsorted and repeated users
    ([PAIRS + [(1, 2, 3)], [(1,)]], 1),  # groups of the wrong size
    ([], 1),  # no group at all
])
def test_validate_matches_the_universe_check(columns, delta):
    """Every verdict and message of ``validate``, which works from the
    table's own groups, is the universe-building check's."""
    table = ScheduleTable((1, 2, 3, 4, 5), 1, 10, 3, tuple(ScheduleColumn(tuple(c)) for c in columns), delta=delta)
    outcomes = []
    for check in (ScheduleTable.validate, universe_validate):
        try:
            check(table)
            outcomes.append(None)
        except MalformedTableError as exc:
            outcomes.append(str(exc))
    assert outcomes[0] == outcomes[1]
    assert (outcomes[0] is None) == (columns == [PAIRS])


def test_json_roundtrip():
    pairs = list(itertools.combinations(range(1, 6), 2))
    table = _toy_table([pairs[:5], pairs[5:]], delta=1, delta_tilde=1)
    doc = table_to_json(table)
    back = table_from_json(doc)
    assert back.users == table.users
    assert back.columns == table.columns
    assert table_to_json(back) == doc


def test_json_schema_fields():

    pairs = list(itertools.combinations(range(1, 6), 2))
    doc = json.loads(table_to_json(_toy_table([pairs], delta_tilde=1)))
    assert list(doc) == ["omega", "t", "L", "G", "users", "delta", "delta_tilde", "m", "columns"]
    assert doc["omega"] == 5 and doc["columns"][0][0] == [1, 2]


def test_json_rejects_malformed():
    with pytest.raises(MalformedTableError):
        table_from_json("{not json")
    with pytest.raises(MalformedTableError):
        table_from_json('{"omega": 2}')
    with pytest.raises(MalformedTableError):
        table_from_json(
            '{"omega":2,"t":1,"L":2,"G":1,"users":[1,2],"delta":1,'
            '"delta_tilde":1,"m":0,"columns":[[[1,3]]]}'
        )


@pytest.mark.parametrize("columns", [
    "[[[1,2],[1,true]]]",  # the same column
    "[[[1,2]],[[1,2],[true,2]]]",  # a later column
    "[[[1,true]],[[1,2]]]",  # before the group it would equal
])
def test_json_rejects_a_repeated_group_holding_true(columns):
    """(1, True) == (1, 1): a group holding ``true`` must not pass as the
    integer group it equals, though each distinct group is made only once."""
    doc = ('{"omega":3,"t":1,"L":4,"G":2,"users":[1,2,3],"delta":1,'
           f'"delta_tilde":1,"m":0,"columns":{columns}}}')
    with pytest.raises(MalformedTableError, match="integer groups"):
        table_from_json(doc)


def test_json_reports_the_first_bad_group_of_a_column():
    """A column's groups are all made before any is checked against the
    users, and a repeated group is made once: the errors stay those of
    checking every group in turn."""
    head = '{"omega":3,"t":1,"L":4,"G":2,"users":[1,2,3],"delta":1,"delta_tilde":1,"m":0,'
    with pytest.raises(ParameterError, match="repeated users"):
        table_from_json(head + '"columns":[[[1,4],[2,2]]]}')
    with pytest.raises(MalformedTableError, match=r"group \(1, 4\) outside"):
        table_from_json(head + '"columns":[[[1,2]],[[1,2],[4,1],[1,4]]]}')
    table = table_from_json(head + '"columns":[[[2,1],[1,2]],[[3,1],[1,2]]]}')
    assert [c.groups for c in table.columns] == [((1, 2), (1, 2)), ((1, 2), (1, 3))]


def test_json_rejects_a_repeated_user():
    """A user listed twice would count twice in omega and in the served set's
    rates; the parser names it instead."""
    doc = json.loads((Path(__file__).parent / "data" / "example1_dof14.json").read_text())
    doc["users"].append(5)
    doc["omega"] = 6
    with pytest.raises(MalformedTableError, match="user 5 repeats in the user list"):
        table_from_json(json.dumps(doc))
