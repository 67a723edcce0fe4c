"""Domain types and subset combinatorics shared by the schedulers.

Users are 1-based integers.  A multicast group is a sorted tuple of t+1
distinct user indices; columns are multisets of groups kept in canonical
(sorted) order so that multiset equality is plain tuple equality.  No file
payloads are materialized anywhere: every quantity of interest depends only
on index combinatorics.
"""

from __future__ import annotations

import itertools
import json
import math
from collections import Counter
from dataclasses import dataclass
from typing import Iterable

from .errors import MalformedTableError, ParameterError

Group = tuple[int, ...]


def make_group(users: Iterable[int], size: int | None = None) -> Group:
    """Canonicalize a multicast group: sorted, duplicate-free user indices."""
    g = tuple(sorted(users))
    if len(set(g)) != len(g):
        raise ParameterError(f"group {g} has repeated users")
    if not g or any(u < 1 for u in g):
        raise ParameterError(f"group {g} must contain positive user indices")
    if size is not None and len(g) != size:
        raise ParameterError(f"group {g} must have exactly {size} users")
    return g


def enumerate_groups(served_users: Iterable[int], t: int) -> list[Group]:
    """All (t+1)-subsets of the served set, lexicographic in sorted indices."""
    users = sorted(set(served_users))
    if len(users) < t + 1:
        raise ParameterError(f"need at least t+1={t + 1} users, got {len(users)}")
    return [tuple(c) for c in itertools.combinations(users, t + 1)]


@dataclass(frozen=True)
class ScheduleColumn:
    """One transmission interval: a multiset of multicast groups."""

    groups: tuple[Group, ...]

    @staticmethod
    def of(groups: Iterable[Iterable[int]]) -> "ScheduleColumn":
        return ScheduleColumn(tuple(sorted(tuple(sorted(g)) for g in groups)))

    def theta(self) -> Counter:
        """Multiplicity of each group in this column."""
        return Counter(self.groups)

    def beta(self, served_users: Iterable[int]) -> dict[int, int]:
        """Per-user stream count over the full served set (zeros included)."""
        users = sorted(set(served_users))
        counts = dict.fromkeys(users, 0)
        for g in self.groups:
            for k in g:
                if k not in counts:
                    raise MalformedTableError(f"user {k} not in served set {users}")
                counts[k] += 1
        return counts

    def __len__(self) -> int:
        return len(self.groups)


@dataclass(frozen=True)
class ScheduleTable:
    """An ordered family of transmission intervals plus its replication record.

    ``delta`` is the base-table repetition factor, ``delta_tilde`` the
    enlargement factor of the decomposition-reassignment stage (1 for plain
    symmetric tables), and ``m`` the number of group indices appended to each
    retained column.  Conservation invariant: every (t+1)-subset of ``users``
    occurs exactly ``delta * delta_tilde`` times across all columns.
    """

    users: tuple[int, ...]
    t: int
    L: int
    G: int
    columns: tuple[ScheduleColumn, ...]
    delta: int = 1
    delta_tilde: int = 1
    m: int = 0

    @property
    def omega(self) -> int:
        return len(self.users)

    @property
    def subpacketization_factor(self) -> int:
        """Delivery-phase splitting factor contributed by this table."""
        return self.delta * self.delta_tilde

    @property
    def subpacketization(self) -> int:
        """Theta = C(omega, t) * delta * delta_tilde: subpackets per file over
        the served users, the normalization of every column's delivery time."""
        return math.comb(self.omega, self.t) * self.subpacketization_factor

    def group_totals(self) -> Counter:
        return Counter(itertools.chain.from_iterable(col.groups for col in self.columns))

    def validate(self) -> None:
        """Check universe membership and conservation from the table's own groups alone."""
        served, size = set(self.users), self.t + 1
        if len(served) < size:
            raise ParameterError(f"need at least t+1={size} users, got {len(served)}")
        totals = self.group_totals()
        foreign = [g for g in totals if not (len(g) == size and served.issuperset(g) and list(g) == sorted(set(g)))]
        if foreign:
            raise MalformedTableError(f"groups outside the served universe: {sorted(foreign)[:3]}")
        want = self.delta * self.delta_tilde
        bad = {g: c for g, c in totals.items() if c != want}
        # all C(omega, t+1) groups are present, or a lazy walk finds the first three missing
        missing = [] if len(totals) == math.comb(len(served), size) else list(itertools.islice(
            (g for g in itertools.combinations(sorted(served), size) if g not in totals), 3))
        if bad or missing:
            raise MalformedTableError(
                f"conservation violated: expected every group {want} times, "
                f"got deviations {sorted(bad.items())[:3]}, missing {sorted(missing)[:3]}"
            )


def table_to_json(table: ScheduleTable) -> str:
    """Serialize to the interchange schema used by every CLI command.

    The text is exactly ``json.dumps(doc, indent=2) + "\n"``, laid out here
    directly: with ``indent`` set, ``json`` falls back to its pure-Python
    encoder, and every group's text is built once per table instead.
    """
    group_text: dict[Group, str] = {}
    columns = []
    for col in table.columns:
        items = []
        for g in col.groups:
            text = group_text.get(g)
            if text is None:
                text = group_text[g] = _json_array(map(str, g), 3)
            items.append(text)
        columns.append(_json_array(items, 2))
    fields = {
        "omega": table.omega,
        "t": table.t,
        "L": table.L,
        "G": table.G,
        "users": _json_array(map(str, table.users), 1),
        "delta": table.delta,
        "delta_tilde": table.delta_tilde,
        "m": table.m,
        "columns": _json_array(columns, 1),
    }
    return "{\n" + ",\n".join(f'  "{key}": {value}' for key, value in fields.items()) + "\n}\n"


def _json_array(items: Iterable[str], depth: int) -> str:
    """Encoded ``items`` as a JSON array at nesting ``depth``, in indent=2 layout."""
    items = list(items)
    if not items:
        return "[]"
    inner = "\n" + "  " * (depth + 1)
    return "[" + inner + ("," + inner).join(items) + "\n" + "  " * depth + "]"


def table_from_json(text: str) -> ScheduleTable:
    """Parse and validate a table document produced by :func:`table_to_json`."""
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise MalformedTableError(f"invalid JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise MalformedTableError("a table document must be a JSON object")
    scalars = ("omega", "t", "L", "G", "delta", "delta_tilde", "m")
    missing = set(scalars + ("users", "columns")) - set(doc)
    if missing:
        raise MalformedTableError(f"missing table fields: {sorted(missing)}")
    wrong = [key for key in scalars if not _is_int(doc[key])]
    if wrong:
        raise MalformedTableError(f"table fields {wrong} must be integers")
    if not (isinstance(doc["users"], list) and all(map(_is_int, doc["users"]))):
        raise MalformedTableError("table field 'users' must be a list of integers")
    raw_columns = doc["columns"]
    # JSON decodes an array to a list and a number to an int, float or bool,
    # so the shape holds exactly when the columns, their groups and the
    # groups' elements have the types list, list and int
    shaped = type(raw_columns) is list and {*map(type, raw_columns)} <= {list}
    raw_groups = list(itertools.chain.from_iterable(raw_columns)) if shaped else []
    if not (
        shaped
        and {*map(type, raw_groups)} <= {list}
        and {*map(type, itertools.chain.from_iterable(raw_groups))} <= {int}
    ):
        raise MalformedTableError("table field 'columns' must list columns of integer groups")
    users = tuple(sorted(doc["users"]))
    repeated = [k for k, j in zip(users, users[1:]) if k == j]
    if repeated:
        raise MalformedTableError(f"user {repeated[0]} repeats in the user list")
    if len(users) != doc["omega"]:
        raise MalformedTableError("omega does not match the user list")
    t = doc["t"]
    if t < 0:
        raise MalformedTableError(f"table field 't' must be non-negative, got {t}")
    # each distinct raw group is made once; every element is a plain int (checked
    # above), so no bool reaches a key, where True == 1 would find the group of a 1
    size, served, keys = t + 1, set(users), list(map(tuple, raw_groups))
    canonical = {key: tuple(sorted(key)) for key in set(keys)}
    if not all(len(g) == size == len(set(g)) and g[0] >= 1 and served.issuperset(g) for g in canonical.values()):
        _raise_first_bad_group(raw_columns, size, served, users)
    groups = map(canonical.__getitem__, keys)
    columns = [ScheduleColumn(tuple(sorted(itertools.islice(groups, len(raw_col))))) for raw_col in raw_columns]
    return ScheduleTable(
        users=users,
        t=t,
        L=doc["L"],
        G=doc["G"],
        columns=tuple(columns),
        delta=doc["delta"],
        delta_tilde=doc["delta_tilde"],
        m=doc["m"],
    )


def _raise_first_bad_group(raw_columns, size: int, served: set, users: tuple) -> None:
    """Raise the error of a table's first bad group, checking every group in
    turn: a column's groups are all made (``make_group``) before any is
    checked against the users."""
    for raw_col in raw_columns:
        for g in [make_group(raw, size=size) for raw in raw_col]:
            if not served.issuperset(g):
                raise MalformedTableError(f"group {g} outside users {users}")


def _is_int(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)
