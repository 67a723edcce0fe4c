"""The plain result records are ``typing.NamedTuple`` classes.  They keep what
the frozen dataclasses they replaced offered: the same repr, equality by
field, hashing where every field hashes, no assignment to a field, and the
same values from ``AsymPlan.scaled`` and the symbolic check of one column."""

import numpy as np
import pytest

from ccsched.asymmetric import AsymPlan, CandidateCollection, schedule_asymmetric
from ccsched.dof import DofWitness, RegionBudget
from ccsched.model import ScheduleColumn, ScheduleTable
from ccsched.rates import RatePoint
from ccsched.symmetric import HatParams, SymmetricPlan, schedule_symmetric
from ccsched.verifier import BeamformerSolution, NumericReport, SymbolicReport, Witness, decodability_check

TABLE = ScheduleTable((1, 2, 3), 1, 2, 2, (ScheduleColumn.of([(1, 2), (2, 3)]),))
# shared by every instance, so that two instances built alike compare equal
BEAM = np.array([[1.0 + 0.5j], [0.0 - 2.0j]])

# name -> (instance factory, a field and another value for it, the repr the
# frozen dataclass gave)
RECORDS = {
    "Witness": (
        lambda: Witness(2, "tx", (1, 2), 3, 2),
        ("column", 3),
        "Witness(column=2, condition='tx', subject=(1, 2), lhs=3, bound=2)",
    ),
    "SymbolicReport": (
        lambda: SymbolicReport(False, (Witness(1, "rx", 3, 2, 1),), (False, True), -1),
        ("min_slack", 0),
        "SymbolicReport(ok=False, witnesses=(Witness(column=1, condition='rx', subject=3, lhs=2, bound=1),), "
        "per_column=(False, True), min_slack=-1)",
    ),
    "BeamformerSolution": (
        lambda: BeamformerSolution(
            {(1, 2): BEAM}, {(1, 2): 1}, {1: 1, 2: 1, 3: 0}, (((1, 2), 0),), BEAM
        ),
        ("nullities", {(1, 2): 2}),
        "BeamformerSolution(beams={(1, 2): array([[1.+0.5j],\n       [0.-2.j ]])}, nullities={(1, 2): 1}, "
        "beta={1: 1, 2: 1, 3: 0}, streams=(((1, 2), 0),), stacked=array([[1.+0.5j],\n       [0.-2.j ]]))",
    ),
    "NumericReport": (
        lambda: NumericReport(
            True, 1.5e-16, 0.25, (), {"trial": 0, "user": 1, "group": (1, 2)}, {"trial": 1, "user": 2}
        ),
        ("min_sigma", 0.5),
        "NumericReport(ok=True, max_leakage=1.5e-16, min_sigma=0.25, failures=(), "
        "max_leakage_at={'trial': 0, 'user': 1, 'group': (1, 2)}, min_sigma_at={'trial': 1, 'user': 2})",
    ),
    "AsymPlan": (
        lambda: AsymPlan(5, 2, 1, 1, 1, 6, 2, 0, 10),
        ("I_max", 11),
        "AsymPlan(B=5, S=2, m=1, d=1, r=1, delta_tilde=6, S_tilde=2, tau=0, I_max=10)",
    ),
    "CandidateCollection": (
        lambda: CandidateCollection(1, 2, (((1, 2),), ((3, 4),))),
        ("donor_index", 1),
        "CandidateCollection(column_index=1, donor_index=2, sets=(((1, 2),), ((3, 4),)))",
    ),
    "RegionBudget": (
        lambda: RegionBudget(),
        ("seed", 1),
        "RegionBudget(delta_max=12, seed=0)",
    ),
    "DofWitness": (
        lambda: DofWitness("sym", 1, 0, 6, TABLE),
        ("dof", 7),
        "DofWitness(scheme='sym', beta=1, m=0, dof=6, table=ScheduleTable(users=(1, 2, 3), t=1, L=2, G=2, "
        "columns=(ScheduleColumn(groups=((1, 2), (2, 3))),), delta=1, delta_tilde=1, m=0))",
    ),
    "RatePoint": (
        lambda: RatePoint(10.0, (1.25, 2.5), 3.75, 0.125, 20, 7),
        ("trials", 21),
        "RatePoint(snr_db=10.0, per_column_rate=(1.25, 2.5), symmetric_rate=3.75, std_rsym=0.125, "
        "trials=20, seed=7)",
    ),
    "HatParams": (
        lambda: HatParams(2, 5, 2),
        ("S_hat", 3),
        "HatParams(beta_hat=2, B_hat=5, S_hat=2)",
    ),
    "SymmetricPlan": (
        lambda: SymmetricPlan(5, 1, HatParams(2, 5, 2), 2, 1),
        ("hat", HatParams(2, 5, 3)),
        "SymmetricPlan(omega=5, t=1, hat=HatParams(beta_hat=2, B_hat=5, S_hat=2), eta=2, delta=1)",
    ),
}
# the records with an unhashable field (dict or array)
UNHASHABLE = {"BeamformerSolution", "NumericReport"}


@pytest.mark.parametrize("name", RECORDS)
def test_repr_is_the_dataclass_repr(name):
    make, _, want = RECORDS[name]
    assert repr(make()) == want


@pytest.mark.parametrize("name", RECORDS)
def test_equality_is_by_field(name):
    make, (field, other), _ = RECORDS[name]
    a, b = make(), make()
    assert a == b and not a != b
    changed = a._replace(**{field: other})
    assert changed != a and not changed == a


@pytest.mark.parametrize("name", RECORDS)
def test_hash_follows_equality(name):
    make, _, _ = RECORDS[name]
    if name in UNHASHABLE:
        with pytest.raises(TypeError):
            hash(make())
    else:
        assert hash(make()) == hash(make())
        assert len({make(), make()}) == 1


@pytest.mark.parametrize("name", RECORDS)
def test_fields_cannot_be_assigned(name):
    make, (field, other), _ = RECORDS[name]
    record = make()
    with pytest.raises(AttributeError):
        setattr(record, field, other)
    assert repr(record) == RECORDS[name][2]


def test_defaults_and_properties_are_kept():
    assert RegionBudget(seed=5) == RegionBudget(12, 5)
    plan = SymmetricPlan(5, 1, HatParams(2, 5, 2), 2, 1)
    assert (plan.beta, plan.B, plan.S) == (4, 10, 1)
    assert str(Witness(2, "tx", (1, 2), 3, 2)) == "column 2: tx at (1, 2) gives 3 > 2"


def test_scaled_plan_values():
    plan = schedule_asymmetric(schedule_symmetric(10, 3, 1, 5, 2), m=1)[1]
    assert repr(plan) == "AsymPlan(B=5, S=2, m=1, d=5, r=1, delta_tilde=6, S_tilde=10, tau=1, I_max=50)"
    scaled = plan.scaled(2)
    assert type(scaled) is AsymPlan
    assert repr(scaled) == "AsymPlan(B=5, S=2, m=1, d=10, r=2, delta_tilde=12, S_tilde=20, tau=1, I_max=50)"


def test_check_column_values():
    col = ScheduleColumn.of([(1, 2)] * 3 + [(2, 3)])
    report = decodability_check(ScheduleTable((1, 2, 3), 0, 2, 2, (col,)))
    assert report.min_slack == -2 and all(type(w) is Witness for w in report.witnesses)
    assert report.witnesses == (
        Witness(1, "tx", (1, 2), 4, 2),
        Witness(1, "tx", (2, 3), 4, 2),
        Witness(1, "rx", (1,), 3, 2),
        Witness(1, "rx", (2,), 4, 2),
    )
