"""The package's records are immutable namedtuple subclasses."""
from __future__ import annotations

import pytest

from mckay.cuts import Cut, invariant_cut, validate_cut
from mckay.lattice import AbelianQuotient, LatticeBasis
from mckay.mckay_quiver import build_quiver, k_action
from mckay.monomial_group import group_from_basis, semidirect_check
from mckay.skew import loop_witness, skew_quiver, unskew_round_trip


@pytest.fixture(scope="module")
def records() -> dict:
    basis = LatticeBasis(3, 0, 3)
    q = build_quiver(AbelianQuotient(basis))
    act = k_action(q, "C")
    cut = invariant_cut(act)
    s = skew_quiver(act)
    group = group_from_basis(basis, "C")
    found = [
        q.quotient, q, act, act.group, cut, validate_cut(q, cut),
        group, semidirect_check(group, "C"), s, s.vertices[0],
        loop_witness(k_action(build_quiver(AbelianQuotient(LatticeBasis(2, 0, 2))), "C")),
        unskew_round_trip(q),
    ]
    return {type(r).__name__: r for r in found}


@pytest.mark.parametrize(
    "name",
    [
        "AbelianQuotient", "TypedQuiver", "QuiverAction", "GroupAction",
        "Cut", "ValidationReport", "FiniteMatrixGroup", "ComplementReport", "SkewQuiver",
        "SkewVertex", "LoopWitness", "RoundTripReport",
    ],
)
def test_records_are_immutable_tuples(records, name):
    record = records[name]
    assert isinstance(record, tuple)
    with pytest.raises(AttributeError):
        setattr(record, record._fields[0], None)
    assert not hasattr(record, "__dict__")


def test_cuts_compare_and_hash_by_their_arrows():
    cut = Cut.of([2, 1])
    assert repr(cut) == "Cut(arrows=(1, 2))"
    assert cut == Cut((1, 2)) != Cut((1, 3))
    assert {cut: 1}[Cut.of([1, 2, 1])] == 1
    assert cut._replace(arrows=(1, 3)) == Cut((1, 3))
