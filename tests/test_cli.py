"""End-to-end CLI behavior: documents, formats, determinism, exit codes."""
from __future__ import annotations

import argparse
import hashlib
import io
import json
import os
import sys
import types
from contextlib import redirect_stderr, redirect_stdout
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mckay import cli, cuts, errors, lattice, mckay_quiver
from mckay.lattice import admissible_bases


def run(capsys, *args) -> tuple[int, str]:
    code = cli.main(list(args))
    out = capsys.readouterr().out
    return code, out


def run_json(capsys, *args) -> tuple[int, dict]:
    code, out = run(capsys, *args)
    return code, json.loads(out)


def test_every_command_produces_schema_one(capsys):
    jobs = [
        ("group-info", "--basis", "3,2;0,1", "--kind", "C"),
        ("quiver", "--basis", "3,0;0,3"),
        ("cut-exists", "--basis", "3,0;0,3", "--gamma", "3,3,3"),
        ("cut-build", "--basis", "3,2;0,1", "--gamma", "1,1,1"),
        ("cut-validate", "--basis", "3,2;0,1", "--gamma", "1,1,1"),
        ("cut-enumerate", "--basis", "3,2;0,1"),
        ("skew", "--basis", "2,0;0,2", "--kind", "C"),
        ("classify", "--basis", "2,0;0,2", "--kind", "D"),
        ("unskew-roundtrip", "--basis", "3,2;0,1"),
        ("oracle-compare", "--max-det", "4"),
    ]
    for job in jobs:
        code, doc = run_json(capsys, *job)
        assert code == 0, job
        assert doc["schema"] == 1
        assert doc["command"] == job[0]


def test_json_round_trip_identity(capsys):
    code, out = run(capsys, "classify", "--basis", "3,0;0,3", "--kind", "C")
    assert code == 0
    doc = json.loads(out)
    assert json.dumps(doc, sort_keys=True, indent=2) + "\n" == out


# Strings and keys with control characters, quotes, backslashes, % and
# non-ASCII text, next to ordinary ones.
_CHARS = 'ab%"\\\x00\n\x1f\x7f\u00e9\u20ac\U0001f600'
_TEXT = st.text(st.sampled_from(_CHARS), max_size=4) | st.text(max_size=3)
_ATOM = st.none() | st.booleans() | st.integers(-(2**80), 2**80) | _TEXT
_FIELDS = (
    _ATOM,
    st.lists(_ATOM, min_size=2, max_size=2),
    st.lists(_ATOM, max_size=3) | _ATOM,
    st.lists(st.lists(_ATOM, max_size=2), min_size=1, max_size=1),
)


@st.composite
def _records(draw):
    """Dicts that share one key set, each field of one kind: atoms, lists
    of one length, lists of any length or atoms, nested lists; sometimes a
    last row with other keys or with one key more."""
    keys = draw(st.lists(_TEXT, min_size=1, max_size=4, unique=True))
    row = st.fixed_dictionaries({key: draw(st.sampled_from(_FIELDS)) for key in keys})
    rows = draw(st.lists(row, min_size=1, max_size=4))
    last = draw(st.sampled_from(["same", "other", "more"]))
    if last == "other":
        rows.append(draw(st.dictionaries(_TEXT, _ATOM, max_size=3)))
    elif last == "more":
        rows.append({**rows[0], "".join(keys) + "+": None})
    return rows


_VALUE = st.recursive(
    _ATOM | _records(),
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(_TEXT, inner, max_size=4),
    max_leaves=8,
)


@settings(max_examples=40, deadline=None)
@given(st.dictionaries(_TEXT, _VALUE, max_size=3))
def test_json_rendering_matches_the_stdlib(doc):
    assert cli._to_json(doc) == json.dumps(doc, sort_keys=True, indent=2) + "\n"


def test_long_lists_render_across_chunks(monkeypatch):
    # Lists render a chunk at a time; three items per chunk puts chunk
    # boundaries inside every list here.
    monkeypatch.setattr(cli, "_CHUNK", 3)
    doc = {
        "atoms": list(range(-4, 6)),
        "rows": [{"id": i, "pair": [i, -i], "tail": [0] * (i % 3)} for i in range(10)],
        "more": [{"id": 0}, {"id": 1}, {"id": 2}, {"id": 3, "extra": None}],
        "mixed": [{"id": 0}, {"id": 1, "extra": None}, [], {}, "x", [[1], [2, 3]]],
    }
    assert cli._to_json(doc) == json.dumps(doc, sort_keys=True, indent=2) + "\n"


@pytest.mark.parametrize(
    "value, name",
    [
        (0.5, "float"),
        ([{"id": 0, "x": 1}, {"id": 1, "x": 2.0}], "float"),
        ([{"pair": [0, 1]}, {"pair": [0, 1e300]}], "float"),
        ({1: "a"}, "int"),
        ((0, 1), "tuple"),
        ({0, 1}, "set"),
        (b"x", "bytes"),
        (object(), "object"),
    ],
    ids=["float", "record-float", "record-list-float", "int-key", "tuple", "set", "bytes", "object"],
)
def test_a_non_json_value_in_a_document_exits_4(capsys, monkeypatch, value, name):
    # No floating point enters a result: the JSON output refuses it.
    monkeypatch.setitem(cli._COMMANDS, "quiver", lambda args: {"value": value})
    assert cli.main(["quiver", "--basis", "3,0;0,3"]) == 4
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: cannot render {name} as JSON\n"


def test_byte_determinism(capsys):
    args = ("skew", "--basis", "3,0;0,3", "--kind", "D")
    _, first = run(capsys, *args)
    _, second = run(capsys, *args)
    assert first == second
    args2 = ("cut-enumerate", "--basis", "7,3;0,1")
    _, third = run(capsys, *args2)
    _, fourth = run(capsys, *args2)
    assert third == fourth


def test_basis_is_normalized_in_metadata(capsys):
    # rows (2,3),(0,1) reduce to the Hermite form (2,1),(0,1)
    code, doc = run_json(capsys, "quiver", "--basis", "2,3;0,1")
    assert code == 0
    assert doc["metadata"]["basis"] == [[2, 1], [0, 1]]
    assert doc["metadata"]["det"] == 2


def test_quiver_document_shape(capsys):
    code, doc = run_json(capsys, "quiver", "--basis", "3,0;0,3")
    assert code == 0
    assert len(doc["vertices"]) == 9
    assert len(doc["arrows"]) == 27
    assert doc["cycle_count"] == 18
    assert doc["square_count"] == 27
    ids = [a["id"] for a in doc["arrows"]]
    assert ids == sorted(ids)
    for a in doc["arrows"]:
        assert a["type"] in (1, 2, 3)
        assert a["degree"] is None


def test_cut_build_document(capsys):
    code, doc = run_json(
        capsys, "cut-build", "--basis", "3,0;0,3", "--gamma", "3,3,3"
    )
    assert code == 0
    assert doc["cut"]["type"] == [3, 3, 3]
    assert doc["cut"]["validation"]["passed"] is True
    degree_one = [a["id"] for a in doc["arrows"] if a["degree"] == 1]
    assert degree_one == doc["cut"]["arrow_ids"]


def test_cut_validate_arrow_ids(capsys):
    code, doc = run_json(
        capsys, "cut-validate", "--basis", "3,2;0,1", "--arrow-ids", "6,7,8"
    )
    assert code == 0
    assert doc["validation"]["passed"] is True
    code, doc = run_json(
        capsys, "cut-validate", "--basis", "3,2;0,1", "--arrow-ids", "0,5"
    )
    assert code == 0
    assert doc["validation"]["passed"] is False
    assert doc["validation"]["witnesses"]


def test_dot_output(capsys):
    code, out = run(
        capsys, "cut-build", "--basis", "3,2;0,1", "--gamma", "1,1,1",
        "--format", "dot",
    )
    assert code == 0
    assert out.startswith("digraph mckay {")
    assert out.count("->") == 9
    assert out.count("style=dashed") == 3
    assert out.count('[label="(') == 3  # one node line per coset

    code, out = run(
        capsys, "skew", "--basis", "2,0;0,2", "--kind", "C", "--format", "dot"
    )
    assert code == 0
    assert 'v3 -> v3 [label="x2", style=solid];' in out


def test_text_output_smoke(capsys):
    code, out = run(
        capsys, "classify", "--basis", "2,0;0,2", "--kind", "C",
        "--format", "text",
    )
    assert code == 0
    assert "verdict: no-cut" in out


def test_classify_attaches_witnesses(capsys):
    code, doc = run_json(capsys, "classify", "--basis", "3,0;0,3", "--kind", "C")
    assert code == 0
    assert doc["verdict"] == "cut-exists"
    assert doc["divisible_by_3"] is True
    assert len(doc["witness"]["invariant_cut_arrow_ids"]) == 9
    degrees = [a["degree"] for a in doc["arrows"]]
    assert set(degrees) <= {0, 1}

    code, doc = run_json(capsys, "classify", "--basis", "2,0;0,2", "--kind", "C")
    assert code == 0
    assert doc["verdict"] == "no-cut"
    assert doc["witness"]["orbit_size"] == 3
    assert doc["loops"]


def test_unskew_roundtrip_document(capsys):
    code, doc = run_json(capsys, "unskew-roundtrip", "--basis", "3,0;0,3")
    assert code == 0
    assert doc["cut_recovered"] is True
    assert doc["double_skew_vertex_count"] == 9
    assert doc["original_cut_arrow_ids"] == doc["recovered_cut_arrow_ids"]


def test_oracle_compare_clean(capsys):
    code, doc = run_json(capsys, "oracle-compare", "--max-det", "7")
    assert code == 0
    assert doc["discrepancies"] == []
    assert all(case["match"] for case in doc["cases"])


# Digests of the largest sweeps in tier-1, recorded before the cut search
# became type-directed; the search's speed-ups must leave them unchanged.
ORACLE_PINS = [
    ("oracle-compare --kind C --max-det 27",
     "a7148486c523777a15e2992d49e8f49a32ccda024948d587efb007129951d3de"),
    ("oracle-compare --kind D --max-det 27",
     "03ab663c55731aa0f8f5a9d0718111060dd74606cce578411df627aef4cef84e"),
    ("oracle-compare --kind A --max-det 12",
     "e6cc250fe011752d33a8026c3dbab75d016800f27bec1cae615edd5f0f80704c"),
    # Recorded with the search that decided the origin's whole type-1 and
    # type-2 orbits, which needs minutes for this sweep; the walk-directed
    # search with walk-sum box pruning needs a fraction of a second.
    ("oracle-compare --kind C --max-det 45",
     "8168bfe6d780a7c10ef72ae4e38127b9d243e33dc47d974dbd3efc986acab74c"),
    # Recorded with the walk-directed search before box pruning, which
    # needs 20-30 seconds for this sweep; with box pruning, a few seconds.
    ("oracle-compare --kind C --max-det 63",
     "f8d18ca3642194dbaba12c44f38c079201215323bf0fe342364fd98467b577d8"),
]


@pytest.mark.parametrize("argv, digest", ORACLE_PINS, ids=[p[0] for p in ORACLE_PINS])
def test_oracle_compare_sweeps_are_pinned(capsys, argv, digest):
    code, out = run(capsys, *argv.split())
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == digest


# Digests of group-info documents beyond the golden corpus, recorded while
# the group layer still built matrix objects; the documents print the
# (perm, exps) keys unchanged.
GROUP_INFO_PINS = [
    ("group-info --basis 10,0;0,10 --kind D",
     "726f4ac8a84b139d17fa0c7ba1dd453396074a5ab3df84ff6a9af71638afcf57"),
    ("group-info --basis 30,0;0,30 --kind D --format text",
     "030bf2f217eee7874ce1447fe25b16e89d508d2d80713c38887ec58e04953358"),
    ("group-info --basis 91,82;0,1 --kind C",
     "4d382368355320a9cf30b116f3563a01140e09e57442ee9a84c00b257f86eabb"),
    ("group-info --basis 100,17;0,1 --kind A",
     "51f1de4cab12649a3fcd073480ce269270dd92b8f56db972f38eb64e98c6c962"),
    ("group-info --basis 10,0;0,10 --kind D --root-order 20 --scalars 10,10,10",
     "ae96119cf8e6ffa5fad7bc055ffd8ba7ed1e8bf9d0d7b23cc335360347c5d91e"),
]


@pytest.mark.parametrize("argv, digest", GROUP_INFO_PINS, ids=[p[0] for p in GROUP_INFO_PINS])
def test_group_info_documents_are_pinned(capsys, argv, digest):
    code, out = run(capsys, *argv.split())
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == digest


# Digests of benchmark-sized documents beyond the golden corpus, recorded
# before the quiver, the K-action and both skews moved to vertex indices.
SKEW_PINS = [
    ("classify --basis 427,353;0,1 --kind C",
     "6f142c3e6605585d965caf735345b46d211ea74fd6f243675c0110b7001084c3"),
    ("classify --basis 18,0;0,18 --kind D",
     "a6063c4470f3471ff958b24139f2d09884c9c35a58993d10407bdfbd9fc41b91"),
    ("classify --basis 42,30;0,6 --kind C --format text",
     "f9f267898474736f1fdd283527a5c02500cd570e86e7f8322c3ab45e5bda2685"),
    ("skew --basis 21,0;0,21 --kind D",
     "63c36b7e82f9b284f5e38d08b811bb56f592a8b46242071fba00e9cafd430607"),
    ("skew --basis 361,69;0,1 --kind C --format dot",
     "f111b504ce62924c003a0ae30a7e9b0afc7013dfb4224cc8ad1789eab15e9a31"),
    ("skew --basis 12,8;0,4 --kind D --root-order 4 --scalars 2,0,0",
     "e4a4a5e4bd48539ffa4e228be3a235a3383df3092730e74c3b1f301d1b94f05b"),
    ("unskew-roundtrip --basis 63,51;0,3",
     "8d0b8e3ebc2c4d848e2f23bf4888e9ead89ba245a11a40c9a5222e5128e66997"),
    ("unskew-roundtrip --basis 63,51;0,3 --format text",
     "c04062a20b412b787882a16e45989956c41e932ea018d8586ce9c5dc71574ca1"),
]


@pytest.mark.parametrize("argv, digest", SKEW_PINS, ids=[p[0] for p in SKEW_PINS])
def test_skew_documents_are_pinned(capsys, argv, digest):
    code, out = run(capsys, *argv.split())
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == digest


# A round trip whose signature groups hold 300 vertices each, recorded while
# the isomorphism search still scanned the whole group for every vertex; its
# `isomorphism` field is the first consistent mapping in candidate order.
# The two cyclic-quotient round trips of the benchmark deck were recorded
# before the search set-up moved to integer label codes.
ROUND_TRIP_PINS = [
    ("unskew-roundtrip --basis 30,0;0,30",
     "354c286e719f7cd85b899f63bf30d04e1dc164e6f09ebf06303929436ac0060a"),
    ("unskew-roundtrip --basis 183,14;0,1",
     "1944c1ee08c1e012ad7b90ca793bb471f4e760488e935641ded3233fab8d865a"),
    ("unskew-roundtrip --basis 201,164;0,1",
     "8f33a4fd1d05034d3408f2c156465fb60569b8998385db535b52e8131b60fc8e"),
]


@pytest.mark.parametrize("argv, digest", ROUND_TRIP_PINS, ids=[p[0] for p in ROUND_TRIP_PINS])
def test_round_trip_documents_are_pinned(capsys, argv, digest):
    code, out = run(capsys, *argv.split())
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == digest


@pytest.mark.parametrize(
    "extra, expected",
    [((), [1, 1, 1]), (("--root-order", "12", "--scalars", "1,11,6"), [1, 11, 6])],
)
def test_involution_type_scalars_follow_the_scalars(capsys, extra, expected):
    # alpha*gamma^2, alpha*beta^2 and -1 as exponents: (p + 2s, p + 2q, M/2)
    code, doc = run_json(capsys, "skew", "--basis", "2,0;0,2", "--kind", "D", *extra)
    assert code == 0
    assert doc["metadata"]["involution_type_scalars"] == expected


def test_a_large_root_order_document_is_pinned(capsys):
    # Recorded while the engine still summed traces in the field of order
    # lcm(M/g, 3), g the gcd of M and the scalar exponents, whose cost grew
    # with the root order M; no scalar enters a trace now, so the bytes
    # stay and the cost does not.
    argv = "skew --basis 2,0;0,2 --kind D --root-order 20000 --scalars 1,0,9999"
    code, out = run(capsys, *argv.split())
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == (
        "5a583212dba6c0a314546d336e36dff9134c108a7b3b537b0935a63bbac9bff3"
    )


def test_a_huge_root_order_builds_no_field_of_its_order(capsys):
    # No scalar enters a trace, only the sign -1 of an involution on the
    # type it fixes, so a root order of 2,000,000 gives the quiver of the
    # golden 2I case at root order 4.
    argv = ["skew", "--basis", "2,0;0,2", "--kind", "D", "--root-order"]
    huge_code, huge = run_json(capsys, *argv, "2000000", "--scalars", "1,0,999999")
    small_code, small = run_json(capsys, *argv, "4", "--scalars", "1,0,1")
    assert huge_code == small_code == 0
    assert huge["metadata"]["root_order"] == 2_000_000
    for key in ("vertices", "arrows", "loops"):
        assert huge[key] == small[key]


@pytest.mark.parametrize(
    "argv, message",
    [
        ("skew --basis 2,0;0,2 --kind D --root-order 3", "kind D needs an even root order, got 3"),
        ("skew --basis 2,0;0,2 --kind C --scalars 1,1,0", "kind C admits no involution scalars"),
    ],
)
def test_scalars_are_refused_before_q_n_is_built(capsys, monkeypatch, argv, message):
    # The command validates the scalars itself, before it builds Q_N; it
    # reads build_quiver from its module when it runs.
    def build_quiver(quotient):
        raise AssertionError("Q_N was built")

    monkeypatch.setattr(mckay_quiver, "build_quiver", build_quiver)
    assert cli.main(argv.split()) == 2
    assert capsys.readouterr().err == f"error: {message}\n"


@pytest.mark.parametrize(
    "argv, n",
    [("classify --basis 21,0;0,21 --kind D", 441), ("unskew-roundtrip --basis 63,51;0,3", 189)],
)
def test_coset_reductions_stay_linear(monkeypatch, capsys, argv, n):
    # Vertices are numbered once, and every later stage reads the head
    # table and the permutations, so reductions stay a small multiple of n.
    # Turning cosets back into indices at every stage took 12,982 and 4,545.
    from mckay.lattice import LatticeBasis

    original = LatticeBasis.reduce
    calls = 0

    def counting(self, x):
        nonlocal calls
        calls += 1
        return original(self, x)

    monkeypatch.setattr(LatticeBasis, "reduce", counting)
    assert cli.main(argv.split()) == 0
    capsys.readouterr()
    assert calls <= 8 * n


def test_cut_validate_canonicalises_arrow_ids(capsys):
    # A cut is its sorted, duplicate-free arrow indices, whatever order the
    # ids are given in; an index outside range(3n) is refused.
    canonical = run(capsys, "cut-validate", "--basis", "3,0;0,3", "--arrow-ids", "0,4,8")
    shuffled = run(capsys, "cut-validate", "--basis", "3,0;0,3", "--arrow-ids", "8,0,4,0")
    assert canonical[0] == 0
    assert shuffled == canonical
    assert cli.main(["cut-validate", "--basis", "3,0;0,3", "--arrow-ids", "-1"]) == 2
    assert capsys.readouterr().err == "error: arrow ids [-1] do not exist\n"


def test_oracle_compare_flags_discrepancy(capsys, monkeypatch):
    # force a wrong prediction to confirm the discrepancy exit path; the
    # command reads cut_exists from its module when it runs
    monkeypatch.setattr(cuts, "cut_exists", lambda basis, gamma: False)
    code, doc = run_json(capsys, "oracle-compare", "--max-det", "3")
    assert code == 5
    assert doc["discrepancies"]


def test_exit_code_invalid_spec(capsys):
    assert cli.main(["quiver", "--basis", "abc"]) == 2
    assert cli.main(["quiver", "--basis", "2,4;1,2"]) == 2  # singular
    assert cli.main(["quiver"]) == 2  # missing required argument
    assert cli.main(["cut-exists", "--basis", "3,0;0,3", "--gamma", "1,2"]) == 2
    assert cli.main(["cut-enumerate", "--basis", "10,0;0,1"]) == 2  # too large
    capsys.readouterr()


def test_exit_code_precondition(capsys):
    assert cli.main(["skew", "--basis", "5,1;0,1", "--kind", "C"]) == 3
    assert cli.main(["unskew-roundtrip", "--basis", "2,0;0,2"]) == 3
    assert cli.main(["cut-build", "--basis", "3,0;0,3", "--gamma", "1,4,4"]) == 3
    assert cli.main(["skew", "--basis", "7,3;0,1", "--kind", "D"]) == 3
    capsys.readouterr()


def test_exit_code_closure_guard(capsys, monkeypatch):
    monkeypatch.setenv("MCKAY_MAX_CLOSURE", "5")
    assert cli.main(["group-info", "--basis", "3,0;0,3", "--kind", "C"]) == 2
    capsys.readouterr()


# Each former error class keeps its row: its raise sites now raise the
# exception of its exit code.  NotInvariant moved from exit 4 to 3; no CLI
# path raises it.
FOLDED_ERRORS = [
    ("SingularMatrix", ValueError, 2),
    ("GeneratorNotSpecialLinear", ValueError, 2),
    ("ExplosionGuard", ValueError, 2),
    ("TooLarge", ValueError, 2),
    ("NotAdmissible", errors.PreconditionFailed, 3),
    ("CriterionFailed", errors.PreconditionFailed, 3),
    ("NotDivisible", errors.PreconditionFailed, 3),
    ("Divisible", errors.PreconditionFailed, 3),
    ("DecompositionFailure", errors.PreconditionFailed, 3),
    ("NotInvariant", errors.PreconditionFailed, 3),
    ("InternalCriterionFailure", errors.InternalInvariantViolation, 4),
    ("NonIntegralMultiplicity", errors.InternalInvariantViolation, 4),
    ("MixedDegrees", errors.InternalInvariantViolation, 4),
    ("IsoSearchExhausted", errors.InternalInvariantViolation, 4),
]


@pytest.mark.parametrize(
    "error, code",
    [
        (errors.PreconditionFailed, 3),
        (errors.McKayError, 4),
        (errors.InternalInvariantViolation, 4),
        (ValueError, 2),
    ]
    + [pytest.param(error, code, id=f"{name}-{code}")
       for name, error, code in FOLDED_ERRORS],
    ids=lambda x: getattr(x, "__name__", str(x)),
)
def test_error_exit_code_table(capsys, monkeypatch, error, code):
    def fail(args):
        raise error("boom")

    monkeypatch.setitem(cli._COMMANDS, "quiver", fail)
    assert cli.main(["quiver", "--basis", "3,0;0,3"]) == code
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: boom\n"


def _over_vertex_cap(det: int, cap: int) -> str:
    return (
        f"det(B) = {det} exceeds the vertex cap of {cap}; "
        f"raise MCKAY_MAX_VERTICES if the quiver really is this large"
    )


def _over_sweep_cap(max_det: int, cap: int) -> str:
    return (
        f"--max-det {max_det} exceeds the sweep cap of {cap}; "
        f"raise MCKAY_MAX_SWEEP_DET if the sweep really is this large"
    )


# Every error argv of the golden corpus but the argparse rejection, then
# the vertex guard's refusals, each with its exit code and its exact
# one-line stderr.
STDERR_PINS = [
    ("group-info --basis 2,0;0,2 --kind D --root-order 4 --scalars 1,0,1", 3,
     "diagonal part has order 16, expected 4; the involution scalars enlarge "
     "the diagonal subgroup"),
    ("group-info --basis 6,0;0,6 --kind D --root-order 12 --scalars 1,2,3", 3,
     "diagonal part has order 144, expected 36; the involution scalars "
     "enlarge the diagonal subgroup"),
    ("quiver --basis 1,2;3", 2, "basis '1,2;3' is not a 2x2 integer matrix"),
    ("quiver --basis 2,4;1,2", 2, "generators span a rank < 2 sublattice"),
    ("group-info --basis 3,0;0,3 --kind D --format dot", 2,
     "command group-info has no DOT rendering"),
    ("cut-exists --basis 3,0;0,3 --gamma 3,3,3 --format dot", 2,
     "command cut-exists has no DOT rendering"),
    ("cut-enumerate --basis 4,0;0,4 --limit 3", 2,
     "48 arrows exceeds the enumeration guard 3"),
    ("cut-validate --basis 3,2;0,1", 2, "cut-validate needs --gamma or --arrow-ids"),
    ("cut-validate --basis 3,2;0,1 --gamma=", 2, "cannot parse gamma ''"),
    ("cut-validate --basis 3,2;0,1 --arrow-ids 0,99", 2, "arrow ids [99] do not exist"),
    ("cut-validate --basis 3,0;0,3 --arrow-ids 0,4,8 --gamma 3,3,3", 2,
     "cut-validate takes --gamma or --arrow-ids, not both"),
    ("skew --basis 2,0;0,2 --kind D --root-order 4 --scalars 1,1,1", 2,
     "scalar exponents (1, 1, 1) violate alpha*beta*gamma = -1 modulo 4"),
    ("classify --basis 2,0;0,2 --kind D --root-order 3", 2,
     "kind D needs an even root order, got 3"),
    ("skew --basis 2,0;0,2 --kind C --scalars 1,1,0", 2,
     "kind C admits no involution scalars"),
    ("classify --basis 5,1;0,1 --kind C", 3,
     "rotation condition fails: k1=5 does not divide k2^2-k2+1=1"),
    ("classify --basis 1,0;0,1 --kind D", 3, "index 1 sublattice has trivial quotient"),
    ("cut-build --basis 3,0;0,3 --gamma 1,1,7", 3, "no cut of type (1, 1, 7) exists on det 9"),
    ("unskew-roundtrip --basis 2,0;0,2", 3, "3 does not divide det(B) = 4"),
    ("unskew-roundtrip --basis 7,3;0,1", 3, "3 does not divide det(B) = 7"),
    ("quiver --basis 99999999999,0;0,1", 2, _over_vertex_cap(99999999999, 100000)),
    ("skew --basis 159601,400;0,1 --kind C", 2, _over_vertex_cap(159601, 100000)),
    ("classify --basis 159601,400;0,1 --kind C", 2, _over_vertex_cap(159601, 100000)),
    ("oracle-compare --max-det 100000", 2, _over_sweep_cap(100000, 100)),
]


@pytest.mark.parametrize("argv, code, message", STDERR_PINS, ids=[p[0] for p in STDERR_PINS])
def test_error_stderr_is_pinned(capsys, argv, code, message):
    assert cli.main(argv.split()) == code
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {message}\n"


def test_vertex_guard_env_override(capsys, monkeypatch):
    # The cap admits det(B) up to its value and refuses one vertex more.
    monkeypatch.setenv("MCKAY_MAX_VERTICES", "8")
    assert cli.main(["quiver", "--basis", "3,0;0,3"]) == 2
    assert capsys.readouterr().err == f"error: {_over_vertex_cap(9, 8)}\n"
    monkeypatch.setenv("MCKAY_MAX_VERTICES", "9")
    assert cli.main(["quiver", "--basis", "3,0;0,3"]) == 0
    capsys.readouterr()


def test_sweep_cap_refuses_before_any_basis(capsys, monkeypatch):
    # The cap admits --max-det up to its value; above it the command exits
    # 2 before admissible_bases runs.
    def refuse(max_det, kind):
        raise AssertionError("a basis was built")

    monkeypatch.setenv("MCKAY_MAX_SWEEP_DET", "5")
    with monkeypatch.context() as m:
        m.setattr(lattice, "admissible_bases", refuse)
        assert cli.main(["oracle-compare", "--max-det", "6"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {_over_sweep_cap(6, 5)}\n"
    code, doc = run_json(capsys, "oracle-compare", "--max-det", "5")
    assert code == 0 and doc["max_det"] == 5


@pytest.mark.parametrize("command", ["group-info", "skew", "classify"])
@pytest.mark.parametrize("root_order", ["0", "-2"])
def test_non_positive_root_order_exits_2(capsys, command, root_order):
    argv = [command, "--basis", "2,0;0,2", "--kind", "D", "--root-order", root_order]
    assert cli.main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: root order must be positive, got {root_order}\n"


@pytest.mark.parametrize("kind", ["A", "C"])
def test_group_info_rejects_scalars_outside_kind_d(capsys, kind):
    argv = ["group-info", "--basis", "2,0;0,2", "--kind", kind, "--scalars", "1,1,0"]
    assert cli.main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: kind {kind} admits no involution scalars\n"


@pytest.mark.parametrize("command", ["group-info", "skew", "classify"])
def test_every_command_checks_the_scalars_in_one_order(capsys, command):
    # Two faults, scalars on kind C and a root order of 0: every command
    # names the first of them.
    argv = [command, "--basis", "2,0;0,2", "--kind", "C", "--root-order", "0",
            "--scalars", "1,1,0"]
    assert cli.main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: kind C admits no involution scalars\n"


@pytest.mark.parametrize("command", ["group-info", "skew", "classify"])
def test_unparsable_scalars_exit_2_before_admissibility(capsys, command):
    # 5,1;0,1 fails the rotation condition (exit 3), but the scalars are
    # parsed first, so every command refuses them as an invalid spec; an
    # empty value is a value too, not the absence of one.
    for scalars in ("x", ""):
        argv = [command, "--basis", "5,1;0,1", "--kind", "D", "--scalars", scalars]
        assert cli.main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: cannot parse scalars {scalars!r}\n"


def test_help_exits_zero(capsys):
    with_help = cli.main(["--help"])
    assert with_help == 0
    capsys.readouterr()


_COUNTED = ("build_quiver", "k_action", "check_admissible", "validate_cut")


@pytest.mark.parametrize(
    "argv, expected",
    [
        (("classify", "--basis", "3,0;0,3", "--kind", "C"), (1, 1, 1, 1)),
        (("classify", "--basis", "3,0;0,3", "--kind", "D"), (1, 1, 1, 1)),
        (("classify", "--basis", "7,3;0,1", "--kind", "C"), (1, 1, 1, 0)),
        (("classify", "--basis", "2,0;0,2", "--kind", "D"), (1, 1, 1, 0)),
        (("skew", "--basis", "3,0;0,3", "--kind", "D"), (1, 1, 1, 0)),
        (("unskew-roundtrip", "--basis", "3,0;0,3"), (1, 1, 1, 1)),
        (("cut-build", "--basis", "3,2;0,1", "--gamma", "1,1,1"), (1, 0, 0, 1)),
        (("cut-validate", "--basis", "3,2;0,1", "--gamma", "1,1,1"), (1, 0, 0, 1)),
    ],
)
def test_each_command_builds_the_quiver_and_action_once(monkeypatch, capsys, argv, expected):
    # Count calls wherever callers look the functions up: every mckay
    # module namespace that holds one of them.
    originals = {
        "build_quiver": mckay_quiver.build_quiver,
        "k_action": mckay_quiver.k_action,
        "check_admissible": lattice.check_admissible,
        "validate_cut": cuts.validate_cut,
    }
    counts = dict.fromkeys(_COUNTED, 0)

    def counting(name):
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return originals[name](*args, **kwargs)
        return wrapper

    wrappers = {name: counting(name) for name in _COUNTED}
    for modname, mod in list(sys.modules.items()):
        if modname != "mckay" and not modname.startswith("mckay."):
            continue
        for name in _COUNTED:
            if getattr(mod, name, None) is originals[name]:
                monkeypatch.setattr(mod, name, wrappers[name])
    assert cli.main(list(argv)) == 0
    capsys.readouterr()
    assert tuple(counts[name] for name in _COUNTED) == expected


def _count_quiver_builds(monkeypatch) -> list:
    """Wrap build_quiver wherever a mckay module looks it up; the returned
    list collects the quotient of every call."""
    original = mckay_quiver.build_quiver
    calls = []

    def counting(quotient):
        calls.append(quotient)
        return original(quotient)

    for modname, mod in list(sys.modules.items()):
        if modname.startswith("mckay") and getattr(mod, "build_quiver", None) is original:
            monkeypatch.setattr(mod, "build_quiver", counting)
    return calls


@pytest.mark.parametrize("command", ["cut-build", "cut-validate"])
def test_a_refused_gamma_never_builds_the_quiver(monkeypatch, capsys, command):
    # The criterion reads only the basis, so Q_N (40,000 vertices here)
    # is never built for a gamma it refuses.
    calls = _count_quiver_builds(monkeypatch)
    argv = [command, "--basis", "200,0;0,200", "--gamma", "1,1,1"]
    assert cli.main(argv) == 3
    assert capsys.readouterr().err == "error: no cut of type (1, 1, 1) exists on det 40000\n"
    assert calls == []


_NOT_FACTORED = (
    "basis ((200, 0), (0, 201)) does not factor as [[k1*c, k2*c], [0, c]]: "
    "c=201 does not divide both 200 and 0"
)


_REFUSED_BASES = [
    (("classify", "--basis", "200,0;0,201", "--kind", "C"), _NOT_FACTORED),
    (("skew", "--basis", "200,0;0,201", "--kind", "D"), _NOT_FACTORED),
    (("unskew-roundtrip", "--basis", "200,0;0,201"), _NOT_FACTORED),
    (("unskew-roundtrip", "--basis", "200,0;0,200"), "3 does not divide det(B) = 40000"),
]


@pytest.mark.parametrize(
    "argv, message", _REFUSED_BASES, ids=[" ".join(argv) for argv, _ in _REFUSED_BASES]
)
def test_a_refused_basis_never_builds_the_quiver(monkeypatch, capsys, argv, message):
    # Admissibility and, for the round trip, 3 | det(B) read only the
    # basis, so Q_N (about 40,000 vertices here) is never built.
    calls = _count_quiver_builds(monkeypatch)
    assert cli.main(list(argv)) == 3
    assert capsys.readouterr().err == f"error: {message}\n"
    assert calls == []


# Bases of det <= 64: admissible ones, upper triangular ones with b in any
# residue, small full matrices (singular ones too) and unparsable text.
_ADMISSIBLE = sorted({f"{b.a},{b.b};0,{b.c}" for kind in "CD" for b in admissible_bases(64, kind)})


@st.composite
def _triangular(draw):
    a = draw(st.integers(1, 64))
    return f"{a},{draw(st.integers(-a, 2 * a))};0,{draw(st.integers(1, 64 // a))}"


_BASIS = (
    st.sampled_from(_ADMISSIBLE)
    | _triangular()
    | st.lists(st.integers(-5, 5), min_size=4, max_size=4).map(lambda e: "{},{};{},{}".format(*e))
    | st.sampled_from(["", "1,2", "1,2;3", "a,b;c,d", "1.5,0;0,2", "3,0;0,3;1,1"])
)


def _csv(values) -> str:
    return ",".join(map(str, values))


def _small(lo: int, hi: int):
    return st.integers(lo, hi).map(str) | st.sampled_from(["", "x", "1.5"])


_TRIPLE = st.lists(st.integers(-3, 24), min_size=3, max_size=3).map(_csv) | st.sampled_from(
    ["", "1,2", "x,1,1", "1,,2", "1,2,3,4"]
)
_OPTIONS = {
    "--basis": _BASIS,
    "--format": st.sampled_from(["json", "dot", "text"]),
    "--kind": st.sampled_from(["A", "C", "D"]),
    "--root-order": _small(-1, 12),
    "--scalars": _TRIPLE,
    "--gamma": _TRIPLE,
    "--arrow-ids": st.lists(st.integers(-2, 40), max_size=6).map(_csv) | st.just("1,,2"),
    "--limit": _small(-1, 30),
    "--max-det": _small(-1, 12),
}
_FLAGS = {
    "group-info": ["--basis", "--format", "--kind", "--root-order", "--scalars"],
    "quiver": ["--basis", "--format"],
    "cut-exists": ["--basis", "--format", "--gamma"],
    "cut-build": ["--basis", "--format", "--gamma"],
    "cut-validate": ["--basis", "--format", "--gamma", "--arrow-ids"],
    "cut-enumerate": ["--basis", "--format", "--limit"],
    "skew": ["--basis", "--format", "--kind", "--root-order", "--scalars"],
    "classify": ["--basis", "--format", "--kind", "--root-order", "--scalars"],
    "unskew-roundtrip": ["--basis", "--format"],
    "oracle-compare": ["--format", "--max-det", "--kind"],
}


@st.composite
def _argvs(draw):
    """A command with each of its options, mostly present, and now and then
    an option it does not take."""
    command = draw(st.sampled_from(sorted(_FLAGS)))
    flags = [f for f in _FLAGS[command] if draw(st.integers(0, 5))]
    if not draw(st.integers(0, 9)):
        flags.append(draw(st.sampled_from(sorted(_OPTIONS))))
    argv = [command]
    for flag in flags:
        argv += [flag, draw(_OPTIONS[flag])]
    return argv


@settings(max_examples=200, deadline=None)
@given(_argvs())
def test_every_argv_ends_in_a_documented_exit_code(argv):
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = cli.main(argv)
    out, err = out.getvalue(), err.getvalue()
    assert code in (0, 2, 3, 4, 5), (argv, code)
    assert "Traceback" not in err
    if err.startswith("usage: "):  # argparse refused the argv
        assert code == 2 and out == "", argv
    elif code in (2, 3, 4):
        assert out == "" and err.startswith("error: ") and err.count("\n") == 1, (argv, err)
    else:  # the document, with exit 5 for an oracle discrepancy
        assert err == ""
        formats = [value for flag, value in zip(argv, argv[1:]) if flag == "--format"]
        fmt = formats[-1] if formats else "json"
        if fmt == "json":
            assert json.loads(out)["command"] == argv[0]
        elif fmt == "dot":
            assert out.startswith("digraph")
        else:
            assert out.startswith(f"command: {argv[0]}\n")


def _reference_parser():
    """The parser as it was built before `_build_parser` took the command:
    every subparser with -h and all its options, from the same specs."""
    parser = argparse.ArgumentParser(
        prog="mckay",
        description="Exact McKay quivers, cuts and skew-group quivers for "
        "monomial subgroups of SL(3).",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (_, help_text, kinds, options) in cli._SPECS.items():
        p = sub.add_parser(name, help=help_text)
        if name != "oracle-compare":
            p.add_argument(
                "--basis",
                "-B",
                required=True,
                help="2x2 integer matrix, row-major, e.g. '3,2;0,1'",
            )
        p.add_argument(
            "--format",
            choices=("json", "dot", "text"),
            default="json",
            help="output format (default json)",
        )
        if kinds:
            p.add_argument("--kind", choices=kinds, required=True)
            p.add_argument("--root-order", type=int, default=None)
            p.add_argument("--scalars", default=None, help="p,q,s exponents for kind D")
        for flag, settings_ in options.items():
            p.add_argument(flag, **settings_)
    return parser


class _Parsed(Exception):
    """Raised in place of running a job, with the Namespace main parsed."""


def _parse_outcome(parse, argv):
    """What parse(argv) returns or raises as _Parsed, or its SystemExit
    code as main returns it, with what it printed; COLUMNS is fixed so help
    and usage wrap alike."""
    out, err = io.StringIO(), io.StringIO()
    with mock.patch.dict(os.environ, {"COLUMNS": "80"}), redirect_stdout(out), redirect_stderr(err):
        try:
            result = parse(argv)
        except SystemExit as e:
            result = ("exit", 0 if not e.code else 2)
        except _Parsed as parsed:
            result = parsed.args[0]
    return result, out.getvalue(), err.getvalue()


def _stop(args):
    raise _Parsed(args)


def _assert_parsed_as_the_reference(argv):
    """Both the parser of the argv's first token not starting with '-' and
    main, stopped before the job runs, parse as the full parser does."""
    expected = _parse_outcome(_reference_parser().parse_args, argv)
    command = next((a for a in argv if not a.startswith("-")), None)
    assert _parse_outcome(cli._build_parser(command).parse_args, argv) == expected, argv
    with mock.patch.object(cli, "run", _stop):
        assert _parse_outcome(lambda a: ("exit", cli.main(a)), argv) == expected, argv


_EDGE_ARGVS = [
    [],
    ["-h"],
    ["--help"],
    ["--he"],
    ["frobnicate"],
    ["frobnicate", "--basis", "3,0;0,3"],
    ["-"],
    ["-5"],
    ["-5", "quiver", "--basis", "3,0;0,3"],
    ["-x y", "quiver", "--basis", "3,0;0,3"],
    ["--", "quiver", "--basis", "3,0;0,3"],
    ["--", "--basis", "3,0;0,3", "quiver"],
    ["--basis", "3,0;0,3", "quiver"],
    ["-B", "3,0;0,3", "quiver"],
    ["--bogus", "quiver", "--basis", "3,0;0,3"],
    ["-h", "quiver"],
    ["quiver", "skew", "--basis", "3,0;0,3"],
    ["quiver", "--bas", "3,0;0,3"],
    ["quiver", "--basis=3,0;0,3", "--format=dot"],
    ["quiver", "-B3,0;0,3"],
    ["quiver", "--basis", "3,0;0,3", "--", "x"],
    ["skew", "--basis", "3,0;0,3", "--kind", "A"],
    ["skew", "--basis", "-1,0;0,3", "--kind", "C"],
    ["cut-enumerate", "--basis", "1,0;0,1", "--limit", "x"],
    ["oracle-compare", "--max-det", "-3", "--kind", "D"],
    ["cut-build", "--arrow-ids", "1", "--basis", "3,0;0,3", "--gamma", "1,1,1"],
]
_EDGE_ARGVS += [
    [name, *tail]
    for name in cli._SPECS
    for tail in (
        [], ["-h"], ["--help"], ["--bogus"], ["--format", "svg"], ["--basis", "3,0;0,3"],
        # an extra token, which the full parser reports, and argvs on which
        # the command's own parser stops first
        ["--basis", "3,0;0,3", "extra"], ["--", "--basis", "3,0;0,3"],
        ["-h", "--bogus"], ["--bogus", "-h"],
    )
]


@pytest.mark.parametrize("argv", _EDGE_ARGVS, ids=" ".join)
def test_the_parser_decides_edge_argvs_as_the_full_parser(argv):
    _assert_parsed_as_the_reference(argv)


_TOKENS = st.sampled_from(
    [*_FLAGS, *_OPTIONS, "-h", "--help", "-B", "--bas", "-", "--", "-5", "-x y",
     "--kind=C", "--basis=3,0;0,3", "3,0;0,3", "3,2;0,1", "C", "D", "dot", "1,1,1", "x", ""]
)


@settings(max_examples=300, deadline=None)
@given(_argvs() | st.lists(_TOKENS, max_size=7))
def test_the_parser_decides_random_argvs_as_the_full_parser(argv):
    _assert_parsed_as_the_reference(argv)


class _CountingParser(argparse.ArgumentParser):
    """An ArgumentParser that counts the instances made, subparsers included."""

    built = 0

    def __init__(self, *args, **kwargs):
        _CountingParser.built += 1
        super().__init__(*args, **kwargs)


def _count_parsers(monkeypatch, argv):
    """main(argv) stopped before the job runs, as _parse_outcome gives it,
    and the number of parsers it built."""
    stand_in = types.SimpleNamespace(ArgumentParser=_CountingParser, Namespace=argparse.Namespace)
    monkeypatch.setattr(cli, "argparse", stand_in)
    monkeypatch.setattr(_CountingParser, "built", 0)
    with mock.patch.object(cli, "run", _stop):
        outcome = _parse_outcome(lambda a: ("exit", cli.main(a)), argv)
    return outcome, _CountingParser.built


@pytest.mark.parametrize("argv", [
    ["group-info", "--basis", "3,0;0,3", "--kind", "A", "--format", "text"],
    ["quiver", "-B", "3,2;0,1"],
    ["cut-exists", "--basis", "3,0;0,3", "--gamma", "1,1,1"],
    ["cut-build", "--gamma", "1,1,1", "--basis", "3,2;0,1", "--format", "dot"],
    ["cut-validate", "--basis", "3,2;0,1", "--arrow-ids", "6,7,8"],
    ["cut-enumerate", "--basis", "3,0;0,3", "--limit", "5"],
    ["skew", "--basis", "3,0;0,3", "--kind", "D", "--root-order", "4", "--scalars", "1,0,1"],
    ["classify", "--basis=2,0;0,2", "--kind=C"],
    ["unskew-roundtrip", "--basis", "3,0;0,3", "--basis", "6,0;0,6"],
    ["oracle-compare", "--max-det", "6", "--kind", "D"],
], ids=" ".join)
def test_a_command_argv_builds_one_parser(monkeypatch, argv):
    expected = _reference_parser().parse_args(argv)
    (args, out, err), built = _count_parsers(monkeypatch, argv)
    assert built == 1 and (out, err) == ("", "")
    assert isinstance(args, argparse.Namespace) and args == expected


@pytest.mark.parametrize("argv, code, text, built", [
    (["-h"], 0, "Exact McKay quivers", 11),
    (["frobnicate"], 2, "invalid choice: 'frobnicate'", 11),
    (["quiver", "--basis", "3,0;0,3", "extra"], 2, "unrecognized arguments: extra", 12),
], ids=["help", "invalid choice", "extras"])
def test_the_full_parser_still_prints_the_top_level_text(monkeypatch, argv, code, text, built):
    # Only these build the full parser, the last after its command's own
    # parser left an extra token; help goes to stdout, errors to stderr.
    (result, out, err), count = _count_parsers(monkeypatch, argv)
    printed, silent = (out, err) if code == 0 else (err, out)
    assert result == ("exit", code) and count == built and silent == ""
    assert printed.startswith("usage: mckay [-h]\n") and text in printed


def test_main_reads_sys_argv(capsys, monkeypatch):
    # Without argv, main parses sys.argv[1:] as a fresh mckay process does.
    monkeypatch.setattr(sys, "argv", ["mckay", "quiver", "--basis", "3,2;0,1"])
    assert cli.main() == 0
    out = capsys.readouterr().out
    digest = "a07ad7bfb1b39ad59bf0ab5fd05e00167441ace114a87e4a95f0c2ad25ae07f4"
    assert hashlib.sha256(out.encode()).hexdigest() == digest
    monkeypatch.setattr(sys, "argv", ["mckay", "frobnicate"])
    assert cli.main() == 2
    captured = capsys.readouterr()
    assert captured.out == "" and "invalid choice: 'frobnicate'" in captured.err
