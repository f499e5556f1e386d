"""Tests of the benchmark itself.

Run from the repository root:  python3 -m pytest -q perfbench/tests
"""
from __future__ import annotations

import contextlib
import io
import json
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import checks  # noqa: E402
import jobs  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402


def _main(args):
    import mckay.cli

    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = mckay.cli.main(list(args))
    return code, out.getvalue(), err.getvalue()


# -- decks ------------------------------------------------------------------


@pytest.mark.parametrize("workload", jobs.WORKLOADS)
def test_same_seed_same_jobs(workload):
    deck = jobs.DECKS[workload]
    assert deck(7) == deck(7)
    assert deck(7) != deck(8)


def test_catalog_covers_every_command_and_error_codes():
    deck = jobs.catalog_small(3)
    assert {j.command for j in deck} >= set(checks.CHECKS)
    assert {j.expect for j in deck} == {0, 2, 3}
    assert any(j.option("--root-order") == "0" for j in deck)


def test_closed_form_admissible_matches_library():
    from mckay.lattice import admissible_bases

    for kind in "ACD":
        got = [(b.a, b.b, b.c) for b in admissible_bases(40, kind)]
        assert got == jobs.admissible(40, kind)


# -- span arithmetic ----------------------------------------------------------


def test_self_times_on_synthetic_tree():
    # root [0, 100) with children [10, 30) and [40, 90); the second child has
    # grandchildren [50, 60) and [65, 80).
    spans = [
        ["cli.main", 0, 100, -1, 0, False],
        ["skew.skew_quiver", 10, 30, 0, 0, False],
        ["skew.unskew_round_trip", 40, 90, 0, 0, False],
        ["graphiso.find_isomorphism", 50, 60, 2, 0, False],
        ["mckay_quiver.build_quiver", 65, 80, 2, 0, True],
    ]
    assert tracing.self_times(spans) == [30, 20, 25, 10, 15]
    m = tracing.layer_metrics(spans, tracing.Counter(), job_ns=200, passes=2)
    assert m["skew.self_ms"] == pytest.approx(45 / 2 / 1e6)
    assert m["skew.self_share"] == pytest.approx(45 / 200)
    assert m["skew.calls"] == 1
    assert m["mckay_quiver.errors"] == 0.5
    assert m["cli.main.self_ms"] == pytest.approx(30 / 2 / 1e6)


def test_triples_scanned_counts_the_scan():
    for bound in (1, 2, 7, 30):
        brute = sum(
            1
            for a in range(1, bound + 1)
            for c in range(1, bound // a + 1)
            if a * c >= 2
            for _ in range(a)
        )
        assert tracing.triples_scanned(bound) == brute


def test_tracer_wraps_and_restores():
    import mckay.cli
    import mckay.skew

    original = mckay.skew.skew_quiver
    client = run.Client()
    tracer = tracing.Tracer()
    tracer.install()
    try:
        assert mckay.cli.skew_quiver is not original
        client.run(jobs.cli("classify", "--basis", "21,5;0,1", "--kind", "C"))
        client.run(jobs.Job(("admissible_bases", "20", "C"), library=True))
    finally:
        tracer.uninstall()
    assert mckay.skew.skew_quiver is original and mckay.cli.skew_quiver is original
    names = {s[0] for s in tracer.spans}
    assert {"cli.main", "skew.skew_quiver", "skew.transport_cut", "lattice.admissible_bases"} <= names
    assert not names & tracing.COUNT_ONLY
    assert tracer.counts["lattice.is_admissible.calls"] == tracing.triples_scanned(20)
    assert tracer.counts["skew.vertex_pairs"] > 0
    assert client.failed == 0


# -- checks -------------------------------------------------------------------


def _judged(job, code, out, err=""):
    client = run.Client()
    client._judge(job, code, out, err, None, None)
    return client


def test_clean_documents_pass():
    for args in (
        ("classify", "--basis", "7,3;0,1", "--kind", "C"),
        ("classify", "--basis", "6,4;0,2", "--kind", "D"),
        ("quiver", "--basis", "4,1;0,2"),
        ("unskew-roundtrip", "--basis", "3,0;0,3"),
        ("group-info", "--basis", "3,0;0,3", "--kind", "D"),
    ):
        job = jobs.cli(*args)
        code, out, err = _main(args)
        assert checks.check(job, code, out, err) is None, args


def test_flipped_verdict_counts_as_failed():
    job = jobs.cli("classify", "--basis", "7,3;0,1", "--kind", "C")
    code, out, _ = _main(job.args)
    doc = json.loads(out)
    doc["verdict"] = "cut-exists"
    client = _judged(job, code, json.dumps(doc))
    assert (client.failed, client.wrong) == (1, 1)


def _text_doc(job):
    code, out, _ = _main(job.args)
    assert checks.check(job, code, out, "") is None
    return code, out


@pytest.mark.parametrize("line, corrupted", [
    ("verdict: no-cut", "verdict: cut-exists"),
    ("divisible_by_3: False", "divisible_by_3: True"),
    ("loops: [{'vertex': 3, 'mult': 1}, {'vertex': 4, 'mult': 1}]", "loops: []"),
    ("group_order: 21", "group_order: 7"),
])
def test_corrupted_text_classify_counts_as_failed(line, corrupted):
    job = jobs.cli("classify", "--basis", "7,3;0,1", "--kind", "C", "--format", "text")
    code, out = _text_doc(job)
    assert line in out.splitlines()
    client = _judged(job, code, out.replace(line, corrupted))
    assert (client.failed, client.wrong) == (1, 1)


@pytest.mark.parametrize("args, line, corrupted", [
    (("unskew-roundtrip", "--basis", "3,0;0,3"), "cut_recovered: True", "cut_recovered: False"),
    (("unskew-roundtrip", "--basis", "3,0;0,3"), "double_skew_vertex_count: 9",
     "double_skew_vertex_count: 8"),
    (("oracle-compare", "--max-det", "5"), "discrepancies: []", "discrepancies: [1]"),
    (("oracle-compare", "--max-det", "5"), "det=4 match=True", "det=4 match=False"),
    (("quiver", "--basis", "4,1;0,2"), "arrows: 24", "arrows: 23"),
    (("cut-enumerate", "--basis", "6,2;0,1"), "count: 15", "count: 14"),
    (("cut-exists", "--basis", "3,0;0,1", "--gamma", "1,1,1"), "verdict: False", "verdict: True"),
])
def test_corrupted_text_documents_count_as_failed(args, line, corrupted):
    job = jobs.cli(*args, "--format", "text")
    code, out = _text_doc(job)
    assert line in out
    client = _judged(job, code, out.replace(line, corrupted, 1))
    assert (client.failed, client.wrong) == (1, 1)


def test_dropped_loop_counts_as_failed():
    job = jobs.cli("classify", "--basis", "7,3;0,1", "--kind", "C")
    code, out, _ = _main(job.args)
    doc = json.loads(out)
    assert doc["loops"]
    doc["loops"] = doc["loops"][1:]
    doc["arrows"] = [a for a in doc["arrows"] if a["source"] != a["target"]]
    client = _judged(job, code, json.dumps(doc))
    assert (client.failed, client.wrong) == (1, 1)


def test_wrong_exit_code_counts_as_failed():
    job = jobs.cli("quiver", "--basis", "3,0;0,3")
    code, out, _ = _main(job.args)
    assert _judged(job, 3, "", "error: x\n").failed == 1
    bad_input = jobs.cli("quiver", "--basis", "1,2;3", expect=2)
    client = _judged(bad_input, 0, out)
    assert (client.failed, client.wrong) == (1, 1)


def test_escaped_exception_and_changed_bytes_count_as_failed():
    class Crashing:
        @staticmethod
        def main(argv):
            raise ZeroDivisionError("integer modulo by zero")

    client = run.Client()
    cli, client.cli = client.cli, Crashing
    client.run(jobs.cli("group-info", "--basis", "3,0;0,3", "--kind", "D", expect=2))
    client.cli = cli
    assert (client.failed, client.wrong) == (1, 0)
    quiver = jobs.cli("quiver", "--basis", "3,0;0,3")
    code, out, err = _main(quiver.args)
    client._judge(quiver, code, out, err, None, None)
    client._judge(quiver, code, out.replace('"dimension": 1', '"dimension": 1 '), err, None, None)
    assert client.failed == 2 and client.wrong == 1


def test_tail_has_ten_samples_beyond():
    times = list(range(1, 101))
    value, pct = run.tail([t * 1_000_000 for t in times])
    assert value == 90 and pct == 90.0
