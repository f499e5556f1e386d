"""Output checks for benchmark jobs.

``check(job, code, out, err)`` returns ``None`` when the job did what its
command promises, else a one-line reason.  The invariants are the paper's,
recomputed here from the document alone (or from the closed forms in
``jobs``), so a corrupted document fails even when it parses.

Text output carries every top-level field of the JSON document as
``key: value`` (Python reprs), but only counts of the vertices and arrows.
It is parsed back (``parse_text``) and checked on every field it carries, with
the same invariants as JSON.
"""
from __future__ import annotations

import ast
import json
import re
from collections import Counter

from jobs import K_ORDER, Job, admissible, criterion, cut_types


class Bad(Exception):
    """A check failed; the message says which."""


def need(cond: bool, reason: str) -> None:
    if not cond:
        raise Bad(reason)


def check(job: Job, code: int, out: str, err: str) -> str | None:
    try:
        _check(job, code, out, err)
    except Bad as e:
        return str(e)
    except (KeyError, IndexError, TypeError, ValueError) as e:
        return f"malformed output: {type(e).__name__}: {e}"
    return None


def _check(job: Job, code: int, out: str, err: str) -> None:
    need(code == job.expect, f"exit code {code}, expected {job.expect}")
    if job.expect != 0:
        need(out == "", "error exit wrote to stdout")
        if job.command in CHECKS:
            need(err.startswith("error: ") and err.count("\n") == 1,
                 "error exit without a one-line 'error: ' message")
        return
    fmt = job.option("--format", "json")
    if fmt == "dot":
        need(out.startswith("digraph"), "DOT output does not start with 'digraph'")
        need(out.endswith("}\n") and " -> " in out, "DOT output has no edges or no closing brace")
        return
    if fmt == "text":
        doc = parse_text(out)
        need(doc.get("command") == job.command, "text output lacks its command line")
        TEXT_CHECKS[job.command](job, doc)
        return
    doc = json.loads(out)
    need(doc.get("schema") == 1 and doc.get("command") == job.command, "wrong schema or command")
    CHECKS[job.command](job, doc)


_BASIS_LINE = re.compile(r"basis: \[(-?\d+), (-?\d+)\] / \[0, (-?\d+)\]  det=(\d+)$")
_CUT_LINE = re.compile(r"cut type=(\[[\d, ]*\]) arrows=(\[[\d, ]*\])$")
_CASE_LINE = re.compile(r"basis (\[\[.*\]\]) det=(\d+) match=(True|False)$")


def parse_text(out: str) -> dict:
    """The text rendering as a document: the basis line becomes
    ``metadata``, ``vertices: N`` and ``arrows: N`` become ``vertex_count``
    and ``arrow_count``, cut and case lines become ``cuts`` and ``cases``,
    and every other ``key: value`` line a field (a Python literal where the
    value is one, else the string)."""
    doc: dict = {"metadata": {}}
    for line in out.splitlines():
        if m := _BASIS_LINE.match(line):
            a, b, c, n = map(int, m.groups())
            doc["metadata"] = {"basis": [[a, b], [0, c]], "det": n}
        elif m := _CUT_LINE.match(line):
            doc.setdefault("cuts", []).append(
                {"type": ast.literal_eval(m[1]), "arrow_ids": ast.literal_eval(m[2])})
        elif m := _CASE_LINE.match(line):
            doc.setdefault("cases", []).append(
                {"basis": ast.literal_eval(m[1]), "det": int(m[2]), "match": m[3] == "True"})
        else:
            key, sep, value = line.partition(": ")
            need(sep == ": " and key not in doc, f"unparsed text line {line[:60]!r}")
            try:
                value = ast.literal_eval(value)
            except (ValueError, SyntaxError):
                pass
            key = {"vertices": "vertex_count", "arrows": "arrow_count"}.get(key, key)
            doc[key] = value
    return doc


def _n(doc) -> int:
    return doc["metadata"]["det"]


def _basis(doc) -> tuple[int, int, int]:
    (a, b), (_, c) = doc["metadata"]["basis"]
    return a, b, c


def _check_sizes(doc) -> None:
    need(doc["vertex_count"] == _n(doc), "quiver does not have n vertices")
    need(doc["arrow_count"] == 3 * _n(doc), "quiver does not have 3n arrows")


def _check_quiver_counts(job, doc) -> None:
    n = _n(doc)
    _check_sizes(doc)
    need(doc["cycle_count"] == 2 * n, "quiver does not have 2n elementary cycles")
    need(doc["square_count"] == 3 * n, "quiver does not have 3n commutativity squares")


def _with_counts(doc) -> dict:
    return {**doc, "vertex_count": len(doc["vertices"]), "arrow_count": len(doc["arrows"])}


def _check_quiver(job, doc) -> None:
    n = _n(doc)
    _check_quiver_counts(job, _with_counts(doc))
    outs = Counter((a["source"], a["type"]) for a in doc["arrows"])
    ins = Counter((a["target"], a["type"]) for a in doc["arrows"])
    need(set(outs.values()) == {1} == set(ins.values()) and len(outs) == len(ins) == 3 * n,
         "some vertex lacks one arrow of each type in or out")


def _check_group(job, doc) -> None:
    n = _n(doc)
    kind = job.option("--kind")
    g = doc["group"]
    need(g["order"] == K_ORDER[kind] * n, "group order is not |K| * n")
    need(g["diagonal_order"] == n, "diagonal subgroup order is not n")
    need(sum(g["class_sizes"]) == g["order"], "class sizes do not sum to the order")
    need(g["class_count"] == len(g["class_sizes"]) and 1 in g["class_sizes"],
         "class count or identity class wrong")
    if kind in ("C", "D"):
        need(g["complement"]["order"] == K_ORDER[kind], "complement order is not |K|")


def _check_cut_exists(job, doc) -> None:
    gamma = tuple(doc["gamma"])
    need(doc["verdict"] is criterion(_basis(doc), gamma), "cut-exists verdict contradicts the criterion")


def _cut_ids_consistent(doc, ids) -> tuple[int, int, int]:
    types = {a["id"]: a["type"] for a in doc["arrows"]}
    ones = sorted(a["id"] for a in doc["arrows"] if a["degree"] == 1)
    need(ones == sorted(ids), "arrow degrees disagree with the cut's arrow ids")
    counts = Counter(types[i] for i in ids)
    return (counts[1], counts[2], counts[3])


def _gamma(job) -> list[int]:
    return [int(x) for x in job.option("--gamma").split(",")]


def _check_cut_ids(doc, ids) -> None:
    n = _n(doc)
    need(len(ids) == n and len(set(ids)) == n, "cut does not have n distinct arrows")
    need(all(0 <= i < 3 * n for i in ids), "cut names an arrow that does not exist")


def _check_cut_build_summary(job, doc) -> None:
    cut = doc["cut"]
    need(cut["validation"]["passed"] is True, "built cut fails validation")
    need(cut["type"] == _gamma(job), "built cut has the wrong type")
    _check_cut_ids(doc, cut["arrow_ids"])
    _check_sizes(doc)


def _check_cut_build(job, doc) -> None:
    _check_cut_build_summary(job, _with_counts(doc))
    need(list(_cut_ids_consistent(doc, doc["cut"]["arrow_ids"])) == _gamma(job),
         "cut type does not match its arrows")


def _check_cut_validate_summary(job, doc) -> None:
    v = doc["validation"]
    need(v["passed"] == (v["squares_balanced"] and v["cycles_unit_degree"] and v["degree_zero_acyclic"]),
         "validation verdict is not the conjunction of the axioms")
    need(v["passed"] or v["witnesses"], "failed validation without a witness")
    need(sum(doc["cut"]["type"]) == _n(doc), "cut type does not sum to n")
    _check_sizes(doc)
    if job.option("--gamma") is not None:
        need(v["passed"] is True and doc["cut"]["type"] == _gamma(job),
             "cut built from the criterion fails validation")
        _check_cut_ids(doc, doc["cut"]["arrow_ids"])
    else:
        need(doc["cut"]["arrow_ids"] == sorted(int(x) for x in job.option("--arrow-ids").split(",")),
             "validated arrow ids differ from the requested ones")


def _check_cut_validate(job, doc) -> None:
    _check_cut_validate_summary(job, _with_counts(doc))
    t = _cut_ids_consistent(doc, doc["cut"]["arrow_ids"])
    need(doc["cut"]["type"] == list(t), "cut type does not match its arrows")


def _check_cut_enumerate(job, doc) -> None:
    n = _n(doc)
    basis = _basis(doc)
    cuts = doc["cuts"]
    need(doc["count"] == len(cuts), "count differs from the number of cuts")
    need(len({tuple(c["arrow_ids"]) for c in cuts}) == len(cuts), "duplicate cuts")
    for c in cuts:
        need(len(c["arrow_ids"]) == n and sum(c["type"]) == n, "a cut does not have n arrows")
    realized = sorted({tuple(c["type"]) for c in cuts})
    need([list(t) for t in realized] == doc["realized_types"], "realized types disagree with the cuts")
    need(realized == sorted(cut_types(basis)), "enumerated types disagree with the closed-form criterion")


def _check_skew_summary(job, doc) -> None:
    """Fields both formats carry: group order, loops iff 3 does not divide n."""
    n = _n(doc)
    need(doc["group_order"] == K_ORDER[job.option("--kind")] * n, "skew group order is not |K| * n")
    need(all(loop["mult"] > 0 for loop in doc["loops"]), "loop with non-positive multiplicity")
    need(bool(doc["loops"]) == (n % 3 != 0), "skew quiver has loops iff 3 does not divide n: violated")


def _check_skew_quiver(job, doc) -> None:
    n = _n(doc)
    kind = job.option("--kind")
    dims = [v["dimension"] for v in doc["vertices"]]
    _check_skew_summary(job, doc)
    need(sum(d * d for d in dims) == K_ORDER[kind] * n, "dimension square sum is not |K| * n")
    out_w = [0] * len(dims)
    in_w = [0] * len(dims)
    loops = []
    for a in doc["arrows"]:
        i, j, m = a["source"], a["target"], a["mult"]
        need(m > 0, "arrow block with non-positive multiplicity")
        out_w[i] += m * dims[j]
        in_w[j] += m * dims[i]
        if i == j:
            loops.append({"vertex": i, "mult": m})
    need(all(out_w[i] == 3 * d == in_w[i] for i, d in enumerate(dims)),
         "skew quiver is not weighted 3-regular")
    need(doc["loops"] == loops, "loop list disagrees with the arrow blocks")


def _check_verdict(job, doc) -> None:
    n = _n(doc)
    need(doc["divisible_by_3"] == (n % 3 == 0), "divisible_by_3 is wrong")
    if n % 3 == 0:
        need(doc["verdict"] == "cut-exists", "verdict is not cut-exists although 3 | n")
        need(doc["witness"]["invariant_cut_type"] == [n // 3] * 3, "invariant cut type is not (n/3,)*3")
    else:
        need(doc["verdict"] == "no-cut", "verdict is not no-cut although 3 does not divide n")
        need(doc["witness"]["orbit_size"] in (3, 6), "loop witness orbit has the wrong size")


def _check_classify_summary(job, doc) -> None:
    _check_skew_summary(job, doc)
    _check_verdict(job, doc)


def _check_classify(job, doc) -> None:
    _check_skew_quiver(job, doc)
    _check_verdict(job, doc)
    if _n(doc) % 3 == 0:
        need(all(a["degree"] in (0, 1) for a in doc["arrows"]), "transported cut leaves a block ungraded")


def _check_roundtrip(job, doc) -> None:
    n = _n(doc)
    need(doc["cut_recovered"] is True, "round trip did not recover the cut")
    need(doc["double_skew_vertex_count"] == n, "double skew does not have n vertices")
    need(sorted(doc["isomorphism"]) == list(range(n)), "isomorphism is not a bijection")
    need(doc["recovered_cut_arrow_ids"] == doc["original_cut_arrow_ids"], "recovered cut differs")
    need(len(doc["original_cut_arrow_ids"]) == n, "invariant cut does not have n arrows")


def _check_oracle_summary(job, doc) -> None:
    kind = job.option("--kind", "C")
    max_det = int(job.option("--max-det", "9"))
    need(doc["discrepancies"] == [], "oracle-compare reports discrepancies")
    need(all(c["match"] is True for c in doc["cases"]), "a case does not match")
    expected = [[[a, b], [0, c]] for a, b, c in admissible(max_det, kind)]
    need(sorted(c["basis"] for c in doc["cases"]) == sorted(expected),
         "oracle-compare did not sweep exactly the admissible bases")


def _check_oracle(job, doc) -> None:
    _check_oracle_summary(job, doc)
    need(all(c["realized_types"] == c["predicted_types"] for c in doc["cases"]),
         "a case's realized types differ from the predicted ones")


CHECKS = {
    "quiver": _check_quiver,
    "group-info": _check_group,
    "cut-exists": _check_cut_exists,
    "cut-build": _check_cut_build,
    "cut-validate": _check_cut_validate,
    "cut-enumerate": _check_cut_enumerate,
    "skew": _check_skew_quiver,
    "classify": _check_classify,
    "unskew-roundtrip": _check_roundtrip,
    "oracle-compare": _check_oracle,
}

def _listing(check, key):
    """Text prints no line for an empty listing; read it as empty."""
    def text_check(job, doc):
        check(job, {key: [], **doc})
    return text_check


# Text output: the same invariants on the fields text carries.
TEXT_CHECKS = {
    "quiver": _check_quiver_counts,
    "group-info": _check_group,
    "cut-exists": _check_cut_exists,
    "cut-build": _check_cut_build_summary,
    "cut-validate": _check_cut_validate_summary,
    "cut-enumerate": _listing(_check_cut_enumerate, "cuts"),
    "skew": _check_skew_summary,
    "classify": _check_classify_summary,
    "unskew-roundtrip": _check_roundtrip,
    "oracle-compare": _listing(_check_oracle_summary, "cases"),
}


def check_bases(job: Job, result, is_admissible) -> str | None:
    """A library ``admissible_bases`` result: every basis admissible, in order,
    and exactly the closed-form set."""
    _, max_det, kind = job.args
    got = [(b.a, b.b, b.c) for b in result]
    if got != admissible(int(max_det), kind):
        return "admissible_bases differs from the closed-form set or its order"
    if not all(is_admissible(b, kind) for b in result):
        return "admissible_bases returned a basis that fails is_admissible"
    return None
