"""Command-line interface with deterministic JSON, DOT and text output.

Exit codes: 0 success; 2 invalid input, any ValueError (bad arguments,
singular basis, scalar constraints violated, size guards); 3
PreconditionFailed (inadmissible basis, missing cut, wrong divisibility);
4 InternalInvariantViolation; 5 oracle discrepancy.
"""
from __future__ import annotations

import argparse
import json
import sys
from typing import Sequence

from .cuts import (
    Cut,
    ValidationReport,
    build_cut,
    check_cut_exists,
    cut_exists,
    cut_type,
    enumerate_cuts,
    invariant_cut,
    realized_types,
    symmetric_type,
    validate_cut,
    DEFAULT_ENUMERATION_LIMIT,
)
from .errors import InternalInvariantViolation, McKayError
from .lattice import (
    AbelianQuotient,
    LatticeBasis,
    admissible_bases,
    check_admissible,
    hermite_normal_form,
    is_admissible,
)
from .mckay_quiver import (
    QuiverAction,
    TypedQuiver,
    build_quiver,
    k_action,
)
from .monomial_group import (
    Key,
    conjugacy_classes,
    diagonal_subgroup,
    group_from_basis,
    semidirect_check,
)
from .skew import loop_witness, skew_quiver, transport_cut, unskew_round_trip

__all__ = ["main", "run"]

EXIT_OK = 0
EXIT_INVALID = 2
EXIT_DISCREPANCY = 5


def _parse_basis(text: str) -> LatticeBasis:
    try:
        rows = [
            [int(x) for x in row.split(",")] for row in text.strip().split(";")
        ]
    except ValueError:
        raise ValueError(f"cannot parse basis {text!r}; expected 'a,b;c,d'") from None
    if len(rows) != 2 or any(len(r) != 2 for r in rows):
        raise ValueError(f"basis {text!r} is not a 2x2 integer matrix")
    return hermite_normal_form([(rows[0][0], rows[1][0]), (rows[0][1], rows[1][1])])


def _parse_triple(text: str, what: str) -> tuple[int, int, int]:
    try:
        parts = tuple(int(x) for x in text.strip().split(","))
    except ValueError:
        raise ValueError(f"cannot parse {what} {text!r}") from None
    if len(parts) != 3:
        raise ValueError(f"{what} needs exactly three integers, got {text!r}")
    return parts  # type: ignore[return-value]


def _coset_label(v: tuple[int, int]) -> str:
    return f"({v[0]},{v[1]})"


def _element_doc(key: Key) -> dict:
    perm, exps = key
    return {"perm": list(perm), "exps": list(exps)}


def _metadata(basis: LatticeBasis, **extra) -> dict:
    meta = {
        "basis": [list(r) for r in basis.rows],
        "det": basis.det,
        "invariant_factors": list(basis.smith_invariants()),
    }
    meta.update({k: v for k, v in extra.items() if v is not None})
    return meta


def _quiver_doc(q: TypedQuiver, cut: Cut | None = None) -> dict:
    vertices = [
        {"id": i, "label": _coset_label(v), "dimension": 1}
        for i, v in enumerate(q.vertices)
    ]
    arrows = [
        {
            "id": i,
            "source": i // 3,
            "target": w,
            "type": i % 3 + 1,
            "degree": cut.degree(i) if cut is not None else None,
        }
        for i, w in enumerate(q.head)
    ]
    return {"vertices": vertices, "arrows": arrows}


def _skew_doc(s, q: TypedQuiver) -> dict:
    """The skew quiver's document; orbit representatives are named by their
    cosets in q."""
    vertices = [
        {
            "id": i,
            "label": f"{_coset_label(q.vertices[v.orbit_rep])}/{v.irrep}",
            "irrep": v.irrep,
            "orbit_rep": list(q.vertices[v.orbit_rep]),
            "orbit_size": v.orbit_size,
            "dimension": v.dimension,
        }
        for i, v in enumerate(s.vertices)
    ]
    arrows = []
    for k, ((i, j), m) in enumerate(sorted(s.mult.items())):
        arrows.append(
            {
                "id": k,
                "source": i,
                "target": j,
                "mult": m,
                "degree": None if s.degrees is None else s.degrees.get((i, j)),
            }
        )
    loops = [{"vertex": i, "mult": m} for i, m in s.loops()]
    return {
        "vertices": vertices,
        "arrows": arrows,
        "loops": loops,
        "group_order": s.group_size,
    }


def _validation_doc(report: ValidationReport) -> dict:
    return {
        "squares_balanced": report.squares_balanced,
        "cycles_unit_degree": report.cycles_unit_degree,
        "degree_zero_acyclic": report.degree_zero_acyclic,
        "passed": report.passed,
        "witnesses": list(report.witnesses),
    }


# ---------------------------------------------------------------------------
# Command implementations.  Each returns a JSON-serializable document.


def _cmd_group_info(args) -> dict:
    basis = _parse_basis(args.basis)
    kind = args.kind
    scalars = _parse_triple(args.scalars, "scalars") if args.scalars else None
    if kind in ("C", "D"):
        check_admissible(basis, kind)
    group = group_from_basis(basis, kind, root_order=args.root_order, scalars=scalars)
    # semidirect_check runs the normality check of N itself.
    report = semidirect_check(group, kind) if kind in ("C", "D") else None
    diag_order = (
        report.diagonal_order if report is not None else diagonal_subgroup(group).order
    )
    classes = conjugacy_classes(group)
    doc = {
        "metadata": _metadata(
            basis,
            kind=kind,
            root_order=group.root_order,
            scalars=list(scalars) if scalars else None,
        ),
        "group": {
            "order": group.order,
            "diagonal_order": diag_order,
            "class_count": len(classes),
            "class_sizes": sorted(len(c) for c in classes),
            "generators": [_element_doc(g) for g in group.generator_keys],
        },
    }
    if report is not None:
        comp = {
            "order": report.complement.order,
            "elements": [_element_doc(g) for g in report.complement.keys],
        }
        if report.i1 is not None:
            comp["i1"] = _element_doc(report.i1)
            comp["i2"] = _element_doc(report.i2)
            comp["t_diagonal_factor"] = _element_doc(report.t_factorization[0])
            comp["r_diagonal_factor"] = _element_doc(report.r_factorization[0])
        doc["group"]["complement"] = comp
    return doc


def _cmd_quiver(args) -> dict:
    basis = _parse_basis(args.basis)
    q = build_quiver(AbelianQuotient(basis))
    doc = {
        "metadata": _metadata(basis),
        "cycle_count": len(q.constraint_tables[1]),
        "square_count": len(q.constraint_tables[2]),
    }
    doc.update(_quiver_doc(q))
    return doc


def _cmd_cut_exists(args) -> dict:
    basis = _parse_basis(args.basis)
    gamma = _parse_triple(args.gamma, "gamma")
    return {
        "metadata": _metadata(basis),
        "gamma": list(gamma),
        "verdict": cut_exists(basis, gamma),
    }


def _cut_doc(basis: LatticeBasis, q: TypedQuiver, cut: Cut) -> dict:
    return {
        "metadata": _metadata(basis),
        "cut": {"arrow_ids": list(cut.arrows), "type": list(cut_type(cut))},
        "validation": _validation_doc(validate_cut(q, cut)),
        **_quiver_doc(q, cut),
    }


def _gamma_cut_doc(basis: LatticeBasis, gamma_text: str) -> dict:
    """The cut of type gamma; the criterion is decided before Q_N is built."""
    gamma = _parse_triple(gamma_text, "gamma")
    check_cut_exists(basis, gamma)
    q = build_quiver(AbelianQuotient(basis))
    return _cut_doc(basis, q, build_cut(q, gamma))


def _cmd_cut_build(args) -> dict:
    # cut-validate --gamma, with the validation nested under the cut
    doc = _gamma_cut_doc(_parse_basis(args.basis), args.gamma)
    doc["cut"]["validation"] = doc.pop("validation")
    return doc


def _cmd_cut_validate(args) -> dict:
    basis = _parse_basis(args.basis)
    if args.arrow_ids is None:
        if not args.gamma:
            raise ValueError("cut-validate needs --gamma or --arrow-ids")
        return _gamma_cut_doc(basis, args.gamma)
    q = build_quiver(AbelianQuotient(basis))
    try:
        cut = Cut.of(int(x) for x in args.arrow_ids.split(",") if args.arrow_ids)
    except ValueError:
        raise ValueError(f"cannot parse arrow ids {args.arrow_ids!r}") from None
    missing = [i for i in cut.arrows if not 0 <= i < len(q.head)]
    if missing:
        raise ValueError(f"arrow ids {missing} do not exist")
    return _cut_doc(basis, q, cut)


def _cmd_cut_enumerate(args) -> dict:
    basis = _parse_basis(args.basis)
    q = build_quiver(AbelianQuotient(basis))
    cuts = enumerate_cuts(q, limit=args.limit)
    return {
        "metadata": _metadata(basis),
        "count": len(cuts),
        "cuts": [
            {
                "arrow_ids": list(c.arrows),
                "type": list(cut_type(c)),
            }
            for c in cuts
        ],
        "realized_types": sorted(list(t) for t in {cut_type(c) for c in cuts}),
    }


def _refuse_inadmissible(basis: LatticeBasis, kind: str) -> None:
    """Decide admissibility from the basis alone, before Q_N is built;
    when it holds, k_action checks it again on the quiver's basis."""
    if basis.det < 2 or not is_admissible(basis, kind):
        check_admissible(basis, kind)


def _build_action(args, basis: LatticeBasis) -> QuiverAction:
    scalars = _parse_triple(args.scalars, "scalars") if args.scalars else None
    _refuse_inadmissible(basis, args.kind)
    q = build_quiver(AbelianQuotient(basis))
    return k_action(q, args.kind, scalars=scalars, root_order=args.root_order)


def _action_meta(act) -> dict:
    meta = {
        "kind": act.kind,
        "root_order": act.root_order,
        "scalars": list(act.scalars) if act.scalars else None,
    }
    if act.kind == "D":
        # convention: rotation acts scalar-free, the involution acts on
        # arrow types 1, 2, 3 with these root-of-unity exponents
        meta["involution_type_scalars"] = list(act.element("s").type_scalars)
    return meta


def _cmd_skew(args) -> dict:
    basis = _parse_basis(args.basis)
    act = _build_action(args, basis)
    s = skew_quiver(act)
    doc = {
        "metadata": _metadata(basis, **_action_meta(act)),
    }
    doc.update(_skew_doc(s, act.quiver))
    return doc


def _cmd_classify(args) -> dict:
    basis = _parse_basis(args.basis)
    act = _build_action(args, basis)
    n = basis.det
    doc = {
        "metadata": _metadata(basis, **_action_meta(act)),
        "divisible_by_3": n % 3 == 0,
    }
    s = skew_quiver(act)
    if n % 3 == 0:
        cut = invariant_cut(act)
        s = transport_cut(s, act, cut)
        doc["verdict"] = "cut-exists"
        doc["witness"] = {
            "invariant_cut_arrow_ids": list(cut.arrows),
            "invariant_cut_type": list(cut_type(cut)),
        }
    else:
        witness = loop_witness(act)
        if not s.loops():
            raise InternalInvariantViolation(
                "no loops on the skew quiver although 3 does not divide |N|"
            )
        doc["verdict"] = "no-cut"
        doc["witness"] = {
            "k": witness.k,
            "coset": list(witness.vertex),
            "orbit": [list(v) for v in witness.orbit],
            "orbit_size": witness.orbit_size,
            "special_c2xc2": witness.special_c2xc2,
        }
    doc.update(_skew_doc(s, act.quiver))
    return doc


def _cmd_unskew_roundtrip(args) -> dict:
    basis = _parse_basis(args.basis)
    _refuse_inadmissible(basis, "C")
    symmetric_type(basis)  # 3 | det(B), also decided before Q_N is built
    q = build_quiver(AbelianQuotient(basis))
    report = unskew_round_trip(q)
    return {
        "metadata": _metadata(basis, kind="C"),
        "skew_vertex_count": report.skew_vertex_count,
        "double_skew_vertex_count": report.double_skew_vertex_count,
        "isomorphism": list(report.isomorphism),
        "cut_recovered": report.cut_recovered,
        "original_cut_arrow_ids": list(report.original_cut.arrows),
        "recovered_cut_arrow_ids": list(report.recovered_cut.arrows),
    }


def _cmd_oracle_compare(args) -> dict:
    kind = args.kind or "C"
    cases = []
    discrepancies = []
    for basis in admissible_bases(args.max_det, kind):
        q = build_quiver(AbelianQuotient(basis))
        realized = realized_types(q, limit=max(DEFAULT_ENUMERATION_LIMIT, 3 * basis.det))
        n = basis.det
        predicted = {
            (g1, g2, n - g1 - g2)
            for g1 in range(1, n)
            for g2 in range(1, n - g1)
            if cut_exists(basis, (g1, g2, n - g1 - g2))
        }
        case = {
            "basis": [list(r) for r in basis.rows],
            "det": n,
            "realized_types": sorted(list(t) for t in realized),
            "predicted_types": sorted(list(t) for t in predicted),
            "match": realized == predicted,
        }
        cases.append(case)
        if realized != predicted:
            discrepancies.append(case)
    return {
        "max_det": args.max_det,
        "kind": kind,
        "cases": cases,
        "discrepancies": discrepancies,
    }


# ---------------------------------------------------------------------------
# Rendering.


def _to_json(doc: dict) -> str:
    return json.dumps(doc, sort_keys=True, indent=2) + "\n"


def _to_dot(doc: dict) -> str:
    if "vertices" not in doc or "arrows" not in doc:
        raise ValueError(f"command {doc.get('command')} has no DOT rendering")
    lines = ["digraph mckay {", "  rankdir=LR;"]
    for v in doc["vertices"]:
        label = v.get("label", str(v["id"]))
        if v.get("dimension", 1) != 1:
            label += f" [{v['dimension']}]"
        lines.append(f'  v{v["id"]} [label="{label}"];')
    for a in doc["arrows"]:
        attrs = []
        if "type" in a and a.get("type") is not None:
            attrs.append(f'label="{a["type"]}"')
        elif "mult" in a:
            attrs.append(f'label="x{a["mult"]}"')
        degree = a.get("degree")
        attrs.append("style=dashed" if degree == 1 else "style=solid")
        lines.append(
            f'  v{a["source"]} -> v{a["target"]} [{", ".join(attrs)}];'
        )
    lines.append("}")
    return "\n".join(lines) + "\n"


def _to_text(doc: dict) -> str:
    lines = [f"command: {doc['command']}"]
    meta = doc.get("metadata", {})
    if meta:
        basis = meta.get("basis")
        if basis:
            lines.append(f"basis: {basis[0]} / {basis[1]}  det={meta.get('det')}")
        for key in ("kind", "root_order", "scalars"):
            if key in meta:
                lines.append(f"{key}: {meta[key]}")
    skip = {"schema", "command", "metadata", "vertices", "arrows", "cuts", "cases"}
    for key in sorted(doc):
        if key in skip:
            continue
        lines.append(f"{key}: {doc[key]}")
    if "vertices" in doc:
        lines.append(f"vertices: {len(doc['vertices'])}")
    if "arrows" in doc:
        lines.append(f"arrows: {len(doc['arrows'])}")
    if "cuts" in doc:
        for c in doc["cuts"]:
            lines.append(f"cut type={c['type']} arrows={c['arrow_ids']}")
    if "cases" in doc:
        for c in doc["cases"]:
            lines.append(
                f"basis {c['basis']} det={c['det']} match={c['match']}"
            )
    return "\n".join(lines) + "\n"


_COMMANDS = {
    "group-info": _cmd_group_info,
    "quiver": _cmd_quiver,
    "cut-exists": _cmd_cut_exists,
    "cut-build": _cmd_cut_build,
    "cut-validate": _cmd_cut_validate,
    "cut-enumerate": _cmd_cut_enumerate,
    "skew": _cmd_skew,
    "classify": _cmd_classify,
    "unskew-roundtrip": _cmd_unskew_roundtrip,
    "oracle-compare": _cmd_oracle_compare,
}


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="mckay",
        description="Exact McKay quivers, cuts and skew-group quivers for "
        "monomial subgroups of SL(3).",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, basis=True):
        if basis:
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

    def symmetry(p, kinds):
        p.add_argument("--kind", choices=kinds, required=True)
        p.add_argument("--root-order", type=int, default=None)
        p.add_argument("--scalars", default=None, help="p,q,s exponents for kind D")

    p = sub.add_parser("group-info", help="group order, classes, complement")
    common(p)
    symmetry(p, ("A", "C", "D"))

    p = sub.add_parser("quiver", help="the McKay quiver of Z^2/B")
    common(p)

    p = sub.add_parser("cut-exists", help="closed-form cut criterion")
    common(p)
    p.add_argument("--gamma", required=True, help="type vector g1,g2,g3")

    p = sub.add_parser("cut-build", help="construct the cut of a given type")
    common(p)
    p.add_argument("--gamma", required=True, help="type vector g1,g2,g3")

    p = sub.add_parser("cut-validate", help="check the weak-cut axioms")
    common(p)
    p.add_argument("--gamma", default=None, help="build and validate this type")
    p.add_argument("--arrow-ids", default=None, help="validate these arrow ids")

    p = sub.add_parser("cut-enumerate", help="exhaustively enumerate cuts")
    common(p)
    p.add_argument("--limit", type=int, default=DEFAULT_ENUMERATION_LIMIT)

    p = sub.add_parser("skew", help="the skew-group quiver Q_N * K")
    common(p)
    symmetry(p, ("C", "D"))

    p = sub.add_parser("classify", help="cut existence verdict with witness")
    common(p)
    symmetry(p, ("C", "D"))

    p = sub.add_parser("unskew-roundtrip", help="skew by C3, unskew by its dual")
    common(p)

    p = sub.add_parser("oracle-compare", help="enumeration vs criterion sweep")
    common(p, basis=False)
    p.add_argument("--max-det", type=int, default=9)
    p.add_argument("--kind", choices=("A", "C", "D"), default="C")

    return parser


def run(args: argparse.Namespace) -> tuple[dict, int]:
    """Dispatch a parsed job; returns (document, exit code)."""
    doc = _COMMANDS[args.command](args)
    doc.update(schema=1, command=args.command)
    code = EXIT_OK
    if args.command == "oracle-compare" and doc["discrepancies"]:
        code = EXIT_DISCREPANCY
    return doc, code


def main(argv: Sequence[str] | None = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as e:
        return 0 if not e.code else EXIT_INVALID
    try:
        doc, code = run(args)
        if args.format == "json":
            out = _to_json(doc)
        elif args.format == "dot":
            out = _to_dot(doc)
        else:
            out = _to_text(doc)
    except (McKayError, ValueError) as e:
        print(f"error: {e}", file=sys.stderr)
        return getattr(e, "exit_code", EXIT_INVALID)
    sys.stdout.write(out)
    return code


if __name__ == "__main__":
    sys.exit(main())
