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
from operator import itemgetter
from typing import Sequence

from .cuts import (
    Cut,
    _degrees,
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
    TypedQuiver,
    build_quiver,
    k_action,
)
from .monomial_group import (
    Key,
    conjugacy_classes,
    diagonal_subgroup,
    group_from_basis,
    involution_scalars,
    semidirect_check,
)
from .skew import _transport_cut, loop_witness, skew_quiver, unskew_round_trip

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
    return {
        "basis": [list(r) for r in basis.rows],
        "det": basis.det,
        "invariant_factors": list(basis.smith_invariants()),
        **{k: v for k, v in extra.items() if v is not None},
    }


def _quiver_doc(q: TypedQuiver, cut: Cut | None = None) -> dict:
    vertices = [
        {"id": i, "label": _coset_label(v), "dimension": 1}
        for i, v in enumerate(q.vertices)
    ]
    degree = _degrees(q, cut) if cut is not None else [None] * len(q.head)
    arrows = [
        {
            "id": i,
            "source": i // 3,
            "target": w,
            "type": i % 3 + 1,
            "degree": d,
        }
        for i, (w, d) in enumerate(zip(q.head, degree))
    ]
    return {"vertices": vertices, "arrows": arrows}


def _cut_doc(cut: Cut) -> dict:
    return {"arrow_ids": list(cut.arrows), "type": list(cut_type(cut))}


def _skew_doc(s, q: TypedQuiver) -> dict:
    """The skew quiver's document; orbit representatives are named by their
    cosets in q."""
    cosets = q.vertices
    vertices = [
        {
            "id": i,
            "label": f"{_coset_label(cosets[rep])}/{irrep}",
            "irrep": irrep,
            "orbit_rep": list(cosets[rep]),
            "orbit_size": size,
            "dimension": dimension,
        }
        for i, (rep, irrep, size, dimension) in enumerate(s.vertices)
    ]
    degrees = s.degrees or {}
    arrows = [
        {"id": k, "source": i, "target": j, "mult": m, "degree": degrees.get((i, j))}
        for k, ((i, j), m) in enumerate(sorted(s.mult.items()))
    ]
    loops = [{"vertex": i, "mult": m} for i, m in s.loops()]
    return {
        "vertices": vertices,
        "arrows": arrows,
        "loops": loops,
        "group_order": s.group_size,
    }


# ---------------------------------------------------------------------------
# Command implementations.  Each returns a JSON-serializable document.


def _cmd_group_info(args) -> dict:
    basis = _parse_basis(args.basis)
    kind = args.kind
    scalars = _parse_triple(args.scalars, "scalars") if args.scalars is not None else None
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
    # Q_N has 2n elementary cycles, two per type-1 arrow, and 3n squares, three per vertex.
    return {
        "metadata": _metadata(basis),
        "cycle_count": 2 * basis.det,
        "square_count": 3 * basis.det,
        **_quiver_doc(q),
    }


def _cmd_cut_exists(args) -> dict:
    basis = _parse_basis(args.basis)
    gamma = _parse_triple(args.gamma, "gamma")
    return {
        "metadata": _metadata(basis),
        "gamma": list(gamma),
        "verdict": cut_exists(basis, gamma),
    }


def _cmd_cut_validate(args) -> dict:
    """cut-validate, and cut-build: cut-validate --gamma with the validation
    nested under the cut.  For a gamma the criterion is decided before Q_N
    is built."""
    basis = _parse_basis(args.basis)
    if args.command == "cut-build" or args.arrow_ids is None:
        if args.gamma is None:
            raise ValueError("cut-validate needs --gamma or --arrow-ids")
        gamma = _parse_triple(args.gamma, "gamma")
        check_cut_exists(basis, gamma)
        q = build_quiver(AbelianQuotient(basis))
        cut = build_cut(q, gamma)
    else:
        if args.gamma is not None:
            raise ValueError("cut-validate takes --gamma or --arrow-ids, not both")
        q = build_quiver(AbelianQuotient(basis))
        try:
            cut = Cut.of(int(x) for x in args.arrow_ids.split(",") if args.arrow_ids)
        except ValueError:
            raise ValueError(f"cannot parse arrow ids {args.arrow_ids!r}") from None
        missing = [i for i in cut.arrows if not 0 <= i < len(q.head)]
        if missing:
            raise ValueError(f"arrow ids {missing} do not exist")
    report = validate_cut(q, cut)
    validation = {
        "squares_balanced": report.squares_balanced,
        "cycles_unit_degree": report.cycles_unit_degree,
        "degree_zero_acyclic": report.degree_zero_acyclic,
        "passed": report.passed,
        "witnesses": list(report.witnesses),
    }
    doc = {
        "metadata": _metadata(basis),
        "cut": _cut_doc(cut),
        **_quiver_doc(q, cut),
    }
    if args.command == "cut-build":
        doc["cut"]["validation"] = validation
    else:
        doc["validation"] = validation
    return doc


def _cmd_cut_enumerate(args) -> dict:
    basis = _parse_basis(args.basis)
    q = build_quiver(AbelianQuotient(basis))
    cuts = enumerate_cuts(q, limit=args.limit)
    return {
        "metadata": _metadata(basis),
        "count": len(cuts),
        "cuts": [_cut_doc(c) for c in cuts],
        "realized_types": sorted(list(t) for t in {cut_type(c) for c in cuts}),
    }


def _refuse_inadmissible(basis: LatticeBasis, kind: str) -> None:
    """Decide admissibility from the basis alone, before Q_N is built;
    when it holds, k_action checks it again on the quiver's basis."""
    if basis.det < 2 or not is_admissible(basis, kind):
        check_admissible(basis, kind)


def _cmd_skew(args) -> dict:
    """skew, and classify: the skew quiver, for classify with the cut
    verdict, its witness and the invariant cut's degrees when 3 | n."""
    basis = _parse_basis(args.basis)
    scalars = _parse_triple(args.scalars, "scalars") if args.scalars is not None else None
    _refuse_inadmissible(basis, args.kind)
    # No skew multiplicity depends on the kind-D scalars (see mckay.skew),
    # so they are validated and printed here and never reach the action.
    m = args.root_order if args.root_order is not None else {"C": 1, "D": 2}[args.kind]
    exponents = involution_scalars(args.kind, m, scalars)
    meta = {"kind": args.kind, "root_order": m}
    if exponents is not None:
        ea, eb, ec = exponents
        meta["scalars"] = [ea, eb, ec]
        # convention: rotation acts scalar-free, the involution acts on
        # arrow types 1, 2, 3 by alpha*gamma^2, alpha*beta^2 and -1, given
        # here as root-of-unity exponents
        meta["involution_type_scalars"] = [(ea + 2 * ec) % m, (ea + 2 * eb) % m, m // 2]
    q = build_quiver(AbelianQuotient(basis))
    act = k_action(q, args.kind)
    s = skew_quiver(act)
    doc = {"metadata": _metadata(basis, **meta)}
    if args.command == "classify" and basis.det % 3 == 0:
        cut = invariant_cut(act)
        s = _transport_cut(s, act, _degrees(q, cut))
        doc.update(divisible_by_3=True, verdict="cut-exists", witness={
            "invariant_cut_arrow_ids": list(cut.arrows),
            "invariant_cut_type": list(cut_type(cut)),
        })
    elif args.command == "classify":
        witness = loop_witness(act)
        if not s.loops():
            raise InternalInvariantViolation(
                "no loops on the skew quiver although 3 does not divide |N|"
            )
        doc.update(divisible_by_3=False, verdict="no-cut", witness={
            "k": witness.k,
            "coset": list(witness.vertex),
            "orbit": [list(v) for v in witness.orbit],
            "orbit_size": witness.orbit_size,
            "special_c2xc2": witness.special_c2xc2,
        })
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
    kind = args.kind
    cases = []
    for basis in admissible_bases(args.max_det, kind):
        q = build_quiver(AbelianQuotient(basis))
        realized = realized_types(q)
        n = basis.det
        predicted = {
            (g1, g2, n - g1 - g2)
            for g1 in range(1, n)
            for g2 in range(1, n - g1)
            if cut_exists(basis, (g1, g2, n - g1 - g2))
        }
        cases.append({
            "basis": [list(r) for r in basis.rows],
            "det": n,
            "realized_types": sorted(list(t) for t in realized),
            "predicted_types": sorted(list(t) for t in predicted),
            "match": realized == predicted,
        })
    return {
        "max_det": args.max_det,
        "kind": kind,
        "cases": cases,
        "discrepancies": [case for case in cases if not case["match"]],
    }


# ---------------------------------------------------------------------------
# Rendering.


_ATOMS = frozenset({int, str, bool, type(None)})
# The C encoder runs only without indent.  It escapes every control
# character, so a raw NUL in its output can only be a separator.
_encode = json.JSONEncoder(separators=("\x00", ":")).encode
_CHUNK = 4096  # list items rendered at a time, so a long list keeps a small working set


def _to_json(doc: dict) -> str:
    """Exactly json.dumps(doc, sort_keys=True, indent=2) + "\\n", with the
    bulk of the document rendered by the stdlib's C encoder."""
    return _render(doc, "") + "\n"


def _render(value, ind: str) -> str:
    """One value rendered with its last line at indentation ind."""
    t = type(value)
    if t in _ATOMS:
        return _encode(value)
    bad = set(map(type, value)) - {str} if t is dict else {t} - {list}
    if bad:
        raise InternalInvariantViolation(f"cannot render {min(b.__name__ for b in bad)} as JSON")
    if not value:
        return "{}" if t is dict else "[]"
    inner = ind + "  "
    if t is dict:
        items = [f"{_encode(key)}: {_render(value[key], inner)}" for key in sorted(value)]
    else:
        items = [
            f",\n{inner}".join(_render_column(value[i:i + _CHUNK], inner))
            for i in range(0, len(value), _CHUNK)
        ]
    brackets = "{}" if t is dict else "[]"
    return f"{brackets[0]}\n{inner}" + f",\n{inner}".join(items) + f"\n{ind}{brackets[1]}"


def _render_column(values, ind: str) -> list[str]:
    """Each of the values rendered at indentation ind.

    Atoms take one C encoder call.  Dicts that share one key set fill one
    row template whose values are rendered column by column, a column of
    lists that all have n > 0 items as n columns of items.  Anything else
    is rendered value by value.
    """
    types = set(map(type, values))
    if types <= _ATOMS:
        return _encode(values)[1:-1].split("\x00")
    first = values[0]
    keys = sorted(first) if types == {dict} and set(map(type, first)) == {str} else ()
    try:
        columns = [list(map(itemgetter(key), values)) for key in keys]
    except KeyError:
        keys = ()
    if not keys or set(map(len, values)) != {len(keys)}:
        return [_render(value, ind) for value in values]
    inner = ind + "  "
    fields, cells = [], []
    for key, column in zip(keys, columns):
        name = _encode(key).replace("%", "%%")
        lengths = set(map(len, column)) if set(map(type, column)) == {list} else ()
        if len(lengths) == 1 and (n := lengths.pop()):
            fields.append(f"{name}: [\n{inner}  " + f",\n{inner}  ".join(["%s"] * n) + f"\n{inner}]")
            cells += (_render_column(list(map(itemgetter(k), column)), inner + "  ") for k in range(n))
        else:
            fields.append(f"{name}: %s")
            cells.append(_render_column(column, inner))
    row = f"{{\n{inner}" + f",\n{inner}".join(fields) + f"\n{ind}}}"
    return [row % cell for cell in zip(*cells)]


def _to_dot(doc: dict) -> str:
    if "vertices" not in doc or "arrows" not in doc:
        raise ValueError(f"command {doc.get('command')} has no DOT rendering")
    lines = ["digraph mckay {", "  rankdir=LR;"]
    for v in doc["vertices"]:
        size = f" [{v['dimension']}]" if v["dimension"] != 1 else ""
        lines.append(f'  v{v["id"]} [label="{v["label"]}{size}"];')
    for a in doc["arrows"]:
        # a McKay quiver's arrows carry their type, a skew quiver's their multiplicity
        label = a["type"] if "type" in a else f"x{a['mult']}"
        style = "dashed" if a["degree"] == 1 else "solid"
        lines.append(f'  v{a["source"]} -> v{a["target"]} [label="{label}", style={style}];')
    lines.append("}")
    return "\n".join(lines) + "\n"


def _to_text(doc: dict) -> str:
    lines = [f"command: {doc['command']}"]
    meta = doc.get("metadata", {})
    basis = meta.get("basis")
    if basis:
        lines.append(f"basis: {basis[0]} / {basis[1]}  det={meta.get('det')}")
    for key in ("kind", "root_order", "scalars"):
        if key in meta:
            lines.append(f"{key}: {meta[key]}")
    skip = {"schema", "command", "metadata", "vertices", "arrows", "cuts", "cases"}
    for key in sorted(doc.keys() - skip):
        lines.append(f"{key}: {doc[key]}")
    for key in ("vertices", "arrows"):
        if key in doc:
            lines.append(f"{key}: {len(doc[key])}")
    for c in doc.get("cuts", ()):
        lines.append(f"cut type={c['type']} arrows={c['arrow_ids']}")
    for c in doc.get("cases", ()):
        lines.append(f"basis {c['basis']} det={c['det']} match={c['match']}")
    return "\n".join(lines) + "\n"


_GAMMA = {"--gamma": {"required": True, "help": "type vector g1,g2,g3"}}

# name: (implementation, help, the kinds of --kind with --root-order and
# --scalars, or None for no symmetry options, further options)
_SPECS = {
    "group-info": (_cmd_group_info, "group order, classes, complement", ("A", "C", "D"), {}),
    "quiver": (_cmd_quiver, "the McKay quiver of Z^2/B", None, {}),
    "cut-exists": (_cmd_cut_exists, "closed-form cut criterion", None, _GAMMA),
    "cut-build": (_cmd_cut_validate, "construct the cut of a given type", None, _GAMMA),
    "cut-validate": (_cmd_cut_validate, "check the weak-cut axioms", None, {
        "--gamma": {"default": None, "help": "build and validate this type"},
        "--arrow-ids": {"default": None, "help": "validate these arrow ids"},
    }),
    "cut-enumerate": (_cmd_cut_enumerate, "exhaustively enumerate cuts", None, {
        "--limit": {"type": int, "default": DEFAULT_ENUMERATION_LIMIT},
    }),
    "skew": (_cmd_skew, "the skew-group quiver Q_N * K", ("C", "D"), {}),
    "classify": (_cmd_skew, "cut existence verdict with witness", ("C", "D"), {}),
    "unskew-roundtrip": (_cmd_unskew_roundtrip, "skew by C3, unskew by its dual", None, {}),
    "oracle-compare": (_cmd_oracle_compare, "enumeration vs criterion sweep", None, {
        "--max-det": {"type": int, "default": 9},
        "--kind": {"choices": ("A", "C", "D"), "default": "C"},
    }),
}
_COMMANDS = {name: spec[0] for name, spec in _SPECS.items()}


def _add_options(p: argparse.ArgumentParser, name: str) -> argparse.ArgumentParser:
    """Add command name's options to p; returns p."""
    _, _, kinds, options = _SPECS[name]
    if name != "oracle-compare":  # the one command that sweeps bases
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
    for flag, settings in options.items():
        p.add_argument(flag, **settings)
    return p


def _build_parser(command: str | None) -> argparse.ArgumentParser:
    """Every subcommand with its help text, and -h and the options on the
    named command only.  The top-level parser's one option, -h, takes no
    value, so argparse runs the subparser of the first token it classes as
    positional.  The only such tokens that start with '-' are '-',
    negative-number-like tokens, tokens containing a space and tokens
    after '--'; none is a command name, so each ends in the top-level
    invalid-choice error whatever the subparsers hold.  A subparser
    without options is therefore never run."""
    parser = argparse.ArgumentParser(
        prog="mckay",
        description="Exact McKay quivers, cuts and skew-group quivers for "
        "monomial subgroups of SL(3).",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (_, help_text, _, _) in _SPECS.items():
        p = sub.add_parser(name, help=help_text, add_help=name == command)
        if name == command:
            _add_options(p, name)
    return parser


def run(args: argparse.Namespace) -> tuple[dict, int]:
    """Dispatch a parsed job; returns (document, exit code)."""
    doc = _COMMANDS[args.command](args)
    doc.update(schema=1, command=args.command)
    return doc, EXIT_DISCREPANCY if doc.get("discrepancies") else EXIT_OK


def main(argv: Sequence[str] | None = None) -> int:
    """Parse argv as the full parser does, run its job, print the document.
    When argv[0] is a command, the full parser only hands argv[1:] to its
    subparser, whose prog is 'mckay <name>' on both paths: -h acts only
    before argv[0], the subparsers action (nargs PARSER) takes every later
    token, '--' and option-like ones too, and the subparser's fresh
    namespace is copied.  The full parser adds only 'unrecognized
    arguments', under its own usage; parse_known_args prints nothing for
    extras, so they, and an argv[0] that is no command, go to the full parser."""
    if argv is None:
        argv = sys.argv[1:]
    try:
        args = extras = None
        if argv and argv[0] in _SPECS:
            parser = _add_options(argparse.ArgumentParser(prog=f"mckay {argv[0]}"), argv[0])
            args, extras = parser.parse_known_args(argv[1:], argparse.Namespace(command=argv[0]))
        if args is None or extras:
            command = next((a for a in argv if not a.startswith("-")), None)
            args = _build_parser(command).parse_args(argv)
    except SystemExit as e:
        return 0 if not e.code else EXIT_INVALID
    try:
        doc, code = run(args)
        out = {"json": _to_json, "dot": _to_dot, "text": _to_text}[args.format](doc)
    except (McKayError, ValueError) as e:
        print(f"error: {e}", file=sys.stderr)
        return getattr(e, "exit_code", EXIT_INVALID)
    sys.stdout.write(out)
    return code


if __name__ == "__main__":
    sys.exit(main())
