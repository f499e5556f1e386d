"""Acceptance gate: eight exact, oracle-backed criteria at desk scale.

Each test prints one ACCEPTANCE line through the capture-disabled channel
so the verdicts are visible in any pytest run. Failures are real: the
criterion text is asserted as stated, not weakened to match behavior.
"""
from __future__ import annotations

import json

from conftest import np_loop_profile, to_complex
from mckay import cli
from mckay.cuts import (
    build_cut,
    cut_exists,
    cut_type,
    invariant_cut,
    realized_types,
    validate_cut,
)
from mckay.lattice import AbelianQuotient, admissible_bases
from mckay.mckay_quiver import build_quiver, k_action
from mckay.monomial_group import conjugacy_classes, group_from_basis
from mckay.skew import (
    loop_witness,
    skew_quiver,
    transport_cut,
    unskew_round_trip,
)


def _verdict(capsys, number: int, ok: bool, detail: str = "") -> None:
    with capsys.disabled():
        tail = f"  ({detail})" if detail else ""
        print(f"ACCEPTANCE {number}: {'PASS' if ok else 'FAIL'}{tail}")
    assert ok, f"criterion {number}: {detail}"


def _quiver(basis):
    return build_quiver(AbelianQuotient(basis))


def _types(n):
    return [
        (g1, g2, n - g1 - g2)
        for g1 in range(1, n)
        for g2 in range(1, n - g1)
        if n - g1 - g2 >= 1
    ]


def test_criterion_1_enumeration_matches_criterion(capsys):
    checked = 0
    for basis in admissible_bases(9, "C"):
        q = _quiver(basis)
        n = basis.det
        realized = realized_types(q)
        predicted = {g for g in _types(n) if cut_exists(basis, g)}
        if realized != predicted:
            _verdict(capsys, 1, False, f"mismatch at {basis.rows}")
        checked += 1
    _verdict(capsys, 1, checked == 5, f"{checked} bases, det <= 9")


def test_criterion_2_build_cut_soundness(capsys):
    built = 0
    for basis in admissible_bases(24, "C"):
        q = _quiver(basis)
        for gamma in _types(basis.det):
            if not cut_exists(basis, gamma):
                continue
            cut = build_cut(q, gamma)
            ok = cut_type(cut) == gamma and validate_cut(q, cut).passed
            if not ok:
                _verdict(capsys, 2, False, f"{basis.rows} gamma={gamma}")
            built += 1
    _verdict(capsys, 2, built > 0, f"{built} cuts built, det <= 24")


def test_criterion_3_classification(capsys):
    cases = 0
    for kind in ("C", "D"):
        for basis in admissible_bases(48, kind):
            q = _quiver(basis)
            act = k_action(q, kind)
            s = skew_quiver(act)
            divisible = basis.det % 3 == 0
            if divisible:
                cut = invariant_cut(act)
                st = transport_cut(s, act, cut)
                degrees = st.degrees
                ok = set(degrees.values()) <= {0, 1} and _degree_zero_acyclic(
                    len(st.vertices), degrees
                )
            else:
                w = loop_witness(act)
                ok = bool(s.loops()) and w.vertex in w.orbit
            if not ok:
                _verdict(capsys, 3, False, f"{basis.rows} kind {kind}")
            cases += 1
    _verdict(capsys, 3, cases == 36, f"{cases} (basis, kind) pairs, det <= 48")


def _degree_zero_acyclic(n, degrees):
    out = {i: [] for i in range(n)}
    for (i, j), d in degrees.items():
        if d == 0:
            out[i].append(j)
    state = [0] * n

    def dfs(v):
        state[v] = 1
        for w in out[v]:
            if state[w] == 1 or (state[w] == 0 and dfs(w)):
                return True
        state[v] = 2
        return False

    return not any(state[v] == 0 and dfs(v) for v in range(n))


def test_criterion_4_invariant_cut(capsys):
    cases = 0
    for kind in ("C", "D"):
        for basis in admissible_bases(48, kind):
            if basis.det % 3:
                continue
            q = _quiver(basis)
            act = k_action(q, kind)
            cut = invariant_cut(act)
            ok = act.is_arrow_set_invariant(cut.arrows) and validate_cut(q, cut).passed
            if not ok:
                _verdict(capsys, 4, False, f"{basis.rows} kind {kind}")
            cases += 1
    _verdict(capsys, 4, cases > 0, f"{cases} invariant cuts, 3 | det <= 48")


def test_criterion_5_demonet_consistency(capsys):
    cases = 0
    for kind, factor in (("C", 3), ("D", 6)):
        for basis in admissible_bases(200 // factor, kind):
            if basis.det * factor > 200:
                continue
            q = _quiver(basis)
            s = skew_quiver(k_action(q, kind))
            g = group_from_basis(basis, kind)
            dim = {i: v.dimension for i, v in enumerate(s.vertices)}
            degree_ok = all(
                sum(m * dim[j] for (i2, j), m in s.mult.items() if i2 == i)
                == 3 * dim[i]
                for i in dim
            )
            ok = (
                len(s.vertices) == len(conjugacy_classes(g))
                and sum(v.dimension ** 2 for v in s.vertices) == g.order
                and degree_ok
            )
            if not ok:
                _verdict(capsys, 5, False, f"{basis.rows} kind {kind}")
            cases += 1
    _verdict(capsys, 5, cases > 0, f"{cases} groups, |G| <= 200")


def test_criterion_6_loop_witness(capsys):
    cases = 0
    special_seen = False
    failures = []
    for kind in ("C", "D"):
        for basis in admissible_bases(48, kind):
            if basis.det % 3 == 0:
                continue
            n = basis.det
            w = loop_witness(k_action(_quiver(basis), kind))
            q = AbelianQuotient(basis)
            target = q.reduce((w.vertex[0] + 1, w.vertex[1]))
            if target not in w.orbit:
                failures.append(f"{basis.rows} kind {kind}: target escapes orbit")
            if kind == "C" and w.orbit_size != 3:
                failures.append(f"{basis.rows} C: orbit size {w.orbit_size}")
            if kind == "D" and not w.special_c2xc2 and w.orbit_size != 6:
                failures.append(f"{basis.rows} D: orbit size {w.orbit_size}")
            if kind == "D" and w.special_c2xc2:
                special_seen = True
                if basis.smith_invariants() != (2, 2):
                    failures.append(f"{basis.rows}: spurious special flag")
                # G is S4 (signed permutations of determinant 1) and
                # V = std x sgn: std and std' carry one loop each.
                quiv = build_quiver(q)
                s = skew_quiver(k_action(quiv, "D"))
                loops = sorted(
                    (s.vertices[i].dimension, m) for i, m in s.loops()
                )
                g = group_from_basis(basis, "D")
                oracle = np_loop_profile([to_complex(x, g.root_order) for x in g.keys])
                if loops != [(3, 1), (3, 1)]:
                    failures.append(
                        f"C2xC2 kind D: loop profile (dim, count) = {loops}, "
                        f"expected [(3, 1), (3, 1)]"
                    )
                if any(quiv.vertices[s.vertices[i].orbit_rep] not in w.orbit for i, _ in s.loops()):
                    failures.append("C2xC2 kind D: a loop lies off the witness orbit")
                if loops != oracle:
                    failures.append(
                        f"C2xC2 kind D: loop profile {loops} != oracle {oracle}"
                    )
            cases += 1
    ok = not failures and special_seen and cases == 20
    _verdict(capsys, 6, ok, f"{cases} witnesses; " + "; ".join(failures))


def test_criterion_7_unskew_round_trip(capsys):
    cases = 0
    for basis in admissible_bases(27, "C"):
        if basis.det % 3:
            continue
        report = unskew_round_trip(_quiver(basis))
        ok = (
            report.cut_recovered
            and report.double_skew_vertex_count == basis.det
            and report.recovered_cut == report.original_cut
        )
        if not ok:
            _verdict(capsys, 7, False, f"{basis.rows}")
        cases += 1
    _verdict(capsys, 7, cases == 6, f"{cases} round trips, 3 | det <= 27")


def test_criterion_8_determinism(capsys):
    jobs = [
        ["quiver", "--basis", "3,0;0,3"],
        ["group-info", "--basis", "2,0;0,2", "--kind", "D"],
        ["cut-enumerate", "--basis", "7,3;0,1"],
        ["classify", "--basis", "6,4;0,2", "--kind", "D"],
        ["skew", "--basis", "3,0;0,3", "--kind", "D", "--format", "dot"],
        ["unskew-roundtrip", "--basis", "3,2;0,1"],
        ["oracle-compare", "--max-det", "7"],
    ]
    for job in jobs:
        assert cli.main(job) == 0
        first = capsys.readouterr().out
        assert cli.main(job) == 0
        second = capsys.readouterr().out
        if first != second or not first:
            _verdict(capsys, 8, False, f"{job}")
        if job[-1] != "dot" and "--format" not in job:
            json.loads(first)
    _verdict(capsys, 8, True, f"{len(jobs)} jobs byte-stable")