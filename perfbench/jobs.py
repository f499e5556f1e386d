"""Seeded job decks for the three benchmark workloads.

A job is one in-process ``mckay.cli.main(argv)`` call, or one call into the
library (``admissible_bases``).  A deck is the list of jobs one pass runs;
the runner repeats whole passes, so every argv in a deck recurs and its bytes
can be compared.  Inputs come from the seed alone: bases are drawn from
admissible sets computed here in closed form, not by the program under test.
"""
from __future__ import annotations

import random
from dataclasses import dataclass
from math import gcd, isqrt

WORKLOADS = ("skew_large", "cut_search", "catalog_small")

# |K|: order of the symmetry group adjoined to the diagonal part.
K_ORDER = {"A": 1, "C": 3, "D": 6}


@dataclass(frozen=True)
class Job:
    """One job: CLI argv, or a library call ``(function, *args)``."""

    args: tuple[str, ...]
    expect: int = 0
    library: bool = False

    @property
    def command(self) -> str:
        return self.args[0]

    def option(self, flag: str, default: str | None = None) -> str | None:
        if flag in self.args[:-1]:
            return self.args[self.args.index(flag) + 1]
        return default


def cli(*args: object, expect: int = 0) -> Job:
    return Job(tuple(str(a) for a in args), expect)


def admissible(max_det: int, kind: str) -> list[tuple[int, int, int]]:
    """Hermite bases (a, b, c) with 2 <= a*c <= max_det admissible for kind.

    Closed form: a = k1*c, b = k2*c with k1 | k2^2 - k2 + 1, and for kind D
    also k1 | k2 - 2 and k1 | 3.  Kind A admits every basis.
    """
    out = []
    if kind == "A":
        for a in range(1, max_det + 1):
            for c in range(1, max_det // a + 1):
                if a * c >= 2:
                    out.extend((a, b, c) for b in range(a))
    else:
        for c in range(1, isqrt(max_det) + 1):
            for k1 in range(1, max_det // (c * c) + 1):
                for k2 in range(k1):
                    if (k2 * k2 - k2 + 1) % k1:
                        continue
                    if kind == "D" and ((k2 - 2) % k1 or 3 % k1):
                        continue
                    if k1 * c * c >= 2:
                        out.append((k1 * c, k2 * c, c))
    return sorted(out, key=lambda t: (t[0] * t[2], t))


def basis_arg(basis: tuple[int, int, int]) -> str:
    a, b, c = basis
    return f"{a},{b};0,{c}"


def det(basis: tuple[int, int, int]) -> int:
    return basis[0] * basis[2]


def criterion(basis: tuple[int, int, int], gamma: tuple[int, int, int]) -> bool:
    """The closed-form cut criterion on a Hermite basis."""
    a, b, c = basis
    n = a * c
    g1, g2, g3 = gamma
    if min(gamma) <= 0 or g1 + g2 + g3 != n:
        return False
    return (g1 * a) % n == 0 and (g1 * b + g2 * c) % n == 0


def cut_types(basis: tuple[int, int, int]) -> list[tuple[int, int, int]]:
    """Every type the criterion admits: g1*a = 0 and g2*c = -g1*b mod n."""
    a, b, c = basis
    n = a * c
    g = gcd(c, n)
    m = n // g
    inv = pow(c // g, -1, m) if m > 1 else 0
    out = []
    for g1 in range(n // gcd(a, n), n, n // gcd(a, n)):
        if (g1 * b) % g:
            continue
        g2 = (-(g1 * b) // g * inv) % m or m
        out.extend((g1, x, n - g1 - x) for x in range(g2, n - g1, m))
    return out


def _pick(rng: random.Random, pool, dets, c=None):
    """A basis from pool with det in dets = (lo, hi) and the given c
    (c = 1: cyclic quotient)."""
    choices = [b for b in pool if dets[0] <= det(b) <= dets[1] and c in (None, b[2])]
    if not choices:
        raise ValueError(f"no basis with dets {dets} and c={c}")
    return rng.choice(choices)


# ---------------------------------------------------------------------------
# skew_large: the all-pairs skew engine and the isomorphism search.


def skew_large(seed: int) -> list[Job]:
    rng = random.Random(seed)
    pool = {"C": admissible(460, "C"), "D": admissible(460, "D")}
    # (command, kind, format, shape): classify mixes 3 | n (cut transport)
    # with 3 !| n (loop witness), and cyclic with non-cyclic quotients.
    # Each slot fixes det(B) and the shape, and the seed picks among the
    # bases that share them, so a pass costs about the same on every seed.
    slots = [
        ("classify", "C", "json", dict(dets=(427, 427), c=1)),
        ("classify", "C", "json", dict(dets=(327, 327), c=1)),
        ("classify", "C", "json", dict(dets=(244, 244), c=2)),
        ("classify", "C", "text", dict(dets=(252, 252), c=6)),
        ("classify", "D", "json", dict(dets=(289, 289))),
        ("classify", "D", "json", dict(dets=(324, 324))),
        ("skew", "C", "json", dict(dets=(399, 399), c=1)),
        ("skew", "C", "dot", dict(dets=(361, 361), c=1)),
        ("skew", "C", "json", dict(dets=(279, 279), c=3)),
        ("skew", "D", "json", dict(dets=(432, 441))),
        ("skew", "D", "dot", dict(dets=(225, 225))),
        ("unskew-roundtrip", "C", "json", dict(dets=(183, 183), c=1)),
        ("unskew-roundtrip", "C", "json", dict(dets=(201, 201), c=1)),
        ("unskew-roundtrip", "C", "text", dict(dets=(189, 189), c=3)),
    ]
    deck = []
    for command, kind, fmt, shape in slots:
        basis = basis_arg(_pick(rng, pool[kind], **shape))
        args = [command, "--basis", basis]
        if command != "unskew-roundtrip":
            args += ["--kind", kind]
        deck.append(cli(*args, "--format", fmt))
    rng.shuffle(deck)
    return deck


# ---------------------------------------------------------------------------
# cut_search: exhaustive cut enumeration and the admissibility scan.


def cut_search(seed: int) -> list[Job]:
    rng = random.Random(seed)
    fmt = ("json", "text")
    # Four sweeps of about a second each, so the tail percentile falls among
    # them on every seed; the rest cost a few tenths of a second or less.
    deck = [
        cli("oracle-compare", "--kind", "C", "--max-det", rng.randint(19, 20),
            "--format", rng.choice(fmt)),
        cli("oracle-compare", "--kind", "A", "--max-det", 10, "--format", rng.choice(fmt)),
        cli("cut-enumerate", "--basis", "13,0;0,1", "--limit", 40),
        Job(("admissible_bases", str(rng.randint(400, 420)), "D"), library=True),
        cli("oracle-compare", "--kind", "C", "--max-det", rng.randint(16, 18)),
        cli("oracle-compare", "--kind", "D", "--max-det", rng.randint(16, 24)),
        cli("oracle-compare", "--kind", "A", "--max-det", 9),
        cli("cut-enumerate", "--basis", rng.choice(("12,0;0,1", "1,0;0,12")), "--limit", 40),
        cli("cut-enumerate", "--basis", rng.choice(("11,0;0,1", "1,0;0,11")), "--limit", 40),
        Job(("admissible_bases", str(rng.randint(300, 320)), "C"), library=True),
        Job(("admissible_bases", str(rng.randint(190, 210)), "A"), library=True),
    ]
    for _ in range(3):
        b = _pick(rng, admissible(12, "A"), dets=(8, 12), c=rng.choice((2, 3)))
        deck.append(cli("cut-enumerate", "--basis", basis_arg(b), "--limit", 3 * det(b)))
    rng.shuffle(deck)
    return deck


# ---------------------------------------------------------------------------
# catalog_small: many short jobs over every command, kind and format.


def catalog_small(seed: int) -> list[Job]:
    rng = random.Random(seed)
    pool_a = admissible(60, "A")
    pool_c = admissible(60, "C")
    pool_d = admissible(60, "D")
    group_pools = {k: admissible(100, k) for k in "ACD"}
    fmts = ("json", "dot", "text")
    deck: list[Job] = []

    # Every slot fixes det(B) and c, and the seed picks among the bases that
    # share them, so the costliest jobs are alike on every seed.
    def at(pool, n, c=None):
        return _pick(rng, pool, dets=(n, n), c=c)

    def with_types(n):
        b = rng.choice([b for b in pool_a if det(b) == n and b[2] == 1 and cut_types(b)])
        return b, cut_types(b)

    def joined(values):
        return ",".join(map(str, values))

    for n, c in ((4, 1), (8, 2), (16, 1), (24, 2), (32, 1), (40, 2), (50, 1), (60, 2)):
        deck.append(cli("quiver", "--basis", basis_arg(at(pool_a, n, c)), "--format", rng.choice(fmts)))
    for kind, shapes in (
        ("A", ((9, 1), (27, 1), (64, 1), (100, 1))),
        ("C", ((13, 1), (28, 2), (64, 8), (91, 1))),
        ("D", ((12, 2), (27, 3), (64, 8), (100, 10))),
    ):
        for n, c in shapes:
            deck.append(
                cli("group-info", "--basis", basis_arg(at(group_pools[kind], n, c)), "--kind", kind,
                    "--format", rng.choice(("json", "text")))
            )
    for n in (16, 36, 100):
        # kind D with a non-default root order and explicit scalars
        b = at(group_pools["D"], n)
        d2 = n // gcd(gcd(b[0], b[1]), b[2])
        m = 2 * (d2 * 2 // gcd(d2, 2))
        deck.append(
            cli("group-info", "--basis", basis_arg(b), "--kind", "D",
                "--root-order", m, "--scalars", joined((m // 2,) * 3))
        )
    for n in (6, 12, 24, 36, 48, 60):
        b = at(pool_a, n, 1)
        if rng.random() < 0.5 and cut_types(b):
            gamma = rng.choice(cut_types(b))
        else:
            g1 = rng.randint(1, n - 2)
            gamma = (g1, 1, n - g1 - 1)
        deck.append(
            cli("cut-exists", "--basis", basis_arg(b), "--gamma", joined(gamma),
                "--format", rng.choice(("json", "text")))
        )
    for n in (6, 12, 24, 36, 48, 60):
        b, types = with_types(n)
        deck.append(
            cli("cut-build", "--basis", basis_arg(b), "--gamma", joined(rng.choice(types)),
                "--format", rng.choice(fmts))
        )
    for n in (9, 20, 30, 45):
        b, types = with_types(n)
        deck.append(
            cli("cut-validate", "--basis", basis_arg(b), "--gamma", joined(rng.choice(types)),
                "--format", rng.choice(fmts))
        )
    for n in (6, 12, 20, 30):
        b = at(pool_a, n, 1)
        deck.append(
            cli("cut-validate", "--basis", basis_arg(b), "--arrow-ids",
                joined(sorted(rng.sample(range(3 * n), n))))
        )
    for n, c in ((3, 1), (4, 2), (5, 1), (6, 2), (6, 3), (7, 1)):
        deck.append(
            cli("cut-enumerate", "--basis", basis_arg(at(pool_a, n, c)),
                "--format", rng.choice(("json", "text")))
        )
    for kind, pool, shapes in (
        ("C", pool_c, ((9, 3), (16, 4), (28, 2), (37, 1), (49, 1))),
        ("D", pool_d, ((9, 3), (16, 4), (27, 3), (36, 6), (48, 4))),
    ):
        for command in ("skew", "classify"):
            for n, c in shapes:
                deck.append(
                    cli(command, "--basis", basis_arg(at(pool, n, c)), "--kind", kind,
                        "--format", rng.choice(fmts))
                )
    for command in ("skew", "classify"):
        for n in (12, 25, 48):
            # kind D with a non-default valid root order and scalars
            m = rng.choice((4, 6, 8))
            p, q = rng.randrange(m), rng.randrange(m)
            deck.append(
                cli(command, "--basis", basis_arg(at(pool_d, n)), "--kind", "D",
                    "--root-order", m, "--scalars", joined((p, q, (m // 2 - p - q) % m)))
            )
    for n, c in ((9, 3), (21, 1), (27, 3), (36, 6)):
        deck.append(
            cli("unskew-roundtrip", "--basis", basis_arg(at(pool_c, n, c)),
                "--format", rng.choice(("json", "text")))
        )
    # C and D have no admissible det 10 or 11, so these sweeps cost the same
    for kind, max_det in (("C", rng.randint(9, 11)), ("D", rng.randint(9, 11)), ("A", 5)):
        deck.append(
            cli("oracle-compare", "--kind", kind, "--max-det", max_det,
                "--format", rng.choice(("json", "text")))
        )
    deck += _error_jobs(rng, pool_a, pool_c, pool_d)
    rng.shuffle(deck)
    return deck


def _error_jobs(rng, pool_a, pool_c, pool_d) -> list[Job]:
    """Documented failures: 2 for guards and bad input, 3 for inadmissible
    bases and failed criteria."""
    admissible_c = set(pool_c)
    not_c = [b for b in pool_a if b not in admissible_c and det(b) <= 40]
    c_not3 = [b for b in pool_c if det(b) % 3]
    d = basis_arg(rng.choice(pool_d))
    while True:
        b_bad = _pick(rng, pool_a, dets=(4, 40))
        n = det(b_bad)
        bad = [g for g in ((g1, 1, n - g1 - 1) for g1 in range(1, n - 1)) if not criterion(b_bad, g)]
        if bad:
            bad_gamma = rng.choice(bad)
            break
    big = _pick(rng, pool_a, dets=(10, 40))
    return [
        cli("classify", "--basis", basis_arg(rng.choice(not_c)), "--kind", "C", expect=3),
        cli("unskew-roundtrip", "--basis", basis_arg(rng.choice(c_not3)), expect=3),
        cli("cut-build", "--basis", basis_arg(b_bad), "--gamma",
            ",".join(map(str, bad_gamma)), expect=3),
        cli("classify", "--basis", "1,0;0,1", "--kind", rng.choice("CD"), expect=3),
        cli("cut-enumerate", "--basis", basis_arg(big), "--limit", 3 * det(big) - 1, expect=2),
        cli("quiver", "--basis", rng.choice(("1,2;3", "a,b;0,c", "1,2,3;0,1")), expect=2),
        cli("quiver", "--basis", rng.choice(("2,4;1,2", "3,6;1,2", "0,0;0,5")), expect=2),
        cli("skew", "--basis", d, "--kind", "D", "--root-order", 4, "--scalars", "1,1,1", expect=2),
        cli("classify", "--basis", d, "--kind", "D", "--root-order", rng.choice((3, 5)), expect=2),
        cli("cut-exists", "--basis", basis_arg(b_bad), "--gamma",
            ",".join(map(str, bad_gamma)), "--format", "dot", expect=2),
        cli("frobnicate", "--basis", d, expect=2),
        # ZeroDivisionError escapes main today; these count as failed until
        # the root-order guard exists.
        cli("group-info", "--basis", d, "--kind", "D", "--root-order", 0, expect=2),
        cli("skew", "--basis", d, "--kind", "D", "--root-order", 0, expect=2),
    ]


DECKS = {"skew_large": skew_large, "cut_search": cut_search, "catalog_small": catalog_small}
