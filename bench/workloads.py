"""Seeded inputs and operations of the three benchmark workloads.

Inputs are made here from the seed and the round number alone, as plain
integers and document text; nothing in this module imports horofan.  Each
workload is a class with

- `build_round(seed, round_index, workdir)`: the round's operation list
  (every operation a dict of plain data; cli-docs also writes its document
  files into `workdir`);
- `runner(hf)`: an object whose `run(op)` executes one operation through the
  horofan modules in namespace `hf`, and whose `check(ops, results)` checks
  every answer with the arithmetic of `checks.py`.

Calls go through module attributes (`hf.dictionary.classify_variety`), so a
tracer that rebinds those attributes sees them.
"""

from __future__ import annotations

import contextlib
import io
import itertools
import json
import math
import os
import random
import subprocess
import sys
from math import gcd

import checks


def round_rng(workload: str, seed: int, round_index: int) -> random.Random:
    # string seeds hash through SHA-512, so they do not depend on PYTHONHASHSEED
    return random.Random(f"{workload}:{seed}:{round_index}")


def primitive(v):
    g = 0
    for x in v:
        g = gcd(g, x)
    return tuple(x // g for x in v)


def signed_permutation(rng: random.Random, n: int):
    perm = rng.sample(range(n), n)
    signs = [rng.choice((1, -1)) for _ in range(n)]
    return [[signs[i] if perm[i] == j else 0 for j in range(n)] for i in range(n)]


def small_unimodular(rng: random.Random, n: int):
    """A signed permutation times one elementary shear: entries stay in [-2, 2]."""
    a = signed_permutation(rng, n)
    if n > 1:
        i, j = rng.sample(range(n), 2)
        s = rng.choice((-1, 0, 1))
        a = [[a[r][c] + (s * a[r][i] if c == j else 0) for c in range(n)] for r in range(n)]
    return a


def transpose_apply(a, v):
    """A^T v: lattice coordinates after the character basis change M -> M A."""
    n = len(a)
    return tuple(sum(a[j][k] * v[j] for j in range(n)) for k in range(n))


def change_basis_columns(columns, a):
    """Columns of C A for C given by its columns."""
    n = len(a)
    rows = len(columns[0]) if columns else 0
    return [[sum(columns[j][i] * a[j][k] for j in range(n)) for i in range(rows)] for k in range(n)]


# ====================================================================== fan-rank3

E1, E2, E3 = (1, 0, 0), (0, 1, 0), (0, 0, 1)
NEG = (-1, -1, -1)
BASES = {
    "P3": [list(c) for c in itertools.combinations([E1, E2, E3, NEG], 3)],
    "P2xP1": [[a, b, c] for a, b in [(E1, E2), (E1, (-1, -1, 0)), (E2, (-1, -1, 0))] for c in (E3, (0, 0, -1))],
    "P1^3": [list(s) for s in itertools.product([E1, (-1, 0, 0)], [E2, (0, -1, 0)], [E3, (0, 0, -1)])],
}
# (Dynkin descriptor, central torus rank): every group has character rank 3,
# so M = Z^3 in fundamental-weight coordinates and the colour points are the
# rows of the basis-change matrix.
GROUPS = {"T3": ("", 3), "A3": ("A3", 0), "A2xA1": ("A2xA1", 0), "A1^3": ("A1xA1xA1", 0)}
# One round: 13 fans, each analysed by 8 operations (104 operations).  Ten
# of them have 6 maximal cones, so their builds form a dense block at the top
# of the cost range, with (P1)^3 (8 maximal cones) above it, and op_p90_ms
# falls inside that block; P3 (4 maximal cones) lies below.  The two
# positivity checks of similar cost sit in the middle of each fan's eight
# operations, where op_p50_ms falls.  A second stellar subdivision or a
# subdivided P2xP1 would reach 8 maximal cones at several times the classify
# cost, and a round would no longer fit a run.  The last field is the
# subdivision weight: 1 subdivides at g1 + g2 + g3 (a smooth fan stays
# smooth), 2 at g1 + g2 + 2 g3 (cones of determinant 2).
FAN_SLOTS = (
    [("P3", 0, "T3", 0), ("P3", 0, "A1^3", 0)]
    + [("P3", 1, "T3", 2), ("P3", 1, "A3", 1), ("P3", 1, "A2xA1", 2), ("P3", 1, "A1^3", 1), ("P3", 1, "A3", 2)]
    + [("P2xP1", 0, g, 0) for g in GROUPS]
    + [("P2xP1", 0, "A1^3", 0), ("P1^3", 0, "A1^3", 0)]
)
FAN_STEPS = (
    "build", "classify", "class-group", "picard", "positivity", "positivity-boundary",
    "orbits", "regularity",
)


def stellar_subdivision(rng: random.Random, maximal, weight: int):
    """Star-subdivide a seeded maximal cone at a seeded g_i + g_j + weight * g_k."""
    k = rng.randrange(len(maximal))
    gens = maximal[k]
    weights = [1, 1, 1]
    weights[rng.randrange(3)] = weight
    v = primitive(tuple(sum(w * g[i] for w, g in zip(weights, gens)) for i in range(3)))
    out = [c for i, c in enumerate(maximal) if i != k]
    out += [[v if t == j else gens[t] for t in range(3)] for j in range(3)]
    return out


def fan_spec(rng: random.Random, base: str, subdivisions: int, group: str, weight: int = 1) -> dict:
    maximal = [list(c) for c in BASES[base]]
    for _ in range(subdivisions):
        maximal = stellar_subdivision(rng, maximal, weight)
    a = signed_permutation(rng, 3)
    maximal = [tuple(sorted(transpose_apply(a, g) for g in c)) for c in maximal]
    descriptor, torus = GROUPS[group]
    columns = change_basis_columns([list(E1), list(E2), list(E3)], a)
    roots = range(3) if descriptor else ()
    points = {r: tuple(col[r] for col in columns) for r in roots}
    chosen = sorted(rng.sample(list(roots), 2)) if roots else []
    colours = [
        [r for r in chosen if checks.simplicial_contains(c, points[r])] for c in maximal
    ]
    return {
        "label": f"{base}+{subdivisions} over {group}",
        "group": descriptor,
        "torus": torus,
        "M": columns,
        "maximal": maximal,
        "colours": colours,
        "points": points,
    }


class FanRank3:
    name = "fan-rank3"

    def build_round(self, seed: int, round_index: int, workdir: str) -> list[dict]:
        rng = round_rng(self.name, seed, round_index)
        ops = []
        seen = []
        for fan_index, (base, subdivisions, group, weight) in enumerate(FAN_SLOTS):
            spec = fan_spec(rng, base, subdivisions, group, weight)
            while spec in seen:  # no input repeats within a round
                spec = fan_spec(rng, base, subdivisions, group, weight)
            seen.append(spec)
            ops += [{"kind": step, "fan": fan_index, "spec": spec} for step in FAN_STEPS]
        return ops

    def runner(self, hf):
        return FanRunner(hf)


class FanRunner:
    def __init__(self, hf):
        self.hf = hf
        self.built = {}

    def run(self, op):
        hf, kind = self.hf, op["kind"]
        if kind == "build":
            spec = op["spec"]
            group = hf.rootsys.RootDatum.parse(spec["group"], central_torus_rank=spec["torus"])
            datum = hf.horo.HorosphericalDatum(
                group, frozenset(), hf.intlin.IntMatrix.from_columns(spec["M"], rows=3)
            )
            lattice = hf.horo.build_coloured_lattice(datum)
            cones = [
                hf.horo.ColouredCone(hf.polyhedra.Cone.from_generators(3, gens), frozenset(cols))
                for gens, cols in zip(spec["maximal"], spec["colours"])
            ]
            fan = hf.horo.coloured_fan(lattice, cones)
            self.built[op["fan"]] = (fan, datum)
            return len(fan.cones)
        fan, datum = self.built[op["fan"]]
        if kind == "classify":
            return hf.dictionary.classify_variety(fan, datum)
        if kind == "class-group":
            return hf.divisors.class_group(fan, datum)
        if kind == "picard":
            return hf.divisors.picard_group(fan, datum)
        if kind == "positivity":
            k = hf.divisors.anticanonical(fan, datum)
            return hf.divisors.positivity_check(k, fan, datum)
        if kind == "positivity-boundary":
            # every B-stable prime divisor with coefficient 1
            colours = {c.root: 1 for c in fan.lattice.colours}
            rays = {g: 1 for g in hf.divisors.invariant_ray_generators(fan)}
            boundary = hf.divisors.make_divisor(fan, rays=rays, colours=colours)
            return hf.divisors.positivity_check(boundary, fan, datum)
        if kind == "orbits":
            return hf.dictionary.orbit_table(fan, datum)
        if kind == "regularity":
            return hf.dictionary.regularity_report(fan, datum)
        raise ValueError(f"unknown operation {kind!r}")

    def check(self, ops, results) -> list[str]:
        by_fan = {}
        for op, result in zip(ops, results):
            if not isinstance(result, Exception):
                by_fan.setdefault(op["fan"], (op["spec"], {}))[1][op["kind"]] = result
        errors = []
        for spec, answers in by_fan.values():
            errors += [f"{spec['label']}: {e}" for e in checks.check_fan_analysis(spec, answers)]
        return errors


# ====================================================================== cone-kernels

# One round: 18 matrices, 18 rank-3 Hilbert bases, 12 unimodular rank-4
# Hilbert bases (a = 1, 2, 3), 48 rank-4 cones and 24 rank-5 cones: 120
# operations.  The cones are spanned by lattice points of one sphere at one
# height, so every generator is extreme and the cost of a cone depends on
# little but its rank.  Sorted by cost, the rank-4 cones cover 34%-73% and
# hold op_p50_ms; the rank-5 cones cover 77%-97% and hold op_p90_ms, so
# neither percentile falls in a gap between kinds.
KERNEL_MIX = (("matrix", 18), ("hilbert3", 18), ("unimodular", 12), ("cone4", 48), ("cone5", 24))
UNIMODULAR_A = (1, 2, 3)
SPHERE_HEIGHT = 2
SPHERE = {
    n: [x + (SPHERE_HEIGHT,) for x in itertools.product(range(-3, 4), repeat=n - 1) if checks.dot(x, x) == 9]
    for n in (4, 5)
}


def random_matrix(rng: random.Random):
    rows, cols = rng.randint(4, 6), rng.randint(4, 6)
    m = [[rng.randint(-9, 9) for _ in range(cols)] for _ in range(rows)]
    if rng.random() < 0.4:  # a rank drop, so kernels and SNF zeros occur
        i, j, k = rng.sample(range(rows), 3)
        s, t = rng.randint(-2, 2), rng.randint(-2, 2)
        m[k] = [s * x + t * y for x, y in zip(m[i], m[j])]
    x0 = [rng.randint(-3, 3) for _ in range(cols)]
    return {"rows": m, "rhs": [checks.dot(r, x0) for r in m]}


def random_pointed_generators(rng: random.Random, n: int, count: int, spread: int, height: int):
    """Distinct vectors with last coordinate in [1, height]: a pointed cone."""
    gens = set()
    while len(gens) < count:
        gens.add(tuple(rng.randint(-spread, spread) for _ in range(n - 1)) + (rng.randint(1, height),))
    return sorted(gens)


def full_dimensional(gens, n: int) -> bool:
    return checks.fraction_rank([list(g) for g in gens]) == n


def sphere_cone(rng: random.Random, n: int):
    """n + 1 generators in convex position: a full-dimensional pointed cone."""
    while True:
        gens = sorted(rng.sample(SPHERE[n], n + 1))
        if full_dimensional(gens, n):
            return gens


class ConeKernels:
    name = "cone-kernels"

    def build_round(self, seed: int, round_index: int, workdir: str) -> list[dict]:
        rng = round_rng(self.name, seed, round_index)
        ops = []
        unimodular = [a for a in UNIMODULAR_A for _ in range(4)]
        rng.shuffle(unimodular)
        seen = set()
        for kind, count in KERNEL_MIX:
            for _ in range(count):
                if kind == "matrix":
                    ops.append({"kind": kind, **random_matrix(rng)})
                elif kind in ("cone4", "cone5"):
                    n = int(kind[-1])
                    ops.append({"kind": "cone", "n": n, "gens": sphere_cone(rng, n)})
                elif kind == "hilbert3":
                    while True:
                        gens = random_pointed_generators(rng, 3, 3, 2, 2)
                        if full_dimensional(gens, 3):
                            break
                    ops.append({"kind": kind, "gens": gens})
                else:
                    a = unimodular.pop()
                    family = [(1, 0, 0, 0), (a, 1, 0, 0), (a, a, 1, 0), (a, a, a, 1)]
                    while True:
                        p = signed_permutation(rng, 4)
                        gens = [tuple(checks.dot(row, g) for row in p) for g in family]
                        if (a, tuple(gens)) not in seen:
                            seen.add((a, tuple(gens)))
                            break
                    ops.append({"kind": kind, "a": a, "gens": gens})
        rng.shuffle(ops)
        return ops

    def runner(self, hf):
        return KernelRunner(hf)


class KernelRunner:
    def __init__(self, hf):
        self.hf = hf

    def run(self, op):
        hf, kind = self.hf, op["kind"]
        if kind == "matrix":
            m = hf.intlin.IntMatrix.from_rows(op["rows"])
            return (
                hf.intlin.smith_normal_form(m),
                hf.intlin.hermite_normal_form(m),
                hf.intlin.kernel_basis(m),
                hf.intlin.rank(m),
                hf.intlin.solve_integer_affine(m, op["rhs"]),
            )
        if kind == "cone":
            cone = hf.polyhedra.Cone.from_generators(op["n"], op["gens"])
            return cone, hf.polyhedra.dual_cone(cone), hf.polyhedra.faces(cone)
        if kind in ("hilbert3", "unimodular"):
            cone = hf.polyhedra.Cone.from_generators(len(op["gens"][0]), op["gens"])
            return hf.polyhedra.hilbert_basis(cone)
        raise ValueError(f"unknown operation {kind!r}")

    def check(self, ops, results) -> list[str]:
        errors = []
        for i, (op, result) in enumerate(zip(ops, results)):
            if isinstance(result, Exception):
                continue
            kind = op["kind"]
            if kind == "matrix":
                snf, hnf, kernel, rank, solution = result
                errs = checks.check_normal_forms(op["rows"], snf, hnf, kernel, rank, solution, op["rhs"])
            elif kind == "cone":
                cone, dual, face_list = result
                errs = checks.check_cone(
                    op["n"], op["gens"], cone.generators, dual.generators,
                    [f.generators for f in face_list],
                )
            elif kind == "hilbert3":
                errs = checks.check_hilbert(op["gens"], result)
            else:
                errs = checks.check_hilbert(op["gens"], result, expected=op["gens"])
            errors += [f"op {i} ({kind}): {e}" for e in errs]
        return errors


# ====================================================================== cli-docs

COMMANDS = (
    "validate", "orbits", "classify", "class-group", "picard", "cartier", "positivity",
    "anticanonical", "smooth", "decolour", "orbit-closure", "morphism", "weight-monoid",
)

# data: descriptor, torus rank, labels of I, character columns, colour labels
# by character row (the colour point of root a is row a of the columns).
DATA = {
    "A2": ("A2", 0, [], [[1, 0], [0, 1]], {0: "a1", 1: "a2"}),
    "A1xA1": ("A1xA1", 0, [], [[1, 0], [0, 1]], {0: "1.a1", 1: "2.a1"}),
    "T2": ("", 2, [], [[1, 0], [0, 1]], {}),
    "SL5": ("A4", 0, ["a2", "a4"], [[1, 0, 0, 0], [0, 0, 1, 0]], {0: "a1", 2: "a3"}),
    "A1": ("A1", 0, [], [[1]], {0: "a1"}),
    "A1/2": ("A1", 0, [], [[2]], {0: "a1"}),
    "A2/P1": ("A2", 0, ["a1"], [[0, 1]], {1: "a2"}),
}
RANK2_POOL = sorted(
    {primitive((x, y)) for x in range(-2, 3) for y in range(-2, 3) if (x, y) != (0, 0)},
    key=lambda v: math.atan2(v[1], v[0]),
)


def cross2(a, b) -> int:
    return a[0] * b[1] - a[1] * b[0]


def cone2_contains(gens, p) -> bool:
    """Membership in a rank-1 or rank-2 cone of Z^1 / Z^2 given by 1-2 generators."""
    if len(gens) == 1:
        g = gens[0]
        if len(g) == 1:
            return p[0] * g[0] > 0
        return cross2(g, p) == 0 and checks.dot(g, p) > 0
    a, b = gens
    return cross2(a, p) >= 0 and cross2(p, b) >= 0


class Document:
    """A coloured fan document built from maximal cones with own arithmetic."""

    def __init__(self, data_key, maximal, chosen_colours, basis=None, divisor_rng=None):
        descriptor, torus, parabolic, columns, colour_rows = DATA[data_key]
        n = len(columns)
        if basis is not None:
            columns = change_basis_columns(columns, basis)
            maximal = [[transpose_apply(basis, g) for g in c] for c in maximal]
        self.rank = n
        self.points = {label: tuple(col[row] for col in columns) for row, label in colour_rows.items()}
        members = []
        for c in maximal:
            if len(c) == 2 and cross2(c[0], c[1]) < 0:
                c = [c[1], c[0]]
            for face in [c] + ([[g] for g in c] if len(c) == 2 else []):
                if face not in members:
                    members.append(face)
        self.members = members
        self.colours = [
            [lab for lab in sorted(chosen_colours) if cone2_contains(m, self.points[lab])]
            for m in members
        ]
        self.body = {
            "group": descriptor,
            "torus_rank": torus,
            "I": parabolic,
            "M": columns,
            "fan": [
                {"generators": [list(g) for g in m], "colours": cols}
                for m, cols in zip(members, self.colours)
            ],
        }
        self.rays = [m[0] for m, cols in zip(members, self.colours) if len(m) == 1 and not cols]
        if divisor_rng is not None:
            self.body["divisors"] = {
                "delta": {
                    "rays": {",".join(map(str, g)): divisor_rng.randint(-1, 2) for g in self.rays},
                    "colours": {lab: divisor_rng.randint(0, 3) for lab in sorted(self.points)},
                }
            }

    def complete(self) -> bool:
        two = [m for m in self.members if len(m) == 2]
        if self.rank == 1:
            return {m[0] for m in self.members} == {(1,), (-1,)}
        rays = sorted({g for m in two for g in m}, key=lambda v: math.atan2(v[1], v[0]))
        if len(rays) < 3:
            return False
        cyclic = list(zip(rays, rays[1:] + rays[:1]))
        return all([a, b] in two and cross2(a, b) > 0 for a, b in cyclic)

    def class_group_free_rank(self) -> int:
        rows = [list(g) for g in self.rays] + [list(p) for p in self.points.values()]
        return len(rows) - (checks.fraction_rank(rows) if rows else 0)

    def text(self) -> str:
        return json.dumps(self.body, indent=2)


def random_rank2_fan(rng: random.Random, complete: bool):
    """Four seeded rays around the origin; all four 2-cones, or three of them."""
    while True:
        rays = sorted(rng.sample(RANK2_POOL, 4), key=lambda v: math.atan2(v[1], v[0]))
        pairs = list(zip(rays, rays[1:] + rays[:1]))
        if all(cross2(a, b) > 0 for a, b in pairs):
            break
    if not complete:
        pairs.pop(rng.randrange(4))
    return [[a, b] for a, b in pairs]


# (data, number of colours, complete) of the seeded random rank-2 documents
RANDOM_FANS = (("A2", 1, True), ("A1xA1", 2, True), ("T2", 0, True), ("A2", 2, False), ("A1xA1", 1, False))
README_FAN = [[(1, 1), (1, -1)], [(-1, 0), (1, 1)], [(-1, 0), (1, -1)]]
SL3_ORBITS_FAN = [[(1, 0), (0, 1)], [(0, 1), (-1, -1)], [(1, 0), (-1, -1)]]
SL5_ROWS = [([(1, 0), (-1, 1)], ["a1", "a3"]), ([(1, 0), (0, 1)], ["a1"]), ([(1, 0), (0, 1)], ["a3"])]


def cli_documents(rng: random.Random) -> list[tuple[Document, bool]]:
    """(document, valid) pairs: 13 documents, all 13 commands run on each."""
    docs = [
        (Document("A2", README_FAN, ["a1"], small_unimodular(rng, 2), rng), True),
        (Document("A2", SL3_ORBITS_FAN, ["a1"], small_unimodular(rng, 2), rng), True),
    ]
    for cone, colours in SL5_ROWS:
        docs.append((Document("SL5", [cone], colours, small_unimodular(rng, 2), rng), True))
    # fixed data and colour counts, seeded rays and colour choices: the
    # complete fans are the costliest documents and hold op_p90_ms
    for key, count, complete in RANDOM_FANS:
        chosen = rng.sample(sorted(DATA[key][4].values()), count)
        docs.append((Document(key, random_rank2_fan(rng, complete), chosen, None, rng), True))
    key = rng.choice(("A1", "A1/2", "A2/P1"))
    rank1 = rng.choice(([[(1,)], [(-1,)]], [[(1,)]], [[(-1,)]]))
    docs.append((Document(key, rank1, list(DATA[key][4].values()), None, rng), True))
    # invalid: a missing ray face, and two overlapping 2-cones
    missing = Document("T2", random_rank2_fan(rng, True), [], small_unimodular(rng, 2))
    drop = next(i for i, m in enumerate(missing.members) if len(m) == 1)
    del missing.body["fan"][drop]
    docs.append((missing, False))
    overlap = [[(1, 0), (0, 1)], [(1, 1), (-1, 1)]]
    docs.append((Document("T2", overlap, [], small_unimodular(rng, 2)), False))
    return docs


class CliDocs:
    name = "cli-docs"

    def build_round(self, seed: int, round_index: int, workdir: str) -> list[dict]:
        rng = round_rng(self.name, seed, round_index)
        ops = []
        for d, (doc, valid) in enumerate(cli_documents(rng)):
            path = os.path.join(workdir, f"r{round_index}-doc{d}.json")
            target = os.path.join(workdir, f"r{round_index}-doc{d}-target.json")
            for p in (path, target):
                with open(p, "w", encoding="utf-8") as handle:
                    handle.write(doc.text())
            listed = len(doc.body["fan"])
            for command in COMMANDS:
                argv = [command, path]
                if command in ("cartier", "positivity"):
                    argv += ["--divisor", "delta"]
                elif command in ("orbit-closure", "weight-monoid"):
                    argv += ["--cone", str(rng.randrange(listed))]
                elif command == "morphism":
                    argv += ["--target", target]
                expect = 0 if valid else 1
                if valid and command == "positivity" and not doc.complete():
                    expect = 1
                ops.append({
                    "kind": command,
                    "argv": argv,
                    "expect_code": expect,
                    "expect_free_rank": doc.class_group_free_rank() if valid else None,
                })
        for i in rng.sample(range(len(ops)), 2):
            ops[i]["subprocess"] = True
        return ops

    def runner(self, hf):
        return CliRunner(hf)


class CliRunner:
    def __init__(self, hf):
        self.hf = hf

    def run(self, op):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = self.hf.cli.main(list(op["argv"]))
        return code, out.getvalue()

    def reparse(self, text: str) -> str:
        return self.hf.cli.serialize(self.hf.cli.parse_input(text))

    def check(self, ops, results) -> list[str]:
        errors = []
        for i, (op, result) in enumerate(zip(ops, results)):
            if isinstance(result, Exception):
                continue
            code, stdout = result
            errs = checks.check_cli(op, code, stdout, self.reparse)
            if op.get("subprocess"):
                errs += self.compare_subprocess(op, code, stdout)
            errors += [f"op {i} {' '.join(op['argv'])}: {e}" for e in errs]
        return errors

    def compare_subprocess(self, op, code, stdout) -> list[str]:
        """Run the same invocation as `python -m horofan.cli` and compare."""
        src = os.path.dirname(os.path.dirname(self.hf.cli.__file__))
        env = dict(os.environ, PYTHONPATH=src)
        proc = subprocess.run(
            [sys.executable, "-m", "horofan.cli", *op["argv"]],
            capture_output=True, text=True, env=env, timeout=120,
        )
        errors = []
        if proc.returncode != code:
            errors.append(f"subprocess exit {proc.returncode} != in-process {code}")
        if proc.stdout != stdout:
            errors.append("subprocess stdout differs from in-process stdout")
        return errors


WORKLOADS = {w.name: w for w in (CliDocs(), FanRank3(), ConeKernels())}
