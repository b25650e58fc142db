"""Each output check of the benchmark rejects a deliberately corrupted answer.

Run from the root of a checkout:  python3 -m pytest -q bench/test_checks.py
Every test takes one real answer from horofan, shows that the check accepts
it, then corrupts one part of it and shows that the check rejects it.
"""

from __future__ import annotations

import dataclasses
import os
import random
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path[:0] = [HERE, os.path.join(os.path.dirname(HERE), "src")]

import horofan  # noqa: E402
import horofan.cli  # noqa: E402

import checks  # noqa: E402
import workloads  # noqa: E402

IntMatrix = horofan.IntMatrix


def with_row(m, i, row):
    rows = m.row_list()
    rows[i] = row
    return IntMatrix.from_rows(rows, cols=m.cols)


def test_normal_forms_reject_corruption():
    op = workloads.random_matrix(random.Random(3))
    snf, hnf, kernel, rank, solution = workloads.KernelRunner(horofan).run({"kind": "matrix", **op})
    args = (op["rows"], snf, hnf, kernel, rank, solution, op["rhs"])
    assert checks.check_normal_forms(*args) == []
    u, d, v = snf
    h, hu = hnf
    bad_d = with_row(d, 0, [d.at(0, 0) + 1] + list(d.row(0)[1:]))
    bad_u = with_row(u, 0, [2 * x for x in u.row(0)])
    bad_h = IntMatrix.from_rows(list(reversed(h.row_list())), cols=h.cols)
    corruptions = [
        ((u, bad_d, v), hnf, kernel, rank, solution),
        ((bad_u, d, v), hnf, kernel, rank, solution),
        (snf, (bad_h, hu), kernel, rank, solution),
        (snf, hnf, kernel + [tuple(1 for _ in op["rows"][0])], rank, solution),
        (snf, hnf, kernel, rank + 1, solution),
        (snf, hnf, kernel, rank, (tuple(x + 1 for x in solution[0]), solution[1])),
    ]
    for snf_, hnf_, kernel_, rank_, solution_ in corruptions:
        assert checks.check_normal_forms(op["rows"], snf_, hnf_, kernel_, rank_, solution_, op["rhs"])


def test_cone_check_rejects_corruption():
    gens = workloads.sphere_cone(random.Random(5), 4)
    cone, dual, face_list = workloads.KernelRunner(horofan).run({"kind": "cone", "n": 4, "gens": gens})
    faces = [f.generators for f in face_list]
    assert checks.check_cone(4, gens, cone.generators, dual.generators, faces) == []
    dual_gens = list(dual.generators)
    assert checks.check_cone(4, gens, cone.generators, dual_gens[1:], faces)
    negated = [tuple(-x for x in dual_gens[0])] + dual_gens[1:]
    assert checks.check_cone(4, gens, cone.generators, negated, faces)
    ray = next(f for f in faces if len(f) == 1)
    assert checks.check_cone(4, gens, cone.generators, dual_gens, [f for f in faces if f != ray])


def test_hilbert_check_rejects_corruption():
    runner = workloads.KernelRunner(horofan)
    gens = [(-1, 2, 1), (2, 0, 1), (1, -2, 2)]
    basis = runner.run({"kind": "hilbert3", "gens": gens})
    assert checks.check_hilbert(gens, basis) == []
    assert checks.check_hilbert(gens, basis[1:])
    assert checks.check_hilbert(gens, basis + [tuple(a + b for a, b in zip(basis[0], basis[1]))])
    family = [(1, 0, 0, 0), (2, 1, 0, 0), (2, 2, 1, 0), (2, 2, 2, 1)]
    basis = runner.run({"kind": "unimodular", "gens": family})
    assert checks.check_hilbert(family, basis, expected=family) == []
    assert checks.check_hilbert(family, basis + [(3, 1, 0, 0)], expected=family)


def fan_answers(base, subdivisions, group, seed):
    spec = workloads.fan_spec(random.Random(seed), base, subdivisions, group)
    runner = workloads.FanRunner(horofan)
    answers = {}
    for kind in workloads.FAN_STEPS:
        answers[kind] = runner.run({"kind": kind, "fan": 0, "spec": spec})
    return spec, answers


def test_fan_check_rejects_corruption():
    spec, answers = fan_answers("P3", 0, "T3", 1)
    assert checks.check_fan_analysis(spec, answers) == []
    rep, cl, pic = answers["classify"], answers["class-group"], answers["picard"]
    wrong_group = dataclasses.replace(cl.group, free_rank=cl.group.free_rank + 1)
    corruptions = [
        {"classify": dataclasses.replace(rep, is_projective=False)},
        {"classify": dataclasses.replace(rep, is_smooth=not rep.is_smooth)},
        {"class-group": dataclasses.replace(cl, group=wrong_group)},
        {"picard": dataclasses.replace(pic, group=wrong_group)},
        {"positivity": (False, False, False)},
        {"orbits": answers["orbits"][1:]},
        {"regularity": answers["regularity"] * 2},
    ]
    for change in corruptions:
        assert checks.check_fan_analysis(spec, {**answers, **change}), change


def test_fan_check_class_group_torsion():
    # P3 over A3 with M = Z^3: Cl has rank #rays + #colours - 3; a torsion
    # part that the program did not report must be caught
    spec, answers = fan_answers("P3", 1, "A3", 2)
    assert checks.check_fan_analysis(spec, answers) == []
    cl = answers["class-group"]
    torsion = dataclasses.replace(cl.group, torsion=(2,))
    assert checks.check_fan_analysis(spec, {**answers, "class-group": dataclasses.replace(cl, group=torsion)})


def cli_round(tmp_path):
    ops = workloads.CliDocs().build_round(4, 0, str(tmp_path))
    runner = workloads.CliRunner(horofan)
    return ops, runner


def test_cli_check_rejects_corruption(tmp_path):
    ops, runner = cli_round(tmp_path)
    by_kind = {}
    for op in ops:
        if op["expect_code"] == 0:
            by_kind.setdefault(op["kind"], op)
    for kind in ("decolour", "orbit-closure", "morphism", "class-group", "validate"):
        op = by_kind[kind]
        code, stdout = runner.run(op)
        assert checks.check_cli(op, code, stdout, runner.reparse) == [], kind
        assert checks.check_cli(op, 1, stdout, runner.reparse), kind
        assert checks.check_cli(op, code, stdout.replace("---JSON---", "---"), runner.reparse), kind
        assert checks.check_cli(op, code, stdout + "}", runner.reparse), kind
    op = by_kind["decolour"]
    code, stdout = runner.run(op)
    assert checks.check_cli(op, code, stdout.replace("\n  ", "\n   ", 1), runner.reparse)
    op = by_kind["morphism"]
    code, stdout = runner.run(op)
    assert checks.check_cli(op, code, stdout.replace('"proper": true', '"proper": false'), runner.reparse)
    op = by_kind["class-group"]
    code, stdout = runner.run(op)
    assert checks.check_cli({**op, "expect_free_rank": op["expect_free_rank"] + 1}, code, stdout, runner.reparse)


def test_subprocess_comparison_rejects_corruption(tmp_path):
    ops, runner = cli_round(tmp_path)
    op = ops[0]
    code, stdout = runner.run(op)
    assert runner.compare_subprocess(op, code, stdout) == []
    assert runner.compare_subprocess(op, code, stdout + "\n")
    assert runner.compare_subprocess(op, code + 1, stdout)


def test_predicted_exit_codes_cover_both_outcomes(tmp_path):
    ops, runner = cli_round(tmp_path)
    codes = {op["expect_code"] for op in ops}
    assert codes == {0, 1}
    positivity = [op["expect_code"] for op in ops if op["kind"] == "positivity"]
    assert 0 in positivity and 1 in positivity
