"""Acceptance gate: one test per numbered criterion, exact arithmetic only.

Each test prints a single "Cnn <slug>: PASS" line when it holds; any
failure trips an assert carrying the criterion name.
"""

import random
from fractions import Fraction

import pytest

from bsideal.cli import EntryRunner, ProblemSpec, canonical_json, corpus_paths, load_specs, main
from bsideal.hyperplanes import (
    Hyperplane,
    check_translation_union,
    extract_hyperplanes,
    structure_report,
)
from bsideal.polynomials import parse_poly, s_names
from bsideal.snc import (
    graph_from_exponents,
    mon_zeta,
    reweight,
    sabbah_specialize,
    slope_set,
    snc_b_element,
    snc_certificate,
)
from bsideal.solver import SolveBounds, find_bs_pair, sample_ideal, verify
from bsideal.torus import check_axis_union, exp_image, union_equal
from bsideal.weyl import GermContext, WeylOperator


def verdict(label, ok):
    print(f"{label}: {'PASS' if ok else 'FAIL'}")
    assert ok, label


def make_ctx(names, f_texts):
    F = [parse_poly(t, list(names)) for t in f_texts]
    return GermContext(names, s_names(len(F)), F)


def make_spec(sid, variables, F, a, order, graph=None):
    data = {
        "id": sid,
        "variables": variables,
        "F": F,
        "a": list(a),
        "bounds": {"order": order, "x_degree": 0, "s_degree": 0, "b_degree": order},
        "tasks": ["bs-find"],
    }
    if graph is not None:
        data["resolution_graph"] = graph
    return ProblemSpec(data, sid)


def hyps_of(b):
    pairs, _ = extract_hyperplanes(b)
    return [h for h, _ in pairs]


X_XY_GRAPH = {"r": 2, "components": [{"L": [1, 1], "chi": 0}, {"L": [0, 1], "chi": 0}]}
X_Y_GRAPH = {"r": 2, "components": [{"L": [1, 0], "chi": 0}, {"L": [0, 1], "chi": 0}]}


def test_c01_oracle_soundness():
    # every certificate the pipeline emits on the corpus re-verifies exactly
    ok = True
    for spec in load_specs(corpus_paths()):
        certs = sample_ideal(spec.ctx, spec.a, spec.bounds)
        ok = ok and bool(certs)
        for _, cert in certs:
            ok = ok and verify(cert)
        exps = EntryRunner(spec)._monomial_exponents()
        if exps is not None:
            cert = snc_certificate(exps, spec.a, spec.variables)
            ok = ok and verify(cert)
    verdict("C01 oracle-soundness", ok)


def test_c02_classical_b_functions():
    ok = True

    ctx = make_ctx(["x"], ["x"])
    cert = find_bs_pair(ctx, (1,), SolveBounds(1, 0, 0, 1))
    ok = ok and cert.b == parse_poly("s + 1", ["s"]) and verify(cert)

    cert = find_bs_pair(ctx, (2,), SolveBounds(2, 0, 0, 2))
    ok = ok and cert.b == parse_poly("(s + 1)*(s + 2)", ["s"]) and verify(cert)

    ctx = make_ctx(["x", "y"], ["x^2 + y^2"])
    cert = find_bs_pair(ctx, (1,), SolveBounds(2, 0, 0, 2))
    quarter = Fraction(1, 4)
    laplacian_over_4 = (
        WeylOperator.d_power(2, 1, (2, 0)).scale(quarter)
        + WeylOperator.d_power(2, 1, (0, 2)).scale(quarter)
    )
    ok = ok and cert.b == parse_poly("(s + 1)^2", ["s"])
    ok = ok and cert.P == laplacian_over_4 and verify(cert)

    ctx = make_ctx(["x", "y"], ["x", "y"])
    cert = find_bs_pair(ctx, (1, 1), SolveBounds(2, 0, 0, 2))
    ok = ok and cert.b == parse_poly("(s1 + 1)*(s2 + 1)", ["s1", "s2"]) and verify(cert)

    verdict("C02 classical-b-functions", ok)


def test_c03_structure_predicate():
    ok = True
    for spec in load_specs(corpus_paths()):
        for _, cert in sample_ideal(spec.ctx, spec.a, spec.bounds):
            rep = structure_report(hyps_of(cert.b), spec.a)
            ok = ok and rep.verdicts and rep.all_pass

    rng = random.Random(20260819)
    done = attempts = 0
    while done < 20:
        attempts += 1
        assert attempts < 2000, "sampler starved"
        r = rng.randint(1, 3)
        n = rng.randint(1, 4)
        mat = [[rng.choice((0, 0, 1, 1, 2, 3)) for _ in range(n)] for _ in range(r)]
        a = [rng.choice((0, 1)) for _ in range(r)]
        a[rng.randrange(r)] = 1
        active = [
            k for k in range(n) if any(mat[i][k] and a[i] for i in range(r))
        ]
        if not active:
            continue
        graph = graph_from_exponents(mat)
        # keep the b-element desk-sized
        factors = sum(
            sum(w * x for w, x in zip(c.weights, a)) for c in graph.components
        )
        if factors > 10:
            continue
        pairs, rem = extract_hyperplanes(snc_b_element(graph, a))
        rep = structure_report([h for h, _ in pairs], a)
        ok = ok and rep.verdicts and rep.all_pass and rem.is_constant()
        done += 1
    verdict("C03 structure-predicate", ok)


def test_c04_snc_formula_consistency():
    ok = True
    rng = random.Random(97)
    done = attempts = 0
    while done < 50:
        attempts += 1
        assert attempts < 5000, "sampler starved"
        r = rng.randint(1, 3)
        n = rng.randint(1, 3)
        mat = [[rng.choice((0, 0, 1, 1, 2)) for _ in range(n)] for _ in range(r)]
        if any(all(v == 0 for v in row) for row in mat):
            continue
        a = [rng.choice((0, 1, 2)) for _ in range(r)]
        a[rng.randrange(r)] = rng.choice((1, 2))
        # operator order = sum of pullback exponents; keep verification quick
        order = sum(a[j] * mat[j][k] for j in range(r) for k in range(n))
        if order > 10:
            continue
        graph = graph_from_exponents(mat)
        cert = snc_certificate(mat, a)
        ok = ok and verify(cert) and cert.b == snc_b_element(graph, a)
        pairs, rem = extract_hyperplanes(cert.b)
        ok = ok and {h.normal for h, _ in pairs} == set(slope_set(graph, a))
        ok = ok and all(h.intercept > 0 for h, _ in pairs) and rem.is_constant()
        done += 1
    verdict("C04 snc-formula-consistency", ok)


def test_c05_translation_identity():
    ok = True

    ctx = make_ctx(["x"], ["x"])
    single = hyps_of(find_bs_pair(ctx, (1,), SolveBounds(1, 0, 0, 1)).b)
    for l in (1, 2, 3):
        multi = hyps_of(find_bs_pair(ctx, (l,), SolveBounds(l, 0, 0, l)).b)
        ok = ok and check_translation_union(multi, single, 0, l)

    ctx = make_ctx(["x", "y"], ["x", "x*y"])
    for axis in (0, 1):
        e = tuple(1 if i == axis else 0 for i in range(2))
        single = hyps_of(find_bs_pair(ctx, e, SolveBounds(2, 0, 0, 2)).b)
        for l in (1, 2, 3):
            a = tuple(l if i == axis else 0 for i in range(2))
            multi = hyps_of(find_bs_pair(ctx, a, SolveBounds(2 * l, 0, 0, 2 * l)).b)
            ok = ok and check_translation_union(multi, single, axis, l)

    verdict("C05 translation-identity", ok)


def exp_runner(sid, variables, F, graph):
    spec = make_spec(sid, variables, F, [1] * 2, 3, graph)
    return EntryRunner(spec)


def test_c06_axis_union_identities():
    ok = True
    cases = (
        exp_runner("acc_x_xy", ["x", "y"], ["x", "x*y"], X_XY_GRAPH),
        exp_runner("acc_x_y", ["x", "y"], ["x", "y"], X_Y_GRAPH),
    )
    axes = ((1, 0), (0, 1))
    for runner in cases:
        for a in ((0, 1), (1, 0), (1, 1)):
            per_axis = {i: runner.exp_set(axes[i]) for i in range(2) if a[i]}
            ok = ok and check_axis_union(per_axis, runner.exp_set(a), a)
            pooled = [c for i in sorted(per_axis) for c in runner.loci(axes[i])]
            ok = ok and union_equal(runner.loci(a), pooled)
    verdict("C06 axis-union-identities", ok)


def test_c07_support_matches_exp():
    runner = exp_runner("acc_x_xy7", ["x", "y"], ["x", "x*y"], X_XY_GRAPH)
    ok = True
    for a in ((1, 0), (0, 1), (1, 1)):
        ok = ok and union_equal(runner.exp_set(a), runner.loci(a))
    verdict("C07 support-matches-exp", ok)


def test_c08_zeta_specialization():
    ok = True
    rng = random.Random(561)
    for _ in range(20):
        r = rng.randint(1, 3)
        comps = []
        for _ in range(rng.randint(1, 4)):
            w = [rng.randint(0, 3) for _ in range(r)]
            if all(v == 0 for v in w):
                w[rng.randrange(r)] = rng.randint(1, 3)
            comps.append({"L": w, "chi": rng.randint(-2, 2)})
        graph = graph_from_exponents(
            [[c["L"][j] for c in comps] for j in range(r)],
            [c["chi"] for c in comps],
        )
        m = [rng.randint(1, 4) for _ in range(r)]
        ok = ok and sabbah_specialize(mon_zeta(graph), m) == mon_zeta(reweight(graph, m))
    verdict("C08 zeta-specialization", ok)


def test_c09_exp_shift_invariance():
    ok = True
    rng = random.Random(1729)
    for _ in range(25):
        r = rng.randint(1, 3)
        normal = [rng.randint(0, 4) for _ in range(r)]
        if all(v == 0 for v in normal):
            normal[rng.randrange(r)] = rng.randint(1, 4)
        h = Hyperplane.canonical(normal, Fraction(rng.randint(1, 9), rng.randint(1, 4)))
        k = [rng.randint(-10, 10) for _ in range(r)]
        ok = ok and exp_image(h.translate(k)) == exp_image(h)
    verdict("C09 exp-shift-invariance", ok)


def test_c10_determinism(capsys):
    code1 = main(["run", "--seed-corpus", "--json"])
    out1 = capsys.readouterr().out
    code2 = main(["run", "--seed-corpus", "--json"])
    out2 = capsys.readouterr().out
    ok = code1 == code2 == 0 and out1 == out2 and out1
    golden = main(["run", "--seed-corpus", "--check-golden"])
    capsys.readouterr()
    ok = bool(ok) and golden == 0
    verdict("C10 determinism", ok)
