"""sympy re-checks printed certificates: P * f^(s+a) = b * f^s.

Each certificate is read from a `bsideal run --json` report.  F, b and P
are parsed from their printed strings, P is applied to
prod f_i^(s_i + a_i) with `sympy.diff`, and the result divided by
prod f_i^(s_i) must be b.  No arithmetic of the package is involved, so
this checks `verify` and the printed forms of b and P at once.

The symbols carry no assumptions: with positive=True sympy would split
(x^2)^s into x^(2s), and the powers of f_i could no longer be told apart.
"""

import importlib.util
import json
import math
import os
import sys

import pytest

sympy = pytest.importorskip("sympy")

from bsideal.cli import EXIT_BOUNDS, EXIT_OK, main  # noqa: E402
from bsideal.polynomials import s_names  # noqa: E402

WORKLOADS = os.path.join(os.path.dirname(__file__), os.pardir, "bench", "workloads.py")

# the graph-only entries of the multi-param benchmark workload: the rows of
# the exponent matrix (one f_j each) and the twist a
GRAPH_ONLY = (
    (((2, 1, 0), (0, 1, 3), (1, 0, 1)), (1, 1, 1)),
    (((2, 1, 0, 0), (0, 1, 3, 0), (1, 0, 1, 1)), (1, 1, 1)),
    (((1, 0, 2), (0, 1, 1), (1, 1, 0)), (1, 1, 1)),
    (((2, 0, 1, 0), (0, 2, 0, 1), (1, 1, 0, 0)), (1, 1, 1)),
)
NAMES = ("x", "y", "z", "w")


def report(argv, capsys, exit_code=EXIT_OK) -> list[dict]:
    assert main(["run", "--json", *argv]) == exit_code
    return json.loads(capsys.readouterr().out)["entries"]


def printed_certificates(entries) -> list[tuple[str, list[str], dict]]:
    """(label, variables, certificate) for every certificate the entries print."""
    out = []
    for entry in entries:
        results = entry["results"]
        for cert in results.get("bs-find", {}).get("certificates", []):
            out.append((f"{entry['id']}/bs-find", entry["variables"], cert))
        if results.get("snc", {}).get("certificate"):
            out.append((f"{entry['id']}/snc", entry["variables"], results["snc"]["certificate"]))
    return out


def holds(variables, cert, flip_sign=False) -> bool:
    """Whether P * prod f_i^(s_i + a_i) = b * prod f_i^(s_i) for the
    printed F, P and b; with flip_sign, for P with its first term negated."""
    r = len(cert["F"])
    table = {
        n: sympy.Symbol(n)
        for n in (*variables, *s_names(r), *("d" + v for v in variables))
    }

    def parse(text):
        return sympy.sympify(text.replace("^", "**"), locals=table)

    xs = [table[v] for v in variables]
    ss = [table[n] for n in s_names(r)]
    F = [parse(f) for f in cert["F"]]
    P = parse(cert["P"])
    if flip_sign:
        P -= 2 * sympy.Add.make_args(sympy.expand(P))[0]
    power = math.prod(f ** (s + ai) for f, s, ai in zip(F, ss, cert["a"]))
    total = sympy.Integer(0)
    for beta, coeff in sympy.Poly(P, *(table["d" + v] for v in variables)).terms():
        term = power
        for x, k in zip(xs, beta):
            if k:
                term = sympy.diff(term, x, k)
        total += coeff * term
    # f_i^(s_i + c) -> f_i^c * T_i: b is what is left after dividing by the T_i
    T = [sympy.Dummy(f"T{i}") for i in range(r)]
    for f, s, t in zip(F, ss, T):
        total = total.replace(
            lambda e, f=f, s=s: e.is_Pow and e.base == f and (e.exp - s).is_Integer,
            lambda e, f=f, s=s, t=t: f ** (e.exp - s) * t,
        )
    return sympy.expand(sympy.cancel(total / math.prod(T)) - parse(cert["b"])) == 0


def graph_only_entries(tmp_path) -> list[str]:
    paths = []
    for k, (rows, a) in enumerate(GRAPH_ONLY):
        names = NAMES[: len(rows[0])]
        F = [
            "*".join(f"{v}^{e}" for v, e in zip(names, row) if e) for row in rows
        ]
        graph = [{"L": list(col)} for col in zip(*rows)]
        entry = {
            "id": f"graph_only_{k}",
            "variables": list(names),
            "F": F,
            "a": list(a),
            "bounds": {"order": 1, "x_degree": 0, "s_degree": 0, "b_degree": 1},
            "resolution_graph": {"r": len(rows), "components": graph},
            "tasks": ["snc"],
        }
        path = tmp_path / f"{entry['id']}.json"
        path.write_text(json.dumps(entry), encoding="utf-8")
        paths.append(str(path))
    return paths


def test_every_printed_corpus_certificate_holds(capsys):
    certs = printed_certificates(report(["--seed-corpus"], capsys))
    assert len(certs) == 17
    failed = [label for label, variables, cert in certs if not holds(variables, cert)]
    assert failed == []


def test_graph_only_closed_forms_hold(tmp_path, capsys):
    certs = printed_certificates(report(graph_only_entries(tmp_path), capsys))
    assert len(certs) == len(GRAPH_ONLY)
    failed = [label for label, variables, cert in certs if not holds(variables, cert)]
    assert failed == []


def test_the_check_rejects_a_wrong_b_or_a_flipped_sign(capsys):
    certs = printed_certificates(report(["--seed-corpus"], capsys))
    for label, variables, cert in certs:
        assert not holds(variables, {**cert, "b": cert["b"] + " + 1"}), label
        assert not holds(variables, cert, flip_sign=True), label


def load_workloads(monkeypatch):
    if not os.path.exists(WORKLOADS):
        pytest.skip("bench/workloads.py is not part of this checkout")
    spec = importlib.util.spec_from_file_location("bench_workloads", WORKLOADS)
    module = importlib.util.module_from_spec(spec)
    # @dataclass looks its module up in sys.modules
    monkeypatch.setitem(sys.modules, spec.name, module)
    spec.loader.exec_module(module)
    return module


# bp-ladder exits 3 by design: two of its rungs run in a box too small for b_f
@pytest.mark.parametrize(
    "workload, exit_code, count",
    [("bp-ladder", EXIT_BOUNDS, 5), ("multi-param", EXIT_OK, 14)],
)
def test_every_printed_benchmark_certificate_holds(
    workload, exit_code, count, tmp_path, capsys, monkeypatch
):
    wl = load_workloads(monkeypatch).generate(workload, 1, str(tmp_path / workload))
    certs = printed_certificates(report(wl.paths, capsys, exit_code))
    assert len(certs) == count
    failed = [label for label, variables, cert in certs if not holds(variables, cert)]
    assert failed == []
