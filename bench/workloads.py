"""Seeded problem sets for the benchmark, each with its known answers.

A workload is a directory of problem files (one entry per file) plus, beside
each file, ``<id>.expected.json`` holding the answer the entry must produce.
The seed changes the bytes of the inputs but not the work they ask for: the
order of the problem files on the command line, the names of the variables
(never their order) and, for Brieskorn-Pham polynomials, the sign rescaling
x -> -x and the order of the terms.  Variable order is kept fixed on
purpose: permuting it leaves every system's size alone but changes the
pivot order of elimination, which moved single entries by up to a third.
The answers are derived in closed form, independently of the program.

Workloads:

- ``bp-ladder``: Brieskorn-Pham polynomials f = sum x_i^p_i, whose
  b-function is known in closed form.  Each f runs at a box that certifies
  b_f; two run at a box whose b-degree is below deg b_f, so the answer must
  be "exhausted".  Time is dominated by elimination and assembly.
- ``multi-param``: pure monomial collections with r = 2 or 3.  Entries with
  every task solve r + 1 twists and must find the graph b-element; entries
  with tasks snc and zeta only exercise the hyperplane slope scan.
"""

from __future__ import annotations

import json
import os
import random
import shutil
from dataclasses import dataclass
from fractions import Fraction

WORKLOADS = ("bp-ladder", "multi-param")

BOUND_KEYS = ("order", "x_degree", "s_degree", "b_degree")

# (exponents p_i, box (order, x_degree, s_degree, b_degree)).  Boxes whose
# b-degree is at least deg b_f were checked to certify b_f; the others are
# below deg b_f, and any b found is a multiple of b_f, so they must exhaust.
# Every system stays under the solver's default 4,000,000-cell cap.
BP_RUNGS = (
    ((2, 3), (3, 3, 2, 3)),
    ((2, 3), (3, 3, 2, 2)),
    ((2, 2, 3), (3, 2, 2, 3)),
    ((3, 3), (4, 4, 3, 4)),
    ((2, 4), (4, 4, 3, 4)),
    ((2, 5), (5, 3, 3, 5)),
    ((2, 5), (5, 3, 3, 4)),
)

# (exponent matrix rows f_j, twist a, tasks).  Graph-only entries skip the
# solver, so their time is the hyperplane slope scan; r stays <= 3 because
# that scan grows as (bound + 1)^r.
MULTI_ENTRIES = (
    (((1, 1, 0), (0, 1, 1)), (1, 2), "all"),
    (((1, 1, 1), (1, 1, 0)), (1, 1), "all"),
    (((1, 0), (0, 1), (1, 1)), (1, 1, 1), "all"),
    (((1, 1, 0), (0, 1, 0), (0, 0, 1)), (1, 1, 1), "all"),
    (((1, 1, 0), (0, 1, 1), (0, 0, 1)), (1, 1, 1), "all"),
    (((2, 1, 0), (0, 1, 3), (1, 0, 1)), (1, 1, 1), ["snc", "zeta"]),
    (((2, 1, 0, 0), (0, 1, 3, 0), (1, 0, 1, 1)), (1, 1, 1), ["snc", "zeta"]),
    (((1, 0, 2), (0, 1, 1), (1, 1, 0)), (1, 1, 1), ["snc", "zeta"]),
    (((2, 0, 1, 0), (0, 2, 0, 1), (1, 1, 0, 0)), (1, 1, 1), ["snc", "zeta"]),
)

# Interchangeable variable names; position i always carries the same role.
NAME_SETS = (
    ("x", "y", "z", "w"),
    ("u", "v", "t", "q"),
    ("a", "b", "c", "e"),
    ("p", "q", "r", "t"),
    ("x1", "x2", "x3", "x4"),
    ("y1", "y2", "y3", "y4"),
)


@dataclass
class Workload:
    """Generated problem files and their expected answers."""

    name: str
    paths: list[str]
    expected: dict[str, dict]

    @property
    def expected_exit(self) -> int:
        """The CLI exits 3 when any entry is exhausted, by design."""
        return 3 if any(e["answer"] == "exhausted" for e in self.expected.values()) else 0


def _linear(normal, intercept) -> dict:
    return {"normal": list(normal), "intercept": str(Fraction(intercept))}


def bp_b_function(p) -> list[dict]:
    """Linear factors of b_f for f = sum x_i^p_i (weighted homogeneous,
    isolated singularity): (s + 1) times (s + l) over the distinct
    l = sum (m_i + 1)/p_i with 0 <= m_i <= p_i - 2."""
    ls = {Fraction(0)}
    for pi in p:
        ls = {l + Fraction(m + 1, pi) for l in ls for m in range(pi - 1)}
    return [_linear([1], 1)] + [_linear([1], l) for l in sorted(ls)]


def graph_b_element(exps, a) -> list[dict]:
    """Linear factors of the normal-crossing b-element of a monomial
    collection: over each coordinate k with column L_k != 0 and
    L_k . a > 0, the factors L_k . s + j for j = 1 .. L_k . a."""
    r, n = len(exps), len(exps[0])
    out = []
    for k in range(n):
        L = [exps[j][k] for j in range(r)]
        la = sum(w * x for w, x in zip(L, a))
        out.extend(_linear(L, j) for j in range(1, la + 1))
    return out


def _monomial(names, exps) -> str:
    return "*".join(n if e == 1 else f"{n}^{e}" for n, e in zip(names, exps) if e)


def _bp_entries(rng: random.Random) -> list[tuple[dict, dict]]:
    out = []
    for i, (p, box) in enumerate(BP_RUNGS):
        names = rng.choice(NAME_SETS)[: len(p)]
        text = ""
        for k in rng.sample(range(len(p)), len(p)):
            # x -> -x rescales x^p by (-1)^p, which keeps b_f and the system
            neg = rng.random() < 0.5 and p[k] % 2 == 1
            mono = f"{names[k]}^{p[k]}"
            if text:
                text += (" - " if neg else " + ") + mono
            else:
                text = ("-" if neg else "") + mono
        b_f = bp_b_function(p)
        entry_id = f"bp{i}_" + "_".join(str(x) for x in p) + "_b" + str(box[3])
        entry = {
            "id": entry_id,
            "variables": list(names),
            "F": [text],
            "a": [1],
            "bounds": dict(zip(BOUND_KEYS, box)),
            "tasks": ["bs-find", "bs-verify", "decompose"],
        }
        if box[3] >= len(b_f):
            expected = {"answer": "b", "b_factors": b_f}
        else:
            expected = {"answer": "exhausted", "b_f_factors": b_f}
        out.append((entry, expected))
    return out


def _multi_entries(rng: random.Random) -> list[tuple[dict, dict]]:
    out = []
    for i, (exps, a, tasks) in enumerate(MULTI_ENTRIES):
        r, n = len(exps), len(exps[0])
        names = list(rng.choice(NAME_SETS)[:n])
        comps = [
            {"L": [exps[j][k] for j in range(r)], "chi": 0}
            for k in range(n)
            if any(exps[j][k] for j in range(r))
        ]
        # the closed-form operator prod_k d_k^(L_k . a) has this order
        degree = sum(sum(c["L"][j] * a[j] for j in range(r)) for c in comps)
        entry = {
            "id": f"mp{i}_r{r}_n{n}",
            "variables": names,
            "F": [_monomial(names, row) for row in exps],
            "a": a,
            "bounds": dict(zip(BOUND_KEYS, (degree, 0, 0, degree))),
            "resolution_graph": {"r": r, "components": comps},
            "tasks": tasks,
        }
        out.append((entry, {"answer": "b", "b_factors": graph_b_element(exps, a)}))
    return out


def generate(name: str, seed: int, out_dir: str) -> Workload:
    """Write the workload's problem files under out_dir (emptied first)."""
    rng = random.Random(f"{name}:{seed}")
    if name == "bp-ladder":
        pairs = _bp_entries(rng)
    elif name == "multi-param":
        pairs = _multi_entries(rng)
    else:
        raise ValueError(f"unknown workload {name!r}")
    rng.shuffle(pairs)
    shutil.rmtree(out_dir, ignore_errors=True)
    os.makedirs(out_dir)
    paths = []
    expected = {}
    for entry, answer in pairs:
        path = os.path.join(out_dir, f"{entry['id']}.json")
        _write_json(path, entry)
        _write_json(os.path.join(out_dir, f"{entry['id']}.expected.json"), answer)
        paths.append(path)
        expected[entry["id"]] = answer
    return Workload(name, paths, expected)


def _write_json(path: str, obj) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(json.dumps(obj, sort_keys=True, indent=2) + "\n")
