"""Correctness gate: judge each entry of a JSON report against its known answer.

Polynomials in the report are read with a small parser of the canonical
text form (``c*s1^2*s2 + ...``) and compared with answers expanded here from
their linear factors, so the check does not rely on the program's own
polynomial code.
"""

from __future__ import annotations

import json
from fractions import Fraction

Poly = dict[tuple[int, ...], Fraction]


def s_names(r: int) -> list[str]:
    return ["s"] if r == 1 else [f"s{i + 1}" for i in range(r)]


def parse_text(text: str, names: list[str]) -> Poly:
    """Read the canonical text form: terms joined by ' + ' and ' - '."""
    out: Poly = {}
    index = {n: i for i, n in enumerate(names)}
    for chunk in text.replace(" - ", " + -").split(" + "):
        coeff = Fraction(1)
        if chunk.startswith("-"):
            coeff, chunk = Fraction(-1), chunk[1:]
        exps = [0] * len(names)
        for factor in chunk.split("*"):
            name, _, power = factor.partition("^")
            if name in index:
                exps[index[name]] += int(power or 1)
            else:
                coeff *= Fraction(factor)
        key = tuple(exps)
        out[key] = out.get(key, Fraction(0)) + coeff
    return {k: v for k, v in out.items() if v}


def expand(factors: list[dict]) -> Poly:
    """Product of linear forms normal . s + intercept."""
    r = len(factors[0]["normal"])
    out: Poly = {(0,) * r: Fraction(1)}
    for f in factors:
        terms = {(0,) * r: Fraction(f["intercept"])}
        for i, v in enumerate(f["normal"]):
            if v:
                terms[tuple(int(k == i) for k in range(r))] = Fraction(v)
        nxt: Poly = {}
        for e1, c1 in out.items():
            for e2, c2 in terms.items():
                e = tuple(x + y for x, y in zip(e1, e2))
                nxt[e] = nxt.get(e, Fraction(0)) + c1 * c2
        out = {k: v for k, v in nxt.items() if v}
    return out


def equal_up_to_scalar(got: Poly, want: Poly) -> bool:
    if not got or got.keys() != want.keys():
        return False
    k = next(iter(want))
    scale = got[k] / want[k]
    return all(got[m] == scale * c for m, c in want.items())


def canonical_json(obj) -> str:
    return json.dumps(obj, sort_keys=True, indent=2) + "\n"


def judge_entry(entry: dict, expected: dict) -> list[str]:
    """Reasons the entry disagrees with its known answer; empty when it agrees."""
    answer = expected["answer"]
    results = entry.get("results", {})
    if answer == "exhausted":
        if entry.get("error") != "no-solution-within-bounds":
            return ["expected exhaustion, got an answer"]
        if not entry.get("error_detail", "").startswith("no operator within bounds"):
            return [f"exhausted for another reason: {entry.get('error_detail')}"]
        return []
    problems = []
    if "error" in entry:
        return [f"unexpected {entry['error']}: {entry.get('error_detail')}"]
    if not entry.get("ok"):
        problems.append("entry not ok")
    want = expand(expected["b_factors"])
    names = s_names(len(entry["a"]))
    compared = 0
    for task, key in (("bs-find", "canonical_b"), ("snc", "b_element")):
        if task in results:
            compared += 1
            if not equal_up_to_scalar(parse_text(results[task][key], names), want):
                problems.append(f"{task} {key} differs from the known b")
    if "bs-verify" in results and not results["bs-verify"]["ok"]:
        problems.append("verify failed")
    if not compared:
        problems.append("no b to compare")
    return problems


def judge_report(report: dict, expected: dict[str, dict]) -> dict[str, list[str]]:
    """Problems per entry id; ids missing from the report count as failed."""
    seen = {e["id"]: e for e in report.get("entries", [])}
    out = {}
    for entry_id, answer in expected.items():
        if entry_id not in seen:
            out[entry_id] = ["missing from report"]
            continue
        try:
            out[entry_id] = judge_entry(seen[entry_id], answer)
        except (KeyError, TypeError, ValueError, ZeroDivisionError) as exc:
            out[entry_id] = [f"malformed entry: {exc!r}"]
    for entry_id in seen.keys() - expected.keys():
        out[entry_id] = ["not in the workload"]
    return out
