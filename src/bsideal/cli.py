"""Batch front-end: load problem descriptions, run the requested pipelines,
and emit a deterministic verification report.

Problem files are JSON objects:

    {
      "id": "x_xy_a11",
      "variables": ["x", "y"],
      "F": ["x", "x*y"],
      "a": [1, 1],
      "bounds": {"order": 3, "x_degree": 0, "s_degree": 0, "b_degree": 3},
      "resolution_graph": {"r": 2, "components": [{"L": [1, 1], "chi": 0},
                                                  {"L": [0, 1], "chi": 0}]},
      "tasks": "all"
    }

tasks is "all" or a subset of bs-find, bs-verify, decompose, snc, zeta,
exp-compare; prerequisites (bs-find) are added automatically and the
effective list is echoed in the report.  snc and zeta require a
resolution_graph; exp-compare uses one when present for the support-locus
comparisons and otherwise only checks the per-axis union identity.

Exit codes: 0 all checks pass, 1 a check failed, 2 usage or parse error,
3 solver bounds exhausted.  Reports are byte-identical across runs.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from typing import Any, Sequence

from .hyperplanes import Hyperplane, extract_hyperplanes
from .polynomials import (
    MAX_PARSE_BITS,
    MPoly,
    PolyParseError,
    exceeds_parse_bits,
    format_poly,
    format_terms,
    grlex_key,
    parse_poly,
    power_size,
    s_names,
    scalar_text,
)
from .snc import (
    MonZeta,
    ResolutionGraph,
    b_element_size,
    mon_zeta,
    reweight,
    sabbah_specialize,
    slope_set,
    snc_b_element,
    snc_certificate,
    snc_degree,
    snc_factors,
    support_loci,
    support_loci_size,
)
from .solver import (
    BSCertificate,
    SolveBounds,
    SolveCapExceeded,
    sample_ideal,
    verify,
)
from .torus import TorusCoset, check_axis_union, exp_image, union_equal
from .weyl import GermContext, Operator

TASKS = ("bs-find", "bs-verify", "decompose", "snc", "zeta", "exp-compare")
NEEDS_FIND = {"bs-verify", "decompose", "exp-compare"}
NEEDS_GRAPH = {"snc", "zeta"}
BOUND_KEYS = ("order", "x_degree", "s_degree", "b_degree")
# report keys of Hyperplane.structure_flags, in its order
STRUCTURE_FLAGS = ("slopes_nonnegative", "intercept_positive", "has_active_index")

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_USAGE = 2
EXIT_BOUNDS = 3


class SpecError(Exception):
    """Problem description rejected; the message names the offending field."""


class NoSolutionError(Exception):
    """Solver bounds exhausted for one entry."""


def corpus_dir() -> str:
    return os.path.join(os.path.dirname(__file__), "corpus")


def golden_dir() -> str:
    return os.path.join(corpus_dir(), "golden")


def canonical_json(obj: Any) -> str:
    return json.dumps(obj, sort_keys=True, indent=2) + "\n"


class ProblemSpec:
    def __init__(self, data: dict, where: str):
        if not isinstance(data, dict):
            raise SpecError(f"{where}: entry must be a JSON object")
        self.id = data.get("id")
        if not isinstance(self.id, str) or not self.id or any(
            not (c.isascii() and c.isalnum() or c in "_-") for c in self.id
        ):
            raise SpecError(f"{where}: 'id' must be a [A-Za-z0-9_-]+ string")
        where = f"{where}[{self.id}]"

        variables = data.get("variables")
        if (
            not isinstance(variables, list)
            or not variables
            or any(not isinstance(v, str) or not v.isidentifier() for v in variables)
            or len(set(variables)) != len(variables)
        ):
            raise SpecError(f"{where}: 'variables' must be distinct identifiers")
        self.variables = [str(v) for v in variables]

        ftexts = data.get("F")
        if not isinstance(ftexts, list) or not ftexts or any(
            not isinstance(t, str) for t in ftexts
        ):
            raise SpecError(f"{where}: 'F' must be a nonempty list of strings")
        self.F_texts = [str(t) for t in ftexts]
        try:
            self.F = [parse_poly(t, self.variables) for t in self.F_texts]
        except PolyParseError as exc:
            raise SpecError(f"{where}: bad polynomial in 'F': {exc}") from exc
        if any(p.is_zero() for p in self.F):
            raise SpecError(f"{where}: entries of 'F' must be nonzero")
        self.r = len(self.F)
        clashes = set(self.variables) & (
            set(s_names(self.r)) | {"d" + v for v in self.variables}
        )
        if clashes:
            raise SpecError(
                f"{where}: 'variables' {sorted(clashes)} clash with the "
                "report's parameter or derivative names"
            )

        a = data.get("a")
        if (
            not isinstance(a, list)
            or len(a) != self.r
            or any(type(x) is not int or x < 0 for x in a)
        ):
            raise SpecError(f"{where}: 'a' must be {self.r} nonnegative integers")
        self.a = tuple(a)
        if all(x == 0 for x in self.a):
            raise SpecError(f"{where}: 'a' must have a nonzero entry")
        # f^a is multiplied out before any solver limit applies: size it here
        sizes = [power_size(f, ai) for f, ai in zip(self.F, self.a)]
        if exceeds_parse_bits(math.prod(t for t, _ in sizes), sum(h for _, h in sizes)):
            raise SpecError(
                f"{where}: 'a' is too large: f^a may exceed {MAX_PARSE_BITS} coefficient bits"
            )

        bounds = data.get("bounds")
        if not isinstance(bounds, dict) or set(bounds) != set(BOUND_KEYS) or any(
            type(bounds[k]) is not int or bounds[k] < 0 for k in BOUND_KEYS
        ):
            raise SpecError(
                f"{where}: 'bounds' must map {', '.join(BOUND_KEYS)} to integers >= 0"
            )
        self.bounds = SolveBounds(
            bounds["order"], bounds["x_degree"], bounds["s_degree"], bounds["b_degree"]
        )

        self.graph: ResolutionGraph | None = None
        if "resolution_graph" in data and data["resolution_graph"] is not None:
            try:
                self.graph = ResolutionGraph.from_json_dict(data["resolution_graph"])
            except ValueError as exc:
                raise SpecError(f"{where}: bad 'resolution_graph': {exc}") from exc
            if self.graph.r != self.r:
                raise SpecError(
                    f"{where}: resolution_graph has r={self.graph.r}, expected {self.r}"
                )
            bare = [
                i for i, ai in enumerate(self.a)
                if ai and all(c.weights[i] == 0 for c in self.graph.components)
            ]
            if bare:
                raise SpecError(
                    f"{where}: 'resolution_graph' has no component carrying "
                    f"f_{bare[0] + 1}, but a[{bare[0]}] != 0"
                )

        tasks = data.get("tasks", "all")
        if tasks == "all":
            wanted = set(TASKS)
        elif isinstance(tasks, list) and all(isinstance(t, str) for t in tasks):
            wanted = set(tasks)
            unknown = wanted - set(TASKS)
            if unknown:
                raise SpecError(f"{where}: unknown tasks {sorted(unknown)}")
            if not wanted:
                raise SpecError(f"{where}: 'tasks' must not be empty")
        else:
            raise SpecError(f"{where}: 'tasks' must be \"all\" or a list of task names")
        if wanted & NEEDS_FIND:
            wanted.add("bs-find")
        missing_graph = (wanted & NEEDS_GRAPH) if self.graph is None else set()
        if missing_graph:
            raise SpecError(
                f"{where}: tasks {sorted(missing_graph)} require a resolution_graph"
            )
        self.tasks = [t for t in TASKS if t in wanted]
        # what the graph expands to is known now: refuse it here, under the
        # parser's rule, rather than hang multiplying it out or listing it
        if self.graph is not None:
            for task, size, what in (
                ("snc", b_element_size, "b-element"),
                ("exp-compare", support_loci_size, "support loci"),
            ):
                if task in wanted and exceeds_parse_bits(*size(self.graph, self.a)):
                    raise SpecError(
                        f"{where}: 'resolution_graph' is too large for {task}: "
                        f"its {what} may exceed {MAX_PARSE_BITS} coefficient bits"
                    )

        extra = set(data) - {
            "id", "variables", "F", "a", "bounds", "resolution_graph", "tasks",
        }
        if extra:
            raise SpecError(f"{where}: unknown fields {sorted(extra)}")

        self.ctx = GermContext(self.variables, self.F)
        for i, ai in enumerate(self.a):
            if ai and self.ctx.invertible_power(self._axis(i)):
                raise SpecError(
                    f"{where}: f_{i + 1} is a nonzero constant but a[{i}] != 0"
                )

    def _axis(self, i: int) -> tuple[int, ...]:
        e = [0] * self.r
        e[i] = 1
        return tuple(e)


def load_specs(paths: Sequence[str]) -> list[ProblemSpec]:
    specs = []
    seen: dict[str, str] = {}
    for path in paths:
        try:
            with open(path, "r", encoding="utf-8") as fh:
                data = json.load(fh)
        except OSError as exc:
            raise SpecError(f"{path}: cannot read: {exc}") from exc
        except ValueError as exc:  # bad JSON, not UTF-8, or an over-long integer
            raise SpecError(f"{path}: invalid JSON: {exc}") from exc
        except RecursionError as exc:
            raise SpecError(f"{path}: invalid JSON: nested too deeply") from exc
        entries = data if isinstance(data, list) else [data]
        for entry in entries:
            spec = ProblemSpec(entry, os.path.basename(path))
            if spec.id in seen:
                raise SpecError(
                    f"duplicate entry id '{spec.id}' ({seen[spec.id]} and {path})"
                )
            seen[spec.id] = path
            specs.append(spec)
    if not specs:
        raise SpecError(f"no problem entries in {', '.join(paths)}")
    return specs


def corpus_paths() -> list[str]:
    cdir = corpus_dir()
    try:
        names = sorted(
            n for n in os.listdir(cdir)
            if n.endswith(".json") and not n.endswith(".golden.json")
        )
    except OSError as exc:
        raise SpecError(f"bundled corpus unavailable: {exc}") from exc
    if not names:
        raise SpecError("bundled corpus is empty")
    return [os.path.join(cdir, n) for n in names]


# report shapes and texts --------------------------------------------------


def format_operator(op: Operator, x_names: Sequence[str], s_vars: Sequence[str]) -> str:
    """Canonical text form: each Q_beta split into c(s) * x^alpha terms,
    printed by descending (beta, alpha) with d_j as dx etc."""
    n, ns = len(x_names), len(s_vars)
    names = [*x_names, *("d" + x for x in x_names)]
    chunks: list[str] = []
    one = [((0,) * ns, 1)]
    for beta in sorted(op, key=grlex_key, reverse=True):
        split: dict[tuple[int, ...], list] = {}
        for e, k in op[beta].sorted_terms():
            split.setdefault(e[:n], []).append((e[n:], k))
        for alpha in sorted(split, key=grlex_key, reverse=True):
            # c(s), in descending graded lex: its terms keep their order
            c = split[alpha]
            ctext = format_terms(c, s_vars)
            if not any(alpha + beta):
                body = f"({ctext})" if len(c) > 1 else ctext
            else:
                body = format_terms([(alpha + beta, 1)], names)
                if c != one:
                    lead = f"({ctext})" if (len(c) > 1 or ctext.startswith("-")) else ctext
                    body = f"{lead}*{body}"
            chunks.append(body if not chunks else f"+ {body}")
    return " ".join(chunks) or "0"


def certificate_json(cert: BSCertificate) -> dict:
    xn, sn = list(cert.ctx.x_names), s_names(cert.ctx.r)
    return {
        "F": [format_poly(f, xn + sn) for f in cert.ctx.F],
        "a": list(cert.a),
        "b": format_poly(cert.b, sn),
        "P": format_operator(cert.P, xn, sn),
    }


def coset_json(c: TorusCoset) -> dict:
    lhs = format_terms([(c.v, 1)], [f"L{i + 1}" for i in range(len(c.v))])
    t = c.theta
    return {
        "binding": [{"v": list(c.v), "theta": f"{t.numerator}/{t.denominator}"}],
        "text": "{" + (f"{lhs} = e(2*pi*i*{t})" if t else f"{lhs} = 1") + "}",
    }


def _cosets_json(cosets) -> list[dict]:
    return [coset_json(c) for c in sorted(set(cosets))]


def zeta_json(z: MonZeta) -> dict:
    names = ["t"] if z.r == 1 else [f"t{i + 1}" for i in range(z.r)]
    return {
        "factors": [{"v": list(v), "exp": e} for v, e in z.factors],
        "text": " * ".join(
            f"(1 - {format_terms([(v, 1)], names)})^{e}" for v, e in z.factors
        ) or "1",
    }


def _hyperplanes_json(
    pairs: list[tuple[Hyperplane, int]], a: tuple[int, ...]
) -> tuple[list[dict], bool]:
    """Report rows for sorted (hyperplane, multiplicity) pairs, and whether
    every hyperplane passes the structure checks for twist a."""
    rows = []
    for h, mult in pairs:
        flags = h.structure_flags(a)
        rows.append({
            "normal": list(h.normal),
            "intercept": scalar_text(h.intercept),
            "text": format_poly(h.poly(), s_names(len(h.normal))),
            "multiplicity": mult,
            **dict(zip(STRUCTURE_FLAGS, flags)),
            "passes": all(flags),
        })
    return rows, all(row["passes"] for row in rows)


def _proportional(p: MPoly, q: MPoly) -> bool:
    """Whether the nonzero p and q agree up to a scalar factor."""
    lead_p, lead_q = (f.terms[max(f.terms, key=grlex_key)] for f in (p, q))
    return p * lead_q == q * lead_p


class EntryRunner:
    """Executes one entry's tasks; memoizes one solve per twist vector and
    one factorization per distinct b."""

    def __init__(self, spec: ProblemSpec):
        self.spec = spec
        self._certs: dict[tuple[int, ...], tuple] = {}
        self._factors: dict[MPoly, tuple] = {}

    def certificate(self, a: tuple[int, ...]) -> tuple[str, BSCertificate]:
        """(strategy name, canonical certificate) for twist a."""
        if a not in self._certs:
            try:
                found = sample_ideal(self.spec.ctx, a, self.spec.bounds)
            except SolveCapExceeded as exc:
                raise NoSolutionError(str(exc)) from exc
            if not found:
                raise NoSolutionError(
                    f"no operator within bounds for a={list(a)}"
                )
            (self._certs[a],) = found
        return self._certs[a]

    def ideal_hyperplanes(self, a: tuple[int, ...]):
        """The canonical b for twist a as sorted (hyperplane, multiplicity)
        pairs, and whether a nonconstant factor is left over.

        With a graph whose b-element for a has degree at most deg b, its
        hyperplanes are divided out first and the search runs on what is
        left; the pairs are b's factors either way.
        Z(B_F^a) lies in Z(b), so these hyperplanes over-approximate its
        codimension-one part; they are exact when b generates B_F^a."""
        b = self.certificate(a)[1].b
        if b not in self._factors:
            graph = self.spec.graph
            candidates = ()
            # the graph lists sum_k L_k.a factors, and at most deg b of them
            # can divide b: a longer list is not built
            if graph is not None and snc_degree(graph, a) <= b.total_degree():
                candidates = [h for h, _ in snc_factors(graph, a)]
            pairs, rem = extract_hyperplanes(b, candidates)
            self._factors[b] = pairs, rem.total_degree() > 0
        return self._factors[b]

    def exp_set(self, a: tuple[int, ...]) -> set[TorusCoset]:
        return {exp_image(h) for h, _ in self.ideal_hyperplanes(a)[0]}

    def loci(self, a: tuple[int, ...]):
        return support_loci(self.spec.graph, a)

    # task implementations -------------------------------------------------

    def task_bs_find(self) -> dict:
        name, cert = self.certificate(self.spec.a)
        d = certificate_json(cert)
        d["strategy"] = name
        d["order"] = max(map(sum, cert.P), default=-1)
        return {"certificates": [d], "canonical_b": d["b"], "ok": True}

    def task_bs_verify(self) -> dict:
        name, cert = self.certificate(self.spec.a)
        # find_bs_pair returns a certificate only after verify(cert) passed
        b = format_poly(cert.b, s_names(self.spec.r))
        verdict = {"strategy": name, "b": b, "verified": True}
        return {"verdicts": [verdict], "ok": True}

    def task_decompose(self) -> dict:
        pairs, residual = self.ideal_hyperplanes(self.spec.a)
        items, all_pass = _hyperplanes_json(pairs, self.spec.a)
        structure_ok = all_pass and bool(pairs)
        return {
            "hyperplanes": items,
            "residual_nonconstant": residual,
            "structure_ok": structure_ok,
            "ok": structure_ok and not residual,
        }

    def task_snc(self) -> dict:
        graph = self.spec.graph
        a = self.spec.a
        slopes = slope_set(graph, a)
        cert = cert_verified = b_matches = None
        own_graph = False
        found = snc_certificate(self.spec.ctx, a)
        if found is not None:
            cert, own = found
            # find_bs_pair returns a certificate only after verify passed
            solved = self._certs.get(a)
            cert_verified = (solved is not None and solved[1] == cert) or verify(cert)
            own_graph = tuple(c.weights for c in own.components) == (
                tuple(c.weights for c in graph.components)
            )
            if own_graph and solved is not None:
                b_matches = _proportional(solved[1].b, cert.b)
        cert_json = cert and certificate_json(cert)
        # the closed-form b reads nothing of the graph but its L_k, and is
        # formatted once, in the certificate
        if own_graph:
            b_text = cert_json["b"]
        else:
            b_text = format_poly(snc_b_element(graph, a), s_names(self.spec.r))
        # the b-element is a product of known factors: none is searched for
        pairs = snc_factors(graph, a)
        extracted, structure_ok = _hyperplanes_json(pairs, a)
        matches = (
            {h.normal for h, _ in pairs} == set(slopes)
            and all(h.intercept > 0 for h, _ in pairs)
        )
        return {
            "slopes": [list(s) for s in slopes],
            "b_element": b_text,
            "extracted": extracted,
            "extraction_matches_slopes": matches,
            "structure_ok": structure_ok,
            "certificate": cert_json,
            "certificate_verified": cert_verified,
            "certificate_b_matches_graph": b_matches,
            "ok": (
                matches and structure_ok and cert_verified is not False
                and b_matches is not False
            ),
        }

    def task_zeta(self) -> dict:
        graph = self.spec.graph
        z = mon_zeta(graph)
        checks = []
        ms = [(1,) * self.spec.r]
        if all(x > 0 for x in self.spec.a) and self.spec.a not in ms:
            ms.append(self.spec.a)
        for m in ms:
            ok = sabbah_specialize(z, m) == mon_zeta(reweight(graph, m))
            checks.append({"m": list(m), "ok": ok})
        ok = all(c["ok"] for c in checks)
        return {"zeta": zeta_json(z), "sabbah_checks": checks, "ok": ok}

    def task_exp_compare(self) -> dict:
        spec = self.spec
        axes = [i for i in range(spec.r) if spec.a[i] != 0]
        exps = {i: self.exp_set(spec._axis(i)) for i in axes}
        sn = s_names(spec.r)
        per_axis = [
            {
                "axis": i + 1,
                "canonical_b": format_poly(self.certificate(spec._axis(i))[1].b, sn),
                "exp": _cosets_json(exps[i]),
            }
            for i in axes
        ]
        combined = self.exp_set(spec.a)
        axes_ok = check_axis_union(exps, combined, spec.a)
        out: dict[str, Any] = {
            "per_axis": per_axis,
            "combined_exp": _cosets_json(combined),
            "axis_union_matches_combined": axes_ok,
        }
        ok = axes_ok
        if spec.graph is not None:
            loci = {i: self.loci(spec._axis(i)) for i in axes}
            loci_a = self.loci(spec.a)
            supp_ok = check_axis_union(loci, loci_a, spec.a)
            support_rows = [
                {
                    "axis": i + 1,
                    "matches": union_equal(exps[i], loci[i]),
                    "support_loci": _cosets_json(loci[i]),
                }
                for i in axes
            ]
            support_rows.append(
                {
                    "axis": "combined",
                    "matches": union_equal(combined, loci_a),
                    "support_loci": _cosets_json(loci_a),
                }
            )
            s_ok = all(t["matches"] for t in support_rows)
            out["support_union_matches_combined"] = supp_ok
            out["support_comparison"] = support_rows
            out["support_comparison_ok"] = s_ok
            ok = ok and supp_ok and s_ok
        out["ok"] = ok
        return out

    def run(self) -> dict:
        spec = self.spec
        entry: dict[str, Any] = {
            "id": spec.id,
            "variables": spec.variables,
            "F": [format_poly(p, spec.variables) for p in spec.F],
            "a": list(spec.a),
            "tasks": spec.tasks,
        }
        if spec.graph is not None:
            entry["resolution_graph"] = spec.graph.to_json_dict()
        results: dict[str, Any] = {}
        try:
            for task in spec.tasks:
                impl = {
                    "bs-find": self.task_bs_find,
                    "bs-verify": self.task_bs_verify,
                    "decompose": self.task_decompose,
                    "snc": self.task_snc,
                    "zeta": self.task_zeta,
                    "exp-compare": self.task_exp_compare,
                }[task]
                results[task] = impl()
        except NoSolutionError as exc:
            entry["results"] = results
            entry["error"] = "no-solution-within-bounds"
            entry["error_detail"] = str(exc)
            entry["ok"] = False
            return entry
        entry["results"] = results
        entry["ok"] = all(results[t]["ok"] for t in results)
        return entry


def render_text(report: dict) -> str:
    lines = []
    for entry in report["entries"]:
        lines.append(f"== {entry['id']} ==")
        lines.append(
            "F = ({}); a = ({}); tasks: {}".format(
                ", ".join(entry["F"]),
                ", ".join(str(x) for x in entry["a"]),
                ", ".join(entry["tasks"]),
            )
        )
        res = entry["results"]
        if "bs-find" in res:
            r = res["bs-find"]
            lines.append(
                f"bs-find: {len(r['certificates'])} certificate(s); "
                f"canonical b = {r['canonical_b']}"
            )
            for c in r["certificates"]:
                lines.append(
                    f"  [{c['strategy']}] order {c['order']}; b = {c['b']}; P = {c['P']}"
                )
        if "bs-verify" in res:
            r = res["bs-verify"]
            word = "ok" if r["ok"] else "FAILED"
            lines.append(f"bs-verify: {word} ({len(r['verdicts'])} oracle check(s))")
        if "decompose" in res:
            r = res["decompose"]
            word = "ok" if r["ok"] else "FAILED"
            lines.append(f"decompose: {word}; {len(r['hyperplanes'])} hyperplane(s)")
            for h in r["hyperplanes"]:
                flags = "".join("+" if h[k] else "-" for k in STRUCTURE_FLAGS)
                lines.append(f"  {h['text']} = 0  mult {h['multiplicity']}  [{flags}]")
            if r["residual_nonconstant"]:
                lines.append("  residual: nonconstant factor left unextracted")
        if "snc" in res:
            r = res["snc"]
            word = "ok" if r["ok"] else "FAILED"
            slopes = ", ".join("(" + ",".join(str(x) for x in s) + ")" for s in r["slopes"])
            lines.append(f"snc: {word}; slopes {{{slopes}}}; b-element = {r['b_element']}")
            if r["certificate_verified"] is not None:
                lines.append(
                    f"  monomial certificate verified: {r['certificate_verified']}"
                )
        if "zeta" in res:
            r = res["zeta"]
            word = "ok" if r["ok"] else "FAILED"
            lines.append(f"zeta: {word}; zeta = {r['zeta']['text']}")
        if "exp-compare" in res:
            r = res["exp-compare"]
            word = "ok" if r["ok"] else "FAILED"
            bits = [f"axis-union={'yes' if r['axis_union_matches_combined'] else 'NO'}"]
            if "support_union_matches_combined" in r:
                bits.append(
                    f"support-union={'yes' if r['support_union_matches_combined'] else 'NO'}"
                )
                bits.append(
                    f"support-match={'yes' if r['support_comparison_ok'] else 'NO'}"
                )
            lines.append(f"exp-compare: {word}; " + " ".join(bits))
            for c in r["combined_exp"]:
                lines.append(f"  exp: {c['text']}")
        if "error" in entry:
            lines.append(f"error: {entry['error']} ({entry['error_detail']})")
        if "golden" in entry:
            g = entry["golden"]
            word = "matches" if g["matches"] else "MISMATCH"
            lines.append(f"golden: {word} ({g['file']})")
        lines.append(f"entry: {'ok' if entry['ok'] else 'FAILED'}")
        lines.append("")
    lines.append(
        "total: {} entr{}; {}".format(
            len(report["entries"]),
            "y" if len(report["entries"]) == 1 else "ies",
            "ok" if report["ok"] else "FAILED",
        )
    )
    return "\n".join(lines) + "\n"


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="bsideal",
        description="Bernstein-Sato ideal toolkit: exact solver, "
        "zero-locus structure, and support-locus cross-checks.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    run = sub.add_parser("run", help="run problem files and report")
    run.add_argument("specs", nargs="*", help="problem JSON files")
    run.add_argument(
        "--seed-corpus",
        action="store_true",
        help="include the bundled example corpus",
    )
    run.add_argument("--json", action="store_true", help="emit the JSON report instead of text")
    golden = run.add_mutually_exclusive_group()
    golden.add_argument(
        "--check-golden",
        nargs="?",
        const="",
        default=None,
        metavar="DIR",
        help="compare entry reports against DIR/<id>.golden.json "
        "(default: the bundled golden directory)",
    )
    golden.add_argument(
        "--write-golden",
        metavar="DIR",
        help="write entry reports to DIR/<id>.golden.json and exit",
    )
    return parser


def _exit_code(entries: list[dict]) -> int:
    """3 if any entry exhausted its bounds, else 1 if any failed, else 0."""
    if any(e.get("error") == "no-solution-within-bounds" for e in entries):
        return EXIT_BOUNDS
    return EXIT_OK if all(e["ok"] for e in entries) else EXIT_CHECK_FAILED


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)

    try:
        paths = list(args.specs)
        if args.seed_corpus:
            paths = corpus_paths() + paths
        if not paths:
            raise SpecError("no problem files given (pass files or --seed-corpus)")
        specs = load_specs(paths)
    except SpecError as exc:
        print(f"parse-error: {exc}", file=sys.stderr)
        return EXIT_USAGE

    specs.sort(key=lambda s: s.id)
    entries = [EntryRunner(spec).run() for spec in specs]

    if args.write_golden is not None:
        try:
            os.makedirs(args.write_golden, exist_ok=True)
            for entry in entries:
                path = os.path.join(args.write_golden, f"{entry['id']}.golden.json")
                with open(path, "w", encoding="utf-8") as fh:
                    fh.write(canonical_json(entry))
        except OSError as exc:
            print(f"error: cannot write goldens: {exc}", file=sys.stderr)
            return EXIT_USAGE
        print(f"wrote {len(entries)} golden file(s) to {args.write_golden}")
        failed = [e["id"] for e in entries if not e["ok"]]
        if failed:
            print(f"error: goldens written for failing entries: {', '.join(failed)}",
                  file=sys.stderr)
        return _exit_code(entries)

    if args.check_golden is not None:
        gdir = args.check_golden or golden_dir()
        for entry in entries:
            fname = f"{entry['id']}.golden.json"
            path = os.path.join(gdir, fname)
            try:
                with open(path, "r", encoding="utf-8") as fh:
                    expected = fh.read()
            except OSError:
                entry["golden"] = {"file": fname, "found": False, "matches": False}
                entry["ok"] = False
                continue
            matches = canonical_json(entry) == expected
            entry["golden"] = {"file": fname, "found": True, "matches": matches}
            entry["ok"] = entry["ok"] and matches

    report = {"entries": entries, "ok": all(e["ok"] for e in entries)}
    out = canonical_json(report) if args.json else render_text(report)
    sys.stdout.write(out)
    return _exit_code(entries)


if __name__ == "__main__":
    sys.exit(main())
