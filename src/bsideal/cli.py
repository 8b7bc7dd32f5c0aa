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
import os
import sys
from fractions import Fraction
from typing import Any, Sequence

from .hyperplanes import Hyperplane, extract_hyperplanes, structure_report
from .polynomials import (
    MPoly,
    PolyParseError,
    format_poly,
    parse_poly,
    s_names,
)
from .snc import (
    ResolutionGraph,
    SNCError,
    graph_from_exponents,
    mon_zeta,
    reweight,
    sabbah_specialize,
    slope_set,
    snc_b_element,
    snc_certificate,
    support_loci,
)
from .solver import (
    InvertibleTwistError,
    SolveBounds,
    SolveCapExceeded,
    cell_cap,
    sample_ideal,
    verify,
)
from .torus import TorusCoset, exp_image, union_equal
from .weyl import GermContext

TASKS = ("bs-find", "bs-verify", "decompose", "snc", "zeta", "exp-compare")
NEEDS_FIND = {"bs-verify", "decompose", "exp-compare"}
NEEDS_GRAPH = {"snc", "zeta"}
BOUND_KEYS = ("order", "x_degree", "s_degree", "b_degree")

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
            not (c.isalnum() or c in "_-") for c in self.id
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

        a = data.get("a")
        if (
            not isinstance(a, list)
            or len(a) != self.r
            or any(not isinstance(x, int) or isinstance(x, bool) or x < 0 for x in a)
        ):
            raise SpecError(f"{where}: 'a' must be {self.r} nonnegative integers")
        self.a = tuple(int(x) for x in a)
        if all(x == 0 for x in self.a):
            raise SpecError(f"{where}: 'a' must have a nonzero entry")

        bounds = data.get("bounds")
        if not isinstance(bounds, dict) or set(bounds) != set(BOUND_KEYS) or any(
            not isinstance(bounds[k], int) or isinstance(bounds[k], bool) or bounds[k] < 0
            for k in BOUND_KEYS
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
            except (SNCError, ValueError, TypeError, KeyError) as exc:
                raise SpecError(f"{where}: bad 'resolution_graph': {exc}") from exc
            if self.graph.r != self.r:
                raise SpecError(
                    f"{where}: resolution_graph has r={self.graph.r}, expected {self.r}"
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

        extra = set(data) - {
            "id", "variables", "F", "a", "bounds", "resolution_graph", "tasks",
        }
        if extra:
            raise SpecError(f"{where}: unknown fields {sorted(extra)}")

        self.ctx = GermContext(self.variables, s_names(self.r), self.F)
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
        except json.JSONDecodeError as exc:
            raise SpecError(f"{path}: invalid JSON: {exc}") from exc
        entries = data if isinstance(data, list) else [data]
        for entry in entries:
            spec = ProblemSpec(entry, os.path.basename(path))
            if spec.id in seen:
                raise SpecError(
                    f"duplicate entry id '{spec.id}' ({seen[spec.id]} and {path})"
                )
            seen[spec.id] = path
            specs.append(spec)
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


def _hyp_json(h: Hyperplane, mult: int, a: Sequence[int]) -> dict:
    rep = structure_report([h], a)
    v = rep.verdicts[0]
    return {
        "normal": list(h.normal),
        "intercept": str(h.intercept),
        "text": h.text(),
        "multiplicity": mult,
        "slopes_nonnegative": v.slopes_nonnegative,
        "intercept_positive": v.intercept_positive,
        "has_active_index": v.has_active_index,
        "passes": v.passes,
    }


def _cosets_json(cosets) -> list[dict]:
    out = []
    for c in sorted(set(cosets), key=lambda c: c.sort_key()):
        d = c.to_json_dict()
        d["text"] = c.text()
        out.append(d)
    return out


class EntryRunner:
    """Executes one entry's tasks; memoizes solver runs per twist vector."""

    def __init__(self, spec: ProblemSpec):
        self.spec = spec
        self._samples: dict[tuple[int, ...], list] = {}
        self._loci: dict[tuple[int, ...], tuple] = {}

    def samples(self, a: tuple[int, ...]):
        if a not in self._samples:
            try:
                found = sample_ideal(self.spec.ctx, a, self.spec.bounds)
            except SolveCapExceeded as exc:
                raise NoSolutionError(str(exc)) from exc
            if not found:
                raise NoSolutionError(
                    f"no operator within bounds for a={list(a)}"
                )
            self._samples[a] = found
        return self._samples[a]

    def ideal_hyperplanes(self, a: tuple[int, ...]):
        """Min-multiplicity intersection of the sampled elements' linear
        factors; an over-approximation of the codimension-one zero locus
        that is exact when the minimal sample generates."""
        common: dict[Hyperplane, int] | None = None
        residual = False
        for _, cert in self.samples(a):
            pairs, rem = extract_hyperplanes(cert.b)
            counts = dict(pairs)
            if common is None:
                common = counts
            else:
                common = {
                    h: min(m, common[h]) for h, m in counts.items() if h in common
                }
            if rem.total_degree() > 0:
                residual = True
        assert common is not None
        hyps = sorted(common, key=Hyperplane.sort_key)
        return hyps, common, residual

    def exp_set(self, a: tuple[int, ...]) -> set[TorusCoset]:
        hyps, _, _ = self.ideal_hyperplanes(a)
        return {exp_image(h) for h in hyps}

    def loci(self, a: tuple[int, ...]):
        if a not in self._loci:
            self._loci[a] = support_loci(self.spec.graph, a)
        return self._loci[a]

    # task implementations -------------------------------------------------

    def task_bs_find(self) -> dict:
        found = self.samples(self.spec.a)
        certs = []
        for name, cert in found:
            d = cert.to_json_dict()
            d["strategy"] = name
            d["order"] = cert.P.order()
            certs.append(d)
        return {
            "certificates": certs,
            "canonical_b": certs[0]["b"],
            "ok": True,
        }

    def task_bs_verify(self) -> dict:
        verdicts = []
        for name, cert in self.samples(self.spec.a):
            verdicts.append(
                {
                    "strategy": name,
                    "b": format_poly(cert.b, s_names(self.spec.r)),
                    "verified": verify(cert),
                }
            )
        ok = all(v["verified"] for v in verdicts)
        return {"verdicts": verdicts, "ok": ok}

    def task_decompose(self) -> dict:
        hyps, mult, residual = self.ideal_hyperplanes(self.spec.a)
        rep = structure_report(hyps, self.spec.a)
        items = [_hyp_json(h, mult[h], self.spec.a) for h in hyps]
        structure_ok = rep.all_pass and bool(hyps)
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
        b_el = snc_b_element(graph, a)
        pairs, rem = extract_hyperplanes(b_el)
        extracted = [_hyp_json(h, m, a) for h, m in pairs]
        normals = {h.normal for h, _ in pairs}
        matches = (
            normals == set(slopes)
            and rem.total_degree() == 0
            and all(h.intercept > 0 for h, _ in pairs)
        )
        structure_ok = structure_report([h for h, _ in pairs], a).all_pass

        cert_json = None
        cert_verified = None
        cert_matches = None
        exps = self._monomial_exponents()
        if exps is not None:
            cert = snc_certificate(
                exps, a, x_names=self.spec.variables, s_vars=s_names(self.spec.r)
            )
            cert_json = cert.to_json_dict()
            cert_verified = verify(cert)
            derived = graph_from_exponents(exps)
            if tuple(c.weights for c in derived.components) == tuple(
                c.weights for c in graph.components
            ):
                cert_matches = cert.b == b_el
        ok = matches and structure_ok
        for flag in (cert_verified, cert_matches):
            if flag is not None:
                ok = ok and flag
        return {
            "slopes": [list(s) for s in slopes],
            "b_element": format_poly(b_el, s_names(self.spec.r)),
            "extracted": extracted,
            "extraction_matches_slopes": matches,
            "structure_ok": structure_ok,
            "certificate": cert_json,
            "certificate_verified": cert_verified,
            "certificate_b_matches_graph": cert_matches,
            "ok": ok,
        }

    def _monomial_exponents(self) -> list[list[int]] | None:
        rows = []
        for p in self.spec.F:
            terms = list(p.terms.items())
            if len(terms) != 1 or terms[0][1] != 1:
                return None
            rows.append(list(terms[0][0]))
        return rows

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
        out = z.to_json_dict()
        out["text"] = z.text()
        return {"zeta": out, "sabbah_checks": checks, "ok": ok}

    def task_exp_compare(self) -> dict:
        spec = self.spec
        axes = [i for i in range(spec.r) if spec.a[i] != 0]
        per_axis = []
        pooled: set[TorusCoset] = set()
        support_rows = []
        for i in axes:
            e = spec._axis(i)
            exp = self.exp_set(e)
            pooled |= exp
            row = {
                "axis": i + 1,
                "canonical_b": format_poly(
                    self.samples(e)[0][1].b, s_names(spec.r)
                ),
                "exp": _cosets_json(exp),
            }
            per_axis.append(row)
            if spec.graph is not None:
                loci = self.loci(e)
                support_rows.append(
                    {
                        "axis": i + 1,
                        "matches": union_equal(exp, loci),
                        "support_loci": _cosets_json(loci),
                    }
                )
        combined = self.exp_set(spec.a)
        axes_ok = union_equal(combined, pooled)
        out: dict[str, Any] = {
            "per_axis": per_axis,
            "combined_exp": _cosets_json(combined),
            "axis_union_matches_combined": axes_ok,
        }
        ok = axes_ok
        if spec.graph is not None:
            loci_a = self.loci(spec.a)
            pooled_loci: set[TorusCoset] = set()
            for i in axes:
                pooled_loci.update(self.loci(spec._axis(i)))
            supp_ok = union_equal(loci_a, pooled_loci)
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
                flags = "".join(
                    "+" if h[k] else "-"
                    for k in ("slopes_nonnegative", "intercept_positive", "has_active_index")
                )
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
    fmt = run.add_mutually_exclusive_group()
    fmt.add_argument("--json", action="store_true", help="emit the JSON report")
    fmt.add_argument("--text", action="store_true", help="emit the text report (default)")
    run.add_argument(
        "--check-golden",
        nargs="?",
        const="",
        default=None,
        metavar="DIR",
        help="compare entry reports against DIR/<id>.golden.json "
        "(default: the bundled golden directory)",
    )
    run.add_argument(
        "--write-golden",
        metavar="DIR",
        help="write entry reports to DIR/<id>.golden.json and exit",
    )
    return parser


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)

    try:
        cell_cap()
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE

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
    entries = []
    bounds_exhausted = False
    for spec in specs:
        entry = EntryRunner(spec).run()
        if entry.get("error") == "no-solution-within-bounds":
            bounds_exhausted = True
        entries.append(entry)

    if args.write_golden is not None:
        os.makedirs(args.write_golden, exist_ok=True)
        for entry in entries:
            path = os.path.join(args.write_golden, f"{entry['id']}.golden.json")
            with open(path, "w", encoding="utf-8") as fh:
                fh.write(canonical_json(entry))
        print(f"wrote {len(entries)} golden file(s) to {args.write_golden}")
        return EXIT_OK

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

    if bounds_exhausted:
        return EXIT_BOUNDS
    if not report["ok"]:
        return EXIT_CHECK_FAILED
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
