"""Spans around the calls into each layer of bsideal, recorded from outside.

The program stays unchanged.  `Tracer.install` rebinds each traced public
function at the module that calls it (a name bound by ``from ... import``
must be patched where it is used, not where it is defined), and
`Tracer.uninstall` restores the originals, so traced and untraced passes
run in one process.

A span is ``(name, start_ns, end_ns, parent, entry_id)``; ``parent`` is the
index of the enclosing span or -1.  Spans stay in memory and are written
out once at the end.  A span's self time is its duration minus the
durations of its direct children (calls are nested, one thread).
"""

from __future__ import annotations

import json
import time
from collections import defaultdict
from fractions import Fraction

# (module, attribute, span name) for every traced call site.
SITES = (
    ("cli", "load_specs", "cli.load_specs"),
    ("cli", "parse_poly", "polynomials.parse_poly"),
    ("cli", "sample_ideal", "solver.sample_ideal"),
    ("cli", "verify", "solver.verify"),
    ("cli", "extract_hyperplanes", "hyperplanes.extract"),
    ("cli", "snc_b_element", "snc.b_element"),
    ("cli", "snc_certificate", "snc.certificate"),
    ("cli", "support_loci", "snc.support_loci"),
    ("cli", "exp_image", "torus.exp_image"),
    ("cli", "union_equal", "torus.union_equal"),
    ("cli", "canonical_json", "cli.render"),
    ("solver", "find_bs_pair", "solver.find_bs_pair"),
    ("solver", "verify", "solver.verify"),
    ("solver", "partial_derivative", "weyl.germ_derivative"),
    ("solver", "apply", "weyl.apply"),
    ("hyperplanes", "rational_roots", "ratroots.rational_roots"),
    ("hyperplanes", "primitive_slopes", "hyperplanes.primitive_slopes"),
    ("linalg", "nullspace", "linalg.nullspace"),
    ("linalg", "solve", "linalg.solve"),
    ("linalg", "rref_rational", "linalg.rref_rational"),
)

# per-layer time metric -> (span name, self time only)
TIMES = {
    "linalg.nullspace_s": ("linalg.nullspace", False),
    "linalg.solve_s": ("linalg.solve", False),
    "linalg.rref_rational_s": ("linalg.rref_rational", False),
    "solver.find_bs_pair_s": ("solver.find_bs_pair", False),
    "solver.assembly_self_s": ("solver.find_bs_pair", True),
    "solver.verify_s": ("solver.verify", False),
    "weyl.apply_s": ("weyl.apply", False),
    "weyl.germ_derivative_s": ("weyl.germ_derivative", False),
    "hyperplanes.extract_s": ("hyperplanes.extract", False),
    "ratroots.rational_roots_s": ("ratroots.rational_roots", False),
    "snc.b_element_s": ("snc.b_element", False),
    "snc.certificate_s": ("snc.certificate", False),
    "snc.support_loci_s": ("snc.support_loci", False),
    "torus.exp_image_s": ("torus.exp_image", False),
    "torus.union_equal_s": ("torus.union_equal", False),
    "cli.load_specs_s": ("cli.load_specs", False),
    "polynomials.parse_poly_s": ("polynomials.parse_poly", False),
    "cli.entry_self_s": ("cli.entry", True),
    "cli.render_s": ("cli.render", False),
}

# per-layer counters: exact, so two passes over one input must agree
CALLS = {
    "solver.find_bs_pair_calls": "solver.find_bs_pair",
    "solver.verify_calls": "solver.verify",
    "weyl.germ_derivative_calls": "weyl.germ_derivative",
    "hyperplanes.extract_calls": "hyperplanes.extract",
    "ratroots.rational_roots_calls": "ratroots.rational_roots",
}


def _bits(q: Fraction) -> int:
    return max(q.numerator.bit_length(), q.denominator.bit_length())


def _observe_nullspace(counts, args, result) -> None:
    rows, ncols = args[0], args[1]
    counts["linalg.rows"] += len(rows)
    counts["linalg.cols"] += ncols
    counts["linalg.nnz"] += sum(len(r) for r in rows)
    counts["linalg.nullity"] += len(result)
    bits = max((_bits(v) for vec in result for v in vec.values()), default=0)
    counts["linalg.kernel_bits_max"] = max(counts["linalg.kernel_bits_max"], bits)


def _observe_rref_rational(counts, args, result) -> None:
    # the solver hands rref_rational one row per kernel vector with a b-part
    counts["linalg.kernel_b_vectors"] += len(args[0])


def _observe_find(counts, args, result) -> None:
    counts["solver.empty_calls"] += result is None


def _observe_sample(counts, args, result) -> None:
    counts["solver.kept"] += len(result)


def _observe_slopes(counts, args, result) -> None:
    counts["hyperplanes.slopes_scanned"] += len(result)


def _observe_extract(counts, args, result) -> None:
    counts["hyperplanes.factors_found"] += len(result[0])


OBSERVERS = {
    "linalg.nullspace": _observe_nullspace,
    "linalg.rref_rational": _observe_rref_rational,
    "solver.find_bs_pair": _observe_find,
    "solver.sample_ideal": _observe_sample,
    "hyperplanes.primitive_slopes": _observe_slopes,
    "hyperplanes.extract": _observe_extract,
}


class Tracer:
    """Records spans and counters for the passes run while installed."""

    def __init__(self, modules: dict):
        self.modules = modules
        self.spans: list = []
        self.counts: defaultdict = defaultdict(int)
        self.entry: str | None = None
        self._stack: list[int] = []
        self._saved: list = []

    def _wrap(self, name: str, fn):
        spans, stack = self.spans, self._stack
        observe = OBSERVERS.get(name)
        clock = time.perf_counter_ns

        def traced(*args, **kwargs):
            idx = len(spans)
            parent = stack[-1] if stack else -1
            spans.append(None)
            stack.append(idx)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[idx] = (name, start, end, parent, self.entry)
            if observe is not None:
                # counting runs in its own span so it is not charged to the caller
                start = clock()
                observe(self.counts, args, result)
                spans.append(("trace.observe", start, clock(), parent, self.entry))
            return result

        return traced

    def _entry_wrap(self, fn):
        traced = self._wrap("cli.entry", fn)

        def run(runner):
            self.entry = runner.spec.id
            try:
                return traced(runner)
            finally:
                self.entry = None

        return run

    def install(self) -> None:
        for mod, attr, name in SITES:
            owner = self.modules[mod]
            fn = getattr(owner, attr)
            self._saved.append((owner, attr, fn))
            setattr(owner, attr, self._wrap(name, fn))
        runner = self.modules["cli"].EntryRunner
        self._saved.append((runner, "run", runner.run))
        runner.run = self._entry_wrap(runner.run)

    def uninstall(self) -> None:
        while self._saved:
            owner, attr, fn = self._saved.pop()
            setattr(owner, attr, fn)

    def take(self) -> tuple[list, dict]:
        """Spans and counters recorded since the last call."""
        spans, counts = list(self.spans), dict(self.counts)
        self.spans.clear()
        self.counts.clear()
        return spans, counts


def layer_metrics(spans: list, counts: dict) -> tuple[dict, dict]:
    """(times in seconds, exact counters) for one traced pass."""
    total: defaultdict = defaultdict(int)
    own: defaultdict = defaultdict(int)
    calls: defaultdict = defaultdict(int)
    children = [0] * len(spans)
    for name, start, end, parent, _ in spans:
        if parent >= 0:
            children[parent] += end - start
    for i, (name, start, end, _, _) in enumerate(spans):
        total[name] += end - start
        own[name] += end - start - children[i]
        calls[name] += 1
    times = {
        metric: (own if self_only else total)[name] / 1e9
        for metric, (name, self_only) in TIMES.items()
    }
    exact = {metric: calls[name] for metric, name in CALLS.items()}
    for key in ("linalg.rows", "linalg.cols", "linalg.nnz", "linalg.nullity",
                "linalg.kernel_bits_max", "solver.empty_calls",
                "hyperplanes.slopes_scanned", "hyperplanes.factors_found"):
        exact[key] = counts.get(key, 0)
    exact["linalg.kernel_b_frac"] = _ratio(
        counts.get("linalg.kernel_b_vectors", 0), counts.get("linalg.nullity", 0))
    exact["solver.kept_frac"] = _ratio(
        counts.get("solver.kept", 0), calls["solver.find_bs_pair"])
    exact["hyperplanes.hit_frac"] = _ratio(
        counts.get("hyperplanes.factors_found", 0),
        counts.get("hyperplanes.slopes_scanned", 0))
    return times, exact


def _ratio(num: int, den: int) -> float:
    return num / den if den else 0.0


def write_spans(path: str, passes: list[list]) -> None:
    """One JSON array per line: pass, name, start_ns, end_ns, parent, entry."""
    with open(path, "w", encoding="utf-8") as fh:
        for k, spans in enumerate(passes):
            for span in spans:
                fh.write(json.dumps([k, *span]) + "\n")
