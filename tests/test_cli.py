"""Front-end behavior: report shape, exit codes, goldens, determinism."""

import json
import os
import subprocess
import sys
import time

import pytest

from bsideal import cli, hyperplanes, snc, solver, weyl
from bsideal.cli import (
    EXIT_BOUNDS,
    EXIT_CHECK_FAILED,
    EXIT_OK,
    EXIT_USAGE,
    EntryRunner,
    canonical_json,
    corpus_paths,
    golden_dir,
    load_specs,
    main,
)
from bsideal.hyperplanes import linear_form
from bsideal.solver import BSCertificate


def corpus_file(name):
    for p in corpus_paths():
        if os.path.basename(p) == f"{name}.json":
            return p
    raise AssertionError(f"missing corpus entry {name}")


def write_entry(tmp_path, name="probe", **overrides):
    entry = {
        "id": name,
        "variables": ["x"],
        "F": ["x"],
        "a": [1],
        "bounds": {"order": 1, "x_degree": 0, "s_degree": 0, "b_degree": 1},
        "tasks": ["bs-find", "bs-verify", "decompose"],
    }
    entry.update(overrides)
    path = tmp_path / f"{name}.json"
    path.write_text(json.dumps(entry))
    return str(path)


# two coordinate functions, both twisted, in a box that certifies them
PAIR = {
    "variables": ["x", "y"],
    "F": ["x", "y"],
    "a": [1, 1],
    "bounds": {"order": 2, "x_degree": 0, "s_degree": 0, "b_degree": 2},
    "tasks": ["snc", "zeta"],
}


def run(argv, capsys):
    code = main(argv)
    out = capsys.readouterr()
    return code, out.out, out.err


def test_single_entry_text(tmp_path, capsys):
    path = write_entry(tmp_path)
    code, out, err = run(["run", path], capsys)
    assert code == EXIT_OK
    assert "canonical b = s + 1" in out
    assert "entry: ok" in out
    assert "total: 1 entry; ok" in out
    assert err == ""


def test_json_report_shape(tmp_path, capsys):
    path = write_entry(tmp_path)
    code, out, _ = run(["run", path, "--json"], capsys)
    assert code == EXIT_OK
    report = json.loads(out)
    assert report["ok"] is True
    (entry,) = report["entries"]
    assert entry["id"] == "probe"
    assert entry["tasks"] == ["bs-find", "bs-verify", "decompose"]
    find = entry["results"]["bs-find"]
    assert find["canonical_b"] == "s + 1"
    assert find["certificates"][0]["P"] == "dx"
    dec = entry["results"]["decompose"]
    assert dec["hyperplanes"][0]["normal"] == [1]
    assert dec["hyperplanes"][0]["intercept"] == "1"
    assert dec["hyperplanes"][0]["passes"] is True
    # canonical serialization: sorted keys, trailing newline
    assert out == canonical_json(report)


def test_task_dependencies_added(tmp_path, capsys):
    path = write_entry(tmp_path, tasks=["decompose"])
    code, out, _ = run(["run", path, "--json"], capsys)
    assert code == EXIT_OK
    (entry,) = json.loads(out)["entries"]
    assert entry["tasks"] == ["bs-find", "decompose"]


def test_corpus_runs_clean(capsys):
    code, out, _ = run(["run", "--seed-corpus"], capsys)
    assert code == EXIT_OK
    assert "total: 9 entries; ok" in out


def test_corpus_text_report_is_pinned(capsys):
    # the JSON goldens pin --json; this pins the text report byte for byte
    code, out, err = run(["run", "--seed-corpus"], capsys)
    with open(os.path.join(os.path.dirname(__file__), "corpus_report.txt"), "rb") as fh:
        assert (code, out.encode("utf-8"), err) == (EXIT_OK, fh.read(), "")


def test_corpus_byte_deterministic(capsys):
    _, out1, _ = run(["run", "--seed-corpus", "--json"], capsys)
    _, out2, _ = run(["run", "--seed-corpus", "--json"], capsys)
    assert out1 == out2


def test_corpus_entries_sorted_by_id(capsys):
    code, out, _ = run(["run", "--seed-corpus", "--json"], capsys)
    ids = [e["id"] for e in json.loads(out)["entries"]]
    assert ids == sorted(ids)
    assert len(ids) == 9


def test_golden_check_passes(capsys):
    code, out, _ = run(["run", "--seed-corpus", "--check-golden"], capsys)
    assert code == EXIT_OK
    assert "MISMATCH" not in out


def test_golden_roundtrip(tmp_path, capsys):
    path = write_entry(tmp_path)
    gdir = str(tmp_path / "golden")
    code, out, _ = run(["run", path, "--write-golden", gdir], capsys)
    assert code == EXIT_OK
    assert os.path.exists(os.path.join(gdir, "probe.golden.json"))
    code, out, _ = run(["run", path, "--check-golden", gdir], capsys)
    assert code == EXIT_OK
    assert "golden: matches" in out


def test_golden_mismatch_fails(tmp_path, capsys):
    path = write_entry(tmp_path)
    gdir = str(tmp_path / "golden")
    run(["run", path, "--write-golden", gdir], capsys)
    gpath = tmp_path / "golden" / "probe.golden.json"
    data = json.loads(gpath.read_text())
    data["results"]["bs-find"]["canonical_b"] = "s + 2"
    gpath.write_text(canonical_json(data))
    code, out, _ = run(["run", path, "--check-golden", gdir], capsys)
    assert code == EXIT_CHECK_FAILED
    assert "MISMATCH" in out


def test_golden_missing_fails(tmp_path, capsys):
    path = write_entry(tmp_path)
    code, out, _ = run(["run", path, "--check-golden", str(tmp_path)], capsys)
    assert code == EXIT_CHECK_FAILED


def test_write_golden_keeps_the_exit_code(tmp_path, capsys):
    # x^2 needs b of degree 2: the golden records the exhausted bounds
    path = write_entry(tmp_path, F=["x^2"], tasks=["bs-find"])
    gdir = str(tmp_path / "golden")
    code, out, err = run(["run", path, "--write-golden", gdir], capsys)
    assert code == EXIT_BOUNDS
    assert out == f"wrote 1 golden file(s) to {gdir}\n"
    assert err == "error: goldens written for failing entries: probe\n"
    golden = json.loads((tmp_path / "golden" / "probe.golden.json").read_text())
    assert golden["error"] == "no-solution-within-bounds"


@pytest.mark.parametrize(
    "flags", [["--write-golden", "G", "--check-golden"], ["--check-golden", "--write-golden", "G"]]
)
def test_write_and_check_golden_together_is_usage_error(tmp_path, capsys, monkeypatch, flags):
    # writing the goldens would leave nothing to check against: argparse
    # refuses the pair before any entry runs or any file is written
    path = write_entry(tmp_path)
    monkeypatch.chdir(tmp_path)
    with pytest.raises(SystemExit) as exc:
        main(["run", path, *flags])
    assert exc.value.code == EXIT_USAGE
    out = capsys.readouterr()
    assert out.out == ""
    assert "not allowed with argument" in out.err
    assert not (tmp_path / "G").exists()


def test_write_golden_to_a_file_is_usage_error(tmp_path, capsys):
    path = write_entry(tmp_path)
    blocker = tmp_path / "golden"
    blocker.write_text("not a directory")
    code, out, err = run(["run", path, "--write-golden", str(blocker)], capsys)
    assert code == EXIT_USAGE
    assert out == ""
    assert err.startswith("error: cannot write goldens: ")
    assert "Traceback" not in err
    assert blocker.read_text() == "not a directory"


def test_malformed_json_is_usage_error(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text("{nope")
    code, _, err = run(["run", str(path)], capsys)
    assert code == EXIT_USAGE
    assert "parse-error" in err


@pytest.mark.parametrize(
    "raw",
    [
        b'{"id": "\xe9"}',
        b'{"id": "big", "a": [' + b"1" * 5000 + b"]}",
        # the decoder recurses once per level
        b"[" * 1000 + b"]" * 1000,
    ],
    ids=["not-utf8", "long-int", "deep-nesting"],
)
def test_undecodable_file_is_usage_error(tmp_path, capsys, raw):
    path = tmp_path / "bad.json"
    path.write_bytes(raw)
    code, _, err = run(["run", str(path)], capsys)
    assert code == EXIT_USAGE
    assert "parse-error" in err


def test_no_inputs_is_usage_error(capsys):
    code, _, err = run(["run"], capsys)
    assert code == EXIT_USAGE
    assert "parse-error" in err


def test_empty_batch_is_usage_error(tmp_path, capsys):
    path = tmp_path / "empty.json"
    path.write_text("[]")
    code, out, err = run(["run", str(path)], capsys)
    assert code == EXIT_USAGE
    assert out == ""
    assert "parse-error" in err and "no problem entries" in err


@pytest.mark.parametrize(
    "overrides",
    [
        {"a": [0]},
        {"a": [1, 1]},
        {"a": [-1]},
        {"F": []},
        {"F": ["x + "]},
        {"F": ["0"]},
        {"variables": ["x", "x"]},
        {"bounds": {"order": 1}},
        {"tasks": ["snc"]},
        {"tasks": ["nonsense"]},
        {"tasks": []},
        {"slope_bound": 8},
        {"surprise": True},
        {"id": "bad id"},
        {"variables": ["s", "y"], "F": ["s*y"]},
        {"variables": ["x", "dx"], "F": ["x + dx"]},
        # graph values are JSON integers and lists, never coerced
        *(
            {**PAIR, "resolution_graph": {"r": 2, "components": comps}}
            for comps in (
                [{"L": [1.9, 1]}],
                [{"L": [1, 1], "chi": 0.5}],
                [{"L": "11"}],
                [{"L": [True, 1]}],
                {"L": [1, 1]},
            )
        ),
        {**PAIR, "resolution_graph": {"r": "2", "components": [{"L": [1, 1]}]}},
        {"resolution_graph": {"r": True, "components": [{"L": [1]}]}, "tasks": ["snc"]},
        # a misspelt key would silently take its default
        {**PAIR, "resolution_graph": {"r": 2, "components": [{"L": [1, 0], "Chi": 3},
                                                            {"L": [0, 1]}]}},
        {**PAIR, "resolution_graph": {"r": 2, "components": [{"L": [1, 0]}, {"L": [0, 1]}],
                                      "extra": 1}},
        # a twisted f_i that lies on no component
        {**PAIR, "a": [1, 0], "tasks": ["snc"],
         "resolution_graph": {"r": 2, "components": [{"L": [0, 1]}]}},
        {**PAIR, "tasks": ["exp-compare"],
         "resolution_graph": {"r": 2, "components": [{"L": [0, 1]}]}},
        # digits are ASCII 0-9: str.isdigit accepts these, int() does not
        {"F": ["x + ²"]},
        {"F": ["x^²"]},
        {"F": ["x + " + "1" * 5000]},
        # the parser recurses once per level
        {"F": ["(" * 500 + "x" + ")" * 500]},
        # ids are ASCII: str.isalnum also accepts these
        {"id": "x²"},
        {"id": "é"},
    ],
)
def test_invalid_entries_are_usage_errors(tmp_path, capsys, overrides):
    path = write_entry(tmp_path, **overrides)
    code, _, err = run(["run", str(path)], capsys)
    assert code == EXIT_USAGE
    assert "parse-error" in err
    if "resolution_graph" in overrides:
        assert "'resolution_graph'" in err
    elif "variables" in overrides:
        assert "'variables'" in err


def test_constant_f_with_active_twist_rejected(tmp_path, capsys):
    path = write_entry(tmp_path, F=["3"])
    code, _, err = run(["run", str(path)], capsys)
    assert code == EXIT_USAGE


def test_duplicate_ids_rejected(tmp_path, capsys):
    p1 = write_entry(tmp_path / "a" if False else tmp_path, name="dup")
    sub = tmp_path / "sub"
    sub.mkdir()
    p2 = write_entry(sub, name="dup")
    code, _, err = run(["run", p1, p2], capsys)
    assert code == EXIT_USAGE
    assert "duplicate" in err


def test_bounds_exhausted_exit(tmp_path, capsys):
    path = write_entry(
        tmp_path,
        a=[2],
        bounds={"order": 1, "x_degree": 0, "s_degree": 0, "b_degree": 1},
        tasks=["bs-find"],
    )
    code, out, _ = run(["run", path], capsys)
    assert code == EXIT_BOUNDS
    assert "no-solution-within-bounds" in out


def test_graph_tasks(tmp_path, capsys):
    path = write_entry(
        tmp_path,
        resolution_graph={"r": 1, "components": [{"L": [1], "chi": 1}]},
        tasks="all",
    )
    code, out, _ = run(["run", path, "--json"], capsys)
    assert code == EXIT_OK
    (entry,) = json.loads(out)["entries"]
    res = entry["results"]
    assert res["zeta"]["zeta"]["text"] == "(1 - t)^1"
    assert res["snc"]["slopes"] == [[1]]
    assert res["exp-compare"]["support_comparison_ok"] is True


def test_graph_wrong_rank_rejected(tmp_path, capsys):
    path = write_entry(
        tmp_path,
        resolution_graph={"r": 2, "components": [{"L": [1, 1], "chi": 0}]},
    )
    code, _, err = run(["run", str(path)], capsys)
    assert code == EXIT_USAGE


@pytest.mark.parametrize(
    "variables, F",
    [
        (["x", "y", "z"], "(x+y+z)^100000"),
        (["x", "y", "z"], "(x+y+z)^200"),
        (list("abcdefgh"), "(a+b+c+d+e+f+g+h)^30"),
    ],
    ids=["(x+y+z)^100000", "(x+y+z)^200", "8 variables ^30"],
)
def test_oversize_expression_is_refused_at_once(tmp_path, variables, F):
    # in a child process, so that a parser without a limit is stopped
    path = write_entry(tmp_path, variables=variables, F=[F])
    src = os.path.dirname(os.path.dirname(cli.__file__))
    env = {**os.environ, "PYTHONPATH": src}
    start = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, "-m", "bsideal.cli", "run", path],
        capture_output=True, text=True, env=env, timeout=10,
    )
    assert time.perf_counter() - start < 1
    assert proc.returncode == EXIT_USAGE
    assert proc.stdout == ""
    assert "coefficient bits" in proc.stderr and "Traceback" not in proc.stderr


# x^(2^40) needs wider exponent fields than the default 32 bits; these
# reports were printed by the tuple-keyed polynomials that packed keys
# replaced, and must not change
WIDE = 2**40
WIDE_ENTRIES = {
    "wide_sum": (EXIT_BOUNDS, {
        "variables": ["x", "y"],
        "F": [f"x^{WIDE}*y + y^2"],
        "a": [1],
        "bounds": {"order": 2, "x_degree": 1, "s_degree": 1, "b_degree": 2},
        "tasks": ["bs-find", "decompose"],
    }),
    "wide_pair": (EXIT_OK, {
        "variables": ["x", "y"],
        "F": [f"x^{WIDE}", "y"],
        "a": [0, 1],
        "bounds": {"order": 1, "x_degree": 0, "s_degree": 0, "b_degree": 1},
        "resolution_graph": {
            "r": 2,
            "components": [{"L": [WIDE, 0], "chi": 0}, {"L": [0, 1], "chi": 0}],
        },
        "tasks": "all",
    }),
}


@pytest.mark.parametrize("name", sorted(WIDE_ENTRIES))
def test_wide_exponent_reports_are_pinned(tmp_path, capsys, name):
    code, entry = WIDE_ENTRIES[name]
    path = write_entry(tmp_path, name, **entry)
    report = os.path.join(os.path.dirname(__file__), "wide_exponents", f"{name}.report.json")
    with open(report, encoding="utf-8") as fh:
        expected = fh.read()
    assert run(["run", "--json", path], capsys) == (code, expected, "")


def test_long_coefficients_print_in_full(tmp_path):
    # 9^800 has 764 digits, more than str() converts under a limit of 640
    path = write_entry(tmp_path, F=["x + 9^800"])
    src = os.path.dirname(os.path.dirname(cli.__file__))
    env = {**os.environ, "PYTHONPATH": src, "PYTHONINTMAXSTRDIGITS": "640"}
    proc = subprocess.run(
        [sys.executable, "-m", "bsideal.cli", "run", path],
        capture_output=True, text=True, env=env, timeout=60,
    )
    assert proc.returncode == EXIT_OK
    assert proc.stderr == ""
    assert f"F = (x + {9**800})" in proc.stdout


def test_plane_curve_graph_extracts_in_time(tmp_path):
    # the resolution graph of x^4+y^5: 55 linear factors, 30 distinct roots
    # s = -j/L; in a child process, so that a slow root finder is stopped
    comps = [{"L": [L], "chi": chi} for L, chi in
             [(4, 1), (5, 1), (10, 0), (15, 0), (20, -1), (1, 0)]]
    path = write_entry(
        tmp_path, variables=["x", "y"], F=["x^4+y^5"], tasks=["snc", "zeta"],
        resolution_graph={"r": 1, "components": comps},
    )
    src = os.path.dirname(os.path.dirname(cli.__file__))
    env = {**os.environ, "PYTHONPATH": src}
    proc = subprocess.run(
        [sys.executable, "-m", "bsideal.cli", "run", path, "--json"],
        capture_output=True, text=True, env=env, timeout=20,
    )
    assert proc.returncode == EXIT_OK
    (entry,) = json.loads(proc.stdout)["entries"]
    assert entry["ok"] is True
    assert len(entry["results"]["snc"]["extracted"]) == 30


@pytest.mark.parametrize(
    "a, components, task",
    [
        ([1, 1], [[10**7, 1]], "snc"),
        ([10**6, 1], [[1, 0], [0, 1]], "snc"),
        ([1, 1], [[10**5, 10**5]], "exp-compare"),
    ],
    ids=["snc L=(10^7,1)", "snc a=(10^6,1)", "exp-compare L=(10^5,10^5)"],
)
def test_oversize_graph_is_refused_at_once(tmp_path, a, components, task):
    # the expanded b-element, or the list of support cosets, is sized when
    # the entry is parsed; in a child process, so that a hang is stopped
    path = write_entry(
        tmp_path, variables=["x", "y"], F=["x", "y"], a=a, tasks=[task],
        bounds={"order": 2, "x_degree": 0, "s_degree": 0, "b_degree": 2},
        resolution_graph={"r": 2, "components": [{"L": L} for L in components]},
    )
    src = os.path.dirname(os.path.dirname(cli.__file__))
    env = {**os.environ, "PYTHONPATH": src}
    start = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, "-m", "bsideal.cli", "run", path],
        capture_output=True, text=True, env=env, timeout=10,
    )
    assert time.perf_counter() - start < 1
    assert proc.returncode == EXIT_USAGE
    assert proc.stdout == ""
    assert f"too large for {task}" in proc.stderr and "Traceback" not in proc.stderr


@pytest.mark.parametrize(
    "F, a, code",
    [(["x+y+1"], [300], EXIT_USAGE), (["x*y"], [3000], EXIT_BOUNDS)],
    ids=["(x+y+1)^300 refused", "(x*y)^3000 runs"],
)
def test_oversize_twist_is_refused_at_once(tmp_path, F, a, code):
    # f^a is sized, under the parser's rule, when the entry is parsed: a
    # many-term f refuses a large twist, a monomial one does not
    path = write_entry(
        tmp_path, variables=["x", "y"], F=F, a=a, tasks=["bs-find"],
        bounds={"order": 1, "x_degree": 0, "s_degree": 0, "b_degree": 1},
    )
    src = os.path.dirname(os.path.dirname(cli.__file__))
    env = {**os.environ, "PYTHONPATH": src}
    start = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, "-m", "bsideal.cli", "run", path],
        capture_output=True, text=True, env=env, timeout=10,
    )
    assert time.perf_counter() - start < 1
    assert proc.returncode == code
    assert "Traceback" not in proc.stderr
    if code == EXIT_USAGE:
        assert proc.stdout == ""
        assert "'a' is too large" in proc.stderr
    else:
        assert "entry: FAILED" in proc.stdout


def test_slope_bound_field_is_unknown(tmp_path, capsys):
    path = write_entry(tmp_path, slope_bound=8)
    code, out, err = run(["run", path], capsys)
    assert code == EXIT_USAGE
    assert out == ""
    assert "parse-error" in err and "unknown fields ['slope_bound']" in err


def test_slope_bound_flag_is_rejected(tmp_path, capsys):
    # argparse reports the unknown flag and exits 2 through SystemExit
    path = write_entry(tmp_path)
    with pytest.raises(SystemExit) as exc:
        main(["run", path, "--slope-bound", "8"])
    assert exc.value.code == EXIT_USAGE
    out = capsys.readouterr()
    assert out.out == ""
    assert "unrecognized arguments: --slope-bound 8" in out.err
    assert "Traceback" not in out.err


def test_text_flag_is_rejected(capsys):
    # text is the default report; the flag that only selected it is gone
    with pytest.raises(SystemExit) as exc:
        main(["run", "--seed-corpus", "--text"])
    assert exc.value.code == EXIT_USAGE
    out = capsys.readouterr()
    assert out.out == ""
    assert "unrecognized arguments: --text" in out.err
    assert "Traceback" not in out.err


def test_multiple_files_and_mixed_results(tmp_path, capsys):
    good = write_entry(tmp_path, name="good")
    tight = write_entry(
        tmp_path,
        name="tight",
        a=[2],
        bounds={"order": 1, "x_degree": 0, "s_degree": 0, "b_degree": 1},
        tasks=["bs-find"],
    )
    code, out, _ = run(["run", good, tight, "--json"], capsys)
    assert code == EXIT_BOUNDS
    report = json.loads(out)
    by_id = {e["id"]: e for e in report["entries"]}
    assert by_id["good"]["ok"] is True
    assert by_id["tight"]["error"] == "no-solution-within-bounds"
    assert report["ok"] is False


def test_golden_dir_is_bundled(capsys):
    assert os.path.isdir(golden_dir())
    names = sorted(os.listdir(golden_dir()))
    assert len(names) == 9
    assert all(n.endswith(".golden.json") for n in names)


def test_each_twist_solved_checked_factored_once(monkeypatch):
    # x_xy_a11 runs every task over the twists (1,1), (1,0) and (0,1); its
    # monomial F also gets a closed-form certificate and an snc b-element,
    # equal to the solved certificate and canonical b for (1,1)
    calls = {"verify": 0, "extract": 0}

    def counting(key, fn):
        def wrapper(*args, **kwargs):
            calls[key] += 1
            return fn(*args, **kwargs)
        return wrapper

    verify = counting("verify", solver.verify)
    monkeypatch.setattr(solver, "verify", verify)
    monkeypatch.setattr(cli, "verify", verify)
    monkeypatch.setattr(
        cli, "extract_hyperplanes", counting("extract", cli.extract_hyperplanes)
    )
    (spec,) = load_specs([corpus_file("x_xy_a11")])
    entry = EntryRunner(spec).run()
    assert entry["ok"] is True
    assert entry["tasks"] == list(cli.TASKS)
    assert calls == {"verify": 3, "extract": 3}


def test_snc_task_derives_the_exponent_graph_once(monkeypatch):
    # the snc task needs the collection's exponents and exponent graph for
    # the closed-form certificate and for the own-graph test; wherever the
    # pipeline binds the two derivations, each runs once
    calls = {"monomial_exponents": 0, "graph_from_exponents": 0}

    def counting(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    for name in calls:
        fn = getattr(snc, name)
        for module in (snc, cli):
            if hasattr(module, name):
                monkeypatch.setattr(module, name, counting(name, fn))
    (spec,) = load_specs([corpus_file("x_xy_a11")])
    entry = EntryRunner(spec).run()
    assert entry["ok"] is True
    assert entry["results"]["snc"]["certificate_b_matches_graph"] is True
    assert calls == {"monomial_exponents": 1, "graph_from_exponents": 1}


def test_graph_only_snc_factors_nothing(tmp_path, monkeypatch):
    # the b-element's factors are read off the graph, so a graph-only entry
    # never runs extract_hyperplanes
    calls = []
    original = cli.extract_hyperplanes

    def counting(p, *args):
        calls.append(p)
        return original(p, *args)

    monkeypatch.setattr(cli, "extract_hyperplanes", counting)
    (spec,) = load_specs([write_entry(tmp_path, **PAIR, resolution_graph={
        "r": 2, "components": [{"L": [1, 0]}, {"L": [0, 1]}]})])
    entry = EntryRunner(spec).run()
    assert entry["ok"] is True
    assert entry["results"]["snc"]["extracted"]
    assert calls == []
    # nothing was solved, so there is no b to compare with the graph's
    assert entry["results"]["snc"]["certificate_b_matches_graph"] is None


@pytest.fixture
def root_searches(monkeypatch):
    """The line restrictions extraction solves, one per rational_roots call."""
    calls = []
    original = hyperplanes.rational_roots

    def counting(coeffs):
        calls.append(coeffs)
        return original(coeffs)

    monkeypatch.setattr(hyperplanes, "rational_roots", counting)
    return calls


def test_own_graph_factors_the_solved_b_without_a_search(root_searches):
    # every twist's b is its graph's b-element, so the graph's hyperplanes
    # divide it out completely and no line restriction is ever solved
    (spec,) = load_specs([corpus_file("x_xy_a11")])
    entry = EntryRunner(spec).run()
    assert entry["ok"] is True
    assert entry["results"]["decompose"]["hyperplanes"]
    assert root_searches == []


def test_wrong_graph_leaves_the_solved_b_factors_unchanged(tmp_path, root_searches):
    # a graph whose hyperplanes are not all factors of b: s1 + 1 and
    # s2 + 1/2 fail to divide, s2 + 1 divides, and the search finds the rest
    fields = {
        "variables": ["x", "y"],
        "F": ["x", "x*y"],
        "a": [1, 1],
        "bounds": {"order": 3, "x_degree": 0, "s_degree": 0, "b_degree": 3},
        "tasks": ["decompose", "exp-compare"],
    }
    wrong = {"r": 2, "components": [{"L": [1, 0]}, {"L": [0, 2]}]}
    specs = load_specs([
        write_entry(tmp_path, "bare", **fields),
        write_entry(tmp_path, "wrong", resolution_graph=wrong, **fields),
    ])
    bare, wrong_graph = (EntryRunner(spec).run()["results"] for spec in specs)
    assert root_searches
    assert bare["decompose"]["ok"] is True
    assert wrong_graph["decompose"] == bare["decompose"]
    for key in ("per_axis", "combined_exp", "axis_union_matches_combined"):
        assert wrong_graph["exp-compare"][key] == bare["exp-compare"][key]


@pytest.mark.parametrize(
    "big, tasks",
    [
        ([0, 10**8], ["decompose"]),
        ([1, 10**8], ["decompose", "exp-compare"]),
    ],
    ids=["decompose", "exp-compare"],
)
def test_graph_longer_than_b_is_not_listed(tmp_path, big, tasks):
    # the graph's b-element has about 10**8 factors and b has 3: listing
    # the graph's hyperplanes as candidates would not finish, so the search
    # runs alone and finds what it finds without the graph
    fields = {
        "variables": ["x", "y"],
        "F": ["x", "x*y"],
        "a": [1, 1],
        "bounds": {"order": 3, "x_degree": 0, "s_degree": 0, "b_degree": 3},
        "tasks": tasks,
    }
    graph = {"r": 2, "components": [{"L": [1, 1]}, {"L": big}]}
    specs = load_specs([
        write_entry(tmp_path, "bare", **fields),
        write_entry(tmp_path, "big", resolution_graph=graph, **fields),
    ])
    bare, big_graph = (EntryRunner(spec).run()["results"] for spec in specs)
    assert bare["decompose"]["ok"] is True
    assert big_graph["decompose"] == bare["decompose"]
    if "exp-compare" in tasks:
        for key in ("per_axis", "combined_exp", "axis_union_matches_combined"):
            assert big_graph["exp-compare"][key] == bare["exp-compare"][key]


def test_solved_b_that_differs_from_the_graph_b_fails_snc(monkeypatch):
    # the solver's b for the twist is swapped for another one, s1 + s2 + 3
    # times the right one: the snc task compares the two and fails
    original = cli.sample_ideal

    def swapped(ctx, a, bounds):
        ((name, cert),) = original(ctx, a, bounds)
        other = cert.b * linear_form((1, 1), 3)
        return [(name, BSCertificate(cert.ctx, cert.a, other, cert.P))]

    monkeypatch.setattr(cli, "sample_ideal", swapped)
    (spec,) = load_specs([corpus_file("x_xy_a11")])
    entry = EntryRunner(spec).run()
    snc_result = entry["results"]["snc"]
    assert snc_result["certificate_verified"] is True
    assert snc_result["certificate_b_matches_graph"] is False
    assert snc_result["ok"] is False
    assert entry["ok"] is False


@pytest.mark.parametrize(
    "spec_of",
    [
        # graph only: nothing was solved, so the closed form is checked
        lambda tmp_path: load_specs([write_entry(tmp_path, **PAIR, resolution_graph={
            "r": 2, "components": [{"L": [1, 0]}, {"L": [0, 1]}]})])[0],
        # x^2 is solved with monic b = (s+1)(s+1/2), P = 1/4*dx^2, and the
        # closed form is b = (2s+1)(2s+2), P = dx^2: it is checked itself
        lambda tmp_path: load_specs([corpus_file("mono_x2_a1")])[0],
    ],
    ids=["graph-only", "closed-form-differs"],
)
def test_closed_form_certificate_verified_unless_solved(spec_of, tmp_path, monkeypatch):
    checked = []

    def counting(cert):
        checked.append(cert)
        return solver.verify(cert)

    monkeypatch.setattr(cli, "verify", counting)
    spec = spec_of(tmp_path)
    entry = EntryRunner(spec).run()
    assert entry["ok"] is True
    snc = entry["results"]["snc"]
    assert snc["certificate_verified"] is True
    assert [c.to_json_dict() for c in checked] == [snc["certificate"]]


def test_closed_form_check_derives_through_the_solver(tmp_path, capsys, monkeypatch):
    # a graph-only pure monomial entry checks its closed-form certificate
    # with a one-argument verify: every germ derivative goes through
    # solver.partial_derivative, none through weyl's own name
    calls = {"weyl": 0, "solver": 0}

    def counting(side, fn):
        def spy(v, j):
            calls[side] += 1
            return fn(v, j)
        return spy

    monkeypatch.setattr(weyl, "partial_derivative", counting("weyl", weyl.partial_derivative))
    monkeypatch.setattr(solver, "partial_derivative", counting("solver", solver.partial_derivative))
    path = write_entry(tmp_path, **PAIR, resolution_graph={
        "r": 2, "components": [{"L": [1, 0]}, {"L": [0, 1]}]})
    code, out, _ = run(["run", "--json", path], capsys)
    assert code == EXIT_OK
    (entry,) = json.loads(out)["entries"]
    assert entry["results"]["snc"]["certificate_verified"] is True
    assert calls["weyl"] == 0 and calls["solver"] > 0


@pytest.mark.parametrize(
    "spec_of, calls, matches",
    [
        # the entry's graph is its own exponent graph: b is the closed form's
        (lambda tmp_path: load_specs([corpus_file("x_xy_a11")])[0], 0, True),
        # not a monomial collection: no closed form
        (lambda tmp_path: load_specs([corpus_file("x2y2_a1")])[0], 1, None),
        # monomial, but the graph is blown up at the origin: L = (1), (1), (2)
        (lambda tmp_path: load_specs([write_entry(
            tmp_path, variables=["x", "y"], F=["x*y"], tasks=["snc"],
            resolution_graph={"r": 1, "components": [{"L": [1]}, {"L": [1]}, {"L": [2]}]},
        )])[0], 1, None),
    ],
    ids=["own-graph", "not-monomial", "blown-up-graph"],
)
def test_snc_builds_the_graph_b_element_only_for_another_graph(
    spec_of, calls, matches, tmp_path, monkeypatch
):
    made = []
    original = cli.snc_b_element

    def counting(graph, a):
        made.append(a)
        return original(graph, a)

    monkeypatch.setattr(cli, "snc_b_element", counting)
    entry = EntryRunner(spec_of(tmp_path)).run()
    assert entry["ok"] is True
    assert len(made) == calls
    assert entry["results"]["snc"]["certificate_b_matches_graph"] is matches
