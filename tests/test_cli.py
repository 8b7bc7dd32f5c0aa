"""Front-end behavior: report shape, exit codes, goldens, determinism."""

import json
import os

import pytest

from bsideal.cli import (
    EXIT_BOUNDS,
    EXIT_CHECK_FAILED,
    EXIT_OK,
    EXIT_USAGE,
    canonical_json,
    corpus_paths,
    golden_dir,
    main,
)


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
    gpath = os.path.join(gdir, "probe.golden.json")
    data = json.loads(open(gpath).read())
    data["results"]["bs-find"]["canonical_b"] = "s + 2"
    open(gpath, "w").write(canonical_json(data))
    code, out, _ = run(["run", path, "--check-golden", gdir], capsys)
    assert code == EXIT_CHECK_FAILED
    assert "MISMATCH" in out


def test_golden_missing_fails(tmp_path, capsys):
    path = write_entry(tmp_path)
    code, out, _ = run(["run", path, "--check-golden", str(tmp_path)], capsys)
    assert code == EXIT_CHECK_FAILED


def test_malformed_json_is_usage_error(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text("{nope")
    code, _, err = run(["run", str(path)], capsys)
    assert code == EXIT_USAGE
    assert "parse-error" in err


def test_no_inputs_is_usage_error(capsys):
    code, _, err = run(["run"], capsys)
    assert code == EXIT_USAGE
    assert "parse-error" in err


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
    ],
)
def test_invalid_entries_are_usage_errors(tmp_path, capsys, overrides):
    path = write_entry(tmp_path, **overrides)
    code, _, err = run(["run", str(path)], capsys)
    assert code == EXIT_USAGE
    assert "parse-error" in err


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


@pytest.mark.parametrize("raw", ["abc", "-5", "0", "1.5"])
def test_malformed_cell_cap_is_usage_error(tmp_path, capsys, monkeypatch, raw):
    monkeypatch.setenv("BSIDEAL_MAX_CELLS", raw)
    path = write_entry(tmp_path)
    code, out, err = run(["run", path], capsys)
    assert code == EXIT_USAGE
    assert out == ""
    assert err == f"error: BSIDEAL_MAX_CELLS must be a positive integer, got {raw!r}\n"


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
