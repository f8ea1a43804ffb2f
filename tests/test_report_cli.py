"""Report rendering and command-line behavior."""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import tcscore
import tcscore.records
from tcscore.cli import main
from tcscore.graphhash import HashInput, graph_hash, normalize_source
from tcscore.records import (
    CompileFailure,
    Completed,
    RecordsHeader,
    RunRecord,
    SampleManifest,
    TaskCategory,
    TensorComparison,
    write_manifests,
    write_records,
)
from tcscore.report import (
    render_curve,
    render_stats,
    render_table,
    render_violin,
    round_half_away,
    table_rows,
    violin_data,
)
from tcscore.scoring import ScoreConfig, score_curve
from tcscore.dataset import stats
from tcscore.tolerance import ScalarKind

CFG = ScoreConfig()
HEADER = RecordsHeader(CFG.grid, 0.1, 0.1, "test")


def manifest(sample_id, framework="torch", category=TaskCategory.CV):
    return SampleManifest(sample_id, framework, category, 8, "ab")


def completed(sample_id, eager, compiled, level=-10.0):
    return RunRecord(
        sample_id,
        eager,
        Completed((TensorComparison(0, ScalarKind.FLOAT32, level),)),
        compiled_time_s=compiled,
    )


def small_dataset():
    manifests = [
        manifest("a"),
        manifest("b"),
        manifest("c", category=TaskCategory.NLP),
        manifest("d", framework="paddle", category=TaskCategory.NLP),
    ]
    records = [
        completed("a", 4.0, 1.0),
        completed("b", 1.0, 2.0, level=-4.0),
        completed("c", 2.0, 1.0),
        RunRecord("d", 1.0, CompileFailure("nope")),
    ]
    return manifests, records


def write_dataset(tmp_path, manifests, records):
    m_path = tmp_path / "m.jsonl"
    r_path = tmp_path / "r.jsonl"
    write_manifests(m_path, manifests)
    write_records(r_path, HEADER, records)
    return str(m_path), str(r_path)


def test_round_half_away():
    assert round_half_away(0.1) == "0.100"
    assert round_half_away(0.0005) == "0.001"
    assert round_half_away(-0.0005) == "-0.001"
    assert round_half_away(1.2835) == "1.284"
    assert round_half_away(2.0) == "2.000"
    # Past the default 28-digit decimal context, up to the largest double.
    assert round_half_away(1e25) == "10000000000000000000000000.000"
    assert round_half_away(1e308) == "1" + "0" * 308 + ".000"
    biggest = round_half_away(-1.7976931348623157e308)
    assert biggest.startswith("-17976931348623157") and biggest.endswith("0.000")
    assert len(biggest) == 1 + 309 + 4


def test_table_rows_columns_and_dash():
    manifests, records = small_dataset()
    curve = score_curve(manifests, records, CFG)
    rows = table_rows(curve)
    assert len(rows) == len(CFG.grid)
    for row in rows:
        assert list(row) == ["t", "alpha", "beta", "lambda", "eta", "S(t)", "gamma", "ES(t)"]
        if float(row["t"]) > 0:
            assert row["S(t)"] == "-"
        else:
            assert row["S(t)"] != "-"


def test_render_table_csv_header():
    manifests, records = small_dataset()
    curve = score_curve(manifests, records, CFG)
    text = render_table(curve, "csv")
    lines = text.splitlines()
    assert lines[0] == "t,alpha,beta,lambda,eta,S(t),gamma,ES(t)"
    assert len(lines) == 1 + len(CFG.grid)


def test_render_table_json_null_for_positive_levels():
    manifests, records = small_dataset()
    curve = score_curve(manifests, records, CFG)
    payload = json.loads(render_table(curve, "json"))
    for row in payload:
        assert (row["S(t)"] is None) == (row["t"] > 0)


def test_render_curve_rows_and_empty_s_field():
    manifests, records = small_dataset()
    curve = score_curve(manifests, records, CFG)
    lines = render_curve(curve, "csv").splitlines()
    assert len(lines) == 1 + 15  # header + one row per level
    header = lines[0].split(",")
    s_index = header.index("S")
    t_index = header.index("t")
    es_index = header.index("ES")
    es_over_positive = []
    for line in lines[1:]:
        cells = line.split(",")
        if float(cells[t_index]) > 0:
            assert cells[s_index] == ""
        if float(cells[t_index]) >= 0:
            es_over_positive.append(float(cells[es_index]))
    assert es_over_positive == sorted(es_over_positive)


def test_violin_groups_exact_logs_and_exclusions():
    manifests = [manifest(s) for s in ("a", "b", "c")] + [
        manifest("d", category=TaskCategory.NLP),
        manifest("e", category=TaskCategory.NLP),
    ]
    records = [
        completed("a", 4.0, 4.0),  # speedup 1 -> log2 0
        completed("b", 4.0, 2.0),  # speedup 2 -> log2 1
        completed("c", 4.0, 1.0),  # speedup 4 -> log2 2
        RunRecord("d", 1.0, CompileFailure("x")),
        completed("e", 1.0, 1.0, level=None),  # accuracy error, excluded
    ]
    groups = violin_data(manifests, records, CFG)
    assert groups[("torch", "CV")] == [0.0, 1.0, 2.0]
    assert groups[("torch", "NLP")] == []  # group present despite no correct samples


def test_render_violin_formats():
    groups = {("torch", "CV"): [0.0, 1.0], ("torch", "NLP"): []}
    payload = json.loads(render_violin(groups, "json"))
    assert payload == [
        {"framework": "torch", "task_category": "CV", "log2_speedups": [0.0, 1.0]},
        {"framework": "torch", "task_category": "NLP", "log2_speedups": []},
    ]
    lines = render_violin(groups, "csv").splitlines()
    assert lines[0] == "framework,task_category,log2_speedups"
    assert lines[2] == "torch,NLP,"


def test_render_stats_shapes():
    manifests = [manifest("a"), manifest("b", category=TaskCategory.NLP)]
    report = stats(manifests)
    payload = json.loads(render_stats(report, "json"))
    assert payload["total"] == 2
    assert payload["category_counts"]["CV"] == 1
    assert "3" in payload["opcount_histograms"]["CV"]  # 8 ops -> bin 2^3
    text = render_stats(report, "csv")
    assert "category,count,share_percent" in text
    assert "category,bin_exponent,count" in text


def test_renderers_reject_unknown_format():
    manifests, records = small_dataset()
    curve = score_curve(manifests, records, CFG)
    for renderer, arg in (
        (render_table, curve),
        (render_curve, curve),
        (render_violin, {}),
        (render_stats, stats(manifests)),
    ):
        with pytest.raises(ValueError):
            renderer(arg, "yaml")


# -- CLI ------------------------------------------------------------------------


def test_cli_report_writes_table(tmp_path, capsys):
    manifests, records = small_dataset()
    m_path, r_path = write_dataset(tmp_path, manifests, records)
    out = tmp_path / "table.csv"
    code = main(["report", "--records", r_path, "--manifests", m_path, "--out", str(out)])
    assert code == 0
    assert out.read_text().splitlines()[0] == "t,alpha,beta,lambda,eta,S(t),gamma,ES(t)"


def test_cli_score_outputs_json(tmp_path, capsys):
    manifests, records = small_dataset()
    m_path, r_path = write_dataset(tmp_path, manifests, records)
    code = main(["score", "--records", r_path, "--manifests", m_path, "--t", "0"])
    assert code == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["S"] == payload["ES"]
    assert payload["total"] == 4
    code = main(["score", "--records", r_path, "--t", "3"])
    payload = json.loads(capsys.readouterr().out)
    assert code == 0
    assert payload["S"] is None and payload["ES"] > 0


def test_cli_score_empty_records_fails(tmp_path, capsys):
    r_path = tmp_path / "r.jsonl"
    write_records(r_path, HEADER, [])
    code = main(["score", "--records", str(r_path), "--t", "0"])
    assert code == 1
    assert capsys.readouterr().err == f"error: {r_path}: no records after the header\n"
    assert main(["validate", "--records", str(r_path)]) == 1
    assert capsys.readouterr().err == f"error: {r_path}: no records after the header\n"


def test_cli_validate_refuses_empty_manifests(tmp_path, capsys):
    m_path = tmp_path / "m.jsonl"
    m_path.write_text("")
    assert main(["stats", "--manifests", str(m_path)]) == 1
    assert capsys.readouterr().err == f"error: {m_path}: no manifests\n"
    assert main(["validate", "--manifests", str(m_path)]) == 1
    assert capsys.readouterr().err == f"error: {m_path}: no manifests\n"


@pytest.mark.parametrize(
    "command, empty",
    [(c, "records") for c in ("score", "curve", "report", "violin", "validate")]
    + [(c, "manifests") for c in ("score", "curve", "report", "violin", "validate", "stats", "dedup")],
)
def test_cli_refuses_empty_inputs_naming_the_file(tmp_path, capsys, command, empty):
    m_path, r_path = write_dataset(tmp_path, *small_dataset())
    if empty == "manifests":
        Path(m_path).write_text("")
        message = f"error: {m_path}: no manifests\n"
    else:
        write_records(r_path, HEADER, [])
        message = f"error: {r_path}: no records after the header\n"
    out = tmp_path / "out.jsonl"
    out.write_text("old\n")
    if command == "stats":
        argv = ["--manifests", m_path]
    elif command == "dedup":
        argv = ["--manifests", m_path, "--out", str(out)]
    else:
        argv = ["--manifests", m_path, "--records", r_path]
    assert main([command, *argv]) == 1
    assert capsys.readouterr() == ("", message)
    # dedup refuses before replacing --out, and leaves no temporary behind.
    assert out.read_text() == "old\n"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["m.jsonl", "out.jsonl", "r.jsonl"]


@pytest.mark.parametrize(
    "text", ["[" * 200_000, '{"sample_id": ' + "9" * 5000 + "}"], ids=["deep", "long-int"]
)
@pytest.mark.parametrize(
    "command, bad",
    [(c, "records") for c in ("score", "curve", "report", "violin", "validate")]
    + [(c, "manifests") for c in ("score", "curve", "report", "violin", "validate", "stats", "dedup")]
    + [("simulate", "spec")],
)
def test_cli_json_too_deep_or_too_long_is_a_data_error(tmp_path, capsys, command, bad, text):
    # json.loads raises RecursionError past its nesting limit, and a plain
    # ValueError for an integer literal past Python's 4300-digit limit.
    m_path, r_path = write_dataset(tmp_path, *small_dataset())
    if command == "simulate":
        path = tmp_path / "spec.json"
        path.write_text(text)
        outputs = ["--manifests", str(tmp_path / "sm.jsonl"), "--records", str(tmp_path / "sr.jsonl")]
        argv = ["--spec", str(path), *outputs]
        where = f"error: {path}: "
    else:
        path = Path(m_path if bad == "manifests" else r_path)
        lines = path.read_text().splitlines()
        lines[1] = text
        path.write_text("\n".join(lines) + "\n")
        if command == "stats":
            argv = ["--manifests", m_path]
        elif command == "dedup":
            argv = ["--manifests", m_path, "--out", str(tmp_path / "out.jsonl")]
        else:
            argv = ["--manifests", m_path, "--records", r_path]
        where = f"error: {path}:2: invalid JSON: "
    assert main([command, *argv]) == 1
    out, err = capsys.readouterr()
    assert out == "" and err.startswith(where) and err.count("\n") == 1, err[:300]


def test_cli_score_off_grid_level_fails(tmp_path, capsys):
    manifests, records = small_dataset()
    _, r_path = write_dataset(tmp_path, manifests, records)
    code = main(["score", "--records", r_path, "--t", "0.5"])
    assert code == 1
    assert "grid" in capsys.readouterr().err


def test_cli_grid_levels_must_be_measured_and_ascending(tmp_path, capsys):
    manifests, records = small_dataset()
    m_path, r_path = write_dataset(tmp_path, manifests, records)
    code = main(["score", "--records", r_path, "--grid=-7,-6.5,0,1,2,3,4", "--t=-6.5"])
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and err.rstrip().endswith("grid: -6.5")
    assert main(["score", "--records", r_path, "--grid=1,0", "--t=0"]) == 1
    assert "ascending" in capsys.readouterr().err
    # An explicitly empty --grid is an error, not "no --grid".
    both = ["--manifests", m_path, "--records", r_path]
    simulated = ["--manifests", str(tmp_path / "sm.jsonl"), "--records", str(tmp_path / "sr.jsonl")]
    for argv in (
        ["score", "--records", r_path],
        ["curve", *both],
        ["report", *both],
        ["violin", *both],
        ["simulate", "--n", "3", *simulated],
    ):
        assert main([*argv, "--grid="]) == 1, argv
        assert capsys.readouterr().err.startswith("error: bad grid ''"), argv


@pytest.mark.parametrize(
    "spec",
    [
        [1],
        {"seed": 1.5},
        {"n_samples": "10"},
        {"speedup_law": {"mean": 1}},
        {"error_rates": [0.1]},
        {"category_mix": ["CV"]},
        {"noise_law": {"float32": None}},
    ],
)
def test_cli_simulate_rejects_malformed_spec(tmp_path, capsys, spec):
    spec_path = tmp_path / "spec.json"
    spec_path.write_text(json.dumps(spec))
    outputs = ["--manifests", str(tmp_path / "m.jsonl"), "--records", str(tmp_path / "r.jsonl")]
    assert main(["simulate", "--spec", str(spec_path), *outputs]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: {spec_path}: ") and "Traceback" not in err


@pytest.mark.parametrize(
    "key, spec",
    [
        ("opcount_law", {"opcount_law": {"log2_mean": 5000, "log2_stddev": 1}}),
        ("speedup_law", {"speedup_law": {"log2_mean": -5000, "log2_stddev": 1}}),
        ("speedup_law", {"speedup_law": {"log2_mean": 5000, "log2_stddev": 1}}),
        ("noise_law", {"noise_law": {"float32": 1e308}}),
    ],
)
def test_cli_simulate_law_leaving_float_range_fails(tmp_path, capsys, key, spec):
    spec_path = tmp_path / "spec.json"
    spec_path.write_text(json.dumps(spec))
    outputs = ["--manifests", str(tmp_path / "m.jsonl"), "--records", str(tmp_path / "r.jsonl")]
    assert main(["simulate", "--spec", str(spec_path), "--n", "50", *outputs]) == 1
    assert capsys.readouterr().err == f"error: {key}: draws leave float range\n"


def test_cli_report_renders_huge_scores(tmp_path, capsys):
    # Speedups near 2**1000 put table cells far beyond 1e25.
    spec = {
        "opcount_law": {"log2_mean": 1020, "log2_stddev": 1},
        "speedup_law": {"log2_mean": 1000, "log2_stddev": 10},
    }
    spec_path = tmp_path / "spec.json"
    spec_path.write_text(json.dumps(spec))
    both = ["--manifests", str(tmp_path / "m.jsonl"), "--records", str(tmp_path / "r.jsonl")]
    assert main(["simulate", "--spec", str(spec_path), "--n", "20", *both]) == 0
    assert main(["validate", *both]) == 0
    for fmt in ("csv", "json", "md"):
        assert main(["report", *both, "--format", fmt]) == 0
    assert capsys.readouterr().err == ""


@pytest.mark.parametrize("text", [b"{seed: 1}", b'{"seed": 1', b"", b'{"framework": "\xff"}'])
def test_cli_simulate_unreadable_spec_names_the_file(tmp_path, capsys, text):
    spec_path = tmp_path / "spec.json"
    spec_path.write_bytes(text)
    outputs = ["--manifests", str(tmp_path / "m.jsonl"), "--records", str(tmp_path / "r.jsonl")]
    assert main(["simulate", "--spec", str(spec_path), *outputs]) == 1
    assert capsys.readouterr().err.startswith(f"error: {spec_path}: ")


def test_cli_validate_reports_duplicate_lines(tmp_path, capsys):
    m_path = tmp_path / "m.jsonl"
    write_manifests(m_path, [manifest("a"), manifest("b")])
    lines = m_path.read_text().splitlines()
    m_path.write_text("\n".join([lines[0], lines[1], lines[0]]) + "\n")
    code = main(["validate", "--manifests", str(m_path)])
    assert code == 1
    err = capsys.readouterr().err
    assert "line 1" in err and ":3:" in err


def _mismatched_manifests(tmp_path):
    """Eight manifests whose hashes all disagree with their inputs but one."""
    inputs = HashInput.from_source("x = a + b", [("add", (0, 1))])
    ids = ["m6", "m0", "ok", "m5", "m1", "m4", "m2", "m3"]
    m_path = tmp_path / "m.jsonl"
    write_manifests(
        m_path,
        [
            SampleManifest(
                sample_id,
                "torch",
                TaskCategory.CV,
                8,
                graph_hash(inputs) if sample_id == "ok" else "ab",
                source_digest_inputs=inputs,
            )
            for sample_id in ids
        ],
    )
    return m_path


def test_cli_validate_names_hash_mismatches_in_file_order(tmp_path, capsys):
    m_path = _mismatched_manifests(tmp_path)
    assert main(["validate", "--manifests", str(m_path)]) == 1
    assert capsys.readouterr().err == (
        "error: graph_hash does not match recorded inputs for 7 samples:"
        " 'm6', 'm0', 'm5', 'm1', 'm4'\n"
    )


def test_cli_validate_normalizes_each_recorded_source_once(tmp_path, capsys, monkeypatch):
    # The on-disk source of test_hash_golden_vector_with_comments_and_unicode_whitespace.
    source = (
        "def f(x0, w):  # entry\n"
        "\tx1 = matmul(x0,\u3000w)\x0b\r\n"
        "  x2 = add(x1, x0) # residual\x85x9 = x2 "
        "\xa0return x2\x1c# out\n"
    )
    topology = [["matmul", [0, 1]], ["add", [2, 0]], ["relu", [3]]]
    normalized = "e3a4d3443d6ac255e47e5acdd3f2fca622a2cf495f6d55ece7e528f713c9b05e"
    raw = graph_hash(HashInput(source, topology))  # the text hashed as written
    calls = []
    monkeypatch.setattr(
        tcscore.records, "normalize_source", lambda text: calls.append(text) or normalize_source(text)
    )
    # validate builds no SampleManifest.
    monkeypatch.setattr(tcscore.records, "_build_manifest", None)
    m_path = tmp_path / "m.jsonl"
    for stored, code, err in [
        (normalized, 0, ""),
        (normalized.upper(), 0, ""),
        (raw, 1, "error: graph_hash does not match recorded inputs for 1 samples: 'g'\n"),
    ]:
        line = {
            "sample_id": "g", "framework": "torch", "task_category": "CV", "operator_count": 3,
            "graph_hash": stored,
            "source_digest_inputs": {"normalized_source": source, "topology": topology},
        }
        m_path.write_text(json.dumps(line) + "\n")
        assert main(["validate", "--manifests", str(m_path)]) == code
        assert capsys.readouterr().err == err
        assert calls == [source]
        calls.clear()


@pytest.mark.parametrize(
    "line, message",
    [
        ("{oops", "invalid JSON"),
        (
            '{"sample_id": "late", "framework": "torch", "task_category": "CV",'
            ' "operator_count": 0, "graph_hash": "ab"}',
            "operator_count must be >= 1",
        ),
        (
            '{"sample_id": "m6", "framework": "torch", "task_category": "CV",'
            ' "operator_count": 8, "graph_hash": "ab"}',
            "duplicate sample_id 'm6' (first seen at line 1)",
        ),
    ],
)
def test_cli_validate_malformed_later_line_wins_over_hash_mismatch(
    tmp_path, capsys, line, message
):
    m_path = _mismatched_manifests(tmp_path)
    with m_path.open("a") as fh:
        fh.write(line + "\n")
    assert main(["validate", "--manifests", str(m_path)]) == 1
    assert capsys.readouterr().err.startswith(f"error: {m_path}:9: {message}")


def test_cli_validate_ok_and_join_check(tmp_path, capsys):
    manifests, records = small_dataset()
    m_path, r_path = write_dataset(tmp_path, manifests, records)
    assert main(["validate", "--manifests", m_path, "--records", r_path]) == 0
    assert "ok: 4 manifests, 4 records" in capsys.readouterr().out
    # drop one record; the join check must fail
    write_records(tmp_path / "r2.jsonl", HEADER, records[:3])
    code = main(["validate", "--manifests", m_path, "--records", str(tmp_path / "r2.jsonl")])
    assert code == 1
    assert "without records" in capsys.readouterr().err


def test_cli_dedup(tmp_path, capsys):
    dupe = SampleManifest("dup", "torch", TaskCategory.CV, 8, "ab")
    m_path = tmp_path / "m.jsonl"
    write_manifests(m_path, [manifest("a"), dupe])
    out = tmp_path / "kept.jsonl"
    assert main(["dedup", "--manifests", str(m_path), "--out", str(out)]) == 0
    assert "kept 1 dropped 1" in capsys.readouterr().out
    assert len(out.read_text().splitlines()) == 1


def test_cli_stats(tmp_path, capsys):
    m_path = tmp_path / "m.jsonl"
    write_manifests(m_path, [manifest("a")])
    assert main(["stats", "--manifests", str(m_path)]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["category_shares"]["CV"] == 100.0


def test_cli_flag_overrides(tmp_path, capsys):
    manifests, records = small_dataset()
    m_path, r_path = write_dataset(tmp_path, manifests, records)
    code = main(
        ["score", "--records", r_path, "--t", "-1", "--b", "0.5", "--grid=-2,-1,0,1"]
    )
    assert code == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["gamma"] == 0.5


def test_cli_usage_errors_exit_2(tmp_path):
    with pytest.raises(SystemExit) as excinfo:
        main(["unknown-command"])
    assert excinfo.value.code == 2
    with pytest.raises(SystemExit) as excinfo:
        main(["report", "--records", "r", "--manifests", "m", "--format", "yaml"])
    assert excinfo.value.code == 2


def test_cli_simulate_defaults_then_report(tmp_path, capsys):
    m_path = tmp_path / "m.jsonl"
    r_path = tmp_path / "r.jsonl"
    code = main(
        ["simulate", "--seed", "7", "--n", "50", "--manifests", str(m_path), "--records", str(r_path)]
    )
    assert code == 0
    assert "wrote 50 manifests" in capsys.readouterr().out
    assert main(["report", "--records", str(r_path), "--manifests", str(m_path)]) == 0
    table = capsys.readouterr().out
    assert table.splitlines()[0].startswith("t,alpha")


def test_cli_missing_file_is_data_error(capsys):
    assert main(["stats", "--manifests", "/nonexistent/m.jsonl"]) == 1
    assert "error:" in capsys.readouterr().err


def _child_env() -> dict[str, str]:
    """Environment under which a child imports the same tcscore package."""
    paths = [str(Path(tcscore.__file__).parent.parent), os.environ.get("PYTHONPATH", "")]
    return {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, paths))}


def test_cli_subprocess_entrypoint(tmp_path):
    m_path = tmp_path / "m.jsonl"
    r_path = tmp_path / "r.jsonl"
    env = _child_env()
    result = subprocess.run(
        [
            sys.executable,
            "-m",
            "tcscore",
            "simulate",
            "--seed",
            "3",
            "--n",
            "20",
            "--manifests",
            str(m_path),
            "--records",
            str(r_path),
        ],
        capture_output=True,
        text=True,
        env=env,
    )
    assert result.returncode == 0, result.stderr
    result = subprocess.run(
        [sys.executable, "-m", "tcscore", "validate", "--manifests", str(m_path), "--records", str(r_path)],
        capture_output=True,
        text=True,
        env=env,
    )
    assert result.returncode == 0
    assert result.stdout.startswith("ok:")
    result = subprocess.run(
        [sys.executable, "-m", "tcscore", "nope"], capture_output=True, text=True, env=env
    )
    assert result.returncode == 2


_SCORING_UNUSED = ("hashlib", "tcscore.dataset", "decimal")


@pytest.mark.parametrize(
    "argv, unused",
    [
        (None, ("hashlib",)),
        (["stats", "--manifests", "M", "--format", "json"], ("hashlib", "csv", "decimal")),
        (["dedup", "--manifests", "M", "--out", "OUT"],
         ("hashlib", "csv", "decimal", "tcscore.report")),
        (["validate", "--manifests", "M", "--records", "R"],
         ("tcscore.report", "tcscore.dataset", "csv", "decimal")),
        (["score", "--records", "R"], _SCORING_UNUSED),
        (["curve", "--manifests", "M", "--records", "R", "--format", "json"], _SCORING_UNUSED),
        (["violin", "--manifests", "M", "--records", "R"], _SCORING_UNUSED),
    ],
    ids=["import", "stats", "dedup", "validate", "score", "curve", "violin"],
)
def test_command_leaves_unused_modules_unloaded(tmp_path, argv, unused):
    # Only the simulator needs numpy; each other command, run in a fresh
    # interpreter, also leaves unloaded the modules it never calls.
    paths = {"M": tmp_path / "m.jsonl", "R": tmp_path / "r.jsonl", "OUT": tmp_path / "out.jsonl"}
    assert main(["simulate", "--seed", "3", "--n", "20", "--manifests", str(paths["M"]),
                 "--records", str(paths["R"])]) == 0
    child = "import sys, tcscore\n"
    if argv is not None:
        argv = [str(paths.get(arg, arg)) for arg in argv]
        child += f"import tcscore.cli\nassert tcscore.cli.main({argv!r}) == 0\n"
    child += f"print([m for m in {('numpy', *unused)!r} if m in sys.modules], file=sys.stderr)\n"
    result = subprocess.run(
        [sys.executable, "-c", child], capture_output=True, text=True, env=_child_env()
    )
    assert result.returncode == 0, result.stderr
    assert result.stderr == "[]\n"
    if argv is not None and argv[0] == "score":
        assert json.loads(result.stdout)["total"] == 20


def test_report_rendering_is_stable(tmp_path):
    manifests, records = small_dataset()
    curve = score_curve(manifests, records, CFG)
    assert render_table(curve, "md") == render_table(curve, "md")
    assert render_curve(curve, "json") == render_curve(curve, "json")
