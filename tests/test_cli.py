"""Command-line interface: golden reports, artifacts, error handling."""

import json

import numpy as np
import pytest

from mastrat.cli import main
from mastrat.fixtures import _DATA, d3_star, pb8

TABLE_D3 = [
    "G1-MA {0, 0, 0, 3, 0, 0}",
    "G2-MA {0, 7, 0, 7, 0, 1}",
    "G3-MA {2, 2, 4, 5, 2, 0}",
    "G4-MA {1, 2, 6, 5, 1, 0}",
    "G5-MA {2, 9, 4, 9, 2, 1}",
    "G6-MA {1, 9, 6, 9, 1, 1}",
    "G7-MA {3, 4, 10, 7, 3, 0}",
    "G8-MA {3, 11, 10, 11, 3, 1}",
]


def write_design(path, table):
    np.savetxt(path, table, fmt="%d", delimiter=",")


@pytest.fixture
def latin_table(tmp_path):
    p = tmp_path / "latin16.txt"
    p.write_text((_DATA / "latin16.txt").read_text())
    return str(p)


# ----- usage errors -----

def test_no_command_exits_nonzero(capsys):
    with pytest.raises(SystemExit):
        main([])


def test_search_missing_n(capsys):
    rc = main(["search", "--structure", "8/4", "--l0", "0",
               "--criterion", "forward"])
    assert rc == 1
    assert "error" in capsys.readouterr().err


def test_bad_structure_expression(capsys):
    rc = main(["search", "--structure", "8/(4x4", "--n", "5", "--l0", "0",
               "--criterion", "forward"])
    assert rc == 1


def test_evaluate_row_mismatch(tmp_path, capsys):
    f = tmp_path / "d.csv"
    write_design(f, pb8())
    rc = main(["evaluate", "--structure", "16", "--design", str(f)])
    assert rc == 1


# ----- evaluate -----

def test_evaluate_pb8(tmp_path, capsys):
    f = tmp_path / "pb8.csv"
    write_design(f, pb8())
    rc = main(["evaluate", "--structure", "8", "--design", str(f)])
    assert rc == 0
    out = capsys.readouterr().out.strip()
    assert out == "G1-MA {0, 0, 7, 7, 0, 0, 1}"


def test_evaluate_d3_star(tmp_path, latin_table, capsys):
    f = tmp_path / "d3.csv"
    write_design(f, d3_star())
    rc = main(["evaluate", "--class-table", latin_table, "--design", str(f)])
    assert rc == 0
    assert capsys.readouterr().out.strip().splitlines() == TABLE_D3


# ----- oracle -----

def test_oracle_blocked_16run(capsys):
    rc = main(["oracle", "--structure", "2/8", "--n", "5", "--l0", "1",
               "--criterion", "forward"])
    assert rc == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert lines[0] == "G1-MA {0, 0, 0, 0, 1}"
    assert lines[1] == "G2-MA {0, 1, 1, 0, 1}"
    assert lines[2] == "co-optimal designs: 6"


def test_search_template_without_free_positions(capsys):
    # A full factorial on 32 unstructured runs leaves nothing to search.
    args = ["--structure", "32", "--n", "5", "--l0", "0"]
    assert main(["oracle", *args]) == 0
    oracle_line = capsys.readouterr().out.splitlines()[0]
    assert main(["search", *args, "--S", "2", "--T", "2"]) == 0
    assert capsys.readouterr().out.strip() == oracle_line
    assert oracle_line == "G1-MA {0, 0, 0, 0, 0}"


def test_oracle_cap_exceeded(capsys):
    rc = main(["oracle", "--structure", "8/4", "--n", "13", "--l0", "8",
               "--criterion", "forward"])
    assert rc == 1
    assert "too large" in capsys.readouterr().err


def test_oracle_nonregular_checks_cap_before_building(monkeypatch, capsys):
    built = []
    monkeypatch.setattr(
        "mastrat.search.NonregularProblem.__init__",
        lambda self, *a, **k: built.append(a),
    )
    rc = main(["oracle", "--structure", "8", "--n", "12", "--mode",
               "nonregular", "--criterion", "forward"])
    assert rc == 1
    assert "too large" in capsys.readouterr().err
    assert built == []


def test_oracle_nonregular_complete_factorial(capsys):
    rc = main(["oracle", "--structure", "4", "--n", "2", "--mode",
               "nonregular", "--criterion", "forward", "--cap", "1000"])
    assert rc == 0
    out = capsys.readouterr().out
    assert "G1-MA {0, 0}" in out


# ----- search artifacts & round trip -----

def run_small_search(out_dir, extra=()):
    args = ["search", "--structure", "8/4", "--n", "5", "--l0", "0",
            "--criterion", "forward", "--S", "5", "--T", "5", "--seed", "1",
            "--out-dir", str(out_dir), *extra]
    return main(args)


def test_search_writes_artifacts(tmp_path, capsys):
    rc = run_small_search(tmp_path, ["--trace"])
    assert rc == 0
    for name in ("design.csv", "key.txt", "report.txt", "report.json",
                 "metadata.json", "trace.jsonl"):
        assert (tmp_path / name).exists(), name
    meta = json.loads((tmp_path / "metadata.json").read_text())
    assert meta["seed"] == 1 and meta["S"] == 5 and meta["T"] == 5
    trace = [json.loads(l) for l in
             (tmp_path / "trace.jsonl").read_text().splitlines()]
    assert len(trace) == 5


def test_search_round_trip(tmp_path, capsys):
    assert run_small_search(tmp_path) == 0
    report = (tmp_path / "report.txt").read_text().strip()
    capsys.readouterr()
    rc = main(["evaluate", "--structure", "8/4",
               "--design", str(tmp_path / "design.csv")])
    assert rc == 0
    assert capsys.readouterr().out.strip() == report


def test_search_deterministic(tmp_path, capsys):
    d1, d2 = tmp_path / "a", tmp_path / "b"
    assert run_small_search(d1) == 0
    assert run_small_search(d2) == 0
    assert (d1 / "report.txt").read_text() == (d2 / "report.txt").read_text()
    assert (d1 / "design.csv").read_text() == (d2 / "design.csv").read_text()


def test_config_file_with_flag_override(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({
        "structure": "8/4", "n": 5, "l0": 0, "criterion": "forward",
        "S": 4, "T": 2, "seed": 3, "out_dir": str(tmp_path / "out"),
    }))
    rc = main(["search", "--config", str(cfg), "--T", "3"])
    assert rc == 0
    meta = json.loads((tmp_path / "out" / "metadata.json").read_text())
    assert meta["T"] == 3 and meta["S"] == 4 and meta["seed"] == 3


def test_nonregular_search_cli(tmp_path, capsys):
    rc = main(["search", "--structure", "8", "--n", "3", "--mode",
               "nonregular", "--criterion", "forward", "--S", "10",
               "--T", "10", "--seed", "1", "--out-dir", str(tmp_path)])
    assert rc == 0
    out = capsys.readouterr().out
    assert "G1-MA {0, 0, 0}" in out  # full factorial is reachable
    assert (tmp_path / "design.csv").exists()
