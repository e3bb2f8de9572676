import json
import subprocess
import sys

import pytest

from chroma.cli import main


def run_cli(args, cwd=None):
    from io import StringIO

    out = StringIO()
    old = sys.stdout
    sys.stdout = out
    try:
        code = main(args)
    finally:
        sys.stdout = old
    return code, out.getvalue()


def test_exact_count_stdout_json():
    code, out = run_cli(["exact-count", "--dims", "2,2", "--q", "3"])
    assert code == 0
    doc = json.loads(out)
    assert doc["count"] == "18"
    assert doc["provenance"]["version"]
    assert "config_sha256" in doc["provenance"]


def test_exact_count_pattern_constraint():
    code, out = run_cli([
        "exact-count", "--dims", "4,4", "--q", "3",
        "--constraint", "pattern", "--pattern", "A=1;B=2,3",
    ])
    assert code == 0
    doc = json.loads(out)
    assert int(doc["count"]) > 0


def test_verify_lemmas_pass(capsys):
    code = main(["verify-lemmas", "--suite", "four-cycle",
                 "--trials", "20", "--seed", "7"])
    captured = capsys.readouterr()
    assert code == 0
    assert "four-cycle: pass" in captured.out


def test_malformed_config_exit_one(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text('{"dims": [2, 2], "nonsense": true}')
    code, _ = run_cli(["exact-count", "--config", str(cfg), "--q", "3"])
    assert code == 1


def test_invalid_json_config_exit_one(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text("{not json")
    code, _ = run_cli(["exact-count", "--config", str(cfg), "--q", "3"])
    assert code == 1


def test_malformed_flag_value_exit_one(capsys):
    # a usage error is a configuration error (exit 1), not exit 2, which
    # means a resource budget was exceeded
    code = main(["exact-count", "--dims", "a,b", "--q", "3"])
    err = capsys.readouterr().err
    assert code == 1
    assert err.startswith("error:") and "--dims" in err


@pytest.mark.parametrize("vertex", ["-1", "abc", "9"])
def test_marginal_bad_vertex_exit_one(vertex, capsys):
    code = main(["marginal", "--dims", "3,3", "--q", "3", "--vertex", vertex])
    err = capsys.readouterr().err
    assert code == 1
    assert err.startswith("error:") and "vertex" in err


def test_help_exits_zero(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["exact-count", "--help"])
    assert exc.value.code == 0
    assert "--dims" in capsys.readouterr().out


def test_marginal_command():
    code, out = run_cli([
        "marginal", "--dims", "3,3", "--q", "3",
        "--constraint", "pattern", "--pattern", "A=1;B=2,3",
        "--vertex", "center",
    ])
    assert code == 0
    doc = json.loads(out)
    assert doc["marginal"]["probs"][0] == "8/9"


def test_toy_ratio_command():
    code, out = run_cli([
        "toy-ratio", "--dims", "5,5", "--q", "4",
        "--pattern0", "A=1,2;B=3,4", "--pattern", "A=1,3;B=2,4",
        "--droplet", "center",
    ])
    assert code == 0
    doc = json.loads(out)
    assert doc["toy_ratio"]["ratio"] == "1/32"
    assert doc["toy_ratio"]["verdict"] == "equal"


def test_sample_csv_format_and_determinism(tmp_path):
    args = [
        "sample", "--dims", "4,4", "--q", "3", "--pattern", "A=1;B=2,3",
        "--seed", "42", "--sweeps", "500", "--burn-in", "100",
    ]
    out1 = tmp_path / "a.csv"
    out2 = tmp_path / "b.csv"
    code, _ = run_cli(args + ["--out", str(out1)])
    assert code == 0
    code, _ = run_cli(args + ["--out", str(out2)])
    assert code == 0
    b1, b2 = out1.read_bytes(), out2.read_bytes()
    assert b1 == b2
    lines = b1.decode().splitlines()
    assert lines[0].startswith("# version=")
    assert lines[1] == "vertex_id,violation_rate,c1,c2,c3"
    assert len(lines) == 2 + 16


def test_sample_config_file_with_flag_override(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({
        "dims": [4, 4], "q": 3, "pattern": "A=1;B=2,3",
        "seed": 1, "sweeps": 50,
    }))
    out = tmp_path / "s.csv"
    code, text = run_cli(["sample", "--config", str(cfg), "--seed", "2",
                          "--out", str(out)])
    assert code == 0
    doc = json.loads(text[text.index("{"):])
    assert doc["provenance"]["seed"] == 2  # flag wins over the file


def test_decompose_command(tmp_path):
    from chroma.coloring import coloring_to_text, striped_pattern_coloring
    from chroma.lattice import build_graph
    from chroma.patterns import Pattern

    G = build_graph([6, 6])
    f = striped_pattern_coloring(G, Pattern.make(3, [1], [2, 3]))
    src = tmp_path / "f.txt"
    src.write_text(coloring_to_text(f, G))
    out = tmp_path / "regions.json"
    code, _ = run_cli(["decompose", "--coloring", str(src), "--out", str(out)])
    assert code == 0
    doc = json.loads(out.read_text())
    assert doc["decomposition"]["regions"]["A=1;B=2,3"]
    assert doc["decomposition"]["defect"] == []
    assert "provenance" in doc


def test_approx_command():
    code, out = run_cli(["approx", "--dims", "8,8", "--seed", "3", "--sets", "2"])
    assert code == 0
    doc = json.loads(out)
    assert doc["separating"]["separates"] is True
    assert doc["weak_approximation"]["fringe_size"] >= 0


def test_env_threads_accepted(monkeypatch, tmp_path):
    monkeypatch.setenv("CHROMA_THREADS", "2")
    out = tmp_path / "s.csv"
    code, _ = run_cli([
        "sample", "--dims", "4,4", "--q", "3", "--pattern", "A=1;B=2,3",
        "--seed", "4", "--sweeps", "60", "--chains", "2", "--out", str(out),
    ])
    assert code == 0


def test_approx_exhaustive_small_ambient():
    code, out = run_cli(["approx", "--dims", "4,4", "--exhaustive"])
    assert code == 0
    doc = json.loads(out)
    assert doc["exhaustive"]["regular_odd_sets"] == 42
    assert doc["exhaustive"]["coarse_grained"] == 42
    # refused beyond the tiny-ambient budget
    code, _ = run_cli(["approx", "--dims", "6,6", "--exhaustive"])
    assert code == 2


def test_theorem_failure_exit_code_three(monkeypatch):
    from chroma import cli
    from chroma.suites import SuiteResult

    def fake(name, trials, seed):
        return [SuiteResult("four-cycle", trials, ("trial 0: fabricated",))]

    monkeypatch.setattr(cli, "run_suite", fake)
    code, out = run_cli(["verify-lemmas", "--suite", "four-cycle",
                         "--trials", "5", "--seed", "1"])
    assert code == 3
    assert "FAIL" in out


def test_console_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "chroma.cli", "exact-count",
         "--dims", "2,2", "--q", "3"],
        capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["count"] == "18"
