import functools
import hashlib
import json
import os
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


@pytest.mark.parametrize("args", [
    ["exact-count", "--dims", "a,b", "--q", "3"],
    ["toy-ratio", "--droplet", "12,x"],
])
def test_malformed_int_list_names_the_format(args, capsys):
    # the message states the expected format, not the name of a parser helper
    code = main(args)
    err = capsys.readouterr().err
    assert code == 1
    assert err.startswith("error:") and err.count("\n") == 1
    assert "comma-separated integers" in err and "_int_list" not in err


@pytest.mark.parametrize("vertex", ["-1", "abc", "9"])
def test_marginal_bad_vertex_exit_one(vertex, capsys):
    code = main(["marginal", "--dims", "3,3", "--q", "3", "--vertex", vertex])
    err = capsys.readouterr().err
    assert code == 1
    assert err.startswith("error:") and "vertex" in err


@pytest.mark.parametrize("args, field", [
    (["exact-count", "--q", "3"], "dims"),
    (["exact-count", "--dims", "2,2"], "q"),
    (["marginal", "--dims", "3,3"], "q"),
    (["toy-ratio", "--dims", "3,3", "--pattern0", "A=1;B=2,3",
      "--pattern", "A=2;B=1,3"], "q"),
    (["toy-ratio", "--dims", "3,3", "--q", "3", "--pattern", "A=2;B=1,3"],
     "pattern0"),
    (["toy-ratio", "--dims", "3,3", "--q", "3", "--pattern0", "A=1;B=2,3"],
     "pattern"),
    (["sample", "--q", "3", "--pattern", "A=1;B=2,3", "--seed", "1",
      "--sweeps", "5"], "dims"),
    (["sample", "--dims", "4,4", "--pattern", "A=1;B=2,3", "--seed", "1",
      "--sweeps", "5"], "q"),
    (["decompose"], "coloring"),
    (["approx"], "dims"),
])
def test_missing_required_field_exit_one(args, field, capsys):
    code = main(args)
    err = capsys.readouterr().err
    assert code == 1
    assert err == f"error: missing required field {field!r}\n"


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


TOY_5X5 = {"dims": [5, 5], "q": 4, "pattern0": "A=1,2;B=3,4", "pattern": "A=1,3;B=2,4"}


@pytest.mark.parametrize("flag, ids", [("12", [12]), ("12,13", [12, 13])])
def test_toy_ratio_droplet_ids_flag_matches_config(flag, ids, tmp_path):
    # comma-separated ids on the command line are the list a config gives,
    # down to the config's sha256
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({**TOY_5X5, "droplet": ids}))
    code, from_config = run_cli(["toy-ratio", "--config", str(cfg)])
    assert code == 0
    cfg.write_text(json.dumps(TOY_5X5))
    code, from_flag = run_cli(["toy-ratio", "--config", str(cfg), "--droplet", flag])
    assert code == 0
    assert from_flag == from_config
    assert json.loads(from_flag)["toy_ratio"]["ratio"] == ("1/32" if ids == [12] else "1/256")


@pytest.mark.parametrize("flag", ["12,x", "12,,13", "", "1.5", "x,12", "12;13"])
def test_toy_ratio_malformed_droplet_exit_one(flag, tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(TOY_5X5))
    code = main(["toy-ratio", "--config", str(cfg), "--droplet", flag])
    captured = capsys.readouterr()
    assert code == 1
    assert captured.err.startswith("error:") and captured.err.count("\n") == 1
    assert "droplet" in captured.err
    assert captured.out == ""


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


# sha256 of the CSV a medium box writes (numpy half-step path, a periodic
# axis, a margin), recorded when the graph built its per-vertex lists eagerly
MEDIUM_SAMPLE = ["sample", "--dims", "48,40", "--periodic", "0,1", "--margin", "1",
                 "--chains", "2", "--sweeps", "3", "--q", "4", "--pattern", "A=1,2;B=3,4",
                 "--seed", "11"]


@pytest.mark.parametrize("extra, digest", [
    ([], "4e4f9a038f2253089bcc2a68db0aee5caa81c015d35bbef86cea532dc547b798"),
    (["--algorithm", "heat-bath+cluster", "--cluster-every", "1"],
     "f12b5e1fc51d158dae3ecf8a60d2a34b7e05907db750db6a69ec3934255ab301"),
])
def test_sample_csv_pinned(extra, digest, tmp_path):
    out = tmp_path / "s.csv"
    code, _ = run_cli(MEDIUM_SAMPLE + extra + ["--out", str(out)])
    assert code == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == digest


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


def test_threads_flag_and_env_removed(monkeypatch, tmp_path, capsys):
    out = tmp_path / "s.csv"
    args = ["sample", "--dims", "4,4", "--q", "3", "--pattern", "A=1;B=2,3",
            "--seed", "4", "--sweeps", "60", "--chains", "3", "--out", str(out),
            "--algorithm", "heat-bath+cluster", "--cluster-every", "7"]
    monkeypatch.delenv("CHROMA_THREADS", raising=False)
    code, text = run_cli(args)
    assert code == 0
    want = (text, out.read_bytes())
    capsys.readouterr()
    code, _ = run_cli(args + ["--threads", "2"])
    err = capsys.readouterr().err
    assert code == 1
    assert err.startswith("error:") and err.count("\n") == 1
    # the variable is no longer read: even a malformed value changes nothing
    monkeypatch.setenv("CHROMA_THREADS", "abc")
    code, text = run_cli(args)
    assert code == 0
    assert (text, out.read_bytes()) == want


def test_sample_more_than_sixteen_colors_exit_one(capsys):
    pattern = "A=" + ",".join(map(str, range(1, 9))) + ";B=" + ",".join(
        map(str, range(9, 18)))
    code, _ = run_cli(["sample", "--dims", "4,4", "--q", "17", "--pattern", pattern,
                       "--seed", "1", "--sweeps", "5"])
    assert code == 1
    assert "error:" in capsys.readouterr().err


def test_sample_margin_past_the_box_exits_one_at_once():
    # the margin's interior stops growing the rim once it fills the box: each
    # step of a margin past that took about 1.5 us, so 10^9 took minutes
    import chroma

    src = os.path.dirname(os.path.dirname(chroma.__file__))
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-m", "chroma.cli", "sample", "--dims", "64,64", "--q", "3",
         "--pattern", "A=1;B=2,3", "--seed", "1", "--sweeps", "1", "--margin", str(10**9)],
        capture_output=True, text=True, timeout=5,
        env={**os.environ, "PYTHONPATH": path},
    )
    assert proc.returncode == 1
    assert "margin leaves an empty domain" in proc.stderr


def test_exact_count_refuses_a_q_past_the_pattern_ceiling():
    # under a 2 GiB address-space limit a 10^9-color count of two cells
    # exits 1 at once with one error line, instead of building 10^9-bit masks
    import resource

    import chroma

    def limit():
        resource.setrlimit(resource.RLIMIT_AS, (2 << 30, 2 << 30))

    src = os.path.dirname(os.path.dirname(chroma.__file__))
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-m", "chroma.cli", "exact-count", "--dims", "2", "--q", str(10**9)],
        capture_output=True, text=True, timeout=5, preexec_fn=limit,
        env={**os.environ, "PYTHONPATH": path},
    )
    assert proc.returncode == 1
    lines = proc.stderr.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error:") and "at most 62" in lines[0]


def test_sample_scan_field_removed(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"dims": [4, 4], "q": 3, "pattern": "A=1;B=2,3",
                               "seed": 1, "sweeps": 5, "scan": "random"}))
    code, _ = run_cli(["sample", "--config", str(cfg), "--out", str(tmp_path / "s.csv")])
    assert code == 1


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
    # the child process imports the same chroma package as this one,
    # whether it comes from PYTHONPATH or from pytest's pythonpath setting
    import chroma

    src = os.path.dirname(os.path.dirname(chroma.__file__))
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-m", "chroma.cli", "exact-count",
         "--dims", "2,2", "--q", "3"],
        capture_output=True, text=True, timeout=120,
        env={**os.environ, "PYTHONPATH": path},
    )
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["count"] == "18"


# sha256 of the stdout of each command, recorded when every transfer
# profile was keyed by its raw colors; the color-relabelled profiles must
# reproduce every byte (the exact count and marginals, and the provenance)
PATTERN_334 = ["--dims", "3,3,4", "--q", "3", "--constraint", "pattern",
               "--pattern", "A=1;B=2,3"]
PATTERN_443 = ["--dims", "4,4,3", "--q", "4", "--constraint", "pattern",
               "--pattern", "A=1,2;B=3,4"]


@pytest.mark.parametrize("args, digest", [
    (["exact-count", "--dims", "7,7", "--q", "3"],
     "fcec7170bb603cf6660d28855504886fbc0bf4c3f6b6090d38f8a2d6913026b9"),
    (["marginal", "--dims", "7,7", "--q", "3"],
     "7d50b44b992244dd7e1c0afbc1ba18db9a416b60e83cd01a03bb8b3cff719472"),
    (["exact-count", *PATTERN_334],
     "e0c73c477140ef71228af913fb2a556d62d78bea6a8d92103e9a03456dae9eec"),
    (["marginal", *PATTERN_334],
     "44006397ff7fad38fd700b599cd1ebd10de9623db3ae229c4dabae37a1fda9b0"),
    (["marginal", *PATTERN_334, "--vertex", "0"],
     "f5e5c5e8e8f84c80c74d659c0e8c3158d9cf1af9e0d9c352de227cdf6c8167bc"),
    (["exact-count", *PATTERN_443],
     "d98e6249fb42faf0f989d7dc5736b7dc21bc1224669c759138218112f1ccfe5d"),
    (["marginal", *PATTERN_443],
     "3e7d57aaa4f043d8d4682d12551b6f8cf950e005e8006b940602a7a4ed7f975b"),
])
def test_transfer_artifacts_pinned(args, digest):
    code, out = run_cli(args)
    assert code == 0
    assert json.loads(out).get("method", "transfer") == "transfer"
    assert hashlib.sha256(out.encode()).hexdigest() == digest, out


def test_transfer_budget_exit_two(monkeypatch):
    from chroma import cli
    from chroma.exact import count_colorings

    monkeypatch.setattr(cli, "count_colorings",
                        functools.partial(count_colorings, state_budget=10))
    code, _ = run_cli(["exact-count", *PATTERN_334])
    assert code == 2


# sha256 of the stdout of each command, recorded when boundary edges were
# listed as (u, v) tuples; the edge-map counts must reproduce every byte
# (the toy ratios' odd-q exponents 3/1 and 14/3, and the approx reports)
@pytest.mark.parametrize("args, digest", [
    (["toy-ratio", "--dims", "5,5", "--q", "5", "--pattern0", "A=1,2;B=3,4,5",
      "--pattern", "A=1,2,3;B=4,5", "--droplet", "center-plus"],
     "36c55aece87d5803eb63d7be303dac43068d65e3d90056f6260ee76f5c88cfac"),
    (["toy-ratio", "--dims", "4,4,4", "--periodic", "1,0,0", "--q", "3",
      "--pattern0", "A=1;B=2,3", "--pattern", "A=1,2;B=3", "--droplet", "center-plus"],
     "7c7c15b3674009f5f8e374ee1b60f9dd695df6363c3476b6b55a6f5746c89c32"),
    (["approx", "--dims", "4,4", "--exhaustive"],
     "8e67cfbd9b4f567d91c4d37faa98a2a74df8d5cb6b3b65c961b25e9bdaf6c0e6"),
    (["approx", "--dims", "8,8", "--seed", "3", "--sets", "2"],
     "7623dff54e3f4a1c1cb976a9d5dd3faf428658a9c03946cf0d38dfd3c6f14cda"),
])
def test_edge_count_artifacts_pinned(args, digest):
    code, out = run_cli(args)
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == digest, out


@pytest.mark.parametrize("command, cfg", [
    ("exact-count", {"dims": [2, 2], "q": True}),
    ("marginal", {"dims": [3, 3], "q": 3, "vertex": True}),
    ("sample", {"dims": [4, 4], "q": 3, "pattern": "A=1;B=2,3", "seed": 1,
                "sweeps": 5, "chains": True}),
    ("verify-lemmas", {"suite": "sizes", "trials": True}),
    ("exact-count", {"dims": [True, 2], "q": 3}),
    ("exact-count", {"dims": [2, 2], "q": 3, "domain": [True]}),
    ("exact-count", {"dims": [2, 2], "q": 3, "constraint": "pins", "pins": {"0": True}}),
    ("toy-ratio", {"dims": [3, 3], "q": 3, "pattern0": "A=1;B=2,3",
                   "pattern": "A=1,2;B=3", "droplet": [True]}),
])
def test_config_bool_in_non_bool_field_exit_one(command, cfg, tmp_path, capsys):
    # JSON true is a Python bool, which is an int; only bool fields take it
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    code = main([command, "--config", str(path)])
    captured = capsys.readouterr()
    assert code == 1
    assert captured.err.startswith("error:") and captured.err.count("\n") == 1
    assert captured.out == ""



@pytest.mark.parametrize("command, cfg, coloring", [
    pytest.param("exact-count", {"dims": [2, 2], "q": 3, "constraint": "pins",
                                 "pins": {"4": 1}}, None, id="pin-id-past-n"),
    pytest.param("exact-count", {"dims": [2, 2], "q": 3, "constraint": "pins",
                                 "pins": {"-1": 1}}, None, id="pin-id-negative"),
    pytest.param("marginal", {"dims": [3, 3], "q": 3, "constraint": "pins",
                              "pins": {"9": 2}}, None, id="marginal-pin-id-past-n"),
    pytest.param("exact-count", {"dims": [2, 2], "q": 3, "constraint": "pins",
                                 "pins": {"a": 1}}, None, id="pin-key-not-int"),
    pytest.param("exact-count", {"dims": [2, 2], "q": 3, "constraint": "pins",
                                 "pins": {"0": "x"}}, None, id="pin-value-not-int"),
    pytest.param("exact-count", {"dims": [2, 2], "q": 3, "constraint": "pins",
                                 "pins": {"0": [1]}}, None, id="pin-value-list"),
    pytest.param("exact-count", {"dims": [2.7, 2], "q": 3}, None, id="dims-float"),
    pytest.param("exact-count", {"dims": ["a", 2], "q": 3}, None, id="dims-string"),
    pytest.param("exact-count", {"dims": [2, 2], "periodic": [1, "x"], "q": 3}, None,
                 id="periodic-string"),
    pytest.param("exact-count", {"dims": [2, 2], "periodic": [2, 0], "q": 3}, None,
                 id="periodic-not-0-1"),
    pytest.param("exact-count", {"dims": [2, 2], "q": 3, "domain": [1.5]}, None,
                 id="domain-float"),
    pytest.param("decompose", {}, "q=3;dims=2,2;periodic\n1 2 2 1\n",
                 id="header-part-without-equals"),
    pytest.param("decompose", {}, "q=3;dims=2,2;periodic=0,0\n1 2 x 1\n",
                 id="coloring-value-not-int"),
    pytest.param("decompose", {}, "q=3;dims=2,2;periodic=yes,0\n1 2 2 1\n",
                 id="header-periodic-not-0-1"),
    pytest.param("toy-ratio", {"dims": [3, 3], "q": 3, "pattern0": "A=1;B=2,3",
                               "pattern": "A=1,2;B=3", "droplet": "foo"}, None,
                 id="droplet-string"),
    pytest.param("exact-count", {"dims": [2, 2], "q": -1}, None, id="count-q-negative"),
    pytest.param("marginal", {"dims": [3, 3], "q": -2}, None, id="marginal-q-negative"),
    pytest.param("verify-lemmas", {"suite": "sizes", "trials": -3}, None,
                 id="trials-negative"),
    pytest.param("verify-lemmas", {"suite": "all", "trials": 0}, None, id="trials-zero"),
    pytest.param("approx", {"dims": [8, 8], "sets": 0}, None, id="sets-zero"),
    pytest.param("approx", {"dims": [8, 8], "sets": -2}, None, id="sets-negative"),
    pytest.param("decompose", {}, "missing", id="missing-coloring-file"),
    pytest.param("exact-count", "missing", None, id="missing-config-file"),
])
def test_malformed_outside_input_exit_one(command, cfg, coloring, tmp_path, capsys):
    cfg_path = tmp_path / "cfg.json"
    if cfg != "missing":
        cfg = dict(cfg)
        if coloring is not None:
            cfg["coloring"] = str(tmp_path / "f.txt")
            if coloring != "missing":
                (tmp_path / "f.txt").write_text(coloring)
        cfg_path.write_text(json.dumps(cfg))
    code = main([command, "--config", str(cfg_path), "--out", str(tmp_path / "o.json")])
    captured = capsys.readouterr()
    assert code == 1
    assert captured.err.startswith("error:") and captured.err.count("\n") == 1
    assert captured.out == ""


@pytest.mark.parametrize("args", [
    ["exact-count", "--dims", "2,2", "--q", "3"],
    ["sample", "--dims", "4,4", "--q", "3", "--pattern", "A=1;B=2,3", "--seed", "1",
     "--sweeps", "2"],
], ids=["json", "csv"])
def test_out_in_missing_directory_exit_one(args, tmp_path, capsys):
    code = main(args + ["--out", str(tmp_path / "missing" / "out")])
    captured = capsys.readouterr()
    assert code == 1
    assert captured.err.startswith("error: cannot write") and captured.err.count("\n") == 1
    assert captured.out == ""


@pytest.mark.parametrize("command", ["exact-count", "decompose"])
def test_box_over_cell_limit_exit_two(command, tmp_path, capsys):
    # refused before the graph allocates anything; decompose reads the box
    # from the coloring file's header before its values
    from chroma.lattice import CELL_LIMIT

    assert 100000 * 100000 > CELL_LIMIT
    if command == "exact-count":
        args = ["exact-count", "--dims", "100000,100000", "--q", "3"]
    else:
        path = tmp_path / "f.txt"
        path.write_text("q=3;dims=100000,100000;periodic=0,0\n1 2 1 2\n")
        args = ["decompose", "--coloring", str(path), "--out", str(tmp_path / "o.json")]
    code = main(args)
    captured = capsys.readouterr()
    assert code == 2
    assert captured.err.startswith("resource error:") and captured.err.count("\n") == 1
    assert captured.out == ""


@pytest.mark.parametrize("command", ["exact-count", "marginal"])
@pytest.mark.parametrize("extra, message", [
    (["--pins", '{"0": 1}'], "field 'pins' is not read by constraint 'free'"),
    (["--pattern", "A=1;B=2,3"], "field 'pattern' is not read by constraint 'free'"),
    (["--constraint", "pins", "--pins", '{"0": 1}', "--pattern", "A=1;B=2,3"],
     "field 'pattern' is not read by constraint 'pins'"),
    (["--constraint", "pattern", "--pattern", "A=1;B=2,3", "--pins", '{"0": 1}'],
     "field 'pins' is not read by constraint 'pattern'"),
    (["--constraint", "pins"], "missing required field 'pins'"),
    (["--constraint", "pattern"], "missing required field 'pattern'"),
], ids=["pins-free", "pattern-free", "pattern-pins", "pins-pattern",
        "pins-missing", "pattern-missing"])
def test_constraint_field_not_read_exit_one(command, extra, message, capsys):
    # a field the chosen constraint ignores would otherwise drop silently
    code = main([command, "--dims", "3,3", "--q", "3"] + extra)
    captured = capsys.readouterr()
    assert code == 1
    assert captured.err == f"error: {message}\n"
    assert captured.out == ""


def test_pins_constraint_with_its_field_counts(capsys):
    code, out = run_cli(["exact-count", "--dims", "3,3", "--q", "3",
                         "--constraint", "pins", "--pins", '{"0": 1}'])
    assert code == 0 and json.loads(out)["count"] == "82"
