import json

import pytest

from tetriqp.cli import run


@pytest.fixture()
def chain_file(tmp_path):
    p = tmp_path / "chain.json"
    assert run(["code", "build", "--L", "3", "--k", "1", "--out", str(p)]) == 0
    return p


def test_code_build_and_check(chain_file):
    assert run(["code", "check", "--in", str(chain_file)]) == 0


def test_code_build_idempotent(tmp_path):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    assert run(["code", "build", "--L", "3", "--k", "2", "--out", str(a)]) == 0
    assert run(["code", "build", "--L", "3", "--k", "2", "--out", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()


def test_code_build_bad_params(tmp_path):
    out = tmp_path / "x.json"
    assert run(["code", "build", "--L", "4", "--k", "1", "--out", str(out)]) == 2
    assert run(["code", "build", "--L", "3", "--k", "0", "--out", str(out)]) == 2


def test_code_check_corrupted(tmp_path, chain_file):
    d = json.loads(chain_file.read_text())
    d["block_colex"]["cells"][0]["color"] = d["block_colex"]["cells"][1]["color"]
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(d))
    assert run(["code", "check", "--in", str(bad)]) == 1


def test_code_check_unreadable(tmp_path):
    bad = tmp_path / "nope.json"
    bad.write_text("{broken")
    assert run(["code", "check", "--in", str(bad)]) == 2


def test_code_distance(chain_file, capsys):
    assert run(["code", "distance", "--in", str(chain_file), "--basis", "Z", "--cap", "8"]) == 0
    assert "d_Z = 3" in capsys.readouterr().out


def test_code_t_partition(chain_file, capsys):
    assert run(["code", "t-partition", "--in", str(chain_file)]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["induced_logical"] in ("T", "Tdg")


def test_iqp_gen_requires_seed(tmp_path):
    out = tmp_path / "c.json"
    rc = run(["iqp", "gen", "--n", "4", "--gamma", "1.0", "--out", str(out)])
    assert rc == 2


def test_iqp_pipeline(tmp_path, capsys):
    circ = tmp_path / "c.json"
    assert run(["iqp", "gen", "--n", "4", "--gamma", "1.0", "--seed", "3", "--out", str(circ)]) == 0
    circ2 = tmp_path / "c2.json"
    assert run(["iqp", "gen", "--n", "4", "--gamma", "1.0", "--seed", "3", "--out", str(circ2)]) == 0
    assert circ.read_bytes() == circ2.read_bytes()
    dist = tmp_path / "d.csv"
    assert run(["iqp", "simulate", "--in", str(circ), "--out", str(dist)]) == 0
    assert dist.read_text().startswith("bitstring,probability")
    assert run(["iqp", "check-zero", "--in", str(circ)]) == 0
    lay = tmp_path / "lay.json"
    assert run(["iqp", "compile-parallel", "--in", str(circ), "--out", str(lay)]) == 0
    d = json.loads(lay.read_text())
    assert d["wires"] == d["n"] * d["k"]


def test_mc_pipeline(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"L": 3, "k": 1, "epsilon": 0.02, "trials": 200, "seed": 9}))
    assert run(["mc", "pipeline", "--config", str(cfg)]) == 0
    out = capsys.readouterr().out
    assert "rate=" in out


def test_mc_scan(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({
        "Ls": [3], "ks": [1], "epsilons": [0.02], "trials": 100, "seed": 2,
    }))
    out = tmp_path / "scan.csv"
    assert run(["mc", "scan", "--config", str(cfg), "--out", str(out)]) == 0
    assert out.read_text().startswith("L,k,epsilon")


def test_mc_scan_uses_the_config_mix(tmp_path):
    csvs = []
    for mix in ({}, {"mix_x": 0.0, "mix_z": 0.0, "mix_y": 0.0, "mix_meas": 1.0}):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({
            "Ls": [3], "ks": [1], "epsilons": [0.05], "trials": 300, "seed": 2, **mix,
        }))
        out = tmp_path / "scan.csv"
        assert run(["mc", "scan", "--config", str(cfg), "--out", str(out)]) == 0
        csvs.append(out.read_text())
    assert csvs[0] != csvs[1]


def test_mc_prep(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"Ls": [3], "epsilon": 0.02, "trials": 100, "seed": 2}))
    out = tmp_path / "prep.json"
    assert run(["mc", "prep", "--config", str(cfg), "--out", str(out)]) == 0
    data = json.loads(out.read_text())
    assert data[0]["L"] == 3


@pytest.mark.parametrize("what", ["pipeline", "prep"])
@pytest.mark.parametrize("trials", [0, -5])
def test_mc_rejects_nonpositive_trials(tmp_path, capsys, what, trials):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"L": 3, "Ls": [3], "trials": trials, "seed": 2}))
    assert run(["mc", what, "--config", str(cfg), "--out", str(tmp_path / "o")]) == 2
    assert "trials must be >= 1" in capsys.readouterr().err


def test_mc_pipeline_rejects_negative_seed(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"L": 3, "k": 1, "epsilon": 0.02, "trials": 20, "seed": -1}))
    assert run(["mc", "pipeline", "--config", str(cfg)]) == 2


def test_config_unknown_key_rejected(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"L": 3, "trials": 20, "seed": 2, "delta": 0.05, "c_k": 1}))
    assert run(["mc", "pipeline", "--config", str(cfg)]) == 2
    assert "unknown keys: c_k, delta" in capsys.readouterr().err


@pytest.mark.parametrize("bad, named", [
    ({"trials": "100"}, "trials"), ({"trials": 2.0}, "trials"), ({"seed": True}, "seed"),
    ({"workers": 0}, "workers"), ({"n": -1}, "n"), ({"epsilon": "0.1"}, "epsilon"),
    ({"epsilon": 1.5}, "epsilon"), ({"Ls": 3}, "Ls"), ({"ks": []}, "ks"),
    ({"ks": [1, "2"]}, "ks"), ({"epsilons": [0.05, 0.01]}, "epsilons"),
    ({"epsilons": [0.01, 1.5]}, "epsilons"), ({"mix_meas": 0.5}, "mix"),
])
def test_config_bad_value_rejected(tmp_path, capsys, bad, named):
    # a bad value is bad input (exit 2, the field named), not a traceback
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"L": 3, "k": 1, "trials": 20, "seed": 2, **bad}))
    for cmd in (["mc", "pipeline"], ["mc", "scan"], ["e2e"]):
        assert run([*cmd, "--config", str(cfg), "--out", str(tmp_path / "o")]) == 2
        assert named in capsys.readouterr().err


def test_e2e(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({
        "n": 2, "epsilon": 0.02, "gamma": 1.0, "trials": 200, "seed": 5,
    }))
    out = tmp_path / "tv.csv"
    assert run(["e2e", "--config", str(cfg), "--out", str(out)]) == 0
    assert out.read_text().startswith("N,epsilon")


def test_plan_overhead(capsys):
    assert run([
        "plan", "overhead", "--n", "1024", "--delta", "0.01",
        "--eps", "0.001", "--eps-th", "0.01",
    ]) == 0
    d = json.loads(capsys.readouterr().out)
    assert d["k"] == 10 and d["L"] == 10


def test_plan_overhead_refusal():
    assert run([
        "plan", "overhead", "--n", "64", "--delta", "0.01",
        "--eps", "0.02", "--eps-th", "0.01",
    ]) == 2


def test_help_exits_zero():
    assert run(["--help"]) == 0
    assert run(["code", "--help"]) == 0
    assert run(["iqp", "--help"]) == 0


def test_all_subcommand_help():
    for args in (
        ["code", "build", "--help"],
        ["code", "check", "--help"],
        ["code", "distance", "--help"],
        ["code", "t-partition", "--help"],
        ["iqp", "gen", "--help"],
        ["iqp", "simulate", "--help"],
        ["iqp", "compile-parallel", "--help"],
        ["iqp", "check-zero", "--help"],
        ["mc", "--help"],
        ["e2e", "--help"],
        ["plan", "overhead", "--help"],
    ):
        assert run(args) == 0


def test_mc_pipeline_trace(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"L": 3, "k": 1, "epsilon": 0.05, "trials": 40, "seed": 3}))
    trace = tmp_path / "trace.jsonl"
    assert run(["mc", "pipeline", "--config", str(cfg), "--trace", str(trace)]) == 0
    assert len(trace.read_text().strip().split("\n")) == 40


def test_code_build_l5_chain(tmp_path):
    out = tmp_path / "c5.json"
    assert run(["code", "build", "--L", "5", "--k", "2", "--out", str(out)]) == 0
    assert run(["code", "check", "--in", str(out)]) == 0
