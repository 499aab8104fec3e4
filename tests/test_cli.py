import functools
import json
import operator

import pytest

from tetriqp import harness
from tetriqp.cli import run
from tetriqp.harness import ExperimentConfig


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


def test_code_check_corrupted_chain(tmp_path):
    # a miscoloured cell in a k=2 chain's block colex still merges (both
    # copies carry it) and is reported as a failed check, not bad input
    p = tmp_path / "chain.json"
    assert run(["code", "build", "--L", "3", "--k", "2", "--out", str(p)]) == 0
    d = json.loads(p.read_text())
    d["block_colex"]["cells"][0]["color"] = d["block_colex"]["cells"][1]["color"]
    p.write_text(json.dumps(d))
    assert run(["code", "check", "--in", str(p)]) == 1


def test_code_check_refuses_duplicate_facet_traces(tmp_path, capsys):
    # a block colex with two cells of one trace on a merge facet cannot be
    # glued to its copy cell by cell: bad input, not a failed check
    p = tmp_path / "chain.json"
    assert run(["code", "build", "--L", "3", "--k", "2", "--out", str(p)]) == 0
    d = json.loads(p.read_text())
    colex = d["block_colex"]
    facet = set(next(f for f in colex["facets"] if f["missing_color"] == 0)["vertices"])
    cell = next(c for c in colex["cells"] if facet & set(c["vertices"]))
    colex["cells"].append(dict(cell))
    p.write_text(json.dumps(d))
    capsys.readouterr()
    assert run(["code", "check", "--in", str(p)]) == 2
    assert "duplicate color-0 facet traces" in capsys.readouterr().err


def _set(key, value):
    def edit(d):
        d[key] = value
    return edit


@pytest.mark.parametrize("edit, named", [
    # a pairing the file states for itself, as earlier versions wrote, is
    # refused rather than trusted (here with its first two pairs swapped)
    (_set("pairings", [{"facet_color": 0, "pairs": [[1, 3], [3, 1]]}]),
     "unknown keys: pairings"),
    (_set("L", 3), "unknown keys: L"),
    (_set("k", 0), "k must be"),
    (_set("k", -1), "k must be"),
    (_set("k", "2"), "k must be"),
    (_set("k", True), "k must be"),
    (lambda d: d.pop("k"), "missing keys: k"),
    (_set("block_colex", [1, 2]), "block_colex is not a JSON object"),
    (lambda d: d["block_colex"].pop("facets"), "'facets'"),
    (lambda d: d["block_colex"]["faces"][0].update(colors=[[1], 2]), "not 'list'"),
    # an L=3 block claiming L=5 would otherwise check, and report d_Z, as valid
    (lambda d: d["block_colex"].update(L=5), "colex.L = 5"),
])
def test_chain_file_bad_input(tmp_path, capsys, chain_file, edit, named):
    # a chain file holds k and the block colex only: anything else, and
    # files from versions that wrote derived fields, is bad input (exit 2)
    d = json.loads(chain_file.read_text())
    edit(d)
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(d))
    for cmd in (["code", "check"], ["code", "distance", "--basis", "Z"]):
        capsys.readouterr()
        assert run([*cmd, "--in", str(bad)]) == 2
        err = capsys.readouterr().err
        assert "cannot read chain file" in err and named in err


@pytest.mark.parametrize("path, value, field", [
    # int() would read each of these as another int, and `code check` would
    # then check a code other than the one the file holds
    (("L",), 3.7, "colex.L"),
    (("L",), True, "colex.L"),
    (("vertices", 1), True, "colex.vertices[1]"),
    (("cells", 0, "vertices", 0), 3.0, "cells[0].vertices[0]"),
    (("cells", 0, "color"), 2.9, "cells[0].color"),
    (("cells", 0, "color"), "2", "cells[0].color"),
    (("cells", 0, "color"), True, "cells[0].color"),
    (("faces", 1, "colors", 0), 1.0, "faces[1].colors[0]"),
    (("faces", 1, "colors"), "01", "faces[1].colors[0]"),
    (("facets", 2, "missing_color"), "2", "facets[2].missing_color"),
])
def test_chain_file_refuses_non_int_colex_fields(tmp_path, capsys, chain_file, path, value, field):
    d = json.loads(chain_file.read_text())
    *where, last = path
    functools.reduce(operator.getitem, where, d["block_colex"])[last] = value
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(d))
    capsys.readouterr()
    assert run(["code", "check", "--in", str(bad)]) == 2
    err = capsys.readouterr().err
    assert "cannot read chain file" in err and f"{field} must be an int" in err


def test_chain_file_not_an_object(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("[1, 2]")
    assert run(["code", "check", "--in", str(bad)]) == 2
    assert "not a JSON object" in capsys.readouterr().err


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


@pytest.mark.parametrize("edit, field", [
    ({"n": 2.9}, "n"),
    ({"n": "2"}, "n"),
    ({"t": [1, 2.5]}, "t[1]"),
    ({"cs": [{"i": 0, "j": 1.7, "k": 1}]}, "cs[0].j"),
    ({"cs": [{"i": 0, "j": 1, "k": True}]}, "cs[0].k"),
    ({"seed": "3"}, "seed"),
])
def test_circuit_file_refuses_non_int_fields(tmp_path, capsys, edit, field):
    # a value that int() would truncate or convert is refused, not simulated
    circ = tmp_path / "c.json"
    good = {"n": 2, "gamma": 1.0, "t": [1, 2], "cs": [{"i": 0, "j": 1, "k": 1}], "seed": 3}
    circ.write_text(json.dumps({**good, **edit}))
    assert run(["iqp", "simulate", "--in", str(circ), "--out", str(tmp_path / "d.csv")]) == 2
    assert f"{field} must be an int" in capsys.readouterr().err
    circ.write_text(json.dumps({**good, "seed": None}))
    assert run(["iqp", "simulate", "--in", str(circ), "--out", str(tmp_path / "d.csv")]) == 0


@pytest.mark.parametrize("gamma", ["0.5", True, None, [1.0]])
def test_circuit_file_refuses_non_number_gamma(tmp_path, capsys, gamma):
    circ = tmp_path / "c.json"
    good = {"n": 2, "gamma": 1.0, "t": [1, 2], "cs": [{"i": 0, "j": 1, "k": 1}], "seed": 3}
    circ.write_text(json.dumps({**good, "gamma": gamma}))
    assert run(["iqp", "simulate", "--in", str(circ), "--out", str(tmp_path / "d.csv")]) == 2
    assert "gamma must be a number" in capsys.readouterr().err
    for ok in (1, 0.5):  # an int passes for a float
        circ.write_text(json.dumps({**good, "gamma": ok}))
        assert run(["iqp", "simulate", "--in", str(circ), "--out", str(tmp_path / "d.csv")]) == 0


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


def test_mc_prep_rows_draw_from_their_own_streams(tmp_path, monkeypatch):
    # each L row runs its k=2 batches under the spawn key (seed, 2, L)
    seeds = []
    run_batch = harness.ChainSim.run_batch

    def recording_run_batch(self, model, seed, b, *args):
        seeds.append((self.t.block.colex.L, seed, b))
        return run_batch(self, model, seed, b, *args)

    monkeypatch.setattr(harness.ChainSim, "run_batch", recording_run_batch)
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"Ls": [3, 5], "epsilon": 0.02, "trials": 300, "seed": 7}))
    assert run(["mc", "prep", "--config", str(cfg), "--out", str(tmp_path / "prep.json")]) == 0
    assert seeds == [(L, (7, 2, L), b) for L in (3, 5) for b in (0, 1)]


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
    ({"max_statevector": 30}, "max_statevector"),
    ({"L": 9}, "L"), ({"Ls": [3, 9]}, "Ls"), ({"k": 9}, "k"), ({"ks": [1, 9]}, "ks"),
    ({"max_k": 9}, "max_k"), ({"max_l": 3}, "max_l"),
])
def test_config_bad_value_rejected(tmp_path, capsys, bad, named):
    # a bad value is bad input (exit 2, the field named), not a traceback
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"L": 3, "k": 1, "trials": 20, "seed": 2, **bad}))
    for cmd in (["mc", "pipeline"], ["mc", "scan"], ["e2e"]):
        assert run([*cmd, "--config", str(cfg), "--out", str(tmp_path / "o")]) == 2
        assert named in capsys.readouterr().err


def test_config_caps_check_only_values(tmp_path):
    # the caps are constants: a default no command reads cannot reject a config
    ExperimentConfig(L=7, Ls=(3, 5, 7), k=8, ks=(1, 8), max_k=8)
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"L": 3, "k": 1, "trials": 20, "seed": 2, "max_k": 1}))
    assert run(["mc", "pipeline", "--config", str(cfg)]) == 0


@pytest.mark.parametrize("flag", ["0", "-3"])
def test_mc_workers_flag_below_one_rejected(tmp_path, capsys, flag):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"L": 3, "k": 1, "trials": 20, "seed": 2, "workers": 2}))
    for what in ("pipeline", "scan"):
        argv = ["mc", what, "--config", str(cfg), "--out", str(tmp_path / "o")]
        assert run([*argv, "--workers", flag]) == 2
        assert "--workers" in capsys.readouterr().err


def test_mc_workers_flag_overrides_config(tmp_path, monkeypatch):
    seen = []

    def fake(L, k, model, trials, seed, workers, **kw):
        seen.append(workers)
        return harness.RateEstimate(L, k, model.epsilon, trials, 0, 0.0, 0.0, 0.0)

    monkeypatch.setattr(harness, "logical_error_rate", fake)
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"L": 3, "Ls": [3], "k": 1, "trials": 20, "seed": 2, "workers": 2}))
    for argv in (["mc", "pipeline"], ["mc", "prep", "--out", str(tmp_path / "o")]):
        argv += ["--config", str(cfg)]
        assert run(argv) == 0 and run([*argv, "--workers", "1"]) == 0
    assert seen == [2, 1, 2, 1]


@pytest.mark.parametrize("what, flag", [
    ("scan", "--trace"), ("prep", "--trace"), ("pipeline", "--out"),
])
def test_mc_unread_flag_rejected(tmp_path, capsys, what, flag):
    # a flag the subcommand would ignore is bad input, named, and nothing is written
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"L": 3, "Ls": [3], "k": 1, "trials": 20, "seed": 2}))
    written = tmp_path / "written"
    capsys.readouterr()
    assert run(["mc", what, "--config", str(cfg), flag, str(written)]) == 2
    assert flag in capsys.readouterr().err
    assert not written.exists()


def test_e2e(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({
        "n": 2, "epsilon": 0.02, "gamma": 1.0, "trials": 200, "seed": 5,
    }))
    out = tmp_path / "tv.csv"
    assert run(["e2e", "--config", str(cfg), "--out", str(out)]) == 0
    assert out.read_text().startswith("N,epsilon")


def test_e2e_statevector_cap(tmp_path, capsys):
    # n above the exact simulator's cap is refused up front, naming the
    # field that let it through, instead of crashing in the simulator
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({
        "n": 25, "max_statevector": 30, "gamma": 0.0, "seed": 1, "trials": 2,
    }))
    assert run(["e2e", "--config", str(cfg), "--out", str(tmp_path / "tv.csv")]) == 2
    assert "max_statevector" in capsys.readouterr().err


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


@pytest.mark.parametrize("flag,value,named", [
    ("--eps", "0", "epsilon must lie in (0, eps_th=0.01), got 0.0"),
    ("--eps", "-0.1", "epsilon must lie in (0, eps_th=0.01), got -0.1"),
    ("--c-r", "0", "c_r must be > 0"),
    ("--n", "0", "n (logical qubits) must be >= 1"),
])
def test_plan_overhead_bad_input_named(capsys, flag, value, named):
    args = {"--n": "64", "--delta": "0.01", "--eps": "0.001", "--eps-th": "0.01", flag: value}
    argv = ["plan", "overhead"] + [x for item in args.items() for x in item]
    assert run(argv) == 2
    assert named in capsys.readouterr().err


def test_code_t_partition_l7(tmp_path, capsys):
    # 40 X generators, so 2^40 stabilizers: the check reads their overlaps
    p = tmp_path / "c7.json"
    assert run(["code", "build", "--L", "7", "--out", str(p)]) == 0
    capsys.readouterr()
    assert run(["code", "t-partition", "--in", str(p)]) == 0
    assert json.loads(capsys.readouterr().out)["residue"] in (1, 7)


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
