import json

import numpy as np
import pytest
from oracles import time_limit

from sparselb import cli
from sparselb.cli import RECIPES, build_parser, main
from sparselb.graph import BipartiteGraph, read_graph, write_graph
from sparselb.meanfield import default_depth
from sparselb.records import read_trajectory_csv


def run(*argv):
    return main(list(argv))


def _header(path):
    """The '#' metadata block of a CSV as an ordered dict of strings."""
    lines = (ln[2:] for ln in path.read_text().splitlines() if ln.startswith("# "))
    return dict(ln.split(": ", 1) for ln in lines)


def _data_rows(path):
    return [
        ln for ln in path.read_text().splitlines() if ln and not ln.startswith("#")
    ]


def test_gen_complete(tmp_path):
    out = tmp_path / "c.bpg"
    assert run("gen", "--kind", "complete", "--n", "4", "--m", "4", "--out", str(out)) == 0
    g = read_graph(out)
    assert g.n_edges == 16


def test_gen_braess(tmp_path):
    out = tmp_path / "b.bpg"
    assert run("gen", "--kind", "braess", "--out", str(out)) == 0
    assert read_graph(out).n_edges == 14


def test_gen_deterministic_bytes(tmp_path):
    a, b = tmp_path / "a.bpg", tmp_path / "b.bpg"
    args = ["gen", "--kind", "fixed-degree", "--n", "200", "--m", "200", "--c", "11", "--seed", "7"]
    assert run(*args, "--out", str(a)) == 0
    assert run(*args, "--out", str(b)) == 0
    assert a.read_bytes() == b.read_bytes()


def test_check_braess_optimal_load(tmp_path):
    g = tmp_path / "b.bpg"
    run("gen", "--kind", "braess", "--out", str(g))
    out = tmp_path / "check.csv"
    assert run("check", "--graph", str(g), "--d", "2", "--epsilons", "0.2",
               "--mode", "exact", "--optimal", "--out", str(out)) == 0
    rows = _data_rows(out)
    header = rows[0].split(",")
    row = dict(zip(header, rows[1].split(",")))
    assert abs(float(row["optimal_load"]) - 5 / 3) <= 1e-6
    assert abs(float(row["uniform_metric"]) - 7 / 3) <= 1e-9


def test_check_optimal_on_a_600_server_chain(tmp_path):
    # its residual paths passed the recursion limit of a recursive max flow
    g = tmp_path / "chain.bpg"
    write_graph(BipartiteGraph(600, 600, [[w, w + 1] for w in range(599)] + [[0]]), g)
    out = tmp_path / "check.csv"
    assert run("check", "--graph", str(g), "--epsilons", "0.2", "--budget", "16",
               "--optimal", "--out", str(out)) == 0
    header, row = (r.split(",") for r in _data_rows(out))
    assert dict(zip(header, row))["optimal_load"] == "1.000000"


def test_check_matching_and_complete(tmp_path):
    g = tmp_path / "m.bpg"
    run("gen", "--kind", "matching", "--n", "4", "--out", str(g))
    out = tmp_path / "check.csv"
    assert run("check", "--graph", str(g), "--epsilons", "0.4", "--mode", "exact",
               "--out", str(out)) == 0
    header, row = (r.split(",") for r in _data_rows(out))
    assert float(dict(zip(header, row))["deficiency"]) == 1.0

    g2 = tmp_path / "c.bpg"
    run("gen", "--kind", "complete", "--n", "8", "--m", "5", "--out", str(g2))
    out2 = tmp_path / "check2.csv"
    assert run("check", "--graph", str(g2), "--epsilons", "0.05,0.2,0.5",
               "--mode", "exact", "--out", str(out2)) == 0
    for line in _data_rows(out2)[1:]:
        assert float(line.split(",")[1]) == 0.0


def test_simulate_deterministic_csv(tmp_path):
    g = tmp_path / "c.bpg"
    run("gen", "--kind", "complete", "--n", "100", "--m", "100", "--out", str(g))
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    args = ["simulate", "--graph", str(g), "--d", "2", "--lambda", "0.8",
            "--horizon", "10", "--seed", "1"]
    assert run(*args, "--out", str(a)) == 0
    assert run(*args, "--out", str(b)) == 0
    assert a.read_bytes() == b.read_bytes()


def test_steady_mm1(tmp_path):
    g = tmp_path / "one.bpg"
    run("gen", "--kind", "complete", "--n", "1", "--m", "1", "--out", str(g))
    out = tmp_path / "steady.csv"
    assert run("steady", "--graph", str(g), "--d", "1", "--lambda", "0.5",
               "--warmup", "20", "--measure", "50000", "--replicas", "4",
               "--out", str(out)) == 0
    meta = {
        k.strip("# "): v.strip()
        for k, v in (ln.split(":", 1) for ln in out.read_text().splitlines() if ln.startswith("#") and ":" in ln)
    }
    # standard error sqrt(24 / 200000) = 0.011, as in test_mm1_mean_queue_length
    assert abs(float(meta["mean_qlen"]) - 1.0) <= 0.05


def test_coupled_command(tmp_path):
    g = tmp_path / "fd.bpg"
    run("gen", "--kind", "fixed-degree", "--n", "60", "--m", "60", "--c", "9",
        "--seed", "3", "--out", str(g))
    out = tmp_path / "coup.csv"
    assert run("coupled", "--graph", str(g), "--d", "2", "--lambda", "0.8",
               "--horizon", "10", "--out", str(out)) == 0
    rows = _data_rows(out)
    assert rows[0].split(",")[-2:] == ["delta", "margin_min_so_far"]
    last = rows[-1].split(",")
    assert int(last[-1]) >= 0  # margin_min_so_far stays nonnegative


def test_ode_and_compare_zero_distance(tmp_path):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    args = ["ode", "--lambda", "0.8", "--d", "2", "--horizon", "5", "--depth", "10"]
    assert run(*args, "--out", str(a)) == 0
    assert run(*args, "--out", str(b)) == 0
    assert run("compare", "--a", str(a), "--b", str(b)) == 0
    rec, meta = read_trajectory_csv(a)
    assert meta["depth"] == "10"
    assert rec.depth == 10


def test_compare_refuses_mismatched_metadata(tmp_path):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    run("ode", "--lambda", "0.8", "--horizon", "5", "--depth", "10", "--out", str(a))
    run("ode", "--lambda", "0.5", "--horizon", "5", "--depth", "10", "--out", str(b))
    assert run("compare", "--a", str(a), "--b", str(b)) == 1


def test_compare_refuses_horizon_mismatch(tmp_path):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    run("ode", "--lambda", "0.8", "--horizon", "5", "--depth", "10", "--out", str(a))
    run("ode", "--lambda", "0.8", "--horizon", "6", "--depth", "10", "--out", str(b))
    assert run("compare", "--a", str(a), "--b", str(b)) == 1


@pytest.mark.parametrize(
    "bad_row, message",
    [("0.2,0.5", "expected 4 cells, found 2"),
     ("0.2,0.5,abc,0", "could not convert string to float: 'abc'")],
)
def test_compare_malformed_row_is_format_error(tmp_path, capsys, bad_row, message):
    good, bad = tmp_path / "ok.csv", tmp_path / "bad.csv"
    args = ["ode", "--lambda", "0.8", "--horizon", "0.1", "--depth", "2"]
    assert run(*args, "--sample-interval", "0.1", "--out", str(good)) == 0
    text = good.read_text()
    bad.write_text(text + bad_row + "\n")
    bad_line = len(text.splitlines()) + 1
    capsys.readouterr()
    assert run("compare", "--a", str(good), "--b", str(bad)) == 3
    assert f"{bad}, line {bad_line}: {message}" in capsys.readouterr().err


def test_compare_header_only_trajectory_is_format_error(tmp_path, capsys):
    good, empty = tmp_path / "ok.csv", tmp_path / "empty.csv"
    args = ["ode", "--lambda", "0.8", "--horizon", "0.1", "--depth", "2"]
    assert run(*args, "--sample-interval", "0.1", "--out", str(good)) == 0
    empty.write_text("".join(good.read_text().splitlines(keepends=True)[:-2]))  # drop both data rows
    assert _data_rows(empty) == ["t,q1,q2,overflow"]
    capsys.readouterr()
    assert run("compare", "--a", str(good), "--b", str(empty)) == 3
    assert f"{empty}: no data rows" in capsys.readouterr().err


@pytest.mark.parametrize("levels", ["0", "-3"])
def test_compare_levels_must_be_positive(tmp_path, capsys, levels):
    a = tmp_path / "a.csv"
    assert run("ode", "--lambda", "0.8", "--horizon", "1", "--depth", "4", "--out", str(a)) == 0
    capsys.readouterr()
    assert run("compare", "--a", str(a), "--b", str(a), "--levels", levels) == 1
    assert f"levels must be a positive integer, not {levels}" in capsys.readouterr().err


def test_simulate_vs_ode_compare(tmp_path):
    g = tmp_path / "c.bpg"
    run("gen", "--kind", "complete", "--n", "500", "--m", "500", "--out", str(g))
    sim, ode = tmp_path / "sim.csv", tmp_path / "ode.csv"
    assert run("simulate", "--graph", str(g), "--d", "2", "--lambda", "0.8",
               "--horizon", "10", "--seed", "2", "--depth", "12", "--out", str(sim)) == 0
    assert run("ode", "--lambda", "0.8", "--d", "2", "--horizon", "10",
               "--depth", "12", "--out", str(ode)) == 0
    assert run("compare", "--a", str(sim), "--b", str(ode), "--levels", "8") == 0


def test_exit_codes(tmp_path, capsys):
    assert run("gen", "--kind", "complete", "--n", "0", "--m", "2",
               "--out", str(tmp_path / "x.bpg")) == 1  # bad parameters
    assert run("simulate", "--graph", str(tmp_path / "missing.bpg"),
               "--out", str(tmp_path / "y.csv")) == 3  # I/O
    bad = tmp_path / "bad.bpg"
    bad.write_text("not a graph\n")
    assert run("check", "--graph", str(bad), "--out", str(tmp_path / "z.csv")) == 3
    bad.write_text("BPG v1\n2 2 1\n0 0\n")  # dispatcher 1 has no edge
    assert run("check", "--graph", str(bad), "--out", str(tmp_path / "z.csv")) == 3
    assert run("reproduce", "no-such-recipe") == 1
    assert run("gen", "--kind", "fixed-degree", "--n", "200", "--m", "200", "--c", "1",
               "--out", str(tmp_path / "iso.bpg")) == 1  # generation cannot avoid isolation
    assert run("compare", "--a", str(tmp_path / "nope.csv"), "--b", str(tmp_path / "nope.csv")) == 3
    # a zero size is refused before the first draw, not after the retries
    for kind in (["fixed-degree", "--c", "1"], ["inhomogeneous", "--p", "0.5"],
                 ["geometric", "--radius", "0.3"]):
        capsys.readouterr()
        assert run("gen", "--kind", *kind, "--n", "0", "--m", "5",
                   "--out", str(tmp_path / "zero.bpg")) == 1
        assert capsys.readouterr().err == "error: need at least one server and one dispatcher\n"


def test_usage_error_is_exit_1(tmp_path):
    assert run("gen", "--kind", "complete") == 1  # missing --out
    assert run("nonexistent-command") == 1
    out = tmp_path / "x.csv"
    trend = ("trend", "--family", "fixed-degree-log2", "--out", str(out))
    assert run(*trend, "--sizes", "300..250") == 1  # reversed range
    assert run(*trend, "--sizes", "250,300..250") == 1
    assert run(*trend, "--seeds", ",") == 1  # empty list
    g = tmp_path / "c.bpg"
    run("gen", "--kind", "complete", "--n", "4", "--out", str(g))
    assert run("check", "--graph", str(g), "--epsilons", ",", "--out", str(out)) == 1
    assert run("reproduce", "degree-sweep", "--sizes", ",", "--out", str(out)) == 1
    assert not out.exists()


@pytest.mark.parametrize("command", ["simulate", "coupled", "ode"])
@pytest.mark.parametrize("interval", ["0", "-0.5", "nan", "inf"])
def test_bad_sample_interval_is_exit_1(tmp_path, capsys, command, interval):
    g = tmp_path / "c.bpg"
    run("gen", "--kind", "complete", "--n", "4", "--out", str(g))
    out = tmp_path / "t.csv"
    args = ["--lambda", "0.5", "--horizon", "1", "--sample-interval", interval, "--out", str(out)]
    if command != "ode":
        args += ["--graph", str(g)]
    capsys.readouterr()
    assert run(command, *args) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: sample_interval must be finite and > 0"), err
    assert not out.exists()


@pytest.mark.parametrize(
    "command, flag, value",
    [(c, "--horizon", v) for c in ("simulate", "coupled", "ode") for v in ("0", "-1", "nan", "inf")]
    + [("ode", "--step", v) for v in ("0", "-1", "nan", "inf", "50")]
    + [("steady", "--warmup", v) for v in ("-1", "nan", "inf")]
    + [("steady", "--measure", v) for v in ("0", "-1", "nan", "inf")]
    + [(c, "--lambda", v) for c in ("simulate", "steady", "coupled", "ode")
       for v in ("0", "-1", "nan", "inf")]
    + [(c, "--d", v) for c in ("simulate", "steady", "coupled", "ode") for v in ("0", "-1")]
    + [(c, "--depth", v)
       for c in ("simulate", "steady", "coupled", "ode", "reproduce erg-trajectories")
       for v in ("0", "-1")]
    + [("reproduce erg-trajectories", "--horizon", "0")]
    + [("coupled", "--lambda", "1.2")]
    + [(c, "--seed", "-1") for c in ("simulate", "steady", "coupled")]
    # no --warmup: the default 10/(1 - lambda) does not exist at lambda >= 1
    + [(f"steady --allow-overload --lambda {lam}", "--warmup", None) for lam in ("1", "1.5")],
)
def test_bad_run_argument_is_exit_1(tmp_path, capsys, command, flag, value):
    g = tmp_path / "c.bpg"
    run("gen", "--kind", "complete", "--n", "4", "--out", str(g))
    out = tmp_path / "t.csv"
    command = command.split()
    args = ([] if value is None else [flag, value]) + ["--out", str(out)]
    if command[0] not in ("ode", "reproduce"):
        args += ["--graph", str(g)]
    capsys.readouterr()
    assert run(*command, *args) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: {flag[2:]} must "), err
    if value is None:
        assert "must be given" in err, err
    assert not out.exists()


_HUGE = "99999999999999999999"  # 20 digits: refused before anything is allocated


@pytest.mark.parametrize("argv, message", [
    ("ode --lambda 2", "lambda must lie in (0, 1)"),
    ("reproduce lambda-sweep --lambdas 2 --sizes 40", "lambda must lie in (0, 1)"),
    *((f"{c} --horizon 1e308", "horizon 1e+308 / sample_interval 0.1 asks for more than 2^31 samples")
      for c in ("simulate", "coupled", "ode")),
    ("ode --sample-interval 1e308", "sample_interval / step must be finite, not 1e+308 / 0.01"),
    (f"gen --kind fixed-degree --c 2 --n {_HUGE}", f"N={_HUGE} M={_HUGE} too large; N and M must be below 2^31"),
    (f"trend --family fixed-degree-4 --sizes {_HUGE}", f"N={_HUGE} M={_HUGE} too large; N and M must be below 2^31"),
    (f"coupled --depth {_HUGE}", f"depth must be below 2^31, not {_HUGE}"),
    (f"ode --depth {_HUGE}", f"depth must be below 2^31, not {_HUGE}"),
    (f"ode --start fixed-point --depth {_HUGE}", f"depth must be below 2^31, not {_HUGE}"),
    (f"reproduce erg-trajectories --sizes 8 --depth {_HUGE}", f"depth must be below 2^31, not {_HUGE}"),
    (f"steady --replicas {_HUGE}", f"replicas must be below 2^31, not {_HUGE}"),
    # (lambda + 1) * N * horizon events of 2^52 or more: the clock would stop short
    *((argv, f"horizon {horizon} is too long: at 7.2 events per unit time it expects 2^52 events or more, "
             "past which the event clock cannot advance")
      for argv, horizon in [("steady --warmup 1e308", "1e+308"), (f"steady --measure {_HUGE}", "1e+20"),
                            ("simulate --horizon 1e15 --sample-interval 1e14", "1e+15"),
                            ("coupled --horizon 1e15 --sample-interval 1e14", "1e+15")]),
])
def test_values_too_large_to_run_are_exit_1(tmp_path, capsys, argv, message):
    g = tmp_path / "c.bpg"
    run("gen", "--kind", "complete", "--n", "4", "--out", str(g))
    out = tmp_path / "out"
    argv = argv.split() + ["--out", str(out)]
    if argv[0] in ("simulate", "steady", "coupled"):
        argv += ["--graph", str(g)]
    capsys.readouterr()
    assert run(*argv) == 1
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not out.exists()


@pytest.mark.parametrize("argv, message", [
    ("gen --kind fixed-degree --c 2 --seed -1", "seed must be a non-negative integer, not -1"),
    ("check --graph G --seed -1", "seed must be a non-negative integer, not -1"),
    ("trend --family fixed-degree-4 --sizes 8 --seeds 0,-1", "seed must be a non-negative integer, not -1"),
    ("gen --kind complete --n 5 --c 3 --p 0.5 --radius 0.2", "a complete graph does not read c, p, radius"),
    ("gen --kind geometric --radius 0.5 --p 0.5", "a geometric graph does not read p"),
    ("check --graph G --optimal --d 0", "d must be a positive integer, not 0"),
    ("check --graph G --epsilons 0.1,2", "epsilon must be at most 1, not 2.0"),
    ("trend --family fixed-degree-4 --sizes 8 --seeds 0 --epsilons 1e308", "epsilon must be at most 1, not 1e+308"),
])
def test_refusal_names_the_value(tmp_path, capsys, argv, message):
    g = tmp_path / "b.bpg"
    run("gen", "--kind", "braess", "--out", str(g))
    out = tmp_path / "out"
    capsys.readouterr()
    assert run(*(str(g) if tok == "G" else tok for tok in argv.split()), "--out", str(out)) == 1
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not out.exists()


@pytest.mark.parametrize("kind, flag", [
    ("braess", "--n"), ("braess", "--m"), ("braess", "--seed"),
    ("matching", "--m"), ("matching", "--seed"), ("complete", "--seed"),
])
def test_gen_refuses_a_size_or_seed_its_kind_does_not_read(tmp_path, capsys, kind, flag):
    out, config = tmp_path / "g.bpg", tmp_path / "config.json"
    config.write_text(json.dumps({flag[2:]: 7}))
    for extra in ([flag, "7"], ["--config", str(config)]):
        capsys.readouterr()
        assert run("gen", "--kind", kind, *extra, "--out", str(out)) == 1
        assert capsys.readouterr().err == f"error: a {kind} graph does not read {flag[2:]}\n"
        assert not out.exists()


def test_disconnected_graph_exit(tmp_path):
    g = tmp_path / "m.bpg"
    run("gen", "--kind", "matching", "--n", "4", "--out", str(g))
    assert run("simulate", "--graph", str(g), "--d", "1", "--lambda", "0.5",
               "--horizon", "1", "--out", str(tmp_path / "t.csv")) == 1
    assert run("simulate", "--graph", str(g), "--d", "1", "--lambda", "0.5",
               "--horizon", "1", "--allow-disconnected",
               "--out", str(tmp_path / "t.csv")) == 0


def test_config_file_defaults_and_override(tmp_path, monkeypatch):
    g = tmp_path / "c.bpg"
    run("gen", "--kind", "complete", "--n", "20", "--m", "20", "--out", str(g))
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"lambda": 0.6, "horizon": 3.0, "seed": 5}))
    out = tmp_path / "sim.csv"
    assert run("simulate", "--graph", str(g), "--config", str(cfg),
               "--out", str(out)) == 0
    _, meta = read_trajectory_csv(out)
    assert meta["lambda"] == "0.6"
    assert meta["seed"] == "5"
    # explicit flag beats the config file
    assert run("simulate", "--graph", str(g), "--config", str(cfg),
               "--lambda", "0.7", "--out", str(out)) == 0
    _, meta = read_trajectory_csv(out)
    assert meta["lambda"] == "0.7"
    # reproduce's --out is optional, so a config file may set it
    monkeypatch.chdir(tmp_path)  # where the default erg-trajectories.csv would land
    cfg.write_text(json.dumps({"out": str(tmp_path / "erg.csv")}))
    assert run("reproduce", "erg-trajectories", "--sizes", "40", "--horizon", "1.0", "--depth", "4",
               "--config", str(cfg)) == 0
    assert (tmp_path / "erg.csv").exists() and not (tmp_path / "erg-trajectories.csv").exists()


# (command line, config, its refused key, a valid key the error lists)
_REFUSED_CONFIGS = [
    ("simulate --graph G", {"lamda": 0.95}, "lamda", "horizon"),
    # a config file sets only optional flags: no positional argument, no required flag
    ("reproduce degree-sweep --sizes 40", {"recipe": "lambda-sweep", "sizes": [40]}, "recipe", "lambdas"),
    ("check --graph G", {"out": "CFG_OUT"}, "out", "epsilons"),
    ("check --graph G", {"graph": "G"}, "graph", "budget"),
    ("trend --family fixed-degree-log2 --sizes 32 --seeds 0 --budget 8", {"family": "errg-log2"},
     "family", "seeds"),
]


def test_config_file_rejects_unknown_keys(tmp_path, capsys):
    g = tmp_path / "c.bpg"
    run("gen", "--kind", "complete", "--n", "20", "--m", "20", "--out", str(g))
    paths = {"G": str(g), "CFG_OUT": str(tmp_path / "cfg_out.csv")}
    cfg = tmp_path / "cfg.json"
    out = tmp_path / "out.csv"
    for argv, config, key, valid in _REFUSED_CONFIGS:
        cfg.write_text(json.dumps({k: paths.get(v, v) if isinstance(v, str) else v for k, v in config.items()}))
        capsys.readouterr()
        assert run(*(paths.get(tok, tok) for tok in argv.split()), "--config", str(cfg), "--out", str(out)) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"usage error: unknown config key(s) [{key!r}]; valid keys: ["), err
        listed = err.split("valid keys:")[1]
        assert repr(valid) in listed and repr(key) not in listed, err
        assert not out.exists() and not (tmp_path / "cfg_out.csv").exists()


@pytest.mark.parametrize(
    "config",
    [
        {"sizes": [], "seeds": [0]},  # empty list
        {"sizes": [32], "seeds": []},
        {"sizes": ["300..250"], "seeds": [0]},  # reversed range
        {"sizes": [32, 1.5], "seeds": [0]},  # not an integer
        {"sizes": [32], "seeds": [0], "epsilons": []},
        {"sizes": [32], "seeds": [0], "epsilons": ["x"]},
        [{"sizes": [32], "seeds": [0]}],  # not a JSON object
    ],
)
def test_config_list_values_checked_like_flags(tmp_path, capsys, config):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(config))
    out = tmp_path / "t.csv"
    assert run("trend", "--family", "fixed-degree-log2", "--budget", "8",
               "--config", str(cfg), "--out", str(out)) == 1
    assert "usage error" in capsys.readouterr().err
    assert not out.exists()


def test_config_seed_checked_like_the_flag(tmp_path, capsys):
    # a number is checked like the flag's text too: 1.5 is no --seed
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"seed": 1.5}))
    out = tmp_path / "t.csv"
    assert run("reproduce", "degree-sweep", "--sizes", "40", "--config", str(cfg),
               "--out", str(out)) == 1
    assert "usage error" in capsys.readouterr().err
    assert not out.exists()


def test_config_switch_takes_only_booleans(tmp_path, capsys):
    g = tmp_path / "m.bpg"
    run("gen", "--kind", "matching", "--n", "4", "--out", str(g))
    cfg = tmp_path / "cfg.json"
    out = tmp_path / "t.csv"
    args = ("simulate", "--graph", str(g), "--d", "1", "--lambda", "0.5", "--horizon", "1",
            "--config", str(cfg), "--out", str(out))
    cfg.write_text(json.dumps({"allow-disconnected": "false"}))  # a string is not false
    assert run(*args) == 1
    assert "takes true or false" in capsys.readouterr().err
    assert not out.exists()
    cfg.write_text(json.dumps({"allow-disconnected": False}))
    assert run(*args) == 1  # disconnected graph refused, as without the config
    cfg.write_text(json.dumps({"allow-disconnected": True}))
    assert run(*args) == 0


def test_config_list_values_match_flags(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"sizes": [32, "40..41"], "seeds": [0, 1], "epsilons": 0.15}))
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    trend = ("trend", "--family", "fixed-degree-log2", "--budget", "8")
    assert run(*trend, "--config", str(cfg), "--out", str(a)) == 0
    assert run(*trend, "--sizes", "32,40..41", "--seeds", "0,1", "--epsilons", "0.15",
               "--out", str(b)) == 0
    assert _data_rows(a) == _data_rows(b)
    assert len(_data_rows(a)) == 1 + 3 * 2


@pytest.mark.parametrize(
    "content, where, message",
    [
        (b"BPG v1\n2 1 2\n0 0\n1 x\n", ", line 4", "non-integer edge"),
        (b"BPG v1\n2 1 2\n0 0\n\xff 0\n", ", line 4", "non-integer edge"),
        (b"BPG v1\n2 1 3\n0 0\n1 0\n", "", "edge count mismatch: header says 3, found 2"),
    ],
)
def test_graph_format_error_names_file(tmp_path, capsys, content, where, message):
    bad = tmp_path / "bad.bpg"
    bad.write_bytes(content)
    out = tmp_path / "z.csv"
    assert run("check", "--graph", str(bad), "--out", str(out)) == 3
    assert capsys.readouterr().err == f"i/o error: {bad}{where}: {message}\n"
    assert not out.exists()


def test_trend_command(tmp_path):
    out = tmp_path / "trend.csv"
    assert run("trend", "--family", "fixed-degree-log2", "--sizes", "32,64",
               "--seeds", "0..2", "--epsilons", "0.15", "--budget", "16",
               "--out", str(out)) == 0
    rows = _data_rows(out)
    assert rows[0] == "family,N,M,seed,epsilon,deficiency_lb,uniform_metric"
    assert len(rows) == 1 + 2 * 3
    assert run("trend", "--family", "unknown", "--sizes", "8", "--seeds", "0",
               "--out", str(out)) == 1


def test_trend_constant_degree_family(tmp_path):
    out = tmp_path / "trend.csv"
    assert run("trend", "--family", "fixed-degree-4", "--sizes", "40", "--seeds", "0..2",
               "--out", str(out)) == 0
    assert {row.split(",")[0] for row in _data_rows(out)[1:]} == {"fixed-degree-4"}


@pytest.mark.parametrize("command", ["check", "trend"])
@pytest.mark.parametrize("epsilon", ["0", "-0.1", "nan", "inf"])
def test_bad_epsilon_is_exit_1(tmp_path, capsys, command, epsilon):
    out = tmp_path / "out.csv"
    if command == "check":
        graph = tmp_path / "g.bpg"
        assert run("gen", "--kind", "braess", "--out", str(graph)) == 0
        argv = ["check", "--graph", str(graph)]
    else:
        argv = ["trend", "--family", "fixed-degree-log2", "--sizes", "32", "--seeds", "0"]
    capsys.readouterr()
    assert run(*argv, f"--epsilons={epsilon}", "--out", str(out)) == 1
    assert capsys.readouterr().err.startswith("error: epsilon must be finite and > 0")
    assert not out.exists()


_LEVELS = [f"q{i}" for i in range(1, 9)]

# recipe -> (header, first-column keys) at --sizes 40 and, where the recipe
# reads them, --horizon 3.0 --depth 8 --lambdas 0.5,0.8
RECIPE_SCHEMAS = {
    "erg-trajectories": (["source", "t", *_LEVELS, "overflow"], {"sim-N40", "ode"}),
    "degree-sweep": (
        ["family", "N", "mean_qlen", "stderr"],
        {"fixed-degree-4", "fixed-degree-log", "fixed-degree-log2"},
    ),
    "lambda-sweep": (["lambda", "N", "mean_qlen", "stderr", "target", "gap"], {"0.5", "0.8"}),
    "service-sweep": (
        ["service", "N", "mean_qlen", "stderr"],
        {"exponential", "deterministic", "pareto"},
    ),
    "geometric-vs-errg": (
        ["family", "N", "mean_qlen", "stderr", "target"],
        {"errg-log2", "geometric-log2"},
    ),
}


@pytest.mark.parametrize("recipe", sorted(RECIPES))
def test_reproduce_recipe(tmp_path, recipe):
    header, keys = RECIPE_SCHEMAS[recipe]
    out = tmp_path / f"{recipe}.csv"
    _, defaults = RECIPES[recipe]
    flags = {"sizes": "40", "horizon": "3.0", "depth": "8", "lambdas": "0.5,0.8"}
    argv = [text for key, value in flags.items() if key in defaults for text in (f"--{key}", value)]
    assert run("reproduce", recipe, *argv, "--out", str(out)) == 0
    # the header states every flag the recipe reads: as set, or its declared default
    meta = _header(out)
    assert meta["command"] == f"reproduce {recipe}"
    for key, default in {"d": 2, "seed": 0, **defaults}.items():
        name = "lambda" if key == "lam" else key
        text = ",".join(map(str, default)) if isinstance(default, list) else str(default)
        assert meta.pop(name) == flags.get(key, text)
    assert set(meta) <= {"artifact", "command", "target"}
    rows = [ln.split(",") for ln in _data_rows(out)]
    assert rows[0] == header
    assert all(len(row) == len(header) for row in rows[1:])
    assert {row[0] for row in rows[1:]} == keys
    if "mean_qlen" in header:
        col = header.index("mean_qlen")
        assert all(np.isfinite(float(row[col])) for row in rows[1:])


def test_generation_failure_leaves_no_csv(tmp_path, capsys):
    out = tmp_path / "sweep.csv"
    # fixed-degree-4 at N=1000 leaves a dispatcher isolated on every retry
    assert run("reproduce", "degree-sweep", "--sizes", "1000", "--out", str(out)) == 1
    assert "error:" in capsys.readouterr().err
    assert not out.exists()


# Every flag each command reads, set to a non-default value and written in
# parser order as the header writes it ("--x" alone is a switch, written True)
HEADER_CASES = {
    "check": "--seed 3 --graph G --d 3 --epsilons 0.2,0.3 --mode exact --budget 64 --optimal",
    "simulate": "--seed 3 --graph G --d 1 --lambda 0.5 --depth 6 --allow-disconnected --horizon 2.0 "
                "--service deterministic --sample-interval 0.5 --allow-overload",
    "steady": "--seed 3 --graph G --d 1 --lambda 0.5 --depth 6 --allow-disconnected --warmup 1.0 "
              "--measure 2.0 --replicas 2 --service pareto --allow-overload",
    "coupled": "--seed 3 --graph G --d 1 --lambda 0.5 --depth 6 --allow-disconnected --horizon 2.0 "
               "--sample-interval 0.5",
    "ode": "--d 3 --lambda 0.5 --horizon 1.0 --depth 6 --step 0.05 --sample-interval 0.5 "
           "--start fixed-point",
    "trend": "--family fixed-degree-4 --sizes 32,40 --seeds 1,2 --epsilons 0.2,0.3 --budget 8",
    "reproduce erg-trajectories": "--sizes 40 --d 3 --lambda 0.5 --horizon 1.0 --depth 6 --seed 2",
    "reproduce degree-sweep": "--sizes 40 --d 3 --lambda 0.5 --seed 2",
    "reproduce lambda-sweep": "--sizes 40 --lambdas 0.5,0.6 --d 3 --seed 2",
    "reproduce service-sweep": "--sizes 40 --d 3 --lambda 0.5 --seed 2",
    "reproduce geometric-vs-errg": "--sizes 40 --d 3 --lambda 0.5 --seed 2",
}


@pytest.mark.parametrize("command", sorted(HEADER_CASES))
def test_header_states_every_flag_read(tmp_path, command):
    g = tmp_path / "g.bpg"
    run("gen", "--kind", *(["braess"] if command == "check" else ["complete", "--n", "4"]), "--out", str(g))
    argv = [str(g) if tok == "G" else tok for tok in HEADER_CASES[command].split()]
    expected = {"artifact": "sparselb v0.1.0", "command": command}
    for i, tok in enumerate(argv):
        if tok.startswith("--"):
            switch = i + 1 == len(argv) or argv[i + 1].startswith("--")
            expected[tok[2:].replace("-", "_")] = "True" if switch else argv[i + 1]
    _, subparsers = build_parser()
    order = [action.dest for action in subparsers[command.split()[0]]._actions]
    dests = ["lam" if key == "lambda" else key for key in list(expected)[2:]]
    assert dests == sorted(dests, key=order.index)  # the case lists flags in parser order
    out = tmp_path / "out.csv"
    assert run(*command.split(), *argv, "--out", str(out)) == 0
    meta = _header(out)
    assert list(meta.items())[: len(expected)] == list(expected.items())
    assert set(list(meta)[len(expected):]) <= {"mean_qlen", "mean_qlen_stderr", "target"}


def test_header_states_resolved_defaults(tmp_path):
    g = tmp_path / "g.bpg"
    run("gen", "--kind", "complete", "--n", "4", "--out", str(g))
    out = tmp_path / "out.csv"
    assert run("steady", "--graph", str(g), "--lambda", "0.5", "--measure", "1", "--replicas", "1",
               "--out", str(out)) == 0
    assert _header(out)["warmup"] == "20.0"  # 10 / (1 - lambda)
    assert run("ode", "--lambda", "0.5", "--d", "3", "--horizon", "0.1", "--out", str(out)) == 0
    assert _header(out)["depth"] == str(default_depth(0.5, 3))


@pytest.mark.parametrize(
    "argv, message",
    [
        ("ode --policy jsq-d:2 --out OUT", "unrecognized arguments: --policy"),
        ("ode --seed 1 --out OUT", "unrecognized arguments: --seed"),
        ("compare --a OUT --b OUT --seed 1", "unrecognized arguments: --seed"),
        ("trend --family fixed-degree-4 --sizes 32 --seeds 0 --seed 1 --out OUT",
         "unrecognized arguments: --seed"),
        ("reproduce degree-sweep --sizes 40 --lambdas 0.5 --out OUT",
         "reproduce degree-sweep does not read --lambdas"),
        ("reproduce lambda-sweep --sizes 40 --lambda 0.3 --depth 4 --out OUT",
         "reproduce lambda-sweep does not read --depth, --lambda"),
        ("reproduce service-sweep --sizes 40 --horizon 5 --out OUT",
         "reproduce service-sweep does not read --horizon"),
    ],
)
def test_flag_nothing_reads_is_usage_error(tmp_path, capsys, argv, message):
    out = tmp_path / "out.csv"
    assert run(*(str(out) if tok == "OUT" else tok for tok in argv.split())) == 1
    err = capsys.readouterr().err
    assert err.startswith("usage error: ") and message in err, err
    assert not out.exists()


# Every value flag of every command, read from the parser, is set in turn to
# each hostile value on a small valid run, on the command line and through
# --config. Nothing may escape main, the exit code is 0-3, a run that fails
# leaves no file behind, and no run outlasts its time limit (which raises a
# BaseException: main maps TimeoutError, an OSError, to exit 3).
_HOSTILE = ["0", "-1", "nan", "inf", "1e308", "1e-308", "5e-324", _HUGE, "", ",", "1,", "text"]
# flags whose legal values may run for hours, and the hostile values legal
# for them, which they skip
_COSTLY_LEGAL = {"--budget": {_HUGE}, "--replicas": set(), "--measure": set(), "--warmup": {"0"}}
# a small valid run per command (and per gen flag that needs its own kind);
# G is a graph file and A a trajectory file
_FUZZ_BASES = {
    "gen": "--kind fixed-degree --n 6 --c 2 --out out",
    ("gen", "--p"): "--kind inhomogeneous --n 6 --p 0.5 --out out",
    ("gen", "--radius"): "--kind geometric --n 6 --radius 0.5 --out out",
    "check": "--graph G --optimal --out out",
    "simulate": "--graph G --lambda 0.5 --horizon 1 --out out",
    "steady": "--graph G --lambda 0.5 --warmup 0.5 --measure 0.5 --replicas 2 --out out",
    "coupled": "--graph G --lambda 0.5 --horizon 1 --out out",
    "ode": "--lambda 0.5 --horizon 1 --depth 6 --out out",
    "compare": "--a A --b A",
    "trend": "--family fixed-degree-4 --sizes 8 --seeds 0 --budget 8 --out out",
    "reproduce": "erg-trajectories --sizes 8 --lambda 0.5 --horizon 1 --depth 4 --out out",
}


def _as_json(text):
    """A hostile value as a config file holds it: a JSON number where it
    reads as one (NaN and Infinity included), else the string."""
    for kind in (int, float):
        try:
            return kind(text)
        except ValueError:
            pass
    return text


@pytest.mark.parametrize("via_config", [False, True], ids=["flag", "config"])
@pytest.mark.parametrize("command", sorted(build_parser()[1]))
def test_hostile_values_exit_cleanly(tmp_path, monkeypatch, command, via_config):
    inputs, work = tmp_path / "in", tmp_path / "work"
    inputs.mkdir()
    work.mkdir()
    graph, trajectory, config = inputs / "g.bpg", inputs / "a.csv", inputs / "config.json"
    assert run("gen", "--kind", "complete", "--n", "4", "--out", str(graph)) == 0
    assert run("ode", "--lambda", "0.5", "--horizon", "1", "--depth", "6", "--out", str(trajectory)) == 0
    monkeypatch.chdir(work)  # relative outputs land in `work`, which starts empty
    # one parser serves every case (building one takes milliseconds); the
    # defaults a config file sets on it are put back after each case
    parser = build_parser()
    monkeypatch.setattr(cli, "build_parser", lambda: parser)
    sub = parser[1][command]
    action_defaults, parser_defaults = [(a, a.default) for a in sub._actions], dict(sub._defaults)
    flags = [a.option_strings[0] for a in sub._actions if a.option_strings and a.nargs != 0]
    faults = []
    for flag in flags:
        base = _FUZZ_BASES.get((command, flag), _FUZZ_BASES[command]).split()
        base = [{"G": str(graph), "A": str(trajectory)}.get(tok, tok) for tok in base]
        if flag in base:  # drop the base's own value of the flag
            i = base.index(flag)
            del base[i : i + 2]
        for value in _HOSTILE:
            if value in _COSTLY_LEGAL.get(flag, ()):
                continue
            if via_config:
                config.write_text(json.dumps({flag[2:]: _as_json(value)}))
                argv = [command, *base, "--config", str(config)]
            else:
                argv = [command, *base, flag, value]
            try:
                with time_limit(5):
                    code = main(argv)
            except BaseException as exc:  # anything that escapes main is a fault
                faults.append((argv, f"raised {type(exc).__name__}: {exc}"))
                code = None
            for action, default in action_defaults:
                action.default = default
            sub._defaults = dict(parser_defaults)
            left = sorted(p.name for p in work.iterdir())
            if code not in (0, 1, 2, 3):
                faults.append((argv, f"exit code {code}"))
            elif code != 0 and left:
                faults.append((argv, f"exit {code} left {left}"))
            for name in left:
                (work / name).unlink()
    assert not faults, "\n".join(f"{' '.join(argv)}: {why}" for argv, why in faults)
