"""Runner orchestration, config parsing, CLI subcommands, output formats."""

import csv
import json

import numpy as np
import pytest

from gmocp.cli import main
from gmocp.oracles import run_oracle
from gmocp.runner import (
    load_config,
    parse_config,
    read_rows,
    run_experiment,
    run_seed,
    run_sweep,
)
from gmocp.streams import ModelProfile, StreamConfig, generate_stream


def write_config(tmp_path, doc, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return path


def tiny_doc(**overrides):
    doc = {
        "policy": "gmocp",
        "policy_params": {"N": 2, "J": 1},
        "stream": {
            "profiles": ["high", "low"],
            "n_labels": 6,
            "horizon": 100,
            "schedule": "stationary",
        },
        "seeds": [1],
        "output": "results",
    }
    doc.update(overrides)
    return doc


# -------------------------------------------------------------- parsing

def test_parse_defaults():
    cfg = parse_config({"policy": "egmocp", "stream": {"horizon": 50}})
    p = cfg.policy_params
    assert p.epsilon == 0.5
    assert p.eta == 0.05
    assert p.beta == 0.05
    assert p.target_alpha == 0.1
    assert p.score.xi == 0.1 and p.score.k_reg == 1
    assert cfg.stream.batch_size == 500
    assert cfg.stream.n_models == 8  # default profile pool
    assert (cfg.n_links, cfg.n_selective) == (3, 1)
    assert p.graph.eta_e == (0.2,)


def test_parse_beta_defaults_by_policy():
    assert parse_config({"policy": "gmocp"}).policy_params.beta == 0.0
    assert parse_config({"policy": "egmocp"}).policy_params.beta == 0.05


def test_parse_eta_e_vector():
    cfg = parse_config({"policy": "gmocp",
                        "policy_params": {"J": 2, "eta_e": [0.1, 0.9]}})
    assert cfg.policy_params.graph.eta_e == (0.1, 0.9)


def test_parse_rejects_unknown_policy():
    with pytest.raises(ValueError):
        parse_config({"policy": "sgd"})


def test_parse_stream_file(tmp_path):
    gen = write_config(tmp_path, tiny_doc(), "gen.json")
    assert main(["gen-stream", "--config", str(gen), "--out",
                 str(tmp_path / "s.csv"), "--seed", "3"]) == 0
    cfg = parse_config(
        {"policy": "mocp", "stream": {"file": "s.csv"}, "seeds": [0]},
        base_dir=str(tmp_path),
    )
    assert cfg.policy_params.n_models == 2
    assert cfg.policy_params.score.n_labels == 6
    row, records = run_seed(cfg, 0)
    assert len(records) == 100


def test_config_id_distinguishes_graphs(tmp_path):
    c1 = parse_config(tiny_doc(), base_dir=str(tmp_path))
    c2 = parse_config(tiny_doc(policy_params={"N": 3, "J": 1}), base_dir=str(tmp_path))
    assert c1.config_id() != c2.config_id()
    assert c1.config_id().startswith("gmocp-N2-J1-")


# ------------------------------------------------------------ experiments

def test_single_seed_run(tmp_path):
    cfg = parse_config(tiny_doc(), base_dir=str(tmp_path))
    rows = run_experiment(cfg)
    assert len(rows) == 1
    got = read_rows(str(tmp_path / "results.csv"))
    assert len(got) == 1
    assert got[0].policy == "gmocp" and got[0].seed == 1
    assert got[0].runtime == 0.0  # deterministic output: no timing by default
    summary = json.loads((tmp_path / "results_summary.json").read_text())
    (stats,) = summary.values()
    assert set(stats) == {"coverage", "avg_width", "single_width", "runtime",
                          "width_under_k"}
    assert stats["coverage"]["mean"] == pytest.approx(got[0].coverage)


def test_repeat_runs_byte_identical(tmp_path):
    cfg1 = parse_config(tiny_doc(output="a"), base_dir=str(tmp_path))
    cfg2 = parse_config(tiny_doc(output="b"), base_dir=str(tmp_path))
    run_experiment(cfg1)
    run_experiment(cfg2)
    assert (tmp_path / "a.csv").read_bytes() == (tmp_path / "b.csv").read_bytes()


def test_resume_skips_completed(tmp_path):
    doc = tiny_doc(seeds=[1, 2])
    cfg = parse_config(doc, base_dir=str(tmp_path))
    first = run_experiment(cfg)
    assert len(first) == 2
    again = run_experiment(cfg, resume=True)
    assert again == []  # everything already present
    assert len(read_rows(str(tmp_path / "results.csv"))) == 2

    # drop one row and resume: only the missing seed is rerun
    csv_path = tmp_path / "results.csv"
    lines = csv_path.read_text().splitlines()
    csv_path.write_text("\n".join(lines[:-1]) + "\n")
    rerun = run_experiment(cfg, resume=True)
    assert [r.seed for r in rerun] == [2]
    assert len(read_rows(str(csv_path))) == 2


def test_resume_keys_rows_by_config(tmp_path):
    """Resume on another config's results runs every seed and summarizes only its rows."""
    def egmocp(beta, seeds):
        doc = tiny_doc(policy="egmocp", policy_params={"N": 2, "J": 1, "beta": beta},
                       seeds=seeds)
        return parse_config(doc, base_dir=str(tmp_path))

    first, second = egmocp(0.05, [0, 1]), egmocp(0.5, [0, 1, 2])
    run_experiment(first)
    rerun = run_experiment(second, resume=True)
    assert [r.seed for r in rerun] == [0, 1, 2]
    rows = read_rows(str(tmp_path / "results.csv"))
    assert [(r.config_id, r.seed) for r in rows] == (
        [(first.config_id(), s) for s in (0, 1)] + [(second.config_id(), s) for s in (0, 1, 2)]
    )
    summary = json.loads((tmp_path / "results_summary.json").read_text())
    assert list(summary) == [second.config_id()]
    assert summary[second.config_id()]["coverage"]["mean"] == pytest.approx(
        np.mean([r.coverage for r in rerun]))


def test_resume_rejects_results_without_config_id(tmp_path):
    cfg = parse_config(tiny_doc(), base_dir=str(tmp_path))
    csv_path = tmp_path / "results.csv"
    old = ("policy,N,J,seed,coverage,avg_width,single_width,runtime,width_under_k\n"
           "gmocp,2,1,1,90.0,1.5,50.0,0.0,90.0\n")
    csv_path.write_text(old)
    with pytest.raises(ValueError, match="results.csv"):
        run_experiment(cfg, resume=True)
    assert csv_path.read_text() == old


@pytest.mark.parametrize("n_models, n_labels", [(2, 4), (3, 6)])
def test_run_seed_rejects_stream_shape_mismatch(n_models, n_labels):
    cfg = parse_config(tiny_doc())  # two models, six labels
    stream = StreamConfig(model_profiles=(ModelProfile("high"),) * n_models,
                          n_labels=n_labels, horizon=5)
    steps = list(generate_stream(stream, master_seed=1))
    with pytest.raises(ValueError, match=f"M={n_models} models and K={n_labels} labels"):
        run_seed(cfg, 1, steps=steps)


def test_run_seed_aci_reads_first_model_of_a_wider_stream():
    cfg = parse_config(tiny_doc(policy="aci"))  # a single-model policy on two models
    _, records = run_seed(cfg, 1)
    assert len(records) == 100


def test_trace_output(tmp_path):
    cfg = parse_config(tiny_doc(), base_dir=str(tmp_path))
    run_experiment(cfg, trace=True)
    trace = tmp_path / "results_trace_seed1.csv"
    with open(trace, newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == 100
    assert set(rows[0]) == {"t", "chosen_model", "node", "set_size", "err"}


def test_timing_flag_records_runtime(tmp_path):
    cfg = parse_config(tiny_doc(), base_dir=str(tmp_path))
    row, _ = run_seed(cfg, 1, timing=True)
    assert row.runtime > 0.0


def test_sweep_product(tmp_path):
    doc = tiny_doc(seeds=[1, 2])
    cfg = parse_config(doc, base_dir=str(tmp_path))
    by_id = run_sweep(cfg, [1, 2], [1, 2])
    assert len(by_id) == 4
    rows = read_rows(str(tmp_path / "results.csv"))
    assert len(rows) == 8
    assert {(r.N, r.J) for r in rows} == {(1, 1), (1, 2), (2, 1), (2, 2)}


def test_sweep_requires_graph_policy(tmp_path):
    cfg = parse_config(tiny_doc(policy="mocp"), base_dir=str(tmp_path))
    with pytest.raises(ValueError):
        run_sweep(cfg, [1], [1])


# ------------------------------------------------------------------- CLI

def test_cli_run_and_resume(tmp_path, capsys):
    path = write_config(tmp_path, tiny_doc())
    assert main(["run", "--config", str(path)]) == 0
    assert "wrote 1 rows" in capsys.readouterr().out
    assert main(["run", "--config", str(path), "--resume"]) == 0
    assert "wrote 0 rows" in capsys.readouterr().out


def test_cli_sweep(tmp_path, capsys):
    path = write_config(tmp_path, tiny_doc())
    assert main(["sweep", "--config", str(path), "--grid", "N=1,2", "J=1"]) == 0
    assert "swept 2 configs" in capsys.readouterr().out
    # wrong grid keys exit 2; a missing grid half is an argparse error
    assert main(["sweep", "--config", str(path), "--grid", "N=1,2", "X=1"]) == 2
    with pytest.raises(SystemExit):
        main(["sweep", "--config", str(path), "--grid", "N=1,2"])


def test_cli_oracle(capsys):
    assert main(["oracle", "quantile"]) == 0
    assert "oracle quantile" in capsys.readouterr().out


def test_cli_gen_stream_round_trip(tmp_path):
    path = write_config(tmp_path, tiny_doc())
    out = tmp_path / "stream.csv"
    assert main(["gen-stream", "--config", str(path), "--out", str(out)]) == 0
    from gmocp.streams import load_stream

    steps = list(load_stream(out))
    assert len(steps) == 100 and len(steps[0].probs) == 2


def test_load_config_from_file(tmp_path):
    path = write_config(tmp_path, tiny_doc())
    cfg = load_config(str(path))
    assert cfg.seeds == (1,)
    assert cfg.output == str(tmp_path / "results")


# ---------------------------------------------------------------- oracles

@pytest.mark.parametrize(
    "name", ["quantile", "alpha_bar", "inclusion_prob", "regret_grid"]
)
def test_oracles_pass(name):
    report = run_oracle(name)
    assert report.passed, report.summary()


def test_oracle_loss_unbiasedness_small():
    report = run_oracle("loss_unbiasedness", n_draws=20_000)
    assert report.max_deviation < 0.05  # loose at reduced draw count


def test_unknown_oracle_rejected():
    with pytest.raises(ValueError):
        run_oracle("everything")
