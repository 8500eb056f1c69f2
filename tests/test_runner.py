"""Runner orchestration, config parsing, CLI subcommands, output formats."""

import csv
import hashlib
import json
import re
from dataclasses import replace
from itertools import repeat
from pathlib import Path

import numpy as np
import pytest

from conftest import RUN_CONFIGS, SCHEDULES, experiment_config
from gmocp import runner, streams
from gmocp.cli import main
from gmocp.graph import GraphParams
from gmocp.metrics import compute_metrics
from gmocp.oracles import run_oracle
from gmocp.policies import PolicyConfig
from gmocp.runner import (
    load_config,
    parse_config,
    parse_stream_config,
    read_rows,
    run_experiment,
    run_seed,
    run_sweep,
)
from gmocp.scoring import ScoreParams
from gmocp.streams import (
    ModelProfile,
    StreamConfig,
    StreamFormatError,
    generate_stream,
    load_stream,
)


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
    row, metrics = run_seed(cfg, 0)
    assert metrics.n_steps == 100


def test_config_id_distinguishes_graphs(tmp_path):
    c1 = parse_config(tiny_doc(), base_dir=str(tmp_path))
    c2 = parse_config(tiny_doc(policy_params={"N": 3, "J": 1}), base_dir=str(tmp_path))
    assert c1.config_id() != c2.config_id()
    assert c1.config_id().startswith("gmocp-N2-J1-")


@pytest.mark.parametrize("doc, key", [
    ({"seed": 0}, "'seed'"),
    ({"policy_params": {"epsilonn": 1.0}}, "'policy_params.epsilonn'"),
    ({"stream": {"horizion": 50}}, "'stream.horizion'"),
    ({"stream": {"profiles": [{"quality": "high", "noise": 1.0}]}}, "'stream.profiles[0].noise'"),
])
def test_parse_rejects_unknown_keys(doc, key):
    with pytest.raises(ValueError, match=re.escape(f"unknown config key {key};")):
        parse_config(doc)


@pytest.mark.parametrize("doc, key", [
    ({"policy_params": {"shared_u": "false"}}, "policy_params.shared_u"),
    ({"policy_params": {"epsilon": True}}, "policy_params.epsilon"),
    ({"policy_params": {"N": 3.0}}, "policy_params.N"),
    ({"policy_params": {"eta_e": [0.1, "0.2"]}}, "policy_params.eta_e[1]"),
    ({"stream": {"horizon": "100"}}, "stream.horizon"),
    ({"stream": []}, "stream"),
    ({"seeds": [0, 1.5]}, "seeds[1]"),
    ({"width_cap": None}, "width_cap"),
])
def test_parse_rejects_wrong_json_types(doc, key):
    with pytest.raises(ValueError, match=re.escape(f"config key '{key}' must be")):
        parse_config(doc)


def test_every_config_key_has_a_known_json_type():
    for keys in (runner.TOP_KEYS, runner.POLICY_KEYS, runner.STREAM_KEYS, runner.PROFILE_KEYS):
        for kind in keys.values():
            for alt in kind.replace(" | ", " or ").split(" or "):
                assert alt.removeprefix("list of ") in runner._JSON_TYPES, kind


@pytest.mark.parametrize("policy, params", [
    ("mocp", {"N": 7}),
    ("gmocp", {"beta": 0.3}),
    ("aci", {"epsilon": 9}),
    ("aci", {"eta": -3}),
])
def test_parse_rejects_settings_the_policy_does_not_read(policy, params):
    (key,) = params
    message = f"config key 'policy_params.{key}' is not read by policy '{policy}'"
    with pytest.raises(ValueError, match=re.escape(message)):
        parse_config({"policy": policy, "policy_params": params})


def test_every_policy_accepts_the_settings_it_reads():
    assert set(runner.READ_BY) == set(runner.POLICY_KEYS)
    defaults = {"target_alpha": 0.1, "alpha_init": None, "xi": 0.1, "k_reg": 1, "N": 3, "J": 1,
                "eta_e": 0.2, "beta": 0.05, "epsilon": 0.5, "track_alpha_bar": False,
                "eta": 0.05, "shared_u": False, "coma_gamma": 0.01, "aci_lr": 0.05}
    for policy in runner.POLICY_NAMES:
        params = {key: defaults[key] for key, readers in runner.READ_BY.items()
                  if policy in readers}
        cfg = parse_config({"policy": policy, "policy_params": params})
        assert cfg.config_id() == parse_config({"policy": policy}).config_id()


@pytest.mark.parametrize("policy, params, message", [
    ("egmocp", {"N": 2, "J": 1, "beta": 0}, "egmocp requires beta > 0"),
    ("mocp", {"eta": 0}, "eta must be > 0"),
])
def test_config_errors_fire_before_the_results_file_is_opened(tmp_path, policy, params,
                                                              message):
    assert main(["run", "--config", str(write_config(tmp_path, tiny_doc()))]) == 0
    before = (tmp_path / "results.csv").read_bytes()
    doc = tiny_doc(policy=policy, policy_params=params)
    with pytest.raises(ValueError, match=message):
        parse_config(doc, base_dir=str(tmp_path))
    with pytest.raises(ValueError, match=message):
        main(["run", "--config", str(write_config(tmp_path, doc, "late.json"))])
    assert (tmp_path / "results.csv").read_bytes() == before


NAN, INF = float("nan"), float("inf")


@pytest.mark.parametrize("policy, params, stream, message", [
    ("gmocp", {"eta": INF}, {}, "eta must be finite, got inf"),
    ("mocp", {"epsilon": NAN}, {}, "epsilon must be finite, got nan"),
    ("coma", {"coma_gamma": INF}, {}, "coma_gamma must be finite, got inf"),
    ("aci", {"aci_lr": NAN}, {}, "aci_lr must be finite, got nan"),
    ("mocp", {"alpha_init": NAN}, {}, "alpha_init must be finite, got nan"),
    ("mocp", {"xi": NAN}, {}, "xi must be finite, got nan"),
    ("mocp", {}, {"noise_scale": NAN}, "noise_scale must be finite, got nan"),
    ("mocp", {}, {"temperature": INF}, "temperature must be finite, got inf"),
], ids=["eta", "epsilon", "coma_gamma", "aci_lr", "alpha_init", "xi", "noise_scale",
        "temperature"])
def test_a_non_finite_setting_fails_before_the_results_file_is_opened(tmp_path, policy,
                                                                      params, stream,
                                                                      message):
    """``json`` reads NaN and Infinity, which would give a silent NaN or a late crash."""
    doc = tiny_doc(policy=policy, policy_params=params)
    doc["stream"]["profiles"] = [{"quality": "high", **stream}, "low"]
    with pytest.raises(ValueError, match=message):
        main(["run", "--config", str(write_config(tmp_path, doc))])
    assert not (tmp_path / "results.csv").exists()


def test_negative_seed_fails_before_the_results_file_is_opened(tmp_path):
    cfg = parse_config(tiny_doc(), base_dir=str(tmp_path))
    run_experiment(cfg)
    before = (tmp_path / "results.csv").read_bytes()
    with pytest.raises(ValueError, match="seeds must be non-negative"):
        parse_config(tiny_doc(seeds=[2, -1]), base_dir=str(tmp_path))
    with pytest.raises(ValueError, match="non-negative"):
        run_experiment(replace(cfg, seeds=(-1,)))
    assert (tmp_path / "results.csv").read_bytes() == before


def test_repeated_seed_fails_before_the_results_file_is_opened(tmp_path):
    """A repeated seed would be written twice and averaged twice in the summary."""
    with pytest.raises(ValueError, match="seed 0 appears more than once"):
        parse_config(tiny_doc(seeds=[0, 1, 0]), base_dir=str(tmp_path))
    cfg = parse_config(tiny_doc(seeds=[0]), base_dir=str(tmp_path))
    with pytest.raises(ValueError, match="seed 0 appears more than once"):
        run_experiment(replace(cfg, seeds=(0, 0)))
    assert not (tmp_path / "results.csv").exists()


def test_gen_stream_rejects_a_label_count_below_one(tmp_path):
    with pytest.raises(ValueError, match="n_labels must be >= 1, got 0"):
        main(["gen-stream", "--config", str(write_config(tmp_path, {"n_labels": 0})),
              "--out", str(tmp_path / "s.csv")])
    assert not (tmp_path / "s.csv").exists()


@pytest.mark.parametrize("policy", ["gmocp", "egmocp"])
def test_missing_graph_fails_before_the_results_file_is_opened(tmp_path, policy):
    """A config built in code can leave out the graph, which JSON configs always set."""
    cfg = parse_config(tiny_doc(policy=policy), base_dir=str(tmp_path))
    run_experiment(cfg)
    before = (tmp_path / "results.csv").read_bytes()
    with pytest.raises(ValueError, match="requires graph parameters"):
        run_experiment(replace(cfg, policy_params=replace(cfg.policy_params, graph=None)))
    assert (tmp_path / "results.csv").read_bytes() == before


def test_config_id_ignores_how_a_number_is_written():
    ids = {parse_config({"policy_params": {"alpha_init": a, "epsilon": e}}).config_id()
           for a, e in ((0, 1), (0.0, 1.0))}
    assert len(ids) == 1


def test_config_id_ignores_seeds_output_and_alpha_bar_tracking():
    base = parse_config(tiny_doc()).config_id()
    assert parse_config(tiny_doc(seeds=[5, 6], output="other")).config_id() == base
    tracked = tiny_doc(policy_params={"N": 2, "J": 1, "track_alpha_bar": True})
    assert parse_config(tracked).config_id() == base


def test_config_id_hashes_the_stream_version_of_synthetic_streams(tmp_path, monkeypatch):
    """Rows made by streams drawn another way never resume or summarize with these;
    a stream file's values do not depend on the version, so neither does its id."""
    (tmp_path / "s.csv").write_text("t,true_label,severity,model_id,p_0,p_1\n"
                                    "1,0,0,0,0.5,0.5\n")
    synthetic = parse_config(tiny_doc())
    from_file = parse_config({"policy": "mocp", "stream": {"file": "s.csv"}},
                             base_dir=str(tmp_path))
    ids = synthetic.config_id(), from_file.config_id()
    monkeypatch.setattr(streams, "STREAM_VERSION", streams.STREAM_VERSION + 1)
    assert synthetic.config_id() != ids[0]
    assert from_file.config_id() == ids[1]


def test_config_id_of_a_stream_file_does_not_depend_on_the_config_directory(tmp_path):
    """One stream file reached as ``../s.csv`` from two sibling directories has one id."""
    (tmp_path / "s.csv").write_text("t,true_label,severity,model_id,p_0,p_1\n"
                                    "1,0,0,0,0.5,0.5\n")
    doc = {"policy": "mocp", "stream": {"file": "../s.csv"}}
    configs = []
    for name in ("a", "b"):
        (tmp_path / name).mkdir()
        configs.append(load_config(str(write_config(tmp_path / name, doc))))
    assert configs[0].stream_path == configs[1].stream_path == str((tmp_path / "s.csv").resolve())
    assert configs[0].config_id() == configs[1].config_id()


def test_stream_file_behind_a_symlinked_config_directory_is_the_one_the_os_opens(tmp_path):
    """``..`` after a symlinked directory leads out of the link's target, not its parent."""
    header = "t,true_label,severity,model_id,p_0,p_1\n"
    (tmp_path / "shared" / "configs").mkdir(parents=True)
    (tmp_path / "shared" / "s.csv").write_text(header + "1,0,0,0,0.5,0.5\n")
    (tmp_path / "s.csv").write_text(header + "1,0,0,0,0.5,0.5\n1,0,0,1,0.5,0.5\n")
    (tmp_path / "configs").symlink_to(tmp_path / "shared" / "configs")
    doc = {"policy": "mocp", "stream": {"file": "../s.csv"}}
    cfg = load_config(str(write_config(tmp_path / "configs", doc)))
    assert cfg.stream_path == str((tmp_path / "shared" / "s.csv").resolve())
    assert cfg.policy_params.n_models == 1


def test_width_cap_resume_runs_the_new_config(tmp_path):
    """width_cap sets width_under_k, so configs differing only in it resume apart."""
    def mocp(width_cap):
        doc = {"policy": "mocp", "stream": {"horizon": 300}, "seeds": [0],
               "width_cap": width_cap}
        return parse_config(doc, base_dir=str(tmp_path))

    first, second = mocp(40), mocp(2)
    assert first.config_id() != second.config_id()
    run_experiment(first)
    rerun = run_experiment(second, resume=True)
    assert [r.seed for r in rerun] == [0]
    assert rerun[0].width_under_k == 74.66666666666667
    summary = json.loads((tmp_path / "results_summary.json").read_text())
    assert summary[second.config_id()]["width_under_k"]["mean"] == 74.66666666666667


@pytest.mark.parametrize("width_cap", [0, -3])
def test_width_cap_below_one_is_rejected(width_cap):
    """No covering set is smaller than such a cap, so width_under_k would read 0."""
    with pytest.raises(ValueError, match="width_cap must be at least 1"):
        parse_config({"policy": "mocp", "width_cap": width_cap})


def test_parse_empty_stream_file_names_the_file(tmp_path):
    (tmp_path / "empty.csv").write_text("t,true_label,severity,model_id,p_0,p_1\n")
    with pytest.raises(StreamFormatError, match="empty.csv"):
        parse_config({"stream": {"file": "empty.csv"}}, base_dir=str(tmp_path))


def expected_policy(policy, n_models, n, j, track=False):
    """PolicyConfig of a document that sets only N, J and track_alpha_bar, as written out."""
    graph = GraphParams.uniform(j, n, 0.2) if policy in ("gmocp", "egmocp") else None
    return PolicyConfig(
        n_models=1 if policy == "aci" else n_models,
        score=ScoreParams(xi=0.1, k_reg=1, n_labels=20), graph=graph,
        target_alpha=0.1, eta=0.05, epsilon=0.5, beta=0.05 if policy == "egmocp" else 0.0,
        coma_gamma=0.01, aci_lr=0.05, alpha_init=None, shared_u=False, track_alpha_bar=track,
    )


def expected_stream(qualities, schedule, horizon):
    return StreamConfig(model_profiles=tuple(ModelProfile(q, 1.0, 1.0) for q in qualities),
                        n_labels=20, horizon=horizon, batch_size=500, schedule=schedule)


def test_parsed_settings_of_the_shipped_configs(tmp_path, monkeypatch):
    """The configs of the acceptance fixture and the benchmark keep their settings."""
    pool = ("high",) * 6 + ("medium", "low")
    for schedule in SCHEDULES:
        for policy, n, j in RUN_CONFIGS.values():
            for track in (False, True):
                cfg = experiment_config(policy, n, j, schedule, tmp_path, track=track)
                assert cfg.policy_params == expected_policy(policy, 8, n, j, track)
                assert cfg.stream == expected_stream(pool, schedule, 6000)

    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parent.parent / "perfbench"))
    import workloads
    # many-models generates its 2000-step stream in set-up; the configs need none of it
    monkeypatch.setattr(workloads, "generate_stream", lambda cfg, master_seed: repeat(None))
    shapes = {"paper-default": (pool, 6000), "many-models": (pool * 32, 2000),
              "long-horizon": (pool, 50_000)}
    for name, build in workloads.WORKLOADS.items():
        qualities, horizon = shapes[name]
        work_dir = tmp_path / name
        work_dir.mkdir()
        for op in build(str(work_dir), 0).ops:
            graph = re.search(r"N(\d+)J(\d+)$", op.label)
            n, j = (int(graph[1]), int(graph[2])) if graph else (None, None)
            schedule = op.label.split("-")[0] if name == "paper-default" else "gradual"
            assert op.cfg.policy_params == expected_policy(op.policy, len(qualities), n, j)
            assert op.cfg.stream == expected_stream(qualities, schedule, horizon)


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


# sha256 (first 16 hex digits) of the results CSV, summary JSON and trace CSV
# of each paper-default configuration: gradual, seed 0, T=1000
PINNED_OUTPUTS = {
    ("gmocp", 3, 1): ("9d628777d6fad75a", "a2b8aa3db6d1a67d", "05e36830ac1318aa"),
    ("gmocp", 5, 4): ("e4fbdc815d24d16e", "9b8fc713f53128e0", "7cda1c4e0af9474a"),
    ("egmocp", 3, 1): ("09ded75def07eacd", "adcd9509ffdba775", "023fd2464b7441a0"),
    ("egmocp", 5, 4): ("3dc47cb1b0a86592", "19fa7351c4ca0589", "b0dbe1a370e1b472"),
    ("mocp", None, None): ("0b1a56b4bf5c9b17", "047d2a5228cd0ddd", "acd60dd12d280da4"),
    ("coma", None, None): ("e8e37c00c388847d", "19aa4e8b343cdaf2", "601bcdfbeb877cca"),
    ("aci", None, None): ("be63f5934effc313", "e82ec8947a4c0d6b", "d340c9936c62ac01"),
}


@pytest.mark.parametrize("policy, n, j", list(PINNED_OUTPUTS))
def test_default_outputs_are_pinned(tmp_path, policy, n, j):
    """A change to any result of the default configurations shows here."""
    doc = {"policy": policy, "stream": {"schedule": "gradual", "horizon": 1000},
           "seeds": [0], "output": "out"}
    if n is not None:
        doc["policy_params"] = {"N": n, "J": j}
    run_experiment(parse_config(doc, base_dir=str(tmp_path)), trace=True)
    digests = tuple(hashlib.sha256((tmp_path / name).read_bytes()).hexdigest()[:16]
                    for name in ("out.csv", "out_summary.json", "out_trace_seed0.csv"))
    assert digests == PINNED_OUTPUTS[(policy, n, j)]


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
    cfg = parse_config(tiny_doc(policy="aci", policy_params={}))  # single-model, two in the stream
    _, metrics = run_seed(cfg, 1)
    assert metrics.n_steps == 100


def test_trace_output(tmp_path):
    cfg = parse_config(tiny_doc(), base_dir=str(tmp_path))
    run_experiment(cfg, trace=True)
    trace = tmp_path / "results_trace_seed1.csv"
    with open(trace, newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == 100
    assert set(rows[0]) == {"t", "chosen_model", "node", "set_size", "err"}


def test_run_seed_hands_each_step_record_to_on_step():
    cfg = parse_config(tiny_doc())
    seen = []
    row, metrics = run_seed(cfg, 1, on_step=seen.append)
    assert [r.t for r in seen] == list(range(1, 101))
    assert metrics == compute_metrics(seen, width_cap=cfg.width_cap)
    assert (row.coverage, row.avg_width) == (metrics.coverage, metrics.avg_width)


def test_run_seed_rejects_an_empty_stream():
    with pytest.raises(ValueError, match="no records"):
        run_seed(parse_config(tiny_doc()), 0, steps=[])


def test_malformed_stream_line_leaves_no_trace_and_no_row(tmp_path):
    """A seed that fails mid-stream writes neither its trace file nor its results row."""
    gen = write_config(tmp_path, tiny_doc(), "gen.json")
    stream_csv = tmp_path / "s.csv"
    assert main(["gen-stream", "--config", str(gen), "--out", str(stream_csv)]) == 0
    lines = stream_csv.read_text().splitlines(keepends=True)
    lines[101] = lines[101].replace(",", ",x", 1)  # t=51 of 100
    stream_csv.write_text("".join(lines))
    cfg = parse_config(tiny_doc(policy="mocp", policy_params={}, stream={"file": "s.csv"}),
                       base_dir=str(tmp_path))
    with pytest.raises(StreamFormatError, match="line 102"):
        run_experiment(cfg, trace=True)
    assert read_rows(str(tmp_path / "results.csv")) == []
    assert sorted(p.name for p in tmp_path.iterdir()) == ["gen.json", "results.csv", "s.csv"]


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


def test_sweep_rejects_per_node_eta_e_before_the_results_file_is_opened(tmp_path):
    """Each grid point gets one eta_e at every node, so differing entries cannot be kept."""
    cfg = parse_config(tiny_doc(policy_params={"N": 3, "J": 2, "eta_e": [0.05, 0.9]}),
                       base_dir=str(tmp_path))
    run_experiment(cfg)
    before = (tmp_path / "results.csv").read_bytes()
    with pytest.raises(ValueError, match="policy_params.eta_e"):
        run_sweep(cfg, [3], [2])
    assert (tmp_path / "results.csv").read_bytes() == before
    # equal entries are one coefficient, and the grid point is the config itself
    same = parse_config(tiny_doc(policy_params={"N": 3, "J": 2, "eta_e": [0.3, 0.3]}),
                        base_dir=str(tmp_path))
    assert list(run_sweep(same, [3], [2])) == [same.config_id()]


@pytest.mark.parametrize("grid, message", [
    (["N=3,3", "J=1"], r"sweep N values must be non-empty and distinct, got \[3, 3\]"),
    (["N=", "J=1"], r"sweep N values must be non-empty and distinct, got \[\]"),
    (["N=1", "J=2,1,2"], r"sweep J values must be non-empty and distinct, got \[2, 1, 2\]"),
])
def test_sweep_rejects_an_empty_or_repeated_grid_before_the_results_file_is_opened(
        tmp_path, grid, message):
    with pytest.raises(ValueError, match=message):
        main(["sweep", "--config", str(write_config(tmp_path, tiny_doc())), "--grid", *grid])
    assert not (tmp_path / "results.csv").exists()


def test_sweep_requires_graph_policy(tmp_path):
    cfg = parse_config(tiny_doc(policy="mocp", policy_params={}), base_dir=str(tmp_path))
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


def test_cli_sweep_rejects_a_grid_that_is_not_integers(tmp_path, capsys):
    path = write_config(tmp_path, tiny_doc())
    assert main(["sweep", "--config", str(path), "--grid", "N=x", "J=1"]) == 2
    assert "sweep grid 'N=x' is not a comma-separated list of integers" in capsys.readouterr().err
    assert not (tmp_path / "results.csv").exists()


def test_cli_oracle(capsys):
    assert main(["oracle", "quantile"]) == 0
    assert "oracle quantile" in capsys.readouterr().out


@pytest.mark.parametrize("doc", [
    {"policy": "mocp", "seeds": [0]},
    {"n_labels": 6, "horizon": 100, "profiles": ["high", "low"]},
])
def test_cli_gen_stream_reads_experiment_or_stream_documents(tmp_path, doc):
    path = write_config(tmp_path, doc)
    out = tmp_path / "stream.csv"
    assert main(["gen-stream", "--config", str(path), "--out", str(out)]) == 0
    expect = parse_config(doc).stream if "seeds" in doc else parse_stream_config(doc)
    steps = list(load_stream(out))
    assert len(steps) == expect.horizon
    assert (len(steps[0].probs), len(steps[0].probs[0])) == (expect.n_models, expect.n_labels)


def test_cli_gen_stream_rejects_unknown_keys(tmp_path):
    path = write_config(tmp_path, {"horizion": 100})
    with pytest.raises(ValueError, match="stream.horizion"):
        main(["gen-stream", "--config", str(path), "--out", str(tmp_path / "s.csv")])


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
