import csv
import json
import os
import subprocess
import sys

import numpy as np
import pytest

import ldslab as L
from ldslab.cli import main
from ldslab.io import (
    dumps_json,
    load_dataset,
    load_mixture,
    save_dataset,
    save_mixture,
)


def scalar_params(a, b=1.0, c=1.0, d=0.0):
    return L.LdsParams(a=[[a]], b=[[b]], c=[[c]], d=[[d]])


def read_csv(path):
    with open(path, newline="") as handle:
        return list(csv.DictReader(handle))


# ---------- serialization round trips ----------

def test_mixture_round_trip(tmp_path):
    rng = np.random.default_rng(0)
    mix = L.random_mixture(2, (2, 3, 2), rng)
    path = tmp_path / "mix.json"
    save_mixture(path, mix)
    back = load_mixture(path)
    assert np.array_equal(back.weights, mix.weights)
    for a, b in zip(back.components, mix.components):
        for name in ("a", "b", "c", "d"):
            assert np.array_equal(getattr(a, name), getattr(b, name))


def test_dataset_round_trip(tmp_path):
    rng = np.random.default_rng(1)
    mix = L.random_mixture(2, (2, 2, 2), rng)
    ds = L.sample_mixture_dataset(mix, 10_000, 18, L.NoiseConfig(seed=2))
    path = tmp_path / "ds.jsonl"
    save_dataset(path, ds)
    back = load_dataset(path)
    assert len(back) == len(ds)
    for a, b in zip(back, ds):
        assert a.label == b.label
        assert np.array_equal(a.u, b.u)
        assert np.array_equal(a.y, b.y)


def test_unlabelled_round_trip(tmp_path):
    traj = L.Trajectory(u=[[0.25], [1.0]], y=[[0.5], [-2.0]], label=None)
    path = tmp_path / "ds.jsonl"
    save_dataset(path, L.Dataset.from_trajectories([traj]))
    back = load_dataset(path)
    assert back[0].label is None


def _learn_exit_and_error(tmp_path, capsys, path):
    code = main(["learn", "--data", str(path), "--k", "1", "--n", "1", "--s", "2",
                 "--seed", "1", "--out", str(tmp_path / "m.json")])
    return code, capsys.readouterr().err


def test_learn_rejects_file_with_unequal_lengths(tmp_path, capsys):
    mix = L.MixtureSpec(components=(scalar_params(0.5, d=1.0),), weights=[1.0])
    save_dataset(tmp_path / "a.jsonl", L.sample_mixture_dataset(mix, 3, 18, L.NoiseConfig(seed=1)))
    save_dataset(tmp_path / "b.jsonl", L.sample_mixture_dataset(mix, 2, 17, L.NoiseConfig(seed=2)))
    ragged = tmp_path / "ragged.jsonl"
    ragged.write_text((tmp_path / "a.jsonl").read_text() + (tmp_path / "b.jsonl").read_text())
    code, err = _learn_exit_and_error(tmp_path, capsys, ragged)
    assert code == 3
    assert f"{ragged}:4:" in err and "same length" in err


def test_learn_rejects_file_mixing_labelled_and_unlabelled_lines(tmp_path, capsys):
    mix = L.MixtureSpec(components=(scalar_params(0.5, d=1.0),), weights=[1.0])
    ds = L.sample_mixture_dataset(mix, 4, 18, L.NoiseConfig(seed=1))
    save_dataset(tmp_path / "a.jsonl", ds[:2])
    save_dataset(tmp_path / "b.jsonl", L.Dataset(u=ds.u[2:], y=ds.y[2:]))
    mixed = tmp_path / "mixed.jsonl"
    mixed.write_text((tmp_path / "a.jsonl").read_text() + (tmp_path / "b.jsonl").read_text())
    code, err = _learn_exit_and_error(tmp_path, capsys, mixed)
    assert code == 3
    assert f"{mixed}:3:" in err and "every line or on none" in err


def test_float_precision_17_digits():
    text = dumps_json({"x": 0.1 + 0.2})
    assert json.loads(text)["x"] == 0.1 + 0.2
    assert "0.30000000000000004" in text


# ---------- subcommands ----------

def test_generate_learn_evaluate_cluster_flow(tmp_path, capsys):
    mix = L.MixtureSpec(
        components=(scalar_params(0.9, d=1.0), scalar_params(-0.9, d=-1.0)),
        weights=[0.5, 0.5],
    )
    truth = tmp_path / "truth.json"
    save_mixture(truth, mix)
    ds_path = tmp_path / "ds.jsonl"
    code = main([
        "generate", "--model", str(truth), "--n-traj", "4000", "--length", "18",
        "--seed", "5", "--out", str(ds_path), "--truth-out", str(tmp_path / "truth2.json"),
    ])
    assert code == 0
    assert load_mixture(tmp_path / "truth2.json").k == 2

    model = tmp_path / "model.json"
    code = main([
        "learn", "--data", str(ds_path), "--k", "2", "--n", "1", "--s", "2",
        "--seed", "6", "--out", str(model),
    ])
    assert code == 0
    manifest = json.loads((tmp_path / "model.json.manifest.json").read_text())
    assert manifest["seed"] == 6
    assert manifest["config"]["k"] == 2
    assert "learn" in manifest["wall_time_s"]

    code = main([
        "evaluate", "--truth", str(truth), "--learned", str(model),
        "--s", "2", "--out", str(tmp_path / "eval"),
    ])
    assert code == 0
    rows = read_csv(tmp_path / "eval.csv")
    assert len(rows) == 2
    assert {"a_err", "b_err", "c_err", "d_err", "w_err"} <= set(rows[0])

    code = main([
        "cluster", "--model", str(truth), "--data", str(ds_path),
        "--out", str(tmp_path / "post"),
    ])
    assert code == 0
    out = capsys.readouterr().out
    assert "clustering accuracy" in out
    rows = read_csv(tmp_path / "post.csv")
    assert len(rows) == 4000
    assert "correct" in rows[0]


def test_evaluate_truth_against_itself(tmp_path):
    rng = np.random.default_rng(7)
    mix = L.random_mixture(2, (2, 2, 2), rng)
    truth = tmp_path / "truth.json"
    save_mixture(truth, mix)
    code = main([
        "evaluate", "--truth", str(truth), "--learned", str(truth),
        "--s", "2", "--out", str(tmp_path / "eval"),
    ])
    assert code == 0
    rows = read_csv(tmp_path / "eval.csv")
    for row in rows:
        for key in ("a_err", "b_err", "c_err", "d_err", "w_err"):
            assert float(row[key]) <= 1e-10


def test_cluster_identical_components_and_unlabelled(tmp_path, capsys):
    params = scalar_params(0.5, d=1.0)
    mix = L.MixtureSpec(components=(params, params), weights=[0.3, 0.7])
    model = tmp_path / "model.json"
    save_mixture(model, mix)
    labelled = L.sample_mixture_dataset(mix, 10, 6, L.NoiseConfig(seed=8))
    ds = L.Dataset(u=labelled.u, y=labelled.y)
    ds_path = tmp_path / "ds.jsonl"
    save_dataset(ds_path, ds)
    code = main(["cluster", "--model", str(model), "--data", str(ds_path),
                 "--out", str(tmp_path / "post")])
    assert code == 0
    assert "unlabelled" in capsys.readouterr().out
    rows = read_csv(tmp_path / "post.csv")
    assert "correct" not in rows[0] and "label" not in rows[0]
    for row in rows:
        assert float(row["p_0"]) == pytest.approx(0.3, abs=1e-9)
        assert float(row["p_1"]) == pytest.approx(0.7, abs=1e-9)


def test_validate_command(tmp_path, capsys):
    params = scalar_params(0.5, b=1.0, c=1.0, d=1.0)
    mix = L.MixtureSpec(components=(params, params), weights=[0.5, 0.5])
    model = tmp_path / "model.json"
    save_mixture(model, mix)
    code = main([
        "validate", "--model", str(model), "--s", "2", "--kappa", "10",
        "--w-min", "0.1", "--gamma", "0.1", "--out", str(tmp_path / "wb.json"),
    ])
    assert code == 0
    out = capsys.readouterr().out
    assert "FAIL joint_nondegeneracy" in out
    payload = json.loads((tmp_path / "wb.json").read_text())
    assert payload["gamma"] <= 1e-12
    assert payload["ok"] is False


def test_sweep_single_point_matches_learn_evaluate(tmp_path):
    mix = L.MixtureSpec(
        components=(scalar_params(0.9, d=1.0), scalar_params(-0.9, d=-1.0)),
        weights=[0.5, 0.5],
    )
    truth = tmp_path / "truth.json"
    save_mixture(truth, mix)
    seed = 11
    code = main([
        "sweep", "--truth", str(truth), "--k", "2", "--n", "1", "--s", "2",
        "--length", "18", "--seed", str(seed), "--n-grid", "3000",
        "--out", str(tmp_path / "sweep"),
    ])
    assert code == 0
    sweep_rows = read_csv(tmp_path / "sweep.csv")
    assert len(sweep_rows) == 1

    ds_path = tmp_path / "ds.jsonl"
    main(["generate", "--model", str(truth), "--n-traj", "3000", "--length", "18",
          "--seed", str(seed), "--out", str(ds_path),
          "--truth-out", str(tmp_path / "t2.json")])
    model = tmp_path / "model.json"
    main(["learn", "--data", str(ds_path), "--k", "2", "--n", "1", "--s", "2",
          "--seed", str(seed), "--out", str(model)])
    main(["evaluate", "--truth", str(truth), "--learned", str(model), "--s", "2",
          "--out", str(tmp_path / "eval")])
    eval_rows = read_csv(tmp_path / "eval.csv")
    max_w = max(float(r["w_err"]) for r in eval_rows)
    assert float(sweep_rows[0]["weight_error_max"]) == pytest.approx(max_w, rel=1e-12)


def test_config_file_overrides_flags(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"n_traj": 5, "length": 7}))
    out = tmp_path / "ds.jsonl"
    code = main([
        "generate", "--k", "1", "--m", "1", "--n", "1", "--p", "1",
        "--n-traj", "999", "--length", "3", "--seed", "1",
        "--config", str(cfg), "--out", str(out),
        "--truth-out", str(tmp_path / "t.json"),
    ])
    assert code == 0
    ds = load_dataset(out)
    assert len(ds) == 5 and len(ds[0]) == 7


def test_exit_codes(tmp_path):
    # missing file -> data error 3
    assert main(["learn", "--data", str(tmp_path / "nope.jsonl"), "--k", "1",
                 "--n", "1", "--s", "2", "--out", str(tmp_path / "m.json")]) == 3
    # bad config key -> usage error 2
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"frobnicate": 1}))
    assert main(["generate", "--config", str(cfg), "--out", "x",
                 "--truth-out", "y", "--n-traj", "1", "--length", "1"]) == 2
    # k exceeding the tensor capacity -> data error 3
    mix = L.MixtureSpec(components=(scalar_params(0.5, d=1.0),), weights=[1.0])
    ds_path = tmp_path / "ds.jsonl"
    save_dataset(ds_path, L.sample_mixture_dataset(mix, 50, 18, L.NoiseConfig(seed=1)))
    assert main(["learn", "--data", str(ds_path), "--k", "6", "--n", "1", "--s", "2",
                 "--seed", "1", "--out", str(tmp_path / "m.json")]) == 3
    # short trajectories -> data error 3
    short = tmp_path / "short.jsonl"
    save_dataset(short, L.sample_mixture_dataset(mix, 5, 6, L.NoiseConfig(seed=1)))
    assert main(["learn", "--data", str(short), "--k", "1", "--n", "1", "--s", "2",
                 "--seed", "1", "--out", str(tmp_path / "m.json")]) == 3


def test_evaluate_reports_injected_perturbation(tmp_path):
    rng = np.random.default_rng(20)
    mix = L.random_mixture(2, (2, 2, 2), rng)
    delta = 1e-3 * rng.standard_normal((2, 2))
    bumped = L.MixtureSpec(
        components=(
            L.LdsParams(a=mix.components[0].a, b=mix.components[0].b,
                        c=mix.components[0].c, d=mix.components[0].d + delta),
            mix.components[1],
        ),
        weights=mix.weights,
    )
    truth, learned = tmp_path / "truth.json", tmp_path / "bumped.json"
    save_mixture(truth, mix)
    save_mixture(learned, bumped)
    assert main(["evaluate", "--truth", str(truth), "--learned", str(learned),
                 "--s", "2", "--out", str(tmp_path / "eval")]) == 0
    rows = read_csv(tmp_path / "eval.csv")
    d_errs = sorted(float(r["d_err"]) for r in rows)
    assert d_errs[0] <= 1e-8
    assert d_errs[1] == pytest.approx(np.linalg.norm(delta, "fro"), abs=1e-8)


def test_evaluate_reports_component_swap(tmp_path):
    rng = np.random.default_rng(21)
    mix = L.random_mixture(2, (2, 2, 2), rng, weights=[0.3, 0.7], min_gamma=0.3, s=2)
    swapped = L.MixtureSpec(
        components=(mix.components[1], mix.components[0]),
        weights=[mix.weights[1], mix.weights[0]],
    )
    truth, learned = tmp_path / "truth.json", tmp_path / "swapped.json"
    save_mixture(truth, mix)
    save_mixture(learned, swapped)
    assert main(["evaluate", "--truth", str(truth), "--learned", str(learned),
                 "--s", "2", "--out", str(tmp_path / "eval")]) == 0
    rows = read_csv(tmp_path / "eval.csv")
    assert [r["truth_index"] for r in rows] == ["1", "0"]
    assert all(float(r["w_err"]) <= 1e-12 for r in rows)


def test_cluster_separated_mixture_accuracy(tmp_path):
    mix = L.MixtureSpec(
        components=(scalar_params(0.9, d=1.0), scalar_params(-0.9, d=-1.0)),
        weights=[0.5, 0.5],
    )
    model = tmp_path / "model.json"
    save_mixture(model, mix)
    ds_path = tmp_path / "ds.jsonl"
    save_dataset(ds_path, L.sample_mixture_dataset(mix, 1000, 18, L.NoiseConfig(seed=30)))
    assert main(["cluster", "--model", str(model), "--data", str(ds_path),
                 "--out", str(tmp_path / "post")]) == 0
    rows = read_csv(tmp_path / "post.csv")
    accuracy = np.mean([row["correct"] == "True" for row in rows])
    assert accuracy >= 0.99


def test_sweep_errors_decrease_on_average(tmp_path):
    mix = L.MixtureSpec(
        components=(scalar_params(0.9, d=1.0), scalar_params(-0.9, d=-1.0)),
        weights=[0.5, 0.5],
    )
    truth = tmp_path / "truth.json"
    save_mixture(truth, mix)
    small, large = [], []
    for seed in range(5):
        out = tmp_path / f"sweep_{seed}"
        assert main(["sweep", "--truth", str(truth), "--k", "2", "--n", "1",
                     "--s", "2", "--length", "18", "--seed", str(40 + seed),
                     "--n-grid", "3000,30000", "--out", str(out)]) == 0
        rows = read_csv(str(out) + ".csv")
        by_n = {int(r["n_traj"]): float(r["max_param_error"]) for r in rows}
        small.append(by_n[3000])
        large.append(by_n[30000])
    assert np.mean(large) < np.mean(small)


def test_sweep_usage_errors(tmp_path):
    truth = tmp_path / "truth.json"
    save_mixture(truth, L.MixtureSpec(components=(scalar_params(0.5, d=1.0),), weights=[1.0]))
    # empty grid
    assert main(["sweep", "--truth", str(truth), "--k", "1", "--n", "1", "--s", "2",
                 "--length", "18", "--n-grid", "", "--out", str(tmp_path / "s")]) == 2
    # length below the learn-mode minimum
    assert main(["sweep", "--truth", str(truth), "--k", "1", "--n", "1", "--s", "2",
                 "--length", "12", "--n-grid", "100", "--out", str(tmp_path / "s")]) == 2
    # missing output path on generate
    assert main(["generate", "--model", str(truth), "--n-traj", "1",
                 "--length", "1", "--truth-out", str(tmp_path / "t.json")]) == 2


def test_minimum_trajectory_length_is_one_rule(tmp_path, capsys):
    """At s=2 the estimators need length 6s+3 = 15: learn accepts it, and
    learn (data error) and sweep (usage error) reject 14 with one message."""
    truth = tmp_path / "truth.json"
    save_mixture(truth, L.MixtureSpec(components=(scalar_params(0.5, d=1.0),), weights=[1.0]))
    for length in (15, 14):
        assert main(["generate", "--model", str(truth), "--n-traj", "500",
                     "--length", str(length), "--seed", "1",
                     "--out", str(tmp_path / f"ds{length}.jsonl"),
                     "--truth-out", str(tmp_path / "t.json")]) == 0
    learn = ["learn", "--k", "1", "--n", "1", "--s", "2", "--out", str(tmp_path / "m.json")]
    assert main(learn + ["--data", str(tmp_path / "ds15.jsonl")]) == 0
    capsys.readouterr()
    message = "trajectories of length 14 are too short; need length >= 15"
    assert main(learn + ["--data", str(tmp_path / "ds14.jsonl")]) == 3
    assert message in capsys.readouterr().err
    assert main(["sweep", "--truth", str(truth), "--k", "1", "--n", "1", "--s", "2",
                 "--length", "14", "--n-grid", "100", "--out", str(tmp_path / "s")]) == 2
    assert message in capsys.readouterr().err


def test_error_line_is_machine_parseable(tmp_path):
    result = subprocess.run(
        [sys.executable, "-m", "ldslab.cli", "learn", "--data",
         str(tmp_path / "nope.jsonl"), "--k", "1", "--n", "1", "--s", "2",
         "--out", str(tmp_path / "m.json")],
        capture_output=True, text=True,
    )
    assert result.returncode == 3
    last = result.stderr.strip().splitlines()[-1]
    assert last.startswith("LDSLAB_ERROR code=3 kind=data message=")


def test_learn_reproducible_across_thread_settings(tmp_path):
    mix = L.MixtureSpec(
        components=(scalar_params(0.9, d=1.0), scalar_params(-0.9, d=-1.0)),
        weights=[0.5, 0.5],
    )
    truth = tmp_path / "truth.json"
    save_mixture(truth, mix)
    ds_path = tmp_path / "ds.jsonl"
    main(["generate", "--model", str(truth), "--n-traj", "2000", "--length", "18",
          "--seed", "3", "--out", str(ds_path), "--truth-out", str(tmp_path / "t.json")])
    outputs = []
    for threads in ("1", "4"):
        model = tmp_path / f"model_{threads}.json"
        env = dict(os.environ, LDSLAB_THREADS=threads)
        result = subprocess.run(
            [sys.executable, "-m", "ldslab.cli", "learn", "--data", str(ds_path),
             "--k", "2", "--n", "1", "--s", "2", "--seed", "9", "--out", str(model)],
            capture_output=True, text=True, env=env,
        )
        assert result.returncode == 0, result.stderr
        outputs.append(model.read_bytes())
    assert outputs[0] == outputs[1]
