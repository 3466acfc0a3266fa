import csv
import dataclasses
import json
import subprocess
import sys
import tracemalloc

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

import ldslab as L
import oracles
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
    mix = dataclasses.replace(L.random_mixture(2, (2, 3, 2), rng), noise_scale=0.3)
    path = tmp_path / "mix.json"
    save_mixture(path, mix)
    back = load_mixture(path)
    assert np.array_equal(back.weights, mix.weights) and back.noise_scale == 0.3
    for a, b in zip(back.components, mix.components):
        for name in ("a", "b", "c", "d"):
            assert np.array_equal(getattr(a, name), getattr(b, name))
    # a file without the field (written before it existed) has unit noise
    raw = json.loads(path.read_text())
    del raw["noise_scale"]
    path.write_text(json.dumps(raw))
    assert load_mixture(path).noise_scale == 1.0


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
    save_dataset(path, L.Dataset(u=traj.u[None], y=traj.y[None]))
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


def test_load_dataset_accepts_only_integer_labels(tmp_path, capsys):
    """A label must be a JSON integer: 1.7 or true on a line is a data error
    naming that line, not the label 1."""
    mix = L.MixtureSpec(components=(scalar_params(0.5, d=1.0),), weights=[1.0])
    save_dataset(tmp_path / "ok.jsonl", L.sample_mixture_dataset(mix, 2, 18, L.NoiseConfig(seed=1)))
    first, second = (tmp_path / "ok.jsonl").read_text().splitlines()
    for bad in (1.7, True, "1"):
        raw = json.loads(second)
        raw["label"] = bad
        path = tmp_path / "bad.jsonl"
        path.write_text(first + "\n" + json.dumps(raw) + "\n")
        with pytest.raises(L.DataError, match=f"{path}:2: label"):
            load_dataset(path)
        code, err = _learn_exit_and_error(tmp_path, capsys, path)
        assert code == 3 and f"{path}:2:" in err


@given(
    shape=st.tuples(st.integers(1, 4), st.integers(1, 5), st.integers(1, 3), st.integers(1, 3)),
    labelled=st.booleans(),
    data=st.data(),
)
def test_dataset_file_round_trip_is_exact(tmp_path_factory, shape, labelled, data):
    """save_dataset then load_dataset gives back every value and label
    bit for bit, over the whole range of finite doubles."""
    n_traj, length, p, m = shape
    doubles = st.floats(allow_nan=False, allow_infinity=False)
    u = data.draw(arrays(np.float64, (n_traj, length, p), elements=doubles))
    y = data.draw(arrays(np.float64, (n_traj, length, m), elements=doubles))
    labels = (data.draw(arrays(np.int64, n_traj, elements=st.integers(-2**63, 2**63 - 1)))
              if labelled else None)
    path = tmp_path_factory.mktemp("jsonl") / "ds.jsonl"
    save_dataset(path, L.Dataset(u=u, y=y, labels=labels))
    back = load_dataset(path)
    # bytes, not values: -0.0 == 0.0, but the sign of zero must survive too
    assert back.u.tobytes() == u.tobytes() and back.y.tobytes() == y.tobytes()
    assert back.labels is None if labels is None else np.array_equal(back.labels, labels)


def test_save_dataset_holds_one_batch_of_text(tmp_path, benchmark_mixture):
    """Writing 3000 trajectories (three batches, the last partial) holds one
    batch's floats and text at a time: the traced peak (about 4.5 MB) stays
    under 8 MB, where formatting all 3000 at once takes about 13 MB."""
    ds = L.sample_mixture_dataset(benchmark_mixture, 3000, 18, L.NoiseConfig(seed=5))
    path = tmp_path / "ds.jsonl"
    tracemalloc.start()
    try:
        save_dataset(path, ds)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8 * 2**20
    assert len(path.read_text().splitlines()) == 3000


def test_learned_model_file_round_trip(tmp_path):
    """A learned mixture is a MixtureSpec; its model file loads back with
    bit-identical weights and matrices."""
    mix = L.MixtureSpec(
        components=(scalar_params(0.9, d=1.0), scalar_params(-0.9, d=-1.0)),
        weights=[0.4, 0.6],
    )
    ds = L.sample_mixture_dataset(mix, 5000, 18, L.NoiseConfig(seed=2))
    learned = L.learn_mixture(ds, 2, 1, 2, np.random.default_rng(3))
    assert isinstance(learned, L.MixtureSpec) and learned.noise_scale == 1.0
    assert {"tensor_residual", "tensor_norm", "clamped", "raw_weight_sum"} <= set(learned.diagnostics)
    path = tmp_path / "model.json"
    save_mixture(path, learned)
    back = load_mixture(path)
    assert np.array_equal(back.weights, learned.weights) and back.noise_scale == 1.0
    for a, b in zip(back.components, learned.components):
        for name in ("a", "b", "c", "d"):
            assert np.array_equal(getattr(a, name), getattr(b, name))


def test_load_mixture_rejects_wrong_sizes_and_bad_json(tmp_path, capsys):
    mix = L.MixtureSpec(components=(scalar_params(0.5), scalar_params(-0.5)), weights=[0.5, 0.5])
    path = tmp_path / "mix.json"
    save_mixture(path, mix)
    raw = json.loads(path.read_text())
    for key, wrong in (("k", 5), ("n", 3)):
        path.write_text(json.dumps({**raw, key: wrong}))
        with pytest.raises(L.DataError, match="declares"):
            load_mixture(path)
    assert main(["evaluate", "--truth", str(path), "--learned", str(path),
                 "--s", "2", "--out", str(tmp_path / "eval")]) == 3
    assert "LDSLAB_ERROR code=3 kind=data" in capsys.readouterr().err
    path.write_text(path.read_text()[:-3])  # truncated: not JSON
    assert main(["evaluate", "--truth", str(path), "--learned", str(path),
                 "--s", "2", "--out", str(tmp_path / "eval")]) == 3
    assert "malformed mixture file" in capsys.readouterr().err


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


def test_config_values_go_through_the_flag_types(tmp_path, capsys):
    """A config value is converted like the flag's text: "5" is the int 5; a
    value the flag's type rejects, or a non-bool for a store_true flag, is a
    usage error (exit 2) with the structured error line."""
    def generate(config):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(config))
        return main(["generate", "--k", "1", "--m", "1", "--n", "1", "--p", "1", "--seed", "1",
                     "--config", str(cfg), "--out", str(tmp_path / "ds.jsonl"),
                     "--truth-out", str(tmp_path / "t.json"),
                     "--manifest", str(tmp_path / "manifest.json")])

    assert generate({"n_traj": "5", "length": 7, "noise_scale": "0.5"}) == 0
    assert len(load_dataset(tmp_path / "ds.jsonl")) == 5
    assert load_mixture(tmp_path / "t.json").noise_scale == 0.5
    assert json.loads((tmp_path / "manifest.json").read_text())["config"]["n_traj"] == 5
    for bad in ({"n_traj": "five", "length": 7}, {"n_traj": 5.5, "length": 7},
                {"n_traj": True, "length": 7}, {"n_traj": None, "length": 7},
                {"n_traj": 5, "length": 7, "noise_scale": -1},
                {"n_traj": 5, "length": 7, "min_gamma": "nan"}):
        capsys.readouterr()
        assert generate(bad) == 2, bad
        assert "LDSLAB_ERROR code=2 kind=usage" in capsys.readouterr().err
    cfg = tmp_path / "strict.json"
    cfg.write_text(json.dumps({"strict": "yes"}))
    assert main(["validate", "--model", str(tmp_path / "t.json"), "--s", "1", "--kappa", "10",
                 "--w-min", "0.1", "--gamma", "0", "--config", str(cfg)]) == 2
    assert "'strict' needs true or false" in capsys.readouterr().err

    # required flags may come from the config alone
    cfg.write_text(json.dumps({"model": str(tmp_path / "t.json"), "s": 1, "kappa": 10,
                               "w_min": 0.1, "gamma": 1e9}))
    assert main(["validate", "--strict", "--config", str(cfg)]) == 4  # gamma fails
    # a config false switches off --strict given on the command line
    cfg.write_text(json.dumps({"model": str(tmp_path / "t.json"), "s": 1, "kappa": 10,
                               "w_min": 0.1, "gamma": 1e9, "strict": False}))
    assert main(["validate", "--strict", "--config", str(cfg)]) == 0
    # a key must name a flag exactly: no abbreviation of --n-traj
    capsys.readouterr()
    assert generate({"n_tr": 5, "length": 7}) == 2
    assert "unknown key 'n_tr'" in capsys.readouterr().err


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


def test_reports_write_infinite_values(tmp_path, capsys):
    """A component with C = 0 has an infinite observability ratio and an
    infinite transform condition number.  validate --out and evaluate still
    write their reports: the JSON holds null (strict JSON), the CSV inf."""
    def strict_json(path):
        return json.loads(path.read_text(), parse_constant=lambda c: pytest.fail(c))

    good, zero_c = scalar_params(0.5, d=1.0), scalar_params(0.5, c=0.0, d=1.0)
    truth, learned = tmp_path / "truth.json", tmp_path / "zero_c.json"
    save_mixture(truth, L.MixtureSpec(components=(good, scalar_params(-0.5, d=-1.0)),
                                      weights=[0.5, 0.5]))
    save_mixture(learned, L.MixtureSpec(components=(zero_c, scalar_params(-0.5, d=-1.0)),
                                        weights=[0.5, 0.5]))
    assert main(["validate", "--model", str(learned), "--s", "2", "--kappa", "10",
                 "--w-min", "0.1", "--gamma", "0.1", "--out", str(tmp_path / "v.json")]) == 0
    assert "FAIL observability" in capsys.readouterr().out
    assert strict_json(tmp_path / "v.json")["obs_ratio"][0] is None

    assert main(["evaluate", "--truth", str(truth), "--learned", str(learned),
                 "--s", "2", "--out", str(tmp_path / "eval")]) == 0
    rows = read_csv(tmp_path / "eval.csv")
    assert rows[0]["cond_u"] == "inf" and rows[0]["flagged"] == "True"
    assert strict_json(tmp_path / "eval.json")[0]["cond_u"] is None


def test_evaluate_rejects_a_model_of_other_dimensions(tmp_path, capsys, benchmark_mixture):
    """A learned model whose n or m differs from the truth's cannot be aligned
    to it: evaluate exits 3 with the structured line naming both dims, where
    it used to end in a numpy traceback."""
    truth = tmp_path / "truth.json"
    save_mixture(truth, benchmark_mixture)  # (m, n, p) = (2, 2, 2)
    for dims in ((2, 3, 2), (3, 2, 2)):
        learned = tmp_path / "other.json"
        save_mixture(learned, L.random_mixture(2, dims, np.random.default_rng(0)))
        assert main(["evaluate", "--truth", str(truth), "--learned", str(learned),
                     "--s", "2", "--out", str(tmp_path / "eval")]) == 3
        last = capsys.readouterr().err.strip().splitlines()[-1]
        assert last.startswith("LDSLAB_ERROR code=3 kind=data")
        assert f"(2, 2, 2) vs {dims}" in last


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


def test_cluster_accuracy_ignores_the_model_component_order(tmp_path, capsys):
    """Components are matched to label values before scoring, so listing the
    model's components in the other order gives the same accuracy and the
    same correct column."""
    mix = L.MixtureSpec(
        components=(scalar_params(0.9, d=1.0), scalar_params(-0.9, d=-1.0)),
        weights=[0.4, 0.6],
    )
    swapped = L.MixtureSpec(components=mix.components[::-1], weights=mix.weights[::-1])
    ds_path = tmp_path / "ds.jsonl"
    save_dataset(ds_path, L.sample_mixture_dataset(mix, 300, 18, L.NoiseConfig(seed=31)))
    results = []
    for name, model in (("model", mix), ("swapped", swapped)):
        save_mixture(tmp_path / f"{name}.json", model)
        capsys.readouterr()
        assert main(["cluster", "--model", str(tmp_path / f"{name}.json"), "--data", str(ds_path),
                     "--out", str(tmp_path / name)]) == 0
        accuracy = [ln for ln in capsys.readouterr().out.splitlines() if "clustering accuracy" in ln]
        rows = read_csv(tmp_path / f"{name}.csv")
        results.append((accuracy, [row["correct"] for row in rows]))
    assert results[0] == results[1]
    assert results[0][0] == ["clustering accuracy: 1.0000"]


def test_seed_and_tol_only_where_read(tmp_path, capsys):
    """--seed belongs to generate, learn and sweep; no mode takes --tol.  The
    flag on the command line and the same key in a config file are usage
    errors (exit 2) with the structured error line."""
    model = tmp_path / "model.json"
    save_mixture(model, L.MixtureSpec(components=(scalar_params(0.5),), weights=[1.0]))
    out = ["--out", str(tmp_path / "out")]
    for argv in (["evaluate", "--truth", str(model), "--learned", str(model), "--s", "1"],
                 ["cluster", "--model", str(model), "--data", "x"],
                 ["validate", "--model", str(model), "--s", "1", "--kappa", "10",
                  "--w-min", "0.1", "--gamma", "0"],
                 ["learn", "--data", "x", "--k", "1", "--n", "1", "--s", "2"]):
        flag = ["--tol", "1.0"] if argv[0] == "learn" else ["--seed", "1"]
        capsys.readouterr()
        assert main(argv + out + flag) == 2
        last = capsys.readouterr().err.strip().splitlines()[-1]
        assert last.startswith("LDSLAB_ERROR code=2 kind=usage") and flag[0] in last
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({flag[0][2:]: 1}))
        assert main(argv + out + ["--config", str(cfg)]) == 2
        assert "unknown key" in capsys.readouterr().err


@pytest.mark.parametrize("mode, change", [
    pytest.param("learn", ["--k", "abc"], id="bad-type"),
    pytest.param("learn", ["--bogus", "1"], id="unknown-flag"),
    pytest.param("learn", ["--out", None], id="missing-flag"),
    pytest.param("generate", ["--length", "0"], id="zero-length"),
    pytest.param("generate", ["--seed", "-1"], id="negative-seed-generate"),
    pytest.param("learn", ["--seed", "-1"], id="negative-seed-learn"),
    pytest.param("sweep", ["--seed", "-1"], id="negative-seed-sweep"),
    pytest.param("sweep", ["--n-grid", "5,0"], id="zero-grid-entry"),
    pytest.param("generate", ["--noise-scale", "-1"], id="negative-noise-scale-generate"),
    pytest.param("generate", ["--noise-scale", "nan"], id="nan-noise-scale"),
    pytest.param("generate", ["--noise-scale", "inf"], id="infinite-noise-scale"),
    pytest.param("generate", ["--min-gamma", "nan"], id="nan-min-gamma"),
    pytest.param("generate", ["--min-gamma", "-0.5"], id="negative-min-gamma"),
    pytest.param("sweep", ["--noise-scale", "-1"], id="negative-noise-scale-sweep"),
    pytest.param("validate", ["--kappa", "nan"], id="nan-kappa"),
    pytest.param("validate", ["--w-min", "-0.1"], id="negative-w-min"),
    pytest.param("validate", ["--gamma", "inf"], id="infinite-gamma"),
])
def test_every_usage_error_ends_in_the_structured_line(tmp_path, capsys, mode, change):
    """A bad type, an unknown flag, a missing required flag or an out-of-range
    count returns 2 with the structured line last on stderr, instead of
    argparse's SystemExit or an exception from numpy.  A float flag takes
    only a finite number >= 0."""
    truth = tmp_path / "truth.json"
    save_mixture(truth, L.MixtureSpec(components=(scalar_params(0.5, d=1.0),), weights=[1.0]))
    flags = {
        "generate": {"--model": truth, "--n-traj": 5, "--length": 18,
                     "--out": tmp_path / "ds.jsonl", "--truth-out": tmp_path / "t.json"},
        "learn": {"--data": tmp_path / "ds.jsonl", "--k": 1, "--n": 1, "--s": 2,
                  "--out": tmp_path / "m.json"},
        "sweep": {"--truth": truth, "--k": 1, "--n": 1, "--s": 2, "--length": 18,
                  "--n-grid": 100, "--out": tmp_path / "sweep"},
        "validate": {"--model": truth, "--s": 2, "--kappa": 10, "--w-min": 0.1,
                     "--gamma": 0, "--out": tmp_path / "report.json"},
    }[mode]
    flags[change[0]] = change[1]
    argv = [mode] + [str(x) for flag, value in flags.items() if value is not None
                     for x in (flag, value)]
    assert main(argv) == 2
    last = capsys.readouterr().err.strip().splitlines()[-1]
    assert last.startswith("LDSLAB_ERROR code=2 kind=usage message=")


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


def test_learn_reproducible_across_runs(tmp_path):
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
    for run in range(3):
        model = tmp_path / f"model_{run}.json"
        result = subprocess.run(
            [sys.executable, "-m", "ldslab.cli", "learn", "--data", str(ds_path),
             "--k", "2", "--n", "1", "--s", "2", "--seed", "9", "--out", str(model)],
            capture_output=True, text=True,
        )
        assert result.returncode == 0, result.stderr
        outputs.append(model.read_bytes())
    assert outputs[0] == outputs[1] == outputs[2]


def test_cluster_scores_at_the_truth_echo_noise_scale(tmp_path, capsys):
    """Data generated at --noise-scale 0.5 and clustered with the truth echo
    gets the posteriors of the 0.5-scaled density, not of unit noise."""
    mix = L.MixtureSpec(
        components=(scalar_params(0.5, d=0.5), scalar_params(0.2, d=0.8)),
        weights=[0.4, 0.6],
    )
    truth = tmp_path / "truth.json"
    save_mixture(truth, mix)
    ds_path, echo = tmp_path / "ds.jsonl", tmp_path / "echo.json"
    assert main(["generate", "--model", str(truth), "--n-traj", "30", "--length", "6",
                 "--seed", "11", "--noise-scale", "0.5", "--out", str(ds_path),
                 "--truth-out", str(echo)]) == 0
    assert load_mixture(echo).noise_scale == 0.5
    assert load_mixture(truth).noise_scale == 1.0
    assert main(["cluster", "--model", str(echo), "--data", str(ds_path),
                 "--out", str(tmp_path / "post")]) == 0
    rows = json.loads((tmp_path / "post.json").read_text())
    for row, traj in zip(rows, load_dataset(ds_path)):
        logliks = np.array([oracles.dense_log_likelihood(c, traj, 0.5) for c in mix.components])
        logpost = np.log(mix.weights) + logliks
        expected = np.exp(logpost - logpost.max())
        expected /= expected.sum()
        assert [row["p_0"], row["p_1"]] == pytest.approx(expected, abs=1e-9)

    # Generating from the echo without --noise-scale samples at its 0.5 again.
    again = tmp_path / "again.jsonl"
    assert main(["generate", "--model", str(echo), "--n-traj", "30", "--length", "6",
                 "--seed", "11", "--out", str(again), "--truth-out", str(echo)]) == 0
    assert again.read_bytes() == ds_path.read_bytes()

    # Noise-free data has no density: cluster fails as a numerical error.
    assert main(["generate", "--model", str(truth), "--n-traj", "3", "--length", "6",
                 "--noise-scale", "0", "--out", str(ds_path), "--truth-out", str(echo)]) == 0
    capsys.readouterr()
    assert main(["cluster", "--model", str(echo), "--data", str(ds_path),
                 "--out", str(tmp_path / "post")]) == 4
    assert "noise_scale" in capsys.readouterr().err
