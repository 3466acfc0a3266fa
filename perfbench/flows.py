"""Workloads, the generate -> learn -> evaluate -> cluster flows, and their output checks.

Every workload is a closed loop with one client in one process: each phase
starts when the previous one has returned.  ``ldslab`` must be importable
before this module is imported (``run.py`` puts the checkout's ``src`` first
on ``sys.path``).

All calls into the program go through module attributes (``lds.sample_mixture_dataset``,
``cli.main``, ...), never through names bound at import time, so that the
tracer's wrappers see them.
"""
from __future__ import annotations

import dataclasses
import hashlib
import json
import os
import sys
from contextlib import nullcontext, redirect_stdout
from time import perf_counter as _clock
from typing import Optional

import numpy as np

import ldslab.cli as cli
import ldslab.cluster as cluster
import ldslab.errors as errors
import ldslab.io as io
import ldslab.lds as lds
import ldslab.learn as learn
import ldslab.moments as moments
import ldslab.tensor as tensor

DATA_DIR = os.path.join(os.path.dirname(os.path.abspath(__file__)), "data")

# Trajectories whose posteriors are recomputed independently, and trajectories
# compared between a dataset file and a fresh draw.
POSTERIOR_SAMPLE = 32
LOAD_SAMPLE = 64
POSTERIOR_ATOL = 1e-9
# Size of the untimed warm-up pass at the start of every benchmark run, so that
# one-time costs of first calls (lazy set-up in numpy, scipy and OpenBLAS) fall
# outside the timed passes.  The smoke test runs the workloads at this size.
WARMUP = {"n_traj": 3000, "n_holdout": 4}
# The paper's data seed; its learn seed is DEFAULT_SEED + 1 = 43.
DEFAULT_SEED = 42


@dataclasses.dataclass(frozen=True)
class Workload:
    name: str
    why: str
    kind: str  # "library": in-memory calls; "cli": ldslab.cli.main with JSONL files
    mixture: str  # pinned truth file under data/
    n_traj: int
    length: int
    n_holdout: int  # trajectories clustered with the learned model
    n: int
    s: int
    # Criterion 6 of the paper: ceilings on the aligned parameter and weight
    # errors, checked at DEFAULT_SEED only.  The errors vary with the seed and
    # the ceilings are a claim about the paper's seed, not about every draw.
    ceilings: Optional[tuple] = None


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "paper-200k",
            "paper criterion-6 setting in memory (k=2, m=n=p=2, s=2, q=20, N=2e5, "
            "l=18, 2000 holdout); sampling and the trajectory objects dominate",
            "library", "benchmark_mixture.json", 200_000, 18, 2000, 2, 2,
            ceilings=(0.15, 0.05),
        ),
        Workload(
            "cli-files-20k",
            "CLI generate/learn/evaluate/cluster on JSONL files (N=2e4, l=18, "
            "2000 holdout); file I/O and per-trajectory likelihoods dominate",
            "cli", "benchmark_mixture.json", 20_000, 18, 2000, 2, 2,
        ),
        Workload(
            "wide-q112",
            "pinned wide mixture in memory (k=2, m=p=4, n=3, s=3, q=112, N=5e4, "
            "l=24, 150 holdout); the sixth-moment sums dominate learning",
            "library", "wide_q112_mixture.json", 50_000, 24, 150, 3, 3,
        ),
    )
}


@dataclasses.dataclass(frozen=True)
class Seeds:
    """Program inputs derived from the workload seed."""

    data: int
    learn: int
    holdout: int

    @classmethod
    def from_seed(cls, seed: int) -> "Seeds":
        return cls(data=seed, learn=seed + 1, holdout=seed + 2)


def load_truth(wl: Workload):
    return io.load_mixture(os.path.join(DATA_DIR, wl.mixture))


@dataclasses.dataclass
class FlowResult:
    """One pass of the flow: phase wall times plus what the checks need."""

    times: dict  # phase -> seconds
    pipeline_s: float
    failed_phases: list
    model: object = None  # MixtureSpec or LearnedMixture that clustered the holdout
    permutation: tuple = ()  # estimate j -> truth component, from evaluate
    param_error: float = float("nan")
    weight_error: float = float("nan")
    posteriors: Optional[np.ndarray] = None  # (n_holdout, k)
    labels: Optional[np.ndarray] = None  # truth labels of the holdout
    holdout_sample: tuple = ()  # (index, Trajectory) pairs for the posterior check
    fingerprint: str = ""
    diagnostics: dict = None
    manifest_learn_s: float = 0.0
    dataset_bytes: int = 0
    dataset: Optional[list] = None  # training set, kept only on request (library flow)


def posterior_sample_indices(n_holdout: int, seed: int) -> np.ndarray:
    rng = np.random.default_rng(seed)
    size = min(POSTERIOR_SAMPLE, n_holdout)
    return np.sort(rng.choice(n_holdout, size=size, replace=False))


def _no_span(name):
    return nullcontext()


def run_library(wl: Workload, truth, seeds: Seeds, keep_data=False, span=_no_span) -> FlowResult:
    """In-memory flow: sample -> learn_mixture -> align_similarity -> cluster_dataset."""
    with span("pipeline"):
        t0 = _clock()
        data = lds.sample_mixture_dataset(
            truth, wl.n_traj, wl.length, lds.NoiseConfig(seed=seeds.data)
        )
        holdout = lds.sample_mixture_dataset(
            truth, wl.n_holdout, wl.length, lds.NoiseConfig(seed=seeds.holdout)
        )
        t1 = _clock()
        learned = learn.learn_mixture(
            data, truth.k, wl.n, wl.s, np.random.default_rng(seeds.learn)
        )
        t2 = _clock()
        if not keep_data:
            del data
        report = learn.align_similarity(truth, learned, wl.s)
        t3 = _clock()
        posts = cluster.cluster_dataset(learned, holdout)
        t4 = _clock()
    times = {"generate": t1 - t0, "learn": t2 - t1, "evaluate": t3 - t2, "cluster": t4 - t3}

    probs = np.array([p.probabilities for p in posts])
    digest = hashlib.sha256()
    for comp in learned.components:
        for mat in (comp.a, comp.b, comp.c, comp.d):
            digest.update(np.ascontiguousarray(mat).tobytes())
    digest.update(np.asarray(learned.weights).tobytes())
    digest.update(probs.tobytes())
    sample = posterior_sample_indices(wl.n_holdout, seeds.holdout)
    return FlowResult(
        times=times,
        pipeline_s=t4 - t0,
        failed_phases=[],
        model=learned,
        permutation=report.permutation,
        param_error=report.max_param_error,
        weight_error=report.max_weight_error,
        posteriors=probs,
        labels=np.array([t.label for t in holdout]),
        holdout_sample=tuple((int(i), holdout[i]) for i in sample),
        fingerprint=digest.hexdigest(),
        diagnostics=dict(learned.diagnostics),
        dataset=data if keep_data else None,
    )


def cli_paths(workdir: str) -> dict:
    names = {
        "train": "train.jsonl",
        "truth_echo": "truth_echo.json",
        "model": "model.json",
        "eval": "eval",
        "holdout": "holdout.jsonl",
        "holdout_truth": "holdout_truth.json",
        "posteriors": "posteriors",
    }
    return {key: os.path.join(workdir, value) for key, value in names.items()}


def run_cli(wl: Workload, truth, seeds: Seeds, workdir: str, span=_no_span) -> FlowResult:
    """File flow through ``ldslab.cli.main``: generate, learn, evaluate, generate a holdout, cluster."""
    path = cli_paths(workdir)
    model_file = os.path.join(DATA_DIR, wl.mixture)
    k = truth.k
    phases = [
        ("generate", ["generate", "--model", model_file, "--n-traj", str(wl.n_traj),
                      "--length", str(wl.length), "--seed", str(seeds.data),
                      "--out", path["train"], "--truth-out", path["truth_echo"]]),
        ("learn", ["learn", "--data", path["train"], "--k", str(k), "--n", str(wl.n),
                   "--s", str(wl.s), "--seed", str(seeds.learn), "--out", path["model"]]),
        ("evaluate", ["evaluate", "--truth", path["truth_echo"], "--learned", path["model"],
                      "--s", str(wl.s), "--out", path["eval"]]),
        ("generate", ["generate", "--model", model_file, "--n-traj", str(wl.n_holdout),
                      "--length", str(wl.length), "--seed", str(seeds.holdout),
                      "--out", path["holdout"], "--truth-out", path["holdout_truth"]]),
        ("cluster", ["cluster", "--model", path["model"], "--data", path["holdout"],
                     "--out", path["posteriors"]]),
    ]
    times = dict.fromkeys(("generate", "learn", "evaluate", "cluster"), 0.0)
    failed = []
    with span("pipeline"):
        t_start = _clock()
        for phase, argv in phases:
            t0 = _clock()
            with redirect_stdout(sys.stderr):  # keep the benchmark's stdout to its own lines
                code = cli.main(argv)
            times[phase] += _clock() - t0
            if code != 0:
                failed.append(f"{phase}: exit {code}")
        pipeline = _clock() - t_start
    result = FlowResult(times=times, pipeline_s=pipeline, failed_phases=failed)
    if failed:
        return result

    result.model = io.load_mixture(path["model"])
    with open(path["eval"] + ".json", encoding="utf-8") as handle:
        rows = json.load(handle)
    result.permutation = tuple(int(r["truth_index"]) for r in rows)
    result.param_error = max(max(r[f"{x}_err"] for x in "abcd") for r in rows)
    result.weight_error = max(r["w_err"] for r in rows)
    with open(path["posteriors"] + ".json", encoding="utf-8") as handle:
        post_rows = json.load(handle)
    result.posteriors = np.array([[r[f"p_{i}"] for i in range(k)] for r in post_rows])
    result.labels = np.array([r["label"] for r in post_rows])
    with open(path["model"] + ".manifest.json", encoding="utf-8") as handle:
        manifest = json.load(handle)
    result.manifest_learn_s = float(manifest["wall_time_s"]["learn"])
    result.diagnostics = manifest["diagnostics"]
    result.dataset_bytes = os.path.getsize(path["train"]) + os.path.getsize(path["holdout"])
    digest = hashlib.sha256()
    for key in ("train", "model", "holdout"):
        with open(path[key], "rb") as handle:
            digest.update(handle.read())
    for base in ("eval", "posteriors"):
        with open(path[base] + ".csv", "rb") as handle:
            digest.update(handle.read())
    result.fingerprint = digest.hexdigest()
    return result


def run_flow(wl, truth, seeds, workdir, keep_data=False, span=_no_span) -> FlowResult:
    """One pass of the workload's flow; ``span`` opens the root span around the phases."""
    if wl.kind == "cli":
        return run_cli(wl, truth, seeds, workdir, span)
    return run_library(wl, truth, seeds, keep_data, span)


def warm_up(wl: Workload, truth, seeds: Seeds, workdir: str) -> dict:
    """One untimed pass at WARMUP size.  Its outputs are not checked: a sample
    this small may be too small to learn from, which is not a failure."""
    t0 = _clock()
    try:
        outcome = run_flow(dataclasses.replace(wl, **WARMUP), truth, seeds, workdir).failed_phases
    except errors.LdsLabError as exc:
        outcome = [repr(exc)]
    return {"seconds": _clock() - t0, "failed_phases": outcome}


# -- output checks -----------------------------------------------------------

def _posterior_by_kalman(model, traj) -> np.ndarray:
    """Posterior from the Kalman prediction-error likelihood, not the production path."""
    weights = np.asarray(model.weights, dtype=float)
    logliks = np.array(
        [cluster.kalman_log_likelihood(c, traj) for c in model.components]
    )
    logpost = np.log(weights) + logliks
    logpost -= logpost.max()
    probs = np.exp(logpost)
    return probs / probs.sum()


def _same_trajectories(a, b) -> bool:
    return len(a) == len(b) and all(
        np.array_equal(x.u, y.u) and np.array_equal(x.y, y.y) and x.label == y.label
        for x, y in zip(a, b)
    )


def cluster_accuracy(result: FlowResult) -> float:
    """Share of holdout trajectories whose posterior argmax, mapped to a truth
    component through evaluate's matching, equals the generating component."""
    perm = np.asarray(result.permutation)
    return float(np.mean(perm[result.posteriors.argmax(axis=1)] == result.labels))


def check_flow(wl: Workload, truth, seeds: Seeds, result: FlowResult, workdir: str) -> list:
    """Output checks of one flow pass: a list of (name, ok, detail)."""
    checks = []
    model = result.model
    finite = all(
        np.all(np.isfinite(getattr(c, x))) for c in model.components for x in "abcd"
    ) and np.all(np.isfinite(model.weights))
    checks.append((
        "model_finite_with_k_components",
        bool(finite and len(model.components) == truth.k),
        f"{len(model.components)} components, finite={bool(finite)}",
    ))

    if wl.kind == "cli":
        path = cli_paths(workdir)
        loaded_holdout = io.load_dataset(path["holdout"])
        sample = posterior_sample_indices(wl.n_holdout, seeds.holdout)
        holdout_sample = [(int(i), loaded_holdout[i]) for i in sample]
        n_cmp = min(LOAD_SAMPLE, wl.n_holdout, wl.n_traj)
        # Loading the whole training file would double the check's cost; its
        # first lines go through load_dataset from a file of their own.
        head = os.path.join(workdir, "train_head.jsonl")
        with open(path["train"], encoding="utf-8") as src:
            lines = src.readlines()
        with open(head, "w", encoding="utf-8") as dst:
            dst.writelines(lines[:n_cmp])
        loaded_train = io.load_dataset(head)
        fresh_train = lds.sample_mixture_dataset(
            truth, n_cmp, wl.length, lds.NoiseConfig(seed=seeds.data))
        fresh_holdout = lds.sample_mixture_dataset(
            truth, n_cmp, wl.length, lds.NoiseConfig(seed=seeds.holdout))
        ok = (
            len(lines) == wl.n_traj
            and len(loaded_holdout) == wl.n_holdout
            and _same_trajectories(loaded_train[:n_cmp], fresh_train)
            and _same_trajectories(loaded_holdout[:n_cmp], fresh_holdout)
        )
        checks.append((
            "load_dataset_equals_sample", bool(ok),
            f"first {n_cmp} trajectories of both files against a fresh draw",
        ))
    else:
        holdout_sample = result.holdout_sample

    worst = 0.0
    for i, traj in holdout_sample:
        expected = _posterior_by_kalman(model, traj)
        worst = max(worst, float(np.max(np.abs(expected - result.posteriors[i]))))
    checks.append((
        "posteriors_match_kalman", bool(worst <= POSTERIOR_ATOL),
        f"max |diff| {worst:.3g} over {len(holdout_sample)} trajectories (<= {POSTERIOR_ATOL:g})",
    ))

    if wl.ceilings is not None and seeds.data == DEFAULT_SEED:
        max_param, max_weight = wl.ceilings
        ok = result.param_error <= max_param and result.weight_error <= max_weight
        checks.append((
            "criterion6_ceilings", bool(ok),
            f"param_error {result.param_error:.4g} (<= {max_param}), "
            f"weight_error {result.weight_error:.4g} (<= {max_weight})",
        ))
    return checks


# -- layers -----------------------------------------------------------------

def wrap_layers(tracer) -> None:
    """Wrap every public ldslab function a flow reaches, at the attribute its caller reads."""
    spans = [
        (lds, "sample_mixture_dataset", "lds.sample_mixture_dataset"),
        (cli, "sample_mixture_dataset", "lds.sample_mixture_dataset"),
        (cli, "save_dataset", "io.save_dataset"),
        (cli, "load_dataset", "io.load_dataset"),
        (cli, "save_report", "io.save_report"),
        (learn, "learn_mixture", "learn.learn_mixture"),
        (cli, "learn_mixture", "learn.learn_mixture"),
        (learn, "assemble_pi", "moments.assemble_pi"),
        (learn, "learn_mixture_from_moments", "learn.learn_mixture_from_moments"),
        (learn, "symmetrize_tensor3", "moments.symmetrize_tensor3"),
        (learn, "learn_markov_components", "learn.learn_markov_components"),
        (learn, "jennrich_decompose", "tensor.jennrich_decompose"),
        (learn, "recover_weights", "learn.recover_weights"),
        (learn, "ho_kalman", "hokalman.ho_kalman"),
        (learn, "align_similarity", "learn.align_similarity"),
        (cli, "align_similarity", "learn.align_similarity"),
        (cluster, "cluster_dataset", "cluster.cluster_dataset"),
        (cli, "cluster_dataset", "cluster.cluster_dataset"),
        (cli, "cmd_generate", "cli.generate"),
        (cli, "cmd_learn", "cli.learn"),
        (cli, "cmd_evaluate", "cli.evaluate"),
        (cli, "cmd_cluster", "cli.cluster"),
    ]
    aggregates = [
        (lds, "substream", "rng.substream"),
        (lds, "draw_lds_noise", "lds.draw_lds_noise"),
        (lds, "Trajectory", "lds.trajectory_build"),
        (io, "Trajectory", "lds.trajectory_build"),
        (tensor, "contract_mode3", "tensor.contract_mode3"),
        (tensor, "reconstruct", "tensor.reconstruct"),
        (cluster, "component_log_likelihood", "cluster.component_log_likelihood"),
        (cluster, "cho_factor", "cluster.cho_factor"),
    ]
    for owner, attr, name in spans:
        tracer.wrap(owner, attr, name)
    for owner, attr, name in aggregates:
        tracer.wrap(owner, attr, name, aggregate=True)


TRACED_MODULES = (lds, io, learn, cluster, cli, tensor)


def module_snapshot() -> dict:
    """Identity of every attribute of the traced modules, to prove restoration.

    ``__warningregistry__`` is left out: Python adds it to a module the first
    time a warning is raised from there.
    """
    return {
        mod.__name__: {
            key: id(value) for key, value in vars(mod).items() if key != "__warningregistry__"
        }
        for mod in TRACED_MODULES
    }


def direct_moment_calls(wl: Workload, result: FlowResult, workdir: str) -> dict:
    """Time one direct call of each moment estimator on the workload's training set.

    The library flow hands its training set over (``keep_data=True``); the CLI
    flow's is read back from its file.
    """
    dataset = result.dataset
    if dataset is None:
        dataset = io.load_dataset(cli_paths(workdir)["train"])
    t0 = _clock()
    moments.MomentTensor6.estimate(dataset, wl.s)
    t1 = _clock()
    moments.CrossCovarianceStack.estimate(dataset, wl.s)
    t2 = _clock()
    return {"estimate_sixth": t1 - t0, "cross_covariance": t2 - t1}
