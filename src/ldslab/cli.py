"""Command-line interface: generate, learn, evaluate, cluster, validate, sweep.

Every run is fully determined by its configuration and seed: datasets
are generated from per-trajectory substreams of the seed, and the learn
stage uses ``numpy.random.default_rng(seed)``.  Re-running a command
with identical inputs reproduces its output files byte for byte at any
``LDSLAB_THREADS`` setting.

Exit codes: 0 success, 2 usage/config error, 3 data error, 4 numerical
failure.  On a structured error the last stderr line is machine
parseable::

    LDSLAB_ERROR code=<int> kind=<usage|data|numerical> message="..."
"""
from __future__ import annotations

import argparse
import json
import sys
import time

import numpy as np

from . import __version__
from .cluster import cluster_dataset
from .errors import DataError, LdsLabError, NumericalError
from .io import (
    atomic_write_text,
    dumps_json,
    load_dataset,
    load_mixture,
    save_dataset,
    save_mixture,
    save_report,
)
from .lds import NoiseConfig, random_mixture, sample_mixture_dataset, well_behaved_report
from .learn import align_similarity, learn_mixture
from .moments import min_trajectory_length, too_short_message

__all__ = ["main"]


class UsageError(LdsLabError):
    """Invalid command line or configuration."""


def _fail(kind: str, code: int, message: str) -> int:
    text = str(message).replace('"', "'").replace("\n", " ")
    print(f'LDSLAB_ERROR code={code} kind={kind} message="{text}"', file=sys.stderr)
    return code


def _apply_config_file(args: argparse.Namespace) -> None:
    """Values from --config override the individual flags."""
    if not getattr(args, "config", None):
        return
    try:
        with open(args.config, "r", encoding="utf-8") as handle:
            raw = json.load(handle)
    except (OSError, json.JSONDecodeError) as exc:
        raise UsageError(f"cannot read config {args.config}: {exc}") from exc
    if not isinstance(raw, dict):
        raise UsageError(f"config {args.config} must hold a JSON object")
    for key, value in raw.items():
        attr = key.replace("-", "_")
        if attr == "mode":
            continue  # the subcommand fixes the mode
        if not hasattr(args, attr):
            raise UsageError(f"config {args.config}: unknown key {key!r}")
        setattr(args, attr, value)


def _require(args, *names) -> None:
    for name in names:
        if getattr(args, name, None) is None:
            raise UsageError(f"missing required option --{name.replace('_', '-')}")


def _positive(args, *names) -> None:
    for name in names:
        value = getattr(args, name, None)
        if value is not None and value <= 0:
            raise UsageError(f"--{name.replace('_', '-')} must be positive, got {value}")


def _manifest(args, stage_times: dict, diagnostics: dict, outputs: dict) -> dict:
    config = {
        key: value
        for key, value in sorted(vars(args).items())
        if key not in ("func", "config") and value is not None
    }
    return {
        "version": __version__,
        "mode": args.mode,
        "config": config,
        "seed": getattr(args, "seed", None),
        "wall_time_s": stage_times,
        "diagnostics": diagnostics,
        "outputs": outputs,
    }


def _load_truth_or_random(args):
    if args.model:
        return load_mixture(args.model)
    _require(args, "k", "m", "n", "p")
    _positive(args, "k", "m", "n", "p")
    rng = np.random.default_rng(args.seed)
    return random_mixture(
        args.k, (args.m, args.n, args.p), rng, min_gamma=args.min_gamma, s=args.s
    )


def cmd_generate(args) -> int:
    _require(args, "out", "truth_out", "n_traj", "length")
    _positive(args, "n_traj", "length")
    times = {}
    t0 = time.perf_counter()
    mix = _load_truth_or_random(args)
    noise = NoiseConfig(seed=args.seed, noise_scale=args.noise_scale)
    dataset = sample_mixture_dataset(mix, args.n_traj, args.length, noise)
    times["generate"] = time.perf_counter() - t0
    t0 = time.perf_counter()
    save_dataset(args.out, dataset)
    save_mixture(args.truth_out, mix)
    times["write"] = time.perf_counter() - t0
    if args.manifest:
        manifest = _manifest(
            args, times, {"n_traj": len(dataset)},
            {"dataset": args.out, "truth": args.truth_out},
        )
        atomic_write_text(args.manifest, dumps_json(manifest, indent=2) + "\n")
    print(f"wrote {len(dataset)} trajectories to {args.out}; truth to {args.truth_out}")
    return 0


def _learn_from_file(args):
    times = {}
    t0 = time.perf_counter()
    dataset = load_dataset(args.data)
    times["load"] = time.perf_counter() - t0
    t0 = time.perf_counter()
    rng = np.random.default_rng(args.seed)
    learned = learn_mixture(dataset, args.k, args.n, args.s, rng, tol=args.tol)
    times["learn"] = time.perf_counter() - t0
    return learned, times


def cmd_learn(args) -> int:
    _require(args, "data", "out", "k", "n", "s")
    _positive(args, "k", "n", "s")
    learned, times = _learn_from_file(args)
    t0 = time.perf_counter()
    save_mixture(args.out, learned.to_mixture_spec())
    times["write"] = time.perf_counter() - t0
    manifest_path = args.manifest or (args.out + ".manifest.json")
    manifest = _manifest(args, times, learned.diagnostics, {"model": args.out})
    atomic_write_text(manifest_path, dumps_json(manifest, indent=2) + "\n")
    print(
        f"learned {learned.k} components; weights "
        + " ".join(f"{w:.4f}" for w in learned.weights)
    )
    print(f"model written to {args.out}; manifest to {manifest_path}")
    return 0


def _evaluate_report(truth, learned, s: int):
    report = align_similarity(truth, learned, s)
    header = [
        "component", "truth_index", "a_err", "b_err", "c_err", "d_err",
        "w_err", "cond_u", "flagged",
    ]
    rows = [
        [
            j,
            report.permutation[j],
            report.a_err[j],
            report.b_err[j],
            report.c_err[j],
            report.d_err[j],
            report.w_err[j],
            report.cond[j],
            bool(report.flagged[j]),
        ]
        for j in range(len(report.permutation))
    ]
    return report, header, rows


def cmd_evaluate(args) -> int:
    _require(args, "truth", "learned", "s", "out")
    _positive(args, "s")
    truth = load_mixture(args.truth)
    learned = load_mixture(args.learned)
    report, header, rows = _evaluate_report(truth, learned, args.s)
    save_report(args.out, header, rows)
    print(f"permutation (estimate -> truth): {list(report.permutation)}")
    print(
        f"max aligned parameter error: {report.max_param_error:.6g}; "
        f"max weight error: {report.max_weight_error:.6g}"
    )
    print(f"report written to {args.out}.csv and {args.out}.json")
    return 0


def cmd_cluster(args) -> int:
    _require(args, "model", "data", "out")
    model = load_mixture(args.model)
    dataset = load_dataset(args.data)
    posteriors = cluster_dataset(model, dataset)
    k = model.k
    labels = dataset.labels
    have_labels = labels is not None
    header = ["index"]
    if have_labels:
        header.append("label")
    header += [f"p_{i}" for i in range(k)] + ["argmax"]
    if have_labels:
        header.append("correct")
    rows = []
    n_correct = 0
    for idx, post in enumerate(posteriors):
        row = [idx]
        if have_labels:
            row.append(int(labels[idx]))
        row += [float(p) for p in post.probabilities]
        row.append(post.argmax)
        if have_labels:
            correct = post.argmax == labels[idx]
            n_correct += int(correct)
            row.append(bool(correct))
        rows.append(row)
    save_report(args.out, header, rows)
    if have_labels:
        print(f"clustering accuracy: {n_correct / len(dataset):.4f}")
    else:
        print("dataset is unlabelled; accuracy omitted")
    print(f"posteriors written to {args.out}.csv and {args.out}.json")
    return 0


def cmd_validate(args) -> int:
    _require(args, "model", "s", "kappa", "w_min", "gamma")
    _positive(args, "s")
    mix = load_mixture(args.model)
    report = well_behaved_report(mix, args.s, args.kappa, args.w_min, args.gamma)
    for name, passed in report.checks.items():
        print(f"{'PASS' if passed else 'FAIL'} {name}")
    print(f"measured gamma: {report.gamma:.6g} (threshold {args.gamma:g})")
    print(f"obs ratios: {np.array2string(report.obs_ratio, precision=4)}")
    print(f"ctrl ratios: {np.array2string(report.ctrl_ratio, precision=4)}")
    print(f"overall: {'PASS' if report.ok else 'FAIL'}")
    if args.out:
        payload = {
            "kappa_bound": report.kappa_bound,
            "gamma": report.gamma,
            "w_min": report.w_min,
            "obs_ratio": report.obs_ratio,
            "ctrl_ratio": report.ctrl_ratio,
            "checks": report.checks,
            "measured": report.measured,
            "diagnostics": report.diagnostics,
            "ok": report.ok,
        }
        atomic_write_text(args.out, dumps_json(payload, indent=2) + "\n")
        print(f"report written to {args.out}")
    return 0 if report.ok or not args.strict else 4


def cmd_sweep(args) -> int:
    _require(args, "truth", "out", "k", "n", "s", "length")
    _positive(args, "k", "n", "s", "length")
    if not args.n_grid:
        raise UsageError("--n-grid must list at least one sample count")
    grid = sorted(set(args.n_grid))
    if any(n <= 0 for n in grid):
        raise UsageError("--n-grid entries must be positive")
    need = min_trajectory_length(args.s)
    if args.length < need:
        raise UsageError(f"--length: {too_short_message(args.length, need)}")
    truth = load_mixture(args.truth)
    header = [
        "n_traj", "a_err_max", "b_err_max", "c_err_max", "d_err_max",
        "max_param_error", "weight_error_max", "wall_time_s",
    ]
    rows = []
    for n_traj in grid:
        t0 = time.perf_counter()
        noise = NoiseConfig(seed=args.seed, noise_scale=args.noise_scale)
        dataset = sample_mixture_dataset(truth, n_traj, args.length, noise)
        rng = np.random.default_rng(args.seed)
        learned = learn_mixture(dataset, args.k, args.n, args.s, rng, tol=args.tol)
        report = align_similarity(truth, learned, args.s)
        wall = time.perf_counter() - t0
        rows.append([
            n_traj,
            float(report.a_err.max()),
            float(report.b_err.max()),
            float(report.c_err.max()),
            float(report.d_err.max()),
            report.max_param_error,
            report.max_weight_error,
            wall,
        ])
        print(
            f"N={n_traj}: max param err {report.max_param_error:.6g}, "
            f"weight err {report.max_weight_error:.6g} ({wall:.1f}s)"
        )
    save_report(args.out, header, rows)
    print(f"sweep written to {args.out}.csv and {args.out}.json")
    return 0


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ldslab",
        description="Simulate and learn mixtures of linear dynamical systems.",
    )
    parser.add_argument("--version", action="version", version=f"ldslab {__version__}")
    sub = parser.add_subparsers(dest="mode", required=True)

    def common(p):
        p.add_argument("--config", help="JSON config file; overrides individual flags")
        p.add_argument("--seed", type=int, default=0)

    p = sub.add_parser("generate", help="sample a dataset from a mixture")
    common(p)
    p.add_argument("--model", help="mixture JSON to sample from (else random)")
    p.add_argument("--k", type=int)
    p.add_argument("--m", type=int)
    p.add_argument("--n", type=int)
    p.add_argument("--p", type=int)
    p.add_argument("--s", type=int, default=2, help="horizon for the gamma check")
    p.add_argument("--min-gamma", type=float, default=0.0)
    p.add_argument("--n-traj", type=int)
    p.add_argument("--length", type=int)
    p.add_argument("--noise-scale", type=float, default=1.0)
    p.add_argument("--out", help="dataset JSONL path")
    p.add_argument("--truth-out", help="ground-truth mixture JSON path")
    p.add_argument("--manifest")
    p.set_defaults(func=cmd_generate)

    p = sub.add_parser("learn", help="learn a mixture from a dataset")
    common(p)
    p.add_argument("--data", help="dataset JSONL path")
    p.add_argument("--k", type=int)
    p.add_argument("--n", type=int)
    p.add_argument("--s", type=int)
    p.add_argument("--tol", type=float, default=1.0)
    p.add_argument("--out", help="learned model JSON path")
    p.add_argument("--manifest")
    p.set_defaults(func=cmd_learn)

    p = sub.add_parser("evaluate", help="similarity-aligned errors vs a truth model")
    common(p)
    p.add_argument("--truth")
    p.add_argument("--learned")
    p.add_argument("--s", type=int)
    p.add_argument("--out", help="report base path (.csv/.json appended)")
    p.set_defaults(func=cmd_evaluate)

    p = sub.add_parser("cluster", help="posterior component probabilities per trajectory")
    common(p)
    p.add_argument("--model")
    p.add_argument("--data")
    p.add_argument("--out", help="report base path (.csv/.json appended)")
    p.set_defaults(func=cmd_cluster)

    p = sub.add_parser("validate", help="check the learnability assumptions")
    common(p)
    p.add_argument("--model")
    p.add_argument("--s", type=int)
    p.add_argument("--kappa", type=float)
    p.add_argument("--w-min", type=float)
    p.add_argument("--gamma", type=float)
    p.add_argument("--out", help="JSON report path")
    p.add_argument("--strict", action="store_true",
                   help="exit nonzero when a check fails")
    p.set_defaults(func=cmd_validate)

    p = sub.add_parser("sweep", help="error-vs-N sweep against a truth model")
    common(p)
    p.add_argument("--truth")
    p.add_argument("--k", type=int)
    p.add_argument("--n", type=int)
    p.add_argument("--s", type=int)
    p.add_argument("--length", type=int)
    p.add_argument("--noise-scale", type=float, default=1.0)
    p.add_argument("--tol", type=float, default=1.0)
    p.add_argument("--n-grid", type=lambda v: [int(x) for x in v.split(",") if x],
                   help="comma-separated sample counts")
    p.add_argument("--out", help="report base path (.csv/.json appended)")
    p.set_defaults(func=cmd_sweep)
    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        _apply_config_file(args)
        return args.func(args)
    except UsageError as exc:
        return _fail("usage", 2, exc)
    except (DataError, OSError) as exc:
        return _fail("data", 3, exc)
    except NumericalError as exc:
        return _fail("numerical", 4, exc)


if __name__ == "__main__":
    sys.exit(main())
