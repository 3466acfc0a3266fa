"""Command-line interface: generate, learn, evaluate, cluster, validate, sweep.

Every run is fully determined by its configuration and seed: datasets
are generated from per-trajectory substreams of the seed, and the learn
stage uses ``numpy.random.default_rng(seed)``.  Re-running a command
with identical inputs reproduces its output files byte for byte.
``cluster`` scores at the model file's ``noise_scale``, which ``generate``
writes into the truth echo.

Argparse checks every option, and ``--config`` keys are parsed as the
flags they name, so a bad option from either source is a usage error.
Exit codes: 0 success, 2 usage/config error, 3 data error, 4 numerical
failure.  On a structured error the last stderr line is machine
parseable::

    LDSLAB_ERROR code=<int> kind=<usage|data|numerical> message="..."
"""
from __future__ import annotations

import argparse
import dataclasses
import json
import sys
import time

import numpy as np
from scipy.optimize import linear_sum_assignment

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


class _Parser(argparse.ArgumentParser):
    """Reports every parse error as a UsageError (exit 2, structured line)."""

    def error(self, message):
        raise UsageError(message)


def _at_least(low: int):
    """Flag type: an integer >= ``low``."""
    def convert(text: str) -> int:
        try:
            value = int(text)
        except ValueError:
            value = None
        if value is None or value < low:
            raise argparse.ArgumentTypeError(f"needs an integer >= {low}, got {text!r}")
        return value
    return convert


_COUNT, _SEED = _at_least(1), _at_least(0)


def _nonnegative(text: str) -> float:
    """Flag type: a finite float >= 0."""
    try:
        value = float(text)
    except ValueError:
        value = None
    if value is None or not (np.isfinite(value) and value >= 0):
        raise argparse.ArgumentTypeError(f"needs a finite number >= 0, got {text!r}")
    return value


def _grid(text: str) -> list:
    """--n-grid: comma-separated sample counts, sorted without repeats."""
    counts = sorted({_COUNT(item) for item in text.split(",") if item})
    if not counts:
        raise argparse.ArgumentTypeError("must list at least one sample count")
    return counts


def _config_flags(argv: list, modes: dict):
    """The --config file of ``argv`` as ``--flag=value`` tokens, and the
    values it gives the mode's store_true flags.

    A key is a long flag name of the mode (underscored or dashed); a list
    value becomes its comma-separated items.  A store_true flag takes a
    JSON bool, set after parsing so that ``false`` overrides the flag on
    the command line.
    """
    pre = _Parser(add_help=False)
    pre.add_argument("mode", nargs="?")
    pre.add_argument("--config")
    found = pre.parse_known_args(argv)[0]
    if found.config is None or found.mode not in modes:
        return [], {}
    path = found.config
    try:
        with open(path, "r", encoding="utf-8") as handle:
            raw = json.load(handle)
    except (OSError, json.JSONDecodeError) as exc:
        raise UsageError(f"cannot read config {path}: {exc}") from exc
    if not isinstance(raw, dict):
        raise UsageError(f"config {path} must hold a JSON object")
    actions = {a.dest: a for a in modes[found.mode]._actions if a.dest != "help"}
    tokens, switches = [], {}
    for key, value in raw.items():
        dest = key.replace("-", "_")
        if dest == "mode":
            continue  # the subcommand fixes the mode
        if dest not in actions:
            raise UsageError(f"config {path}: unknown key {key!r}")
        if actions[dest].nargs == 0:  # store_true
            if not isinstance(value, bool):
                raise UsageError(f"config {path}: {key!r} needs true or false, got {value!r}")
            switches[dest] = value
        elif value is None or isinstance(value, (bool, dict)):
            raise UsageError(f"config {path}: {key!r} needs a string, number or list")
        else:
            text = ",".join(map(str, value)) if isinstance(value, list) else str(value)
            tokens.append(f"{actions[dest].option_strings[0]}={text}")
    return tokens, switches


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
    missing = [f"--{name}" for name in "kmnp" if getattr(args, name) is None]
    if missing:
        raise UsageError(f"generate without --model needs {' '.join(missing)}")
    rng = np.random.default_rng(args.seed)
    return random_mixture(
        args.k, (args.m, args.n, args.p), rng, min_gamma=args.min_gamma, s=args.s
    )


def _with_noise_scale(args, mix):
    """``mix`` at --noise-scale, when that flag is given."""
    if args.noise_scale is None:
        return mix
    return dataclasses.replace(mix, noise_scale=args.noise_scale)


def cmd_generate(args) -> int:
    times = {}
    t0 = time.perf_counter()
    mix = _with_noise_scale(args, _load_truth_or_random(args))
    dataset = sample_mixture_dataset(mix, args.n_traj, args.length, NoiseConfig(seed=args.seed))
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


def cmd_learn(args) -> int:
    times = {}
    t0 = time.perf_counter()
    dataset = load_dataset(args.data)
    times["load"] = time.perf_counter() - t0
    t0 = time.perf_counter()
    rng = np.random.default_rng(args.seed)
    learned = learn_mixture(dataset, args.k, args.n, args.s, rng)
    times["learn"] = time.perf_counter() - t0
    t0 = time.perf_counter()
    save_mixture(args.out, learned)
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


def cmd_evaluate(args) -> int:
    truth = load_mixture(args.truth)
    learned = load_mixture(args.learned)
    report = align_similarity(truth, learned, args.s)
    save_report(args.out, {
        "component": np.arange(len(report.permutation)),
        "truth_index": report.permutation,
        **{f"{x}_err": getattr(report, f"{x}_err") for x in "abcdw"},
        "cond_u": report.cond,
        "flagged": report.flagged,
    })
    print(f"permutation (estimate -> truth): {list(report.permutation)}")
    print(
        f"max aligned parameter error: {report.max_param_error:.6g}; "
        f"max weight error: {report.max_weight_error:.6g}"
    )
    print(f"report written to {args.out}.csv and {args.out}.json")
    return 0


def _matched_correct(argmax: np.ndarray, labels: np.ndarray, k: int) -> np.ndarray:
    """Whether each argmax hits its label, once the k components are matched
    one-to-one to the label values so that the most trajectories agree (a
    learned model's component order is arbitrary)."""
    values, label_index = np.unique(labels, return_inverse=True)
    counts = np.zeros((k, len(values)), dtype=int)
    np.add.at(counts, (argmax, label_index), 1)
    rows, cols = linear_sum_assignment(counts, maximize=True)
    match = np.full(k, -1)
    match[rows] = cols
    return match[argmax] == label_index


def cmd_cluster(args) -> int:
    model = load_mixture(args.model)
    dataset = load_dataset(args.data)
    probs = np.array([post.probabilities for post in cluster_dataset(model, dataset)])
    argmax = probs.argmax(axis=1)
    labels = dataset.labels
    columns = {"index": np.arange(len(probs))}
    if labels is not None:
        columns["label"] = labels
    columns.update({f"p_{i}": probs[:, i] for i in range(model.k)})
    columns["argmax"] = argmax
    if labels is not None:
        columns["correct"] = _matched_correct(argmax, labels, model.k)
    save_report(args.out, columns)
    if labels is not None:
        print(f"clustering accuracy: {columns['correct'].mean():.4f}")
    else:
        print("dataset is unlabelled; accuracy omitted")
    print(f"posteriors written to {args.out}.csv and {args.out}.json")
    return 0


def cmd_validate(args) -> int:
    mix = load_mixture(args.model)
    report = well_behaved_report(mix, args.s, args.kappa, args.w_min, args.gamma)
    for name, passed in report.checks.items():
        print(f"{'PASS' if passed else 'FAIL'} {name}")
    print(f"measured gamma: {report.gamma:.6g} (threshold {args.gamma:g})")
    print(f"obs ratios: {np.array2string(report.obs_ratio, precision=4)}")
    print(f"ctrl ratios: {np.array2string(report.ctrl_ratio, precision=4)}")
    print(f"overall: {'PASS' if report.ok else 'FAIL'}")
    if args.out:
        payload = {**dataclasses.asdict(report), "ok": report.ok}
        atomic_write_text(args.out, dumps_json(payload, indent=2) + "\n")
        print(f"report written to {args.out}")
    return 0 if report.ok or not args.strict else 4


def cmd_sweep(args) -> int:
    need = min_trajectory_length(args.s)
    if args.length < need:
        raise UsageError(f"--length: {too_short_message(args.length, need)}")
    truth = _with_noise_scale(args, load_mixture(args.truth))
    reports, walls = [], []
    for n_traj in args.n_grid:
        t0 = time.perf_counter()
        dataset = sample_mixture_dataset(truth, n_traj, args.length, NoiseConfig(seed=args.seed))
        rng = np.random.default_rng(args.seed)
        learned = learn_mixture(dataset, args.k, args.n, args.s, rng)
        report = align_similarity(truth, learned, args.s)
        walls.append(time.perf_counter() - t0)
        reports.append(report)
        print(
            f"N={n_traj}: max param err {report.max_param_error:.6g}, "
            f"weight err {report.max_weight_error:.6g} ({walls[-1]:.1f}s)"
        )
    save_report(args.out, {
        "n_traj": args.n_grid,
        **{f"{x}_err_max": [getattr(r, f"{x}_err").max() for r in reports] for x in "abcd"},
        "max_param_error": [r.max_param_error for r in reports],
        "weight_error_max": [r.max_weight_error for r in reports],
        "wall_time_s": walls,
    })
    print(f"sweep written to {args.out}.csv and {args.out}.json")
    return 0


def _build_parser():
    """The parser, and the parser of each mode by name."""
    parser = _Parser(
        prog="ldslab",
        description="Simulate and learn mixtures of linear dynamical systems.",
    )
    parser.add_argument("--version", action="version", version=f"ldslab {__version__}")
    sub = parser.add_subparsers(dest="mode", required=True)

    def common(p):
        p.add_argument("--config", help="JSON config file; overrides individual flags")

    p = sub.add_parser("generate", help="sample a dataset from a mixture")
    common(p)
    p.add_argument("--seed", type=_SEED, default=0)
    p.add_argument("--model", help="mixture JSON to sample from (else random)")
    p.add_argument("--k", type=_COUNT)
    p.add_argument("--m", type=_COUNT)
    p.add_argument("--n", type=_COUNT)
    p.add_argument("--p", type=_COUNT)
    p.add_argument("--s", type=_COUNT, default=2, help="horizon for the gamma check")
    p.add_argument("--min-gamma", type=_nonnegative, default=0.0)
    p.add_argument("--n-traj", type=_COUNT, required=True)
    p.add_argument("--length", type=_COUNT, required=True)
    p.add_argument("--noise-scale", type=_nonnegative, help="default: the model's noise_scale")
    p.add_argument("--out", required=True, help="dataset JSONL path")
    p.add_argument("--truth-out", required=True, help="ground-truth mixture JSON path")
    p.add_argument("--manifest")
    p.set_defaults(func=cmd_generate)

    p = sub.add_parser("learn", help="learn a mixture from a dataset")
    common(p)
    p.add_argument("--seed", type=_SEED, default=0)
    p.add_argument("--data", required=True, help="dataset JSONL path")
    p.add_argument("--k", type=_COUNT, required=True)
    p.add_argument("--n", type=_COUNT, required=True)
    p.add_argument("--s", type=_COUNT, required=True)
    p.add_argument("--out", required=True, help="learned model JSON path")
    p.add_argument("--manifest")
    p.set_defaults(func=cmd_learn)

    p = sub.add_parser("evaluate", help="similarity-aligned errors vs a truth model")
    common(p)
    p.add_argument("--truth", required=True)
    p.add_argument("--learned", required=True)
    p.add_argument("--s", type=_COUNT, required=True)
    p.add_argument("--out", required=True, help="report base path (.csv/.json appended)")
    p.set_defaults(func=cmd_evaluate)

    p = sub.add_parser("cluster", help="posterior component probabilities per trajectory")
    common(p)
    p.add_argument("--model", required=True)
    p.add_argument("--data", required=True)
    p.add_argument("--out", required=True, help="report base path (.csv/.json appended)")
    p.set_defaults(func=cmd_cluster)

    p = sub.add_parser("validate", help="check the learnability assumptions")
    common(p)
    p.add_argument("--model", required=True)
    p.add_argument("--s", type=_COUNT, required=True)
    p.add_argument("--kappa", type=_nonnegative, required=True)
    p.add_argument("--w-min", type=_nonnegative, required=True)
    p.add_argument("--gamma", type=_nonnegative, required=True)
    p.add_argument("--out", help="JSON report path")
    p.add_argument("--strict", action="store_true",
                   help="exit nonzero when a check fails")
    p.set_defaults(func=cmd_validate)

    p = sub.add_parser("sweep", help="error-vs-N sweep against a truth model")
    common(p)
    p.add_argument("--seed", type=_SEED, default=0)
    p.add_argument("--truth", required=True)
    p.add_argument("--k", type=_COUNT, required=True)
    p.add_argument("--n", type=_COUNT, required=True)
    p.add_argument("--s", type=_COUNT, required=True)
    p.add_argument("--length", type=_COUNT, required=True)
    p.add_argument("--noise-scale", type=_nonnegative, help="default: the model's noise_scale")
    p.add_argument("--n-grid", type=_grid, required=True, help="comma-separated sample counts")
    p.add_argument("--out", required=True, help="report base path (.csv/.json appended)")
    p.set_defaults(func=cmd_sweep)
    return parser, sub.choices


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    parser, modes = _build_parser()
    try:
        tokens, switches = _config_flags(argv, modes)
        args = parser.parse_args(argv + tokens)
        vars(args).update(switches)
        return args.func(args)
    except UsageError as exc:
        return _fail("usage", 2, exc)
    except (DataError, OSError) as exc:
        return _fail("data", 3, exc)
    except NumericalError as exc:
        return _fail("numerical", 4, exc)


if __name__ == "__main__":
    sys.exit(main())
