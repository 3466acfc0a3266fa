"""Measurement of one benchmark run: passes, checks, metrics and the environment.

``run.py`` is the entry point; it makes ``ldslab`` importable from the
checkout's ``src`` before importing this module.
"""
from __future__ import annotations

import hashlib
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback

import flows
import metrics
from tracer import Tracer

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORK_ROOT = os.path.join(HERE, "_work")

# Timed passes per run at least; more while --seconds have not gone.
MIN_PASSES = 2
# Fresh interpreters timed for setup_s; the median is reported.
SETUP_REPS = 3
SETUP_PROBE = (
    "import sys; sys.path.insert(0, sys.argv[1]); import ldslab.cli, ldslab.io; "
    "ldslab.io.load_mixture(sys.argv[2])"
)
BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS", "LDSLAB_THREADS")


def environment() -> dict:
    import numpy as np
    import scipy

    try:
        top = subprocess.run(
            ["git", "-C", ROOT, "rev-parse", "--show-toplevel", "HEAD"],
            capture_output=True, text=True, timeout=30,
        )
        lines = top.stdout.split()
        rev = lines[1] if top.returncode == 0 and os.path.samefile(lines[0], ROOT) else None
    except (OSError, subprocess.SubprocessError, IndexError):
        rev = None
    digest = hashlib.sha256()
    pkg = os.path.join(SRC, "ldslab")
    for name in sorted(os.listdir(pkg)):
        if name.endswith(".py"):
            with open(os.path.join(pkg, name), "rb") as handle:
                digest.update(name.encode() + b"\0" + handle.read())
    blas = np.__config__.CONFIG.get("Build Dependencies", {}).get("blas", {})
    return {
        "git_rev": rev,
        "src_sha256": digest.hexdigest(),
        "nproc": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "env": {key: os.environ.get(key) for key in BLAS_ENV},
    }


def sizes(wl, truth) -> dict:
    m, n, p = truth.dims
    return {
        "N": wl.n_traj, "l": wl.length, "holdout": wl.n_holdout, "k": truth.k,
        "m": m, "n": n, "p": p, "s": wl.s, "q": (2 * wl.s + 1) * m * p,
        "learn_n": wl.n,
    }


def measure_setup(mixture_path: str) -> list:
    """Wall times of fresh interpreters importing ldslab and loading the mixture."""
    times = []
    for _ in range(SETUP_REPS):
        t0 = time.perf_counter()
        subprocess.run(
            [sys.executable, "-c", SETUP_PROBE, SRC, mixture_path],
            check=True, timeout=120, cwd=ROOT,
        )
        times.append(time.perf_counter() - t0)
    return times


class Run:
    """Counts phases and checks attempted and failed over one benchmark run."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.checks = []

    def phases(self, result, n_phases):
        self.attempted += n_phases
        self.failed += len(result.failed_phases)
        for phase in result.failed_phases:
            self.checks.append({"name": "phase", "ok": False, "detail": phase})

    def check(self, name, ok, detail=""):
        self.attempted += 1
        self.failed += 0 if ok else 1
        self.checks.append({"name": name, "ok": bool(ok), "detail": detail})

    def crash(self):
        self.attempted += 1
        self.failed += 1
        self.checks.append({"name": "crash", "ok": False, "detail": traceback.format_exc()})
        traceback.print_exc()


def _n_phases(wl):
    return 5 if wl.kind == "cli" else 4


def one_pass(wl, truth, seeds, workdir, run, passes):
    """Run the flow once and its checks; returns the result or None if a phase failed."""
    result = flows.run_flow(wl, truth, seeds, workdir)
    run.phases(result, _n_phases(wl))
    if result.failed_phases:
        return None
    if not passes:
        for name, ok, detail in flows.check_flow(wl, truth, seeds, result, workdir):
            run.check(name, ok, detail)
    else:
        run.check("rerun_identical", result.fingerprint == passes[0].fingerprint,
                  "outputs of this pass equal those of the first pass")
    return result


def end_to_end(wl, passes, setup_times) -> dict:
    n_all = wl.n_traj + wl.n_holdout
    med = statistics.median
    return {
        "pipeline_s": med(r.pipeline_s for r in passes),
        "generate_traj_per_s": med(n_all / r.times["generate"] for r in passes),
        "learn_traj_per_s": med(wl.n_traj / r.times["learn"] for r in passes),
        "cluster_traj_per_s": med(wl.n_holdout / r.times["cluster"] for r in passes),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "setup_s": med(setup_times),
        "cluster_accuracy": med(flows.cluster_accuracy(r) for r in passes),
    }


def per_layer(wl, truth, result, tracer, direct) -> dict:
    tot = tracer.totals()

    def s(name):
        return tot.get(name, {}).get("s", 0.0)

    def self_s(name):
        return tot.get(name, {}).get("self_s", 0.0)

    def calls(name):
        return tot.get(name, {}).get("calls", 0)

    m, _, p = truth.dims
    g = 2 * wl.s + 1
    q = g * m * p
    flops = 2 * wl.n_traj * g**3 * (m * p) ** 3
    attempts = calls("tensor.contract_mode3") / 2
    successes = calls("tensor.reconstruct")
    nbytes = result.dataset_bytes
    diag = result.diagnostics
    root = tracer.spans[0]  # the flow's "pipeline" span, opened before any other
    return {
        "rng.substream.calls": calls("rng.substream"),
        "rng.substream.s": s("rng.substream"),
        "lds.draw_lds_noise.calls": calls("lds.draw_lds_noise"),
        "lds.draw_lds_noise.s": s("lds.draw_lds_noise"),
        "lds.trajectory_build.calls": calls("lds.trajectory_build"),
        "lds.trajectory_build.s": s("lds.trajectory_build"),
        "lds.sample_mixture_dataset.s": s("lds.sample_mixture_dataset"),
        "lds.sample_mixture_dataset.self_s": self_s("lds.sample_mixture_dataset"),
        "io.save_dataset.s": s("io.save_dataset"),
        "io.load_dataset.s": s("io.load_dataset"),
        "io.save_report.s": s("io.save_report"),
        "io.dataset_bytes": nbytes,
        "io.save_dataset.MBps": nbytes / 1e6 / s("io.save_dataset") if nbytes else 0.0,
        "io.load_dataset.MBps": nbytes / 1e6 / s("io.load_dataset") if nbytes else 0.0,
        "moments.estimate_sixth.s": direct["estimate_sixth"],
        "moments.cross_covariance.s": direct["cross_covariance"],
        "moments.assemble_pi.s": s("moments.assemble_pi"),
        "moments.symmetrize_tensor3.s": s("moments.symmetrize_tensor3"),
        "moments.sixth_flops": flops,
        "moments.sixth_GFLOPps": flops / 1e9 / direct["estimate_sixth"],
        "moments.tensor_bytes": 8 * q**3,
        "tensor.jennrich_decompose.s": s("tensor.jennrich_decompose"),
        "tensor.restart_attempts": attempts,
        "tensor.restart_successes": successes,
        "tensor.restart_success_ratio": successes / attempts if attempts else 0.0,
        "learn.learn_mixture.s": s("learn.learn_mixture"),
        "learn.learn_mixture.self_s": self_s("learn.learn_mixture"),
        "learn.learn_markov_components.s": s("learn.learn_markov_components"),
        "learn.recover_weights.s": s("learn.recover_weights"),
        "learn.align_similarity.s": s("learn.align_similarity"),
        "learn.tensor_residual_rel": diag["tensor_residual"] / diag["tensor_norm"],
        "learn.clamped_weights": int(sum(bool(c) for c in diag["clamped"])),
        "learn.param_error": result.param_error,
        "learn.weight_error": result.weight_error,
        "hokalman.ho_kalman.calls": calls("hokalman.ho_kalman"),
        "hokalman.ho_kalman.s": s("hokalman.ho_kalman"),
        "hokalman.rank_warnings": tracer.warning_counts.get("RankDeficiencyWarning", 0),
        "cluster.cluster_dataset.s": s("cluster.cluster_dataset"),
        "cluster.component_log_likelihood.calls": calls("cluster.component_log_likelihood"),
        "cluster.component_log_likelihood.s": s("cluster.component_log_likelihood"),
        "cluster.cholesky_retries":
            calls("cluster.cho_factor") - calls("cluster.component_log_likelihood"),
        "cli.generate.s": s("cli.generate"),
        "cli.learn.s": s("cli.learn"),
        "cli.evaluate.s": s("cli.evaluate"),
        "cli.cluster.s": s("cli.cluster"),
        "cli.manifest_learn_s": result.manifest_learn_s,
        "trace.pipeline_s": root.end - root.start,
        "trace.self_sum_s": tracer.self_time_sum(),
        "trace.unattributed_s": root.self_s,
    }


def untraced(wl, truth, seeds, seconds, workdir, run, info):
    """Set-up probes, a warm-up pass, then passes until ``seconds`` have gone."""
    setup_times = measure_setup(os.path.join(flows.DATA_DIR, wl.mixture))
    info["setup_s"] = setup_times
    info["warmup"] = flows.warm_up(wl, truth, seeds, workdir)
    passes = []
    start = time.perf_counter()
    while len(passes) < MIN_PASSES or time.perf_counter() - start < seconds:
        result = one_pass(wl, truth, seeds, workdir, run, passes)
        if result is None:
            break
        passes.append(result)
    if not passes:
        return {}
    info["passes"] = [{"pipeline_s": r.pipeline_s, "phases_s": r.times} for r in passes]
    info["param_error"] = passes[0].param_error
    info["weight_error"] = passes[0].weight_error
    return end_to_end(wl, passes, setup_times)


def measure(wl, seed: int, seconds: float, trace: int):
    """One benchmark run: returns (details line, result line)."""
    truth = flows.load_truth(wl)
    seeds = flows.Seeds.from_seed(seed)
    run = Run()
    info = {"workload": wl.name, "seed": seed, "seconds": seconds, "trace": trace,
            "sizes": sizes(wl, truth), "env": environment()}
    os.makedirs(WORK_ROOT, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix="run-", dir=WORK_ROOT)
    try:
        body = traced if trace else untraced
        values = body(wl, truth, seeds, seconds, workdir, run, info)
    except Exception:  # a crash fails the run, which still reports what it has
        run.crash()
        values = {}
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    table = metrics.PER_LAYER if trace else metrics.END_TO_END
    missing = [m.name for m in table if m.name not in values]
    if missing:
        run.check("every_metric_reported", False, f"missing {missing}")
    if trace:
        info["metric_notes"] = {m.name: {"moves": m.moves, "computed": m.computed} for m in table}
    info["checks"] = run.checks
    info["failed_frac"] = run.failed / max(run.attempted, 1)
    out = {
        "correct": run.failed == 0,
        "attempted": max(run.attempted, 1),
        "failed": run.failed,
        "metrics": {
            m.name: {"value": values[m.name], "unit": m.unit} for m in table if m.name in values
        },
    }
    return info, out


def traced(wl, truth, seeds, seconds, workdir, run, info):
    """A warm-up pass, then rounds of (traced pass, untraced pass) until
    ``seconds`` have gone; per-layer medians over the traced passes."""
    info["warmup"] = flows.warm_up(wl, truth, seeds, workdir)
    plain_s, rows, spans, aggregates = [], [], [], []
    direct = None
    nonzero = 0
    start = time.perf_counter()
    while not rows or time.perf_counter() - start < seconds:
        before = flows.module_snapshot()
        with Tracer() as tracer:
            flows.wrap_layers(tracer)
            result = flows.run_flow(wl, truth, seeds, workdir, keep_data=direct is None,
                                    span=tracer.span)
        run.check("trace_restored_attributes", flows.module_snapshot() == before,
                  "every wrapped ldslab attribute is the original object again")
        run.phases(result, _n_phases(wl))
        nonzero += len(result.failed_phases)
        if result.failed_phases:
            break
        if direct is None:
            for name, ok, detail in flows.check_flow(wl, truth, seeds, result, workdir):
                run.check(name, ok, detail)
            direct = flows.direct_moment_calls(wl, result, workdir)
            result.dataset = None
        row = per_layer(wl, truth, result, tracer, direct)
        gap = abs(row["trace.self_sum_s"] - row["trace.pipeline_s"])
        run.check("trace_self_times_sum_to_pipeline", gap <= 1e-6,
                  f"|sum of self times - pipeline| = {gap:.3g} s")
        rows.append(row)
        spans.append([vars(sp) for sp in tracer.spans])
        aggregates.append({name: list(agg) for name, agg in tracer.aggregates.items()})

        plain = flows.run_flow(wl, truth, seeds, workdir)
        run.phases(plain, _n_phases(wl))
        nonzero += len(plain.failed_phases)
        if plain.failed_phases:
            break
        plain_s.append(plain.pipeline_s)
    info.update(spans=spans, aggregates=aggregates, untraced_pipeline_s=plain_s)
    if not rows or not plain_s:
        return {}
    values = {key: statistics.median(row[key] for row in rows) for key in rows[0]}
    values["cli.nonzero_exits"] = nonzero
    values["trace.overhead_s"] = values["trace.pipeline_s"] - statistics.median(plain_s)
    return values
