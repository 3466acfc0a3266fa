"""Every metric the benchmark reports: name, unit, better direction, and what it should move.

``BENCHMARK.json`` at the repository root lists the same names, units and
directions (its format has no room for the notes kept here); ``test_smoke.py``
checks that the two agree.

End-to-end metrics come from untraced runs (``--trace 0``).  Per-layer metrics
come from the traced run (``--trace 1``); each names the end-to-end metric and
workload it should move.  A per-layer metric of a layer a workload does not
reach reads 0 there (no calls, no time).  ``computed`` marks numbers derived
from the problem size rather than measured.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Optional


@dataclass(frozen=True)
class Metric:
    name: str
    unit: str
    better: str  # "lower" or "higher"
    bound: Optional[float] = None  # end-to-end only: allowed worsening, share of the median
    moves: str = ""
    computed: bool = False


END_TO_END = (
    Metric("pipeline_s", "s", "lower", 0.25,
           "wall time of one generate -> learn -> evaluate -> cluster pass (median of passes)"),
    Metric("generate_traj_per_s", "1/s", "higher", 0.25,
           "training plus holdout trajectories per second of generation; "
           "in cli-files-20k this includes the JSONL writes"),
    Metric("learn_traj_per_s", "1/s", "higher", 0.25,
           "training trajectories per second of learning; in cli-files-20k this "
           "includes the load and the model and manifest writes"),
    Metric("cluster_traj_per_s", "1/s", "higher", 0.25,
           "holdout trajectories per second of clustering; in cli-files-20k this "
           "includes the loads and the posterior report write"),
    Metric("peak_rss_mb", "MB", "lower", 0.1, "peak resident memory of the run's process"),
    Metric("setup_s", "s", "lower", 0.25,
           "median wall time of a fresh interpreter importing ldslab and loading the "
           "pinned truth mixture"),
    Metric("cluster_accuracy", "ratio", "higher", 0.05,
           "holdout share whose posterior argmax, mapped through evaluate's "
           "truth_index, is the generating component"),
)

_GEN = "generate_traj_per_s, pipeline_s, peak_rss_mb on paper-200k"
_IO = "generate_traj_per_s, learn_traj_per_s, cluster_traj_per_s, pipeline_s on cli-files-20k"
_MOM = "learn_traj_per_s, peak_rss_mb on wide-q112"
_TEN = "learn_traj_per_s, param_error on wide-q112"
_CLU = "cluster_traj_per_s, pipeline_s on cli-files-20k (and on the holdout of every workload)"
_CLI = "cross-check of the outside spans against the program's own timers, cli-files-20k"

PER_LAYER = (
    Metric("rng.substream.calls", "count", "lower", moves=_GEN),
    Metric("rng.substream.s", "s", "lower", moves=_GEN),
    Metric("lds.draw_lds_noise.calls", "count", "lower", moves=_GEN),
    Metric("lds.draw_lds_noise.s", "s", "lower", moves=_GEN),
    Metric("lds.trajectory_build.calls", "count", "lower", moves=_GEN),
    Metric("lds.trajectory_build.s", "s", "lower", moves=_GEN),
    Metric("lds.sample_mixture_dataset.s", "s", "lower", moves=_GEN),
    Metric("lds.sample_mixture_dataset.self_s", "s", "lower",
           moves=_GEN + " (label search plus recurrence)"),
    Metric("io.save_dataset.s", "s", "lower", moves=_IO),
    Metric("io.load_dataset.s", "s", "lower", moves=_IO),
    Metric("io.save_report.s", "s", "lower", moves=_IO),
    Metric("io.dataset_bytes", "B", "lower", moves=_IO + " (training plus holdout file)"),
    Metric("io.save_dataset.MBps", "MB/s", "higher", moves=_IO),
    Metric("io.load_dataset.MBps", "MB/s", "higher", moves=_IO),
    Metric("moments.estimate_sixth.s", "s", "lower",
           moves=_MOM + " (one direct MomentTensor6.estimate call, outside the flow)"),
    Metric("moments.cross_covariance.s", "s", "lower",
           moves=_MOM + " (one direct CrossCovarianceStack.estimate call, outside the flow)"),
    Metric("moments.assemble_pi.s", "s", "lower", moves=_MOM),
    Metric("moments.symmetrize_tensor3.s", "s", "lower", moves=_MOM),
    Metric("moments.sixth_flops", "count", "lower", moves=_MOM + "; 2*N*(2s+1)^3*(mp)^3",
           computed=True),
    Metric("moments.sixth_GFLOPps", "GFLOP/s", "higher",
           moves=_MOM + "; computed flops over measured estimate_sixth.s"),
    Metric("moments.tensor_bytes", "B", "lower", moves=_MOM + "; 8*q^3", computed=True),
    Metric("tensor.jennrich_decompose.s", "s", "lower", moves=_TEN),
    Metric("tensor.restart_attempts", "count", "lower", moves=_TEN + "; contract_mode3 calls / 2"),
    Metric("tensor.restart_successes", "count", "higher", moves=_TEN + "; reconstruct calls"),
    Metric("tensor.restart_success_ratio", "ratio", "higher", moves=_TEN),
    Metric("learn.learn_mixture.s", "s", "lower",
           moves="learn_traj_per_s on paper-200k"),
    Metric("learn.learn_mixture.self_s", "s", "lower",
           moves="learn_traj_per_s on paper-200k (stacking, sixth-moment sums, cross-covariance)"),
    Metric("learn.learn_markov_components.s", "s", "lower", moves="learn_traj_per_s on paper-200k"),
    Metric("learn.recover_weights.s", "s", "lower", moves="learn_traj_per_s on paper-200k"),
    Metric("learn.align_similarity.s", "s", "lower", moves="pipeline_s on every workload"),
    Metric("learn.tensor_residual_rel", "ratio", "lower",
           moves="param_error, weight_error on every workload; LearnedMixture.diagnostics"),
    Metric("learn.clamped_weights", "count", "lower",
           moves="param_error, weight_error on every workload; LearnedMixture.diagnostics"),
    Metric("learn.param_error", "norm", "lower",
           moves="maximum similarity-aligned Frobenius error against the truth, every workload"),
    Metric("learn.weight_error", "abs", "lower",
           moves="maximum mixing-weight error against the truth, every workload"),
    Metric("hokalman.ho_kalman.calls", "count", "lower", moves="param_error on every workload"),
    Metric("hokalman.ho_kalman.s", "s", "lower", moves="param_error on every workload"),
    Metric("hokalman.rank_warnings", "count", "lower",
           moves="param_error on every workload; RankDeficiencyWarning count"),
    Metric("cluster.cluster_dataset.s", "s", "lower", moves=_CLU),
    Metric("cluster.component_log_likelihood.calls", "count", "lower", moves=_CLU),
    Metric("cluster.component_log_likelihood.s", "s", "lower", moves=_CLU),
    Metric("cluster.cholesky_retries", "count", "lower",
           moves=_CLU + "; cho_factor calls minus likelihood calls (jitter fallbacks)"),
    Metric("cli.generate.s", "s", "lower", moves=_CLI),
    Metric("cli.learn.s", "s", "lower", moves=_CLI),
    Metric("cli.evaluate.s", "s", "lower", moves=_CLI),
    Metric("cli.cluster.s", "s", "lower", moves=_CLI),
    Metric("cli.nonzero_exits", "count", "lower", moves=_CLI),
    Metric("cli.manifest_learn_s", "s", "lower",
           moves=_CLI + "; wall_time_s.learn of the learn manifest"),
    Metric("trace.pipeline_s", "s", "lower", moves="pipeline_s of the traced pass"),
    Metric("trace.self_sum_s", "s", "lower",
           moves="sum of every span's self time; equals trace.pipeline_s"),
    Metric("trace.unattributed_s", "s", "lower",
           moves="self time of the root span: time in no wrapped ldslab call"),
    Metric("trace.overhead_s", "s", "lower",
           moves="traced pipeline_s minus untraced pipeline_s in the same run"),
)
