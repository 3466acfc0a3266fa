"""The benchmark's tracer wraps ldslab attributes by name (perfbench/flows.py,
``wrap_layers``), and its flows read others without wrapping them; a refactor
that deletes or renames one of them must fail here rather than only in a
benchmark run."""
import dataclasses
import importlib.util
import os
import sys

import numpy as np

import ldslab as L
import oracles
from ldslab import learn, tensor

FLOWS = os.path.join(os.path.dirname(__file__), os.pardir, "perfbench", "flows.py")


class RecordingTracer:
    """Stands in for perfbench's Tracer: records each wrap instead of patching."""

    def __init__(self):
        self.wrapped = []

    def wrap(self, owner, attr, name, aggregate=False):
        assert hasattr(owner, attr), f"perfbench wraps {owner.__name__}.{attr}, which is gone"
        self.wrapped.append((owner.__name__, attr))


def count_calls(monkeypatch, module, names):
    """Patch each named attribute of ``module`` with a wrapper that counts its
    calls; returns the name -> count dict the wrappers update."""
    calls = dict.fromkeys(names, 0)

    def counting(name, inner):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return inner(*args, **kwargs)
        return wrapper

    for name in names:
        monkeypatch.setattr(module, name, counting(name, getattr(module, name)))
    return calls


def load_flows(monkeypatch):
    spec = importlib.util.spec_from_file_location("perfbench_flows", FLOWS)
    flows = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, flows)  # its dataclasses look it up
    spec.loader.exec_module(flows)
    return flows


def test_every_attribute_the_benchmark_wraps_exists(monkeypatch):
    flows = load_flows(monkeypatch)
    tracer = RecordingTracer()
    flows.wrap_layers(tracer)
    assert ("ldslab.tensor", "reconstruct") in tracer.wrapped
    assert ("ldslab.cli", "cmd_cluster") in tracer.wrapped


def test_restart_counts_come_from_the_decomposition(monkeypatch, benchmark_mixture):
    """perfbench reads ``tensor.restart_attempts`` as contract_mode3 calls / 2
    and ``tensor.restart_successes`` as reconstruct calls: one learn on exact
    moments must make two contractions and one reconstruction per restart, and
    no reconstruction of its own."""
    s = 2
    flat, rhat = oracles.exact_moments(benchmark_mixture, s)
    calls = count_calls(monkeypatch, tensor, ("contract_mode3", "reconstruct"))
    L.learn_mixture_from_moments(flat, rhat, benchmark_mixture.k, 2, s, np.random.default_rng(0))
    assert calls == {"contract_mode3": 2 * tensor.RESTARTS, "reconstruct": tensor.RESTARTS}


def test_one_learn_calls_every_learn_stage_the_benchmark_wraps(monkeypatch, benchmark_mixture):
    """perfbench times the learn stages by wrapping their names in
    ``ldslab.learn``'s namespace.  A learn that stopped calling one of them
    through that namespace would only show as a per-layer metric that reads 0,
    so one learn_mixture on a small paper-mixture dataset must call each."""
    stages = ("assemble_pi", "symmetrize_tensor3", "learn_mixture_from_moments",
              "learn_markov_components", "jennrich_decompose", "recover_weights", "ho_kalman")
    tracer = RecordingTracer()
    load_flows(monkeypatch).wrap_layers(tracer)
    assert {("ldslab.learn", name) for name in stages} <= set(tracer.wrapped)
    ds = L.sample_mixture_dataset(benchmark_mixture, 2000, 15, L.NoiseConfig(seed=8))
    calls = count_calls(monkeypatch, learn, stages)
    learn.learn_mixture(ds, 2, 2, 2, np.random.default_rng(9))
    assert all(calls.values()), calls


def test_the_benchmark_library_flow_runs_and_its_checks_pass(monkeypatch, tmp_path):
    """One untraced library flow of perfbench at its warm-up size on the paper
    mixture, with the output checks it makes: posteriors (``.probabilities``
    against ``kalman_log_likelihood``), the alignment (``permutation``,
    ``max_param_error``, ``max_weight_error``) and the diagnostics it records.
    The criterion-6 ceilings are a claim about the full-size run, so the
    warm-up workload drops them."""
    flows = load_flows(monkeypatch)
    wl = dataclasses.replace(flows.WORKLOADS["paper-200k"], **flows.WARMUP, ceilings=None)
    truth = flows.load_truth(wl)
    seeds = flows.Seeds.from_seed(flows.DEFAULT_SEED)
    result = flows.run_library(wl, truth, seeds)
    checks = flows.check_flow(wl, truth, seeds, result, str(tmp_path))
    assert {name for name, _, _ in checks} == {"model_finite_with_k_components",
                                               "posteriors_match_kalman"}
    assert all(ok for _, ok, _ in checks), checks
    assert sorted(result.permutation) == list(range(truth.k))
    assert np.isfinite(result.param_error) and np.isfinite(result.weight_error)
    assert {"tensor_residual", "tensor_norm", "clamped"} <= set(result.diagnostics)
