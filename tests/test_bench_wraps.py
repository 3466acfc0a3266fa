"""The benchmark's tracer wraps ldslab attributes by name (perfbench/flows.py,
``wrap_layers``); a refactor that deletes or renames one of them must fail
here rather than only in a traced benchmark run."""
import importlib.util
import os
import sys

import numpy as np

import ldslab as L
from ldslab import tensor
from ldslab.moments import MomentTensor6

FLOWS = os.path.join(os.path.dirname(__file__), os.pardir, "perfbench", "flows.py")


class RecordingTracer:
    """Stands in for perfbench's Tracer: records each wrap instead of patching."""

    def __init__(self):
        self.wrapped = []

    def wrap(self, owner, attr, name, aggregate=False):
        assert hasattr(owner, attr), f"perfbench wraps {owner.__name__}.{attr}, which is gone"
        self.wrapped.append((owner.__name__, attr))


def test_every_attribute_the_benchmark_wraps_exists(monkeypatch):
    spec = importlib.util.spec_from_file_location("perfbench_flows", FLOWS)
    flows = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, flows)  # its dataclasses look it up
    spec.loader.exec_module(flows)
    tracer = RecordingTracer()
    flows.wrap_layers(tracer)
    assert ("ldslab.tensor", "reconstruct") in tracer.wrapped
    assert ("ldslab.cli", "cmd_cluster") in tracer.wrapped


def test_restart_counts_come_from_the_decomposition(monkeypatch, benchmark_mixture):
    """perfbench reads ``tensor.restart_attempts`` as contract_mode3 calls / 2
    and ``tensor.restart_successes`` as reconstruct calls: one learn on exact
    moments must make two contractions and one reconstruction per restart, and
    no reconstruction of its own."""
    calls = {"contract_mode3": 0, "reconstruct": 0}

    def counting(name):
        inner = getattr(tensor, name)

        def wrapper(*args, **kwargs):
            calls[name] += 1
            return inner(*args, **kwargs)
        return wrapper

    s = 2
    flat = L.assemble_pi(MomentTensor6.exact(benchmark_mixture, s))
    rhat = L.CrossCovarianceStack.exact(benchmark_mixture, s)
    for name in calls:
        monkeypatch.setattr(tensor, name, counting(name))
    L.learn_mixture_from_moments(flat, rhat, benchmark_mixture.k, 2, s, np.random.default_rng(0))
    assert calls == {"contract_mode3": 2 * tensor.RESTARTS, "reconstruct": tensor.RESTARTS}
