"""The benchmark's tracer wraps ldslab attributes by name (perfbench/flows.py,
``wrap_layers``); a refactor that deletes or renames one of them must fail
here rather than only in a traced benchmark run."""
import importlib.util
import os
import sys

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
