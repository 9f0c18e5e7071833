"""The benchmark's identity-sweep workload (bench/workloads.py) must keep running.

It calls the ``verify_*`` checks positionally, through the package, and
refuses an operation whose report carries ``params["error"]``.  A change to
those signatures or to that key would show in the benchmark only as a lower
pass share; here it fails a test.
"""

import importlib.util
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent.parent / "bench"


def _workloads_module():
    # workloads imports its sibling reference.py as a top-level module
    if str(BENCH) not in sys.path:
        sys.path.insert(0, str(BENCH))
    spec = importlib.util.spec_from_file_location("bench_workloads", BENCH / "workloads.py")
    module = sys.modules[spec.name] = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


workloads = _workloads_module()


def test_identity_sweep_ops_all_pass():
    ops = workloads.identity_sweep(401).ops
    assert len(ops) == 22
    for op in ops:
        # a report that recorded an error raises Refused here
        err, ok = op.check(op.run())
        assert ok, (op.label, err)
