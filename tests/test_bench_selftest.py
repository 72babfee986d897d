"""The benchmark's self-test: every workload at tiny sizes, answers
checked against brute force, result schema intact; and the traced run's
wrap targets still resolving."""

import importlib.util
import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_benchmark_self_test_passes():
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--self-test"],
        cwd=ROOT, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr[-2000:]
    last = json.loads(proc.stdout.strip().splitlines()[-1])
    assert last["failed"] == 0


# Trace targets that name functions no longer in flowsentry; their
# per-layer metrics read 0 until the benchmark is mended.
UNRESOLVED_TRACE_TARGETS = {
    "flowsentry.family.classify_edges",
    "flowsentry.mincut.classify_edges",
    "flowsentry.mincut.max_flow",
    "flowsentry.kfault.max_flow",
    "flowsentry.kfault.build_mincut_oracle_raw",
    "flowsentry.oracles.build_ft_index",
    "flowsentry.oracles.decreases_by_k",
    "flowsentry.oracles.strongly_connected_without",
    "flowsentry.kfault.decreases_by_k",
    "flowsentry.mincut.decreases_by_k",
    "flowsentry.kfault.report_nmc_after",
}


def test_trace_targets_resolve():
    # renaming a traced function must fail here, not zero its metric, and
    # mending one must drop it from the list above
    spec = importlib.util.spec_from_file_location(
        "perfbench_tracing", ROOT / "perfbench" / "tracing.py")
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    tracer = tracing.Tracer()
    with tracer.installed():
        pass
    assert set(tracer.missing) == UNRESOLVED_TRACE_TARGETS
