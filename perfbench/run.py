"""flowsentry benchmark: oracle build cost, query latency and oracle size.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload sens-build --seed 3 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seconds 20   # every workload, both modes
    python3 perfbench/run.py --self-test                   # tiny sizes, schema + correctness

One run parses the serialized graph and then makes several rounds. A
round builds the workload's oracle, saves it with cli.save_oracle and
loads it back with cli.load_oracle, the path of `flowsentry query
--oracle`. The loaded oracle answers every query of the seeded pool once,
untimed, and those answers are checked. Then fresh-interpreter loads of
the file alternate with timed query slices, in which the oracle answers
the pool in a closed loop: one process, one thread, each query issued
after the previous answer. setup_s is the median build time of the run.
load_s is the fastest of the run's loads, and the query metrics are taken
over each pool query's fastest timed latency, so that they describe the
program rather than the host's slow spells.
With --trace 1 the run also makes one traced cold start (parse, build,
save, load) and one traced pass over the pool, and reports the per-layer
metrics instead of the end-to-end ones. See perfbench/README.md for the
workloads and what each metric means.

The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics. The share of failed queries
(fail_ratio) is failed / attempted.
"""

import argparse
import gc
import hashlib
import json
import math
import os
import statistics
import subprocess
import sys
import tempfile
import time
from array import array
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
if not (ROOT / "src" / "flowsentry" / "__init__.py").is_file():
    sys.exit(f"error: no flowsentry sources under {ROOT / 'src'}")
sys.path.insert(0, str(ROOT / "src"))

from flowsentry import graph  # noqa: E402
from tracing import SpanStats, Tracer  # noqa: E402
from workloads import (  # noqa: E402
    DUAL_KINDS, GRAPH_SEED, KFAULT_KINDS, SENS_KINDS, WORKLOADS, Checker, bind,
    failures_of,
)

LAYERS = ("graph", "flows", "family", "mincut", "ftscc", "oracles", "kfault",
          "cli")
TRAVERSALS = ("ftscc.cycle", "ftscc.connected")
# fresh-interpreter loads per run, spread evenly over its rounds, each
# followed by a timed query slice; load_s is the fastest of them
LOADS_PER_RUN = 16
# One cli.load_oracle in a fresh interpreter, as `flowsentry query --oracle`
# pays it on every start; prints the seconds it took. In a long-lived process
# the time depends on how many collections the garbage collector happens to
# run during the load, which depends on the size of the heap around it.
LOAD_ONCE = """\
import sys, time
sys.path.insert(0, sys.argv[1])
from flowsentry import cli
t0 = time.perf_counter()
cli.load_oracle(sys.argv[2], bytes.fromhex(sys.argv[3]))
print(time.perf_counter() - t0)
"""
RAISED = object()  # stands for the answer of a query that raised


def percentile(sorted_vals, q):
    """Nearest-rank percentile of an ascending sequence."""
    return sorted_vals[max(0, math.ceil(q * len(sorted_vals)) - 1)]


def timed_phase(calls, seconds):
    """Answer calls[i % len(calls)] in a closed loop for `seconds`, and
    at least once each.

    The loop only calls and times; answers are judged separately, by
    answer_pass. Returns per-query latencies (ns) and the indices i whose
    call raised.
    """
    n_calls = len(calls)
    lat = array("q")
    raised = []
    clock = time.perf_counter_ns
    deadline = clock() + int(seconds * 1e9)
    i = 0
    while True:
        fn, args = calls[i % n_calls]
        t0 = clock()
        try:
            fn(*args)
        except Exception:
            raised.append(i)
        t1 = clock()
        lat.append(t1 - t0)
        i += 1
        if t1 >= deadline and i >= n_calls:
            return lat, raised


def answer_pass(calls):
    """One untimed answer to every call; RAISED for a call that raised."""
    out = []
    for fn, args in calls:
        try:
            out.append(fn(*args))
        except Exception:
            out.append(RAISED)
    return out


def times_asked(j, attempted, n):
    """How often a phase of `attempted` queries cycling through n asked
    query j."""
    return attempted // n + (j < attempted % n)


def keep_fastest(best, seg):
    """seg[i] is a latency of query i % len(best); lower each best[j] to
    the fastest latency of query j in seg."""
    n = len(best)
    for j in range(n):
        best[j] = min(best[j], min(seg[j::n]))


def timed(fn, *args):
    """(fn(*args), seconds it took), after a full garbage collection."""
    gc.collect()
    t0 = time.perf_counter()
    out = fn(*args)
    return out, time.perf_counter() - t0


def fresh_load(path, digest):
    """Seconds one cli.load_oracle of path takes in a fresh interpreter."""
    out = subprocess.run(
        [sys.executable, "-c", LOAD_ONCE, str(ROOT / "src"), path,
         digest.hex()],
        capture_output=True, text=True, check=True, timeout=120)
    return float(out.stdout)


def check_answers(net, oracle, pool, answers):
    """Judge one answer to each pool query against brute_force; answers
    may run on past the pool.

    Returns (indices of wrong or raised answers, brute-force microseconds
    per kind).
    """
    checker = Checker(net, oracle)
    wrong = set()
    brute_us = {}
    for j, ((kind, args), ans) in enumerate(zip(pool, answers)):
        try:
            ok = ans is not RAISED and checker.check(kind, args, ans)
        except Exception as exc:
            print(f"check of {kind} {args} raised {exc!r}", file=sys.stderr)
            ok = False
        if not ok:
            print(f"wrong answer: {kind} {args} -> {ans!r}", file=sys.stderr)
            wrong.add(j)
        brute_us.setdefault(kind, []).append(
            checker.brute(failures_of(kind, args))[2] * 1e6)
    return wrong, brute_us


def traced_cold_start(wl, text, digest, tmp):
    """Parse, build, save and load once with every layer traced."""
    tracer = Tracer()
    path = os.path.join(tmp, "traced.bin")
    with tracer.installed():
        net = graph.parse_network(text)
        with tracer.span(wl.build_span):
            built = wl.build(net)
        wl.save(path, digest, built)
        wl.load(path, digest)
    return tracer


def traced_pass(pool, calls):
    """Ask every pool query once with every layer traced."""
    tracer = Tracer()
    with tracer.installed():
        for (kind, args), (fn, _) in zip(pool, calls):
            with tracer.span("query." + kind):
                try:
                    fn(*args)
                except Exception:
                    pass  # the timed phase already counted it
    return tracer


def run(wl, seed, seconds, trace, tiny=False):
    """Measure one workload; returns (properties, result).

    The run is made of rounds, one per build. A round builds the oracle,
    loads the saved file in this process and answers every pool query once,
    untimed, which both checks the answers and warms the caches. Then it
    alternates fresh-interpreter loads of the file with timed query slices,
    LOADS_PER_RUN of each over the run, the slices sharing --seconds
    equally. So builds, loads and queries are each spread over the whole
    run. Every build runs on the same heap, without an oracle left over
    from the round before.
    """
    text = graph.serialize_network(wl.network(tiny))
    digest = hashlib.sha256(text.encode()).digest()
    net = graph.parse_network(text)
    reps = 2 if tiny else wl.build_reps
    slice_s = seconds / LOADS_PER_RUN
    pool = wl.make_pool(net, seed, tiny)
    best = [math.inf] * len(pool)
    setups, loads = [], []
    attempted, failed = 0, 0
    (ROOT / ".bench_build").mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=ROOT / ".bench_build") as tmp:
        path = os.path.join(tmp, "oracle.bin")
        for r in range(reps):
            built, setup = timed(wl.build, net)
            setups.append(setup)
            if r == 0:
                wl.save(path, digest, built)
                oracle_bytes = os.path.getsize(path)
            del built
            gc.collect()
            oracle = wl.load(path, digest)
            calls = [(bind(oracle, kind), args) for kind, args in pool]

            # an untimed answer to every pool query stands for the timed
            # answers to it: in the first round, those of the first
            # `checked` queries (a seeded sample, as the pool is shuffled)
            # are checked against brute_force; each later round's answers
            # are checked against the first round's
            answers = answer_pass(calls)
            if r == 0:
                lam = oracle.lam
                entries = len(oracle.entries) if wl.k else 0
                reference = answers
                checked = len(pool) if tiny else wl.checked
                wrong, brute_us = check_answers(net, oracle, pool[:checked],
                                                answers)
            bad = wrong | {j for j, a in enumerate(answers)
                           if a is not reference[j] and a != reference[j]}
            for _ in range(LOADS_PER_RUN // reps):
                loads.append(fresh_load(path, digest))
                gc.collect()
                seg, raised = timed_phase(calls, slice_s)
                seg_bad = bad | {i % len(pool) for i in raised}
                failed += sum(times_asked(j, len(seg), len(pool))
                              for j in seg_bad)
                attempted += len(seg)
                keep_fastest(best, seg)
            if trace and r == reps - 1:
                passed = traced_pass(pool, calls)
            del oracle, calls, answers
        if trace:
            cold = traced_cold_start(wl, text, digest, tmp)

    setup_s = statistics.median(setups)
    props = {
        "workload": wl.name, "seed": seed, "graph_seed": GRAPH_SEED,
        "n": net.n, "m": net.m, "lam": lam, "k": wl.k,
        "pool": len(pool), "checked": checked, "build_reps": reps,
        "load_reps": len(loads),
        "seconds": seconds,
    }
    if trace:
        metrics = layer_metrics(wl, SpanStats(cold.spans),
                                SpanStats(passed.spans), setup_s, entries,
                                pool, best, brute_us)
        props["untraced"] = cold.missing
    else:
        ordered = sorted(best)
        metrics = {
            "setup_s": setup_s,
            "query_p50_us": percentile(ordered, 0.50) / 1e3,
            "query_p99_us": percentile(ordered, 0.99) / 1e3,
            "query_qps": len(best) / (sum(best) / 1e9),
            "oracle_bytes": oracle_bytes,
            "load_s": min(loads),
        }
    result = {"correct": failed == 0, "attempted": attempted, "failed": failed,
              "metrics": metrics}
    return props, result


def layer_metrics(wl, cold, q, setup_s, entries, pool, best, brute_us):
    """Per-layer metrics from the traced cold start, the traced pool pass and
    the untraced timed phase (best: each pool query's fastest latency)."""
    m = {"trace.overhead_s": cold.total(wl.build_span) - setup_s}
    m["graph.parse_s"] = cold.total("graph.parse")
    m["graph.prune_s"] = cold.total("graph.prune")
    for stage in ("classify", "calibrate", "auxiliary", "peel", "extend"):
        m[f"family.{stage}_s"] = cold.total(f"family.{stage}")
    m["flows.max_flow_calls"] = cold.count("flows.max_flow")
    m["flows.max_flow_s"] = cold.total("flows.max_flow")
    m["mincut.build_s"] = cold.self_of("mincut.build", "mincut.build_raw")
    m["ftscc.build_s"] = cold.total("ftscc.build")
    m["kfault.enumerate_s"] = cold.total("kfault.enumerate")
    m["kfault.entries"] = entries
    m["kfault.entry_build_s"] = cold.total("mincut.build_raw")
    m["cli.save_s"] = cold.total("cli.save")
    for layer in LAYERS:
        m[f"{layer}.self_s"] = cold.layer_self(layer)

    dual_roots = {"query." + k for k in DUAL_KINDS}
    n_dual = q.count(*dual_roots)
    m["ftscc.traversals_per_dual_query"] = (
        q.count(*TRAVERSALS) / n_dual if n_dual else 0)
    m["ftscc.dual_traverse_share"] = (
        q.roots_with_child(dual_roots, TRAVERSALS) / n_dual if n_dual else 0)
    m["ftscc.query_s"] = q.total(*TRAVERSALS)
    calls = q.count("mincut.decreases_by_k")
    m["mincut.decreases_by_k_calls_per_query"] = calls / len(pool)
    m["mincut.decreases_by_k_s"] = q.total("mincut.decreases_by_k")
    m["mincut.report_nmc_s"] = q.total("mincut.report_nmc")
    m["kfault.certified_ratio"] = (
        q.true_count("mincut.decreases_by_k") / calls if wl.k and calls else 0)

    oracle_us = {}
    for (kind, _), ns in zip(pool, best):
        oracle_us.setdefault(kind, []).append(ns / 1e3)
    for vals in oracle_us.values():
        vals.sort()
    for kind in SENS_KINDS + KFAULT_KINDS:
        vals = oracle_us.get(kind)
        p50 = percentile(vals, 0.50) if vals else 0
        layer = "kfault" if kind in KFAULT_KINDS else "oracles"
        m[f"{layer}.{kind}_p50_us"] = p50
        if layer == "oracles":
            m[f"oracles.{kind}_p99_us"] = percentile(vals, 0.99) if vals else 0
        ref = brute_us.get(kind)
        ref50 = statistics.median(ref) if ref else 0
        m[f"bruteforce.{kind}_p50_us"] = ref50
        m[f"bruteforce.ratio.{kind}"] = ref50 / p50 if p50 else 0
    return m


def load_spec():
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        spec = json.load(fh)
    return ({d["name"]: d["unit"] for d in spec["end_to_end"]},
            {d["name"]: d["unit"] for d in spec["per_layer"]})


def with_units(result, units):
    """Attach units from BENCHMARK.json; list any schema problems."""
    problems = []
    got = result["metrics"]
    if set(got) != set(units):
        problems.append(f"metrics missing {sorted(set(units) - set(got))}, "
                        f"unexpected {sorted(set(got) - set(units))}")
    for name, value in got.items():
        if isinstance(value, bool) or not isinstance(value, (int, float)) \
                or not math.isfinite(value):
            problems.append(f"{name} = {value!r} is not a finite number")
    if result["attempted"] < 1:
        problems.append("no query was attempted")
    result["metrics"] = {name: {"value": value, "unit": units.get(name, "")}
                         for name, value in got.items()}
    return problems


def run_all(names, seed, seconds, tiny, spec):
    """Every named workload in both trace modes; one combined result line."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    problems = []
    for name in names:
        for trace in (0, 1):
            props, result = run(WORKLOADS[name], seed, seconds, trace, tiny)
            problems += [f"{name} trace {trace}: {p}"
                         for p in with_units(result, spec[trace])]
            print(json.dumps({"properties": props}))
            combined["correct"] &= result["correct"]
            combined["attempted"] += result["attempted"]
            combined["failed"] += result["failed"]
            for metric, v in result["metrics"].items():
                combined["metrics"][f"{name}/{metric}"] = v
    return combined, problems


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", help="a workload name, or all")
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=20)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--self-test", action="store_true",
                   help="every workload at tiny sizes for 1 s, both modes; "
                        "checks the output schema and that nothing failed")
    args = p.parse_args(argv)
    spec = load_spec()

    if args.self_test or args.workload == "all":
        tiny = args.self_test
        seconds = 1 if tiny else args.seconds
        result, problems = run_all(list(WORKLOADS), args.seed, seconds, tiny,
                                   spec)
    elif args.workload in WORKLOADS:
        props, result = run(WORKLOADS[args.workload], args.seed, args.seconds,
                            args.trace)
        problems = with_units(result, spec[args.trace])
        print(json.dumps({"properties": props}))
    else:
        p.error(f"--workload must be one of {sorted(WORKLOADS)} or all")
    for problem in problems:
        print(f"schema: {problem}", file=sys.stderr)
    print(json.dumps(result))
    return 0 if result["correct"] and not problems else 1


if __name__ == "__main__":
    sys.exit(main())
