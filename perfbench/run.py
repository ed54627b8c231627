"""saltpde benchmark: one workload, one process, closed loop, workers = 1.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the package is imported from
``src/``.  The workload repeats until ``--seconds`` have passed (at least
once).  With ``--trace 0`` the last stdout line carries the end-to-end
metrics of BENCHMARK.json; with ``--trace 1`` repetitions alternate between
untraced and traced, and it carries the per-layer metrics.  The line before
it is the full record (environment, outputs, self-tests), which is also
written to ``--results`` (default ``.bench_out/results``).

At seed 0 the outputs are compared with ``perfbench/reference.json`` at the
tolerance stored there; ``--write-reference REV`` stores them instead.
"""

import argparse
import gc
import glob
import json
import os
import platform
import resource
import statistics
import sys
import time

import numpy as np

import metrics
import spans
from workloads import WORKLOADS, import_saltpde

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
REFERENCE = os.path.join(HERE, "reference.json")
REFERENCE_SEED = 0
SETUP_REPS = 21


def environment():
    env = {"python": platform.python_version(), "numpy": np.__version__,
           "nproc": os.cpu_count(), "cpu_model": platform.processor(),
           "l2_bytes": None}
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    env["cpu_model"] = line.partition(":")[2].strip()
                    break
    except OSError:
        pass
    for index in sorted(glob.glob("/sys/devices/system/cpu/cpu0/cache/index*")):
        try:
            with open(os.path.join(index, "level")) as fh:
                level = fh.read().strip()
            with open(os.path.join(index, "size")) as fh:
                size = fh.read().strip()
        except OSError:
            continue
        if level == "2" and size.endswith("K"):
            env["l2_bytes"] = int(size[:-1]) * 1024
    return env


def declared(workload, trace):
    """(why the workload exists, {metric: unit}) from BENCHMARK.json."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    why = {w["name"]: w["why"] for w in bench["workloads"]}[workload]
    return why, {m["name"]: m["unit"]
                 for m in bench["per_layer" if trace else "end_to_end"]}


def reference_close():
    """close(value, ref) at the round-off tolerance stored with the reference."""
    with open(REFERENCE) as fh:
        tol = json.load(fh)["tolerance"]

    def close(a, b):
        return abs(a - b) <= tol["atol"] + tol["rtol"] * abs(b)
    return close


def load_reference(workload, seed):
    if seed != REFERENCE_SEED or not os.path.exists(REFERENCE):
        return None, None
    with open(REFERENCE) as fh:
        ref = json.load(fh)
    return ref["workloads"].get(workload), reference_close()


def write_reference(workload, outputs, revision):
    ref = {"seed": REFERENCE_SEED, "tolerance": {"rtol": 1e-9, "atol": 1e-12},
           "workloads": {}, "revisions": {}}
    if os.path.exists(REFERENCE):
        with open(REFERENCE) as fh:
            ref = json.load(fh)
    ref["workloads"][workload] = outputs
    ref["revisions"][workload] = revision
    with open(REFERENCE, "w") as fh:
        json.dump(ref, fh, indent=1, sort_keys=True)
        fh.write("\n")


def run_rep(wl, cli, recorder):
    """One repetition; returns (wall seconds, outputs, out bytes, span table)."""
    wl.prepare_rep()
    gc.collect()
    table = None
    if recorder is not None:
        recorder.reset()
        recorder.install()
    t0 = time.perf_counter()
    try:
        rc = wl.run(cli, recorder)
    except Exception as exc:        # an aborted command fails every member
        rc = repr(exc)
    finally:
        wall = time.perf_counter() - t0
        if recorder is not None:
            recorder.uninstall()
    if recorder is not None:
        table = spans.SpanTable(recorder)
    return wall, wl.outputs(rc), wl.out_bytes(), table


def fft_selftest(recorder):
    """The counter reads exactly the calls and points the benchmark makes."""
    x = np.arange(32.0).reshape(4, 8)
    # c2r transforms get the half spectrum of x, so each call covers x.size
    inputs = {"irfftn": np.fft.rfftn(x), "irfft": np.fft.rfft(x)}
    recorder.reset()
    recorder.install()
    try:
        for name in spans.FFT_ENTRY_POINTS:
            getattr(np.fft, name)(inputs.get(name, x))
    finally:
        recorder.uninstall()
    t = spans.SpanTable(recorder)
    fft = t.mask(lambda n: n.startswith("numpy.fft."))
    calls, points = t.count(fft), int(np.sum(t.points[fft]))
    expect = len(spans.FFT_ENTRY_POINTS)
    return {"ok": calls == expect and points == expect * x.size,
            "calls": calls, "expected_calls": expect,
            "points": points, "expected_points": expect * x.size}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--results", default=os.path.join(ROOT, ".bench_out", "results"))
    parser.add_argument("--write-reference", metavar="REV", default=None)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    if args.write_reference and (args.seed != REFERENCE_SEED or args.trace):
        parser.error("--write-reference needs --seed %d --trace 0" % REFERENCE_SEED)

    src = os.path.join(ROOT, "src")
    if not os.path.isfile(os.path.join(src, "saltpde", "__init__.py")):
        sys.stderr.write("error: no saltpde source under %s\n" % src)
        return 2
    sys.path.insert(0, src)
    why, units = declared(args.workload, args.trace)
    load_before = os.getloadavg()[0]

    workdir = os.path.join(ROOT, ".bench_out", "work", args.workload)
    os.makedirs(workdir, exist_ok=True)
    wl = WORKLOADS[args.workload](ROOT, args.seed, workdir)

    # set-up reads bytecode from a cache of the benchmark's own, so it does not
    # depend on PYTHONDONTWRITEBYTECODE or on .pyc files left in src/
    saved = sys.pycache_prefix, sys.dont_write_bytecode
    sys.pycache_prefix = os.path.join(ROOT, ".bench_out", "pycache")
    sys.dont_write_bytecode = False
    setup_s = []
    for _ in range(SETUP_REPS):
        gc.collect()
        t0 = time.perf_counter()
        cli = import_saltpde()
        wl.setup(cli)
        setup_s.append(time.perf_counter() - t0)
    sys.pycache_prefix, sys.dont_write_bytecode = saved
    if not os.path.abspath(cli.__file__).startswith(src + os.sep):
        sys.stderr.write("error: saltpde imported from %s\n" % cli.__file__)
        return 2
    reference, close = load_reference(args.workload, args.seed)

    recorder = spans.Recorder() if args.trace else None
    selftests = {}
    if recorder is not None:
        selftests["fft_counter"] = fft_selftest(recorder)

    reps = []
    t_start = time.perf_counter()
    while True:
        traced = recorder is not None and len(reps) % 2 == 1
        reps.append((traced,) + run_rep(wl, cli, recorder if traced else None))
        done = time.perf_counter() - t_start >= args.seconds
        if done and (recorder is None or len(reps) >= 2):
            break

    first = reps[0][2]
    attempted = failed = 0
    deterministic = True
    for _, _, outputs, _, _ in reps:
        attempted += wl.ops_per_rep
        if outputs != first:
            deterministic = False
            failed += wl.ops_per_rep
        else:
            failed += wl.failures(outputs, reference, close)

    record = {"workload": args.workload, "why": why, "seed": args.seed,
              "trace": args.trace, "seconds": args.seconds, "env": environment(),
              "largest_array_bytes": wl.largest_array_bytes(),
              "reps": len(reps), "setup_samples_s": setup_s,
              "rep_wall_s": [r[1] for r in reps if not r[0]],
              "reference_checked": reference is not None,
              "deterministic": deterministic, "outputs": first}
    l2 = record["env"]["l2_bytes"]
    record["largest_array_over_l2"] = record["largest_array_bytes"] / l2 if l2 else None

    if recorder is None:
        values = {"wall_s": statistics.median(record["rep_wall_s"]),
                  "setup_s": statistics.median(setup_s),
                  "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
                  "ok_frac": (attempted - failed) / attempted}
    else:
        traced = [r for r in reps if r[0]]
        per_rep = [metrics.layer_metrics(r[4], r[3]) for r in traced]
        values = {k: statistics.median(m[k] for m in per_rep) for k in per_rep[0]}
        values["trace_overhead_s"] = (statistics.median(r[1] for r in traced)
                                      - statistics.median(record["rep_wall_s"]))
        record["traced_wall_s"] = [r[1] for r in traced]
        n = values["solver.run_path_calls"]
        record["member_tail"] = {"samples": n, "percentile": metrics.tail_percentile(n)}
        record["calls"] = traced[0][4].calls_by_name()
        missing = [s for s in wl.expected_spans if not record["calls"].get(s)]
        selftests["bindings"] = {"ok": not missing, "missing": missing}
        record["counts_repeat"] = all(
            m[k] == per_rep[0][k] for m in per_rep for k in m
            if not k.endswith("_s") and k != "cli.out_bytes")
    record["selftests"] = selftests

    if set(values) != set(units):
        sys.stderr.write("error: metrics %s do not match BENCHMARK.json %s\n"
                         % (sorted(values), sorted(units)))
        return 3
    correct = (failed == 0 and deterministic
               and all(t["ok"] for t in selftests.values()))
    result = {"correct": correct, "attempted": attempted, "failed": failed,
              "metrics": {k: {"value": values[k], "unit": units[k]}
                          for k in units}}
    record["load1_before"] = load_before
    record["load1_after"] = os.getloadavg()[0]
    record["cpu_user_s"], record["cpu_system_s"] = os.times()[:2]
    record["result"] = result

    if args.write_reference:
        write_reference(args.workload, first, args.write_reference)
    os.makedirs(args.results, exist_ok=True)
    name = "%s-seed%d-trace%d.json" % (args.workload, args.seed, args.trace)
    with open(os.path.join(args.results, name), "w") as fh:
        json.dump(record, fh, indent=1)
    print(json.dumps(record))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
