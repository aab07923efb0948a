"""passlab benchmark: CLI operations timed end to end, or per layer when traced.

    python3 bench/run.py --workload deform_flow --seed 1 --seconds 20 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 20

An op is one in-process ``passlab.cli.main([..., "--strict"])`` call, or a
fixed sequence of them (see workloads.py).  The run checks the oracle
against exhaustive enumeration, then runs ops for ``--seconds`` seconds
(always at least two), single-threaded with BLAS/OpenMP capped at one
thread.  The second op repeats the first op's seed and must produce a
byte-identical payload.  A nonzero exit, an exception, a failed known answer
or a payload mismatch fails the op; nothing is retried or skipped.

With ``--trace 0`` the end-to-end metrics are reported; with ``--trace 1``
ops 1, 3 and 5 run with span tracing and the per-layer metrics are reported,
with the tracing overhead measured against the untraced ops.  A table
goes to stdout first and one JSON object is the last line; a run record
(and, when traced, the spans) is written under ``.bench_out/``.  The exit
code is 0 only when every op and the cross-check passed.
"""
import os

THREAD_CAPS = {name: "1" for name in (
    "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
    "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")}
os.environ.update(THREAD_CAPS)  # must precede the first numpy import

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import random  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from contextlib import nullcontext  # noqa: E402
from dataclasses import dataclass, field  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
if not (SRC / "passlab" / "cli.py").is_file():
    sys.exit(f"bench: {SRC / 'passlab'} not found; run from a passlab checkout")
sys.path.insert(0, str(SRC))

import numpy as np  # noqa: E402
import scipy  # noqa: E402

import passlab  # noqa: E402
import passlab.cli  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402

SETUP_SAMPLES = 5       # fresh interpreters timed per run for setup_s
TAIL_BEYOND = 10        # ops that must lie beyond the reported tail
TRACED_OPS = 3          # traced ops per run; enough for per-op layer averages


@dataclass
class Op:
    index: int
    seed: int
    seconds: float
    traced: bool
    failures: list = field(default_factory=list)   # failure kinds
    obs: dict = field(default_factory=dict)
    payload: str = None


def tail(times):
    """(label, value): the highest percentile with at least 10 ops beyond it.

    That is the (N-10)-th smallest of N times, at percentile 100 (N-10) / N.
    Below 20 ops that percentile would fall under the median, so the median
    is reported instead.
    """
    xs = sorted(times)
    n = len(xs)
    if n < 2 * TAIL_BEYOND:
        return f"p50 (median only, N={n})", statistics.median(xs)
    return f"p{100 * (n - TAIL_BEYOND) // n} (N={n})", xs[n - TAIL_BEYOND - 1]


def call_main(argv):
    """Run the CLI in-process; returns a failure kind or None."""
    try:
        code = passlab.cli.main(argv)
    except SystemExit as exc:   # argparse rejected the arguments
        code = exc.code if isinstance(exc.code, int) else 2
    except Exception as exc:    # a raw traceback is itself a failure
        return f"exception:{type(exc).__name__}"
    return None if code == 0 else f"exit_{code}"


def run_op(wl, index, seed, config_paths, workdir, tracer=None):
    op = Op(index, seed, 0.0, tracer is not None)
    reports = []
    with tracer.installed(index) if tracer else nullcontext():
        for j, (sub, _) in enumerate(wl.calls):
            out = workdir / f"call{j}"
            shutil.rmtree(out, ignore_errors=True)
            argv = [sub, "--config", str(config_paths[j]), "--out", str(out),
                    "--seed", str(seed), "--strict"]
            t0 = time.perf_counter()
            kind = call_main(argv)
            op.seconds += time.perf_counter() - t0
            if kind:
                op.failures.append(kind)
                return op
            reports.append(json.loads((out / "report.json").read_text()))
    try:
        failed_checks, op.obs = wl.check(reports)
    except (KeyError, TypeError, ValueError) as exc:
        failed_checks = [f"malformed_report:{type(exc).__name__}"]
    op.failures += [f"check:{name}" for name in failed_checks]
    op.payload = json.dumps([r["payload"] for r in reports], sort_keys=True)
    return op


def run_ops(wl, seed, seconds, workdir, tracer=None, setup_samples=0):
    """Closed loop, one op at a time, until ``seconds`` have passed.

    Op 1 repeats op 0's seed; with a tracer, ops 1, 3 and 5 are traced.  The
    set-up samples are taken between ops, spread evenly over the window:
    a shared host's CPU speed can drift over seconds, and samples taken
    together would all see one phase of it.  Returns (ops, set-up seconds).
    """
    workdir.mkdir(parents=True, exist_ok=True)
    config_paths = []
    for j, (_, cfg) in enumerate(wl.calls):
        path = workdir / f"config{j}.json"
        path.write_text(json.dumps(cfg))
        config_paths.append(path)
    rng = random.Random(seed)
    first = rng.randrange(2**31)
    ops, setup_times = [], []
    start = time.perf_counter()
    while len(ops) < 2 or time.perf_counter() - start < seconds:
        due = len(setup_times) * seconds / max(setup_samples, 1)
        if len(setup_times) < setup_samples and time.perf_counter() - start >= due:
            setup_times.append(time_import())
        i = len(ops)
        op_seed = first if i < 2 else rng.randrange(2**31)
        traced = tracer is not None and i % 2 == 1 and i < 2 * TRACED_OPS
        ops.append(run_op(wl, i, op_seed, config_paths, workdir,
                          tracer if traced else None))
    a, b = ops[0], ops[1]
    if a.payload is not None and b.payload is not None and a.payload != b.payload:
        b.failures.append("nondeterministic_payload")
    while len(setup_times) < setup_samples:
        setup_times.append(time_import())
    return ops, setup_times


def time_import():
    """Wall seconds for a fresh interpreter to import passlab.cli."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    t0 = time.perf_counter()
    subprocess.run([sys.executable, "-c", "import passlab.cli"],
                   env=env, cwd=ROOT, check=True)
    return time.perf_counter() - t0


def provenance(seed):
    return {"python": platform.python_version(), "numpy": np.__version__,
            "scipy": scipy.__version__, "passlab": passlab.__version__,
            "nproc": os.cpu_count(), "thread_caps": THREAD_CAPS,
            "machine": platform.machine(), "workload_seed": seed}


def failure_kinds(ops):
    kinds = {}
    for op in ops:
        for k in op.failures:
            kinds[k] = kinds.get(k, 0) + 1
    return kinds


def _max_obs(ops, key):
    vals = [op.obs[key] for op in ops if op.obs.get(key) is not None]
    return max(vals) if vals else None


def end_to_end(ops, setup_times):
    times = [op.seconds for op in ops]
    label, tail_value = tail(times)
    failed = sum(1 for op in ops if op.failures)
    metrics = {
        "setup_s": statistics.median(setup_times),
        "op_s.p50": statistics.median(times),
        "op_s.tail": tail_value,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    rows = [
        ("setup_s", metrics["setup_s"], "s",
         f"median of {len(setup_times)} fresh imports of passlab.cli"),
        ("op_s.p50", metrics["op_s.p50"], "s", f"median of N={len(ops)} ops"),
        ("op_s.tail", tail_value, "s", label),
        ("failed_frac", failed / len(ops), "ratio",
         f"{failed}/{len(ops)} ops; kinds {failure_kinds(ops) or 'none'}"),
        ("peak_rss_mb", metrics["peak_rss_mb"], "MB", "workload process"),
    ]
    for key, unit, note in (
            ("oracle_gap", "phi", "max |c2-bottleneck|, |c1-widest|"),
            ("eq31_residual", "phi/t", "max eq31_max_residual")):
        value = _max_obs(ops, key)
        if value is not None:
            rows.append((key, value, unit, f"{note} over ops"))
    return metrics, rows


def per_layer(ops, tracer):
    traced = [op for op in ops if op.traced]
    untraced_p50 = statistics.median(op.seconds for op in ops if not op.traced)
    metrics = spans.layer_metrics(tracer.spans, traced, untraced_p50)
    rows = [(f"self-time #{k + 1}", s / len(traced), "s", name)
            for k, (name, s) in enumerate(spans.top_self(tracer.spans))]
    rows += [(name, metrics[name], None, "") for name in (
        "trace.untraced_op_s.p50", "trace.op_s.p50", "trace.overhead_s",
        "flow.rows_per_rhs", "bands.interp_share")]
    oracle_s = (metrics["gridoracle.bottleneck_value.s"]
                + metrics["gridoracle.widest_value.s"])
    rows.append(("oracle share of traced op", oracle_s / metrics["trace.op_s.p50"],
                 "ratio", "gridoracle.*_value.s / trace.op_s.p50"))
    return metrics, rows


def declared_units(key):
    with open(ROOT / "BENCHMARK.json") as fh:
        return {m["name"]: m["unit"] for m in json.load(fh)[key]}


def run_workload(name, seed, seconds, trace):
    wl = workloads.WORKLOADS[name]
    tag = f"{name}-seed{seed}-trace{trace}"
    OUT.mkdir(exist_ok=True)
    print(f"passlab bench: workload={name} seed={seed} seconds={seconds} trace={trace}")
    prov = provenance(seed)
    print("provenance: " + json.dumps(prov, sort_keys=True))

    t0 = time.perf_counter()
    grids, mismatches = workloads.oracle_crosscheck(seed)
    print(f"oracle cross-check: {sum(grids.values())} grids {grids}, "
          f"{len(mismatches)} mismatches, {time.perf_counter() - t0:.2f} s")
    for m in mismatches:
        print(f"  MISMATCH {m}")

    tracer = spans.Tracer() if trace else None
    ops, setup_times = run_ops(wl, seed, seconds, OUT / f"ops-{name}", tracer,
                               0 if trace else SETUP_SAMPLES)
    if trace:
        metrics, rows = per_layer(ops, tracer)
        units = declared_units("per_layer")
        tracer.write(OUT / f"spans-{name}.jsonl")
    else:
        metrics, rows = end_to_end(ops, setup_times)
        units = declared_units("end_to_end")
    if set(metrics) != set(units):
        raise RuntimeError("computed metrics differ from BENCHMARK.json: "
                           f"{sorted(set(metrics) ^ set(units))}")
    for label, value, unit, note in rows:
        print(f"  {label:<28} {value:>14.6g} {units.get(label, unit):<6} {note}")

    failed = sum(1 for op in ops if op.failures)
    result = {
        "correct": failed == 0 and not mismatches,
        "attempted": len(ops),
        "failed": failed,
        "metrics": {k: {"value": metrics[k], "unit": units[k]} for k in units},
    }
    record = {"provenance": prov, "seconds": seconds, "trace": trace,
              "setup_s_samples": setup_times,
              "crosscheck": {"grids": grids, "mismatches": mismatches},
              "ops": [{"index": op.index, "seed": op.seed, "seconds": op.seconds,
                       "traced": op.traced, "failures": op.failures,
                       "obs": op.obs} for op in ops],
              "result": result}
    (OUT / f"run-{tag}.json").write_text(json.dumps(record, indent=1, default=str))
    return result


def run_all(args):
    """Each workload in its own process, one at a time."""
    results = {}
    for name in workloads.WORKLOADS:
        proc = subprocess.run(
            [sys.executable, __file__, "--workload", name, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace)],
            stdout=subprocess.PIPE, text=True)
        lines = proc.stdout.strip().splitlines() or ["null"]
        print("\n".join(lines[:-1]))
        try:
            results[name] = json.loads(lines[-1])
        except ValueError:   # the child died before printing its result
            results[name] = None
    ok = all(r is not None and r["correct"] for r in results.values())
    print(json.dumps({"correct": ok, "workloads": results}))
    return ok


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=[*workloads.WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.workload == "all":
        return 0 if run_all(args) else 1
    result = run_workload(args.workload, args.seed, args.seconds, args.trace)
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
