"""Benchmark of nskd: end-to-end metrics per workload, or per-layer metrics when traced.

    python3 perfbench/run.py --workload intrinsic|sweep|montecarlo|all \
        --seed N --seconds S --trace 0|1

Run from the root of a checkout; nskd is imported from ``src/`` there.
Each workload makes its inputs from the seed, runs an untimed warm-up
pass over one item of each kind, then repeats full passes for
``--seconds`` and checks every answer outside the timed calls.  Timed
passes interleave a fixed reference kernel, and times are reported at the
reference speed as well as in wall seconds.  ``--trace 0`` reports the
end-to-end metrics; ``--trace 1`` alternates untraced and traced passes
and reports the per-layer metrics of the traced ones.  ``--workload all``
runs each workload in a child process of its own.  Human-readable lines
come first; the last line of stdout is one JSON object with the metrics
that BENCHMARK.json names.  The full record of each run, every answer
next to its check, and the spans of traced passes go to ``.bench_out/``.
See perfbench/README.md.
"""

import os

# Pinned before numpy loads: the plain single-threaded baseline.
THREAD_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import contextlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402
from time import perf_counter  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".bench_out"

if not (SRC / "nskd" / "__init__.py").is_file():
    sys.exit(f"error: no nskd sources under {SRC}; run from the root of a checkout")
sys.path.insert(0, str(SRC))

import nskd  # noqa: E402
import numpy  # noqa: E402
import scipy  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

WORKLOAD_NAMES = ("intrinsic", "sweep", "montecarlo")

# setup_s: a fresh interpreter importing nskd and building the vertex list,
# the cost every command-line invocation pays.  Each start alternates with
# a reference start that imports only the libraries nskd builds on; both
# are the same kind of work (exec, unmarshal, load extension modules), so
# scaling by the reference removes most of the machine's speed changes
# (see perfbench/README.md).  The first pair also writes the bytecode
# cache and is not counted.
SETUP_CODE = "import sys; sys.path.insert(0, sys.argv[1]); import nskd; nskd.polytope.vertices()"
SETUP_REF_CODE = "import numpy, scipy.optimize"
SETUP_REF_NOMINAL_S = 0.6  # median reference start in a fast phase of the machine the benchmark was built on
SETUP_RUNS = 5

# Machine speed.  This shared machine runs the same code up to about 50%
# slower or faster from one quarter second to the next and from one minute
# to the next.  Each untraced pass therefore runs, before its first item
# and after every item, chunks of a fixed reference kernel that does not
# use nskd, and its times are scaled by REF_NOMINAL_S / (mean chunk time
# in that pass): seconds at a fixed reference speed.  Wall times are
# reported alongside.
REF_NOMINAL_S = 0.02  # mean chunk time in a fast phase of the machine the benchmark was built on
REF_SHARE = 0.4  # chunks run after each item for this share of its time
REF_MIN_CHUNKS = 3
_REF_RNG = numpy.random.default_rng(0)
_REF_SMALL = _REF_RNG.random((4, 4, 5))
_REF_MAP = _REF_RNG.random((5, 5))
_REF_BIG = _REF_RNG.random(100_000)


def reference_chunk():
    """Fixed work of about 20 ms: an interpreter loop, small and mid-size numpy calls."""
    acc = 0
    for i in range(80_000):
        acc += (i * i) % 7
    for _ in range(500):
        m = _REF_SMALL @ _REF_MAP
        acc += float((m * numpy.log2(m + 1.0)).sum())
    for _ in range(12):
        acc += int((numpy.sort(_REF_BIG) < 0.5).sum())
    return acc


def reference_chunks(after_s, out):
    """Run chunks for REF_SHARE of ``after_s`` (at least REF_MIN_CHUNKS); append their times."""
    budget = REF_SHARE * after_s
    spent, n = 0.0, 0
    while n < REF_MIN_CHUNKS or spent < budget:
        start = perf_counter()
        reference_chunk()
        out.append(perf_counter() - start)
        spent += out[-1]
        n += 1


E2E_UNITS = {
    "setup_s": "s",
    "job_s": "s",
    "item_p50_s": "s",
    "item_tail_s": "s",
    "peak_rss_mb": "MB",
    "answers_ok": "share",
    "error_rate": "share",
    "setup_wall_s": "s",
    "job_wall_s": "s",
    "ref_chunk_s": "s",
}


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=WORKLOAD_NAMES + ("all",), default="all")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=int, default=16)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    return args


def machine_info():
    model = platform.processor()
    with contextlib.suppress(OSError):
        with open("/proc/cpuinfo") as fh:
            model = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), model)
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "cpu_model": model,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "threads": {var: os.environ[var] for var in THREAD_VARS},
    }


def measure_setup():
    """Fresh interpreters, alternating with reference starts."""
    times, refs = [], []
    for k in range(SETUP_RUNS + 1):
        for code, out in ((SETUP_CODE, times), (SETUP_REF_CODE, refs)):
            start = perf_counter()
            # no timeout: with one, subprocess polls the child in sleeps of up
            # to 50 ms, which would quantize the measurement
            subprocess.run([sys.executable, "-c", code, str(SRC)], cwd=ROOT, check=True, stdout=subprocess.DEVNULL)
            if k:
                out.append(perf_counter() - start)
    return {"wall_s": times, "ref_wall_s": refs, "scale": SETUP_REF_NOMINAL_S / statistics.median(refs)}


def run_pass(items, tracer=None, reference=True):
    """Each item's call timed alone; its checks run after, untimed and untraced.
    Untraced passes run reference chunks after each item, unless ``reference`` is off."""
    records = []
    chunks = []
    if tracer is not None:
        tracer.spans = []
    elif reference:
        reference_chunks(0.0, chunks)
    for item in items:
        start = perf_counter()
        try:
            if tracer is None:
                answer = item.call()
            else:
                answer = tracer.call("item", item.call, None, (), {})
            error = None
        except Exception as exc:  # an item that raises is counted, and the run goes on
            answer, error = None, f"{type(exc).__name__}: {exc}"
        latency = perf_counter() - start
        before = len(chunks)
        if tracer is None and reference:
            reference_chunks(latency, chunks)
        start = perf_counter()
        with tracer.pause() if tracer is not None else contextlib.nullcontext():
            checks = item.check(answer) if error is None else [workloads.failed_call(error)]
        records.append(
            {
                "label": item.label,
                "latency_s": latency,
                "ref_chunk_range": [before, len(chunks)],  # its chunks in the pass's list
                "check_s": perf_counter() - start,
                "error": error,
                "checks": checks,
            }
        )
    return {
        "job_s": sum(r["latency_s"] for r in records),
        "ref_chunks_s": chunks,
        "scale": REF_NOMINAL_S / statistics.fmean(chunks) if chunks else None,
        "items": records,
        "spans": tracer.spans if tracer is not None else None,
    }


def measure(items, seconds, tracer=None):
    """Passes until ``seconds`` have elapsed.  With a tracer, untraced and
    traced passes alternate, so both see the same machine speed."""
    untraced, traced = [], []
    start = perf_counter()
    while not untraced or (tracer is not None and not traced) or perf_counter() - start < seconds:
        if tracer is not None and len(traced) < len(untraced):
            with tracer.installed():
                traced.append(run_pass(items, tracer))
        else:
            untraced.append(run_pass(items))
    return untraced, traced


def tail(latencies):
    """Highest percentile with at least 10 items beyond it; None below 20 items,
    where that percentile would not be above the median."""
    n = len(latencies)
    if n < 20:
        return None, None
    return sorted(latencies)[n - 11], 100.0 * (n - 10) / n


def end_to_end(setup, passes):
    """Times in seconds at the reference speed (see REF_NOMINAL_S), from the untraced passes."""
    items = [(it, p["scale"]) for p in passes for it in p["items"]]
    latencies = [it["latency_s"] * scale for it, scale in items]
    checks = [c for it, _ in items for c in it["checks"]]
    raised = sum(it["error"] is not None for it, _ in items)
    chunks = [c for p in passes for c in p["ref_chunks_s"]]
    tail_s, tail_pct = tail(latencies)
    setup_wall_s = statistics.median(setup["wall_s"]) if setup else None
    metrics = {
        "setup_s": setup_wall_s * setup["scale"] if setup else None,
        "job_s": statistics.median(p["job_s"] * p["scale"] for p in passes),
        "item_p50_s": statistics.median(latencies),
        "item_tail_s": tail_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "answers_ok": sum(c["ok"] for c in checks) / len(checks),
        "error_rate": raised / len(items),
        "setup_wall_s": setup_wall_s,
        "job_wall_s": statistics.median(p["job_s"] for p in passes),
        "ref_chunk_s": statistics.fmean(chunks),
    }
    notes = {
        "setup_s": f"median of {len(setup['wall_s'])} fresh interpreters, scaled by {setup['scale']:.3f}"
        f" (reference start {statistics.median(setup['ref_wall_s']):.3f} s)"
        if setup
        else "n/a: not measured in traced runs",
        "job_s": f"median of {len(passes)} passes, each scaled by its own chunks",
        "item_p50_s": f"median of {len(latencies)} items",
        "item_tail_s": f"p{tail_pct:.1f} of {len(latencies)} items"
        if tail_pct is not None
        else f"n/a: {len(latencies)} items, fewer than 20",
        "peak_rss_mb": "ru_maxrss of this process, which runs one workload",
        "answers_ok": f"{sum(c['ok'] for c in checks)}/{len(checks)} checks",
        "error_rate": f"{raised}/{len(items)} items raised",
        "setup_wall_s": "setup_s unscaled",
        "job_wall_s": "job_s unscaled",
        "ref_chunk_s": f"mean of {len(chunks)} reference chunks in the passes; {REF_NOMINAL_S} s at reference speed",
    }
    return metrics, notes


def warm_up_items(items):
    """The untimed warm-up pass: the first item of each kind of call (the first
    word of its label), which fills caches and lazy imports for the others."""
    kinds = {}
    for item in items:
        kinds.setdefault(item.label.split()[0], item)
    return list(kinds.values())


def run_workload(name, seed, seconds, trace, setup):
    items = workloads.WORKLOADS[name](seed, str(OUT_DIR))
    run_pass(warm_up_items(items), reference=False)
    untraced, traced = measure(items, seconds, tracing.Tracer() if trace else None)
    metrics, notes = end_to_end(setup, untraced)
    layers = {}
    if traced:
        per_pass = [tracing.layer_metrics(p["spans"]) for p in traced]
        # counts repeat exactly from pass to pass; times are medians
        layers = {
            key: value if isinstance(value, int) else statistics.median(m[key] for m in per_pass)
            for key, value in per_pass[0].items()
        }
        # wall times: traced and untraced passes alternate, so both see the same machine speed
        layers["trace.overhead_s"] = statistics.median(p["job_s"] for p in traced) - metrics["job_wall_s"]
        tracing.write_spans(
            OUT_DIR / f"{name}-spans.jsonl",
            {"workload": name, "seed": seed, "passes": len(traced)},
            [p["spans"] for p in traced],
        )
    passes = untraced + traced
    return {
        "workload": name,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "metrics": metrics,
        "notes": notes,
        "layers": layers,
        "traced_passes": len(traced),
        "attempted": sum(len(p["items"]) for p in passes),
        "failed": sum(
            it["error"] is not None or not all(c["ok"] for c in it["checks"]) for p in passes for it in p["items"]
        ),
        "passes": [{k: v for k, v in p.items() if k != "spans"} for p in passes],
    }


def report(result, spec):
    name = result["workload"]
    print(f"== {name}: seed {result['seed']}, {len(result['passes'])} timed passes ==")
    for key, unit in E2E_UNITS.items():
        value = result["metrics"][key]
        shown = "n/a" if value is None else f"{value:.6g}"
        print(f"  {key:<14}{shown:>12} {unit:<6} ({result['notes'][key]})")
    for item in result["passes"][0]["items"]:
        print(f"  {item['label']}: {item['latency_s']:.4f} s")
        for c in item["checks"]:
            flag = "ok  " if c["ok"] else "FAIL"
            print(f"    {flag} {c['check']}: answer {c['answer']!r}, reference {c['reference']!r}")
    if result["layers"]:
        print(f"  per-layer, per traced pass (median of {result['traced_passes']} passes):")
        for m in spec["per_layer"]:
            print(f"    {m['name']:<45}{result['layers'][m['name']]:>14.6g} {m['unit']}")


def run_all(args):
    """Each workload in a process of its own, so peak_rss_mb is that workload's own."""
    metrics, attempted, failed = {}, 0, 0
    for name in WORKLOAD_NAMES:
        cmd = [sys.executable, __file__, "--workload", name, "--seed", str(args.seed)]
        cmd += ["--seconds", str(args.seconds), "--trace", str(args.trace)]
        lines = subprocess.run(cmd, check=True, stdout=subprocess.PIPE, text=True).stdout.splitlines()
        print("\n".join(lines[:-1]))
        result = json.loads(lines[-1])
        attempted += result["attempted"]
        failed += result["failed"]
        metrics.update({f"{name}.{key}": value for key, value in result["metrics"].items()})
    return {"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}


def main(argv=None):
    args = parse_args(argv)
    if Path(nskd.__file__).resolve().parent != SRC / "nskd":
        sys.exit(f"error: imported nskd from {nskd.__file__}, not from {SRC}")
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    OUT_DIR.mkdir(exist_ok=True)
    if args.workload == "all":
        print(json.dumps(run_all(args)))
        return

    machine = machine_info()
    print("machine: " + json.dumps(machine))
    setup = None if args.trace else measure_setup()  # an end-to-end metric only
    result = run_workload(args.workload, args.seed, args.seconds, args.trace, setup)
    report(result, spec)
    with open(OUT_DIR / f"{args.workload}-trace{args.trace}.json", "w") as fh:
        json.dump({"machine": machine, "setup": setup, **result}, fh, indent=1)
    values = result["layers"] if args.trace else result["metrics"]
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    print(
        json.dumps(
            {
                "correct": result["failed"] == 0,
                "attempted": result["attempted"],
                "failed": result["failed"],
                "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted},
            }
        )
    )


if __name__ == "__main__":
    main()
