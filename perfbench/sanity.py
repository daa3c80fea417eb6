"""Compare traced per-call times with reference timings of the same kernels.

    python3 perfbench/sanity.py

Reads the spans that ``run.py --trace 1`` wrote for the sweep and
montecarlo workloads and prints, for each kernel, the mean inclusive
time per call (children included, so tracing overhead of nested spans
is in it) next to a reference measured at the parent commit on 2 cores
with Python 3.11.7, numpy 2.4.6 and scipy 1.17.1, flagging ratios
outside [1/2, 2].
"""

import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = ROOT / ".bench_out"
sys.path.insert(0, str(ROOT / "src"))

from workloads import MC_WINDOW  # noqa: E402

# (label, workload, span, reference seconds, how a span maps to one reference unit)
REFERENCES = (
    ("intrinsic_numeric, restarts=1", "sweep", "rates.intrinsic_numeric", 0.55, None),
    ("optimize_preprocessing", "sweep", "rates.optimize_preprocessing", 0.052, None),
    ("preprocessing_threshold", "sweep", "rates.preprocessing_threshold", 1.06, None),
    ("ad_threshold(30)", "sweep", "rates.ad_threshold", 0.26, None),
    ("simulate.run, per 1M rounds", "montecarlo", "simulate.run", 0.137, "per_million_rounds"),
    ("RoundLog.to_csv, per 100k rounds", "montecarlo", "simulate.to_csv", 0.355, "per_100k_rows"),
    ("min_nonlocal_decomposition, lexicographic", "montecarlo", "polytope.min_nonlocal_decomposition", 0.048, None),
)


def load(workload):
    path = OUT_DIR / f"{workload}-spans.jsonl"
    with open(path) as fh:
        header = json.loads(fh.readline())
        return header, [json.loads(line) for line in fh]


def per_unit(spans, name, scale):
    times = []
    for _, span, _, start, end, value in spans:
        if span != name:
            continue
        if scale == "per_million_rounds":
            if value < 1_000_000:  # window runs generate whole blocks; skip them
                continue
            times.append((end - start) * 1e6 / value)
        elif scale == "per_100k_rows":
            times.append((end - start) * 100_000 / MC_WINDOW)
        else:
            times.append(end - start)
    return sum(times) / len(times) if times else None


def main():
    cache = {}
    flagged = 0
    print(f"{'kernel':<44}{'traced':>10}{'reference':>11}{'ratio':>8}")
    for label, workload, name, ref, scale in REFERENCES:
        if workload not in cache:
            try:
                cache[workload] = load(workload)[1]
            except FileNotFoundError:
                sys.exit(f"error: no spans for {workload}; run perfbench/run.py --workload {workload} --trace 1")
        measured = per_unit(cache[workload], name, scale)
        if measured is None:
            print(f"{label:<44}{'n/a':>10}{ref:>11.4g}")
            continue
        ratio = measured / ref
        flag = "" if 0.5 <= ratio <= 2.0 else "  off by more than 2x"
        flagged += bool(flag)
        print(f"{label:<44}{measured:>10.4g}{ref:>11.4g}{ratio:>8.2f}{flag}")
    print(f"{flagged} of {len(REFERENCES)} kernels off by more than 2x")


if __name__ == "__main__":
    main()
