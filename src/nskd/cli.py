"""Command-line interface.

Subcommands expose the library and emit the reproduction artifacts:

    nskd vertices                 table of the 24 extreme points
    nskd decompose BOX_FILE       minimal-nonlocal-weight mixture
    nskd rates                    disturbance sweep CSV
    nskd simulate                 Monte Carlo run and estimators
    nskd intrinsic                intrinsic-information report
    nskd ad                       advantage-distillation thresholds

Human-readable tables go to stdout; machine output (--format csv|json)
is written to --out.  Exit code 2 flags bad input.
"""

from __future__ import annotations

import argparse
import csv
import functools
import io
import json
import math
import sys

import numpy as np

# each command imports the modules it runs, so a start loads only those
from . import boxes
from .exceptions import DomainError

# each command returns its --out text


def cmd_vertices(args) -> str:
    from . import polytope

    rows = []
    for vertex in polytope.vertices():
        value = boxes.chsh(vertex.box)
        flag = ""
        if vertex.on_chsh_facet:
            flag = "facet"
        elif not vertex.is_local and value == 4.0:
            flag = "PR"
        rows.append({"vertex": vertex.name, "kind": vertex.kind, "chsh": value, "flag": flag})
    print(f"{'vertex':<10}{'kind':<10}{'chsh':<22}flag")
    for row in rows:
        print(f"{row['vertex']:<10}{row['kind']:<10}{row['chsh']:<22.17g}{row['flag']}")
    if args.format == "json":
        return json.dumps(rows)
    buf = io.StringIO()
    writer = csv.DictWriter(buf, fieldnames=["vertex", "kind", "chsh", "flag"])
    writer.writeheader()
    writer.writerows(rows)
    return buf.getvalue()


def _load_box(path: str) -> boxes.Box:
    with open(path) as fh:
        text = fh.read()
    if text.lstrip().startswith(("{", "[")):
        return boxes.Box.from_json(text)
    return boxes.Box.from_csv(text)


def cmd_decompose(args) -> str:
    from . import polytope

    dec = polytope.min_nonlocal_decomposition(_load_box(args.box_file))
    print(f"nonlocal weight: {dec.nonlocal_weight:.17g}")
    print(f"residual:        {dec.residual:.3e}")
    print(f"relabeling:      {dec.relabeling.name} (CHSH {dec.chsh:.17g})")
    print(f"{'vertex':<10}weight")
    for name, w in dec.as_dict().items():
        print(f"{name:<10}{w:.17g}")
    return dec.to_json()


def cmd_rates(args) -> str:
    from . import rates

    if not 0.0 < args.grid < math.inf:
        raise DomainError(f"grid step {args.grid!r} must be positive and finite")
    d_values = np.arange(0.0, rates.MAX_DISTURBANCE + args.grid / 2, args.grid)
    d_values = np.clip(d_values, 0.0, rates.MAX_DISTURBANCE)
    header = ",".join(rates.CURVE_COLUMNS)
    print(header, flush=True)
    rows, lines = [], [header]
    for d in d_values:
        [row] = rates.curve_rows([d])
        line = ",".join(repr(float(row[c])) for c in rates.CURVE_COLUMNS)
        print(line, flush=True)  # rows are independent, so each is printed once computed
        rows.append(row)
        lines.append(line)
    if args.format == "json":
        return json.dumps(rows)
    return "\n".join(lines) + "\n"


def cmd_simulate(args) -> str:
    from . import simulate

    report = simulate.stream_estimate(args.visibility, args.rounds, seed=args.seed, records=args.records)
    print(f"rounds:   {report.n_rounds}")
    print(f"chsh_hat: {report.chsh_hat:.17g} +- {report.chsh_stderr:.3g}")
    print(f"qber_hat: {report.qber_hat:.17g} +- {report.qber_stderr:.3g}")
    print(f"p_nl_hat: {report.p_nl_hat:.17g}")
    return report.to_json()


def cmd_intrinsic(args) -> str:
    from . import attack, rates

    strategy = attack.attack_from_pnl(args.p_nl)
    p_nl, announce = strategy.p_nl, args.announce  # the checked p_nl: -0 reads 0
    joint = attack.sift_alice_announces(strategy) if announce else attack.sift(strategy)
    result = rates.intrinsic_search(joint, restarts=args.restarts, seed=args.seed)
    # intrinsic_closed is the sifted table's reference curve; it is no value of the announce variant
    reference = {} if announce else {"intrinsic_closed": rates.intrinsic_closed(p_nl)}
    bound = rates.intrinsic_upper_bound(joint)
    print(f"p_nl:              {p_nl:.17g}")
    for name, value in reference.items():
        print(f"{name}:  {value:.17g}")
    print(f"intrinsic_numeric: {result.value:.17g}")
    print(f"upper bound:       {bound:.17g}")
    print(f"winning start:     {result.start} ({result.steps} descent steps)")
    print("argmin channel (rows: Eve's symbol, columns: output):")
    for symbol, row in zip(joint.symbols, result.channel):
        print(f"  {symbol.label():<8}" + " ".join(f"{w:.6f}" for w in row))
    return json.dumps(
        {
            "p_nl": p_nl,
            "announce": announce,
            **reference,
            "intrinsic_numeric": result.value,
            "upper_bound": bound,
            "channel": result.channel.tolist(),
            "start": result.start,
            "steps": result.steps,
        }
    )


def cmd_ad(args) -> str:
    from . import rates

    plain, combined = rates.ad_thresholds(args.n_max)
    print(f"plain threshold estimate:    {plain.threshold_estimate:.17g}")
    print(f"combined threshold estimate: {combined.threshold_estimate:.17g}")
    print(f"{'n':<6}{'zero_plain':<24}zero_with_preprocessing")
    for (n, z1), (_, z2) in zip(plain.per_n_curve, combined.per_n_curve):
        print(f"{n:<6}{z1:<24.12g}{z2:.12g}")
    return json.dumps(
        {
            "threshold_estimate": plain.threshold_estimate,
            "per_n_curve": plain.per_n_curve,
            "preprocessing_threshold_estimate": combined.threshold_estimate,
            "preprocessing_per_n_curve": combined.per_n_curve,
        }
    )


@functools.cache  # parse_args keeps no state in the parsers, so one tree serves every main call
def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="nskd", description="No-signaling boxes, eavesdropping decompositions and key rates."
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name, run, summary, formats=("json",)):
        # every command writes --out, in the formats it has; the first is the default
        p = sub.add_parser(name, help=summary)
        p.set_defaults(run=run)
        p.add_argument("--format", choices=formats, default=formats[0], help="format of --out")
        p.add_argument("--out", default="", help="write machine output here")
        return p

    command("vertices", cmd_vertices, "list the 24 extreme points", formats=("csv", "json"))
    p_dec = command("decompose", cmd_decompose, "minimal nonlocal-weight mixture")
    p_dec.add_argument("box_file", help="box as JSON or CSV")
    p_rates = command("rates", cmd_rates, "disturbance sweep of key rates", formats=("csv", "json"))
    p_rates.add_argument("--grid", type=float, default=0.005, help="sweep step in d, positive and finite")
    p_sim = command("simulate", cmd_simulate, "Monte Carlo protocol run")
    p_sim.add_argument("--visibility", type=float, default=0.8, help="isotropic visibility, 0 to 1")
    p_sim.add_argument("--rounds", type=int, default=1_000_000, help="integer >= 1")
    p_sim.add_argument("--seed", type=int, default=0, help="integer >= 0")
    p_sim.add_argument("--records", default="", help="write per-round CSV here")
    p_int = command("intrinsic", cmd_intrinsic, "intrinsic information at one point")
    p_int.add_argument("--p-nl", type=float, required=True, help="nonlocal weight, 0 to 1")
    p_int.add_argument("--announce", action="store_true", help="Alice announces her setting too")
    p_int.add_argument("--restarts", type=int, default=8, help="search starts, integer >= 1")
    p_int.add_argument("--seed", type=int, default=0, help="integer >= 0")
    p_ad = command("ad", cmd_ad, "advantage-distillation thresholds")
    p_ad.add_argument("--n-max", type=int, default=30, help="longest block length, 2 to 511")
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        text = args.run(args)
        if args.out:
            with open(args.out, "w") as fh:
                fh.write(text)
    except (OSError, ValueError, KeyError, MemoryError) as exc:  # every nskd error is a ValueError
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
