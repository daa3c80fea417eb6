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
import io
import json
import math
import sys
from dataclasses import dataclass, fields

import numpy as np

# each command imports the modules it runs, so a start loads only those
from . import boxes
from .exceptions import BoxError, DomainError, EmptyInput, Infeasible


@dataclass
class Config:
    grid: float = 0.005
    restarts: int = 8
    seed: int = 0
    format: str = "csv"
    out: str = ""
    tolerance: float = boxes.PROB_TOL


def _write_out(path: str, text: str) -> None:
    if path:
        with open(path, "w") as fh:
            fh.write(text)


def cmd_vertices(config: Config) -> int:
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
    if config.out:
        if config.format == "json":
            _write_out(config.out, json.dumps(rows))
        else:
            buf = io.StringIO()
            writer = csv.DictWriter(buf, fieldnames=["vertex", "kind", "chsh", "flag"])
            writer.writeheader()
            writer.writerows(rows)
            _write_out(config.out, buf.getvalue())
    return 0


def _load_box(path: str, tolerance: float) -> boxes.Box:
    with open(path) as fh:
        text = fh.read()
    stripped = text.lstrip()
    if stripped.startswith(("{", "[")):
        return boxes.Box.from_json(text, tolerance=tolerance)
    return boxes.Box.from_csv(text, tolerance=tolerance)


def cmd_decompose(path: str, config: Config) -> int:
    from . import polytope

    box = _load_box(path, config.tolerance)
    dec = polytope.min_nonlocal_decomposition(box)
    print(f"nonlocal weight: {dec.nonlocal_weight:.17g}")
    print(f"residual:        {dec.residual:.3e}")
    print(f"relabeling:      {dec.relabeling.name} (CHSH {dec.chsh:.17g})")
    print(f"{'vertex':<10}weight")
    for name, w in dec.as_dict(polytope.REPORT_TOL).items():
        print(f"{name:<10}{w:.17g}")
    if config.out:
        _write_out(config.out, dec.to_json())
    return 0


def cmd_rates(config: Config) -> int:
    from . import rates

    if not 0.0 < config.grid < math.inf:
        raise DomainError(f"grid step {config.grid!r} must be positive and finite")
    d_values = np.arange(0.0, rates.MAX_DISTURBANCE + config.grid / 2, config.grid)
    d_values = np.clip(d_values, 0.0, rates.MAX_DISTURBANCE)
    rows = rates.curve_rows(d_values, restarts=config.restarts, seed=config.seed)
    header = ",".join(rates.CURVE_COLUMNS)
    print(header)
    lines = [header]
    for row in rows:
        line = ",".join(repr(float(row[c])) for c in rates.CURVE_COLUMNS)
        print(line)
        lines.append(line)
    if config.out:
        if config.format == "json":
            _write_out(config.out, json.dumps(rows))
        else:
            _write_out(config.out, "\n".join(lines) + "\n")
    return 0


def cmd_simulate(v: float, n: int, config: Config, records_path: str = "") -> int:
    from . import simulate

    report = simulate.stream_estimate(v, n, seed=config.seed, records=records_path)
    print(f"rounds:   {report.n_rounds}")
    print(f"chsh_hat: {report.chsh_hat:.17g} +- {report.chsh_stderr:.3g}")
    print(f"qber_hat: {report.qber_hat:.17g} +- {report.qber_stderr:.3g}")
    print(f"p_nl_hat: {report.p_nl_hat:.17g}")
    if config.out:
        _write_out(config.out, report.to_json())
    return 0


def cmd_intrinsic(p_nl: float, config: Config, announce: bool = False) -> int:
    from . import attack, rates

    strategy = attack.attack_from_pnl(p_nl)
    joint = attack.sift_alice_announces(strategy) if announce else attack.sift(strategy)
    result = rates.intrinsic_search(joint, restarts=config.restarts, seed=config.seed)
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
    if config.out:
        _write_out(
            config.out,
            json.dumps(
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
            ),
        )
    return 0


def cmd_ad(n_max: int, config: Config) -> int:
    from . import rates

    plain = rates.ad_threshold(n_max)
    combined = rates.ad_preprocessing_threshold(n_max)
    print(f"plain threshold estimate:    {plain.threshold_estimate:.17g}")
    print(f"combined threshold estimate: {combined.threshold_estimate:.17g}")
    print(f"{'n':<6}{'zero_plain':<24}zero_with_preprocessing")
    for (n, z1), (_, z2) in zip(plain.per_n_curve, combined.per_n_curve):
        s1 = "none" if z1 is None else f"{z1:.12g}"
        s2 = "none" if z2 is None else f"{z2:.12g}"
        print(f"{n:<6}{s1:<24}{s2}")
    if config.out:
        payload = {
            "threshold_estimate": plain.threshold_estimate,
            "per_n_curve": plain.per_n_curve,
            "preprocessing_threshold_estimate": combined.threshold_estimate,
            "preprocessing_per_n_curve": combined.per_n_curve,
        }
        _write_out(config.out, json.dumps(payload))
    return 0


def _build_parser() -> argparse.ArgumentParser:
    # shared flags work both before and after the subcommand
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument(
        "--grid", type=float, default=argparse.SUPPRESS, help="sweep resolution"
    )
    common.add_argument(
        "--restarts", type=int, default=argparse.SUPPRESS, help="optimizer restarts"
    )
    common.add_argument(
        "--seed", type=int, default=argparse.SUPPRESS, help="random seed"
    )
    common.add_argument(
        "--format", choices=("csv", "json"), default=argparse.SUPPRESS
    )
    common.add_argument(
        "--out", default=argparse.SUPPRESS, help="write machine output here"
    )
    common.add_argument(
        "--tolerance", type=float, default=argparse.SUPPRESS, help="validation tolerance"
    )

    parser = argparse.ArgumentParser(
        prog="nskd",
        description="No-signaling boxes, eavesdropping decompositions and key rates.",
        parents=[common],
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("vertices", help="list the 24 extreme points", parents=[common])

    p_dec = sub.add_parser(
        "decompose", help="minimal nonlocal-weight mixture", parents=[common]
    )
    p_dec.add_argument("box_file", help="box as JSON or CSV")

    sub.add_parser("rates", help="disturbance sweep of key rates", parents=[common])

    p_sim = sub.add_parser("simulate", help="Monte Carlo protocol run", parents=[common])
    p_sim.add_argument("--visibility", type=float, default=0.8)
    p_sim.add_argument("--rounds", type=int, default=1_000_000)
    p_sim.add_argument("--records", default="", help="write per-round CSV here")

    p_int = sub.add_parser(
        "intrinsic", help="intrinsic information at one point", parents=[common]
    )
    p_int.add_argument("--p-nl", type=float, required=True)
    p_int.add_argument(
        "--announce", action="store_true", help="Alice announces her setting too"
    )

    p_ad = sub.add_parser(
        "ad", help="advantage-distillation thresholds", parents=[common]
    )
    p_ad.add_argument("--n-max", type=int, default=30)

    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    # shared flags default to SUPPRESS, so an absent one takes the Config default
    given = {f.name: getattr(args, f.name) for f in fields(Config) if hasattr(args, f.name)}
    config = Config(**given)
    try:
        if args.command == "vertices":
            return cmd_vertices(config)
        if args.command == "decompose":
            return cmd_decompose(args.box_file, config)
        if args.command == "rates":
            return cmd_rates(config)
        if args.command == "simulate":
            return cmd_simulate(args.visibility, args.rounds, config, args.records)
        if args.command == "intrinsic":
            return cmd_intrinsic(args.p_nl, config, announce=args.announce)
        if args.command == "ad":
            return cmd_ad(args.n_max, config)
        parser.error(f"unknown command {args.command}")
    except (BoxError, DomainError, EmptyInput, Infeasible, OSError, ValueError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
