"""The three workloads: seeded inputs, the timed calls, and their answer checks.

Each workload function takes the seed and a directory for the files it
writes, and returns a list of ``Item``s.  ``call`` is the one timed
top-level call into nskd and returns the answers; ``check`` runs after
the timer stops and returns one record per answer check, the answer next
to what it was checked against.  Inputs (joints, grids, visibilities,
boxes) are built before timing starts.
"""

from __future__ import annotations

import contextlib
import csv
import io
import json
import os
from dataclasses import dataclass
from typing import Callable

import numpy as np

from nskd import attack, boxes, cli, polytope, rates, simulate


@dataclass
class Item:
    label: str
    call: Callable[[], dict]
    check: Callable[[dict], list]


def _record(name, ok, answer, reference):
    return {"check": name, "ok": bool(ok), "answer": answer, "reference": reference}


def failed_call(error):
    return _record("call returns", False, error, None)


def at_most(name, answer, limit):
    return _record(name, answer <= limit, answer, limit)


def at_least(name, answer, limit):
    return _record(name, answer >= limit, answer, limit)


def within(name, answer, target, tol):
    return _record(f"{name} within {tol:g} of {target:g}", abs(answer - target) <= tol, answer, target)


# ---------------------------------------------------------------------------
# intrinsic: deep multistart search of rates.intrinsic_numeric
# ---------------------------------------------------------------------------

# Above the 11 structured starts, so one seeded Dirichlet start runs too.
INTRINSIC_RESTARTS = 12

# (variant, p_nl) -> minimum found by the structured starts alone
# (restarts=11) on the commit that introduced this benchmark.  Any later
# minimizer must match or beat it.
SEED_MINIMA = {
    ("table", 0.25): 0.07419328950030432,
    ("table", 0.5): 0.2624832989301038,
    ("table", 0.75): 0.5501717906585467,
    ("announce", 0.15): 7.080585990982186e-16,
    ("announce", 0.25): 0.0064628086967387505,
}

# In the announce variant the minimum is 0 for p_nl <= 1/5.
ANNOUNCE_ZERO_TOL = 1e-3


def intrinsic(seed: int, out_dir: str) -> list:
    items = []
    for variant, p_nl in SEED_MINIMA:
        if variant == "table":
            joint = attack.table_joint(p_nl)
        else:
            joint = attack.sift_alice_announces(attack.attack_from_pnl(p_nl))

        def call(joint=joint):
            return {"value": rates.intrinsic_numeric(joint, restarts=INTRINSIC_RESTARTS, seed=seed)}

        def check(ans, joint=joint, key=(variant, p_nl)):
            value = ans["value"]
            out = [
                at_least("value >= 0", value, 0.0),
                at_most("value <= intrinsic_upper_bound + 1e-9", value, rates.intrinsic_upper_bound(joint) + 1e-9),
                at_least("value >= oneway_rate - 1e-9", value, rates.oneway_rate(joint) - 1e-9),
                at_most("value <= seed-commit minimum + 1e-6", value, SEED_MINIMA[key] + 1e-6),
            ]
            if key[0] == "announce" and key[1] < 0.2:
                out.append(at_most("value <= 1e-3", value, ANNOUNCE_ZERO_TOL))
            return out

        items.append(Item(f"intrinsic_numeric {variant} p_nl={p_nl}", call, check))
    return items


# ---------------------------------------------------------------------------
# sweep: what `nskd rates --restarts 1` and `nskd ad` compute
# ---------------------------------------------------------------------------

SWEEP_POINTS = 8
AD_N_MAX = 30  # the `nskd ad` default
PREPROCESSING_THRESHOLD = (0.236, 3e-3)
AD_THRESHOLD = (0.2, 0.02)
# rate_q0 is the closed form ck_rate; rate_opt and oneway_rate come through
# the joint array.  At q = 0 the two routes agree only to rounding.
ROUTE_TOL = 1e-12


def sweep(seed: int, out_dir: str) -> list:
    offset = np.random.default_rng(seed).random()
    d_values = [rates.MAX_DISTURBANCE * (i + offset) / SWEEP_POINTS for i in range(SWEEP_POINTS)]
    items = []
    for d in d_values:

        def call(d=d):
            return rates.curve_rows([d], restarts=1, seed=seed)[0]

        def check(row):
            joint = attack.table_joint(row["p_nl"])
            upper = rates.intrinsic_upper_bound(joint)
            oneway = rates.oneway_rate(joint)
            return [
                within("rate_q0 (ck_rate) vs oneway_rate(table_joint)", row["rate_q0"], oneway, ROUTE_TOL),
                at_least("rate_opt >= rate_q0", row["rate_opt"], row["rate_q0"] - ROUTE_TOL),
                at_least("intrinsic_numeric >= rate_opt - 1e-9", row["intrinsic_numeric"], row["rate_opt"] - 1e-9),
                at_most("intrinsic_numeric <= intrinsic_upper_bound + 1e-9", row["intrinsic_numeric"], upper + 1e-9),
            ]

        items.append(Item(f"curve_rows d={d:.6f}", call, check))

    items.append(
        Item(
            "preprocessing_threshold",
            lambda: {"threshold": rates.preprocessing_threshold()},
            lambda ans: [within("threshold", ans["threshold"], *PREPROCESSING_THRESHOLD)],
        )
    )

    out_path = os.path.join(out_dir, "sweep-ad.json")
    argv = ["ad", "--n-max", str(AD_N_MAX), "--format", "json", "--out", out_path]
    direct = {}

    def call_cli():
        with contextlib.redirect_stdout(io.StringIO()):
            code = cli.main(argv)
        with open(out_path) as fh:
            return {"exit_code": code, "json": fh.read()}

    def check_cli(ans):
        if not direct:
            plain = rates.ad_threshold(AD_N_MAX)
            combined = rates.ad_preprocessing_threshold(AD_N_MAX)
            direct.update(
                json.loads(
                    json.dumps(
                        {
                            "threshold_estimate": plain.threshold_estimate,
                            "per_n_curve": plain.per_n_curve,
                            "preprocessing_threshold_estimate": combined.threshold_estimate,
                            "preprocessing_per_n_curve": combined.per_n_curve,
                        }
                    )
                )
            )
        out = [_record("exit code 0", ans["exit_code"] == 0, ans["exit_code"], 0)]
        try:
            payload = json.loads(ans["json"])
        except json.JSONDecodeError as exc:
            return out + [_record("JSON parses", False, str(exc), None)]
        plain = payload["threshold_estimate"]
        combined = payload["preprocessing_threshold_estimate"]
        return out + [
            _record("JSON matches direct call", payload == direct, plain, direct["threshold_estimate"]),
            within("plain estimate", plain, *AD_THRESHOLD),
            _record("combined estimate < 0.2", combined < AD_THRESHOLD[0], combined, AD_THRESHOLD[0]),
            _record("combined estimate < plain", combined < plain, combined, plain),
        ]

    items.append(Item(f"cli ad --n-max {AD_N_MAX}", call_cli, check_cli))
    return items


# ---------------------------------------------------------------------------
# montecarlo: generation, estimators, records serialization, LP
# ---------------------------------------------------------------------------

MC_EXPERIMENTS = 8  # half below visibility 1/2, half above
MC_ROUNDS = 2_000_000
MC_WINDOW = 20_000
MC_BOXES = 4
MC_SIGMAS = 5.0
LP_RESIDUAL = 1e-8


def _window_matches(text: str, log, first: int) -> bool:
    """The CSV window holds exactly rounds [first, first + MC_WINDOW) of the log."""
    rows = list(csv.reader(io.StringIO(text)))
    if rows[0] != ["x", "y", "a", "b", "e", "sifted_a"] or len(rows) != MC_WINDOW + 1:
        return False
    cols = np.array([[r[0], r[1], r[2], r[3], r[5]] for r in rows[1:]], dtype=np.int8).T
    span = slice(first, first + MC_WINDOW)
    names = np.array(log.vertex_names)[log.vertex_index[span]]
    return all(
        np.array_equal(col, ref)
        for col, ref in zip(cols, (log.x[span], log.y[span], log.a[span], log.b[span], log.sifted_a[span]))
    ) and all(r[4] == n for r, n in zip(rows[1:], names))


def montecarlo(seed: int, out_dir: str) -> list:
    rng = np.random.default_rng(seed)
    tables = np.stack([v.box.table for v in polytope.vertices()])
    items = []
    for i in range(MC_EXPERIMENTS):
        v = float(rng.uniform(0.55, 0.95) if i % 2 else rng.uniform(0.3, 0.45))
        run_seed = int(rng.integers(2**31))
        first = int(rng.integers(0, MC_ROUNDS - MC_WINDOW))
        weights = rng.dirichlet(np.full(len(tables), 0.5), size=MC_BOXES)
        flats = [np.tensordot(w, tables, axes=1).ravel() for w in weights]

        def call(v=v, run_seed=run_seed, first=first, flats=flats):
            log = simulate.run(v, MC_ROUNDS, seed=run_seed)
            report = simulate.estimate(log)
            text = simulate.run(v, MC_WINDOW, seed=run_seed, first_round=first).to_csv()
            decs = [polytope.min_nonlocal_decomposition(boxes.validate(flat)) for flat in flats]
            return {"log": log, "report": report, "csv": text, "decompositions": decs}

        def check(ans, v=v, first=first, flats=flats):
            rep = ans["report"]
            out = [
                within("qber_hat", rep.qber_hat, (1 - v) / 2, MC_SIGMAS * rep.qber_stderr),
                within("chsh_hat", rep.chsh_hat, 2 + 2 * v, MC_SIGMAS * rep.chsh_stderr),
                _record(
                    "records CSV equals the log's rounds",
                    _window_matches(ans["csv"], ans["log"], first),
                    f"rounds [{first}, {first + MC_WINDOW})",
                    None,
                ),
            ]
            decs = ans["decompositions"]
            residual = max(dec.residual for dec in decs)
            rebuilt = max(float(np.abs(dec.reconstruct().table.ravel() - flat).max()) for dec, flat in zip(decs, flats))
            return out + [
                _record("max LP residual < 1e-8", residual < LP_RESIDUAL, residual, LP_RESIDUAL),
                _record("max reconstruction error < 1e-8", rebuilt < LP_RESIDUAL, rebuilt, LP_RESIDUAL),
            ]

        items.append(Item(f"experiment v={v:.4f}", call, check))
    return items


WORKLOADS = {"intrinsic": intrinsic, "sweep": sweep, "montecarlo": montecarlo}
