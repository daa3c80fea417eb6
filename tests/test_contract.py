"""The argument contract: counts are Python ints, probabilities Python floats, bad input exits 2.

Every public count passes ``exceptions._as_count`` and every probability
``exceptions._as_fraction``.  The first tests pin what that conversion
changes: numpy scalars compute exactly as Python numbers do, and bools are
refused.  The last one fuzzes ``nskd`` over every subcommand and flag.
"""

import contextlib
import io
import json
import math
import warnings
from decimal import Decimal
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nskd import attack, boxes, cli, info, rates, simulate
from nskd.attack import table_joint
from nskd.exceptions import DomainError, NotNormalized, _as_count, _as_fraction
from nskd.info import binary_entropy


def test_numpy_integer_block_length_gives_the_same_bits():
    # pow(float, np.int64) is numpy's power, not C pow, and differed in 2000 of these pairs
    for p_nl in np.linspace(0.02, 0.92, 37).tolist():
        for n in range(1, 400):
            assert rates.ad_block_ensemble(p_nl, np.int64(n)) == rates.ad_block_ensemble(p_nl, n)


@pytest.mark.parametrize(
    "call",
    [
        rates.ck_rate,
        rates.intrinsic_closed,
        lambda p: rates.optimize_preprocessing(p).q_opt,
        lambda p: rates.optimize_preprocessing(p).rate,
        lambda p: rates.ad_block_ensemble(p, 5).p_accept,
        lambda p: rates.ad_block_ensemble(p, 5).bob_error,
        lambda p: rates.ad_block_ensemble(p, 5).blind,
        lambda p: rates.ad_block_ensemble(p, 7).rate(),
        lambda p: rates.ad_block_ensemble(0.5, 3).rate(p),
        lambda p: rates.intrinsic_exact(p).lower,
        lambda p: rates.intrinsic_exact(p, announce=True).lower,
        rates.pnl_to_disturbance,
        lambda p: attack.attack_from_pnl(p).p_nl,
        binary_entropy,
    ],
    ids=[
        "ck_rate",
        "intrinsic_closed",
        "q_opt",
        "rate_opt",
        "p_accept",
        "bob_error",
        "blind",
        "plain_rate",
        "noisy_rate",
        "exact_lower",
        "announce_lower",
        "pnl_to_disturbance",
        "attack_p_nl",
        "binary_entropy",
    ],
)
def test_float32_probability_computes_in_double(call):
    # with a float32 operand numpy computes in single precision (NEP 50)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        value = call(np.float32(0.3))
        assert type(value) is float
        assert value == call(float(np.float32(0.3)))


@pytest.mark.parametrize(
    "call, message",
    [
        (lambda: simulate.run(0.8, True), "rounds True must be an integer"),
        (lambda: simulate.run(0.8, 100, seed=True), "seed True must be an integer"),
        (lambda: simulate.run(0.8, 100, first_round=True), "first_round True must be an integer"),
        (lambda: simulate.stream_estimate(0.8, True), "rounds True must be an integer"),
        (lambda: rates.intrinsic_search(table_joint(0.5), restarts=True), "restarts True must be an integer"),
        (lambda: rates.intrinsic_search(table_joint(0.5), seed=True), "seed True must be an integer"),
        (lambda: rates.curve_rows([0.01], restarts=True), "restarts True must be an integer"),
        (lambda: rates.curve_rows([0.01], seed=True), "seed True must be an integer"),
        (lambda: rates.ad_block_ensemble(0.3, True), "block length True must be an integer"),
        (lambda: rates.ad_block_ensemble(0.3, np.bool_(True)), "block length np.True_ must be an integer"),
        (lambda: rates.ad_threshold(True), "n_max True must be an integer"),
        (lambda: rates.ad_preprocessing_threshold(True), "n_max True must be an integer"),
        (lambda: rates.ad_with_preprocessing(0.3, True), "n_max True must be an integer"),
        (lambda: rates.ck_rate(True), "p_nl True outside [0, 1]"),
        (lambda: rates.intrinsic_closed(False), "p_nl False outside [0, 1]"),
        (lambda: rates.intrinsic_exact(True), "p_nl True outside [0, 1]"),
        (lambda: rates.ad_block_ensemble(True, 3), "p_nl True outside [0, 1]"),
        (lambda: attack.attack_from_pnl(True), "p_nl True outside [0, 1]"),
        (lambda: attack.optimal_attack(True), "visibility True outside [0, 1]"),
        (lambda: boxes.isotropic(True), "visibility True outside [0, 1]"),
        (lambda: simulate.run(True, 100), "visibility True outside [0, 1]"),
        (lambda: rates.ad_block_ensemble(0.5, 3).rate(True), "noise True outside [0, 0.5]"),
        (lambda: rates.ad_block_ensemble(0.5, 3).rate(math.nan), "noise nan outside [0, 0.5]"),
    ],
    ids=[
        "run-rounds",
        "run-seed",
        "run-first-round",
        "stream-rounds",
        "search-restarts",
        "search-seed",
        "rows-restarts",
        "rows-seed",
        "ensemble-n",
        "ad-rate-numpy-bool",
        "ad-threshold",
        "ad-preprocessing-threshold",
        "ad-with-preprocessing",
        "ck-rate",
        "intrinsic-closed",
        "intrinsic-exact",
        "ensemble-p-nl",
        "attack-from-pnl",
        "optimal-attack",
        "isotropic",
        "run-visibility",
        "noise",
        "noise-nan",
    ],
)
def test_bool_is_refused(call, message):
    with pytest.raises(DomainError) as err:
        call()
    assert str(err.value) == message


@pytest.mark.parametrize("zero", [-0.0, np.float64(-0.0), 0.0])
def test_signed_zero_is_returned_as_plus_zero(zero):
    assert math.copysign(1.0, _as_fraction("x", zero)) == 1.0


# (value, what _as_count("n", value, 1) gives, what _as_fraction("p", value) gives): a Python
# int or float, or the DomainError message.  A plain int or float takes a shorter path than the
# others, with the same result for each of these.
CONTRACT = [
    (5, 5, "p 5 outside [0, 1]"),
    (0, "n 0 must be at least 1", 0.0),
    (1, 1, 1.0),
    (True, "n True must be an integer", "p True outside [0, 1]"),
    (np.int64(5), 5, "p np.int64(5) outside [0, 1]"),
    (np.int64(0), "n np.int64(0) must be at least 1", 0.0),
    (0.25, "n 0.25 must be an integer", 0.25),
    (2.0, "n 2.0 must be an integer", "p 2.0 outside [0, 1]"),
    (np.float32(0.3), "n np.float32(0.3) must be an integer", 0.30000001192092896),
    (np.float64(0.3), "n np.float64(0.3) must be an integer", 0.3),
    (Fraction(1, 3), "n Fraction(1, 3) must be an integer", 0.3333333333333333),
    (Decimal("0.5"), "n Decimal('0.5') must be an integer", "p Decimal('0.5') outside [0, 1]"),
    (math.nan, "n nan must be an integer", "p nan outside [0, 1]"),
    (math.inf, "n inf must be an integer", "p inf outside [0, 1]"),
    (-math.inf, "n -inf must be an integer", "p -inf outside [0, 1]"),
    (-0.0, "n -0.0 must be an integer", 0.0),
]


@pytest.mark.parametrize("value, count, _", CONTRACT, ids=[repr(row[0]) for row in CONTRACT])
def test_count_contract(value, count, _):
    if isinstance(count, str):
        with pytest.raises(DomainError) as err:
            _as_count("n", value, 1)
        assert str(err.value) == count
    else:
        result = _as_count("n", value, 1)
        assert type(result) is int and result == count


@pytest.mark.parametrize("value, _, fraction", CONTRACT, ids=[repr(row[0]) for row in CONTRACT])
def test_fraction_contract(value, _, fraction):
    if isinstance(fraction, str):
        with pytest.raises(DomainError) as err:
            _as_fraction("p", value)
        assert str(err.value) == fraction
    else:
        result = _as_fraction("p", value)
        assert type(result) is float and result == fraction and math.copysign(1.0, result) == 1.0


def _joint(*moves):
    """table_joint(0.3).p with each (cell, delta) added."""
    p = table_joint(0.3).p.copy()
    for cell, delta in moves:
        p[cell] += delta
    return p


@pytest.mark.parametrize(
    "table, axis, message",
    [
        (_joint(((0, 0, 0), math.nan)), None, "weights must be finite"),
        (_joint(((0, 1, 0), -2e-9), ((0, 0, 0), 2e-9)), None, "weights must be nonnegative"),
        (_joint(((1, 1, 4), 2e-9)), None, "weights sum to 1.000000002, not normalized to 1"),
        (np.eye(5) + np.diag([0.0, 0.0, 0.0, 2e-9, 0.0]), 1, "weights sum to 1.000000002, not normalized to 1"),
    ],
    ids=["nan", "negative", "joint-off", "channel-row-off"],
)
def test_normalization_contract(table, axis, message):
    with pytest.raises(NotNormalized) as err:
        info._check_normalized(table, axis)
    assert str(err.value) == message


def test_negative_zero_p_nl_reads_zero(tmp_path, capsys):
    # the CLI echoes the checked p_nl, so -0 prints and writes exactly what 0 does
    outputs = []
    for i, value in enumerate(["-0", "0"]):
        out_file = tmp_path / f"{i}.json"
        assert cli.main(["intrinsic", "--p-nl", value, "--restarts", "1", "--out", str(out_file)]) == 0
        outputs.append((capsys.readouterr().out, out_file.read_text()))
    assert outputs[0] == outputs[1]
    assert outputs[0][0].splitlines()[0] == "p_nl:              0"
    assert outputs[0][1].startswith('{"p_nl": 0.0,')


# Flag values that every flag must refuse or survive.  Values that scale the work
# (--rounds, --restarts, a small --grid) are drawn from bounded ranges only.
REFUSED = ["nan", "NaN", "inf", "-inf", "0", "-0", "-0.0", "-1", "-7", "True", "abc", "", "0x10", "1.5", "1e3"]
HUGE = ["1e400", "-1e400", str(10**30), str(-(10**30))]


def _floats(lo, hi):
    return st.floats(lo, hi).map(repr)


def _values(*valid):
    return st.one_of(st.sampled_from(REFUSED), *valid)


PROBABILITY = _values(st.sampled_from(HUGE), _floats(0.0, 1.0), st.floats().map(repr))
SEED = _values(st.sampled_from(HUGE), st.integers(0, 2**70).map(str))
# every command takes --format (vertices and rates write csv or json, the others json) and --out
OUTPUT = {"--format": st.sampled_from(["csv", "json", "xml"]), "--out": "path"}
COMMANDS = {
    "vertices": {},
    "decompose": {},
    "rates": {"--grid": _values(st.sampled_from(HUGE), _floats(0.02, 1e300))},
    "simulate": {
        "--visibility": PROBABILITY,
        "--rounds": _values(st.integers(1, 10**4).map(str)),
        "--seed": SEED,
        "--records": "path",
    },
    "intrinsic": {
        "--p-nl": PROBABILITY,
        "--announce": None,
        "--restarts": _values(st.sampled_from(["-1e400", str(-(10**30))]), st.integers(1, 4).map(str)),
        "--seed": SEED,
    },
    "ad": {"--n-max": _values(st.sampled_from(HUGE), st.integers(0, 40).map(str), st.integers(512, 10**9).map(str))},
}

JSON = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=2),
    lambda inner: st.lists(inner, max_size=17) | st.dictionaries(st.sampled_from(["p", "q"]), inner, max_size=2),
    max_leaves=17,
)
CELL = st.one_of(st.sampled_from(REFUSED + HUGE), _floats(-0.1, 1.1), st.just("0.0625"))


@st.composite
def box_file(draw):
    """Bytes of a box file: random bytes, a random JSON shape, a CSV variant or a valid box."""
    kind = draw(st.sampled_from(["bytes", "json", "csv", "valid"]))
    if kind == "bytes":
        return draw(st.binary(max_size=64))
    if kind == "json":
        return json.dumps(draw(JSON)).encode()
    if kind == "valid":
        box = boxes.isotropic(draw(st.floats(0.0, 1.0)))
        return (box.to_json() if draw(st.booleans()) else box.to_csv()).encode()
    header = draw(st.permutations(boxes.CSV_HEADER))[: draw(st.integers(0, 17))]
    rows = draw(st.lists(st.lists(CELL, min_size=0, max_size=17), max_size=2))
    sep = draw(st.sampled_from([",", ";", "\t"]))
    return "\n".join(sep.join(row) for row in [header, *rows]).encode()


@st.composite
def argv(draw, workdir):
    """An nskd command line: the subcommand, then flags drawn from those it reads."""
    paths = ["", str(workdir / "out.txt"), str(workdir), str(workdir / "missing" / "out.txt")]
    command = draw(st.sampled_from(sorted(COMMANDS)))
    flags = {**OUTPUT, **COMMANDS[command]}
    chosen = draw(st.lists(st.sampled_from(sorted(flags)), unique=True, max_size=5))
    if command == "rates" and "--grid" not in chosen:
        chosen.append("--grid")  # the default 0.005 runs 30 rows
    if command == "intrinsic" and "--p-nl" not in chosen and draw(st.integers(0, 9)):
        chosen.append("--p-nl")
    words = [command]
    if command == "decompose":
        box = workdir / "box"
        box.write_bytes(draw(box_file()))
        words.append(draw(st.sampled_from([str(box)] * 8 + [str(workdir), str(workdir / "missing.json")])))
    for flag in chosen:
        strategy = flags[flag]
        if strategy is None:
            words.append(flag)
            continue
        value = draw(st.sampled_from(paths)) if strategy == "path" else draw(strategy)
        words.extend([f"{flag}={value}"] if draw(st.booleans()) else [flag, value])
    return words


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz")


@given(data=st.data())
@settings(max_examples=500, derandomize=True, deadline=None, database=None)
def test_every_command_line_exits_zero_or_two(workdir, data):
    words = data.draw(argv(workdir), label="argv")
    stdout, stderr = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        try:
            code = cli.main(words)
        except SystemExit as stop:  # argparse's usage error
            code = stop.code
    err = stderr.getvalue()
    assert code in (0, 2), err
    assert "Traceback" not in err
    if code == 2:
        assert err.startswith(("error:", "usage:")), err
