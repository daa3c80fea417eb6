"""The package API that the benchmark in perfbench/ relies on.

perfbench/ drives nskd from outside and looks names up by attribute, so
a clean-up inside the package can break it without breaking any other
test.  These checks resolve every traced name, build every workload's
items, and run every workload's items through their answer checks.
"""

import importlib.util
import sys
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def _load(name):
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses look their module up here
    spec.loader.exec_module(module)
    return module


@pytest.fixture(scope="module")
def tracing():
    return _load("tracing")


@pytest.fixture(scope="module")
def workloads():
    return _load("workloads")


def test_traced_names_resolve_in_every_owner(tracing):
    missing = [
        f"{owner.__name__}.{name.rsplit('.', 1)[1]}"
        for name, (owners, _) in tracing.TARGETS.items()
        for owner in owners
        if not callable(getattr(owner, name.rsplit(".", 1)[1], None))
    ]
    assert missing == []


def test_scipy_names_load_on_lookup_and_survive_tracing(tracing):
    # nskd imports no scipy; the tracer's two scipy names load on first lookup
    import scipy.optimize

    from nskd import polytope, rates

    assert rates.minimize is scipy.optimize.minimize
    assert polytope.linprog is scipy.optimize.linprog
    with tracing.Tracer().installed():
        assert rates.minimize is not scipy.optimize.minimize
        assert polytope.linprog is not scipy.optimize.linprog
    assert rates.minimize is scipy.optimize.minimize
    assert polytope.linprog is scipy.optimize.linprog
    for module in (rates, polytope):
        with pytest.raises(AttributeError):
            getattr(module, "no_such_name")


@pytest.mark.parametrize("workload", ["intrinsic", "sweep", "montecarlo"])
def test_workload_items_build(workloads, workload, tmp_path):
    items = workloads.WORKLOADS[workload](101, str(tmp_path))
    assert items
    for item in items:
        assert isinstance(item, workloads.Item)
        assert callable(item.call) and callable(item.check)


def _failed_checks(workloads, workload, tmp_path):
    return [
        (item.label, record)
        for item in workloads.WORKLOADS[workload](101, str(tmp_path))
        for record in item.check(item.call())
        if not record["ok"]
    ]


def test_intrinsic_answers_pass_their_checks(workloads, tmp_path):
    # the benchmark's answer gate on the minimizer: pinned minima, sandwich, announce zero
    assert _failed_checks(workloads, "intrinsic", tmp_path) == []


def test_sweep_answers_pass_their_checks(workloads, tmp_path):
    # route agreement, the thresholds, and the `nskd ad` JSON payload equal to
    # the direct call key for key
    assert _failed_checks(workloads, "sweep", tmp_path) == []


def test_montecarlo_answers_pass_their_checks(workloads, tmp_path):
    # the 5-sigma estimates, the records CSV window against the log, and the
    # LP residual and reconstruction of the decompositions
    assert _failed_checks(workloads, "montecarlo", tmp_path) == []
