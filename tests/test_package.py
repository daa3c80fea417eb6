"""The package namespace: every name ``nskd`` exports, loaded on first lookup.

The checks run in a fresh interpreter, so no module imported earlier in
the test session can stand in for a name the package fails to provide.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import nskd

# defining module -> the names the package exports from it
EXPORTS = {
    "attack": [
        "EveSymbol",
        "FullAttack",
        "JointABE",
        "alice_bob_stats",
        "attack_from_pnl",
        "optimal_attack",
        "sift",
        "sift_alice_announces",
        "table_joint",
    ],
    "boxes": [
        "Box",
        "bb84_box",
        "chsh",
        "chsh_symmetrized",
        "isotropic",
        "twirl_to_isotropic",
        "validate",
        "werner_box",
    ],
    "exceptions": [
        "BoxError",
        "DomainError",
        "EmptyInput",
        "Infeasible",
        "NegativeProbability",
        "NotNormalized",
        "Signaling",
    ],
    "info": ["binary_entropy", "conditional_mutual_information", "mutual_information"],
    "polytope": ["Decomposition", "Vertex", "is_local", "min_nonlocal_decomposition", "vertices"],
    "rates": [
        "Channel",
        "ad_block_ensemble",
        "ad_preprocessing_threshold",
        "ad_threshold",
        "ad_with_preprocessing",
        "ck_rate",
        "disturbance_to_pnl",
        "intrinsic_closed",
        "intrinsic_exact",
        "intrinsic_numeric",
        "intrinsic_search",
        "oneway_rate",
        "oneway_threshold",
        "optimize_preprocessing",
        "pnl_to_disturbance",
        "preprocessing_threshold",
    ],
    "simulate": ["EstimateReport", "RoundLog", "estimate", "run", "stream_estimate"],
}

# Lookups come first, dir() before anything is loaded, then each name by
# attribute, then the star import; only then are the defining modules read.
SCRIPT = """
import importlib, json, sys
import nskd
exports = json.loads(sys.argv[1])
names = [*exports, *(n for ns in exports.values() for n in ns), "__version__"]
listed = set(dir(nskd))
looked_up = {name: getattr(nskd, name, None) for name in names}
star = {}
exec("from nskd import *", star)
defined = {"__version__": vars(nskd)["__version__"]}
for module, exported in exports.items():
    defined[module] = importlib.import_module("nskd." + module)
    defined.update((name, getattr(defined[module], name)) for name in exported)
try:
    nskd.no_such_name
    unknown = None
except AttributeError as exc:
    unknown = str(exc)
print(json.dumps({
    "names": len(names),
    "version": looked_up["__version__"],
    "not_listed": [n for n in names if n not in listed],
    "wrong_lookup": [n for n in names if looked_up[n] is not defined[n]],
    "wrong_star": [n for n in names if star.get(n) is not defined[n]],
    "unknown": unknown,
}))
"""


def test_namespace_is_the_eager_one():
    src = str(Path(nskd.__file__).resolve().parents[1])
    proc = subprocess.run(
        [sys.executable, "-c", SCRIPT, json.dumps(EXPORTS)],
        capture_output=True,
        text=True,
        timeout=120,
        env={**os.environ, "PYTHONPATH": src},
    )
    assert proc.returncode == 0, proc.stderr
    report = json.loads(proc.stdout.splitlines()[-1])
    assert report["names"] == 53 + 7 + 1
    assert report["version"] == "0.1.0"
    assert report["not_listed"] == []
    assert report["wrong_lookup"] == []
    assert report["wrong_star"] == []
    assert report["unknown"] == "module 'nskd' has no attribute 'no_such_name'"


def test_readme_library_example_runs():
    # the README's example calls the public API, so an API change that breaks it fails here
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    example = readme.split("## Library example", 1)[1].split("```python\n", 1)[1].split("```", 1)[0]
    src = str(Path(nskd.__file__).resolve().parents[1])
    proc = subprocess.run(
        [sys.executable, "-c", example],
        capture_output=True,
        text=True,
        timeout=120,
        env={**os.environ, "PYTHONPATH": src},
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stderr == ""
    assert len(proc.stdout.splitlines()) == 3  # the example's three prints
