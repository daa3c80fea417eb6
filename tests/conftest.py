import math

import numpy as np
import pytest

from nskd import polytope
from nskd.boxes import Box, _make_box


def random_mixture_box(rng: np.random.Generator, concentration: float = 0.5) -> Box:
    """A random point of the no-signaling polytope via vertex mixtures."""
    weights = rng.dirichlet(np.full(24, concentration))
    table = np.zeros((2, 2, 2, 2))
    for w, vertex in zip(weights, polytope.vertices()):
        table += w * vertex.box.table
    return _make_box(table)


def joint_cell(joint, a: int, b: int, symbol) -> float:
    """P(a, b, symbol) of a sifted joint; 0.0 for a symbol it does not have."""
    return float(joint.p[a, b, joint.symbols.index(symbol)]) if symbol in joint.symbols else 0.0


def edge_pnls() -> list:
    """p_nl values where a closed-form sifted table could part from the sift by one bit.

    The ends, the last double below 1, 1/5 and its neighbours, the subnormals where the PR
    box's eighth underflows, log-uniform values down to 1e-320, seeded uniform values and
    the 2001-point grid.
    """
    rng = np.random.default_rng(36)
    ends = [0.0, 1.0, 1.0 - 2.0**-53, math.nextafter(0.2, 0.0), 0.2, math.nextafter(0.2, 1.0)]
    subnormal = [k * 5e-324 for k in range(1, 9)] + [2.0**-1022 - 5e-324, 2.0**-1022]
    log_uniform = (10.0 ** rng.uniform(-320.0, 0.0, 200)).tolist()
    return ends + subnormal + log_uniform + rng.random(500).tolist() + np.linspace(0.0, 1.0, 2001).tolist()


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)
