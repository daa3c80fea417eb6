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


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)
