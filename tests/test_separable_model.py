"""The abstract's first claim, computed: every local box comes from a separable state, with no secrecy.

A box with nonlocal weight 0 is a mixture sum_l w_l of deterministic
vertices, each answering a_l(x) and b_l(y).  The state

    rho = sum_l w_l |a_l(0) a_l(1)><.| (x) |b_l(0) b_l(1)><.|   on C^4 (x) C^4,

measured by Alice reading her qubit x and Bob reading his qubit y,
reproduces the box by the Born rule, and it is separable by construction:
nonnegative weights summing to 1 on product projectors.  The Werner boxes
at singlet weight 0.4, 0.6 and 0.7 are local, so a separable 4 (x) 4 state
reproduces the correlations of an entangled two-qubit state.  Under the
local decomposition Eve's symbol fixes Bob's bit, so I(A:B|E) = 0 and no
channel of Eve's lowers it: S <= I(A:B down E) <= I(A:B|E) = 0 (Maurer &
Wolf, IEEE TIT 45, 499, 1999).
"""

import numpy as np

from nskd import boxes, polytope, rates
from nskd.attack import FullAttack, sift
from nskd.info import conditional_mutual_information

LOCAL = polytope.vertices()[:16]


def local_boxes() -> dict:
    """Every case: the 16 vertices, 200 seeded Dirichlet(0.3) mixtures, BB84, isotropic and Werner boxes."""
    cases = {vertex.name: vertex.box for vertex in LOCAL}
    tables = np.array([vertex.box.table.ravel() for vertex in LOCAL])
    rng = np.random.default_rng(17)
    for i in range(200):
        cases[f"mixture-{i}"] = boxes.validate(rng.dirichlet(np.full(16, 0.3)) @ tables)
    cases["bb84"] = boxes.bb84_box()
    for v in np.linspace(0.0, 0.5, 11).tolist():
        cases[f"isotropic-{v:g}"] = boxes.isotropic(v)
    for w in (0.4, 0.6, 0.7):
        cases[f"werner-{w:g}"] = boxes.werner_box(w)
    return cases


CASES = local_boxes()


def ket(bits) -> np.ndarray:
    """|bits[0] bits[1]> in C^4."""
    out = np.zeros(4)
    out[2 * bits[0] + bits[1]] = 1.0
    return out


def qubit_projector(qubit: int, bit: int) -> np.ndarray:
    """Projector of C^4 = C^2 (x) C^2 onto the states whose qubit ``qubit`` reads ``bit``."""
    one = np.diag([1.0 - bit, float(bit)])
    return np.kron(one, np.eye(2)) if qubit == 0 else np.kron(np.eye(2), one)


# |a_l(0) a_l(1)><.| (x) |b_l(0) b_l(1)><.| per local vertex l: a local vertex ignores y and the coin
PRODUCTS = np.array(
    [
        np.kron(np.outer(ket(a), ket(a)), np.outer(ket(b), ket(b)))
        for a, b in ((v.responses[:, 0, 0, 0], v.responses[0, :, 0, 1]) for v in LOCAL)
    ]
)
# Pi_a|x (x) Pi_b|y, axes (x, y, a, b, row, column)
MEASUREMENTS = np.array(
    [np.kron(qubit_projector(x, a), qubit_projector(y, b)) for x, y, a, b in np.ndindex(2, 2, 2, 2)]
).reshape(2, 2, 2, 2, 16, 16)


def test_every_product_term_is_a_pure_product_projector():
    for term in PRODUCTS:
        blocks = term.reshape(4, 4, 4, 4)
        alice, bob = blocks.trace(axis1=1, axis2=3), blocks.trace(axis1=0, axis2=2)
        assert np.array_equal(term, np.kron(alice, bob))
        assert np.array_equal(alice @ alice, alice) and np.trace(alice) == 1.0
        assert np.array_equal(bob @ bob, bob) and np.trace(bob) == 1.0


def test_separable_state_reproduces_every_local_box():
    for name, box in CASES.items():
        dec = polytope.min_nonlocal_decomposition(box)
        assert polytope.is_local(box) and dec.nonlocal_weight <= polytope.REPORT_TOL, name
        weights = dec.weights[:16]
        # separable by construction: nonnegative weights summing to 1 on the product projectors
        assert (weights >= 0.0).all() and abs(weights.sum() - 1.0) <= 1e-15, name
        rho = np.einsum("l,lij->ij", weights, PRODUCTS)
        born = np.einsum("ij,xyabji->xyab", rho, MEASUREMENTS)  # tr[rho (Pi_a|x (x) Pi_b|y)]
        assert np.abs(born - box.table).max() <= 1e-15, name


def test_local_decomposition_leaves_no_secrecy():
    for name, box in CASES.items():
        weights = polytope.min_nonlocal_decomposition(box).weights[:16].tolist()
        joint = sift(FullAttack(0.0, tuple((vertex, w) for vertex, w in zip(LOCAL, weights) if w > 0.0)))
        assert conditional_mutual_information(joint.p) == 0.0, name
        # one channel output per Eve symbol, so the identity start alone is exact: I(A:B|E) = 0
        assert rates.intrinsic_search(joint, restarts=1).value == 0.0, name

