"""Property tests of the zero-bias law of a finite discrete base, over
random centered laws of 2 to 12 atoms: its stop-loss is the exact sum
E[W (W - t)_+^2] / (2 sigma^2), its cdf runs from 0 at the lowest atom to 1
at the highest, and its quantile inverts its cdf inside the support."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from steinbounds.distributions import DiscreteDistribution
from steinbounds.transforms import zero_bias

# (atom, weight) pairs on a lattice of step 1/4 in [-5, 5], distinct atoms
ATOMS = st.lists(st.tuples(st.integers(-20, 20), st.integers(1, 50)),
                 min_size=2, max_size=12, unique_by=lambda a: a[0])


def _centered_law(atoms):
    vals = np.array([v for v, _ in atoms], dtype=float) / 4.0
    probs = np.array([w for _, w in atoms], dtype=float)
    probs /= probs.sum()
    return DiscreteDistribution(vals - probs @ vals, probs)


@settings(derandomize=True, database=None, max_examples=60, deadline=None)
@given(ATOMS, st.floats(0.01, 0.99))
def test_zero_bias_of_atoms(atoms, u):
    d = _centered_law(atoms)
    zb = zero_bias(d)
    vals, probs = d.atoms()
    lo, hi = vals[0], vals[-1]
    t = np.concatenate([vals, np.linspace(lo - 1.0, hi + 1.0, 37)])
    exact = (probs * vals * np.maximum(vals - t[:, None], 0.0) ** 2).sum(1)
    assert np.max(np.abs(zb.stop_loss(t) - exact / (2.0 * d.var()))) <= 1e-12
    assert abs(zb.cdf(lo)) <= 1e-12
    assert abs(zb.cdf(hi) - 1.0) <= 1e-12
    x = lo + u * (hi - lo)
    assert abs(zb.quantile(zb.cdf(x)) - x) <= 1e-9
