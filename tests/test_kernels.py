"""Parity of the numba and pure-numpy reduction kernels on seeded term
arrays.  Skipped where numba is not installed."""

import numpy as np
import pytest

pytest.importorskip("numba")

from liaisonlab import _kernels as K  # noqa: E402
from liaisonlab.groebner import buchberger  # noqa: E402
from liaisonlab.ring import Ring  # noqa: E402

pytestmark = pytest.mark.skipif(not K.USE_NUMBA, reason="numba kernels switched off")


def _arrays(f):
    return f.keys, f.exps, f.coeffs


def _same(a, b):
    return all(np.array_equal(x, y) for x, y in zip(a, b))


def test_merge_sub_parity():
    R = Ring(4, 32003)
    rng = np.random.default_rng(11)
    for _ in range(30):
        f = R.random_poly(int(rng.integers(0, 5)), rng)
        g = R.random_poly(int(rng.integers(0, 5)), rng)
        for a, b in ((f, g), (f, f), (g, f)):
            args = _arrays(a) + _arrays(b) + (R.p,)
            assert _same(K._py_merge_sub(*args), K._nb_merge_sub(*args))


def test_normal_form_parity():
    R = Ring(4, 32003)
    rng = np.random.default_rng(12)
    x0, x1, x2, x3 = R.gens()
    G = buchberger([x0 * x2 - x1 ** 2, x0 * x3 - x1 * x2, x1 * x3 - x2 ** 2])
    basis = G.concat()
    for _ in range(30):
        f = R.random_poly(int(rng.integers(1, 6)), rng)
        args = _arrays(f) + basis + (R.p,)
        assert _same(K._py_normal_form(*args), K._nb_normal_form(*args))
