"""liaisonlab: exact polynomial-ideal engine over prime fields with the
full toolbox of linkage operations (direct links, basic double links,
liaison addition, Gorenstein constructions, Gaeta and stable-ideal
descents to complete intersections)."""

__version__ = "0.1.0"

from .ring import Ring, Order, PrimeField  # noqa: F401
from .ideals import Ideal, PolyMatrix  # noqa: F401
