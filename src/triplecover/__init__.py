"""Exact-arithmetic enumerative checks for pencils on triple covers of curves.

The library computes with the x/theta subring of the rational cohomology of
symmetric products of a curve, Brill-Noether numerology (rho, Castelnuovo
counts, the rank-1 locus class, the Castelnuovo-Severi degree bound), the
degree ledger of a triple cover embedded in a ruled surface, and the
eigenspace numerology of cyclic triple covers.  Everything is exact: plain
Python integers and ``fractions.Fraction``, no floating point anywhere.
"""

from __future__ import annotations

from . import arith, brill_noether, classexpr, cohomology, cyclic_cover, existence, triple_cover
from .arith import *
from .brill_noether import *
from .classexpr import *
from .cohomology import *
from .cyclic_cover import *
from .existence import *
from .triple_cover import *

__version__ = "0.1.0"

# The command-line front end (``triplecover.cli``) is not re-exported.
__all__ = [
    *arith.__all__,
    *cohomology.__all__,
    *brill_noether.__all__,
    *existence.__all__,
    *triple_cover.__all__,
    *cyclic_cover.__all__,
    *classexpr.__all__,
]
