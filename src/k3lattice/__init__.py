"""Exact-arithmetic toolkit for integral quadratic lattices of K3 type:
Gram-matrix lattices and primitive sublattices of the rank-22 K3 lattice,
certificate-producing deciders for representing 0 and -2, discriminant
groups, Mordell-Weil arithmetic, and a certified catalog of explicit
rank-2 and rank-3 constructions.

Everything runs on Python integers: rationals appear only in the output of
matrices.rational_inverse, never on a decision path. There are no runtime
dependencies and no floating point anywhere.

The package republishes the API modules below: a name is public exactly when
its module's __all__ lists it.
"""

from . import catalog, elliptic, embeddings, k3, lattices, qform
from .catalog import *
from .elliptic import *
from .embeddings import *
from .k3 import *
from .lattices import *
from .qform import *

__version__ = "0.1.0"

__all__ = [
    "__version__",
    *lattices.__all__,
    *embeddings.__all__,
    *qform.__all__,
    *k3.__all__,
    *elliptic.__all__,
    *catalog.__all__,
]
