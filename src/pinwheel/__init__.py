"""Exact combinatorics of the pinwheel stratum / coset / face correspondence.

Three families of objects over a pair (r, n), all indexed by decorated
nested chains of subsets of {1,..,n}:

* pinwheel dual graphs of boundary strata,
* right cosets of standard-generator subgroups in the group S(r, n) of
  generalized permutation matrices,
* faces of the n-dimensional r-permutohedral complex.

The library builds each family, translates between them, applies the group
action, and cross-verifies that the translations preserve dimension,
inclusion, product decompositions and the action, all in exact arithmetic.
"""

# Each module's __all__ is its public API; `cli` stays out (it imports argparse).
from .cyclo import *
from .group import *
from .chains import *
from .cosets import *
from .faces import *
from .strata import *
from .verify import *

__version__ = "0.1.0"
