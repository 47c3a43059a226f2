"""endosign: exact verification of endoscopic-transfer sign combinatorics.

Combinatorial layer for odd special orthogonal p-adic groups: parameter
triples and their assembly, hyperoctahedral and symmetric-group classes as
partition pairs (alpha, beta) and partitions, square-class arithmetic, the
named transfer constants, and exhaustive verifiers for every finitely
checkable identity among them.
"""

from .errors import ResourceLimitError
from .exact import ExactValue
from .localfield import ResidueParam, SquareClass, legendre, sgn_minus_one
from .partitions import Partition, SymplecticPartition, enumerate_symplectic, is_symplectic
from .weyl import class_size_a, class_size_b, sgn_cd

__version__ = "0.1.0"

__all__ = [
    "ExactValue", "Partition", "SymplecticPartition", "ResidueParam", "SquareClass",
    "ResourceLimitError",
    "class_size_a", "class_size_b", "enumerate_symplectic", "is_symplectic",
    "legendre", "sgn_cd", "sgn_minus_one",
]
