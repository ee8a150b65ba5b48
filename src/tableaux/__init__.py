"""Exact Young-tableaux combinatorics with built-in cross-checking.

Partitions and hook-length counting, semistandard tableau enumeration,
Schur polynomial algebra, the Littlewood-Richardson rule, and the
Schensted correspondence. Every headline number can be reached by two
independent routes (formula vs. enumeration, combinatorial rule vs.
basis expansion, insertion vs. patience sorting), and the test suite
holds the routes to exact agreement.

All values are immutable and all operations are pure functions, so the
library is safe to use from multiple threads; iterators are
single-consumer.
"""

from .fillings import (
    EntryExceedsBoundError,
    Filling,
    bender_knuth,
    enumerate_ssyt,
    enumerate_syt,
)
from .littlewood_richardson import (
    enumerate_lr_fillings,
    is_lattice,
    lr_coefficient,
    reverse_reading_word,
)
from .partitions import (
    EMPTY,
    GuardExceededError,
    InvalidBoxError,
    NotContainedError,
    NotWeaklyDecreasingError,
    Partition,
    SkewShape,
    count_standard_tableaux,
    format_partition,
    parse_partition,
    partitions_of,
)
from .polynomials import Polynomial, WidthMismatchError, format_polynomial
from .rsk import (
    MalformedPairError,
    Permutation,
    RskPair,
    format_permutation,
    inverse_rsk,
    lis_length,
    parse_permutation,
    row_insert,
    rsk,
    rsk_trace,
)
from .schur import NotHomogeneousError, NotSymmetricError, schur_expand, schur_polynomial

__all__ = [
    "EMPTY",
    "EntryExceedsBoundError",
    "Filling",
    "GuardExceededError",
    "InvalidBoxError",
    "MalformedPairError",
    "NotContainedError",
    "NotHomogeneousError",
    "NotSymmetricError",
    "NotWeaklyDecreasingError",
    "Partition",
    "Permutation",
    "Polynomial",
    "RskPair",
    "SkewShape",
    "WidthMismatchError",
    "bender_knuth",
    "count_standard_tableaux",
    "enumerate_lr_fillings",
    "enumerate_ssyt",
    "enumerate_syt",
    "format_partition",
    "format_permutation",
    "format_polynomial",
    "inverse_rsk",
    "is_lattice",
    "lis_length",
    "lr_coefficient",
    "parse_partition",
    "parse_permutation",
    "partitions_of",
    "reverse_reading_word",
    "row_insert",
    "rsk",
    "rsk_trace",
    "schur_expand",
    "schur_polynomial",
]
