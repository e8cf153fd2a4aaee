"""Oracles against the underlying hard problem and the protocol's leakage.

The exhaustive search solves the bounded matrix-representability search
problem at desk scale: find n matrices in the public set whose ordered
product equals a target.  It tests every sequence exactly, sharing the
work sequences have in common: it carries only column 0 of each prefix
product, one length-r mat-vec per prefix, then takes one length-r dot
product per sequence for the (0, 0) entry of its product.  A sequence
whose entry differs from the target's is provably not a solution; the
full product is formed (n-1 ``mat_mul``), and compared exactly, only on
a match.  The ratio analysis shows what a passive
observer of the public reconstruction reveals can extract: each
consecutive pair of reveals quotients to a raw shadow, found by the
same certified integer solver that strips the blinding in recovery.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass
from operator import mul
from typing import Iterator, List, Optional, Sequence, Tuple

from .algebra import Matrix, chain_product, solve_integer
from .dealer import Bulletin
from .errors import GuardrailExceeded, SingularMatrix
from .transport import Envelope, broadcast_matrices, participant_position

ORDERED_DISTINCT = "ordered-distinct"
ORDERED_WITH_REPETITION = "ordered-rep"
MULTISET = "multiset"

#: sequences an un-forced exhaustive search will refuse to enumerate past
GUARDRAIL_LIMIT = 10**7


@dataclass(frozen=True)
class SearchProblem:
    matrices: Tuple[Matrix, ...]
    n: int
    target: Matrix

    def __post_init__(self):
        object.__setattr__(self, "matrices", tuple(self.matrices))
        if not 1 <= self.n <= len(self.matrices):
            raise ValueError("need 1 <= n <= k")
        dims = {m.dim for m in self.matrices} | {self.target.dim}
        if len(dims) != 1:
            raise ValueError("all matrices must share one dimension")


@dataclass(frozen=True)
class SearchResult:
    solutions: Tuple[Tuple[int, ...], ...]
    nodes_explored: int
    elapsed: float


@dataclass(frozen=True)
class RatioHit:
    """One shadow recovered from a consecutive reveal pair, or a gap.

    A gap (matrix and matrix_index None) means the earlier reveal is
    singular or the quotient is not an integer matrix, so the pair names
    no public-set matrix.
    """

    position: int
    matrix: Optional[Matrix]
    matrix_index: Optional[int]


def count_search_space(k: int, n: int, mode: str) -> int:
    """Cardinality of the search space in the given enumeration mode."""
    if not 1 <= n <= k:
        raise ValueError("need 1 <= n <= k")
    if mode == MULTISET:
        return math.comb(k + n - 1, n)
    if mode == ORDERED_DISTINCT:
        return math.perm(k, n)
    if mode == ORDERED_WITH_REPETITION:
        return k**n
    raise ValueError(f"unknown mode: {mode!r}")


def _prefix_columns(
    matrices: Sequence[Matrix], depth: int, distinct: bool
) -> Iterator[Tuple[Tuple[int, ...], List[int]]]:
    """Yield (prefix, column 0 of its product) for every index prefix of the given depth.

    Prefixes come in the lexicographic order of ``permutations`` (distinct)
    or ``product`` (with repetition), and are read in ring order: later
    indices multiply on the left.  Column 0 of m * acc is m times column 0
    of acc, so each prefix costs one length-r mat-vec onto its parent's
    column and no product is formed.  The empty prefix's column is e_0.
    """
    if depth == 0:
        yield (), [1] + [0] * (matrices[0].dim - 1)
        return
    for prefix, col in _prefix_columns(matrices, depth - 1, distinct):
        for idx, m in enumerate(matrices):
            if not (distinct and idx in prefix):
                yield prefix + (idx,), [sum(map(mul, row, col)) for row in m.rows]


def _tested_sequences(problem: SearchProblem, distinct: bool) -> Iterator[Tuple[Tuple[int, ...], bool]]:
    """Yield (sequence, is_solution) for every sequence, in enumeration order.

    Entry (0, 0) of m * acc is row 0 of m times column 0 of acc; when it
    differs from the target's, m * acc is not the target, exactly.  Only
    a sequence whose corner matches has its full product formed, and only
    the exact comparison of that product with the target makes it a
    solution.
    """
    matrices, target = problem.matrices, problem.target
    corner = target.rows[0][0]
    for prefix, col in _prefix_columns(matrices, problem.n - 1, distinct):
        for idx, m in enumerate(matrices):
            if not (distinct and idx in prefix):
                seq = prefix + (idx,)
                yield seq, (
                    sum(map(mul, m.rows[0], col)) == corner
                    and chain_product(matrices[i] for i in seq) == target
                )


def exhaustive_search(
    problem: SearchProblem,
    mode: str = ORDERED_DISTINCT,
    limit: Optional[int] = None,
    allow_large: bool = False,
) -> SearchResult:
    """Enumerate every ordered sequence in the mode; no pruning, no heuristics.

    Returns each sequence whose ordered product equals the target, up to
    `limit` (at least 1), in the lexicographic order of ``permutations``
    (ordered-distinct) or ``product`` (ordered-rep).  Every sequence is
    tested exactly and counted in ``nodes_explored``.  The cost is one
    length-r mat-vec per prefix of length 1 to n-1 (column 0 of its
    product), plus one length-r dot product per sequence for its (0, 0)
    entry; the full product, n-1 ``mat_mul``, is formed only when that
    entry matches the target's, and a solution is reported only after that
    product compares equal to the target.  At worst every corner matches,
    as over a set of identities, and each sequence costs n-1 ``mat_mul``.
    Spaces beyond the desk-scale guardrail are refused unless explicitly
    overridden.
    """
    if mode not in (ORDERED_DISTINCT, ORDERED_WITH_REPETITION):
        raise ValueError(f"mode must be enumerable, got {mode!r}")
    if limit is not None and limit < 1:
        raise ValueError(f"limit must be >= 1, got {limit}")
    k = len(problem.matrices)
    space = count_search_space(k, problem.n, mode)
    if space > GUARDRAIL_LIMIT and not allow_large:
        raise GuardrailExceeded(space, GUARDRAIL_LIMIT)

    started = time.perf_counter()
    solutions: List[Tuple[int, ...]] = []
    nodes = 0
    for seq, is_solution in _tested_sequences(problem, mode == ORDERED_DISTINCT):
        nodes += 1
        if is_solution:
            solutions.append(seq)
            if limit is not None and len(solutions) >= limit:
                break
    elapsed = time.perf_counter() - started
    return SearchResult(tuple(solutions), nodes, elapsed)


def ratio_analysis(eavesdropper_view: Sequence[Envelope], bulletin: Bulletin) -> List[RatioHit]:
    """Recover shadows from consecutive public reconstruction reveals.

    For reveals V_j, V_{j+1} the quotient V_{j+1} V_j^-1 is exactly the
    shadow of whoever broadcast V_{j+1}; matching it against the public
    set identifies that participant's secret index.  The quotient comes
    from ``solve_integer``, certified exactly; a singular reveal or a
    quotient that is not integral yields a gap entry instead.
    """
    reveals = broadcast_matrices(eavesdropper_view)
    hits: List[RatioHit] = []
    for prev, nxt in zip(reveals, reveals[1:]):
        position = participant_position(nxt.sender)
        try:
            shadow = solve_integer(prev.payload, nxt.payload)
        except SingularMatrix:
            shadow = None
        index = next(
            (m for m, candidate in enumerate(bulletin.matrices) if candidate == shadow),
            None,
        )
        hits.append(RatioHit(position=position, matrix=shadow, matrix_index=index))
    return hits
