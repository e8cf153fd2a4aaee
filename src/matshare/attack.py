"""Oracles against the underlying hard problem and the protocol's leakage.

The exhaustive search solves the bounded matrix-representability search
problem at desk scale: find n matrices in the public set whose ordered
product equals a target.  It tests every sequence exactly, sharing the
work sequences have in common.  A sequence splits into a prefix and a
suffix, and the (0, 0) entry of its product is row 0 of the suffix's
product times column 0 of the prefix's.  Each prefix column and each
suffix row is formed once, one length-r mat-vec apiece; the suffix rows
are packed into r big ints, so one packed product per prefix yields the
(0, 0) entries of all its sequences at once, and ``bytes.find`` picks
out those equal to the target's.  A sequence whose entry differs is
provably not a solution; the full product is formed (n-1 ``mat_mul``),
and compared exactly, only on a match.  The ratio analysis shows what a
passive observer of the public reconstruction reveals can extract: each
consecutive pair of reveals quotients to a raw shadow, found by the
same certified integer solver that strips the blinding in recovery.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass
from itertools import repeat
from operator import add, mul
from typing import Iterator, List, Optional, Sequence, Tuple

from .algebra import Matrix, _max_bits, _pack, _width, chain_product, solve_integer
from .dealer import Bulletin
from .errors import GuardrailExceeded, SingularMatrix
from .transport import Envelope, broadcast_matrices, participant_position

ORDERED_DISTINCT = "ordered-distinct"
ORDERED_WITH_REPETITION = "ordered-rep"
MULTISET = "multiset"

#: sequences an un-forced exhaustive search will refuse to enumerate past
GUARDRAIL_LIMIT = 10**7

#: most suffixes one search packs: a longer suffix gives indices to the
#: prefix, down to one index (whose k rows are the matrices' own row 0)
_SUFFIX_ROWS = 4096


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
    column and no product is formed.  The empty prefix's column is e_0,
    given as [1]: ``map`` stops at the shorter of its iterables, so the
    zeros after it need not be written.
    """
    if depth == 0:
        yield (), [1]
        return
    for prefix, col in _prefix_columns(matrices, depth - 1, distinct):
        for idx, m in enumerate(matrices):
            if not (distinct and idx in prefix):
                yield prefix + (idx,), [sum(map(mul, row, col)) for row in m.rows]


def _suffix_rows(matrices: Sequence[Matrix], depth: int, distinct: bool):
    """(suffixes, rows): every index suffix of the given depth and row 0 of its product.

    Suffixes come in the same lexicographic order as prefixes, and are
    read in ring order too, so (i, *rest) multiplies rest's product by
    M_i on the right: its row 0 is rest's row 0 times M_i, one length-r
    mat-vec on M_i's transpose, and the suffixes that start with i come in
    the order of the shorter ones.  Depth 1 takes row 0 of each matrix.
    """
    suffixes, rows = tuple(zip(range(len(matrices)))), tuple(m.rows[0] for m in matrices)
    transposes = [tuple(zip(*m.rows)) for m in matrices] if depth > 1 else ()
    for _ in range(depth - 1):
        suffixes, rows = zip(*(
            ((i,) + rest, [sum(map(mul, row, col)) for col in cols])
            for i, cols in enumerate(transposes)
            for rest, row in zip(suffixes, rows)
            if not (distinct and i in rest)
        ))
    return suffixes, rows


def _solutions(problem: SearchProblem, mode: str) -> Iterator[Tuple[Tuple[int, ...], int]]:
    """Yield (sequence, tested) for every solution, in enumeration order.

    ``tested`` counts the sequences tested up to and including the
    solution.  A sequence is a prefix of d indices and a suffix of the
    last h, its leftmost factors, so entry (0, 0) of its product is row 0
    of the suffix's product times column 0 of the prefix's.  The suffix
    rows are formed once and coordinate l of all of them is packed into
    one int of byte slots, the suffixes in lexicographic order.  Each
    prefix column, walked lazily, times the packed rows is then a single
    sum of r big-int multiples holding the corner of every suffix, and
    ``bytes.find`` looks for the target's corner in it; only a
    slot-aligned find names a suffix.  The slots are wider than any
    corner, r * max|row| * max|column| with a depth-d column below
    2^(d * (w + bitlen(r))) for w the widest matrix, and than the
    target's corner; an offset of half a slot makes each signed corner a
    nonnegative slot.  A differing corner proves the sequence is not a
    solution; a matching one has its full product formed and compared
    exactly.
    """
    matrices, target = problem.matrices, problem.target
    k, n, r = len(matrices), problem.n, target.dim
    distinct = mode == ORDERED_DISTINCT
    h = max(n // 2, 1)
    while h > 1 and count_search_space(k, h, mode) > _SUFFIX_ROWS:
        h -= 1
    d = n - h
    suffixes, rows = _suffix_rows(matrices, h, distinct)
    # at d = 0 the one column is [1], so only coordinate 0 is packed
    coords = list(zip(*rows))[: r if d else 1]
    corner = target.rows[0][0]
    col_bits = d * (max(map(_width, matrices)) + r.bit_length()) if d else 0
    size = max(_max_bits(coords) + col_bits + r.bit_length(), abs(corner).bit_length()) // 8 + 1
    half = 1 << (8 * size - 1)
    offset = int.from_bytes(half.to_bytes(size, "big") * len(suffixes), "big")
    packed = [_pack(map(add, coord, repeat(half)), size) - offset for coord in coords]
    key = (corner + half).to_bytes(size, "big")
    per_prefix = math.perm(k - d, h) if distinct else len(suffixes)
    tested = 0
    for prefix, col in _prefix_columns(matrices, d, distinct):
        found = (sum(map(mul, col, packed)) + offset).to_bytes(len(suffixes) * size, "big")
        fresh = set(prefix).isdisjoint
        pos = found.find(key)
        while pos >= 0:
            slot, skew = divmod(pos, size)
            seq = prefix + suffixes[slot]
            if (
                not skew
                and (not distinct or fresh(suffixes[slot]))
                and chain_product(matrices[i] for i in seq) == target
            ):
                yield seq, tested + (sum(map(fresh, suffixes[: slot + 1])) if distinct else slot + 1)
            pos = found.find(key, (slot + 1) * size)
        tested += per_prefix


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
    tested exactly and counted in ``nodes_explored``.  Each sequence is a
    prefix of n - h indices and a suffix of h = n // 2 (fewer if the
    suffixes would outnumber ``_SUFFIX_ROWS``, but at least one).  The
    cost is one length-r mat-vec per prefix of length 1 to n - h (column 0
    of its product) and per suffix of length 2 to h (row 0 of its
    product), then, per prefix, one packed product: r multiples of big
    ints of one slot per suffix, which hold the (0, 0) entries of all the
    prefix's sequences, searched for the target's entry by ``bytes.find``.
    The full product, n-1 ``mat_mul``, is formed only for a sequence whose
    entry matches the target's, and a solution is reported only after
    that product compares equal to the target.  At worst every entry
    matches, as over a set of identities, and each sequence costs n-1
    ``mat_mul``.  Spaces beyond the desk-scale guardrail are refused
    unless explicitly overridden.
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
    nodes = space
    for seq, tested in _solutions(problem, mode):
        solutions.append(seq)
        if limit is not None and len(solutions) >= limit:
            nodes = tested
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
