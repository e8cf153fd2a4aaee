"""Oracles against the underlying hard problem and the protocol's leakage.

The exhaustive search solves the bounded matrix-representability search
problem at desk scale: find n matrices in the public set whose ordered
product equals a target.  It tests every sequence exactly, sharing the
work sequences have in common.  A sequence splits into a prefix and a
suffix of h = n // 2 indices (fewer if the suffixes would outnumber
``_SUFFIX_ROWS``, but at least one), and the (0, 0) entry of its product
is row 0 of the suffix's product times column 0 of the prefix's.  The
suffix rows and the prefix columns are tables built a level at a time
in packed big ints (one int per coordinate, one byte slot per sequence):
a level is extended by each matrix with r sums of r big-int multiples,
whatever its length, and in ordered-distinct mode it keeps only
sequences of distinct indices.  Where the prefixes too would outnumber
``_SUFFIX_ROWS``, their first indices (the head) are walked one mat-vec
at a time, and each head gets a column table of its own.  One packed
product per prefix then yields the (0, 0) entries of all its sequences
at once, and ``bytes.find`` picks out those equal to the target's; in
ordered-distinct mode the slots of suffixes that share an index with the
prefix are formed too, and skipped.  A sequence whose entry differs is
provably not a solution; the full product (one ``mat_mul`` of n
factors) is formed, and compared exactly, only on a match, so at worst,
as over a set of identities, each sequence costs one such ``mat_mul``.
The ratio analysis shows what a passive observer of the public
reconstruction reveals can extract: each consecutive pair of reveals
quotients to a raw shadow, found by the same certified integer solver
that strips the blinding in recovery.
"""

from __future__ import annotations

import math
import struct
import time
from dataclasses import dataclass
from itertools import chain, compress, count, permutations, product, repeat
from operator import add, and_, contains, lshift, mul
from typing import Iterator, List, Optional, Sequence, Tuple

from .algebra import (
    _WORD,
    Matrix,
    _dots,
    _entry_bound,
    _offset,
    _product_bound,
    _to_slots,
    chain_product,
    solve_integer,
)
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
    singular, or the quotient is not an integer matrix within the public
    entry bound, so the pair names no public-set matrix.
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


def _sequences(k: int, length: int, distinct: bool) -> Iterator[Tuple[int, ...]]:
    """Every index sequence of the length, in ``permutations`` or ``product`` (lexicographic) order."""
    return permutations(range(k), length) if distinct else product(range(k), repeat=length)


def _slot_size(r: int, top: int, n: int, corner: int) -> int:
    """Bytes per suffix-table slot: a sign and any corner of n factors, or the target's corner.

    No factor has an entry beyond `top`.
    """
    return max(_product_bound(r, top, n).bit_length(), abs(corner).bit_length()) // 8 + 1


def _drop_slots(level: List[bytes], held: List[int], size: int) -> List[bytes]:
    """Each string of the level without the slots at the ascending positions `held`."""
    cuts = list(map(slice, [(x + 1) * size for x in [-1] + held], [x * size for x in held] + [None]))
    return [b"".join(map(data.__getitem__, cuts)) for data in level]


def _levels(vectors, factors, depth: int, distinct: bool, size: int) -> List[bytes]:
    """The level of the keys of `depth` indices, built from `vectors[i]`, the vector of key (i,).

    A level is r byte strings, one per coordinate; string l holds
    coordinate l of every key's vector in one slot of `size` bytes,
    offset by half a slot, the keys in the order of ``_sequences``.
    There is one vector per factor.  The vector of (i, *rest) is
    factors[i] times rest's: coordinate c is sum_l factors[i][c][l]
    times coordinate l of rest's.  So the next level is k blocks, the
    one for i holding the keys that start with i, and each block is one
    ``_dots``: r sums of r big-int multiples of the level's ints.  In
    ordered-distinct mode block i drops the keys whose rest holds i: the
    next level's bytes are cut there and joined a whole run at a time,
    with the same cuts in every coordinate.
    """
    k = len(factors)
    level = [_to_slots(coord, size) for coord in zip(*vectors)]
    for length in range(1, depth):
        keys = list(_sequences(k, length, distinct))
        span = len(keys) * size
        offset = _offset(size, size, len(keys))
        ints = [int.from_bytes(data, "big") - offset for data in level]
        level = [
            b"".join(map(int.to_bytes, map(add, blocks, repeat(offset)), repeat(span), repeat("big")))
            for blocks in zip(*map(_dots, factors, repeat(ints)))
        ]
        if distinct:
            firsts = chain.from_iterable(map(repeat, range(k), repeat(len(keys))))
            level = _drop_slots(level, list(compress(count(), map(contains, keys * k, firsts))), size)
    return level


def _column_table(matrices: Sequence[Matrix], head, allowed, depth: int, distinct: bool, size: int) -> dict:
    """Column 0 of the product of every prefix head + tail, keyed by the tail reversed.

    The tail is `depth` indices, given as positions in `allowed`; in
    ordered-distinct mode no tail repeats an index, and `allowed` holds
    none of the head's.  `size` is a whole number of 64-bit words and
    holds any column of the prefix.
    """
    # e_0 as [1]: ``map`` stops at the shorter iterable
    col = (1,)
    for i in head:
        col = list(_dots(matrices[i].rows, col))
    if not depth:
        return {(): col}
    factors = [matrices[i].rows for i in allowed]
    level = _levels([_dots(rows, col) for rows in factors], factors, depth, distinct, size)
    flat = b"".join(level)
    words, slots = size // 8, len(flat) // size
    # flipping each slot's top bit turns its offset value into two's
    # complement: a slot's leading word reads signed, the others unsigned
    signed = (int.from_bytes(flat, "big") ^ _offset(size, size, slots)).to_bytes(len(flat), "big")
    data = struct.unpack(f">{slots * words}q", signed)
    values = data[::words]
    for w in range(1, words):
        low = map(and_, data[w::words], repeat(_WORD))
        values = tuple(map(add, map(lshift, values, repeat(64)), low))
    per = slots // len(level)
    coords = [values[c * per:(c + 1) * per] for c in range(len(level))]
    return dict(zip(_sequences(len(allowed), depth, distinct), zip(*coords)))


def _solutions(problem: SearchProblem, mode: str) -> Iterator[Tuple[Tuple[int, ...], int]]:
    """Yield (sequence, tested) for every solution, in enumeration order.

    ``tested`` counts the sequences tested up to and including the
    solution.  A sequence is yielded only once its full product has
    compared equal to the target.
    """
    matrices, target = problem.matrices, problem.target
    k, n, r = len(matrices), problem.n, target.dim
    distinct = mode == ORDERED_DISTINCT
    h = max(n // 2, 1)
    while h > 1 and count_search_space(k, h, mode) > _SUFFIX_ROWS:
        h -= 1
    d = n - h
    e = 0
    while e < d and (math.perm(k - e, d - e) if distinct else k ** (d - e)) > _SUFFIX_ROWS:
        e += 1
    corner = target.rows[0][0]
    top = _entry_bound(matrices)
    size = _slot_size(r, top, n, corner)
    transposes = [tuple(zip(*m.rows)) for m in matrices] if h > 1 else ()
    # at d = 0 (so h = 1) the one column is e_0, so only coordinate 0 is packed
    rows = _levels([m.rows[0][: r if d else 1] for m in matrices], transposes, h, distinct, size)
    suffixes = list(_sequences(k, h, distinct))
    offset = _offset(size, size, len(suffixes))
    packed = [int.from_bytes(data, "big") - offset for data in rows]
    key, span = _to_slots((corner,), size), len(suffixes) * size
    # the column tables' slots are whole 64-bit words, room for any column of d factors
    width = 8 * (_product_bound(r, top, d).bit_length() // 64 + 1)
    per_prefix = math.perm(k - d, h) if distinct else len(suffixes)
    tested = 0
    for head in _sequences(k, e, distinct):
        if d == e:
            allowed = ()  # the head is the whole prefix: one empty tail
        else:
            allowed = [i for i in range(k) if i not in head] if distinct and head else range(k)
        columns = _column_table(matrices, head, allowed, d - e, distinct, width)
        for tail in _sequences(len(allowed), d - e, distinct):
            found = sum(map(mul, columns[tail[::-1]], packed), offset).to_bytes(span, "big")
            pos = found.find(key)
            while pos >= 0:
                slot, skew = divmod(pos, size)
                prefix = head + tuple(map(allowed.__getitem__, tail))
                seq = prefix + suffixes[slot]
                fresh = set(prefix).isdisjoint
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
    """Every sequence in the mode whose ordered product equals the target; no pruning, no heuristics.

    Returns the solutions up to `limit` (at least 1), in the
    lexicographic order of ``permutations`` (ordered-distinct) or
    ``product`` (ordered-rep), and in ``nodes_explored`` the sequences
    tested: the whole space, or those up to the limit-th solution.  Every
    sequence is tested exactly.  Raises ValueError for another mode or a
    limit below 1, and GuardrailExceeded for a space beyond
    ``GUARDRAIL_LIMIT`` unless `allow_large`.
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

    Every solve is bounded by the public entry bound E = 2^w - 1, w the
    widest public matrix's bit length: a quotient that names a public
    matrix has no entry beyond E, so a gap is refused after the primes
    that E's bits need.  An integral quotient with an entry beyond E is
    no public matrix either; it is reported as a gap too, so ``matrix``
    is None for it.
    """
    reveals = broadcast_matrices(eavesdropper_view)
    bound = _entry_bound(bulletin.matrices)
    hits: List[RatioHit] = []
    for prev, nxt in zip(reveals, reveals[1:]):
        position = participant_position(nxt.sender)
        try:
            shadow = solve_integer(prev.payload, nxt.payload, bound)
        except SingularMatrix:
            shadow = None
        index = next(
            (m for m, candidate in enumerate(bulletin.matrices) if candidate == shadow),
            None,
        )
        hits.append(RatioHit(position=position, matrix=shadow, matrix_index=index))
    return hits
