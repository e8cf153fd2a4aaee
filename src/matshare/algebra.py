"""Exact square-matrix arithmetic over arbitrary-precision integers.

Every matrix and vector entry is a Python int; any other entry type is
refused with TypeError.  No result leaves the integers: every modular or
probabilistic step ends in an exact integer check or carries a stated
error bound.

How the work is done, stated once here:

- Elimination.  Determinant, rank and the reference inverse share one
  fraction-free (Bareiss) kernel, ``_bareiss``; the solver and
  ``is_invertible`` share one mod-p kernel, ``_eliminate_mod``.  Both
  read int rows as the caller holds them, coefficient columns first, and
  never write them.  Every elimination is Gauss-Jordan: each pivot column
  is cleared above and below the pivot, so rows longer than the
  coefficient count end solved, and the pivots give the verdict,
  determinant and rank (Bareiss 1968).
- Packed rows (Kronecker substitution; von zur Gathen & Gerhard,
  *Modern Computer Algebra*, sec. 8.4).  A row of entries is one Python
  int of fixed-width slots, so a row update is one big-int multiply-add
  in C.  ``mat_mul`` packs a chain once: its last factor, into byte
  slots wider than any entry of the whole product, each offset by half a
  slot so that it reads nonnegative.  Each earlier factor, right to left,
  multiplies the packed rows; the product is read back once, by one
  ``struct`` pass.  A matrix caches its entry width (``_bits``) and the
  slots it was last packed into or produced in (``_slots``), so a product
  that becomes the next right factor is re-padded, not packed anew.
  ``_eliminate_mod`` reduces and packs the whole system once, by one
  ``struct.pack``, into rows of 64-bit word slots, the pivot column in
  each row's top live slot; every later step acts on whole rows.  A
  fold (``_folder``) brings all of a row's slots to at most B(p) at once
  with masks, shifts and one multiply, each slot still congruent mod p.
  The pivot row is masked below its pivot slot, folded, scaled by the
  pivot's inverse and folded again, and every other row takes it times
  p - f, f its pivot-column residue: one big-int multiply-add per row.
  Slots of columns already pivoted are dead: no update reaches them and
  none is read again.  A slot holds ``_fold_plan``'s budget of updates,
  so after that many columns every row is folded.
- Quotients (ibid., ch. 5).  ``solve_integer`` solves modulo primes just
  below 2^30 and keeps each prime's solution in the elimination's 64-bit
  word slots: ``_garner`` turns it into that prime's balanced mixed-radix
  digit, d in (-p/2, p/2] held as d + 2^63 in every slot at once, and
  ``_lift`` makes ints only once the modulus can hold Z, reading two
  digits per signed word.  A candidate is returned only once ``mat_mul``
  shows Z*a == rhs exactly.
- Product checks (Schwartz 1980, Zippel 1979).  ``freivalds_screen``
  compares exact images of one vector of t-bit entries, row by row.

Everything is deterministic and pure: samplers take an explicit
``random.Random`` (or an int seed) and draw exactly the values its
``randrange`` would, and all values are immutable once constructed, so
concurrent use is safe.  A matrix's two caches are the only writes after
construction: the width cache always stores the same value, and a
packing is stored and read as one ``(size, bytes)`` tuple, so a reader
always gets a whole, consistent packing, whichever thread wrote it.
"""

from __future__ import annotations

import functools
import random
import struct
from itertools import chain, count, islice, repeat, takewhile
from operator import add, eq, mul, rshift, sub
from typing import Iterable, Optional, Sequence, Tuple

from .errors import GenerationFailure, SingularMatrix

#: retry budget for rejection sampling of invertible matrices
MAX_SAMPLE_ATTEMPTS = 1000

#: the low 64-bit slot of a packed mod-p row (_eliminate_mod)
_WORD = (1 << 64) - 1


def _require_ints(rows) -> None:
    """Raise TypeError unless every entry of the rows is exactly an int.

    A bool is refused like any other subclass: it would serialize as
    ``True``.  The scan looks each entry's type up in ``{int}``, in C:
    valid input costs no Python-level call per entry.
    """
    if not {int}.issuperset(map(type, chain.from_iterable(rows))):
        bad = next(x for x in chain.from_iterable(rows) if type(x) is not int)
        raise TypeError(f"entries must be int, got {type(bad).__name__}")


def _to_slots(values, size: int) -> bytes:
    """The ints in `size`-byte big-endian slots, each offset by half a slot so that it reads nonnegative.

    The one slot codec of the package: ``_packed_rows`` packs matrices
    with it, and the attack its search tables; ``_offset`` is the int to
    take off once the bytes are read back as one int.
    """
    half = 1 << (8 * size - 1)
    return b"".join(map(int.to_bytes, map(add, values, repeat(half)), repeat(size), repeat("big")))


def _offset(have: int, size: int, r: int) -> int:
    """r slots of `size` bytes, each holding half a slot of `have` bytes, 2^(8*have - 1)."""
    return int.from_bytes((bytes(size - have) + b"\x80" + bytes(have - 1)) * r, "big")


def _max_bits(rows) -> int:
    """Bit length of the largest absolute entry of the rows."""
    return max(map(abs, chain.from_iterable(rows))).bit_length()


def _width(m: "Matrix") -> int:
    """m's _max_bits, measured on first use and kept in its ``_bits`` slot."""
    try:
        return m._bits
    except AttributeError:
        bits = _max_bits(m.rows)
        object.__setattr__(m, "_bits", bits)
        return bits


def _entry_bound(matrices: Sequence["Matrix"]) -> int:
    """E = 2^w - 1 for w the widest matrix's cached ``_width``: no entry exceeds it."""
    return (1 << max(map(_width, matrices))) - 1


def _product_bound(r: int, top: int, m: int) -> int:
    """Largest absolute entry a product of m r x r matrices of entries at most `top` can have.

    That is r^(m-1) * top^m, met by m matrices whose entries all equal
    `top`.  The product of no matrices is the identity, bounded by 1.
    """
    if m == 0:
        return 1
    return r ** (m - 1) * top**m


def _dots(rows, column):
    """Each row's dot product with the column of ints (or packed rows), lazily and in C."""
    return map(sum, map(map, repeat(mul), rows, repeat(column)))


def _as_rng(seed_or_rng) -> random.Random:
    if isinstance(seed_or_rng, random.Random):
        return seed_or_rng
    return random.Random(seed_or_rng)


class _Frozen:
    """Refuses to set or delete any attribute; constructors use object.__setattr__."""

    __slots__ = ()

    def __setattr__(self, name, value):
        raise AttributeError(f"{type(self).__name__} is immutable")

    def __delattr__(self, name):
        raise AttributeError(f"{type(self).__name__} is immutable")


class Matrix(_Frozen):
    """An immutable square matrix with int entries.

    ``Matrix(rows)`` takes r >= 1 rows of r ints each and raises
    ValueError for no rows or a shape that is not square, TypeError for an
    entry that is not exactly an int (a bool included).  The value is
    ``rows``, a tuple of r int tuples.  The ``_bits`` and ``_slots`` caches
    (see the module docstring) are not part of it: ``==``, ``hash``,
    ``repr``, copies and pickles see only the rows.
    """

    __slots__ = ("rows", "_bits", "_slots")

    def __init__(self, rows: Iterable[Iterable[int]]):
        rows = tuple(map(tuple, rows))
        if not rows:
            raise ValueError("matrix must have at least one row")
        if not {len(rows)}.issuperset(map(len, rows)):
            raise ValueError("matrix must be square")
        _require_ints(rows)
        object.__setattr__(self, "rows", rows)

    def __reduce__(self):
        # copy and pickle rebuild through __init__: __setattr__ refuses their default path
        return type(self), (self.rows,)

    @classmethod
    def _of(cls, rows: Iterable[Tuple[int, ...]]) -> "Matrix":
        """A matrix of rows already known to be int tuples forming a nonempty square.

        Skips ``__init__``'s checks, for rows that are such by construction:
        results the package computed itself from checked matrices (products
        and certified quotients), sampled draws, and the rows of a file
        whose shape and entry types the decoder has checked.
        """
        m = object.__new__(cls)
        object.__setattr__(m, "rows", tuple(rows))
        return m

    @property
    def dim(self) -> int:
        return len(self.rows)

    @classmethod
    def identity(cls, r: int) -> "Matrix":
        return cls([[1 if i == j else 0 for j in range(r)] for i in range(r)])

    def __eq__(self, other) -> bool:
        return isinstance(other, Matrix) and self.rows == other.rows

    def __hash__(self):
        return hash(self.rows)

    def __repr__(self):
        return f"Matrix({[list(row) for row in self.rows]})"


class Vector(_Frozen):
    """An immutable column vector with int entries."""

    __slots__ = ("entries",)

    def __init__(self, entries: Iterable[int]):
        entries = tuple(entries)
        if not entries:
            raise ValueError("vector must have at least one entry")
        _require_ints((entries,))
        object.__setattr__(self, "entries", entries)

    def __reduce__(self):
        return type(self), (self.entries,)

    @property
    def dim(self) -> int:
        return len(self.entries)

    def __eq__(self, other) -> bool:
        # exact types: a check vector never equals a plain vector
        return type(other) is type(self) and self.entries == other.entries

    def __hash__(self):
        return hash(self.entries)

    def __repr__(self):
        return f"{type(self).__name__}({list(self.entries)})"


class BinaryVector(Vector):
    """An immutable 0/1 vector; the check vectors of the scheme."""

    __slots__ = ()

    def __init__(self, bits: Iterable[int]):
        Vector.__init__(self, bits)
        if any(b not in (0, 1) for b in self.entries):
            raise ValueError("binary vector entries must be 0 or 1")

    @property
    def bits(self) -> Tuple[int, ...]:
        return self.entries

    @property
    def weight(self) -> int:
        return sum(self.entries)


def _packed_rows(m: Matrix, size: int) -> list:
    """m's rows as ints of `size`-byte slots: row i is sum_j m[i][j] * 2^(8 * size * (r - 1 - j)).

    Every entry must lie below half a slot, 2^(8 * size - 1), in absolute
    value.  The rows come from m's ``_slots`` cache when its slots are at
    most `size` bytes; otherwise m is packed entry by entry and the cache
    is set to that packing.
    """
    r = m.dim
    step = r * size
    cached = getattr(m, "_slots", None)
    if cached is None or cached[0] > size:
        have, flat = size, _to_slots(chain.from_iterable(m.rows), size)
        object.__setattr__(m, "_slots", (size, flat))
    else:
        have, flat = cached
        if have < size:
            pad = bytes(size - have)
            flat = pad + pad.join(chain.from_iterable(struct.iter_unpack(f"{have}s" * r, flat)))
    offset = _offset(have, size, r)
    return [int.from_bytes(flat[i:i + step], "big") - offset for i in range(0, r * step, step)]


def mat_mul(*factors: Matrix) -> Matrix:
    """Exact product of one or more r x r matrices, taken left to right.

    Raises ValueError for no factors, or for dimensions that differ,
    naming each factor's.  The last factor is packed once and the product
    read back once (see the module docstring), by one ``struct`` pass of
    one r-field format per row, which keeps ``struct``'s cache of compiled
    formats small.  The product caches those slots (``_slots``), so that
    it can serve as the next right factor without being packed again.
    """
    if not factors:
        raise ValueError("a product needs at least one factor")
    r = factors[0].dim
    if any(m.dim != r for m in factors):
        raise ValueError(f"dimension mismatch: {' vs '.join(str(m.dim) for m in factors)}")
    size = (sum(map(_width, factors)) + (len(factors) - 1) * r.bit_length()) // 8 + 1
    rows = _packed_rows(factors[-1], size)
    for m in reversed(factors[:-1]):
        rows = list(_dots(m.rows, rows))
    rows = map(add, rows, repeat(_offset(size, size, r)))
    data = b"".join(map(int.to_bytes, rows, repeat(r * size), repeat("big")))
    fields = chain.from_iterable(struct.iter_unpack(f"{size}s" * r, data))
    entries = map(sub, map(int.from_bytes, fields, repeat("big")), repeat(1 << (8 * size - 1)))
    # r references to one iterator: zip takes its entries r at a time, one row each
    product = Matrix._of(zip(*repeat(entries, r)))
    object.__setattr__(product, "_slots", (size, data))
    return product


def mat_vec_mul(a: Matrix, v: Vector) -> Vector:
    """Exact product a*v under the column-vector convention."""
    if not isinstance(v, Vector):
        raise TypeError("expected a Vector")
    if a.dim != v.dim:
        raise ValueError(f"dimension mismatch: {a.dim} vs {v.dim}")
    return Vector(_dots(a.rows, v.entries))


def _bareiss(rows, ncols: int):
    """Fraction-free Gauss-Jordan (Bareiss) elimination of integer rows: (rank, sign, last pivot, solved rows).

    The rows are read as the caller holds them and never written.  Pivots
    are taken from the first ncols columns; a column with no nonzero entry
    at or below the current row is skipped.  Each pivot column is cleared
    above and below the pivot, and every division is exact, so entries
    stay integer.  A nonsingular square block ends as (last pivot) * I,
    and its determinant is sign * last pivot; the solved rows are each
    row's columns past ncols.
    """
    w = list(rows)
    m = len(w)
    rank, sign, prev = 0, 1, 1
    for col in range(ncols):
        pivot_row = rank
        while pivot_row < m and w[pivot_row][col] == 0:
            pivot_row += 1
        if pivot_row == m:
            continue
        if pivot_row != rank:
            w[rank], w[pivot_row] = w[pivot_row], w[rank]
            sign = -sign
        row_k = w[rank]
        pivot = row_k[col]
        for i in range(m):
            if i != rank:
                row_i = w[i]
                f = row_i[col]
                w[i] = [(pivot * x - f * y) // prev for x, y in zip(row_i, row_k)]
        prev = pivot
        rank += 1
    return rank, sign, prev, [row[ncols:] for row in w]


def determinant(a: Matrix) -> int:
    """Exact determinant by fraction-free elimination."""
    rank, sign, last, _ = _bareiss(a.rows, a.dim)
    return sign * last if rank == a.dim else 0


def _inverse_parts(a: Matrix):
    """Return (num_rows, den) with a^-1 == num_rows / den, or (None, 0) if singular.

    Gauss-Jordan Bareiss on [A | I]: the left block ends as den * I,
    making the right block den * A^-1.  No runtime path calls it; it is
    the exact reference the solver is tested against, and
    perfbench/tracing.py traces it by name.
    """
    n = a.dim
    augmented = [[*row, *(int(j == i) for j in range(n))] for i, row in enumerate(a.rows)]
    rank, _, den, num = _bareiss(augmented, n)
    if rank < n:
        return None, 0
    return num, den


def is_invertible(a: Matrix) -> bool:
    """True iff the exact determinant is nonzero.

    A nonzero determinant residue modulo a prime proves invertibility, so
    the exact Bareiss determinant runs only when that residue is zero.
    """
    return _eliminate_mod(a.rows, a.dim, _prime(0)) is not None or determinant(a) != 0


# ---------------------------------------------------------------------------
# multimodular solving
# ---------------------------------------------------------------------------

#: solver primes lie just below 2^30: a residue fits one CPython digit,
#: which makes a modular row update cheaper per bit than wider primes
_PRIME_CEILING = 1 << 30

# Primes below _PRIME_CEILING, largest first, found on first use (no work at
# import).  Every value bound here is a prefix of the same sequence, so a
# caller that reads a shorter tuple than another thread wrote is still right.
_primes: Tuple[int, ...] = ()


def _is_prime(m: int) -> bool:
    """Deterministic Miller-Rabin: bases 2, 3, 5, 7 are exact below 3.2e9."""
    if m % 2 == 0:
        return m == 2
    d, s = m - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for base in (2, 3, 5, 7):
        if base == m:
            return True
        x = pow(base, d, m)
        if x == 1 or x == m - 1:
            continue
        for _ in range(s - 1):
            x = x * x % m
            if x == m - 1:
                break
        else:
            return False
    return True


def _prime(i: int) -> int:
    """The i-th largest prime below _PRIME_CEILING (i counts from 0)."""
    global _primes
    primes = _primes
    while len(primes) <= i:
        p = (primes[-1] if primes else _PRIME_CEILING) - 1
        while not _is_prime(p):
            p -= 1
        primes += (p,)
    _primes = primes
    return primes[i]


def _to_words(values: list, n: int) -> list:
    """The values, n to a row, as ints of n 64-bit slots, each row's first value in its top slot.

    One ``struct.pack`` writes every row, and each row is one
    ``int.from_bytes`` of its slice.  The values are packed little-endian
    from the last one, the native order of little-endian hosts, where
    ``struct`` packs about twice as fast as big-endian: row i is then the
    i-th slice from the end.
    """
    data = struct.pack(f"<{len(values)}Q", *values[::-1])
    step = 8 * n
    return [int.from_bytes(data[i - step:i], "little") for i in range(len(data), 0, -step)]


@functools.lru_cache(maxsize=None)
def _ones(n: int) -> int:
    """n 64-bit slots each holding 1: times a constant below 2^64, that constant in every slot."""
    return ((1 << 64 * n) - 1) // _WORD


@functools.lru_cache(maxsize=None)
def _fold_plan(p: int):
    """How _eliminate_mod keeps its 64-bit slots small mod p: (folds, B, budget).

    A fold (k, c), with c = 2^k mod p, maps a slot x to
    (x mod 2^k) + (x >> k) * c, which is congruent to x mod p.  The folds
    are k = 32 and then k = p.bit_length(), repeated while they lower the
    largest value a slot can end with, starting from 2^64 - 1; B = B(p) is
    that value once no fold lowers it.  An update adds at most p * B to a
    slot that holds at most 2^64 - 1, so (2^64 - 1 - B) // (p * B)
    updates fit: the budget.  For the solver's primes just below 2^30 the
    plan is three folds, B = 2^30 - 1 + (2^30 mod p) and a budget of 16.
    Below 2^32 the folds always leave room for one update: at p = 2^32 - d
    they end at B = 2^32 - 1 + d, and p * B fits beside B once d >= 2, so
    no prime needs a further conditional subtraction.  A prime of 2^32 or
    more leaves no room for one update and raises ValueError.  Each plan
    is found once per prime.
    """
    top = _WORD
    folds = []
    for k in chain((32,), repeat(p.bit_length())):
        c = (1 << k) % p
        folded = min(top, (1 << k) - 1) + (top >> k) * c
        if folded >= top:
            break
        folds.append((k, c))
        top = folded
    budget = (_WORD - top) // (p * top)
    if budget < 1:
        raise ValueError(f"prime {p} is too large for 64-bit slots")
    return tuple(folds), top, budget


@functools.lru_cache(maxsize=None)
def _folder(p: int, n: int):
    """A function that applies p's fold plan to every slot of a row of n 64-bit slots.

    Per-slot masks keep each fold's low k bits and the 64 - k bits above
    them, so a fold is two masks, a shift, a multiply and an add on the
    whole row.  Each slot of the result is congruent mod p to the same
    slot of the row and at most B(p); see _fold_plan.  Each folder, masks
    included, is made once per (p, n).
    """
    folds = _fold_plan(p)[0]
    ones = _ones(n)
    steps = [(k, ones * ((1 << k) - 1), ones * ((1 << 64 - k) - 1), c) for k, c in folds]

    def fold(x):
        for k, low, high, c in steps:
            x = (x & low) + (x >> k & high) * c
        return x

    return fold


def _eliminate_mod(rows, ncols: int, p: int):
    """Gauss-Jordan elimination mod p of integer rows: None if singular mod p, else the solved right-hand rows.

    The rows are read as the caller holds them, ncols coefficient columns
    first, and never written.  Row i of the result is the right-hand side
    solved for unknown i, as the raw word int the elimination holds, one
    64-bit slot per column past ncols, its first in the top slot: 0 for
    rows with no right-hand columns.  Each slot is below 2^64 and
    congruent mod p to the solution, not reduced: the caller reduces.  A
    prime of 2^32 or more leaves a slot no room for one update and raises
    ValueError.
    """
    budget = _fold_plan(p)[2]
    m = len(rows)
    live = len(rows[0])
    fold = _folder(p, live)
    w = _to_words(list(map(p.__rmod__, chain.from_iterable(rows))), live)
    for col in range(ncols):
        if col and not col % budget:
            w = list(map(fold, w))
        live -= 1
        shift = 64 * live
        fs = list(map(p.__rmod__, map(_WORD.__and__, map(rshift, w, repeat(shift)))))
        # rows before `col` hold the earlier pivots
        k = col
        while k < m and not fs[k]:
            k += 1
        if k == m:
            return None
        w[col], w[k] = w[k], w[col]
        f, fs[k] = fs[k], fs[col]
        pivot = fold(pow(f, -1, p) * fold(w[col] & (1 << shift) - 1))
        fs[col] = p  # p - p = 0: the pivot row, replaced below, takes no update
        w = list(map(add, w, map(mul, map(p.__sub__, fs), repeat(pivot))))
        w[col] = pivot
    return list(map(((1 << 64 * live) - 1).__and__, w))


@functools.lru_cache(maxsize=None)
def _garner(p: int, n: int):
    """A function that makes p's balanced mixed-radix digit of n 64-bit slots at once.

    ``digit(t, digits)`` takes t, an int of n 64-bit slots each congruent
    mod p to an entry of Z, and the digits of the earlier primes as
    ``(q, D)`` pairs, oldest first.  It returns D, one int of n slots each
    holding d + 2^63 with d in (-p/2, p/2], such that d_0 + q_0 * d_1 +
    q_0 * q_1 * d_2 + ... + q_0 * ... * d is, slot by slot, the residue of
    Z of least absolute value modulo the product of those primes and p
    (Garner's algorithm; von zur Gathen & Gerhard, *Modern Computer
    Algebra*, sec. 5.6).  Every step acts on the whole int: t is folded
    (``_folder``); each earlier digit takes one Garner step, x ->
    (x - d_j) * q_j^-1 mod p, with p added so that no slot goes below 0,
    and a fold; then adding a constant sets the top bit of each slot
    above p // 2, and p is subtracted from those slots.  That one
    subtraction balances a slot because a fold leaves it at most
    B(p) <= p + p // 2.  p and the earlier primes are solver primes
    (``_prime``), which lie within a factor of 2 of each other; a prime
    whose B(p) exceeds p + p // 2, which no solver prime does, raises
    ValueError.  Each function, constants and inverses included, is made
    once per (p, n).
    """
    if _fold_plan(p)[1] > p + p // 2:
        raise ValueError(f"prime {p} folds too loosely to balance in one step")
    fold = _folder(p, n)
    ones = _ones(n)
    top = ones << 63
    # x + p - d >= p - q / 2 > 0 for a digit slot d + 2^63 of an earlier prime q
    over = ones * (p + (1 << 63))
    # x + 2^63 - 1 - p // 2 sets a slot's top bit exactly when x > p // 2
    half = ones * ((1 << 63) - 1 - p // 2)
    # the solver primes run largest first: those above p are the ones before it
    inverses = {q: pow(q, -1, p) for q in takewhile(p.__lt__, map(_prime, count()))}

    def digit(t, digits):
        x = fold(t)
        for q, d in digits:
            x = fold((x + over - d) * inverses[q])
        return x + top - (x + half >> 63 & ones) * p

    return digit


def _lift(digits: list, n: int) -> Sequence[int]:
    """The n ints sum_j d_j * q_0 * ... * q_(j-1) of the ``(q, D)`` digits of ``_garner``.

    Each pair of digits d + q * d' is combined on the packed ints into one
    signed 64-bit word per slot (|d + q * d'| < 2^60) and read by one
    ``struct.unpack``; a lone last digit is read alone.  One or two digits
    need no per-entry step; each further pair costs a multiply pass and
    an add pass, by Horner's rule from the highest pair.
    """
    top = _ones(n) << 63
    fmt = f">{n}q"
    z = None
    for i in reversed(range(0, len(digits), 2)):
        (q, low), *high = digits[i:i + 2]
        # each slot d + 2^63 + q * d', or d + 2^63 alone; flipping bit 63 gives the signed word
        word = low + q * (high[0][1] - top) if high else low
        lower = struct.unpack(fmt, (word ^ top).to_bytes(8 * n, "big"))
        z = lower if z is None else list(map(add, lower, map((q * high[0][0]).__mul__, z)))
    return z


def solve_integer(a: Matrix, rhs: Matrix, limit: int) -> Optional[Matrix]:
    """The integer matrix Z with Z*a == rhs and every |Z_ij| <= limit, or None.

    a and rhs are r x r.  Z is returned only once ``mat_mul(Z, a) == rhs``
    holds exactly; None means that rhs * a^-1 is not integral or has an
    entry beyond the limit.  The solve stops once the modulus exceeds
    2 * limit, so its cost follows the bit length of Z on success and of
    the limit on failure.  Raises ValueError for a dimension mismatch or a
    negative limit, and SingularMatrix when a is singular.
    """
    if a.dim != rhs.dim:
        raise ValueError(f"dimension mismatch: {a.dim} vs {rhs.dim}")
    if limit < 0:
        raise ValueError(f"limit must be >= 0, got {limit}")
    r = a.dim
    # equation j of a^T Z^T == rhs^T: column j of a, then column j of rhs
    equations = [a_col + rhs_col for a_col, rhs_col in zip(zip(*a.rows), zip(*rhs.rows))]
    # |rhs| <= r * |Z| * |a|, so Z has at least `floor` bits and no modulus
    # of `floor` bits or fewer exceeds 2 * max|Z|
    floor = _width(rhs) - _width(a) - r.bit_length()
    digits, modulus = [], 1
    for p in map(_prime, count()):
        w = _eliminate_mod(equations, r, p)
        if w is None:
            if not is_invertible(a):
                raise SingularMatrix(f"{r}x{r} matrix is singular")
            continue
        # row l of w is column l of Z mod p: joined, the slots run column after column
        t = int.from_bytes(b"".join(map(int.to_bytes, w, repeat(8 * r), repeat("big"))), "big")
        digits.append((p, _garner(p, r * r)(t, digits)))
        modulus *= p
        if modulus.bit_length() > floor:
            z = _lift(digits, r * r)
            # a balanced residue passes the limit only once modulus > 2 * limit
            top = max(max(z), -min(z))
            if top > limit:
                return None
            # r references to one iterator: zip cuts it into Z's columns, r
            # entries each, and the outer zip turns those into Z's rows
            quotient = Matrix._of(zip(*zip(*repeat(iter(z), r))))
            if mat_mul(quotient, a) == rhs:
                return quotient
        if modulus > 2 * limit:
            return None


def matrix_rank(rows: Sequence[Sequence[int]]) -> int:
    """Rank over the rationals of a rectangular system of int rows; 0 for no rows.

    Raises ValueError when the rows differ in length and TypeError for an
    entry that is not exactly an int.
    """
    if not rows:
        return 0
    if not {len(rows[0])}.issuperset(map(len, rows)):
        raise ValueError("rows must all have the same length")
    _require_ints(rows)
    return _bareiss(rows, len(rows[0]))[0]


def chain_product(factors: Iterable[Matrix]) -> Matrix:
    """Product of the factors in order, later factors on the left, by one ``mat_mul``; ValueError for none."""
    return mat_mul(*reversed(list(factors)))


def freivalds_verify(a: Matrix, b: Matrix, c: Matrix, t: int, seed) -> bool:
    """Whether a*b == c, checked on one random vector of t-bit entries.

    This is ``freivalds_screen((b, c), (a,), t, seed)``: a true product
    always passes, and a wrong c passes with probability at most 2^-t.
    """
    return freivalds_screen((b, c), (a,), t, seed)


def freivalds_screen(
    matrices: Sequence[Matrix], candidates: Sequence[Matrix], t: int, seed
) -> bool:
    """Whether each consecutive pair (prev, nxt) of the chain has a candidate c with c*prev == nxt.

    Every pair is checked on one vector u of r entries drawn once from
    [0, 2^t), one ``getrandbits(t)`` per coordinate of `seed` (an int or a
    ``random.Random``): a pair passes when c*(prev*u) == nxt*u exactly for
    some candidate.  True products always pass.  A pair that none of k
    candidates explains passes with probability at most k * 2^-t
    (Schwartz-Zippel and the union bound).  Returns False at the first
    pair that fails; a chain of fewer than two matrices draws nothing and
    passes.  Raises ValueError for t < 1 or a matrix that is not r x r.
    """
    if t < 1:
        raise ValueError("t must be >= 1")
    if len(matrices) < 2:
        return True
    r = matrices[0].dim
    if any(m.dim != r for m in (*candidates, *matrices)):
        raise ValueError(f"dimension mismatch: a chain matrix or candidate is not {r}x{r}")
    u = list(map(_as_rng(seed).getrandbits, repeat(t, r)))
    prev_u = list(_dots(matrices[0].rows, u))
    for nxt in matrices[1:]:
        nxt_u = list(_dots(nxt.rows, u))
        if not any(all(map(eq, _dots(m.rows, prev_u), nxt_u)) for m in candidates):
            return False
        prev_u = nxt_u
    return True


def _uniform(rng: random.Random, bound: int, count: int) -> list:
    """count uniform draws from [0, bound): exactly what rng.randrange(bound) draws.

    CPython's randrange draws getrandbits(bound.bit_length()) until the
    draw is below bound; filtering one endless stream of such draws is the
    same rejection loop, run in C.
    """
    draws = map(rng.getrandbits, repeat(bound.bit_length()))
    return list(islice(filter(bound.__gt__, draws), count))


def sample_matrix(r: int, entry_bound: int, rng) -> Matrix:
    """Matrix with entries drawn independently and uniformly from {0..entry_bound-1}.

    The draws are ints in an r x r square by construction, so the matrix
    is built by the trusted ``Matrix._of``.
    """
    if r < 1:
        raise ValueError("r must be >= 1")
    if entry_bound < 2:
        raise ValueError("entry_bound must be >= 2")
    entries = iter(_uniform(_as_rng(rng), entry_bound, r * r))
    # r references to one iterator: zip takes its entries r at a time, one row each
    return Matrix._of(zip(*repeat(entries, r)))


def sample_invertible_matrix(r: int, entry_bound: int, rng) -> Matrix:
    """Rejection-sample until invertible; singular draws are vanishingly rare.

    The retry loop is capped so a pathological configuration surfaces as a
    GenerationFailure instead of hanging.
    """
    rng = _as_rng(rng)
    for _ in range(MAX_SAMPLE_ATTEMPTS):
        m = sample_matrix(r, entry_bound, rng)
        if is_invertible(m):
            return m
    raise GenerationFailure(
        f"no invertible {r}x{r} matrix found in {MAX_SAMPLE_ATTEMPTS} attempts"
    )


def sample_check_vector(r: int, rng) -> BinaryVector:
    """Uniform binary vector of dimension r with Hamming weight >= 2.

    Weight-0 and weight-1 vectors are rejected: a weight-1 vector would
    publish a bare column of the secret matrix.
    """
    if r < 2:
        raise ValueError("r must be >= 2: no binary vector of weight >= 2 exists below that")
    rng = _as_rng(rng)
    while True:
        bits = _uniform(rng, 2, r)
        if sum(bits) >= 2:
            return BinaryVector(bits)
