"""Independent brute-force oracles the package is checked against.

Everything here works on plain lists of ints/Fractions and never calls
into the package, so a bug cannot hide on both sides of a comparison.
The one exception is ``reconstruction_by_sampler``, which pins the order
of a round's draws and messages, not its arithmetic.
"""

from fractions import Fraction
from itertools import combinations, permutations, product
from math import gcd
from random import Random


def naive_mul(a, b):
    n = len(a)
    out = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(n):
            s = 0
            for t in range(n):
                s += a[i][t] * b[t][j]
            out[i][j] = s
    return out


def naive_matvec(a, v):
    return [sum(a[i][t] * v[t] for t in range(len(v))) for i in range(len(a))]


def perm_sign(perm):
    sign = 1
    seen = [False] * len(perm)
    for i in range(len(perm)):
        if seen[i]:
            continue
        j, length = i, 0
        while not seen[j]:
            seen[j] = True
            j = perm[j]
            length += 1
        if length % 2 == 0:
            sign = -sign
    return sign


def naive_det(a):
    """Leibniz permutation expansion; only sane for dimensions <= 6."""
    n = len(a)
    total = 0
    for perm in permutations(range(n)):
        term = perm_sign(perm)
        for i in range(n):
            term *= a[i][perm[i]]
        total += term
    return total


def minor_rank(rows):
    """Rank as the largest size of a nonzero minor (via naive_det)."""
    n_rows, n_cols = len(rows), len(rows[0])
    for size in range(min(n_rows, n_cols), 0, -1):
        for row_idx in combinations(range(n_rows), size):
            for col_idx in combinations(range(n_cols), size):
                sub = [[rows[i][j] for j in col_idx] for i in row_idx]
                if naive_det(sub) != 0:
                    return size
    return 0


def chain_vector(shadows, u):
    """Apply shadows in walk order to a vector: later shadows act later."""
    v = list(u)
    for s in shadows:
        v = naive_matvec(s, v)
    return v


def chain_matrix(shadows, x):
    """Left-accumulate shadow products onto x, in walk order."""
    acc = [list(row) for row in x]
    for s in shadows:
        acc = naive_mul(s, acc)
    return acc


def adaptive_forgery(shadow, v):
    """F = M + e_0*z^T with z != 0 and z.v == 0, so that F*v == M*v but F != M.

    z takes two entries of v, nonzero ones first, swapped, one negated and
    divided by their gcd.  A cheater who receives the chained vector v
    before applying its shadow M can build F; v must not be zero.
    """
    i, j = sorted(range(len(v)), key=lambda x: not v[x])[:2]
    g = gcd(v[i], v[j])
    forged = [list(row) for row in shadow]
    forged[0][i] += v[j] // g
    forged[0][j] -= v[i] // g
    return forged


def ordered_seq_product(matrices, seq):
    """Product for an index sequence read in ring order (later on the left)."""
    acc = None
    for idx in seq:
        acc = matrices[idx] if acc is None else naive_mul(matrices[idx], acc)
    return acc


def dealer_draws(r, k, n, bound, seed):
    """Every draw of a dealer seeded with seed that tests each selected shadow, and its check images.

    Each draw is k r x r matrices of rng.randrange(bound) entries, row by
    row, and sigma = rng.sample(range(k), n).  A draw is kept only when
    every selected shadow has a nonzero naive_det, and the dealer draws
    again otherwise.  Then, for each start i in 1..n, a check vector of
    rng.randrange(2) bits is drawn until its weight is at least 2, and
    its image is the ring walk from i applied to it.  Returns every
    (matrices, sigma) drawn, the kept one last, and the n images.
    """
    rng = Random(seed)
    draws = []
    while True:
        matrices = [[[rng.randrange(bound) for _ in range(r)] for _ in range(r)] for _ in range(k)]
        sigma = rng.sample(range(k), n)
        draws.append((matrices, sigma))
        if all(naive_det(matrices[idx]) != 0 for idx in sigma):
            break
    u_primes = []
    for i in range(n):
        u = [0]
        while sum(u) < 2:
            u = [rng.randrange(2) for _ in range(r)]
        u_primes.append(chain_vector([matrices[sigma[(i + j) % n]] for j in range(n)], u))
    return draws, u_primes


def weight_ge2_vectors(r):
    return [bits for bits in product((0, 1), repeat=r) if sum(bits) >= 2]


def fraction_inverse(a):
    """Gauss-Jordan over Fractions; returns None when singular."""
    n = len(a)
    m = [[Fraction(x) for x in row] + [Fraction(int(i == j)) for j in range(n)] for i, row in enumerate(a)]
    for col in range(n):
        pivot_row = next((i for i in range(col, n) if m[i][col] != 0), None)
        if pivot_row is None:
            return None
        m[col], m[pivot_row] = m[pivot_row], m[col]
        pivot = m[col][col]
        m[col] = [x / pivot for x in m[col]]
        for i in range(n):
            if i != col and m[i][col] != 0:
                f = m[i][col]
                m[i] = [x - f * y for x, y in zip(m[i], m[col])]
    return [row[n:] for row in m]


def mat_rows(m):
    """Plain list-of-lists copy of a package Matrix."""
    return [list(row) for row in m.rows]


def eliminate_mod(rows, ncols, p):
    """Per-entry Gauss-Jordan elimination mod p with the contract of algebra._eliminate_mod.

    The int rows hold ncols coefficient columns first; they are reduced
    mod p into a copy.  None if singular mod p.  Each pivot column is
    cleared above and below the pivot, and row i of the result is the
    right-hand side solved for unknown i, as one int of 64-bit slots, its
    first residue in the top slot: 0 for rows with no right-hand columns.
    """
    w = [[x % p for x in row] for row in rows]
    m = len(w)
    for col in range(ncols):
        pivot_row = next((i for i in range(col, m) if w[i][col]), None)
        if pivot_row is None:
            return None
        w[col], w[pivot_row] = w[pivot_row], w[col]
        inv = pow(w[col][col], -1, p)
        w[col] = [y * inv % p for y in w[col]]
        for i in range(m):
            if i != col:
                f = w[i][col]
                w[i] = [(x - f * y) % p for x, y in zip(w[i], w[col])]
    return [sum(x << 64 * j for j, x in enumerate(reversed(row[ncols:]))) for row in w]


def balanced_crt(residues, primes):
    """The residue of least absolute value modulo the product of the primes, one per position.

    residues[j][i] is position i's residue modulo primes[j]; the residues
    are combined by the incremental Chinese remainder theorem, entry by
    entry, and each x in [0, M) above M // 2 becomes x - M.
    """
    combined, modulus = [x % primes[0] for x in residues[0]], primes[0]
    for ys, p in zip(residues[1:], primes[1:]):
        lift = pow(modulus, -1, p)
        combined = [x + modulus * ((y - x) * lift % p) for x, y in zip(combined, ys)]
        modulus *= p
    return [x - modulus if x > modulus // 2 else x for x in combined]


def freivalds_trials(a, b, c, t, rng):
    """Freivalds' check of a*b == c on one vector of rng.getrandbits(t) entries."""
    u = [rng.getrandbits(t) for _ in range(len(a))]
    return naive_matvec(a, naive_matvec(b, u)) == naive_matvec(c, u)


def freivalds_chain_trials(chain, candidates, t, rng):
    """Freivalds' check of a chain of matrices against candidates, on one shared vector.

    The vector u is drawn once, one rng.getrandbits(t) per coordinate;
    every consecutive pair (prev, nxt) must have one candidate c with
    c*(prev*u) == nxt*u.
    """
    u = [rng.getrandbits(t) for _ in range(len(chain[0]))]
    return all(
        any(naive_matvec(c, naive_matvec(prev, u)) == naive_matvec(nxt, u) for c in candidates)
        for prev, nxt in zip(chain, chain[1:])
    )


def reconstruction_by_sampler(bulletin, shares, start, rng, net=None):
    """A reconstruction round whose X is proven invertible before the walk, as (secret, transcript).

    ``sample_invertible_matrix`` draws X with the protocol's current
    ``X_ENTRY_BOUND``; then each walker broadcasts its reveal as soon as it
    is computed, the last hands it back to the starter, ``recover_secret``
    runs and the starter records the secret to itself over SECURE.  An
    error leaves every message sent before it on the network.  The package
    is called for every step, so only the order of draws and messages is
    independent of it.
    """
    from matshare import protocol
    from matshare.algebra import _entry_bound, _product_bound, mat_mul, sample_invertible_matrix
    from matshare.dealer import ring_walk
    from matshare.transport import PUBLIC, SECURE, fresh_network, participant_name

    walk = ring_walk(start, bulletin.n)
    held = {share.participant: share for share in shares}
    if net is None:
        net = fresh_network(bulletin.n)
    x = sample_invertible_matrix(bulletin.r, protocol.X_ENTRY_BOUND, rng)
    v = c = None
    for pos in walk:
        v = mat_mul(bulletin.shadow_of(held[pos]), x if v is None else v)
        net.broadcast(participant_name(pos), v)
        if pos == bulletin.n:
            c = v
    net.send(participant_name(walk[-1]), participant_name(start), PUBLIC, v)
    top = _entry_bound(bulletin.matrices)
    limits = tuple(_product_bound(bulletin.r, top, m) for m in (bulletin.n - start + 1, start - 1))
    recovered = protocol.recover_secret(v, c, x, limits)
    net.send(participant_name(start), participant_name(start), SECURE, recovered)
    return recovered, net.transcript
