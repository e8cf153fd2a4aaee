"""The trusted dealer: instance generation, shares, check pairs, bulletin.

The dealer samples the public matrix set, privately fixes an ordered
selection sigma of n distinct indices, and defines the secret as the
chained product of the selected shadows.  Participants only ever receive
an index into the public set, the ring ordering, and a private binary
check vector; the published check image lets any circular shift of the
ring verify itself without exposing the secret.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import List, Tuple

from .algebra import (
    BinaryVector,
    Matrix,
    Vector,
    _dots,
    _entry_bound,
    _product_bound,
    chain_product,
    is_invertible,
    matrix_rank,
    sample_check_vector,
    sample_matrix,
)
from .errors import GenerationFailure
from .transport import DEALER, SECURE, IndexPointer, Network, participant_name

#: whole-instance retries before giving up on an all-invertible selection
MAX_INSTANCE_RETRIES = 1000


@dataclass(frozen=True)
class DealerParams:
    """Generation parameters; validation errors name the violated constraint."""

    r: int
    k: int
    n: int
    entry_bound: int = 256
    seed: int = 0

    def __post_init__(self):
        if self.n < 2:
            raise ValueError("n >= 2 required")
        if self.n > self.k:
            raise ValueError("n <= k required")
        if self.r <= self.n:
            raise ValueError("r > n required")
        if self.entry_bound < 2:
            raise ValueError("entry_bound >= 2 required")


@dataclass(frozen=True)
class Instance:
    """Dealer-side ground truth; sigma and secret are never published."""

    matrices: Tuple[Matrix, ...]
    sigma: Tuple[int, ...]
    secret: Matrix

    def shadow(self, position: int) -> Matrix:
        """The matrix held by the participant at ring position 1..n."""
        return self.matrices[self.sigma[position - 1]]

    @property
    def n(self) -> int:
        return len(self.sigma)


@dataclass(frozen=True)
class Share:
    """One participant's private material."""

    participant: int
    matrix_index: int
    ring: Tuple[int, ...]
    u: BinaryVector


@dataclass(frozen=True)
class Bulletin:
    """All public data: the matrix set, the parameters and the check images."""

    r: int
    k: int
    n: int
    matrices: Tuple[Matrix, ...]
    u_prime: Tuple[Vector, ...]
    # never read or written by this package; kept only so that callers
    # passing ``dataclasses.replace(bulletin, reveals=...)`` keep working
    reveals: tuple = ()

    def shadow_of(self, share: Share) -> Matrix:
        return self.matrices[share.matrix_index]


def ring_walk(start: int, n: int) -> List[int]:
    """Ring positions visited once, starting at `start`: successor of j is (j mod n)+1."""
    if not 1 <= start <= n:
        raise ValueError(f"start must be in [1, {n}]")
    return [(start - 1 + j) % n + 1 for j in range(n)]


def rotated_product(instance: Instance, start: int) -> Matrix:
    """Product of all shadows in ring order from `start`, later factors on the left.

    Starting at 1 this is the canonical secret.
    """
    return chain_product(instance.shadow(pos) for pos in ring_walk(start, instance.n))


def compute_check_pairs(instance: Instance, rng) -> Tuple[List[BinaryVector], List[Vector]]:
    """(U, U'): for each start position i in 1..n, a check vector U_i drawn from rng and its image.

    U'_i is what the verification walk from i computes, the rotated
    product from i applied to U_i; for i = 1 that product is the secret.
    All n check vectors are drawn first.  The walks then move together, in
    W-bit slots of r packed rows, by 2n - 1 ``_dots``: for p = 1..n, walk
    p joins the lowest slot and every walk present takes shadow p; then
    for p = 1..n-1, walk p, finished, is read out of the top slot and the
    rest take shadow p.  A walk below the top has taken at most n - 1
    shadows: W holds r * _product_bound(r, E, n - 1) and a sign bit.
    """
    shadows = [instance.shadow(pos) for pos in range(1, instance.n + 1)]
    r = instance.secret.dim
    us = [sample_check_vector(r, rng) for _ in shadows]
    width = (r * _product_bound(r, _entry_bound(shadows), instance.n - 1)).bit_length() + 1
    rows = [0] * r
    for u, shadow in zip(us, shadows):
        rows = list(_dots(shadow.rows, [(x << width) + b for x, b in zip(rows, u.entries)]))
    u_primes: List[Vector] = []
    for live, shadow in zip(range(instance.n - 1, 0, -1), shadows):
        shift = width * live
        # half of the lower slots, so that their signed sum reads nonnegative
        image = [(x + (1 << shift - 1)) >> shift for x in rows]
        u_primes.append(Vector(image))
        rows = list(_dots(shadow.rows, [x - (y << shift) for x, y in zip(rows, image)]))
    u_primes.append(Vector(rows))
    return us, u_primes


def generate_instance(params: DealerParams) -> Tuple[Instance, Bulletin, List[Share]]:
    """(instance, bulletin, shares), a function of params alone.

    Every shadow that sigma selects is invertible, since recovery inverts
    partial products.  The determinant is multiplicative, so that holds
    exactly when the secret is invertible: each draw makes one test, on
    the secret, and a rejected draw has paid for its one product.
    Raises GenerationFailure when MAX_INSTANCE_RETRIES instances give no
    such selection.
    """
    rng = random.Random(params.seed)
    for _ in range(MAX_INSTANCE_RETRIES):
        matrices = tuple(
            sample_matrix(params.r, params.entry_bound, rng) for _ in range(params.k)
        )
        sigma = tuple(rng.sample(range(params.k), params.n))
        secret = chain_product(matrices[idx] for idx in sigma)
        if is_invertible(secret):
            break
    else:
        raise GenerationFailure(
            f"no all-invertible selection found in {MAX_INSTANCE_RETRIES} instance retries"
        )

    instance = Instance(matrices=matrices, sigma=sigma, secret=secret)
    us, u_primes = compute_check_pairs(instance, rng)

    ring = tuple(range(1, params.n + 1))
    shares = [
        Share(participant=j, matrix_index=sigma[j - 1], ring=ring, u=us[j - 1])
        for j in ring
    ]
    bulletin = Bulletin(
        r=params.r,
        k=params.k,
        n=params.n,
        matrices=matrices,
        u_prime=tuple(u_primes),
    )
    return instance, bulletin, shares


def deliver_shares(net: Network, shares: List[Share]) -> None:
    """Distribute shares over the secure channel, never the public one."""
    for share in shares:
        who = participant_name(share.participant)
        net.send(DEALER, who, SECURE, IndexPointer(share.matrix_index, share.ring))
        net.send(DEALER, who, SECURE, share.u)


def secrecy_rank_check(u: BinaryVector, u_prime: Vector, r: int) -> int:
    """Rank of the constraint system {X u = u'} over the r^2 unknown entries of X.

    The rank is at most r, since row a of the system constrains only row a
    of X: one pair of check vectors leaves the secret underdetermined.
    Raises ValueError unless u and u_prime are r-vectors.
    """
    if u.dim != r or u_prime.dim != r:
        raise ValueError("dimension mismatch")
    rows = []
    for a in range(r):
        row = [0] * (r * r)
        for b in range(r):
            row[a * r + b] = u.bits[b]
        rows.append(row)
    return matrix_rank(rows)
