"""The circular-shift verification and blinded reconstruction rounds.

A round walks the participant ring exactly once from its start position.
Verification chains each shadow onto the starter's private check vector
and compares the result against the published image, detecting forged
shadows.  Reconstruction blinds the same chain with a random invertible
matrix so each intermediate reveal is publishable, then the starter
strips the blinding by two certified integer solves and recovers the
secret.

Each round is a function of the bulletin, the shares and the start
position alone: it keeps no participant state and writes nothing to the
bulletin, and every message it sends lands on the network's transcript.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Tuple

from .algebra import (
    Matrix,
    _entry_bound,
    _product_bound,
    freivalds_screen,
    mat_mul,
    mat_vec_mul,
    sample_invertible_matrix,
    solve_integer,
)
from .dealer import Bulletin, Share, deliver_shares, ring_walk
from .errors import IntegrityFailure, SingularMatrix
from .transport import (
    BROADCAST,
    PUBLIC,
    SECURE,
    Network,
    Transcript,
    broadcast_matrices,
    fresh_network,
    participant_name,
)

#: blinding matrices are sampled with entries in [0, X_ENTRY_BOUND)
X_ENTRY_BOUND = 256


@dataclass(frozen=True)
class CheaterSpec:
    """A participant who substitutes a forged matrix for their true shadow."""

    position: int
    forged: Matrix


def _effective_shadow(bulletin: Bulletin, share: Share, cheater) -> Matrix:
    true_shadow = bulletin.shadow_of(share)
    if cheater is not None and cheater.position == share.participant:
        if cheater.forged == true_shadow:
            raise ValueError("forged shadow must differ from the true shadow")
        return cheater.forged
    return true_shadow


def run_verification(
    bulletin: Bulletin,
    shares: List[Share],
    start: int,
    cheater: Optional[CheaterSpec] = None,
    net: Optional[Network] = None,
) -> Tuple[bool, Transcript]:
    """Walk the ring once from `start`, chaining shadows onto the starter's check vector.

    The final participant compares the chained vector against the published
    image for this start position and broadcasts the boolean verdict.  A
    dimension mismatch anywhere aborts the round with a false verdict.  A
    start or cheater position outside [1, n] raises ValueError before any
    message is sent.
    """
    walk = ring_walk(start, bulletin.n)
    if cheater is not None and not 1 <= cheater.position <= bulletin.n:
        raise ValueError(f"cheater position must be in [1, {bulletin.n}]")
    held = {share.participant: share for share in shares}
    if net is None:
        net = fresh_network(bulletin.n)
    u = held[start].u
    v = None
    for idx, pos in enumerate(walk):
        shadow = _effective_shadow(bulletin, held[pos], cheater)
        operand = u if v is None else v
        if shadow.dim != operand.dim:
            # malformed message: abort the round with a public false verdict
            net.broadcast(participant_name(pos), False)
            return False, net.transcript
        v = mat_vec_mul(shadow, operand)
        if idx + 1 < len(walk):
            net.send(participant_name(pos), participant_name(walk[idx + 1]), PUBLIC, v)
    verdict = v == bulletin.u_prime[start - 1]
    net.broadcast(participant_name(walk[-1]), verdict)
    return verdict, net.transcript


def run_reconstruction(
    bulletin: Bulletin,
    shares: List[Share],
    start: int,
    rng,
    net: Optional[Network] = None,
) -> Tuple[Matrix, Transcript]:
    """The secret recovered by one blinded walk of the ring from `start`, and the transcript.

    Each participant broadcasts one reveal, the starter's blinded by a
    fresh invertible X drawn from `rng`; the last hands its reveal back to
    the starter, who recovers the secret by ``recover_secret`` with the
    honest entry bound of each factor.  Raises ValueError for a start
    outside [1, n], and ``recover_secret``'s errors for inconsistent
    reveals.
    """
    walk = ring_walk(start, bulletin.n)
    held = {share.participant: share for share in shares}
    if net is None:
        net = fresh_network(bulletin.n)
    x = sample_invertible_matrix(bulletin.r, X_ENTRY_BOUND, rng)

    v = c = None
    for pos in walk:
        v = mat_mul(bulletin.shadow_of(held[pos]), x if v is None else v)
        net.broadcast(participant_name(pos), v)
        if pos == bulletin.n:
            c = v

    # the last walker gives what they computed back to the starter
    net.send(participant_name(walk[-1]), participant_name(start), PUBLIC, v)

    # P is the n - start + 1 shadows from the starter through position n,
    # Q the start - 1 after it, so no honest factor passes these limits
    top = _entry_bound(bulletin.matrices)
    limits = tuple(_product_bound(bulletin.r, top, m) for m in (bulletin.n - start + 1, start - 1))
    recovered = recover_secret(v, c, x, limits)
    # the starter's private record of the outcome; never visible publicly
    net.send(participant_name(start), participant_name(start), SECURE, recovered)
    return recovered, net.transcript


def recover_secret(b: Matrix, c: Matrix, x: Matrix, limits: Tuple[int, int]) -> Matrix:
    """The secret P*Q of integer matrices P and Q with P*x == c and Q*c == b.

    b is the full blinded chain, c the partial chain through ring position
    n and x the blinding matrix, all r x r; `limits` bounds the absolute
    entries of P and of Q.  Both equations hold exactly for the returned
    factors (``solve_integer``).  Raises ValueError for a dimension
    mismatch, SingularMatrix when x or c is singular, and IntegrityFailure
    when P or Q is not integral or has an entry beyond its limit, which is
    stricter than asking only that P*Q be integral; no honest round needs
    more.
    """
    if not (b.dim == c.dim == x.dim):
        raise ValueError(f"dimension mismatch: {b.dim}, {c.dim}, {x.dim}")
    p_limit, q_limit = limits
    p = _integer_factor(x, c, p_limit, "blinding matrix is singular")
    q = _integer_factor(c, b, q_limit, "partial-product reveal is singular")
    return mat_mul(p, q)


def _integer_factor(a: Matrix, rhs: Matrix, limit: int, singular: str) -> Matrix:
    """The certified integer Z with Z*a == rhs within the limit, or the recovery error."""
    try:
        z = solve_integer(a, rhs, limit)
    except SingularMatrix:
        raise SingularMatrix(singular) from None
    if z is None:
        raise IntegrityFailure(
            "recovered factor is not an integer matrix within its limit; reveals are inconsistent"
        )
    return z


def freivalds_audit(transcript: Transcript, bulletin: Bulletin, t: int, seed) -> bool:
    """Whether a reconstruction transcript's reveals are consistent with the bulletin.

    True when each broadcast reveal after the first is one of the k
    bulletin matrices times the reveal before it, checked by
    ``freivalds_screen`` on one vector of t-bit entries drawn from `seed`
    (an int or a ``random.Random``), and the last public hand-back, if
    any, equals the last reveal.  Consistent reveals always pass; a pair
    that no bulletin matrix explains passes with probability at most
    k * 2^-t.  The seed must draw independently of the round's: the first
    reveal gives X to an observer who knows the starter's shadow, so a
    vector replaying X's draws voids the bound.  Raises ValueError for
    t < 1.
    """
    reveals = [e.payload for e in broadcast_matrices(transcript.envelopes)]
    if not freivalds_screen(reveals, bulletin.matrices, t, seed):
        return False
    handbacks = [
        e
        for e in transcript.envelopes
        if e.visibility == PUBLIC and e.recipient != BROADCAST and isinstance(e.payload, Matrix)
    ]
    if handbacks and reveals and handbacks[-1].payload != reveals[-1]:
        return False
    return True


@dataclass
class RunResult:
    """Outcome of one full simulated round (delivery, verification, reconstruction)."""

    verdict: bool
    recovered: Optional[Matrix]
    transcript: Transcript


def simulate_run(
    bulletin: Bulletin,
    shares: List[Share],
    start: int,
    rng,
    cheater: Optional[CheaterSpec] = None,
) -> RunResult:
    """Drive one complete round; reconstruction only happens on a true verdict."""
    net = fresh_network(bulletin.n)
    deliver_shares(net, shares)
    verdict, _ = run_verification(bulletin, shares, start, cheater, net)
    recovered = None
    if verdict:
        recovered, _ = run_reconstruction(bulletin, shares, start, rng, net)
    net.close()
    return RunResult(verdict, recovered, net.transcript)
