import copy
import math
from dataclasses import replace
from random import Random

import pytest

from matshare import algebra, protocol
from matshare.algebra import (
    BinaryVector,
    Matrix,
    Vector,
    mat_mul,
    mat_vec_mul,
    sample_invertible_matrix,
    sample_matrix,
)
from matshare.dealer import Bulletin, DealerParams, Share, generate_instance, ring_walk
from matshare.errors import IntegrityFailure, SingularMatrix
from matshare.protocol import (
    X_ENTRY_BOUND,
    CheaterSpec,
    freivalds_audit,
    recover_secret,
    run_reconstruction,
    run_verification,
    simulate_run,
)
from matshare.transport import BROADCAST, SECURE, Network, broadcast_matrices, participant_name

from oracles import adaptive_forgery, chain_matrix, chain_vector, mat_rows

A1 = Matrix([[1, 1], [0, 1]])
A2 = Matrix([[1, 0], [1, 1]])


def dealt(seed=42, r=4, k=6, n=3):
    return generate_instance(DealerParams(r=r, k=k, n=n, entry_bound=256, seed=seed))


def manual_setup(matrices, sigma, us):
    """Build bulletin + shares for explicitly chosen shadows."""
    n = len(sigma)
    r = matrices[0].dim
    secret = None
    for idx in sigma:
        secret = matrices[idx] if secret is None else mat_mul(matrices[idx], secret)
    u_primes = []
    for i in range(1, n + 1):
        shadows = [mat_rows(matrices[sigma[pos - 1]]) for pos in ring_walk(i, n)]
        u_primes.append(Vector(chain_vector(shadows, us[i - 1].bits)))
    bulletin = Bulletin(r=r, k=len(matrices), n=n, matrices=tuple(matrices), u_prime=tuple(u_primes))
    ring = tuple(range(1, n + 1))
    shares = [
        Share(participant=j, matrix_index=sigma[j - 1], ring=ring, u=us[j - 1])
        for j in ring
    ]
    return bulletin, shares, secret


# ---------------------------------------------------------------------------
# run_verification
# ---------------------------------------------------------------------------

def test_verification_honest_all_starts():
    instance, bulletin, shares = dealt()
    for start in (1, 2, 3):
        verdict, transcript = run_verification(bulletin, shares, start)
        assert verdict
        # the chain the walk computes equals the published image
        shadows = [mat_rows(instance.shadow(pos)) for pos in ring_walk(start, 3)]
        chained = chain_vector(shadows, shares[start - 1].u.bits)
        assert chained == list(bulletin.u_prime[start - 1].entries)
        # n-1 vector hops plus the verdict broadcast
        assert len(transcript.envelopes) == 3
        assert transcript.envelopes[-1].payload is True


def test_verification_identity_shadows():
    eye = Matrix.identity(3)
    us = [BinaryVector([1, 1, 0]), BinaryVector([1, 1, 0])]
    bulletin, shares, _ = manual_setup([eye, eye], [0, 1], us)
    assert bulletin.u_prime[0] == Vector([1, 1, 0])
    verdict, _ = run_verification(bulletin, shares, 1)
    assert verdict


def test_verification_detects_random_forgery():
    _, bulletin, shares = dealt(7)
    rng = Random(123)
    for position in (1, 2, 3):
        forged = sample_matrix(4, 256, rng)
        verdict, _ = run_verification(
            bulletin,
            shares,
            2,
            cheater=CheaterSpec(position=position, forged=forged),
        )
        assert not verdict


def test_verification_records_verdict_on_all_states():
    # the verdict reaches every participant as the round's last envelope, a broadcast
    _, bulletin, shares = dealt(8)
    verdict, transcript = run_verification(bulletin, shares, 1)
    last = transcript.envelopes[-1]
    assert last.recipient == BROADCAST
    assert last.payload is verdict


def test_forged_shadow_must_differ():
    instance, bulletin, shares = dealt(9)
    true_shadow = bulletin.matrices[shares[0].matrix_index]
    with pytest.raises(ValueError):
        run_verification(
            bulletin,
            shares,
            1,
            cheater=CheaterSpec(position=1, forged=true_shadow),
        )


def test_dimension_mismatch_aborts_with_false_verdict():
    _, bulletin, shares = dealt(10)
    verdict, transcript = run_verification(
        bulletin,
        shares,
        1,
        cheater=CheaterSpec(position=2, forged=Matrix.identity(5)),
    )
    assert not verdict
    assert transcript.envelopes[-1].payload is False


def test_cheater_position_out_of_range_is_refused():
    _, bulletin, shares = dealt(12)
    forged = sample_matrix(4, 256, Random(998))
    for position in (0, bulletin.n + 1):
        cheater = CheaterSpec(position=position, forged=forged)
        net = Network([participant_name(j) for j in range(1, bulletin.n + 1)])
        with pytest.raises(ValueError, match=r"cheater position must be in \[1, 3\]"):
            run_verification(bulletin, shares, 1, cheater, net)
        assert net.transcript.envelopes == []
        with pytest.raises(ValueError, match="cheater position"):
            simulate_run(bulletin, shares, 1, Random(0), cheater)


def test_round_plan_validation():
    _, bulletin, shares = dealt(11)
    for start in (0, 4):
        with pytest.raises(ValueError, match="start"):
            run_verification(bulletin, shares, start)
    assert ring_walk(2, 4) == [2, 3, 4, 1]


# ---------------------------------------------------------------------------
# run_reconstruction
# ---------------------------------------------------------------------------

def test_reconstruction_worked_two_party_example():
    # start at 2: reveals are A2*X then A1*A2*X, the hand-back is
    # B = A1*A2*X and C is the starter's own reveal A2*X; X is the
    # round's first draw from its rng
    us = [BinaryVector([1, 1]), BinaryVector([1, 1])]
    bulletin, shares, secret = manual_setup([A1, A2], [0, 1], us)
    X = sample_invertible_matrix(2, X_ENTRY_BOUND, Random(0))
    recovered, transcript = run_reconstruction(bulletin, shares, 2, Random(0))
    reveals = broadcast_matrices(transcript.envelopes)
    assert reveals[0].payload == mat_mul(A2, X)
    assert reveals[1].payload == mat_mul(Matrix([[2, 1], [1, 1]]), X)
    assert recovered == Matrix([[1, 1], [1, 2]])
    assert recovered == secret


def test_reconstruction_start_one_handback_equals_position_n_reveal():
    _, bulletin, shares = dealt(12)
    _, transcript = run_reconstruction(bulletin, shares, 1, Random(3))
    reveals = broadcast_matrices(transcript.envelopes)
    handback = [
        e
        for e in transcript.envelopes
        if e.recipient != BROADCAST and e.visibility == "public" and isinstance(e.payload, Matrix)
    ]
    assert handback[-1].payload == reveals[-1].payload


def test_reconstruction_identity_shadows():
    eye = Matrix.identity(3)
    us = [BinaryVector([1, 1, 0]), BinaryVector([0, 1, 1])]
    bulletin, shares, _ = manual_setup([eye, eye], [0, 1], us)
    recovered, _ = run_reconstruction(bulletin, shares, 1, Random(5))
    assert recovered == eye


def test_reconstruction_recovers_secret_every_start():
    instance, bulletin, shares = dealt(13, r=5, k=7, n=4)
    for start in range(1, 5):
        recovered, transcript = run_reconstruction(bulletin, shares, start, Random(start))
        assert recovered == instance.secret
        # the starter's record of the secret goes over the secure channel to itself
        record = transcript.envelopes[-1]
        starter = participant_name(start)
        assert (record.sender, record.recipient, record.visibility) == (starter, starter, SECURE)
        assert record.payload == instance.secret
        # the starter's blinding X is the round's first draw
        x = sample_invertible_matrix(5, X_ENTRY_BOUND, Random(start))
        first = broadcast_matrices(transcript.envelopes)[0]
        assert first.sender == starter
        assert first.payload == mat_mul(instance.shadow(start), x)


def test_reconstruction_chain_consistency():
    # every reveal equals (that walker's shadow) * (previous reveal)
    instance, bulletin, shares = dealt(14)
    _, transcript = run_reconstruction(bulletin, shares, 2, Random(9))
    reveals = broadcast_matrices(transcript.envelopes)
    # verification draws nothing, so X is the round's first draw
    x = sample_invertible_matrix(4, X_ENTRY_BOUND, Random(9))
    walk = ring_walk(2, 3)
    expected = mat_rows(x)
    for pos, envelope in zip(walk, reveals):
        expected = chain_matrix([mat_rows(instance.shadow(pos))], expected)
        assert mat_rows(envelope.payload) == expected


def test_reconstruction_blinding_locality():
    instance, bulletin, shares = dealt(15)
    _, transcript = run_reconstruction(bulletin, shares, 1, Random(2))
    x = sample_invertible_matrix(4, X_ENTRY_BOUND, Random(2))
    assert broadcast_matrices(transcript.envelopes)[0].payload == mat_mul(instance.shadow(1), x)
    for envelope in transcript.envelopes:
        assert envelope.payload != x


def test_reconstruction_integer_closure():
    for seed in range(5):
        instance, bulletin, shares = dealt(seed)
        recovered, _ = run_reconstruction(bulletin, shares, 3, Random(seed))
        assert all(type(x) is int for row in recovered.rows for x in row)
        assert recovered == instance.secret


def test_reconstruction_rejects_wrong_plan_kind():
    _, bulletin, shares = dealt(16)
    for start in (0, 4):
        with pytest.raises(ValueError, match="start"):
            run_reconstruction(bulletin, shares, start, Random(0))


# ---------------------------------------------------------------------------
# recover_secret
# ---------------------------------------------------------------------------

def test_recover_degenerate_start_one():
    rng = Random(20)
    a = sample_matrix(3, 16, rng)
    x = Matrix([[2, 1, 0], [1, 1, 0], [0, 0, 1]])
    b = mat_mul(a, x)
    # P = a has entries below 16, Q = I
    assert recover_secret(b, b, x, (15, 1)) == a


def test_recover_worked_example():
    b = Matrix([[2, 1], [1, 1]])
    c = Matrix([[1, 0], [1, 1]])
    assert recover_secret(b, c, Matrix.identity(2), (1, 1)) == Matrix([[1, 1], [1, 2]])


def test_recover_identity_triple():
    eye = Matrix.identity(3)
    assert recover_secret(eye, eye, eye, (1, 1)) == eye


def test_recover_singular_inputs():
    singular = Matrix([[1, 1], [1, 1]])
    eye = Matrix.identity(2)
    with pytest.raises(SingularMatrix):
        recover_secret(eye, singular, eye, (1, 1))
    with pytest.raises(SingularMatrix):
        recover_secret(eye, eye, singular, (1, 1))


def test_recover_non_integer_result_is_integrity_failure():
    b = Matrix([[0, 1], [1, 0]])
    c = Matrix([[2, 0], [0, 1]])
    # (c b c^-1) = [[0, 2], [1/2, 0]] which is not integral
    with pytest.raises(IntegrityFailure):
        recover_secret(b, c, Matrix.identity(2), (2, 2))


def test_recover_rejects_tampered_wide_reveal():
    instance, bulletin, shares = dealt(seed=8, r=32, k=8, n=8)
    x = sample_matrix(32, 256, Random(3))
    shadows = [instance.shadow(pos) for pos in ring_walk(3, 8)]
    reveals = [mat_mul(shadows[0], x)]
    for shadow in shadows[1:]:
        reveals.append(mat_mul(shadow, reveals[-1]))
    b, c = reveals[-1], reveals[ring_walk(3, 8).index(8)]
    # P is the 6 shadows from start 3 through position 8, Q the 2 after it
    top = algebra._entry_bound(bulletin.matrices)
    limits = (algebra._product_bound(32, top, 6), algebra._product_bound(32, top, 2))
    assert recover_secret(b, c, x, limits) == instance.secret
    rows = [list(row) for row in c.rows]
    rows[5][17] += 1
    with pytest.raises(IntegrityFailure):
        recover_secret(b, Matrix(rows), x, limits)


def test_recover_refuses_a_factor_beyond_its_limit():
    # P = c and Q = [[1, 1], [0, 1]] have entries of at most 1: a limit of
    # 0 on either refuses an integral factor that a limit of 1 accepts
    b, c, x = Matrix([[2, 1], [1, 1]]), Matrix([[1, 0], [1, 1]]), Matrix.identity(2)
    assert recover_secret(b, c, x, (1, 1)) == Matrix([[1, 1], [1, 2]])
    for limits in ((0, 1), (1, 0)):
        with pytest.raises(IntegrityFailure):
            recover_secret(b, c, x, limits)


def test_reconstruction_limits_each_factor_by_its_shadow_count(monkeypatch):
    # P holds the n - s + 1 shadows from start s through position n, Q the
    # s - 1 after it: each limit is r^(m-1) * E^m for m shadows, with E
    # = 2^w - 1 for the widest public matrix, and 1 for none (Q = I)
    instance, bulletin, shares = dealt(21, r=5, k=7, n=4)
    widest = max(max(abs(x) for row in m.rows for x in row) for m in bulletin.matrices).bit_length()

    def bound(m):
        return 5 ** (m - 1) * (2**widest - 1) ** m if m else 1

    seen = []
    original = protocol.solve_integer

    def recording(a, rhs, limit):
        seen.append(limit)
        return original(a, rhs, limit)

    monkeypatch.setattr(protocol, "solve_integer", recording)
    for start in range(1, 5):
        seen.clear()
        recovered, _ = run_reconstruction(bulletin, shares, start, Random(start))
        assert recovered == instance.secret
        assert seen == [bound(4 - start + 1), bound(start - 1)]


def test_reconstruction_refuses_a_tampered_chain_within_its_limit(monkeypatch):
    # at r=32, for every start, b with one entry off by one is refused;
    # its Q solve stops at the first modulus past twice Q's limit
    instance, bulletin, shares = dealt(seed=4242, r=32, k=32, n=8)
    primes = []
    original = algebra._eliminate_mod

    def counting(rows, ncols, p):
        primes.append(p)
        return original(rows, ncols, p)

    monkeypatch.setattr(algebra, "_eliminate_mod", counting)
    widest = max(m.rows[i][j].bit_length() for m in bulletin.matrices for i in range(32) for j in range(32))

    def bound(m):
        return 32 ** (m - 1) * (2**widest - 1) ** m if m else 1

    for start in range(1, 9):
        x = sample_invertible_matrix(32, X_ENTRY_BOUND, Random(start))
        reveals, v = {}, x
        for pos in ring_walk(start, 8):
            v = mat_mul(instance.shadow(pos), v)
            reveals[pos] = v
        b, c = v, reveals[8]
        rows = [list(row) for row in b.rows]
        rows[5][7] += 1
        limits = (bound(8 - start + 1), bound(start - 1))
        assert recover_secret(b, c, x, limits) == instance.secret
        with pytest.raises(IntegrityFailure):
            recover_secret(Matrix(rows), c, x, limits)
        primes.clear()
        assert algebra.solve_integer(c, Matrix(rows), limits[1]) is None
        assert math.prod(primes[:-1]) <= 2 * limits[1] < math.prod(primes)


def test_recover_requires_both_factors_integral():
    # P = c = diag(2, 1) is integral, Q = c^-1 is not, yet P*Q = I is
    with pytest.raises(IntegrityFailure):
        recover_secret(Matrix.identity(2), Matrix([[2, 0], [0, 1]]), Matrix.identity(2), (2, 2))


# ---------------------------------------------------------------------------
# freivalds_audit
# ---------------------------------------------------------------------------

def test_audit_accepts_honest_transcript():
    _, bulletin, shares = dealt(30)
    result = simulate_run(bulletin, shares, 1, Random(1))
    assert freivalds_audit(result.transcript, bulletin, 10, seed=5)


def test_audit_rejects_perturbed_reveal():
    _, bulletin, shares = dealt(31)
    result = simulate_run(bulletin, shares, 2, Random(2))
    transcript = result.transcript
    # bump one entry of one broadcast reveal
    for rejected_idx in range(3):
        envelopes = list(transcript.envelopes)
        target = broadcast_matrices(envelopes)[rejected_idx]
        rows = mat_rows(target.payload)
        rows[0][0] += 1
        where = envelopes.index(target)
        envelopes[where] = replace(target, payload=Matrix(rows))
        forged = type(transcript)(envelopes=envelopes)
        assert not freivalds_audit(forged, bulletin, 10, seed=7)


def test_audit_perturbation_monte_carlo():
    # single +1 perturbations at seeded random reveals/entries: the audit's
    # residual false-accept chance is at most k * 2^-t, so 50 frozen trials all reject
    _, bulletin, shares = dealt(35)
    result = simulate_run(bulletin, shares, 3, Random(11))
    base = list(result.transcript.envelopes)
    rejected = 0
    for trial in range(50):
        rng = Random(7700 + trial)
        envelopes = list(base)
        target = broadcast_matrices(envelopes)[rng.randrange(3)]
        rows = mat_rows(target.payload)
        rows[rng.randrange(4)][rng.randrange(4)] += 1
        envelopes[envelopes.index(target)] = replace(target, payload=Matrix(rows))
        forged = type(result.transcript)(envelopes=envelopes)
        rejected += not freivalds_audit(forged, bulletin, 10, seed=trial)
    assert rejected == 50


def test_audit_accept_rate_reaches_k_times_2_to_minus_t():
    # reveals I then N; candidate M_i = N + e_0 e_i^T explains the pair on a
    # trial vector u iff u_i = 0, so each of the k = 4 candidates passes t = 3
    # trials with probability 1/8 and the forged pair is accepted with
    # probability 1 - (7/8)^4 ~ 0.414: above 2^-t = 0.125, below k 2^-t = 0.5
    r, k, t, runs = 4, 4, 3, 2000
    n_rows = [[(3 * i + 5 * j) % 7 for j in range(r)] for i in range(r)]
    candidates = []
    for i in range(k):
        rows = [list(row) for row in n_rows]
        rows[0][i] += 1
        candidates.append(Matrix(rows))
    bulletin = Bulletin(r=r, k=k, n=2, matrices=tuple(candidates), u_prime=(Vector([0] * r),) * 2)
    net = Network(["P1", "P2"])
    net.broadcast("P1", Matrix.identity(r))
    net.broadcast("P2", Matrix(n_rows))
    accepted = sum(freivalds_audit(net.transcript, bulletin, t, seed=s) for s in range(runs))
    p = 1 - (7 / 8) ** k
    assert abs(accepted / runs - p) <= 4 * (p * (1 - p) / runs) ** 0.5
    assert 2**-t < accepted / runs < k * 2**-t


def _wide_transcript():
    # one honest r=32 n=8 k=32 round, the ring-wide benchmark's shape
    _, bulletin, shares = dealt(seed=8, r=32, k=32, n=8)
    return bulletin, simulate_run(bulletin, shares, 3, Random(5)).transcript


def _with_reveal(transcript, index, rows):
    envelopes = list(transcript.envelopes)
    target = broadcast_matrices(envelopes)[index]
    envelopes[envelopes.index(target)] = replace(target, payload=Matrix(rows))
    return type(transcript)(envelopes=envelopes)


def test_audit_rejects_unit_perturbations_at_every_wide_reveal():
    # +1 and -1 at four seeded entries of each of the 8 reveals; with t=16 a
    # forged transcript slips through with probability at most k * 2^-16.
    # At t=64 each entry of the audit's vector is wider than one CPython
    # digit, so the images are products of multi-digit ints throughout
    bulletin, transcript = _wide_transcript()
    reveals = broadcast_matrices(transcript.envelopes)
    assert len(reveals) == 8
    for t in (16, 64):
        assert freivalds_audit(transcript, bulletin, t, seed=0)
        rng = Random(12)
        for index, reveal in enumerate(reveals):
            for delta in (1, -1) * 4:
                rows = mat_rows(reveal.payload)
                rows[rng.randrange(32)][rng.randrange(32)] += delta
                assert not freivalds_audit(_with_reveal(transcript, index, rows), bulletin, t, seed=index)


def test_audit_draws_one_t_bit_entry_per_coordinate():
    # one vector of r = 32 entries in [0, 2^t), shared by all 7 reveal pairs
    # and all 32 candidates: exactly r draws of t bits per audit
    draws = []

    class CountingRandom(Random):
        def getrandbits(self, k):
            draws.append(k)
            return super().getrandbits(k)

    bulletin, transcript = _wide_transcript()
    for t in (1, 10, 64):
        draws.clear()
        assert freivalds_audit(transcript, bulletin, t, CountingRandom(t))
        assert draws == [t] * 32


def test_audit_rejects_negative_reveals():
    # the audit's products are signed: a negated reveal, or one negated
    # entry, must compare unequal to every nonnegative candidate chain
    bulletin, transcript = _wide_transcript()
    for index, reveal in enumerate(broadcast_matrices(transcript.envelopes)):
        negated = [[-x for x in row] for row in reveal.payload.rows]
        one_entry = mat_rows(reveal.payload)
        one_entry[3][4] = -one_entry[3][4]
        for rows in (negated, one_entry):
            assert not freivalds_audit(_with_reveal(transcript, index, rows), bulletin, 16, seed=index)


def _imaged_reveals(monkeypatch, transcript, bulletin):
    """The audit's verdict and the indices of the reveals it imaged, in order."""
    reveal_rows = [e.payload.rows for e in broadcast_matrices(transcript.envelopes)]
    imaged = []
    dots = algebra._dots

    def counting_dots(rows, packed):
        imaged.extend(i for i, seen in enumerate(reveal_rows) if seen is rows)
        return dots(rows, packed)

    with monkeypatch.context() as patch:
        patch.setattr(algebra, "_dots", counting_dots)
        verdict = freivalds_audit(transcript, bulletin, 10, seed=3)
    return verdict, imaged


def test_audit_images_each_reveal_once(monkeypatch):
    # 8 reveals make 7 pairs: each reveal's image serves as nxt of one pair
    # and prev of the next, so 8 image products are formed, not 14
    bulletin, transcript = _wide_transcript()
    assert _imaged_reveals(monkeypatch, transcript, bulletin) == (True, list(range(8)))
    # a forged first pair is rejected before any later reveal is imaged
    rows = mat_rows(broadcast_matrices(transcript.envelopes)[1].payload)
    rows[5][6] += 1
    forged = _with_reveal(transcript, 1, rows)
    assert _imaged_reveals(monkeypatch, forged, bulletin) == (False, [0, 1])


def test_audit_accepts_an_honest_signed_chain():
    # signed 40-bit shadows and blinding make every reveal signed and wide:
    # the audit must accept the true chain and reject a single sign flip
    rng = Random(21)
    r, n = 12, 4

    def signed():
        return Matrix([[rng.randint(-2**40, 2**40) for _ in range(r)] for _ in range(r)])

    shadows = [signed() for _ in range(n)]
    bulletin = Bulletin(r=r, k=n, n=n, matrices=tuple(shadows), u_prime=(Vector([0] * r),) * n)
    net = Network([participant_name(j) for j in range(1, n + 1)])
    v = signed()
    for j, shadow in enumerate(shadows, start=1):
        v = mat_mul(shadow, v)
        net.broadcast(participant_name(j), v)
    assert any(x < 0 for row in v.rows for x in row)
    for seed in range(5):
        assert freivalds_audit(net.transcript, bulletin, 10, seed=seed)
    rows = mat_rows(broadcast_matrices(net.transcript.envelopes)[1].payload)
    rows[0][0] = -rows[0][0]
    assert not freivalds_audit(_with_reveal(net.transcript, 1, rows), bulletin, 16, seed=0)


def test_adaptive_forgery_passes_verification_but_fails_the_audit():
    # the cheater receives its chained vector v in public before applying its
    # shadow M, and forges F = M + e_0 z^T with z.v == 0, so F*v == M*v:
    # verification detects non-adaptive forgeries only.  F is no public
    # matrix, so a reconstruction through F is refused by the audit
    for seed in range(20):
        rng = Random(seed)
        instance, bulletin, shares = dealt(seed, r=8, k=12, n=4)
        start = rng.randint(1, 4)
        cheater = rng.choice([p for p in range(1, 5) if p != start])
        _, honest = run_verification(bulletin, shares, start)
        (v,) = [e.payload for e in honest.envelopes if e.recipient == participant_name(cheater)]
        shadow = bulletin.shadow_of(shares[cheater - 1])
        forged = Matrix(adaptive_forgery(mat_rows(shadow), v.entries))
        assert mat_vec_mul(forged, v) == mat_vec_mul(shadow, v)
        verdict, _ = run_verification(bulletin, shares, start, CheaterSpec(cheater, forged))
        assert verdict
        tampered = replace(bulletin, matrices=(*bulletin.matrices, forged))
        held = [replace(s, matrix_index=bulletin.k) if s.participant == cheater else s for s in shares]
        recovered, transcript = run_reconstruction(tampered, held, start, rng)
        assert recovered != instance.secret
        assert not freivalds_audit(transcript, bulletin, 20, seed)


def test_audit_rejects_forged_handback():
    _, bulletin, shares = dealt(32)
    result = simulate_run(bulletin, shares, 1, Random(4))
    envelopes = list(result.transcript.envelopes)
    idx = next(
        i
        for i, e in enumerate(envelopes)
        if e.visibility == "public" and e.recipient != BROADCAST and isinstance(e.payload, Matrix)
    )
    rows = mat_rows(envelopes[idx].payload)
    rows[1][1] += 3
    envelopes[idx] = replace(envelopes[idx], payload=Matrix(rows))
    forged = type(result.transcript)(envelopes=envelopes)
    assert not freivalds_audit(forged, bulletin, 10, seed=8)


def test_audit_identity_transcript_true_for_every_t():
    eye = Matrix.identity(3)
    us = [BinaryVector([1, 1, 0]), BinaryVector([0, 1, 1])]
    bulletin, shares, _ = manual_setup([eye, eye], [0, 1], us)
    _, transcript = run_reconstruction(bulletin, shares, 1, Random(6))
    for t in range(1, 9):
        assert freivalds_audit(transcript, bulletin, t, seed=t)


# ---------------------------------------------------------------------------
# simulate_run
# ---------------------------------------------------------------------------

def test_simulate_cheater_skips_reconstruction():
    _, bulletin, shares = dealt(33)
    forged = sample_matrix(4, 256, Random(999))
    result = simulate_run(
        bulletin, shares, 1, Random(0), cheater=CheaterSpec(position=2, forged=forged)
    )
    assert not result.verdict
    assert result.recovered is None
    assert broadcast_matrices(result.transcript.envelopes) == []


def test_simulate_start_and_blinding_invariance():
    instance, bulletin, shares = dealt(34)
    outcomes = set()
    for start in (1, 2, 3):
        for draw in range(3):
            result = simulate_run(bulletin, shares, start, Random(100 * start + draw))
            assert result.verdict
            outcomes.add(result.recovered)
    assert outcomes == {instance.secret}


def test_round_leaves_bulletin_unchanged():
    _, bulletin, shares = dealt(36)
    before = copy.deepcopy(bulletin)
    for start in (1, 2):
        assert simulate_run(bulletin, shares, start, Random(start)).verdict
    assert bulletin == before
