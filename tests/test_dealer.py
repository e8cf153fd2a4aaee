import json
import sys
from random import Random

import pytest

from matshare.algebra import BinaryVector, Matrix, Vector
from matshare.cli import bulletin_to_json, canonical_json
from matshare.dealer import (
    Bulletin,
    DealerParams,
    Instance,
    compute_check_pairs,
    deliver_shares,
    generate_instance,
    ring_walk,
    rotated_product,
    secrecy_rank_check,
)
from matshare.transport import Network, SECURE

from oracles import chain_vector, dealer_draws, mat_rows, minor_rank, naive_det, ordered_seq_product


def small_instance(seed=42):
    return generate_instance(DealerParams(r=4, k=6, n=3, entry_bound=256, seed=seed))


# (r, n, entry bound), each dealt with k = n + 2 and its place in the list
# as the seed: a 0/1 matrix is singular about two times in three, so the
# small bounds reject draws
DEAL_GRID = [(r, n, bound) for r in (3, 4, 5) for n in range(2, min(r, 5)) for bound in (2, 3, 256)]


def grid_deal(seed):
    r, n, bound = DEAL_GRID[seed]
    return generate_instance(DealerParams(r=r, k=n + 2, n=n, entry_bound=bound, seed=seed))


# ---------------------------------------------------------------------------
# params validation
# ---------------------------------------------------------------------------

def test_params_reject_n_equal_r():
    with pytest.raises(ValueError, match="r > n"):
        DealerParams(r=4, k=6, n=4)


def test_params_reject_n_above_k():
    with pytest.raises(ValueError, match="n <= k"):
        DealerParams(r=8, k=3, n=4)


def test_params_reject_single_participant():
    with pytest.raises(ValueError, match="n >= 2"):
        DealerParams(r=4, k=6, n=1)


def test_params_reject_tiny_bound():
    with pytest.raises(ValueError, match="entry_bound"):
        DealerParams(r=4, k=6, n=3, entry_bound=1)


# ---------------------------------------------------------------------------
# generate_instance
# ---------------------------------------------------------------------------

def test_generate_instance_shape_and_secret():
    instance, bulletin, shares = small_instance()
    assert len(bulletin.matrices) == 6
    assert len(shares) == 3
    # recompute the canonical ordered product with the independent oracle
    expected = ordered_seq_product([mat_rows(m) for m in instance.matrices], instance.sigma)
    assert mat_rows(instance.secret) == expected


def test_sigma_distinct_and_in_range():
    for seed in range(8):
        instance, _, _ = small_instance(seed)
        assert len(set(instance.sigma)) == len(instance.sigma)
        assert all(0 <= idx < 6 for idx in instance.sigma)


def test_selected_shadows_are_invertible():
    for seed in range(len(DEAL_GRID)):
        instance, _, _ = grid_deal(seed)
        assert all(naive_det(mat_rows(instance.shadow(pos))) != 0 for pos in range(1, instance.n + 1)), seed


def test_generate_instance_matches_the_oracle_dealer():
    # the oracle keeps a draw only when each selected shadow is invertible;
    # the dealer tests only the secret, which is the same rule, since the
    # determinant is multiplicative
    draws_needed = []
    for seed, (r, n, bound) in enumerate(DEAL_GRID):
        instance, bulletin, _ = grid_deal(seed)
        draws, u_primes = dealer_draws(r, n + 2, n, bound, seed)
        matrices, sigma = draws[-1]
        assert list(instance.sigma) == sigma, seed
        assert [mat_rows(m) for m in instance.matrices] == matrices, seed
        assert mat_rows(instance.secret) == ordered_seq_product(matrices, sigma), seed
        assert [list(v.entries) for v in bulletin.u_prime] == u_primes, seed
        draws_needed.append(len(draws))
    assert max(draws_needed) >= 3, draws_needed


def test_each_draw_tests_only_its_secret(monkeypatch):
    import matshare.dealer as dealer_mod

    tested = []
    real = dealer_mod.is_invertible
    monkeypatch.setattr(dealer_mod, "is_invertible", lambda m: tested.append(mat_rows(m)) or real(m))
    seed = DEAL_GRID.index((5, 4, 2))
    grid_deal(seed)
    draws, _ = dealer_draws(5, 6, 4, 2, seed)
    assert len(draws) > 1
    assert tested == [ordered_seq_product(matrices, sigma) for matrices, sigma in draws]


def test_shares_carry_ring_and_index():
    instance, _, shares = small_instance()
    for j, share in enumerate(shares, start=1):
        assert share.participant == j
        assert share.ring == (1, 2, 3)
        assert share.matrix_index == instance.sigma[j - 1]
        assert share.u.weight >= 2


def test_share_shadow_shape_equals_secret_shape():
    instance, bulletin, shares = small_instance()
    for share in shares:
        assert bulletin.matrices[share.matrix_index].dim == instance.secret.dim


def test_reproducibility():
    first = small_instance(99)
    second = small_instance(99)
    assert first[0] == second[0]
    assert first[2] == second[2]
    assert canonical_json(bulletin_to_json(first[1])) == canonical_json(bulletin_to_json(second[1]))


def test_check_images_match_walk_chains():
    # for every start, walking the ring over U_i must land on u_prime[i]
    instance, bulletin, shares = small_instance(17)
    for i in (1, 2, 3):
        shadows = [mat_rows(instance.shadow(pos)) for pos in ring_walk(i, 3)]
        chained = chain_vector(shadows, shares[i - 1].u.bits)
        assert list(bulletin.u_prime[i - 1].entries) == chained


def test_bulletin_leaks_no_sigma():
    instance, bulletin, _ = small_instance(5)
    doc = bulletin_to_json(bulletin)
    assert set(doc) == {"version", "r", "k", "n", "matrices", "u_prime"}
    text = canonical_json(doc)
    assert "sigma" not in text
    secret_row = json.dumps([str(x) for x in instance.secret.rows[0]])
    assert secret_row not in text


def test_rotated_product_start_one_is_secret():
    instance, _, _ = small_instance(8)
    assert rotated_product(instance, 1) == instance.secret


# ---------------------------------------------------------------------------
# compute_check_pairs
# ---------------------------------------------------------------------------

def manual_instance(matrices, sigma):
    from matshare.algebra import mat_mul

    secret = None
    for idx in sigma:
        secret = matrices[idx] if secret is None else mat_mul(matrices[idx], secret)
    return Instance(matrices=tuple(matrices), sigma=tuple(sigma), secret=secret)


def test_check_pairs_worked_two_party_example():
    # r=2 has a single admissible check vector (1,1), pinning the example
    a1 = Matrix([[1, 1], [0, 1]])
    a2 = Matrix([[1, 0], [1, 1]])
    instance = manual_instance([a1, a2], [0, 1])
    us, u_primes = compute_check_pairs(instance, Random(0))
    assert us[0] == BinaryVector([1, 1])
    assert u_primes[0] == Vector([2, 3])


def test_check_pairs_identity_shadows():
    eye = Matrix.identity(4)
    instance = manual_instance([eye, eye], [0, 1])
    us, u_primes = compute_check_pairs(instance, Random(4))
    for u, u_prime in zip(us, u_primes):
        assert list(u.bits) == list(u_prime.entries)


def test_check_pairs_weight_postcondition():
    instance, _, _ = small_instance(21)
    us, _ = compute_check_pairs(instance, Random(2))
    assert all(u.weight >= 2 for u in us)


def oracle_check_pairs(instance, seed):
    """The check vectors a Random(seed) draws, U_1 first, and each start's image, walk by walk."""
    n, r = instance.n, instance.secret.dim
    rng = Random(seed)
    shadows = [mat_rows(instance.shadow(pos)) for pos in range(1, n + 1)]
    us, images = [], []
    for i in range(n):
        u = [0]
        while sum(u) < 2:
            u = [rng.randrange(2) for _ in range(r)]
        us.append(u)
        images.append(chain_vector([shadows[(i + j) % n] for j in range(n)], u))
    return us, images


def signed_instance(r, k, sigma, seed):
    rng = Random(seed)
    matrices = [Matrix([[rng.randint(-50, 50) for _ in range(r)] for _ in range(r)]) for _ in range(k)]
    return manual_instance(matrices, sigma)


CHECK_PAIR_CASES = {
    "signed": lambda: signed_instance(4, 5, [3, 0, 4], 1),
    "signed-n1": lambda: signed_instance(3, 2, [1], 2),
    "bound-2": lambda: generate_instance(DealerParams(r=5, k=6, n=4, entry_bound=2, seed=3))[0],
    "r32-n8": lambda: generate_instance(DealerParams(r=32, k=32, n=8, seed=4))[0],
}


@pytest.mark.parametrize("case", sorted(CHECK_PAIR_CASES))
def test_check_pairs_match_the_per_walk_oracle(case):
    instance = CHECK_PAIR_CASES[case]()
    us, u_primes = compute_check_pairs(instance, Random(9))
    assert ([list(u.bits) for u in us], [list(v.entries) for v in u_primes]) == oracle_check_pairs(instance, 9)


class AllOnes(Random):
    """Draws 1 for every getrandbits: each check vector it gives is all ones."""

    def getrandbits(self, k):
        return 1


@pytest.mark.parametrize("sign", [1, -1])
@pytest.mark.parametrize("r, n, bound", [(2, 2, 2), (3, 2, 2), (4, 3, 256), (5, 4, 16)])
def test_check_pairs_of_all_top_shadows_fill_their_slots(r, n, bound, sign):
    # shadows whose entries all equal +-(bound - 1) and all-ones check
    # vectors make the widest walks: one that has taken n - 1 shadows, as
    # the widest walk below the top slot has, reaches r^(n-1) * (bound -
    # 1)^(n-1), r times _product_bound(r, bound - 1, n - 1)
    top = Matrix([[sign * (bound - 1)] * r] * r)
    instance = manual_instance([top] * n, range(n))
    us, u_primes = compute_check_pairs(instance, AllOnes())
    ones = [1] * r
    assert all(list(u.bits) == ones for u in us)
    shadows = [mat_rows(top)] * n
    assert [list(v.entries) for v in u_primes] == [chain_vector(shadows, ones)] * n
    assert max(map(abs, chain_vector(shadows[1:], ones))) == (r * (bound - 1)) ** (n - 1)


@pytest.mark.parametrize("n", [1, 3, 8])
def test_check_pairs_take_2n_minus_1_dots_and_no_mat_vec_mul(monkeypatch, n):
    import matshare.algebra as algebra_mod
    import matshare.dealer as dealer_mod

    dots, mat_vecs = [], []
    real_dots, real_mat_vec = dealer_mod._dots, algebra_mod.mat_vec_mul
    monkeypatch.setattr(dealer_mod, "_dots", lambda rows, column: dots.append(1) or real_dots(rows, column))
    for name, module in list(sys.modules.items()):
        if name.startswith("matshare") and getattr(module, "mat_vec_mul", None) is real_mat_vec:
            monkeypatch.setattr(module, "mat_vec_mul", lambda a, v: mat_vecs.append(1) or real_mat_vec(a, v))
    instance = signed_instance(n + 1, n, list(range(n)), n)
    us, u_primes = compute_check_pairs(instance, Random(5))
    assert (len(dots), mat_vecs) == (2 * n - 1, [])
    assert ([list(u.bits) for u in us], [list(v.entries) for v in u_primes]) == oracle_check_pairs(instance, 5)


# ---------------------------------------------------------------------------
# secrecy_rank_check
# ---------------------------------------------------------------------------

def test_rank_weight_two_r4():
    u = BinaryVector([1, 1, 0, 0])
    u_prime = Vector([1, 2, 3, 4])
    rank = secrecy_rank_check(u, u_prime, 4)
    rows = [[0] * 16 for _ in range(4)]
    for a in range(4):
        rows[a][a * 4] = 1
        rows[a][a * 4 + 1] = 1
    assert rank == minor_rank(rows) == 4


def test_rank_all_ones_r3():
    u = BinaryVector([1, 1, 1])
    u_prime = Vector([1, 1, 1])
    rank = secrecy_rank_check(u, u_prime, 3)
    rows = [[0] * 9 for _ in range(3)]
    for a in range(3):
        for b in range(3):
            rows[a][a * 3 + b] = 1
    assert rank == minor_rank(rows) == 3


def test_rank_under_unknowns_r20():
    instance, bulletin, shares = generate_instance(DealerParams(r=20, k=4, n=2, seed=6))
    rank = secrecy_rank_check(shares[0].u, bulletin.u_prime[0], 20)
    assert rank <= 20
    assert 20 * 20 == 400


def test_rank_dimension_mismatch():
    with pytest.raises(ValueError):
        secrecy_rank_check(BinaryVector([1, 1]), Vector([1, 2, 3]), 2)


# ---------------------------------------------------------------------------
# share delivery
# ---------------------------------------------------------------------------

def test_generation_retry_cap(monkeypatch):
    import matshare.dealer as dealer_mod
    from matshare.errors import GenerationFailure

    monkeypatch.setattr(dealer_mod, "is_invertible", lambda m: False)
    with pytest.raises(GenerationFailure):
        generate_instance(DealerParams(r=4, k=6, n=3, seed=0))


def test_deliver_shares_is_secure_only():
    _, bulletin, shares = small_instance(11)
    net = Network([f"P{j}" for j in (1, 2, 3)])
    deliver_shares(net, shares)
    assert len(net.transcript.envelopes) == 6
    assert all(e.visibility == SECURE for e in net.transcript.envelopes)
    assert net.transcript.eavesdropper_view == []
