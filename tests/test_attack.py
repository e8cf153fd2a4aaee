import math
from dataclasses import replace
from itertools import permutations, product
from random import Random

import pytest

from matshare import algebra, attack
from matshare.attack import (
    GUARDRAIL_LIMIT,
    MULTISET,
    ORDERED_DISTINCT,
    ORDERED_WITH_REPETITION,
    SearchProblem,
    count_search_space,
    exhaustive_search,
    ratio_analysis,
)
from matshare.algebra import Matrix
from matshare.dealer import DealerParams, generate_instance
from matshare.errors import GuardrailExceeded
from matshare.protocol import simulate_run
from matshare.transport import broadcast_matrices

from oracles import chain_vector, mat_rows, naive_matvec, ordered_seq_product


def dealt(seed=42, r=4, k=6, n=3):
    return generate_instance(DealerParams(r=r, k=k, n=n, entry_bound=256, seed=seed))


# ---------------------------------------------------------------------------
# count_search_space
# ---------------------------------------------------------------------------

def test_counts_multiset_k20_n10():
    # the multiset figure for k=20, n=10: C(29, 10)
    expected = math.factorial(29) // (math.factorial(10) * math.factorial(19))
    assert expected == 20_030_010
    assert count_search_space(20, 10, MULTISET) == expected


def test_counts_degenerate():
    for mode in (MULTISET, ORDERED_DISTINCT, ORDERED_WITH_REPETITION):
        assert count_search_space(1, 1, mode) == 1


def test_counts_k6_n3():
    assert count_search_space(6, 3, MULTISET) == 56
    assert count_search_space(6, 3, ORDERED_DISTINCT) == 120
    assert count_search_space(6, 3, ORDERED_WITH_REPETITION) == 216


def test_counts_match_enumeration_cardinality():
    # enumerating over identity matrices visits the whole space
    for k in (2, 4, 6):
        for n in (1, 2, 3):
            if n > k:
                continue
            eye = Matrix.identity(2)
            problem = SearchProblem(matrices=(eye,) * k, n=n, target=eye)
            for mode in (ORDERED_DISTINCT, ORDERED_WITH_REPETITION):
                result = exhaustive_search(problem, mode)
                assert result.nodes_explored == count_search_space(k, n, mode)
                assert len(result.solutions) == result.nodes_explored


def test_counts_validate_args():
    with pytest.raises(ValueError):
        count_search_space(3, 4, MULTISET)
    with pytest.raises(ValueError):
        count_search_space(3, 2, "simultaneous")


# ---------------------------------------------------------------------------
# exhaustive_search
# ---------------------------------------------------------------------------

def reference_search(problem, mode, limit):
    """(solutions, nodes_explored) by plain enumeration, each product formed from scratch."""
    raw = [mat_rows(m) for m in problem.matrices]
    target = mat_rows(problem.target)
    indices = range(len(raw))
    if mode == ORDERED_DISTINCT:
        sequences = permutations(indices, problem.n)
    else:
        sequences = product(indices, repeat=problem.n)
    solutions, nodes = [], 0
    for seq in sequences:
        nodes += 1
        if ordered_seq_product(raw, seq) == target:
            solutions.append(seq)
            if limit is not None and len(solutions) >= limit:
                break
    return tuple(solutions), nodes


def test_search_finds_dealer_sigma():
    instance, bulletin, _ = dealt()
    problem = SearchProblem(matrices=bulletin.matrices, n=3, target=instance.secret)
    result = exhaustive_search(problem, ORDERED_DISTINCT)
    assert instance.sigma in result.solutions
    assert result.nodes_explored == 120


def test_search_solutions_reverify_against_oracle():
    instance, bulletin, _ = dealt(77)
    problem = SearchProblem(matrices=bulletin.matrices, n=3, target=instance.secret)
    result = exhaustive_search(problem, ORDERED_WITH_REPETITION)
    raw = [mat_rows(m) for m in bulletin.matrices]
    for seq in result.solutions:
        assert ordered_seq_product(raw, seq) == mat_rows(instance.secret)
    assert instance.sigma in result.solutions
    assert (result.solutions, result.nodes_explored) == reference_search(problem, ORDERED_WITH_REPETITION, None)


def test_search_all_identities():
    eye = Matrix.identity(2)
    problem = SearchProblem(matrices=(eye, eye, eye), n=2, target=eye)
    result = exhaustive_search(problem, ORDERED_DISTINCT)
    assert len(result.solutions) == 6


def test_search_zero_target_unreachable():
    _, bulletin, _ = dealt(5)
    zero = Matrix([[0] * 4 for _ in range(4)])
    problem = SearchProblem(matrices=bulletin.matrices, n=3, target=zero)
    result = exhaustive_search(problem, ORDERED_DISTINCT)
    assert result.solutions == ()


def test_search_respects_limit():
    eye = Matrix.identity(2)
    problem = SearchProblem(matrices=(eye,) * 5, n=2, target=eye)
    result = exhaustive_search(problem, ORDERED_DISTINCT, limit=3)
    assert result.solutions == ((0, 1), (0, 2), (0, 3))
    assert result.nodes_explored == 3
    first = exhaustive_search(problem, ORDERED_DISTINCT, limit=1)
    assert first.solutions == ((0, 1),)
    assert first.nodes_explored == 1


SWAP = Matrix([[0, 1], [1, 0]])
SHEAR = Matrix([[1, 1], [0, 1]])
# repeated matrices, so sequences tie on their products and on prefixes
REPEATED_SET = (SWAP, Matrix.identity(2), SHEAR, SWAP, Matrix.identity(2), Matrix([[1, 0], [1, 1]]))


@pytest.mark.parametrize("limit", [None, 1, 2, 3])
@pytest.mark.parametrize("n", [1, 2, 3, 4])
@pytest.mark.parametrize("mode", [ORDERED_DISTINCT, ORDERED_WITH_REPETITION])
def test_search_matches_reference_enumeration(mode, n, limit):
    # SWAP to an odd power is SWAP, to an even one the identity
    target = SWAP if n % 2 else Matrix.identity(2)
    problem = SearchProblem(matrices=REPEATED_SET, n=n, target=target)
    result = exhaustive_search(problem, mode, limit=limit)
    assert (result.solutions, result.nodes_explored) == reference_search(problem, mode, limit)
    assert result.solutions


@pytest.mark.parametrize("n", [1, 2, 3])
def test_search_rejects_corner_match_that_is_not_a_solution(n):
    # decoy equals SHEAR in row 0 only, so a sequence ending in decoy has
    # the solution's (0, 0) product entry but another product
    decoy = Matrix([[1, 1], [5, 2]])
    matrices = (SWAP, Matrix([[2, 1], [1, 1]]), SHEAR, decoy)
    solution = (1, 0, 2)[-n:]
    near_miss = solution[:-1] + (3,)
    raw = [mat_rows(m) for m in matrices]
    target = ordered_seq_product(raw, solution)
    near_miss_product = ordered_seq_product(raw, near_miss)
    assert near_miss_product[0][0] == target[0][0] and near_miss_product != target
    problem = SearchProblem(matrices=matrices, n=n, target=Matrix(target))
    for mode in (ORDERED_DISTINCT, ORDERED_WITH_REPETITION):
        result = exhaustive_search(problem, mode)
        assert solution in result.solutions and near_miss not in result.solutions
        assert (result.solutions, result.nodes_explored) == reference_search(problem, mode, None)


@pytest.mark.parametrize("n", [2, 3])
def test_search_tells_apart_matrices_sharing_row_and_column_zero(n):
    # a and b differ only off row 0 and column 0: with a first, a sequence
    # and its copy with b have the same column 0 at every prefix; with a
    # last, the same row 0 times the same prefix column.  Either way their
    # (0, 0) entries coincide and only the exact comparison separates them.
    a, b = Matrix([[2, 1], [1, 1]]), Matrix([[2, 1], [1, 3]])
    matrices = (SWAP, a, SHEAR, b)
    raw = [mat_rows(m) for m in matrices]
    for solution in ((1, 2, 0)[:n], (0, 2, 1)[-n:]):
        decoy = tuple(3 if i == 1 else i for i in solution)
        target = ordered_seq_product(raw, solution)
        decoy_product = ordered_seq_product(raw, decoy)
        assert decoy_product[0][0] == target[0][0] and decoy_product != target
        problem = SearchProblem(matrices=matrices, n=n, target=Matrix(target))
        for mode in (ORDERED_DISTINCT, ORDERED_WITH_REPETITION):
            result = exhaustive_search(problem, mode)
            assert solution in result.solutions and decoy not in result.solutions
            assert (result.solutions, result.nodes_explored) == reference_search(problem, mode, None)


def test_search_forms_full_products_only_on_corner_matches(monkeypatch):
    # the search reads column 0 of each prefix product, so the only
    # mat_mul it makes are the n-1 of each full product, formed for a
    # sequence whose (0, 0) entry matches the target's
    instance, bulletin, _ = dealt(8, r=8, k=12, n=4)
    raw = [mat_rows(m) for m in bulletin.matrices]
    corner = instance.secret.rows[0][0]
    matches = 0
    for prefix in permutations(range(12), 3):
        col = [row[0] for row in raw[prefix[0]]]
        for i in prefix[1:]:
            col = naive_matvec(raw[i], col)
        for last in set(range(12)) - set(prefix):
            matches += sum(x * y for x, y in zip(raw[last][0], col)) == corner
    calls = []
    original = algebra.mat_mul

    def counting_mat_mul(x, y):
        calls.append(1)
        return original(x, y)

    for module in (algebra, attack):
        if hasattr(module, "mat_mul"):
            monkeypatch.setattr(module, "mat_mul", counting_mat_mul)
    problem = SearchProblem(matrices=bulletin.matrices, n=4, target=instance.secret)
    result = exhaustive_search(problem, ORDERED_DISTINCT)
    assert instance.sigma in result.solutions and result.nodes_explored == 11880
    assert len(calls) <= 3 * matches, f"{len(calls)} mat_mul calls, {matches} corner-matching sequences"


def random_search_problem(rng):
    """A small problem with signed entries, sometimes wide or repeated matrices.

    The target is the product of a random distinct sequence, so it has a
    solution in both modes, or that product with one entry off the
    corner changed, so sequences may match its (0, 0) entry and still
    not be solutions.
    """
    n = rng.randint(1, 5)
    k = rng.randint(n, 5)
    r = rng.randint(1, 2 if n == 5 else 3)
    bound = 1 << rng.choice([1, 3, 40])
    raw = [[[rng.randrange(-bound + 1, bound) for _ in range(r)] for _ in range(r)] for _ in range(k)]
    for _ in range(rng.randint(0, 2)):
        raw[rng.randrange(k)] = raw[rng.randrange(k)]
    target = ordered_seq_product(raw, rng.sample(range(k), n))
    if r > 1 and rng.random() < 0.3:
        target[r - 1][r - 1] += 1
    return SearchProblem(tuple(map(Matrix, raw)), n, Matrix(target))


@pytest.mark.parametrize("seed", range(12))
def test_search_matches_reference_on_random_signed_problems(seed):
    rng = Random(seed)
    for _ in range(5):
        problem = random_search_problem(rng)
        for mode in (ORDERED_DISTINCT, ORDERED_WITH_REPETITION):
            for limit in (None, 1, 2, 3):
                result = exhaustive_search(problem, mode, limit=limit)
                assert (result.solutions, result.nodes_explored) == reference_search(problem, mode, limit)


@pytest.mark.parametrize("cap", [1, 10])
def test_search_with_a_capped_suffix_table_matches_reference(monkeypatch, cap):
    # a suffix table longer than the cap gives its first index to the prefix
    monkeypatch.setattr(attack, "_SUFFIX_ROWS", cap)
    rng = Random(100 + cap)
    for _ in range(8):
        problem = random_search_problem(rng)
        for mode in (ORDERED_DISTINCT, ORDERED_WITH_REPETITION):
            for limit in (None, 2):
                result = exhaustive_search(problem, mode, limit=limit)
                assert (result.solutions, result.nodes_explored) == reference_search(problem, mode, limit)


@pytest.mark.parametrize("cap", [2, 5, 30])
def test_search_walks_prefix_heads_past_the_table_cap(monkeypatch, cap):
    # a prefix whose tails would outnumber the cap walks its first
    # indices one at a time, so no column table holds more than the cap;
    # at cap 2 some tails are empty, at 5 and 30 they are one or two indices
    monkeypatch.setattr(attack, "_SUFFIX_ROWS", cap)
    sizes = []
    original = attack._column_table

    def recording(*args):
        table = original(*args)
        sizes.append(len(table))
        return table

    monkeypatch.setattr(attack, "_column_table", recording)
    rng = Random(200 + cap)
    walked = False
    for n, k in ((5, 6), (5, 5), (4, 7), (3, 6)):
        raw = [[[rng.randrange(-9, 10) for _ in range(2)] for _ in range(2)] for _ in range(k)]
        raw[1] = raw[4]
        target = Matrix(ordered_seq_product(raw, rng.sample(range(k), n)))
        problem = SearchProblem(tuple(map(Matrix, raw)), n, target)
        for mode in (ORDERED_DISTINCT, ORDERED_WITH_REPETITION):
            for limit in (None, 2):
                sizes.clear()
                result = exhaustive_search(problem, mode, limit=limit)
                assert (result.solutions, result.nodes_explored) == reference_search(problem, mode, limit)
                assert max(sizes) <= cap
                walked |= len(sizes) > 1
    assert walked


def test_search_ignores_corner_bytes_at_unaligned_offsets(monkeypatch):
    # r = 1 and n = 2, so every corner is a product of two of the scalars
    # and fits 2-byte slots (entries of 6 bits, offset 0x8000).  For the
    # prefix (2,) the suffixes 0 and 1 give the corners 637 and -2450,
    # packed side by side as 82 7d | 76 6e.  The target's corner -650 is
    # 7d 76, so its bytes straddle that slot boundary; the find there
    # names no sequence, and only the two real corner matches, (0, 1) and
    # (1, 0), have their products formed.
    matrices = tuple(Matrix([[x]]) for x in (-13, 50, -49, -22))
    problem = SearchProblem(matrices, 2, Matrix([[-650]]))
    calls = []
    original = attack.chain_product

    def counting_chain_product(factors):
        calls.append(1)
        return original(factors)

    monkeypatch.setattr(attack, "chain_product", counting_chain_product)
    for mode in (ORDERED_DISTINCT, ORDERED_WITH_REPETITION):
        calls.clear()
        result = exhaustive_search(problem, mode)
        assert result.solutions == ((0, 1), (1, 0))
        assert (result.solutions, result.nodes_explored) == reference_search(problem, mode, None)
        assert len(calls) == 2


def test_search_finds_an_aligned_match_right_after_an_unaligned_one():
    # r = 1 and n = 2 in 2-byte slots (offset 0x8000).  For the prefix (0,)
    # the suffixes 1 and 2 give the corners -128 and 128, packed side by
    # side as 7f 80 | 80 80.  The target's corner 128 is 80 80, so the first
    # find straddles that slot boundary, one byte before the solution's own
    # slot; the next find must start at that slot, not a slot past the hit.
    matrices = tuple(Matrix([[x]]) for x in (8, -16, 16))
    problem = SearchProblem(matrices, 2, Matrix([[128]]))
    assert attack._slot_size(1, algebra._entry_bound(matrices), 2, 128) == 2
    for mode in (ORDERED_DISTINCT, ORDERED_WITH_REPETITION):
        result = exhaustive_search(problem, mode)
        assert result.solutions == ((0, 2), (2, 0))
        assert (result.solutions, result.nodes_explored) == reference_search(problem, mode, None)


@pytest.mark.parametrize("n", [1, 2, 3])
def test_search_target_corner_beyond_every_product(n):
    # the slots are sized for the target's corner too: one wider than any
    # product of n public matrices matches no slot, and every sequence is
    # still tested
    rng = Random(n)
    matrices = tuple(Matrix([[rng.randrange(4) for _ in range(2)] for _ in range(2)]) for _ in range(4))
    for corner in (10**6, -(10**6), 1 << 200):
        problem = SearchProblem(matrices, n, Matrix([[corner, 0], [0, 1]]))
        for mode in (ORDERED_DISTINCT, ORDERED_WITH_REPETITION):
            result = exhaustive_search(problem, mode)
            assert (result.solutions, result.nodes_explored) == ((), count_search_space(4, n, mode))


@pytest.mark.parametrize("mode", [ORDERED_DISTINCT, ORDERED_WITH_REPETITION])
@pytest.mark.parametrize("n", [2, 3, 4])
def test_search_keeps_every_table_level_within_the_cap(monkeypatch, mode, n):
    # with the cap at k, n // 2 suffix indices would give the suffix table
    # k^2 or k(k - 1) rows; the search lowers h until its suffixes fit, and
    # walks prefix heads until each column table's tails fit as well
    monkeypatch.setattr(attack, "_SUFFIX_ROWS", 5)
    widths = []
    original = attack._levels

    def recording(vectors, factors, depth, distinct, size):
        table = original(vectors, factors, depth, distinct, size)
        widths.append(len(table[0]) // size)
        return table

    monkeypatch.setattr(attack, "_levels", recording)
    rng = Random(300 + n)
    raw = [[[rng.randrange(-9, 10) for _ in range(2)] for _ in range(2)] for _ in range(5)]
    problem = SearchProblem(tuple(map(Matrix, raw)), n, Matrix(ordered_seq_product(raw, range(n))))
    result = exhaustive_search(problem, mode)
    assert (result.solutions, result.nodes_explored) == reference_search(problem, mode, None)
    assert widths and max(widths) <= 5


@pytest.mark.parametrize("bits", [4, 8, 12, 40])
@pytest.mark.parametrize("r", [1, 2, 3])
@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_search_packs_corners_at_the_entry_bound(n, r, bits):
    # every entry is +-(2^bits - 1), so the products' entries, and their
    # corners, are as wide as matrices of this width allow, with either sign
    top = (1 << bits) - 1
    signs = ([[1] * r] * r, [[-1] * r] * r, [[(-1) ** (i + j) for j in range(r)] for i in range(r)])
    raw = [[[s * top for s in row] for row in pattern] for pattern in signs]
    raw.append(raw[0])
    matrices = tuple(map(Matrix, raw))
    for seq in ((0, 1, 2, 3)[:n], (1, 1, 1, 1)[:n], (3, 2, 1, 0)[-n:]):
        problem = SearchProblem(matrices, n, Matrix(ordered_seq_product(raw, seq)))
        for mode in (ORDERED_DISTINCT, ORDERED_WITH_REPETITION):
            result = exhaustive_search(problem, mode)
            assert (result.solutions, result.nodes_explored) == reference_search(problem, mode, None)
            if mode == ORDERED_WITH_REPETITION or len(set(seq)) == n:
                assert seq in result.solutions


def test_search_one_factor_among_fifty():
    rng = Random(50)
    raw = [[[rng.randrange(-300, 300) for _ in range(3)] for _ in range(3)] for _ in range(50)]
    raw[41] = raw[7]
    matrices = tuple(map(Matrix, raw))
    for index in (7, 0, 49):
        problem = SearchProblem(matrices, 1, matrices[index])
        for mode in (ORDERED_DISTINCT, ORDERED_WITH_REPETITION):
            for limit in (None, 1):
                result = exhaustive_search(problem, mode, limit=limit)
                assert (result.solutions, result.nodes_explored) == reference_search(problem, mode, limit)


def transpose(rows):
    return [list(col) for col in zip(*rows)]


def unpacked_level(level, size):
    """Each coordinate string of a ``_levels`` level as its list of signed slot values."""
    half = 1 << (8 * size - 1)
    return [[int.from_bytes(data[i:i + size], "big") - half for i in range(0, len(data), size)] for data in level]


def level_cases():
    rng = Random(18)
    top = (1 << 40) - 1

    def matrices(count, r, entry):
        return [[[entry() for _ in range(r)] for _ in range(r)] for _ in range(count)]

    return {
        # small signed entries, k > depth
        "signed": (matrices(5, 3, lambda: rng.randrange(-9, 10)), 3),
        # 40-bit entries of both signs, some at the entry bound
        "wide": (matrices(4, 2, lambda: rng.choice([top, -top, rng.randrange(-top, top)])), 3),
        # every entry at the bound: each slot of the deepest level is r^(depth-1) * E^depth
        "bound": ([[[top] * 3] * 3, [[-top] * 3] * 3, [[top] * 3] * 3], 3),
        # k = depth, so the distinct levels hold every permutation of all k indices
        "k_is_n": (matrices(4, 3, lambda: rng.randrange(-200, 200)), 4),
        # depth 1 is the vectors themselves
        "one_factor": (matrices(6, 2, lambda: rng.randrange(-5, 6)), 1),
    }


@pytest.mark.parametrize("distinct", [True, False])
@pytest.mark.parametrize("case", sorted(level_cases()))
def test_levels_match_per_sequence_mat_vecs(case, distinct):
    # the vector of key (i, *rest) is F_i times rest's, F the matrices
    # (prefix columns) or their transposes (suffix rows), so it is e_0
    # chained through F in the key's reversed order
    raw, depth = level_cases()[case]
    matrices = tuple(map(Matrix, raw))
    k, r = len(raw), len(raw[0])
    e0 = [1] + [0] * (r - 1)
    size = attack._slot_size(r, algebra._entry_bound(matrices), depth, 0)
    for factors in (raw, [transpose(m) for m in raw]):
        vectors = [[row[0] for row in f] for f in factors]
        for length in range(1, depth + 1):
            level = attack._levels(vectors, factors, length, distinct, size)
            keys = permutations(range(k), length) if distinct else product(range(k), repeat=length)
            want = [chain_vector([factors[i] for i in reversed(key)], e0) for key in keys]
            assert unpacked_level(level, size) == transpose(want)


@pytest.mark.parametrize("cap", [attack._SUFFIX_ROWS, 5])
@pytest.mark.parametrize("case", sorted(level_cases()))
def test_column_tables_match_per_prefix_mat_vecs(monkeypatch, case, cap):
    # every column a search builds is e_0 chained through its prefix's
    # matrices, the first index applied first; at cap 5 the prefixes walk
    # heads, whose own indices no tail holds in distinct mode
    monkeypatch.setattr(attack, "_SUFFIX_ROWS", cap)
    raw, _ = level_cases()[case]
    k, r = len(raw), len(raw[0])
    e0 = [1] + [0] * (r - 1)
    heads = []
    original = attack._column_table

    def checking(matrices, head, allowed, depth, distinct, size):
        table = original(matrices, head, allowed, depth, distinct, size)
        positions = range(len(allowed))
        tails = list(permutations(positions, depth) if distinct else product(positions, repeat=depth))
        assert len(table) == len(tails)
        for tail in tails:
            prefix = head + tuple(allowed[t] for t in tail)
            assert list(table[tail[::-1]]) == chain_vector([raw[i] for i in prefix], e0)
        heads.append(head)
        return table

    monkeypatch.setattr(attack, "_column_table", checking)
    matrices = tuple(map(Matrix, raw))
    for n in range(2, k + 1):
        problem = SearchProblem(matrices, n, Matrix(ordered_seq_product(raw, range(n))))
        for mode in (ORDERED_DISTINCT, ORDERED_WITH_REPETITION):
            assert tuple(range(n)) in exhaustive_search(problem, mode).solutions
    assert any(heads) == (cap == 5)


@pytest.mark.parametrize("mode", [ORDERED_DISTINCT, ORDERED_WITH_REPETITION])
@pytest.mark.parametrize("r,k,n", [(8, 12, 4), (3, 6, 6), (4, 7, 5), (3, 9, 1)])
def test_search_extends_each_table_level_once_per_matrix(monkeypatch, mode, r, k, n):
    # a table of depth t costs k * (t - 1) extensions, one ``_dots`` each,
    # however many sequences its levels hold; the prefix table's first
    # level is k more, one mat-vec of the head's column per matrix
    calls = []
    original = attack._dots

    def counting_dots(rows, column):
        calls.append(len(column))
        return original(rows, column)

    monkeypatch.setattr(attack, "_dots", counting_dots)
    rng = Random(r * k * n)
    raw = [[[rng.randrange(256) for _ in range(r)] for _ in range(r)] for _ in range(k)]
    problem = SearchProblem(tuple(map(Matrix, raw)), n, Matrix(ordered_seq_product(raw, range(n))))
    result = exhaustive_search(problem, mode)
    h = max(n // 2, 1)
    assert count_search_space(k, h, mode) <= attack._SUFFIX_ROWS
    assert count_search_space(k, max(n - h, 1), mode) <= attack._SUFFIX_ROWS
    d = n - h
    assert len(calls) == k * (h - 1) + k * d
    assert set(calls) <= {1, r}
    assert tuple(range(n)) in result.solutions


@pytest.mark.parametrize("limit", [0, -3])
def test_search_rejects_limit_below_one(limit):
    eye = Matrix.identity(2)
    problem = SearchProblem(matrices=(eye,) * 5, n=2, target=eye)
    with pytest.raises(ValueError, match="limit"):
        exhaustive_search(problem, ORDERED_DISTINCT, limit=limit)


def test_search_guardrail():
    eye = Matrix.identity(2)
    problem = SearchProblem(matrices=(eye,) * 20, n=10, target=eye)
    with pytest.raises(GuardrailExceeded) as exc:
        exhaustive_search(problem, ORDERED_DISTINCT)
    assert exc.value.space == count_search_space(20, 10, ORDERED_DISTINCT)
    assert exc.value.limit == GUARDRAIL_LIMIT


def test_search_rejects_multiset_mode():
    eye = Matrix.identity(2)
    problem = SearchProblem(matrices=(eye,), n=1, target=eye)
    with pytest.raises(ValueError):
        exhaustive_search(problem, MULTISET)


def test_search_problem_validation():
    eye = Matrix.identity(2)
    with pytest.raises(ValueError):
        SearchProblem(matrices=(eye,), n=2, target=eye)
    with pytest.raises(ValueError):
        SearchProblem(matrices=(eye,), n=1, target=Matrix.identity(3))


# ---------------------------------------------------------------------------
# ratio_analysis
# ---------------------------------------------------------------------------

def test_ratio_recovers_all_but_first_shadow():
    instance, bulletin, shares = dealt(11, r=5, k=6, n=4)
    for start in range(1, 5):
        result = simulate_run(bulletin, shares, start, Random(start))
        hits = ratio_analysis(result.transcript.eavesdropper_view, bulletin)
        assert len(hits) == 3
        walk_rest = [(start - 1 + j) % 4 + 1 for j in range(1, 4)]
        for hit, pos in zip(hits, walk_rest):
            assert hit.position == pos
            assert hit.matrix == instance.shadow(pos)
            assert hit.matrix_index == instance.sigma[pos - 1]


def test_ratio_two_party_single_hit():
    _, bulletin, shares = dealt(12, r=3, k=4, n=2)
    result = simulate_run(bulletin, shares, 1, Random(9))
    hits = ratio_analysis(result.transcript.eavesdropper_view, bulletin)
    assert len(hits) == 1


def test_ratio_identity_shadows():
    from matshare.algebra import BinaryVector
    from matshare.protocol import run_reconstruction
    from test_protocol import manual_setup

    eye = Matrix.identity(3)
    us = [BinaryVector([1, 1, 0]), BinaryVector([0, 1, 1])]
    bulletin, shares, _ = manual_setup([eye, eye], [0, 1], us)
    _, transcript = run_reconstruction(bulletin, shares, 1, Random(3))
    hits = ratio_analysis(transcript.eavesdropper_view, bulletin)
    assert len(hits) == 1
    assert hits[0].matrix == eye


def ratio_hits_with_first_reveal(instance, bulletin, shares, change):
    """ratio_analysis of an honest r=4 n=3 round whose first reveal is change(reveal)."""
    result = simulate_run(bulletin, shares, 1, Random(4))
    envelopes = list(result.transcript.envelopes)
    target = broadcast_matrices(envelopes)[0]
    envelopes[envelopes.index(target)] = replace(target, payload=change(target.payload))
    view = [e for e in envelopes if e.visibility == "public"]
    return ratio_analysis(view, bulletin)


def test_ratio_reports_gap_for_singular_reveal():
    zero = Matrix([[0] * 4 for _ in range(4)])
    hits = ratio_hits_with_first_reveal(*dealt(13), lambda reveal: zero)
    assert hits[0].matrix is None
    assert hits[0].matrix_index is None


def test_ratio_reports_gap_for_non_integral_quotient():
    # doubling the first reveal halves the next quotient: the pair stays
    # invertible, but shadow / 2 is not an integer matrix
    instance, bulletin, shares = dealt(13)
    hits = ratio_hits_with_first_reveal(
        instance, bulletin, shares, lambda reveal: Matrix([[2 * x for x in row] for row in reveal.rows])
    )
    assert [h.position for h in hits] == [2, 3]
    assert hits[0].matrix is None
    assert hits[0].matrix_index is None
    assert hits[1].matrix == instance.shadow(3)
    assert hits[1].matrix_index == instance.sigma[2]


def test_ratio_refuses_gaps_within_the_public_entry_bound(monkeypatch):
    # r=32: one entry of the fourth reveal plus one makes the two pairs
    # around it gaps.  Each solve is bounded by the public entry bound, so
    # a gap is refused after at most 2 solver primes; the other pairs still
    # name their shadows
    instance, bulletin, shares = dealt(4242, r=32, k=32, n=8)
    result = simulate_run(bulletin, shares, 3, Random(2))
    envelopes = list(result.transcript.envelopes)
    target = broadcast_matrices(envelopes)[3]
    rows = [list(row) for row in target.payload.rows]
    rows[5][7] += 1
    envelopes[envelopes.index(target)] = replace(target, payload=Matrix(rows))
    view = [e for e in envelopes if e.visibility == "public"]
    primes, solves = [], []
    eliminate, solve = algebra._eliminate_mod, attack.solve_integer

    def counting(rows, ncols, p):
        primes.append(p)
        return eliminate(rows, ncols, p)

    def counted_solve(a, rhs, limit):
        primes.clear()
        z = solve(a, rhs, limit)
        solves.append((z is not None, len(primes)))
        return z

    monkeypatch.setattr(algebra, "_eliminate_mod", counting)
    monkeypatch.setattr(attack, "solve_integer", counted_solve)
    hits = ratio_analysis(view, bulletin)
    assert [h.position for h in hits] == [4, 5, 6, 7, 8, 1, 2]
    assert [h.matrix is None for h in hits] == [False, False, True, True, False, False, False]
    for hit in hits:
        if hit.matrix is not None:
            assert hit.matrix == instance.shadow(hit.position)
            assert hit.matrix_index == instance.sigma[hit.position - 1]
        else:
            assert hit.matrix_index is None
    gaps = [used for found, used in solves if not found]
    assert len(gaps) == 2 and max(gaps) <= 2
