"""Committed mutation checks: each mutant of ``src/`` must fail the tests it names.

Run from the repository root, with pytest and hypothesis installed:

    python tests/mutants.py            # every mutant
    python tests/mutants.py NAME ...   # only the named mutants

The runner first runs every named test on the clean tree and requires
them all to pass.  Then it runs the mutants on ``os.cpu_count()``
workers.  For each mutant it copies ``src/`` to a temporary directory of
its own, replaces the mutant's old text, which must occur exactly once
in its file, with the new text, and runs the mutant's tests against that
copy; the mutant is killed when pytest reports a failed test.  Verdicts
are printed in table order.  An entry marked ``equivalent`` is not run,
because no test can tell it from the clean tree, but its old text must
still match, so a change that removes or rewrites that text fails here
as well.  The exit status is 1 when the clean run fails, a text is
stale or a mutant survives.  pytest does not collect this file: it is
not named ``test_*.py``.

A fast path added to ``src/`` should add its mutant here: a shortcut
that only saves time needs a test that counts what it saves, or an
``equivalent`` mark with the reason.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from pathlib import Path
from typing import Optional, Tuple

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

#: pytest's exit status when tests ran and at least one failed
TESTS_FAILED = 1

ALGEBRA = "matshare/algebra.py"
ATTACK = "matshare/attack.py"
PROTOCOL = "matshare/protocol.py"
CLI = "matshare/cli.py"
TRANSPORT = "matshare/transport.py"


@dataclass(frozen=True)
class Mutant:
    name: str
    file: str  # relative to src/
    old: str
    new: str
    tests: Tuple[str, ...] = ()
    equivalent: str = ""  # why no test can tell the mutant apart, if none can


def _algebra(name):
    return f"tests/test_algebra.py::{name}"


def _protocol(name):
    return f"tests/test_protocol.py::{name}"


def _attack(name):
    return f"tests/test_attack.py::{name}"


def _acceptance(name):
    return f"tests/test_acceptance.py::{name}"


def _cli(name):
    return f"tests/test_cli.py::{name}"


def _transport(name):
    return f"tests/test_transport.py::{name}"


MUTANTS = (
    # -- the mod-p elimination kernel ---------------------------------------
    Mutant(
        "fold-plan-missing-its-last-fold",
        ALGEBRA,
        "    return tuple(folds), top, budget\n",
        "    return tuple(folds[:-1]), top, budget\n",
        (
            _algebra("test_solver_primes_fold_three_times_for_a_budget_of_16"),
            _algebra("test_elimination_stays_within_the_word_at_the_fold_bound"),
        ),
    ),
    Mutant(
        "fold-budget-one-too-high",
        ALGEBRA,
        "    budget = (_WORD - top) // (p * top)\n",
        "    budget = (_WORD - top) // (p * top) + 1\n",
        (_algebra("test_elimination_renormalises_at_the_word_budget[True]"),),
    ),
    Mutant(
        "pivot-row-left-unfolded-after-scaling",
        ALGEBRA,
        "pivot = fold(pow(f, -1, p) * fold(w[col] & (1 << shift) - 1))",
        "pivot = pow(f, -1, p) * fold(w[col] & (1 << shift) - 1)",
        (_algebra("test_elimination_renormalises_at_the_word_budget[True]"),),
    ),
    Mutant(
        "pivot-residue-read-one-slot-low",
        ALGEBRA,
        "map(rshift, w, repeat(shift))",
        "map(rshift, w, repeat(shift - 64))",
        (_algebra("test_elimination_renormalises_at_the_word_budget[True]"),),
    ),
    Mutant(
        "pivot-row-not-masked-below-its-pivot-slot",
        ALGEBRA,
        "fold(w[col] & (1 << shift) - 1)",
        "fold(w[col])",
        (_algebra("test_pivot_rows_are_masked_below_their_pivot_slot[True]"),),
    ),
    Mutant(
        "invertibility-without-its-determinant-fallback",
        ALGEBRA,
        "is not None or determinant(a) != 0",
        "is not None",
        (_algebra("test_is_invertible_trivials"),),
    ),
    Mutant(
        "elimination-pivots-on-a-row-already-used",
        ALGEBRA,
        "        k = col\n",
        "        k = 0\n",
        (_algebra("test_packed_elimination_matches_schoolbook"),),
    ),
    Mutant(
        "batched-pack-takes-the-rows-in-reverse-order",
        ALGEBRA,
        'for i in range(len(data), 0, -step)]',
        'for i in range(step, len(data) + 1, step)]',
        (_algebra("test_word_codec_keeps_rows_and_slots_in_order[4-6]"),),
    ),
    # -- balanced mixed-radix digits and the packed lift --------------------
    Mutant(
        "lift-takes-the-raw-words-unfolded",
        ALGEBRA,
        "        x = fold(t)\n",
        "        x = t\n",
        (_algebra("test_lift_reads_the_balanced_residue_at_its_extremes[1]"),),
    ),
    Mutant(
        "garner-step-left-unfolded",
        ALGEBRA,
        "x = fold((x + over - d) * inverses[q])",
        "x = (x + over - d) * inverses[q]",
        (_algebra("test_lift_reads_the_balanced_residue_at_its_extremes[2]"),),
    ),
    Mutant(
        "lift-balances-at-one-below-half-p",
        ALGEBRA,
        "    half = ones * ((1 << 63) - 1 - p // 2)\n",
        "    half = ones * ((1 << 63) - p // 2)\n",
        (_algebra("test_lift_reads_the_balanced_residue_at_its_extremes[1]"),),
    ),
    Mutant(
        "lift-keeps-p-in-slots-above-half-p",
        ALGEBRA,
        "        return x + top - (x + half >> 63 & ones) * p\n",
        "        return x + top\n",
        (_algebra("test_lift_reads_the_balanced_residue_at_its_extremes[1]"),),
    ),
    Mutant(
        "lift-pair-combined-at-the-wrong-place-value",
        ALGEBRA,
        "word = low + q * (high[0][1] - top)",
        "word = low + high[0][0] * (high[0][1] - top)",
        (_algebra("test_lift_reads_the_balanced_residue_at_its_extremes[2]"),),
    ),
    Mutant(
        "lift-pairs-joined-by-one-prime",
        ALGEBRA,
        "map((q * high[0][0]).__mul__, z)",
        "map(q.__mul__, z)",
        (_algebra("test_lift_reads_the_balanced_residue_at_its_extremes[3]"),),
    ),
    # -- packing: one slot codec for mat_mul and the attack -----------------
    Mutant(
        "slot-codec-offset-a-quarter-slot",
        ALGEBRA,
        "    half = 1 << (8 * size - 1)\n    return b\"\".join(",
        "    half = 1 << (8 * size - 2)\n    return b\"\".join(",
        (
            _algebra("test_mat_mul_with_all_zero_factors[1]"),
            _attack("test_levels_match_per_sequence_mat_vecs"),
        ),
    ),
    Mutant(
        "re-pad-without-the-offset-correction",
        ALGEBRA,
        "    offset = _offset(have, size, r)\n",
        "    offset = _offset(size, size, r)\n",
        (_algebra("test_chained_products_reuse_their_slots_exactly"),),
    ),
    # -- the bounded solver -------------------------------------------------
    Mutant(
        "solver-without-its-exact-certificate",
        ALGEBRA,
        "            if mat_mul(quotient, a) == rhs:\n",
        "            if True:\n",
        (_algebra("test_solve_integer_refuses_a_wrong_lift_within_the_limit"),),
    ),
    Mutant(
        "solver-takes-an-unlucky-prime-for-singular",
        ALGEBRA,
        "            if not is_invertible(a):\n",
        "            if True:\n",
        (_algebra("test_solve_integer_skips_primes_dividing_the_determinant"),),
    ),
    Mutant(
        "solve-stops-once-the-modulus-passes-the-limit",
        ALGEBRA,
        "        if modulus > 2 * limit:\n",
        "        if modulus > limit:\n",
        (_algebra("test_bounded_solve_finds_z_at_the_limit_and_refuses_limit_plus_one[536870912]"),),
    ),
    Mutant(
        "certified-z-not-checked-against-the-limit",
        ALGEBRA,
        "            if top > limit:\n                return None\n",
        "",
        (_algebra("test_bounded_solve_finds_z_at_the_limit_and_refuses_limit_plus_one[7]"),),
    ),
    Mutant(
        "lift-floor-one-bit-too-high",
        ALGEBRA,
        "    floor = _width(rhs) - _width(a) - r.bit_length()\n",
        "    floor = _width(rhs) - _width(a) - r.bit_length() + 1\n",
        (_algebra("test_solve_runs_the_fewest_primes"),),
    ),
    # -- the Freivalds screen and the audit ---------------------------------
    Mutant(
        "audit-vector-of-bits-not-t-bit-entries",
        ALGEBRA,
        "getrandbits, repeat(t, r)",
        "getrandbits, repeat(1, r)",
        (_acceptance("test_criterion_4_freivalds_bound"),),
    ),
    Mutant(
        "chain-screen-checks-only-the-first-pair",
        ALGEBRA,
        "    for nxt in matrices[1:]:\n",
        "    for nxt in matrices[1:2]:\n",
        (_protocol("test_audit_rejects_unit_perturbations_at_every_wide_reveal"),),
    ),
    Mutant(
        "chain-screen-prev-image-never-advances",
        ALGEBRA,
        "        prev_u = nxt_u\n",
        "",
        (_protocol("test_audit_accepts_honest_transcript"),),
    ),
    Mutant(
        "screen-checks-row-0-exactly-and-trusts-the-rest",
        ALGEBRA,
        "all(map(eq, _dots(m.rows, prev_u), nxt_u))",
        "all(map(eq, _dots(m.rows[:1], prev_u), nxt_u))",
        (_acceptance("test_criterion_4_freivalds_bound"),),
    ),
    Mutant(
        "audit-ignores-the-handback",
        PROTOCOL,
        "    if handbacks and reveals and handbacks[-1].payload != reveals[-1]:\n",
        "    if False:\n",
        (_protocol("test_audit_rejects_forged_handback"),),
    ),
    Mutant(
        "audit-draws-from-a-fresh-random-seed-again",
        CLI,
        "freivalds_audit(result.transcript, bulletin, t, rng)",
        "freivalds_audit(result.transcript, bulletin, t, seed)",
        (_cli("test_run_audit_vector_does_not_replay_the_blinding_draws"),),
    ),
    # -- recovery and the ratio analysis ------------------------------------
    Mutant(
        "recovery-returns-q-times-p",
        PROTOCOL,
        "    return mat_mul(p, q)\n",
        "    return mat_mul(q, p)\n",
        (_acceptance("test_criterion_1_round_trip_correctness"),),
    ),
    Mutant(
        "ratio-solve-bounded-far-beyond-the-public-entries",
        ATTACK,
        "solve_integer(prev.payload, nxt.payload, bound)",
        "solve_integer(prev.payload, nxt.payload, bound ** prev.payload.dim)",
        (_attack("test_ratio_refuses_gaps_within_the_public_entry_bound"),),
    ),
    # -- the corner search --------------------------------------------------
    Mutant(
        "search-takes-unaligned-corner-bytes-for-a-slot",
        ATTACK,
        "                    not skew\n                    and (not distinct",
        "                    (not distinct",
        (_attack("test_search_ignores_corner_bytes_at_unaligned_offsets"),),
    ),
    Mutant(
        "distinct-search-keeps-suffixes-sharing-a-prefix-index",
        ATTACK,
        "                    and (not distinct or fresh(suffixes[slot]))\n",
        "",
        (_attack("test_search_respects_limit"),),
    ),
    Mutant(
        "column-table-read-by-the-unreversed-tail",
        ATTACK,
        "columns[tail[::-1]]",
        "columns[tail]",
        (_attack("test_search_finds_dealer_sigma"),),
    ),
    Mutant(
        "distinct-tested-count-stops-before-the-solution",
        ATTACK,
        "sum(map(fresh, suffixes[: slot + 1]))",
        "sum(map(fresh, suffixes[:slot]))",
        (_attack("test_search_respects_limit"),),
    ),
    Mutant(
        "rep-tested-count-stops-before-the-solution",
        ATTACK,
        " if distinct else slot + 1)",
        " if distinct else slot)",
        (_attack("test_search_matches_reference_enumeration[ordered-rep-2-1]"),),
    ),
    Mutant(
        "column-table-first-level-ignores-the-head-column",
        ATTACK,
        "level = _levels([_dots(rows, col) for rows in factors]",
        "level = _levels([_dots(rows, (1,)) for rows in factors]",
        (_attack("test_column_tables_match_per_prefix_mat_vecs[signed-5]"),),
    ),
    Mutant(
        "distinct-level-keeps-repeated-indices",
        ATTACK,
        "            level = _drop_slots(level, list(compress(count(), map(contains, keys * k, firsts))), size)\n",
        "            pass\n",
        (_attack("test_levels_match_per_sequence_mat_vecs[signed-True]"),),
    ),
    Mutant(
        "distinct-prefix-counts-every-suffix",
        ATTACK,
        "    per_prefix = math.perm(k - d, h) if distinct else len(suffixes)\n",
        "    per_prefix = len(suffixes)\n",
        (_attack("test_search_matches_reference_enumeration[ordered-distinct-2-2]"),),
    ),
    Mutant(
        "distinct-tails-drawn-from-every-index",
        ATTACK,
        "[i for i in range(k) if i not in head] if distinct and head else range(k)",
        "range(k)",
        (_attack("test_search_walks_prefix_heads_past_the_table_cap[5]"),),
    ),
    Mutant(
        "prefix-tables-allowed-twice-the-cap",
        ATTACK,
        "    while e < d and (math.perm(k - e, d - e) if distinct else k ** (d - e)) > _SUFFIX_ROWS:\n",
        "    while e < d and (math.perm(k - e, d - e) if distinct else k ** (d - e)) > 2 * _SUFFIX_ROWS:\n",
        (_attack("test_search_walks_prefix_heads_past_the_table_cap[2]"),),
    ),
    Mutant(
        "column-words-sized-for-one-factor-fewer",
        ATTACK,
        "    width = 8 * (_product_bound(r, top, d).bit_length() // 64 + 1)\n",
        "    width = 8 * (_product_bound(r, top, d - 1).bit_length() // 64 + 1)\n",
        (_attack("test_search_packs_corners_at_the_entry_bound[4-3-40]"),),
    ),
    Mutant(
        "corner-product-offset-by-half-its-slots",
        ATTACK,
        "sum(map(mul, columns[tail[::-1]], packed), offset)",
        "sum(map(mul, columns[tail[::-1]], packed), offset // 2)",
        (_attack("test_search_finds_dealer_sigma"),),
    ),
    Mutant(
        "corner-match-taken-for-a-solution",
        ATTACK,
        "\n                    and chain_product(matrices[i] for i in seq) == target",
        "",
        (_attack("test_search_rejects_corner_match_that_is_not_a_solution[1]"),),
    ),
    Mutant(
        "next-find-skips-a-slot-past-an-unaligned-hit",
        ATTACK,
        "pos = found.find(key, (slot + 1) * size)",
        "pos = found.find(key, pos + size)",
        (_attack("test_search_finds_an_aligned_match_right_after_an_unaligned_one"),),
    ),
    Mutant(
        "slots-sized-without-the-target-corner",
        ATTACK,
        "max(_product_bound(r, top, n).bit_length(), abs(corner).bit_length()) // 8 + 1",
        "_product_bound(r, top, n).bit_length() // 8 + 1",
        (_attack("test_search_target_corner_beyond_every_product[1]"),),
    ),
    Mutant(
        "suffix-table-not-lowered-to-the-cap",
        ATTACK,
        "    while h > 1 and count_search_space(k, h, mode) > _SUFFIX_ROWS:\n        h -= 1\n",
        "",
        (_attack("test_search_keeps_every_table_level_within_the_cap[4-ordered-distinct]"),),
    ),
    # -- the matrix file codec ----------------------------------------------
    Mutant(
        "matrix-decoder-without-its-per-row-length-check",
        CLI,
        "        or not {r}.issuperset(map(len, rows))\n",
        "",
        (_cli("test_malformed_matrix_is_usage_error_naming_the_file[ragged rows]"),),
    ),
    Mutant(
        "matrix-decoder-without-r-at-least-1",
        CLI,
        "        or r < 1\n",
        "",
        (_cli("test_malformed_matrix_is_usage_error_naming_the_file[r of 0]"),),
    ),
    Mutant(
        "matrix-emitter-indents-entries-at-the-row-depth",
        CLI,
        "map(_decimals_text, obj.rows, repeat(inner))",
        "map(_decimals_text, obj.rows, repeat(newline))",
        (_cli("test_canonical_json_writes_matrices_as_json_dumps_writes_their_decimals"),),
    ),
    # -- the envelope rule and the transcript decoder -----------------------
    Mutant(
        "network-takes-broadcast-for-a-sender",
        TRANSPORT,
        "        self._members = {DEALER, *participants}\n",
        "        self._members = {DEALER, BROADCAST, *participants}\n",
        (_transport("test_broadcast_is_no_sender"),),
    ),
    Mutant(
        "network-lets-the-dealer-broadcast",
        TRANSPORT,
        "        if recipient == BROADCAST and sender == DEALER:\n",
        "        if False:\n",
        (_transport("test_dealer_broadcasts_nothing"),),
    ),
    Mutant(
        "decoder-ignores-the-step",
        CLI,
        "            if step != i or type(step) is not int:\n",
        "            if type(step) is not int:\n",
        (_cli("test_transcript_step_other_than_its_place_is_usage_error[two steps swapped]"),),
    ),
    Mutant(
        "transcript-pointer-left-unchecked",
        CLI,
        "    _check_pointer(index, ring, bulletin)\n    return IndexPointer(index, ring)\n",
        "    return IndexPointer(index, ring)\n",
        (_cli("test_transcript_pointer_outside_the_bulletin_is_usage_error[index k]"),),
    ),
    Mutant(
        "participant-position-reads-any-decimal",
        TRANSPORT,
        " or participant_name(int(digits)) != name",
        "",
        (_transport("test_participant_position_refuses_names_participant_name_never_writes[P03]"),),
    ),
)


def _pytest(tests, src: Path) -> Optional[int]:
    """pytest's exit status for the tests run against the package in `src`, or None after 300 s."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [str(src), os.environ.get("PYTHONPATH")])))
    cmd = [sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider", *tests]
    try:
        done = subprocess.run(
            cmd, cwd=ROOT, env=env, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL, timeout=300
        )
    except subprocess.TimeoutExpired:
        return None
    return done.returncode


def _mutated(mutant: Mutant, into: Path) -> bool:
    """Copy src/ into `into` with the mutant applied; False if its old text does not match once."""
    shutil.copytree(SRC, into, ignore=shutil.ignore_patterns("__pycache__"))
    path = into / mutant.file
    text = path.read_text()
    if text.count(mutant.old) != 1:
        return False
    path.write_text(text.replace(mutant.old, mutant.new))
    return True


def _verdict(mutant: Mutant) -> Tuple[bool, str]:
    """(whether the mutant is accounted for, what happened to it)."""
    with tempfile.TemporaryDirectory(prefix="mutant-") as tmp:
        src = Path(tmp) / "src"
        if not _mutated(mutant, src):
            return False, "STALE: its old text does not occur exactly once"
        if mutant.equivalent:
            return True, f"equivalent: {mutant.equivalent}"
        if not mutant.tests:
            return False, "NAMES NO TEST"
        status = _pytest(mutant.tests, src)
    if status == TESTS_FAILED:
        return True, "killed"
    # a hang is not a kill: name a test that fails fast
    return False, "TIMED OUT" if status is None else f"SURVIVED (pytest exit {status})"


def main(argv) -> int:
    unknown = set(argv) - {m.name for m in MUTANTS}
    if unknown:
        print(f"unknown mutant(s): {', '.join(sorted(unknown))}")
        return 2
    chosen = [m for m in MUTANTS if not argv or m.name in argv]
    started = time.perf_counter()
    tests = list(dict.fromkeys(t for m in chosen if not m.equivalent for t in m.tests))
    if tests and _pytest(tests, SRC) != 0:
        print(f"the named tests do not all pass on the clean tree: {' '.join(tests)}")
        return 1
    bad = 0
    # each worker thread waits on its own pytest process and its own copy of src/
    with ThreadPoolExecutor(max_workers=os.cpu_count() or 1) as pool:
        for mutant, (ok, verdict) in zip(chosen, pool.map(_verdict, chosen)):
            bad += not ok
            print(f"{mutant.name}: {verdict}", flush=True)
    print(f"{len(chosen)} mutant(s), {bad} not killed, in {time.perf_counter() - started:.1f} s")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
