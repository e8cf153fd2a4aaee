"""Command-line front end and the JSON file formats of every artifact.

All big integers are serialized as decimal strings so no consumer can
lose precision; all files are UTF-8 JSON written canonically, making
identical inputs produce byte-identical outputs.  ``canonical_json``
writes the same bytes as ``json.dumps(obj, indent=2)`` plus a newline,
but through its own emitter, not the standard library's pure-Python
indenting encoder.  The file encoders hand it ``Matrix`` and ``Vector``
values, which it writes itself, each row of decimal strings in one
``str.join``.  Each file format has one encoder and one decoder, and the
decoder checks what it decodes: any wrong shape or entry type raises
ValueError, so a malformed workspace file is a usage error naming the
file.  A matrix is checked all rows at once, in C-level passes (r >= 1,
r rows of exactly r entries each, every entry exactly a str), before its
entries are read by one ``map(int, ...)``.

Exit codes: 0 success, 1 generation failure (the dealer found no
admissible instance within its retry budget), 2 forgery detected,
3 integrity failure, 4 guardrail refusal, 64 usage error.
"""

from __future__ import annotations

import argparse
import functools
import hashlib
import json
import os
import sys
from itertools import chain, repeat
from json.encoder import encode_basestring_ascii as _quote
from pathlib import Path
from random import Random
from typing import List, Optional, Tuple

from . import attack as attack_mod
from .algebra import BinaryVector, Matrix, Vector, sample_matrix
from .dealer import Bulletin, DealerParams, Instance, Share, generate_instance
from .errors import (
    GenerationFailure,
    GuardrailExceeded,
    IntegrityFailure,
    SingularMatrix,
)
from .protocol import CheaterSpec, freivalds_audit, simulate_run
from .transport import IndexPointer, Transcript, fresh_network, participant_name

EXIT_OK = 0
EXIT_GENERATION = 1
EXIT_FORGERY = 2
EXIT_INTEGRITY = 3
EXIT_GUARDRAIL = 4
EXIT_USAGE = 64

SEED_ENV_VAR = "MATSHARE_SEED"

#: a --cheat forgery's entries are uniform in [0, FORGED_ENTRY_BOUND)
FORGED_ENTRY_BOUND = 256


# ---------------------------------------------------------------------------
# codecs: each decoder checks what it decodes and raises only ValueError
# ---------------------------------------------------------------------------

def _fields(doc, *keys) -> list:
    """The values of the keys of a JSON object, in order."""
    if type(doc) is not dict or not doc.keys() >= set(keys):
        raise ValueError(f"expected an object with keys {', '.join(keys)}")
    return [doc[key] for key in keys]


def _entries(doc, length: Optional[int], kind: type, what: str) -> list:
    """doc, if it is a list of `length` values (any number when None) whose type is exactly kind.

    A bool is not an int here.  Anything else raises ValueError naming `what`.
    """
    if type(doc) is not list or length not in (None, len(doc)) or not {kind}.issuperset(map(type, doc)):
        count = "" if length is None else f"{length} "
        raise ValueError(f"{what} must be a list of {count}{kind.__name__} values")
    return doc


def matrix_from_json(rows, r: int) -> Matrix:
    """An r x r matrix from a list of r lists of r decimal strings.

    Raises ValueError for r < 1, any other shape, an entry that is not
    exactly a str, or a str that ``int`` cannot read.
    """
    if (
        type(rows) is not list
        or r < 1
        or len(rows) != r
        or not {list}.issuperset(map(type, rows))
        or not {r}.issuperset(map(len, rows))
        or not {str}.issuperset(map(type, chain.from_iterable(rows)))
    ):
        raise ValueError(f"a matrix must be a list of r lists of r str values, with r >= 1 (r = {r})")
    # r references to one iterator: zip takes its entries r at a time, one row each
    return Matrix._of(zip(*repeat(map(int, chain.from_iterable(rows)), r)))


def vector_from_json(entries, r: int) -> Vector:
    """An r-vector from r decimal strings."""
    return Vector(map(int, _entries(entries, r, str, "a vector")))


def bits_to_json(v: BinaryVector) -> list:
    return list(v.bits)


def bits_from_json(bits, r: int) -> BinaryVector:
    """A binary r-vector from r JSON integers, each 0 or 1."""
    return BinaryVector(_entries(bits, r, int, "a bit vector"))


def canonical_json(obj) -> str:
    """obj as the text ``json.dumps(obj, indent=2)`` writes, plus a newline.

    obj holds str, int, bool, None, list and dict values, dict keys being
    str, and ``Matrix`` and ``Vector`` values, each written as its rows or
    entries of decimal strings: the text ``json.dumps`` writes for
    ``[[str(x) for x in row] for row in m.rows]``.  Types are matched
    exactly, so anything else, a ``BinaryVector`` included (its file
    encoder writes bits), raises TypeError.
    """
    return _json_text(obj, "\n") + "\n"


def _decimals_text(values, newline: str) -> str:
    """The indented JSON text of a list of the ints' decimal strings, in one join."""
    inner = newline + "  "
    return f'[{inner}"' + ('",' + inner + '"').join(map(str, values)) + f'"{newline}]'


def _json_text(obj, newline: str) -> str:
    """The indented JSON text of obj, whose lines start with newline."""
    kind = type(obj)
    if kind is str:
        return _quote(obj)
    if kind is bool:
        return "true" if obj else "false"
    if kind is int:
        return int.__repr__(obj)
    if obj is None:
        return "null"
    inner = newline + "  "
    if kind is Matrix:
        return f"[{inner}{(',' + inner).join(map(_decimals_text, obj.rows, repeat(inner)))}{newline}]"
    if kind is Vector:
        return _decimals_text(obj.entries, newline)
    if kind is list:
        if not obj:
            return "[]"
        return f"[{inner}{(',' + inner).join(map(_json_text, obj, repeat(inner)))}{newline}]"
    if kind is dict:
        if not obj:
            return "{}"
        if not {str}.issuperset(map(type, obj)):
            raise TypeError("canonical_json encodes only str object keys")
        items = map("{}: {}".format, map(_quote, obj), map(_json_text, obj.values(), repeat(inner)))
        return f"{{{inner}{(',' + inner).join(items)}{newline}}}"
    raise TypeError(f"canonical_json cannot encode {kind.__name__}")


def matrix_digest(m: Matrix) -> str:
    return hashlib.sha256(canonical_json(m).encode("utf-8")).hexdigest()


# ---------------------------------------------------------------------------
# file formats
# ---------------------------------------------------------------------------

def bulletin_to_json(b: Bulletin) -> dict:
    return {
        "version": 1,
        "r": b.r,
        "k": b.k,
        "n": b.n,
        "matrices": list(b.matrices),
        "u_prime": list(b.u_prime),
    }


def bulletin_from_json(doc) -> Bulletin:
    """k r x r matrices and n r-vectors, all of decimal strings."""
    r, k, n, matrices, u_prime = _fields(doc, "r", "k", "n", "matrices", "u_prime")
    if not {int}.issuperset(map(type, (r, k, n))):
        raise ValueError("r, k and n must be integers")
    return Bulletin(
        r=r,
        k=k,
        n=n,
        matrices=tuple(matrix_from_json(m, r) for m in _entries(matrices, k, list, "matrices")),
        u_prime=tuple(vector_from_json(v, r) for v in _entries(u_prime, n, list, "u_prime")),
    )


def share_to_json(s: Share) -> dict:
    return {
        "participant": s.participant,
        "matrix_index": s.matrix_index,
        "ring": list(s.ring),
        "u": bits_to_json(s.u),
    }


def _check_pointer(index, ring, bulletin: Bulletin) -> None:
    """ValueError unless index is an int in [0, k) and ring is the list [1, ..., n] of the bulletin."""
    if type(index) is not int or not 0 <= index < bulletin.k:
        raise ValueError(f"matrix_index must be in [0, {bulletin.k})")
    if ring != list(range(1, bulletin.n + 1)) or not {int}.issuperset(map(type, ring)):
        raise ValueError(f"ring must be [1, ..., {bulletin.n}]")


def share_from_json(doc, j: int, bulletin: Bulletin) -> Share:
    """Participant j's share, its index and ring checked against the bulletin."""
    participant, index, ring, u = _fields(doc, "participant", "matrix_index", "ring", "u")
    if participant != j or type(participant) is not int:
        raise ValueError(f"participant must be {j}")
    _check_pointer(index, ring, bulletin)
    return Share(participant=j, matrix_index=index, ring=tuple(ring), u=bits_from_json(u, bulletin.r))


def instance_to_json(inst: Instance) -> dict:
    return {
        "sigma": list(inst.sigma),
        "secret": inst.secret,
    }


def _secret_from_json(doc, r: int) -> Matrix:
    """The r x r secret of an instance file; the rest of the file is not read."""
    return matrix_from_json(_fields(doc, "secret")[0], r)


def _pointer_to_json(p: IndexPointer) -> dict:
    return {"matrix_index": p.matrix_index, "ring": list(p.ring)}


def _pointer_from_json(doc, bulletin: Bulletin) -> IndexPointer:
    """A dealer's pointer, checked against the bulletin as a share's index and ring are."""
    index, ring = _fields(doc, "matrix_index", "ring")
    _check_pointer(index, ring, bulletin)
    return IndexPointer(index, ring)


def _verdict_from_json(doc, bulletin: Bulletin) -> bool:
    if type(doc) is not bool:
        raise ValueError("a verdict must be true or false")
    return doc


def _as_is(value):
    """A payload that canonical_json writes itself: a Matrix or a Vector."""
    return value


# the one payload table: exact payload type -> (transcript kind, encoder,
# decoder given the bulletin).  Looked up by type(payload), never by
# isinstance, since a BinaryVector is also a Vector.
_PAYLOADS = {
    Matrix: ("matrix", _as_is, lambda doc, b: matrix_from_json(doc, b.r)),
    Vector: ("vector", _as_is, lambda doc, b: vector_from_json(doc, b.r)),
    BinaryVector: ("binary_vector", bits_to_json, lambda doc, b: bits_from_json(doc, b.r)),
    bool: ("verdict", bool, _verdict_from_json),
    IndexPointer: ("index_pointer", _pointer_to_json, _pointer_from_json),
}
_DECODERS = {kind: decode for kind, _, decode in _PAYLOADS.values()}


def transcript_to_json(t: Transcript) -> dict:
    return {
        "events": [
            {
                "step": e.step,
                "from": e.sender,
                "to": e.recipient,
                "visibility": e.visibility,
                "kind": _PAYLOADS[type(e.payload)][0],
                "payload": _PAYLOADS[type(e.payload)][1](e.payload),
            }
            for e in t.envelopes
        ]
    }


def transcript_from_json(doc, bulletin: Bulletin) -> Transcript:
    """A run's transcript, every payload checked against the bulletin.

    Matrices and vectors must have the bulletin's r entries a side, and a
    pointer must name one of its k matrices and the ring of its n
    participants.  Each event is recorded through a network of the n
    participants, so a file holds only what a run can send (see
    ``Network.record``): the attack reads a participant's position from
    its name, and the eavesdropper's view keeps only public events.  An
    event's step must be its place in the file, so that encoding the
    transcript again writes the same steps.
    """
    net = fresh_network(bulletin.n)
    for i, event in enumerate(_entries(_fields(doc, "events")[0], None, dict, "events")):
        try:
            step, sender, recipient, visibility, kind, payload = _fields(
                event, "step", "from", "to", "visibility", "kind", "payload"
            )
            if not {str}.issuperset(map(type, (sender, recipient, visibility, kind))):
                raise ValueError("from, to, visibility and kind must be strings")
            if step != i or type(step) is not int:
                raise ValueError(f"step must be {i}, its place, not {step!r}")
            if kind not in _DECODERS:
                raise ValueError(f"unknown payload kind {kind!r}")
            net.record(sender, recipient, visibility, _DECODERS[kind](payload, bulletin))
        except ValueError as err:
            raise ValueError(f"event {i}: {err}") from None
    return net.transcript


def _write(path: Path, doc) -> None:
    path.write_text(canonical_json(doc), encoding="utf-8")


def _load(path: Path, decode, *args):
    """Read one workspace file and decode it; a malformed file is a ValueError naming it.

    Nesting too deep for the JSON parser counts as malformed too.  A file
    that cannot be read at all raises its OSError.
    """
    try:
        return decode(json.loads(path.read_text(encoding="utf-8")), *args)
    except (ValueError, RecursionError) as err:
        raise ValueError(f"{path}: {err}") from None


def load_workspace(workspace: Path) -> Tuple[Bulletin, List[Share]]:
    """Everything ``matshare run`` needs: bulletin and shares, never the instance.

    Every share is decoded against the bulletin's r, k and n, so a
    malformed workspace is a usage error, not a failure mid-run.
    """
    bulletin = _load(workspace / "bulletin.json", bulletin_from_json)
    shares = [
        _load(workspace / "shares" / f"{participant_name(j)}.json", share_from_json, j, bulletin)
        for j in range(1, bulletin.n + 1)
    ]
    return bulletin, shares


# ---------------------------------------------------------------------------
# commands
# ---------------------------------------------------------------------------

def cmd_deal(params: DealerParams, out: Path) -> int:
    instance, bulletin, shares = generate_instance(params)
    out.mkdir(parents=True, exist_ok=True)
    (out / "shares").mkdir(exist_ok=True)
    _write(out / "bulletin.json", bulletin_to_json(bulletin))
    _write(out / "instance.json", instance_to_json(instance))
    for share in shares:
        _write(out / "shares" / f"{participant_name(share.participant)}.json", share_to_json(share))
    print(
        f"dealt {params.k} matrices ({params.r}x{params.r}), "
        f"{params.n} shares -> {out}"
    )
    return EXIT_OK


def _parse_range(text: str) -> Tuple[int, int]:
    try:
        lo_text, hi_text = text.split(":", 1)
        lo, hi = int(lo_text), int(hi_text)
    except ValueError:
        raise ValueError(f"range must be 'LO:HI', got {text!r}")
    if lo > hi:
        raise ValueError(f"empty range: {text!r}")
    return lo, hi


def sample_kn(r: int, k_range: Tuple[int, int], n_range: Tuple[int, int], seed: int) -> Tuple[int, int]:
    """Draw k then n uniformly, clamping n to satisfy 2 <= n <= k and n < r."""
    rng = Random(seed)
    k = rng.randint(*k_range)
    n_lo = max(n_range[0], 2)
    n_hi = min(n_range[1], k, r - 1)
    if n_lo > n_hi:
        raise ValueError(
            f"no admissible n for k={k}, r={r} within n-range {n_range[0]}:{n_range[1]}"
        )
    return k, rng.randint(n_lo, n_hi)


def _parse_cheat(spec: str, r: int) -> CheaterSpec:
    try:
        pos_text, seed_text = spec.split(":", 1)
        position, forge_seed = int(pos_text), int(seed_text)
    except ValueError:
        raise ValueError(f"cheat spec must be 'position:forge-seed', got {spec!r}")
    forged = sample_matrix(r, FORGED_ENTRY_BOUND, Random(forge_seed))
    return CheaterSpec(position=position, forged=forged)


def cmd_run(workspace: Path, start: int, cheat: Optional[str], t: int, seed: int) -> int:
    bulletin, shares = load_workspace(workspace)
    if t < 1:
        raise ValueError("t must be >= 1")
    cheater = None if cheat is None else _parse_cheat(cheat, bulletin.r)
    # one generator for the round and then the audit, so the audit's vector
    # is not a replay of the draws that made the blinding matrix
    rng = Random(seed)
    # the protocol checks start and the cheater's position before it sends anything
    result = simulate_run(bulletin, shares, start, rng, cheater)
    _write(workspace / "transcript.json", transcript_to_json(result.transcript))

    if not result.verdict:
        print("FORGERY DETECTED at verification")
        return EXIT_FORGERY

    audit_ok = freivalds_audit(result.transcript, bulletin, t, rng)
    print(f"verification passed (start={start})")
    print(f"freivalds audit: {'ok' if audit_ok else 'FAILED'} (t={t})")
    if not audit_ok:
        return EXIT_INTEGRITY
    print(f"recovered secret sha256 {matrix_digest(result.recovered)}")
    return EXIT_OK


def cmd_attack(workspace: Path, mode: str, limit: Optional[int], count_only: bool, force: bool) -> int:
    if limit is not None and limit < 1:
        raise ValueError(f"limit must be >= 1, got {limit}")
    # the attack reads no share: an eavesdropper's copy has no shares/
    bulletin = _load(workspace / "bulletin.json", bulletin_from_json)

    k, n = bulletin.k, bulletin.n
    space = {
        "multiset": str(attack_mod.count_search_space(k, n, attack_mod.MULTISET)),
        "ordered_distinct": str(attack_mod.count_search_space(k, n, attack_mod.ORDERED_DISTINCT)),
        "ordered_rep": str(attack_mod.count_search_space(k, n, attack_mod.ORDERED_WITH_REPETITION)),
    }

    solutions: List[Tuple[int, ...]] = []
    if not count_only:
        # only the search reads the secret: an eavesdropper's workspace has no instance file
        target = _load(workspace / "instance.json", _secret_from_json, bulletin.r)
        problem = attack_mod.SearchProblem(matrices=bulletin.matrices, n=n, target=target)
        try:
            result = attack_mod.exhaustive_search(problem, mode, limit=limit, allow_large=force)
        except GuardrailExceeded as err:
            print(
                f"refusing exhaustive search: {mode} space has {err.space} sequences "
                f"(multiset cardinality {space['multiset']}), limit {err.limit}; "
                f"pass --force to override",
                file=sys.stderr,
            )
            return EXIT_GUARDRAIL
        solutions = list(result.solutions)
        print(
            f"explored {result.nodes_explored} sequences in {result.elapsed:.3f}s, "
            f"{len(solutions)} solution(s)"
        )

    ratio_hits = []
    transcript_path = workspace / "transcript.json"
    if transcript_path.exists():
        transcript = _load(transcript_path, transcript_from_json, bulletin)
        hits = attack_mod.ratio_analysis(transcript.eavesdropper_view, bulletin)
        ratio_hits = [
            {"position": h.position, "matrix_index": h.matrix_index} for h in hits
        ]
        named = sum(h.matrix_index is not None for h in hits)
        print(f"ratio analysis recovered {named} shadow(s) from the transcript")

    report = {
        "mode": mode,
        "space": space,
        "solutions": [list(s) for s in solutions],
        "ratio_hits": ratio_hits,
    }
    _write(workspace / "attack_report.json", report)
    return EXIT_OK


# ---------------------------------------------------------------------------
# argument parsing
# ---------------------------------------------------------------------------

class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_USAGE, f"{self.prog}: error: {message}\n")


def _default_seed() -> int:
    return int(os.environ.get(SEED_ENV_VAR, "0"))


@functools.cache
def _build_parser() -> _Parser:
    parser = _Parser(prog="matshare", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    deal = sub.add_parser("deal", help="generate an instance and write a workspace")
    deal.add_argument("--r", type=int, required=True, help="matrix dimension (must exceed n)")
    deal.add_argument("--k", type=int, default=None, help="size of the public matrix set")
    deal.add_argument("--n", type=int, default=None, help="number of participants")
    deal.add_argument(
        "--sample-kn",
        action="store_true",
        help="draw k and n uniformly from the ranges below instead of fixing them",
    )
    deal.add_argument("--k-range", default="4:12", metavar="LO:HI")
    deal.add_argument("--n-range", default="2:6", metavar="LO:HI")
    deal.add_argument("--bound", type=int, default=256, help="entries are uniform in [0, bound)")
    deal.add_argument("--seed", type=int, default=None)
    deal.add_argument("--out", type=Path, default=Path("."))

    run = sub.add_parser("run", help="run one verification + reconstruction round")
    run.add_argument("--workspace", type=Path, default=Path("."))
    run.add_argument("--start", type=int, default=1, help="ring position that starts the round")
    run.add_argument("--cheat", default=None, metavar="POSITION:FORGE-SEED")
    run.add_argument("--t", type=int, default=10, help="freivalds audit iterations")
    run.add_argument("--seed", type=int, default=None)

    atk = sub.add_parser("attack", help="brute-force the instance and analyse leakage")
    atk.add_argument("--workspace", type=Path, default=Path("."))
    atk.add_argument(
        "--mode",
        choices=[attack_mod.ORDERED_DISTINCT, attack_mod.ORDERED_WITH_REPETITION],
        default=attack_mod.ORDERED_DISTINCT,
    )
    atk.add_argument("--limit", type=int, default=None, help="stop after this many solutions")
    atk.add_argument("--count-only", action="store_true", help="write counts without enumerating")
    atk.add_argument("--force", action="store_true", help="ignore the desk-scale guardrail")

    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        if args.command == "deal":
            seed = args.seed if args.seed is not None else _default_seed()
            if args.sample_kn:
                if args.k is not None or args.n is not None:
                    raise ValueError("--sample-kn replaces --k/--n; do not pass both")
                k, n = sample_kn(args.r, _parse_range(args.k_range), _parse_range(args.n_range), seed)
                print(f"sampled k={k}, n={n}")
            else:
                if args.k is None or args.n is None:
                    raise ValueError("--k and --n are required unless --sample-kn is given")
                k, n = args.k, args.n
            params = DealerParams(r=args.r, k=k, n=n, entry_bound=args.bound, seed=seed)
            return cmd_deal(params, args.out)
        if args.command == "run":
            seed = args.seed if args.seed is not None else _default_seed()
            return cmd_run(args.workspace, args.start, args.cheat, args.t, seed)
        return cmd_attack(args.workspace, args.mode, args.limit, args.count_only, args.force)
    except (IntegrityFailure, SingularMatrix) as err:
        print(f"integrity failure: {err}", file=sys.stderr)
        return EXIT_INTEGRITY
    except GenerationFailure as err:
        print(f"generation failure: {err}", file=sys.stderr)
        return EXIT_GENERATION
    except (ValueError, OSError) as err:
        print(f"usage error: {err}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
