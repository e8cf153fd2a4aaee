"""Command-line front end and the JSON file formats of every artifact.

All big integers are serialized as decimal strings so no consumer can
lose precision; all files are UTF-8 JSON written canonically, making
identical inputs produce byte-identical outputs.

Exit codes: 0 success, 2 forgery detected, 3 integrity failure,
4 guardrail refusal, 64 usage error.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import sys
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
from .transport import Envelope, IndexPointer, Transcript, payload_kind

EXIT_OK = 0
EXIT_FORGERY = 2
EXIT_INTEGRITY = 3
EXIT_GUARDRAIL = 4
EXIT_USAGE = 64

SEED_ENV_VAR = "MATSHARE_SEED"


# ---------------------------------------------------------------------------
# matrix / vector codecs
# ---------------------------------------------------------------------------

def matrix_to_json(m: Matrix) -> list:
    return [list(map(str, row)) for row in m.rows]


def matrix_from_json(rows: list) -> Matrix:
    return Matrix([[int(x) for x in row] for row in rows])


def vector_to_json(v: Vector) -> list:
    return list(map(str, v.entries))


def vector_from_json(entries: list) -> Vector:
    return Vector([int(x) for x in entries])


def canonical_json(obj) -> str:
    return json.dumps(obj, indent=2) + "\n"


def matrix_digest(m: Matrix) -> str:
    return hashlib.sha256(canonical_json(matrix_to_json(m)).encode("utf-8")).hexdigest()


# ---------------------------------------------------------------------------
# file formats
# ---------------------------------------------------------------------------

def bulletin_to_json(b: Bulletin) -> dict:
    return {
        "version": 1,
        "r": b.r,
        "k": b.k,
        "n": b.n,
        "matrices": [matrix_to_json(m) for m in b.matrices],
        "u_prime": [vector_to_json(v) for v in b.u_prime],
    }


def bulletin_from_json(doc: dict) -> Bulletin:
    return Bulletin(
        r=doc["r"],
        k=doc["k"],
        n=doc["n"],
        matrices=tuple(matrix_from_json(m) for m in doc["matrices"]),
        u_prime=tuple(vector_from_json(v) for v in doc["u_prime"]),
    )


def share_to_json(s: Share) -> dict:
    return {
        "participant": s.participant,
        "matrix_index": s.matrix_index,
        "ring": list(s.ring),
        "u": list(s.u.bits),
    }


def share_from_json(doc: dict) -> Share:
    return Share(
        participant=doc["participant"],
        matrix_index=doc["matrix_index"],
        ring=tuple(doc["ring"]),
        u=BinaryVector(doc["u"]),
    )


def instance_to_json(inst: Instance) -> dict:
    return {
        "sigma": list(inst.sigma),
        "secret": matrix_to_json(inst.secret),
    }


def _payload_to_json(payload):
    kind = payload_kind(payload)
    if kind == "matrix":
        return matrix_to_json(payload)
    if kind == "vector":
        return vector_to_json(payload)
    if kind == "binary_vector":
        return list(payload.bits)
    if kind == "verdict":
        return payload
    return {"matrix_index": payload.matrix_index, "ring": list(payload.ring)}


def _payload_from_json(kind: str, doc):
    if kind == "matrix":
        return matrix_from_json(doc)
    if kind == "vector":
        return vector_from_json(doc)
    if kind == "binary_vector":
        return BinaryVector(doc)
    if kind == "verdict":
        return bool(doc)
    if kind == "index_pointer":
        return IndexPointer(doc["matrix_index"], tuple(doc["ring"]))
    raise ValueError(f"unknown payload kind: {kind!r}")


def transcript_to_json(t: Transcript) -> dict:
    return {
        "events": [
            {
                "step": e.step,
                "from": e.sender,
                "to": e.recipient,
                "visibility": e.visibility,
                "kind": e.kind,
                "payload": _payload_to_json(e.payload),
            }
            for e in t.envelopes
        ]
    }


def transcript_from_json(doc: dict) -> Transcript:
    envelopes = [
        Envelope(
            step=ev["step"],
            sender=ev["from"],
            recipient=ev["to"],
            visibility=ev["visibility"],
            payload=_payload_from_json(ev["kind"], ev["payload"]),
        )
        for ev in doc["events"]
    ]
    return Transcript(envelopes=envelopes)


def _write(path: Path, doc) -> None:
    path.write_text(canonical_json(doc), encoding="utf-8")


def _read(path: Path):
    if not path.exists():
        raise ValueError(f"missing file: {path}")
    return json.loads(path.read_text(encoding="utf-8"))


def _field(doc, key: str, path: Path):
    if not isinstance(doc, dict) or key not in doc:
        raise ValueError(f"{path}: missing key {key!r}")
    return doc[key]


def _require(ok: bool, path: Path, what: str) -> None:
    if not ok:
        raise ValueError(f"{path}: {what}")


def _is_int(x) -> bool:
    return isinstance(x, int) and not isinstance(x, bool)


def _is_decimals(value, length: int) -> bool:
    """True iff value is a list of `length` strings; int() rejects non-decimal ones."""
    return isinstance(value, list) and len(value) == length and all(isinstance(x, str) for x in value)


def _is_square(value, r: int) -> bool:
    return isinstance(value, list) and len(value) == r and all(_is_decimals(row, r) for row in value)


def _is_bits(value, r: int) -> bool:
    return isinstance(value, list) and len(value) == r and all(_is_int(b) and b in (0, 1) for b in value)


# what each transcript payload kind must look like, given the bulletin's r
_PAYLOAD_SHAPES = {
    "matrix": _is_square,
    "vector": _is_decimals,
    "binary_vector": _is_bits,
    "verdict": lambda doc, r: isinstance(doc, bool),
    "index_pointer": lambda doc, r: isinstance(doc, dict)
    and _is_int(doc.get("matrix_index"))
    and isinstance(doc.get("ring"), list),
}


def load_workspace(workspace: Path) -> Tuple[Bulletin, List[Share]]:
    """Everything a protocol run needs: bulletin and shares, never the instance.

    Every file is checked against the bulletin's r, k and n first, so a
    malformed workspace is a usage error, not a failure mid-run.
    """
    path = workspace / "bulletin.json"
    doc = _read(path)
    r, k, n = (_field(doc, key, path) for key in ("r", "k", "n"))
    _require(all(map(_is_int, (r, k, n))), path, "r, k and n must be integers")
    matrices, u_prime = _field(doc, "matrices", path), _field(doc, "u_prime", path)
    _require(
        isinstance(matrices, list) and len(matrices) == k and all(_is_square(m, r) for m in matrices),
        path,
        f"matrices must be {k} {r}x{r} matrices of decimal strings",
    )
    _require(
        isinstance(u_prime, list) and len(u_prime) == n and all(_is_decimals(v, r) for v in u_prime),
        path,
        f"u_prime must be {n} vectors of {r} decimal strings",
    )
    bulletin = bulletin_from_json(doc)
    shares = []
    for j in range(1, n + 1):
        path = workspace / "shares" / f"P{j}.json"
        doc = _read(path)
        participant, index, ring, u = (
            _field(doc, key, path) for key in ("participant", "matrix_index", "ring", "u")
        )
        _require(_is_int(participant) and participant == j, path, f"participant must be {j}")
        _require(_is_int(index) and 0 <= index < k, path, f"matrix_index must be in [0, {k})")
        _require(ring == list(range(1, n + 1)), path, f"ring must be [1, ..., {n}]")
        _require(_is_bits(u, r), path, f"u must be {r} bits")
        shares.append(share_from_json(doc))
    return bulletin, shares


def load_transcript(path: Path, r: int) -> Transcript:
    """A run's transcript, every event checked against the bulletin's r first."""
    doc = _read(path)
    events = _field(doc, "events", path)
    _require(isinstance(events, list), path, "events must be a list")
    for i, event in enumerate(events):
        step, sender, recipient, visibility, kind, payload = (
            _field(event, key, path) for key in ("step", "from", "to", "visibility", "kind", "payload")
        )
        _require(
            _is_int(step) and all(isinstance(x, str) for x in (sender, recipient, visibility, kind)),
            path,
            f"event {i}: step must be an integer and from, to, visibility and kind strings",
        )
        shape = _PAYLOAD_SHAPES.get(kind)
        _require(shape is not None and shape(payload, r), path, f"event {i}: malformed {kind!r} payload")
    return transcript_from_json(doc)


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
        _write(out / "shares" / f"P{share.participant}.json", share_to_json(share))
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


def _parse_cheat(spec: str, r: int, entry_bound: int) -> CheaterSpec:
    try:
        pos_text, seed_text = spec.split(":", 1)
        position, forge_seed = int(pos_text), int(seed_text)
    except ValueError:
        raise ValueError(f"cheat spec must be 'position:forge-seed', got {spec!r}")
    forged = sample_matrix(r, entry_bound, Random(forge_seed))
    return CheaterSpec(position=position, forged=forged)


def cmd_run(workspace: Path, start: int, cheat: Optional[str], t: int, seed: int) -> int:
    bulletin, shares = load_workspace(workspace)
    if not 1 <= start <= bulletin.n:
        raise ValueError(f"start must be in [1, {bulletin.n}]")
    if t < 1:
        raise ValueError("t must be >= 1")
    cheater = None
    if cheat is not None:
        cheater = _parse_cheat(cheat, bulletin.r, 256)
        if not 1 <= cheater.position <= bulletin.n:
            raise ValueError(f"cheater position must be in [1, {bulletin.n}]")

    result = simulate_run(bulletin, shares, start, Random(seed), cheater)
    _write(workspace / "transcript.json", transcript_to_json(result.transcript))

    if not result.verdict:
        print("FORGERY DETECTED at verification")
        return EXIT_FORGERY

    audit_ok = freivalds_audit(result.transcript, bulletin, t, seed)
    print(f"verification passed (start={start})")
    print(f"freivalds audit: {'ok' if audit_ok else 'FAILED'} (t={t})")
    if not audit_ok:
        return EXIT_INTEGRITY
    print(f"recovered secret sha256 {matrix_digest(result.recovered)}")
    return EXIT_OK


def cmd_attack(
    workspace: Path,
    mode: str = attack_mod.ORDERED_DISTINCT,
    limit: Optional[int] = None,
    count_only: bool = False,
    force: bool = False,
) -> int:
    if limit is not None and limit < 1:
        raise ValueError(f"limit must be >= 1, got {limit}")
    bulletin, _ = load_workspace(workspace)
    path = workspace / "instance.json"
    secret = _field(_read(path), "secret", path)
    _require(_is_square(secret, bulletin.r), path, f"secret must be {bulletin.r}x{bulletin.r}")
    target = matrix_from_json(secret)

    k, n = bulletin.k, bulletin.n
    space = {
        "multiset": str(attack_mod.count_search_space(k, n, attack_mod.MULTISET)),
        "ordered_distinct": str(attack_mod.count_search_space(k, n, attack_mod.ORDERED_DISTINCT)),
        "ordered_rep": str(attack_mod.count_search_space(k, n, attack_mod.ORDERED_WITH_REPETITION)),
    }

    solutions: List[Tuple[int, ...]] = []
    if not count_only:
        mode_space = attack_mod.count_search_space(k, n, mode)
        if mode_space > attack_mod.GUARDRAIL_LIMIT and not force:
            print(
                f"refusing exhaustive search: {mode} space has {mode_space} sequences "
                f"(multiset cardinality {space['multiset']}), limit {attack_mod.GUARDRAIL_LIMIT}; "
                f"pass --force to override",
                file=sys.stderr,
            )
            return EXIT_GUARDRAIL
        problem = attack_mod.SearchProblem(matrices=bulletin.matrices, n=n, target=target)
        result = attack_mod.exhaustive_search(problem, mode, limit=limit, allow_large=force)
        solutions = list(result.solutions)
        print(
            f"explored {result.nodes_explored} sequences in {result.elapsed:.3f}s, "
            f"{len(solutions)} solution(s)"
        )

    ratio_hits = []
    transcript_path = workspace / "transcript.json"
    if transcript_path.exists():
        transcript = load_transcript(transcript_path, bulletin.r)
        hits = attack_mod.ratio_analysis(transcript.eavesdropper_view, bulletin)
        ratio_hits = [
            {"position": h.position, "matrix_index": h.matrix_index} for h in hits
        ]
        print(f"ratio analysis recovered {len(ratio_hits)} shadow(s) from the transcript")

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
        if args.command == "attack":
            return cmd_attack(
                args.workspace,
                mode=args.mode,
                limit=args.limit,
                count_only=args.count_only,
                force=args.force,
            )
        raise ValueError(f"unknown command: {args.command!r}")
    except (IntegrityFailure, SingularMatrix) as err:
        print(f"integrity failure: {err}", file=sys.stderr)
        return EXIT_INTEGRITY
    except GuardrailExceeded as err:
        print(f"guardrail: {err}", file=sys.stderr)
        return EXIT_GUARDRAIL
    except GenerationFailure as err:
        print(f"generation failure: {err}", file=sys.stderr)
        return 1
    except (ValueError, OSError) as err:
        print(f"usage error: {err}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
