"""The benchmark's workloads: seeded inputs, timed ops and the check of each op.

A workload runs in units, and every unit is the same mix of ops, so a
run that stops between units keeps the mix fixed:

- ``ring-wide``: one round per start position of one wide instance;
- ``cli-grid``: one pass over the 66-instance command grid;
- ``attack-search``: one full exhaustive search.

Every input is derived from the workload seed and the unit number, so a
unit does the same work whenever it runs.
"""

from __future__ import annotations

import contextlib
import dataclasses
import hashlib
import importlib
import io
import json
import math
import shutil
import statistics
import sys
import tempfile
import traceback
from collections import defaultdict
from pathlib import Path
from time import perf_counter
from types import SimpleNamespace

MODULES = ("algebra", "dealer", "protocol", "transport", "attack", "cli")


def import_matshare():
    """Import the package afresh, so each set-up pays for its own import."""
    for name in [n for n in sys.modules if n == "matshare" or n.startswith("matshare.")]:
        del sys.modules[name]
    importlib.import_module("matshare")
    return SimpleNamespace(**{m: importlib.import_module(f"matshare.{m}") for m in MODULES})


def derive(seed: int, *parts) -> int:
    """A 31-bit seed for one input, fixed by the workload seed and its place."""
    digest = hashlib.sha256(repr((seed,) + parts).encode()).digest()
    return int.from_bytes(digest[:4], "big") >> 1


class Recorder:
    """Op latencies by kind, and the ops whose check failed."""

    def __init__(self):
        self.times = defaultdict(list)
        self.failed = 0

    @property
    def attempted(self) -> int:
        return sum(len(t) for t in self.times.values())

    def op(self, kind: str, call, check) -> bool:
        """Time `call`, then check its result outside the timed interval.

        A raising call or check counts as a failed op; the run goes on.
        """
        elapsed = None
        started = perf_counter()
        try:
            result = call()
            elapsed = perf_counter() - started
            ok = bool(check(result))
        except Exception:
            if elapsed is None:
                elapsed = perf_counter() - started
            traceback.print_exc(file=sys.stderr)
            ok = False
        self.times[kind].append(elapsed)
        if not ok:
            self.failed += 1
            print(f"perfbench: {kind} op failed its check", file=sys.stderr)
        return ok


def percentile(values, q: int) -> float:
    """The q-th percentile, interpolated between the closest ranks."""
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def _ms(seconds: float) -> float:
    return seconds * 1000.0


# ---------------------------------------------------------------------------
# ring-wide
# ---------------------------------------------------------------------------

RING_R, RING_N, RING_K = 32, 8, 32
AUDIT_T = 10
# A live ring keeps one bulletin, whose reveals grow every round.  A new
# ring starts after a fixed number of rounds, so peak memory reflects
# that growth without depending on how many rounds fit in a run.
UNITS_PER_RING = 2


@dataclasses.dataclass
class _Ring:
    instance: object
    dealt: object
    shares: list
    bulletin: object = None


class RingWide:
    """Honest rounds on one wide instance, cycling through every start."""

    name = "ring-wide"
    #: units in one cycle: a ring's rounds, from a fresh bulletin
    cycle = UNITS_PER_RING

    def setup(self, ms, seed: int, workdir: Path) -> _Ring:
        params = ms.dealer.DealerParams(r=RING_R, k=RING_K, n=RING_N, seed=derive(seed, "deal"))
        instance, bulletin, shares = ms.dealer.generate_instance(params)
        return _Ring(instance, bulletin, shares)

    def run_unit(self, ms, ring: _Ring, seed: int, unit: int, rec: Recorder) -> None:
        if unit % UNITS_PER_RING == 0:
            ring.bulletin = dataclasses.replace(ring.dealt, reveals=[])
        secret = ring.instance.secret
        for start in range(1, RING_N + 1):
            blind = derive(seed, "blind", unit, start)

            def round_():
                result = ms.protocol.simulate_run(ring.bulletin, ring.shares, start, blind)
                audit = ms.protocol.freivalds_audit(result.transcript, ring.bulletin, AUDIT_T, blind)
                return result, audit

            rec.op(
                "round",
                round_,
                lambda out: out[0].verdict and out[0].recovered == secret and out[1],
            )

    def report(self, rec: Recorder, rate: float) -> list:
        rounds = rec.times["round"]
        return [
            ("rounds_per_s", rate, "1/s"),
            ("round_p50_ms", _ms(percentile(rounds, 50)), "ms"),
            ("round_p90_ms", _ms(percentile(rounds, 90)), "ms"),
        ]


# ---------------------------------------------------------------------------
# cli-grid
# ---------------------------------------------------------------------------

GRID = tuple(
    (r, n, k)
    for r in (4, 8, 12, 20)
    for n in range(2, 9)
    if n < r
    for k in sorted({n, 17, 32})
)


def _secret_digest(instance_doc: dict) -> str:
    # the digest `matshare run` prints: sha256 of the canonical JSON of the matrix
    text = json.dumps(instance_doc["secret"], indent=2) + "\n"
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


class CliGrid:
    """deal -> run --cheat -> run every start -> attack --count-only, per instance."""

    name = "cli-grid"
    cycle = 1

    def setup(self, ms, seed: int, workdir: Path) -> Path:
        return Path(tempfile.mkdtemp(prefix="grid-", dir=workdir))

    def run_unit(self, ms, root: Path, seed: int, unit: int, rec: Recorder) -> None:
        def command(kind, argv, check):
            out = io.StringIO()

            def call():
                with contextlib.redirect_stdout(out), contextlib.redirect_stderr(out):
                    try:
                        return ms.cli.main(argv)
                    except SystemExit as exc:
                        return exc.code

            return rec.op(kind, call, lambda code: check(code, out.getvalue()))

        for idx, (r, n, k) in enumerate(GRID):
            ws = root / f"u{unit}-i{idx}"
            deal_seed = derive(seed, "deal", unit, idx)
            dealt = command(
                "deal",
                ["deal", "--r", str(r), "--k", str(k), "--n", str(n),
                 "--seed", str(deal_seed), "--out", str(ws)],
                lambda code, _: code == ms.cli.EXIT_OK,
            )
            if not dealt:
                continue
            instance = json.loads((ws / "instance.json").read_text(encoding="utf-8"))
            sigma, digest = instance["sigma"], _secret_digest(instance)

            # a forge seed equal to the deal seed would forge shadow 0 itself
            forge_seed = derive(seed, "forge", unit, idx)
            if forge_seed == deal_seed:
                forge_seed += 1
            cheater = 1 + derive(seed, "cheater", unit, idx) % n
            command(
                "detect",
                ["run", "--workspace", str(ws), "--cheat", f"{cheater}:{forge_seed}",
                 "--seed", str(derive(seed, "detect", unit, idx))],
                lambda code, _: code == ms.cli.EXIT_FORGERY,
            )
            for start in range(1, n + 1):
                command(
                    "run",
                    ["run", "--workspace", str(ws), "--start", str(start),
                     "--seed", str(derive(seed, "run", unit, idx, start))],
                    lambda code, text: code == ms.cli.EXIT_OK
                    and f"recovered secret sha256 {digest}" in text,
                )

            def leak_ok(code, _):
                report = json.loads((ws / "attack_report.json").read_text(encoding="utf-8"))
                hits = report["ratio_hits"]
                return (
                    code == ms.cli.EXIT_OK
                    and len(hits) == n - 1
                    and all(h["matrix_index"] == sigma[h["position"] - 1] for h in hits)
                )

            command("leak", ["attack", "--workspace", str(ws), "--count-only"], leak_ok)
            shutil.rmtree(ws)

    def report(self, rec: Recorder, rate: float) -> list:
        # cli-grid is a fixed multimodal mix, so each kind reports its mean
        t = rec.times
        return [
            ("commands_per_s", rate, "1/s"),
            ("deal_ms", _ms(statistics.fmean(t["deal"])), "ms"),
            ("run_ms", _ms(statistics.fmean(t["run"])), "ms"),
            ("run_p90_ms", _ms(percentile(t["run"], 90)), "ms"),
            ("detect_ms", _ms(statistics.fmean(t["detect"])), "ms"),
            ("leak_ms", _ms(statistics.fmean(t["leak"])), "ms"),
        ]


# ---------------------------------------------------------------------------
# attack-search
# ---------------------------------------------------------------------------

SEARCH_R, SEARCH_K, SEARCH_N = 8, 12, 4
SEARCH_POOL = 4


class AttackSearch:
    """Full ordered-distinct exhaustive search over seeded small instances."""

    name = "attack-search"
    #: units in one cycle: one search of each instance in the pool
    cycle = SEARCH_POOL

    def setup(self, ms, seed: int, workdir: Path) -> list:
        pool = []
        for i in range(SEARCH_POOL):
            params = ms.dealer.DealerParams(
                r=SEARCH_R, k=SEARCH_K, n=SEARCH_N, seed=derive(seed, "search", i)
            )
            instance, bulletin, _ = ms.dealer.generate_instance(params)
            problem = ms.attack.SearchProblem(bulletin.matrices, SEARCH_N, instance.secret)
            pool.append((problem, instance.sigma))
        return pool

    def run_unit(self, ms, pool: list, seed: int, unit: int, rec: Recorder) -> None:
        problem, sigma = pool[unit % len(pool)]
        space = math.perm(SEARCH_K, SEARCH_N)
        rec.op(
            "search",
            lambda: ms.attack.exhaustive_search(problem, ms.attack.ORDERED_DISTINCT),
            lambda res: sigma in res.solutions and res.nodes_explored == space,
        )

    def report(self, rec: Recorder, rate: float) -> list:
        return [("search_seq_per_s", rate * math.perm(SEARCH_K, SEARCH_N), "1/s")]


WORKLOADS = {w.name: w for w in (RingWide(), CliGrid(), AttackSearch())}
