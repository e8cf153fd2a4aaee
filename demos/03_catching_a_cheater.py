#!/usr/bin/env python3
"""Forged shadows never survive the verification walk.

A cheater substitutes a different matrix when their turn comes. The
chained vector then misses the published check image, and the last
participant broadcasts a false verdict before reconstruction can begin.
"""

from random import Random

from matshare import CheaterSpec, DealerParams, Matrix, generate_instance, sample_matrix, simulate_run

params = DealerParams(r=5, k=8, n=4, entry_bound=32, seed=11)
instance, bulletin, shares = generate_instance(params)
rng = Random(99)

print(f"ring of {params.n}; trying a forged shadow at every position\n")
for position in range(1, params.n + 1):
    forged = sample_matrix(params.r, 32, rng)
    result = simulate_run(
        bulletin, shares, start=1, rng=Random(position),
        cheater=CheaterSpec(position=position, forged=forged),
    )
    matrix_events = [e for e in result.transcript.envelopes if isinstance(e.payload, Matrix)]
    print(
        f"cheater at P{position}: verdict={result.verdict}, "
        f"reconstruction reveals={len(matrix_events)}, recovered={result.recovered}"
    )
    assert not result.verdict
    assert result.recovered is None
    assert matrix_events == []

print("\nevery forgery was detected; no reconstruction message was ever sent")
