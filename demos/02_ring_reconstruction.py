#!/usr/bin/env python3
"""One full protocol round, narrated: verification, then blinded reconstruction.

Every circular shift of the ring can run its own round; each one ends
with the starter holding the same secret, whatever blinding matrix was
drawn.
"""

from random import Random

from matshare import DealerParams, generate_instance, simulate_run

params = DealerParams(r=4, k=6, n=3, entry_bound=16, seed=7)
instance, bulletin, shares = generate_instance(params)
print(f"dealt: k={params.k} matrices of size {params.r}, ring of {params.n}\n")

for start in range(1, params.n + 1):
    result = simulate_run(bulletin, shares, start, Random(start))
    print(f"-- round started by P{start} --")
    for envelope in result.transcript.envelopes:
        tag = "secure" if envelope.visibility == "secure" else "public"
        print(f"  step {envelope.step:2d} [{tag:6s}] {envelope.sender} -> {envelope.recipient}: {type(envelope.payload).__name__}")
    assert result.verdict, "honest ring must verify"
    assert result.recovered == instance.secret, "every start recovers the same secret"
    print(f"  verdict: {result.verdict}, recovered == dealer secret: True\n")

print("all starts recovered the identical secret matrix:")
for row in instance.secret.rows:
    print("   ", row)
