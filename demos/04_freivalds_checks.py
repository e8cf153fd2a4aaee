#!/usr/bin/env python3
"""Freivalds verification: always right on true products, 2^-t wrong on fakes.

Instead of recomputing a full matrix product, one random test vector
whose entries are uniform t-bit integers certifies it with one-sided
error: a wrong product survives with probability at most 2^-t, as it
would t rounds of binary test vectors. The same machinery audits
reconstruction transcripts: every consecutive reveal pair must be
explainable by some public matrix.
"""

from random import Random

from matshare import (
    DealerParams,
    Matrix,
    freivalds_audit,
    freivalds_verify,
    generate_instance,
    mat_mul,
    sample_matrix,
    simulate_run,
)

rng = Random(0)
a = sample_matrix(6, 64, rng)
b = sample_matrix(6, 64, rng)
c = mat_mul(a, b)

print("true product:   ", all(freivalds_verify(a, b, c, 8, seed=s) for s in range(100)), "(100/100 accepted)")

rows = [list(row) for row in c.rows]
rows[0][0] += 1
c_bad = Matrix(rows)
for t in (1, 2, 5, 10):
    accepts = sum(freivalds_verify(a, b, c_bad, t, seed=s) for s in range(4096))
    print(f"corrupted, t={t:2d}: accepted {accepts:4d}/4096  (bound 2^-{t} = {4096 * 2**-t:.1f})")

print("\n== auditing a protocol transcript ==")
params = DealerParams(r=4, k=6, n=3, entry_bound=16, seed=3)
instance, bulletin, shares = generate_instance(params)
result = simulate_run(bulletin, shares, 2, Random(5))
print("honest transcript audit:", freivalds_audit(result.transcript, bulletin, t=10, seed=1))

from dataclasses import replace

from matshare.transport import broadcast_matrices

envelopes = list(result.transcript.envelopes)
target = broadcast_matrices(envelopes)[1]
rows = [list(row) for row in target.payload.rows]
rows[2][2] += 1
envelopes[envelopes.index(target)] = replace(target, payload=Matrix(rows))
forged = type(result.transcript)(envelopes=envelopes)
print("tampered transcript audit:", freivalds_audit(forged, bulletin, t=10, seed=1))
