import os
import subprocess
import sys
from pathlib import Path
from random import Random

import pytest

from matshare.algebra import BinaryVector, Matrix, Vector, mat_mul, sample_invertible_matrix
from matshare.dealer import DealerParams, generate_instance
from matshare.protocol import X_ENTRY_BOUND, simulate_run
from matshare.transport import (
    BROADCAST,
    DEALER,
    PUBLIC,
    SECURE,
    IndexPointer,
    Network,
    broadcast_matrices,
    participant_name,
    participant_position,
)


def two_party_net():
    return Network(["P1", "P2"])


def test_first_send_is_step_zero():
    net = two_party_net()
    assert net.send("P1", "P2", PUBLIC, Vector([1])) == 0


def test_steps_strictly_increase():
    net = two_party_net()
    s0 = net.send("P1", "P2", PUBLIC, Vector([1]))
    s1 = net.send("P2", "P1", PUBLIC, Vector([2]))
    assert (s0, s1) == (0, 1)
    assert [e.step for e in net.transcript.envelopes] == [0, 1]


def test_secure_share_delivery_hidden_from_eavesdropper():
    net = two_party_net()
    net.send(DEALER, "P1", SECURE, IndexPointer(3, (1, 2)))
    net.send("P1", "P2", PUBLIC, Vector([1]))
    view = net.transcript.eavesdropper_view
    assert len(view) == 1
    assert view[0].visibility == PUBLIC
    assert all(not isinstance(e.payload, IndexPointer) for e in view)


def test_broadcast_is_public_and_single():
    net = two_party_net()
    net.broadcast("P1", Matrix([[1]]))
    view = net.transcript.eavesdropper_view
    assert len(view) == 1
    assert view[0].recipient == BROADCAST


def test_eavesdropper_view_preserves_order():
    net = two_party_net()
    net.send(DEALER, "P1", SECURE, BinaryVector([1, 1]))
    net.broadcast("P1", True)
    net.send("P1", "P2", PUBLIC, Vector([4]))
    net.send(DEALER, "P2", SECURE, BinaryVector([1, 1]))
    net.broadcast("P2", False)
    view = net.transcript.eavesdropper_view
    assert [e.step for e in view] == [1, 2, 4]
    assert all(e.visibility == PUBLIC for e in view)


def test_unknown_recipient_rejected():
    net = two_party_net()
    with pytest.raises(ValueError):
        net.send("P1", "P9", PUBLIC, Vector([1]))


def test_unknown_visibility_rejected():
    net = two_party_net()
    with pytest.raises(ValueError):
        net.send("P1", "P2", "covert", Vector([1]))


def test_closed_run_rejects_sends():
    net = two_party_net()
    net.close()
    with pytest.raises(ValueError):
        net.send("P1", "P2", PUBLIC, Vector([1]))


def test_broadcast_is_no_sender():
    # "Broadcast" names the public channel, not a member of the run
    net = two_party_net()
    with pytest.raises(ValueError, match="unknown sender 'Broadcast'"):
        net.broadcast(BROADCAST, Matrix([[1]]))
    with pytest.raises(ValueError, match="unknown sender 'Broadcast'"):
        net.send(BROADCAST, "P1", PUBLIC, Vector([1]))
    assert net.transcript.envelopes == []


def test_dealer_broadcasts_nothing():
    # the dealer only sends secure shares, so a broadcast always names a
    # ring position; a public send to "Broadcast" is a broadcast too
    net = two_party_net()
    with pytest.raises(ValueError, match="must come from a participant, not 'Dealer'"):
        net.broadcast(DEALER, Matrix([[1]]))
    with pytest.raises(ValueError, match="must come from a participant, not 'Dealer'"):
        net.send(DEALER, BROADCAST, PUBLIC, Matrix([[1]]))
    assert net.transcript.envelopes == []
    net.send(DEALER, "P1", PUBLIC, Matrix([[1]]))
    net.broadcast("P1", Matrix([[1]]))
    assert [e.sender for e in net.transcript.envelopes] == [DEALER, "P1"]


def test_participant_names():
    assert participant_name(3) == "P3"
    assert participant_position("P12") == 12
    for position in (1, 9, 10, 100):
        assert participant_position(participant_name(position)) == position
    with pytest.raises(ValueError):
        participant_position("Dealer")


@pytest.mark.parametrize("name", ["P+3", "P03", "P 3", "P3 ", "P-3", "P", "p3", "P\u0663", "P3_0", "", "Broadcast"])
def test_participant_position_refuses_names_participant_name_never_writes(name):
    with pytest.raises(ValueError, match="not a participant name"):
        participant_position(name)


def make_run(seed=5, start=2):
    params = DealerParams(r=4, k=6, n=3, entry_bound=64, seed=seed)
    instance, bulletin, shares = generate_instance(params)
    result = simulate_run(bulletin, shares, start, Random(seed))
    return instance, bulletin, shares, result


def test_reconstruction_round_message_counts():
    # n matrix broadcasts, one public hand-back, one secure self-record
    _, bulletin, _, result = make_run()
    assert result.verdict
    broadcasts = broadcast_matrices(result.transcript.envelopes)
    assert len(broadcasts) == bulletin.n
    public_p2p_matrices = [
        e
        for e in result.transcript.envelopes
        if e.visibility == PUBLIC and e.recipient != BROADCAST and isinstance(e.payload, Matrix)
    ]
    assert len(public_p2p_matrices) == 1


def test_transcripts_deterministic_for_equal_seeds():
    _, _, _, first = make_run(seed=9)
    _, _, _, second = make_run(seed=9)
    assert first.transcript.envelopes == second.transcript.envelopes


def test_fifo_step_numbering_is_contiguous():
    _, _, _, result = make_run()
    steps = [e.step for e in result.transcript.envelopes]
    assert steps == list(range(len(steps)))


def test_visibility_soundness_over_honest_runs():
    # nothing private (check vectors, blinding matrix, index pointers) leaks
    for seed in range(5):
        instance, bulletin, shares, result = make_run(seed=seed, start=1)
        assert result.verdict
        # verification draws nothing, so X is the round's first draw
        x = sample_invertible_matrix(bulletin.r, X_ENTRY_BOUND, Random(seed))
        first = broadcast_matrices(result.transcript.envelopes)[0]
        assert first.payload == mat_mul(instance.shadow(1), x)
        private_payloads = {share.u for share in shares} | {x}
        for envelope in result.transcript.eavesdropper_view:
            assert not isinstance(envelope.payload, IndexPointer)
            assert envelope.payload not in private_payloads


REIMPORT = """
import gc, importlib, sys, weakref

def load():
    importlib.import_module("matshare")
    return weakref.ref(sys.modules["matshare.algebra"].Matrix)

first = load()
for name in [n for n in sys.modules if n == "matshare" or n.startswith("matshare.")]:
    del sys.modules[name]
load()
gc.collect()
assert first() is None, "the first import's Matrix class outlived its modules"
"""


def test_reimported_package_lets_the_old_copy_go():
    # nothing at module level may keep a class of one import alive past
    # it (a typing.Union alias does: typing caches it globally); run in
    # a fresh interpreter so this suite's own classes are not dropped
    src = Path(__file__).resolve().parent.parent / "src"
    env = dict(os.environ, PYTHONPATH=str(src))
    subprocess.run([sys.executable, "-c", REIMPORT], env=env, check=True, timeout=60)
