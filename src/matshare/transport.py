"""Deterministic in-memory message fabric for protocol simulation.

Delivery is synchronous, loss-free and FIFO: an envelope is appended to
the run transcript (and seen by its recipients) before any later send is
processed.  Visibility tags model the two channel kinds the scheme needs:
``PUBLIC`` traffic lands in the eavesdropper's view, ``SECURE`` traffic
never does.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Sequence

from .algebra import Matrix, Vector

PUBLIC = "public"
SECURE = "secure"

DEALER = "Dealer"
BROADCAST = "Broadcast"


def participant_name(position: int) -> str:
    return f"P{position}"


def participant_position(name: str) -> int:
    """The position that ``participant_name`` writes as `name`; any other name raises ValueError."""
    digits = name[1:]
    if name[:1] != "P" or not (digits.isascii() and digits.isdigit()) or participant_name(int(digits)) != name:
        raise ValueError(f"not a participant name: {name!r}")
    return int(digits)


@dataclass(frozen=True)
class IndexPointer:
    """The dealer's secure pointer payload: a matrix index plus the ring."""

    matrix_index: int
    ring: tuple

    def __post_init__(self):
        object.__setattr__(self, "ring", tuple(self.ring))


@dataclass(frozen=True)
class Envelope:
    step: int
    sender: str
    recipient: str
    visibility: str
    # the payload kinds are written out, not named by a module-level alias:
    # typing caches a Union globally, and that would keep these classes
    # (and every module of this import of the package) alive for good
    payload: Matrix | Vector | bool | IndexPointer


@dataclass
class Transcript:
    """Ordered log of every envelope in one run."""

    envelopes: List[Envelope] = field(default_factory=list)

    @property
    def eavesdropper_view(self) -> List[Envelope]:
        """The order-preserving sublist a passive global observer sees."""
        return [e for e in self.envelopes if e.visibility == PUBLIC]


class Network:
    """A single run's message fabric: its members plus the transcript."""

    def __init__(self, participants: Sequence[str]):
        self._members = {DEALER, *participants}
        self.transcript = Transcript()
        self._open = True

    def close(self) -> None:
        self._open = False

    def record(
        self, sender: str, recipient: str, visibility: str, payload: Matrix | Vector | bool | IndexPointer
    ) -> int:
        """Append one envelope and return its step, its place in the transcript.

        This is the one rule for every envelope, sent or read from a file:
        the run is open, the sender is the dealer or a participant, the
        recipient is one of those or ``BROADCAST``, the visibility is
        ``PUBLIC`` or ``SECURE``, and a broadcast is public and comes from
        a participant: the dealer only sends secure shares, so every
        broadcast names a ring position.
        """
        if not self._open:
            raise ValueError("run is closed")
        if sender not in self._members:
            raise ValueError(f"unknown sender {sender!r}")
        if recipient not in self._members and recipient != BROADCAST:
            raise ValueError(f"unknown recipient {recipient!r}")
        if visibility not in (PUBLIC, SECURE):
            raise ValueError(f"unknown visibility {visibility!r}")
        if recipient == BROADCAST and visibility != PUBLIC:
            raise ValueError(f"a broadcast must be {PUBLIC!r}, not {visibility!r}")
        if recipient == BROADCAST and sender == DEALER:
            raise ValueError(f"a broadcast must come from a participant, not {DEALER!r}")
        envelopes = self.transcript.envelopes
        envelopes.append(Envelope(len(envelopes), sender, recipient, visibility, payload))
        return len(envelopes) - 1

    def send(
        self, sender: str, recipient: str, visibility: str, payload: Matrix | Vector | bool | IndexPointer
    ) -> int:
        """Deliver one envelope; returns its step number."""
        return self.record(sender, recipient, visibility, payload)

    def broadcast(self, sender: str, payload: Matrix | Vector | bool | IndexPointer) -> int:
        """One public envelope delivered to every participant and the eavesdropper."""
        return self.record(sender, BROADCAST, PUBLIC, payload)


def fresh_network(n: int) -> Network:
    """An open network of the participants ``P1`` to ``Pn``."""
    return Network([participant_name(j) for j in range(1, n + 1)])


def broadcast_matrices(view: Sequence[Envelope]) -> List[Envelope]:
    """The matrix broadcasts in a view, in order: the reconstruction reveals."""
    return [e for e in view if e.recipient == BROADCAST and isinstance(e.payload, Matrix)]
