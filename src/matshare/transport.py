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
    if not name.startswith("P"):
        raise ValueError(f"not a participant name: {name!r}")
    return int(name[1:])


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
    """A single run's message fabric: known recipients plus the transcript."""

    def __init__(self, participants: Sequence[str]):
        self._known = set(participants) | {DEALER, BROADCAST}
        self.transcript = Transcript()
        self._open = True

    def close(self) -> None:
        self._open = False

    def _next_step(self) -> int:
        return len(self.transcript.envelopes)

    def _append(
        self, sender: str, recipient: str, visibility: str, payload: Matrix | Vector | bool | IndexPointer
    ) -> int:
        if not self._open:
            raise ValueError("run is closed")
        if sender not in self._known:
            raise ValueError(f"unknown sender: {sender!r}")
        step = self._next_step()
        self.transcript.envelopes.append(
            Envelope(step, sender, recipient, visibility, payload)
        )
        return step

    def send(
        self, sender: str, recipient: str, visibility: str, payload: Matrix | Vector | bool | IndexPointer
    ) -> int:
        """Point-to-point delivery; returns the envelope's step number."""
        if recipient not in self._known or recipient == BROADCAST:
            raise ValueError(f"unknown recipient: {recipient!r}")
        if visibility not in (PUBLIC, SECURE):
            raise ValueError(f"unknown visibility: {visibility!r}")
        return self._append(sender, recipient, visibility, payload)

    def broadcast(self, sender: str, payload: Matrix | Vector | bool | IndexPointer) -> int:
        """One public envelope delivered to every participant and the eavesdropper."""
        return self._append(sender, BROADCAST, PUBLIC, payload)


def broadcast_matrices(view: Sequence[Envelope]) -> List[Envelope]:
    """The matrix broadcasts in a view, in order: the reconstruction reveals."""
    return [e for e in view if e.recipient == BROADCAST and isinstance(e.payload, Matrix)]
