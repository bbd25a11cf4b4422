"""Table S: cache consistency under a lossy network.

The paper's consistency study (Table 12) assumes a reliable network:
every invalidation, recall, and token message arrives.  This study
drops that assumption and asks two questions the at-most-once transport
(:mod:`repro.fs.rpc`) makes answerable:

* **scheme robustness** -- replaying the write-shared request streams
  with a Bernoulli message-loss model attached to each scheme's
  consistency messages: how many reads are served from a copy a lost
  invalidation failed to drop, per scheme, as the loss rate rises?
* **transport overhead** -- replaying a full cluster trace with the
  lossy channel at the same rates: what does at-most-once delivery cost
  in retransmissions and stall time, and does the protocol-invariant
  oracle stay clean (it must -- the whole point of the transport is that
  message loss degrades performance, never correctness)?

The loss model is untimed at the scheme level: a lost consistency
message is retransmitted and "lands" at the victim's next touch of the
affected block, so one read in that window is served stale.  That makes
the stale-read count a direct measure of each scheme's exposure window
rather than of any particular retransmission timer.  This module holds
the loss model; :mod:`repro.experiments.studies` renders the table.
"""

from __future__ import annotations

from repro.common.errors import SimulationError
from repro.common.rng import RngStream
from repro.fs.rpc import MAX_ATTEMPTS

#: The scheme keys of :func:`repro.consistency.schemes.simulate_schemes`.
SCHEME_KEYS: tuple[str, ...] = ("sprite", "modified", "token")


class MessageLossModel:
    """Bernoulli loss with retransmission until delivery.

    One model per scheme, forked from the study seed, so each scheme
    sees an independent (but reproducible) loss pattern.
    """

    __slots__ = ("loss_rate", "rng")

    def __init__(self, loss_rate: float, rng: RngStream) -> None:
        if not 0.0 <= loss_rate <= 1.0:
            raise SimulationError(
                f"message loss rate must be in [0, 1], got {loss_rate}"
            )
        self.loss_rate = loss_rate
        self.rng = rng

    def transmissions(self) -> int:
        """Sends until one gets through (>= 1; capped like the
        transport's eventually-reliable retransmission loop)."""
        sends = 1
        if not self.loss_rate:
            return sends
        while self.rng.random() < self.loss_rate and sends < MAX_ATTEMPTS:
            sends += 1
        return sends


def loss_models_for(
    rate: float, rng: RngStream
) -> "dict[str, MessageLossModel] | None":
    """One independent loss model per scheme (``None`` at rate zero, so
    the lossless column draws no randomness at all)."""
    if rate == 0.0:
        return None
    return {
        key: MessageLossModel(rate, rng.fork(f"loss-{key}"))
        for key in SCHEME_KEYS
    }

