"""Modeled work per layer, joined with measured layer times into rates.

* MACs come from `Network.cost_entries`, which sizes every layer at its real
  (strided) output. Backward of a convolution or 1x1 computes dx and dW, each
  as many MACs as forward, so a train step does 3x the forward MACs.
* Words moved come from `accounting.memory_access_words` for the kinds it
  models (conv, depthwise, pointwise, shift, fc). A shift's backward moves the
  same words as its forward.
* Batch-norm bytes are computed from the arrays each call received, as the
  least traffic the layer needs: forward reads x and writes y, backward reads
  dout and x and writes dx. They are labelled computed, not modeled: cache
  misses and the extra passes for the batch statistics are not in them.
"""

from __future__ import annotations

from dataclasses import dataclass

from shiftnet.accounting import memory_access_words

WORD_BYTES = 4                     # float32
MODELED_WORD_KINDS = ("conv", "depthwise", "pointwise", "shift", "fc")
BWD_MAC_FACTOR = 2                 # dx and dW
BN_FWD_PASSES = 2                  # read x, write y
BN_BWD_PASSES = 3                  # read dout, read x, write dx


@dataclass(frozen=True)
class LayerModel:
    """Modeled per-image work of one layer, keyed by its cost-entry name."""

    name: str
    kind: str
    macs: int
    words: int


def layer_models(net, input_size: int = 32) -> dict[str, LayerModel]:
    out = {}
    for e in net.cost_entries(input_size):
        words = 0
        if e.kind in MODELED_WORD_KINDS:
            words = memory_access_words(e.kind, e.in_channels, e.out_channels,
                                        e.feature_size, e.kernel_size)
        out[e.name] = LayerModel(e.name, e.kind, e.macs, words)
    return out


def kind_totals(models: dict[str, LayerModel]) -> dict[str, tuple[int, int]]:
    """(MACs, words) per image summed by layer kind."""
    out: dict[str, tuple[int, int]] = {}
    for m in models.values():
        macs, words = out.get(m.kind, (0, 0))
        out[m.kind] = (macs + m.macs, words + m.words)
    return out


def per_image(models: dict[str, LayerModel]) -> tuple[int, int]:
    """(MACs, words) per image over the whole network."""
    return (sum(m.macs for m in models.values()),
            sum(m.words for m in models.values()))


def rate(fwd_work: float, fwd_ms: float, bwd_work: float = 0.0,
         bwd_ms: float = 0.0) -> float:
    """Achieved (fwd_work + bwd_work) / (fwd_ms + bwd_ms), in units of 1e9/s.

    Backward work counts only where backward ran. Returns 0.0 when the layer
    took no time (it is absent from the network).
    """
    work = fwd_work + (bwd_work if bwd_ms > 0 else 0.0)
    seconds = (fwd_ms + bwd_ms) / 1e3
    return work / seconds / 1e9 if seconds > 0 else 0.0


def mac_rate(macs_per_image: int, batch: int, fwd_ms: float,
             bwd_ms: float) -> float:
    """Achieved GMAC/s of one layer kind over one step."""
    fwd = macs_per_image * batch
    return rate(fwd, fwd_ms, BWD_MAC_FACTOR * fwd, bwd_ms)


def word_rate(words_per_image: int, batch: int, fwd_ms: float,
              bwd_ms: float) -> float:
    """Achieved GB/s of modeled words moved, backward moving what forward does."""
    fwd = words_per_image * WORD_BYTES * batch
    return rate(fwd, fwd_ms, fwd, bwd_ms)


def bn_rate(fwd_nbytes: int, fwd_ms: float, bwd_nbytes: int,
            bwd_ms: float) -> float:
    """Achieved GB/s of computed batch-norm traffic (input array sizes given)."""
    return rate(BN_FWD_PASSES * fwd_nbytes, fwd_ms,
                BN_BWD_PASSES * bwd_nbytes, bwd_ms)
