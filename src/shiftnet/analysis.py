"""Channel diagnostics for trained conv-shift-conv modules.

Two views of a module's intermediate channels:

* correlation matrices of post-shift activations within each shift group
  (high off-diagonal correlation marks redundant channels), and
* normalized contribution norms: the l2 norm of each row of the second
  pointwise kernel, scaled so the largest is 1.0, optionally aggregated per
  shift group.

Group membership is the block's `ShiftSpec.group_ids`, derived once with the
spec; nothing here regroups channels.

Activations are recorded post-shift: the block's `CscBlock.mix`, the tensor
the second pointwise convolution reads. Its last child `relu2` runs after the
shift, so the values are shifted and rectified; a strided block's shift
carries the stride, so only the ho x wo positions `pw2` reads are held. The
capture runs the network's own eval path, the layers before the block and
then `mix` in `nets.in_slices`; it wraps no method and writes no attribute.
Outputs are plain CSV so heatmaps can be replotted with any external tool.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .blocks import CscBlock, run_layers
from .nets import Network, in_slices
from .pipeline import Dataset, _require_positive
from .shift import ShiftSpec


@dataclass
class ActivationTrace:
    """Recorded post-shift activations: one row per (image, spatial position)."""

    module_id: str
    samples: np.ndarray          # (observations, mid_channels)
    groups: np.ndarray           # group id per channel
    spec: ShiftSpec

    def __post_init__(self):
        if self.samples.shape[0] < 2:
            raise ValueError("need at least 2 observations")
        if self.samples.shape[1] != len(self.groups):
            raise ValueError("channel count disagrees with the group map")


def find_csc_block(net: Network, module_id: str) -> CscBlock:
    for name, block in net.named_blocks():
        if name == module_id:
            if not isinstance(block, CscBlock):
                raise ValueError(f"{module_id} is not a conv-shift-conv block")
            return block
    names = [n for n, _ in net.named_blocks()]
    raise KeyError(f"no block named {module_id!r}; available: {names}")


def record_activations(net: Network, dataset: Dataset, module_id: str,
                       max_images: int = 256) -> ActivationTrace:
    """Capture the module's post-shift activations on the eval path.

    The first `max_images` images run `in_slices` through the layers before
    the block, then its `mix`: the tensor `pw2` reads. `pw2` never runs, and
    no attribute of the network or its layers is written.
    """
    _require_positive("max_images", max_images)
    block = find_csc_block(net, module_id)
    n = min(len(dataset), max_images)
    if n == 0:
        raise ValueError("empty dataset")
    prefix = net.layers[:net.layers.index((module_id, block))]
    x, _ = dataset.batch(np.arange(n))
    out = in_slices(lambda s: block.mix(run_layers(prefix, s, "eval"), "eval"), x)
    samples = out.transpose(0, 2, 3, 1).reshape(-1, out.shape[1])
    return ActivationTrace(module_id, samples, block.spec.group_ids, block.spec)


def correlation_matrix(trace: ActivationTrace, group: int) -> np.ndarray:
    """Pearson correlation of the group's channels: symmetric, unit diagonal.

    Raises on empty groups and on zero-variance channels, whose correlation
    is undefined.
    """
    chans = np.nonzero(trace.groups == group)[0]
    if chans.size == 0:
        raise ValueError(f"shift group {group} has no channels")
    x = trace.samples[:, chans].astype(np.float64)
    std = x.std(axis=0)
    # constant channels leave only rounding residue; treat those as variance 0
    dead_mask = std <= 1e-12 * np.maximum(1.0, np.abs(x).max(axis=0))
    if np.any(dead_mask):
        dead = chans[dead_mask][:4]
        raise ValueError(f"zero-variance channel(s) {dead.tolist()} in group {group}")
    if chans.size == 1:
        return np.ones((1, 1))
    corr = np.corrcoef(x, rowvar=False)
    corr = np.clip((corr + corr.T) / 2.0, -1.0, 1.0)
    np.fill_diagonal(corr, 1.0)
    return corr


def contribution_norms(weights: np.ndarray) -> np.ndarray:
    """Row l2 norms of a (mid, out) pointwise kernel, scaled to max 1.0."""
    if weights.ndim != 2:
        raise ValueError("expected a (mid_channels, out_channels) kernel")
    norms = np.linalg.norm(weights.astype(np.float64), axis=1)
    top = norms.max()
    if top == 0:
        raise ValueError("all-zero kernel has no defined contributions")
    return norms / top


def group_contribution_norms(weights: np.ndarray, spec: ShiftSpec) -> np.ndarray:
    """Per-shift-group sums of channel contributions, rescaled to max 1.0."""
    v = contribution_norms(weights)
    n_groups = spec.kernel_size ** 2
    sums = np.zeros(n_groups)
    for g in range(n_groups):
        sums[g] = v[spec.group_ids == g].sum()
    top = sums.max()
    return sums / top if top > 0 else sums


def correlations_to_csv(trace: ActivationTrace) -> str:
    """All groups' correlation heatmap data: group,row,col,value."""
    lines = ["group,row,col,value"]
    for g in np.unique(trace.groups):
        corr = correlation_matrix(trace, g)
        for i in range(corr.shape[0]):
            for j in range(corr.shape[1]):
                lines.append(f"{g},{i},{j},{corr[i, j]:.8g}")
    return "\n".join(lines) + "\n"


def contributions_to_csv(weights: np.ndarray, spec: ShiftSpec) -> str:
    """Per-channel contributions: channel,group,dy,dx,value."""
    v = contribution_norms(weights)
    lines = ["channel,group,dy,dx,value"]
    for m in range(len(v)):
        dy, dx = spec.displacements[m]
        lines.append(f"{m},{spec.group_ids[m]},{dy},{dx},{v[m]:.8g}")
    return "\n".join(lines) + "\n"

