"""Channel-wise spatial shifts: pure memory movement in place of spatial kernels.

Each channel of an NCHW tensor is translated by a fixed per-channel
displacement drawn from a k x k window (scaled by a dilation factor).
Positions shifted in from outside the tensor read as zero, which makes a
shift exactly equivalent to a depthwise convolution whose kernel is one-hot
per channel -- without the multiplications. A shift therefore costs zero
parameters and zero FLOPs; only memory moves.

Channel-to-displacement assignment follows the even-split heuristic: with M
channels and window side k, each of the k*k - 1 off-center displacements
gets floor(M / k^2) channels (window raster order, center last) and every
remaining channel stays unshifted in the "center" group. Because a shift is
always sandwiched between two learned 1x1 convolutions, any permutation of
the assignment yields an equivalent end-to-end function, so one fixed
assignment (selectable via permutation_id) is as good as any other.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .ops import ConvKernel, conv2d_pointwise


@dataclass(frozen=True)
class ShiftSpec:
    """Per-channel displacement table.

    displacements[m] is the (dy, dx) translation of channel m, with
    dy, dx in [-(kernel_size // 2) * dilation, +(kernel_size // 2) * dilation].
    Specs serialize as (channels, kernel_size, dilation, permutation_id);
    the displacement table is always recomputed, never stored.
    """

    channels: int
    kernel_size: int
    dilation: int
    permutation_id: int
    displacements: tuple[tuple[int, int], ...]


def window_directions(kernel_size: int) -> list[tuple[int, int]]:
    """Raster-order displacements of the k x k window, center moved to the end."""
    c = kernel_size // 2
    dirs = [(i - c, j - c)
            for i in range(kernel_size) for j in range(kernel_size)
            if (i, j) != (c, c)]
    dirs.append((0, 0))
    return dirs


def make_shift_spec(channels: int, kernel_size: int = 3, dilation: int = 1,
                    permutation_id: int = 0) -> ShiftSpec:
    """Construct the even-split displacement assignment for `channels` channels.

    permutation_id 0 assigns groups in channel-index order (group g owns the
    g-th contiguous slab of floor(M/k^2) channels); any other id selects a
    fixed pseudo-random channel permutation derived from the id.
    """
    if channels < 1:
        raise ValueError(f"channels must be >= 1, got {channels}")
    if kernel_size < 1 or kernel_size % 2 == 0:
        raise ValueError(f"kernel_size must be odd and positive, got {kernel_size}")
    if dilation < 1:
        raise ValueError(f"dilation must be >= 1, got {dilation}")
    dirs = window_directions(kernel_size)
    gsize = channels // (kernel_size ** 2)
    if permutation_id == 0:
        order = np.arange(channels)
    else:
        order = np.random.default_rng(permutation_id).permutation(channels)
    disp = [(0, 0)] * channels
    for g, (dy, dx) in enumerate(dirs[:-1]):
        for ch in order[g * gsize:(g + 1) * gsize]:
            disp[ch] = (dy * dilation, dx * dilation)
    # channels beyond (k^2 - 1) * gsize keep (0, 0): the center group
    return ShiftSpec(channels, kernel_size, dilation, permutation_id, tuple(disp))


def group_index(spec: ShiftSpec) -> np.ndarray:
    """Group id per channel, groups numbered in window_directions order."""
    dirs = window_directions(spec.kernel_size)
    lookup = {(dy * spec.dilation, dx * spec.dilation): g
              for g, (dy, dx) in enumerate(dirs)}
    return np.array([lookup[d] for d in spec.displacements], dtype=np.int64)


def channel_groups(spec: ShiftSpec) -> list[tuple[tuple[int, int], object]]:
    """Distinct displacements with their channel indexers (skips empty groups).

    The indexer is a slice when the group's channels are contiguous (the
    default channel-order assignment), else an index array.
    """
    gidx = group_index(spec)
    dirs = window_directions(spec.kernel_size)
    out = []
    for g, (dy, dx) in enumerate(dirs):
        chans = np.nonzero(gidx == g)[0]
        if not chans.size:
            continue
        if chans.size == chans[-1] - chans[0] + 1:
            indexer = slice(int(chans[0]), int(chans[-1]) + 1)
        else:
            indexer = chans
        out.append(((dy * spec.dilation, dx * spec.dilation), indexer))
    return out


def _negated(spec: ShiftSpec) -> ShiftSpec:
    return ShiftSpec(spec.channels, spec.kernel_size, spec.dilation,
                     spec.permutation_id,
                     tuple((-dy, -dx) for dy, dx in spec.displacements))


def shift_forward(x: np.ndarray, spec: ShiftSpec) -> np.ndarray:
    """Translate each channel by its displacement; vacated positions read zero.

    out[b, m, k, l] = x[b, m, k + dy_m, l + dx_m], with out-of-range reads as 0.
    Performs no arithmetic, only strided copies within each channel plane.
    """
    if x.shape[1] != spec.channels:
        raise ValueError(f"channel mismatch: input has {x.shape[1]}, "
                         f"spec expects {spec.channels}")
    _, _, h, w = x.shape
    out = np.zeros_like(x)
    for (dy, dx), chans in channel_groups(spec):
        r0, r1 = max(0, -dy), min(h, h - dy)
        c0, c1 = max(0, -dx), min(w, w - dx)
        if r0 >= r1 or c0 >= c1:
            continue
        out[:, chans, r0:r1, c0:c1] = x[:, chans, r0 + dy:r1 + dy, c0 + dx:c1 + dx]
    return out


def shift_backward(dout: np.ndarray, spec: ShiftSpec) -> np.ndarray:
    """Adjoint of shift_forward: the same movement with every displacement negated."""
    if dout.shape[1] != spec.channels:
        raise ValueError(f"channel mismatch: gradient has {dout.shape[1]}, "
                         f"spec expects {spec.channels}")
    return shift_forward(dout, _negated(spec))


def one_hot_depthwise_kernel(spec: ShiftSpec, dtype=np.float32) -> ConvKernel:
    """The depthwise kernel a shift is equivalent to: one-hot per channel.

    Kernel side grows with dilation so every displacement fits; padding is
    set for same-size output, matching shift_forward's zero boundary exactly.
    """
    reach = (spec.kernel_size // 2) * spec.dilation
    side = 2 * reach + 1
    w = np.zeros((side, side, spec.channels), dtype=dtype)
    for m, (dy, dx) in enumerate(spec.displacements):
        w[reach + dy, reach + dx, m] = 1.0
    return ConvKernel(w, stride=1, padding=reach)


def fused_shift_pointwise(x: np.ndarray, spec: ShiftSpec, kernel: ConvKernel) -> np.ndarray:
    """Shift followed by 1x1 convolution without materializing the shifted tensor.

    For each shift group the 1x1 kernel rows are applied directly to the
    group's channels read at their displaced (and output-strided) source
    coordinates, accumulating into the output. Numerically equal to
    conv2d_pointwise(shift_forward(x, spec), kernel) up to float
    accumulation order.
    """
    if x.shape[1] != spec.channels:
        raise ValueError(f"channel mismatch: input has {x.shape[1]}, "
                         f"spec expects {spec.channels}")
    w = kernel.weights
    if w.shape[0] != spec.channels:
        raise ValueError(f"channel mismatch: kernel expects {w.shape[0]}, "
                         f"spec has {spec.channels}")
    s = kernel.stride
    b, _, h, wd = x.shape
    ho = (h + s - 1) // s
    wo = (wd + s - 1) // s
    out = np.zeros((b, w.shape[1], ho, wo), dtype=x.dtype)
    for (dy, dx), chans in channel_groups(spec):
        # output rows k with 0 <= s*k + dy < h
        k0 = max(0, math.ceil(-dy / s))
        k1 = min(ho, (h - 1 - dy) // s + 1)
        l0 = max(0, math.ceil(-dx / s))
        l1 = min(wo, (wd - 1 - dx) // s + 1)
        if k0 >= k1 or l0 >= l1:
            continue
        src = x[:, chans,
                s * k0 + dy:s * (k1 - 1) + dy + 1:s,
                s * l0 + dx:s * (l1 - 1) + dx + 1:s]
        part = np.tensordot(src, w[chans], axes=([1], [0]))  # (b, ho', wo', n)
        out[:, :, k0:k1, l0:l1] += part.transpose(0, 3, 1, 2)
    return out


def unfused_shift_pointwise(x: np.ndarray, spec: ShiftSpec, kernel: ConvKernel) -> np.ndarray:
    """Two-step reference: materialize the shifted tensor, then 1x1 convolve."""
    return conv2d_pointwise(shift_forward(x, spec), kernel)
