"""Channel-wise spatial shifts: pure memory movement in place of spatial kernels.

Each channel of an NCHW tensor is translated by a fixed per-channel
displacement drawn from a k x k window (scaled by a dilation factor).
Positions shifted in from outside the tensor read as zero, which makes a
shift exactly equivalent to a depthwise convolution whose kernel is one-hot
per channel -- without the multiplications. A shift therefore costs zero
parameters and zero FLOPs; only memory moves. Which channels move where is
worked out once, when a ShiftSpec is built; the movers only read the spec.

Channel-to-displacement assignment follows the even-split heuristic: with M
channels and window side k, each of the k*k - 1 off-center displacements
gets floor(M / k^2) channels (window raster order, center last) and every
remaining channel stays unshifted in the "center" group. Because a shift is
always sandwiched between two learned 1x1 convolutions, any permutation of
the assignment yields an equivalent end-to-end function, so one fixed
assignment (selectable via permutation_id) is as good as any other.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .ops import ConvKernel, conv2d, out_size


@dataclass(frozen=True)
class ShiftSpec:
    """Per-channel displacement table and the channel groups it implies.

    displacements[m] is the (dy, dx) translation of channel m, with
    dy, dx in [-(kernel_size // 2) * dilation, +(kernel_size // 2) * dilation].
    Specs serialize as (channels, kernel_size, dilation, permutation_id);
    the displacement table is always recomputed, never stored. A table whose
    length is not `channels`, or that leaves the dilated window, raises ValueError.

    Validating the table also derives, once per spec, `group_ids` (each
    channel's group, in window_directions order) and `groups` (each non-empty
    group's displacement and channels: a slice when contiguous, else an index
    array). Equality and hashing read the five fields only.
    """

    channels: int
    kernel_size: int
    dilation: int
    permutation_id: int
    displacements: tuple[tuple[int, int], ...]
    group_ids: np.ndarray = field(init=False, repr=False, compare=False)
    groups: tuple = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if len(self.displacements) != self.channels:
            raise ValueError(f"{len(self.displacements)} displacements for "
                             f"{self.channels} channels")
        d = self.dilation
        window = {(dy * d, dx * d): g
                  for g, (dy, dx) in enumerate(window_directions(self.kernel_size))}
        ids = []
        for disp in self.displacements:
            if disp not in window:
                raise ValueError(f"displacement {disp} is not a position of the "
                                 f"{self.kernel_size}x{self.kernel_size} window "
                                 f"at dilation {d}")
            ids.append(window[disp])
        object.__setattr__(self, "group_ids", np.array(ids, dtype=np.int64))
        self.group_ids.flags.writeable = False
        groups = []
        for disp, g in window.items():
            chans = np.flatnonzero(self.group_ids == g)
            if chans.size:
                contiguous = chans[-1] - chans[0] + 1 == chans.size
                groups.append((disp, slice(int(chans[0]), int(chans[-1]) + 1)
                               if contiguous else chans))
        object.__setattr__(self, "groups", tuple(groups))


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


def _spans(spec: ShiftSpec, plane: tuple[int, int], stride: int):
    """Per group: its channels, the output rows [k0, k1) and columns [l0, l1)
    whose source s*k + dy, s*l + dx lies on the plane, and those sources as
    slices, or None if the group has none."""
    (h, w), s = plane, stride
    ho, wo = out_size(h, 1, s, 0), out_size(w, 1, s, 0)
    for (dy, dx), chans in spec.groups:
        k0, k1 = max(0, -(dy // s)), min(ho, (h - 1 - dy) // s + 1)
        l0, l1 = max(0, -(dx // s)), min(wo, (w - 1 - dx) // s + 1)
        src = None
        if k0 < k1 and l0 < l1:
            src = (slice(s * k0 + dy, s * (k1 - 1) + dy + 1, s),
                   slice(s * l0 + dx, s * (l1 - 1) + dx + 1, s))
        yield chans, (k0, k1), (l0, l1), src


def _check(x: np.ndarray, spec: ShiftSpec, what: str):
    if x.shape[1] != spec.channels:
        raise ValueError(f"channel mismatch: {what} has {x.shape[1]}, "
                         f"spec expects {spec.channels}")


def shift_forward(x: np.ndarray, spec: ShiftSpec, stride: int = 1) -> np.ndarray:
    """Translate each channel by its displacement; vacated positions read zero.

    out[b, m, k, l] = x[b, m, s*k + dy_m, s*l + dx_m]: at stride s only the
    positions a stride-s 1x1 reads. Strided copies within each channel plane.
    """
    _check(x, spec, "input")
    b, c, h, w = x.shape
    out = np.empty((b, c, out_size(h, 1, stride, 0), out_size(w, 1, stride, 0)),
                   dtype=x.dtype)
    for chans, (k0, k1), (l0, l1), src in _spans(spec, (h, w), stride):
        if not src:
            out[:, chans] = 0
            continue
        out[:, chans, k0:k1, l0:l1] = x[:, chans, src[0], src[1]]
        # zero only the strips the translation vacated
        out[:, chans, :k0] = out[:, chans, k1:] = 0
        out[:, chans, :, :l0] = out[:, chans, :, l1:] = 0
    return out


def shift_backward(dout: np.ndarray, spec: ShiftSpec, stride: int = 1,
                   plane: tuple[int, int] | None = None) -> np.ndarray:
    """Adjoint of shift_forward: a scatter into zeros of the input's `plane`
    (h, w). At stride 1 the plane defaults to dout's; at stride s > 1 dout's
    shape leaves it ambiguous (sides 2n - 1 and 2n both halve to n)."""
    _check(dout, spec, "gradient")
    if plane is None and stride == 1:
        plane = dout.shape[2:]
    if plane is None or tuple(out_size(n, 1, stride, 0) for n in plane) != dout.shape[2:]:
        raise ValueError(f"a stride-{stride} shift's adjoint needs the input plane "
                         f"of its {dout.shape[2]}x{dout.shape[3]} output, got {plane}")
    grad = np.zeros(dout.shape[:2] + tuple(plane), dtype=dout.dtype)
    for chans, (k0, k1), (l0, l1), src in _spans(spec, plane, stride):
        if src:
            grad[:, chans, src[0], src[1]] = dout[:, chans, k0:k1, l0:l1]
    return grad


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
    unfused_shift_pointwise (the strided shift, then a stride-1 1x1) up to
    float accumulation order.

    Measured slower than that two-step form, so it is kept only as criterion
    7's oracle and the benchmark's comparison: over the blocks of one
    shiftresnet20-1 training step (batch 32, float32, one BLAS thread, 2-core
    x86) it took 67.6 ms against 8.95 ms. Its per-group matmuls have K = m/9
    and run far below one matmul's rate, and the shift copy it avoids is cheap.
    """
    _check(x, spec, "input")
    w = kernel.weights
    if w.shape[0] != spec.channels:
        raise ValueError(f"channel mismatch: kernel expects {w.shape[0]}, "
                         f"spec has {spec.channels}")
    s = kernel.stride
    b, _, h, wd = x.shape
    ho, wo = out_size(h, 1, s, 0), out_size(wd, 1, s, 0)
    out = np.zeros((b, w.shape[1], ho, wo), dtype=x.dtype)
    for chans, (k0, k1), (l0, l1), src in _spans(spec, (h, wd), s):
        if src:
            part = np.tensordot(x[:, chans, src[0], src[1]], w[chans],
                                axes=([1], [0]))              # (b, ho', wo', n)
            out[:, :, k0:k1, l0:l1] += part.transpose(0, 3, 1, 2)
    return out


def unfused_shift_pointwise(x: np.ndarray, spec: ShiftSpec, kernel: ConvKernel) -> np.ndarray:
    """What a CscBlock runs: the shift at the kernel's stride, then a stride-1 1x1."""
    return conv2d(shift_forward(x, spec, kernel.stride), ConvKernel(kernel.weights))
