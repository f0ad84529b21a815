"""Central finite-difference gradient checking (float64, h=1e-4).

ReLU makes the loss piecewise-smooth: a coordinate whose +/-h stencil flips
any unit's active set has no valid two-sided difference there. The checker
therefore takes an optional probe returning the current active-set pattern.
Where the pattern differs between the two evaluations, the coordinate is
retried with the step cut by 10x, up to RETRIES times (1e-4 down to 1e-8),
and masked out only if every step flips a unit; everything else must match
the analytic gradient tightly.
"""

from __future__ import annotations

import numpy as np

H = 1e-4
TOL = 1e-4
RETRIES = 4


def fd_gradient(f, x, h=H, probe=None):
    """Numeric gradient of scalar f() w.r.t. array x (perturbed in place).

    Returns (gradient, valid_mask); the mask is all-True without a probe.
    """
    grad = np.zeros_like(x, dtype=np.float64)
    ok = np.ones(x.shape, dtype=bool)
    it = np.nditer(x, flags=["multi_index"])
    while not it.finished:
        i = it.multi_index
        orig = x[i]
        step = h
        for _ in range(RETRIES + 1):
            x[i] = orig + step
            f_plus = f()
            pat_plus = probe() if probe else None
            x[i] = orig - step
            f_minus = f()
            pat_minus = probe() if probe else None
            x[i] = orig
            grad[i] = (f_plus - f_minus) / (2.0 * step)
            ok[i] = probe is None or np.array_equal(pat_plus, pat_minus)
            if ok[i]:
                break
            step /= 10.0
        it.iternext()
    return grad, ok


def max_rel_error(analytic, numeric, mask=None) -> float:
    a = np.asarray(analytic, dtype=np.float64)
    n = np.asarray(numeric, dtype=np.float64)
    diff = np.abs(a - n)
    if mask is not None:
        if not mask.any():
            raise AssertionError("no stable coordinates to compare")
        diff = diff[mask]
    denom = max(np.max(np.abs(a)), np.max(np.abs(n)), 1e-8)
    return float(np.max(diff) / denom)


def check_block_gradients(block, x, rng, relus=(), tol=TOL, h=H) -> float:
    """Gradient-check a block's input and every parameter; returns the worst error."""
    y0 = block.forward(x.copy(), "train")
    dout = rng.normal(size=y0.shape)

    def loss():
        return float(np.sum(block.forward(x, "train") * dout))

    def probe():
        return np.concatenate([(r._saved > 0).ravel() for r in relus]) if relus else None

    block.forward(x, "train")
    for _, p in block.params():
        p.grad[...] = 0
    dx = block.backward(dout)

    worst = 0.0
    numeric, mask = fd_gradient(loss, x, h, probe if relus else None)
    err = max_rel_error(dx, numeric, mask)
    assert err < tol, f"input gradient error {err:.3e}"
    worst = max(worst, err)
    for name, p in block.params():
        numeric, mask = fd_gradient(loss, p.value, h, probe if relus else None)
        err = max_rel_error(p.grad, numeric, mask)
        assert err < tol, f"{name} gradient error {err:.3e}"
        worst = max(worst, err)
    return worst
