"""Acceptance suite: one test per criterion, one PASS/FAIL line each (run with -s).

Criterion 3's published FLOP total is not reproducible under the documented
counting convention (see REFERENCE_FLOPS_NOTE below); that check is
implemented exactly as stated and is expected to stay red. Everything else
must pass.
"""

import os
from dataclasses import replace

import numpy as np
import pytest

from gradcheck import check_block_gradients, fd_gradient, max_rel_error
from shiftnet import ops
from shiftnet.accounting import cost_report, count_flops, count_params, reduction_report
from shiftnet.bench import default_suite
from shiftnet.blocks import BasicBlock, CscBlock, CscConfig, SeedStream
from shiftnet.nets import (build_resnet, build_shiftnet, build_shiftresnet,
                           reduce_resnet)
from shiftnet.ops import BatchNormState, ConvKernel
from shiftnet.pipeline import (TrainSchedule, evaluate, load_checkpoint,
                               load_cifar10, save_checkpoint, synth_dataset,
                               train, write_cifar10_batches, Dataset)
from shiftnet.analysis import (contribution_norms, correlation_matrix,
                               record_activations)
from shiftnet.shift import (make_shift_spec, one_hot_depthwise_kernel,
                            shift_forward, unfused_shift_pointwise,
                            fused_shift_pointwise)


def _report(criterion, ok, detail):
    print(f"\ncriterion {criterion}: {'PASS' if ok else 'FAIL'} -- {detail}")


def _within(value, target, tol):
    return abs(value - target) <= tol * target


# --- criterion 1: parameter-count reproduction ----------------------------

PARAM_TARGETS = [
    ("shiftresnet56-3", lambda: build_shiftresnet(56, 3), 0.29e6, 0.05),
    ("resnet56", lambda: build_resnet(56), 0.87e6, 0.05),
    ("shiftresnet20-1", lambda: build_shiftresnet(20, 1), 0.03e6, 0.10),
    ("shiftresnet20-3", lambda: build_shiftresnet(20, 3), 0.10e6, 0.10),
    ("shiftresnet20-6", lambda: build_shiftresnet(20, 6), 0.19e6, 0.10),
    ("shiftresnet20-9", lambda: build_shiftresnet(20, 9), 0.28e6, 0.10),
    ("shiftresnet110-1", lambda: build_shiftresnet(110, 1), 0.20e6, 0.10),
    ("shiftresnet110-3", lambda: build_shiftresnet(110, 3), 0.59e6, 0.10),
    ("shiftresnet110-6", lambda: build_shiftresnet(110, 6), 1.18e6, 0.10),
    ("shiftresnet110-9", lambda: build_shiftresnet(110, 9), 1.76e6, 0.10),
    ("shiftresnet110-1/abs", lambda: build_shiftresnet(110, 1), 203e3, 0.05),
    ("shiftnet-a", lambda: build_shiftnet("a"), 4.1e6, 0.05),
    ("shiftnet-b", lambda: build_shiftnet("b"), 1.1e6, 0.10),
    ("shiftnet-c", lambda: build_shiftnet("c"), 0.78e6, 0.10),
]


def test_criterion_01_parameter_counts():
    failures = []
    for name, make, target, tol in PARAM_TARGETS:
        got = count_params(make())
        if not _within(got, target, tol):
            failures.append(f"{name}: {got} vs {target:.0f} +/-{tol:.0%}")
    ok = not failures
    _report(1, ok, f"{len(PARAM_TARGETS)} builder counts vs published totals"
            + ("" if ok else f"; failures: {failures}"))
    assert ok, failures


# --- criterion 2: reduction-rate reproduction ------------------------------

RATE_TABLE = {
    (20, 1): 7.8, (20, 3): 2.9, (20, 6): 1.5, (20, 9): 0.98,
    (56, 1): 8.4, (56, 3): 2.9, (56, 6): 1.5, (56, 9): 0.98,
    (110, 1): 8.5, (110, 3): 2.9, (110, 6): 1.5, (110, 9): 0.98,
}


def test_criterion_02_reduction_rates():
    failures = []
    base = {d: cost_report(build_resnet(d), 32) for d in (20, 56, 110)}
    for (depth, eps), expected in RATE_TABLE.items():
        rep = cost_report(build_shiftresnet(depth, eps), 32)
        prate, _ = reduction_report(base[depth], rep)
        if not _within(prate, expected, 0.15):
            failures.append(f"{depth}/{eps}: {prate:.2f} vs {expected}")
    ok = not failures
    _report(2, ok, "12 parameter reduction rates within 15%"
            + ("" if ok else f"; failures: {failures}"))
    assert ok, failures


# --- criterion 3: FLOP sanity ----------------------------------------------

REFERENCE_FLOPS_NOTE = (
    "The published 26M total for this configuration is not reproducible under "
    "the documented convention (one MAC per kernel tap per output position, "
    "flops_2x = 2*MACs, elementwise ops excluded): the parameter-exact "
    "architecture yields 16.17M MACs / 32.34M flops_2x. No architecture "
    "satisfying the parameter criteria lands within 15% of 26M under either "
    "convention, so this check is expected to fail; the zero-cost shift law "
    "it anchors is verified separately below."
)


def test_criterion_03a_shift_layers_cost_nothing():
    reports = [cost_report(build_shiftresnet(d, e), 32)
               for d in (20, 56) for e in (1, 3)]
    reports.append(cost_report(build_shiftnet("c"), 32))
    bad = []
    n_shift = 0
    for rep in reports:
        for name, params, macs, _ in rep.per_layer:
            if ".shift" in name:
                n_shift += 1
                if params != 0 or macs != 0:
                    bad.append(name)
    ok = not bad and n_shift > 0
    _report("3a", ok, f"every shift layer ({n_shift} across 5 nets) contributes "
            f"exactly 0 params / 0 FLOPs")
    assert ok, bad


def test_criterion_03b_flops_anchor_26m():
    got = count_flops(build_shiftresnet(20, 3), 32, "flops_2x")
    ok = _within(got, 26e6, 0.15)
    macs = count_flops(build_shiftresnet(20, 3), 32, "macs")
    _report("3b", ok, f"flops_2x(shiftresnet20-3 @32) = {got} vs 26M +/-15% "
            f"(macs convention: {macs}). {REFERENCE_FLOPS_NOTE if not ok else ''}")
    assert ok, REFERENCE_FLOPS_NOTE


# --- criterion 4: shift / one-hot depthwise equivalence --------------------

def test_criterion_04_shift_equivalence_oracle():
    rng = np.random.default_rng(2024)
    cases = 0
    for _ in range(110):
        m = int(rng.integers(1, 48))
        k = int(rng.choice([1, 3, 5]))
        d = int(rng.integers(1, 3))
        pid = int(rng.integers(0, 6))
        h = int(rng.integers(4, 13))
        w = int(rng.integers(4, 13))
        b = int(rng.integers(1, 3))
        spec = make_shift_spec(m, k, d, pid)
        x = rng.normal(size=(b, m, h, w)).astype(np.float32)
        want = ops.conv2d_depthwise(x, one_hot_depthwise_kernel(spec))
        got = shift_forward(x, spec)
        assert np.array_equal(got, want), (m, k, d, pid, h, w)
        cases += 1
    _report(4, True, f"{cases} randomized specs bit-identical to one-hot depthwise")


# --- criterion 5: permutation equivalence ----------------------------------

def _permuted_clone(block, cfg, perm):
    clone = CscBlock(cfg, SeedStream(0))
    for field in ("gamma", "beta", "running_mean", "running_var"):
        getattr(clone.bn1.state, field)[...] = getattr(block.bn1.state, field)
        getattr(clone.bn2.state, field)[...] = getattr(block.bn2.state, field)[perm]
    clone.pw1.weight.value[...] = block.pw1.weight.value[:, perm]
    clone.pw2.weight.value[...] = block.pw2.weight.value[perm, :]
    clone.spec = replace(block.spec,
                         displacements=tuple(block.spec.displacements[j] for j in perm))
    clone.shift.spec = clone.spec
    if cfg.variant == "sc2":
        clone.shift0.spec = block.shift0.spec
    return clone


def test_criterion_05_permutation_equivalence():
    rng = np.random.default_rng(77)
    checked = 0
    worst = 0.0
    for trial in range(22):
        cin = int(rng.integers(3, 8))
        stride = int(rng.choice([1, 2]))
        cout = cin if stride == 1 else 2 * cin
        mode = "add" if trial % 2 == 0 else "concat"
        variant = "sc2" if trial % 5 == 0 else "csc"
        cfg = CscConfig(cin, cout, float(rng.choice([1, 2, 3])), stride=stride,
                        variant=variant, downsample=mode)
        block = CscBlock(cfg, SeedStream(trial))
        mid = cfg.mid_channels
        block.bn2.state.running_mean[:] = rng.normal(size=mid)
        block.bn2.state.running_var[:] = rng.uniform(0.5, 2.0, size=mid)
        block.bn2.state.gamma[:] = rng.normal(size=mid)
        block.bn2.state.beta[:] = rng.normal(size=mid)
        x = rng.normal(size=(2, cin, 8, 8)).astype(np.float32)
        base = block.forward(x, "eval")
        perm = rng.permutation(mid)
        permuted = _permuted_clone(block, cfg, perm).forward(x, "eval")
        rel = np.max(np.abs(base - permuted)) / max(np.max(np.abs(base)), 1e-12)
        worst = max(worst, rel)
        assert rel <= 1e-6, (trial, rel)
        checked += 1
    _report(5, True, f"{checked} randomized blocks, worst relative deviation "
            f"{worst:.2e} <= 1e-6")


# --- criterion 6: gradient suite --------------------------------------------

def test_criterion_06_gradient_suite():
    rng = np.random.default_rng(99)
    worst = 0.0

    def track(analytic, loss, arr, probe=None):
        nonlocal worst
        numeric, mask = fd_gradient(loss, arr, probe=probe)
        err = max_rel_error(analytic, numeric, mask)
        worst = max(worst, err)
        assert err < 1e-4, err

    # spatial conv
    x = rng.normal(size=(2, 3, 6, 6))
    w = rng.normal(size=(3, 3, 3, 4))
    k = ConvKernel(w, 2, 1)
    dout = rng.normal(size=ops.conv2d_spatial(x, k).shape)
    loss = lambda: float(np.sum(ops.conv2d_spatial(x, k) * dout))
    dx, dw = ops.conv2d_spatial_backward(dout, x, k)
    track(dx, loss, x)
    track(dw, loss, w)

    # depthwise conv
    x = rng.normal(size=(2, 4, 6, 6))
    w = rng.normal(size=(3, 3, 4))
    k = ConvKernel(w, 1, 1)
    dout = rng.normal(size=x.shape)
    loss = lambda: float(np.sum(ops.conv2d_depthwise(x, k) * dout))
    dx, dw = ops.conv2d_depthwise_backward(dout, x, k)
    track(dx, loss, x)
    track(dw, loss, w)

    # pointwise conv, strided
    x = rng.normal(size=(2, 5, 5, 5))
    w = rng.normal(size=(5, 3))
    k = ConvKernel(w, 2)
    dout = rng.normal(size=ops.conv2d_pointwise(x, k).shape)
    loss = lambda: float(np.sum(ops.conv2d_pointwise(x, k) * dout))
    dx, dw = ops.conv2d_pointwise_backward(dout, x, k)
    track(dx, loss, x)
    track(dw, loss, w)

    # shift (linear, exact adjoint)
    spec = make_shift_spec(6, 3)
    x = rng.normal(size=(2, 6, 5, 5))
    dout = rng.normal(size=x.shape)
    loss = lambda: float(np.sum(shift_forward(x, spec) * dout))
    from shiftnet.shift import shift_backward
    track(shift_backward(dout, spec), loss, x)

    # batch norm (train mode)
    x = rng.normal(size=(3, 4, 5, 5))
    gamma = rng.normal(size=4)
    beta = rng.normal(size=4)
    dout = rng.normal(size=x.shape)

    def bn_loss():
        st = BatchNormState.create(4, np.float64)
        st.gamma[:] = gamma
        st.beta[:] = beta
        y, _ = ops.batchnorm_forward(x, st, "train")
        return float(np.sum(y * dout))

    st = BatchNormState.create(4, np.float64)
    st.gamma[:] = gamma
    st.beta[:] = beta
    _, cache = ops.batchnorm_forward(x, st, "train")
    dx, dg, db = ops.batchnorm_backward(dout, cache)
    track(dx, bn_loss, x)
    track(dg, bn_loss, gamma)
    track(db, bn_loss, beta)

    # relu (probe masks kink-crossing stencils)
    x = rng.normal(size=(2, 3, 4, 4))
    dout = rng.normal(size=x.shape)
    loss = lambda: float(np.sum(ops.relu(x) * dout))
    track(ops.relu_backward(dout, x), loss, x, probe=lambda: (x > 0).ravel())

    # pools, fc, softmax cross-entropy
    x = rng.normal(size=(2, 3, 4, 4))
    dout = rng.normal(size=(2, 3, 2, 2))
    loss = lambda: float(np.sum(ops.avgpool2x2(x) * dout))
    track(ops.avgpool2x2_backward(dout, x), loss, x)

    dg2 = rng.normal(size=(2, 3))
    loss = lambda: float(np.sum(ops.global_avgpool(x) * dg2))
    track(ops.global_avgpool_backward(dg2, x), loss, x)

    xf = rng.normal(size=(4, 6))
    wf = rng.normal(size=(6, 3))
    bf = rng.normal(size=3)
    df = rng.normal(size=(4, 3))
    loss = lambda: float(np.sum(ops.fc_forward(xf, wf, bf) * df))
    dxf, dwf, dbf = ops.fc_backward(df, xf, wf)
    track(dxf, loss, xf)
    track(dwf, loss, wf)
    track(dbf, loss, bf)

    logits = rng.normal(size=(5, 7))
    labels = rng.integers(0, 7, size=5)
    _, probs = ops.softmax_xent(logits, labels)
    track(ops.softmax_xent_backward(probs, labels),
          lambda: ops.softmax_xent(logits, labels)[0], logits)

    # whole blocks, all variants
    block_cases = [
        (CscConfig(4, 4, 2.0), (2, 4, 6, 6)),
        (CscConfig(4, 8, 2.0, stride=2), (2, 4, 6, 6)),
        (CscConfig(4, 8, 2.0, stride=2, downsample="concat"), (2, 4, 6, 6)),
        (CscConfig(4, 4, 2.0, variant="sc2"), (2, 4, 6, 6)),
    ]
    for i, (cfg, shape) in enumerate(block_cases):
        block = CscBlock(cfg, SeedStream(i), dtype=np.float64)
        err = check_block_gradients(block, rng.normal(size=shape), rng,
                                    relus=[block.relu1, block.relu2])
        worst = max(worst, err)
    for stride, cout in ((1, 4), (2, 8)):
        block = BasicBlock(4, cout, stride, SeedStream(9), dtype=np.float64)
        err = check_block_gradients(block, rng.normal(size=(2, 4, 6, 6)), rng,
                                    relus=[block.relu1])
        worst = max(worst, err)

    _report(6, True, f"all ops + CSC/SC2/basic blocks, worst rel error {worst:.2e} < 1e-4")


# --- criterion 7: fused kernel correctness ----------------------------------

def test_criterion_07_fused_kernel():
    rng = np.random.default_rng(55)
    worst = 0.0
    checked = 0
    for case in default_suite():
        if case.kind != "shift_pointwise":
            continue
        spec = make_shift_spec(case.channels, case.kernel)
        x = rng.normal(size=(2, case.channels, case.feature, case.feature)).astype(np.float32)
        p = ConvKernel(rng.normal(size=(case.channels, case.out_channels)).astype(np.float32),
                       case.stride)
        fused = fused_shift_pointwise(x, spec, p)
        two_step = unfused_shift_pointwise(x, spec, p)
        rel = np.max(np.abs(fused - two_step)) / max(np.max(np.abs(two_step)), 1e-12)
        worst = max(worst, rel)
        assert rel <= 1e-6
        checked += 1
    for _ in range(20):
        m = int(rng.integers(2, 40))
        n = int(rng.integers(1, 24))
        f = int(rng.integers(4, 16))
        k = int(rng.choice([1, 3, 5]))
        s = int(rng.choice([1, 2]))
        d = int(rng.integers(1, 3))
        spec = make_shift_spec(m, k, d)
        x = rng.normal(size=(2, m, f, f)).astype(np.float32)
        p = ConvKernel(rng.normal(size=(m, n)).astype(np.float32), s)
        fused = fused_shift_pointwise(x, spec, p)
        two_step = unfused_shift_pointwise(x, spec, p)
        rel = np.max(np.abs(fused - two_step)) / max(np.max(np.abs(two_step)), 1e-12)
        worst = max(worst, rel)
        assert rel <= 1e-6
        checked += 1
    _report(7, True, f"{checked} configurations, fused == two-step within "
            f"{worst:.2e} <= 1e-6")


# --- criterion 8: desk-scale trainability -----------------------------------

def _cifar_subset(tmp_path):
    """Real CIFAR-10 if a data dir is provided, else a stand-in written in the
    exact binary batch format (exercising the same loader path)."""
    for var in ("CIFAR10_DIR", "SHIFTNET_DATA_DIR"):
        d = os.environ.get(var)
        if d and os.path.exists(os.path.join(d, "test_batch.bin")):
            train_ds, _ = load_cifar10(d)
            return train_ds, True
    standin_dir = str(tmp_path / "standin_cifar")
    blobs = synth_dataset(2600, 10, seed=11)
    u8 = np.clip((blobs.images / 6.0 + 0.5) * 255.0, 0, 255).astype(np.uint8)
    write_cifar10_batches(standin_dir, u8, blobs.labels.astype(np.uint8))
    train_ds, _ = load_cifar10(standin_dir)
    return train_ds, False


@pytest.mark.slow
def test_criterion_08a_synthetic_overfit():
    net = build_shiftresnet(20, 1, num_classes=10, seed=0)
    ds = synth_dataset(256, 10, seed=3)
    sched = TrainSchedule(max_iters=2000, base_lr=0.05, batch_size=32,
                          lr_decay_points=(1000, 1500), momentum=0.9,
                          weight_decay=1e-4, seed=0, log_every=1)
    log = train(net, ds, sched)
    top1, _ = evaluate(net, ds)
    losses = log.losses()
    early = float(np.median(losses[0:500]))
    late = float(np.median(losses[1500:2000]))
    ok = top1 >= 0.99 and late < 0.01 * early
    _report("8a", ok, f"synthetic 256-example overfit: train top1 {top1:.4f} "
            f">= 0.99 within 2000 iters; median loss ratio {late / early:.2e} < 0.01")
    assert top1 >= 0.99
    assert late < 0.01 * early


@pytest.mark.slow
def test_criterion_08b_cifar_subset(tmp_path):
    full, is_real = _cifar_subset(tmp_path)
    subset = Dataset(full.images[:2000], full.labels[:2000], "train",
                     full.num_classes, full.mean, full.std)
    net = build_shiftresnet(20, 1, num_classes=10, seed=0)
    iters = 3000 if is_real else 1000
    sched = TrainSchedule(max_iters=iters, base_lr=0.05, batch_size=32,
                          lr_decay_points=(int(iters * 0.7),), momentum=0.9,
                          weight_decay=1e-4, seed=0, log_every=50)
    train(net, subset, sched)
    top1, loss = evaluate(net, subset)
    source = "real CIFAR-10" if is_real else "binary-format stand-in (no CIFAR data present)"
    ok = top1 >= 0.60
    _report("8b", ok, f"2000-image subset ({source}): train top1 {top1:.4f} "
            f">= 0.60 within {iters} iters")
    assert ok


# --- criterion 9: analysis reproduction -------------------------------------

def test_criterion_09_analysis_structure(tmp_path):
    net = build_shiftresnet(20, 9, num_classes=10, seed=1)
    ds = synth_dataset(64, 10, seed=5)
    sched = TrainSchedule(max_iters=12, base_lr=0.02, batch_size=8,
                          lr_decay_points=(), seed=0, log_every=4)
    train(net, ds, sched, out_checkpoint=str(tmp_path / "ck.json"))
    loaded, _ = load_checkpoint(str(tmp_path / "ck.json"))

    block = dict(loaded.named_blocks())["group1.block0"]
    assert block.cfg.in_channels == 16 and block.cfg.mid_channels == 144
    trace = record_activations(loaded, ds, "group1.block0", max_images=32)
    shapes = []
    for g in range(9):
        corr = correlation_matrix(trace, g)
        assert corr.shape == (16, 16)
        assert np.all(np.diag(corr) == 1.0)
        shapes.append(corr.shape)
    v = contribution_norms(block.pw2.weight.value)
    ok = len(v) == 144 and v.max() == 1.0 and len(shapes) == 9
    _report(9, ok, "16-in/144-mid module: 9 shift groups with 16x16 unit-diagonal "
            f"correlation matrices; contribution vector length {len(v)}, max {v.max():.2f}")
    assert ok


# --- criterion 10: persistence ----------------------------------------------

def test_criterion_10_checkpoint_persistence(tmp_path):
    rng = np.random.default_rng(10)
    x = rng.normal(size=(2, 3, 32, 32)).astype(np.float32)
    builders = [
        ("resnet20", lambda: build_resnet(20, seed=2)),
        ("shiftresnet20-1", lambda: build_shiftresnet(20, 1, seed=2)),
        ("shiftresnet56-3", lambda: build_shiftresnet(56, 3, seed=2)),
        ("shiftnet-a", lambda: build_shiftnet("a", seed=2)),
        ("shiftnet-b", lambda: build_shiftnet("b", seed=2)),
        ("shiftnet-c", lambda: build_shiftnet("c", seed=2)),
        ("reduced-module", lambda: reduce_resnet(20, 150_000, "module_wise", seed=2)),
        ("reduced-net", lambda: reduce_resnet(20, 150_000, "net_wise", seed=2)),
    ]
    for name, make in builders:
        net = make()
        # non-trivial running stats so persistence covers them too
        net.forward(x, "train")
        before = net.forward(x, "eval")
        path = str(tmp_path / f"{name}.json")
        save_checkpoint(net, path)
        clone, _ = load_checkpoint(path)
        after = clone.forward(x, "eval")
        assert np.array_equal(before, after), name
    _report(10, True, f"{len(builders)} builders: save -> load -> forward "
            "bit-identical logits")
