"""Modeled work joined to layers, checked against hand counts."""

import pytest

from shiftnet.nets import ArchRow, Network

from perfbench import join


def _strided_csc():
    # one conv-shift-conv block, 16 -> 32 channels at stride 2, expansion 1:
    # mid = 32 channels, pw2 carries the stride (32x32 in, 16x16 out)
    return Network("one-csc", [ArchRow("g", "csc", 32, stride=2, expansion=1.0)],
                   num_classes=10, input_channels=16)


def test_strided_csc_block_against_hand_counts():
    models = join.layer_models(_strided_csc(), input_size=32)
    assert list(models) == ["g.block0.bn1", "g.block0.pw1", "g.block0.bn2",
                            "g.block0.shift", "g.block0.pw2"]
    pw1, shift, pw2 = (models[f"g.block0.{n}"] for n in ("pw1", "shift", "pw2"))
    # pw1: 16 -> 32 at 32x32
    assert pw1.macs == 16 * 32 * 32 * 32
    assert pw1.words == 32 * 32 * (16 + 32) + 16 * 32
    # shift: 32 channels moved at 32x32, read and written, no arithmetic
    assert shift.macs == 0
    assert shift.words == 32 * 32 * 2 * 32
    # pw2: 32 -> 32 at the strided 16x16 output, a quarter of the unstrided MACs
    assert pw2.macs == 32 * 32 * 16 * 16
    assert pw2.words == 16 * 16 * (32 + 32) + 32 * 32
    # batch norm is not modeled in words; its bytes are computed at run time
    assert models["g.block0.bn1"].words == 0 and models["g.block0.bn1"].macs == 0
    assert join.kind_totals(models)["pointwise"] == (pw1.macs + pw2.macs,
                                                     pw1.words + pw2.words)
    assert join.per_image(models) == (786432, 49664 + 65536 + 17408)


def test_rates():
    # 2 images x 100 MACs forward in 1 ms; backward does 2x forward in 2 ms
    assert join.mac_rate(100, 2, 1.0, 0.0) == pytest.approx(200 / 1e-3 / 1e9)
    assert join.mac_rate(100, 2, 1.0, 2.0) == pytest.approx(600 / 3e-3 / 1e9)
    # 10 words/image x 4 bytes x 2 images each way
    assert join.word_rate(10, 2, 1.0, 1.0) == pytest.approx(160 / 2e-3 / 1e9)
    # bn: forward reads+writes 1000 bytes of input size, backward 3 passes
    assert join.bn_rate(1000, 1.0, 1000, 1.0) == pytest.approx(5000 / 2e-3 / 1e9)
    assert join.mac_rate(100, 2, 0.0, 0.0) == 0.0
