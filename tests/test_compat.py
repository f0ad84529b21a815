"""Pinned output formats: checkpoints, cost reports and configs across versions.

Criterion 10 round-trips checkpoints within one version of the code. These
digests instead pin the bytes themselves, so a refactor that reorders
parameters, renames cost entries, changes a config row or draws initial
weights in a different order fails here even if it still round-trips. The
"kinds" digest pins the kind of every atomic layer and cost entry, which
per-kind timing and cost tables key on.

The digests were taken from the fresh (untrained) networks at seed 2. If a
format is changed on purpose, regenerate them with `digests()` and say why.
The "kinds" digests of the six shift builders were regenerated when the
conv-shift-conv block moved its second ReLU after the shift: the walk now
reaches `shift` before `relu2`. Every other digest stayed as it was.
"""

import hashlib

import numpy as np
import pytest

from shiftnet import blocks
from shiftnet.accounting import cost_report, report_to_csv
from shiftnet.blocks import Composite
from shiftnet.nets import (EVAL_SLICE, ArchRow, Network, build_resnet,
                           build_shiftnet, build_shiftresnet, dump_config,
                           parse_config, reduce_resnet)
from shiftnet.pipeline import save_checkpoint


def _sc2_net():
    rows = [ArchRow("stem", "conv", 16, kernel=3),
            ArchRow("group1", "sc2", 16, repeat=2, expansion=2.0, dilation=2),
            ArchRow("group2", "sc2", 32, stride=2, kernel=5, expansion=1.5,
                    downsample="concat", permutation_id=3),
            ArchRow("pool", "pool"),
            ArchRow("fc", "fc")]
    return Network("sc2-net", rows, num_classes=10, seed=2)


# criterion 10's builders, plus one network of sc2 rows
BUILDERS = {
    "resnet20": lambda: build_resnet(20, seed=2),
    "shiftresnet20-1": lambda: build_shiftresnet(20, 1, seed=2),
    "shiftresnet56-3": lambda: build_shiftresnet(56, 3, seed=2),
    "shiftnet-a": lambda: build_shiftnet("a", seed=2),
    "shiftnet-b": lambda: build_shiftnet("b", seed=2),
    "shiftnet-c": lambda: build_shiftnet("c", seed=2),
    "reduced-module": lambda: reduce_resnet(20, 150_000, "module_wise", seed=2),
    "reduced-net": lambda: reduce_resnet(20, 150_000, "net_wise", seed=2),
    "sc2-net": _sc2_net,
}


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _atomic_kinds(layer, path=""):
    """(path, kind) of every atomic layer the composite walk reaches."""
    if not isinstance(layer, Composite):
        return [(path, layer.kind)]
    return [pair for c, child in layer.children()
            for pair in _atomic_kinds(child, f"{path}.{c}" if path else c)]


def digests(net, directory) -> dict:
    """sha256 of the checkpoint manifest and blob, the cost CSV, the config
    and the layer and cost-entry kinds."""
    path = directory / "net.json"
    save_checkpoint(net, str(path))
    return {
        "manifest": _sha(path.read_bytes()),
        "blob": _sha((directory / "net.json.blob").read_bytes()),
        "costs": _sha(report_to_csv(cost_report(net)).encode()),
        "config": _sha(dump_config(net).encode()),
        "kinds": _sha("\n".join(f"{p} {k}" for p, k in _atomic_kinds(net) + [
            (e.name, e.kind) for e in net.cost_entries(32)]).encode()),
    }


EXPECTED = {
    "resnet20": {
        "manifest": "08bfb848b0c41ed09117da9a71c10f60a8d2c5f10b4923d545a7b3992a32023b",
        "blob": "17e994133af093acf0fceef3151f2891b658d029a8d13b15895e0d69f2dc97f7",
        "costs": "013ec5f35a601c86ff4a85345c729d13b9eb64d697e3b22a2d8f2133441a4f1f",
        "config": "8e6eb4e071e35fdb240af3419389df7e528cdddb81b3e3b2737b6c3cd00da9d0",
        "kinds": "2328dc0e5cccc94aa0ba4f251f719e02e4432b2949d57886ceb4d6acb68d3a86",
    },
    "shiftresnet20-1": {
        "manifest": "e8b0251b16a6cfac686af5c7c6e4146f84e1e0b1d0f2a6252d16efd7c144b24e",
        "blob": "267dd38e0cc684afb5fc16ec7826b5a916ebd953f8633b6dd59eea62b7016360",
        "costs": "132b3e5b69f9ba8b21e60b828adc0a7941ebd01adb081246515c12f6d4ee7cd1",
        "config": "91624a87f0f947ed1453994754b29a77d4af70e4b1cffffd1089c046656a4cd3",
        "kinds": "01bd857d51ccd924889f175d3a65a737e61262e998cc29aaf330bdf9513a919c",
    },
    "shiftresnet56-3": {
        "manifest": "e3d0dfc28971ad15c0f8398693906c85616160a6f9ec726933d185df00061118",
        "blob": "653ba26bad9addfa8db38538aaa5f4825789dd741c48aefc52335d8234174c5a",
        "costs": "878dac0cc312bffdbf5d039689215a0d7c3ce68812a58d924c616ca6d1c82cd9",
        "config": "3f9f55e5d5e300a27a665c96713b600ad70c7fcd537cf355cf8eef8d232dbd94",
        "kinds": "7a1bcd5aba56b7765d61fa428e382cdc92db572c0e2c685548e543281a5d06df",
    },
    "shiftnet-a": {
        "manifest": "d43520434bd4c0f28b5b05b42200eddb12dd14af8f26ee2490b17422642fa2e8",
        "blob": "65883d1cea175bc0ac7d8dd739731be1e412ef66e540b44094cdb436ecb4b2e5",
        "costs": "e664f9c8dd48a0adecf9c34bbf80ec1a189aea9985baecf6ef51b1a47ce687bd",
        "config": "572d5d4bb829e104f7243e2c92b06d0ced153c6e9cebb26095828c17d8b62ee1",
        "kinds": "b42d94fd02a837c000abefb349bdd2576983509281ade5733b77d206f7aa656b",
    },
    "shiftnet-b": {
        "manifest": "fbc45d9e50d489b962ec81e3f6e01edd8ca3032ea930d7f3e4652c786edff88e",
        "blob": "ea785f0060bea6b2677d031774291f803f9cbe7b5a6b7e1968bf0772a25d3cc1",
        "costs": "d33604bdf990b1e8a6cb2cfb4f6ff04ee365d8a700dba8f08bad064006476183",
        "config": "e79ac8e97750a4fe02286464e0b86cfa49d520bd034ff5137652cabccfc7c1e9",
        "kinds": "b42d94fd02a837c000abefb349bdd2576983509281ade5733b77d206f7aa656b",
    },
    "shiftnet-c": {
        "manifest": "f52dadb177afd51d17d341406ee30fb045f45246bd09ce0ceaa0dc9fd9a829be",
        "blob": "cca0d94c890d1ae1fcf1ed703bf40fc4759ede383434e087c189c85a5500f99d",
        "costs": "958e22f09c8de715f7108a468cd0bedb6d0f492113d0f2bccf1de2f4b5fe89b1",
        "config": "0d88e300203b827298031603899e65de216ad1a53297a9fdcda323df6597814e",
        "kinds": "83c40efaa15d4c563b7007417512c43f57398a346f737a9f111a508be9b96edf",
    },
    "reduced-module": {
        "manifest": "a6192bb2de32342048e58e34239defad4cb3ac21af6e60452666560def7caa6d",
        "blob": "abc9fb5294b81456c642de4986c1d744526b32dcbebe0f4183190a7f2a7e2bb7",
        "costs": "e84f2c37b0c14260aa249a72de21f763bdc1f1b9cc5f464537068d0e9460d465",
        "config": "0ec8c375a8601c9a33e9c598732d11bce421bfb1a8c6c5f0294de61c5fb61be8",
        "kinds": "2328dc0e5cccc94aa0ba4f251f719e02e4432b2949d57886ceb4d6acb68d3a86",
    },
    "reduced-net": {
        "manifest": "4be5f52eeb0d1108f2b765e7110d0e9a2a5a7e5dfba8c63624ba1f77e6f5d4b4",
        "blob": "984c09c78f2f43d3faf5eafe34821f0033d4c31f4b50bf32c3d447c73f73e5b2",
        "costs": "390add35d3a59b486cd9f2198443eb38ff33ee5ce76a06e223ad3cc8ccbdca75",
        "config": "855e93bf941c727625e6e78900a9a1fa91b864091f51165bf0992aaa387c96c0",
        "kinds": "2328dc0e5cccc94aa0ba4f251f719e02e4432b2949d57886ceb4d6acb68d3a86",
    },
    "sc2-net": {
        "manifest": "9799fd8a7896123b16e329e4cc24933b2f5e5ac0410b8c2022f98f8ca17a10f7",
        "blob": "cd65ccf8d9c878f00cefdd3ade930dff468786e3d89a40a93cf20a28db58f2c9",
        "costs": "5d5df406ff81603ceab06e42525aed46905f98fb22f0d0d601551782ed984a6d",
        "config": "32ef0d289d9b180bcc65ed5a00fc100d1d8004486a72ac7e1f0b5d6925e251b0",
        "kinds": "60ca7e1fe066c869d0bddefcf41e6367bc49776c4e44b2fa91d26ea0cb0e2257",
    },
}


@pytest.mark.parametrize("name", list(BUILDERS))
def test_formats_unchanged(name, tmp_path):
    assert digests(BUILDERS[name](), tmp_path) == EXPECTED[name]


@pytest.mark.parametrize("name", list(BUILDERS))
def test_dumped_config_reads_back(name):
    net = BUILDERS[name]()
    assert parse_config(dump_config(net)) == net.config()


@pytest.mark.parametrize("name", list(BUILDERS))
def test_sliced_eval_matches_one_pass(name):
    """An eval forward in slices of EVAL_SLICE images gives the logits of one
    `Composite.forward` pass bit for bit, and leaves its input as given."""
    net = BUILDERS[name]()
    rng = np.random.default_rng(5)
    net.forward(rng.normal(size=(4, 3, 32, 32)).astype(np.float32), "train")
    for n in (1, EVAL_SLICE, EVAL_SLICE + 1, 2 * EVAL_SLICE + 1):
        x = rng.normal(size=(n, 3, 32, 32)).astype(np.float32)
        given = x.copy()
        sliced = net.forward(x, "eval")
        assert np.array_equal(x, given)
        assert np.array_equal(sliced, Composite.forward(net, x, "eval")), n


@pytest.mark.parametrize("name", list(BUILDERS))
def test_eval_forward_writes_no_layer_attribute(name, monkeypatch):
    """After a train forward has filled the caches, an eval forward sets no
    attribute on any layer or composite except the network's `_mode`."""
    net = BUILDERS[name]()
    rng = np.random.default_rng(6)
    net.forward(rng.normal(size=(4, 3, 32, 32)).astype(np.float32), "train")

    def refuse(obj, attr, value):
        if not (obj is net and attr == "_mode"):
            raise AssertionError(f"eval forward wrote {type(obj).__name__}.{attr}")
        object.__setattr__(obj, attr, value)
    monkeypatch.setattr(blocks.Layer, "__setattr__", refuse)
    monkeypatch.setattr(blocks.Composite, "__setattr__", refuse)
    for n in (1, EVAL_SLICE, EVAL_SLICE + 1, 2 * EVAL_SLICE + 1):
        net.forward(rng.normal(size=(n, 3, 32, 32)).astype(np.float32), "eval")


@pytest.mark.parametrize("name", list(BUILDERS))
def test_train_forward_writes_no_persisted_array(name):
    """A train forward with no backward leaves every parameter and batch-norm
    running statistic bit-identical, so dropping its caches undoes it."""
    net = BUILDERS[name]()
    before = [(n, a.copy()) for n, a in net.named_state()]
    x = np.random.default_rng(7).normal(size=(2, 3, 32, 32)).astype(np.float32)
    net.forward(x, "train")
    for (n, a), (_, old) in zip(net.named_state(), before):
        assert a.dtype == old.dtype and a.tobytes() == old.tobytes(), n
