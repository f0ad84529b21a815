import os
import re

import numpy as np
import pytest

from shiftnet.cli import _load_data, main
from shiftnet.nets import parse_config
from shiftnet.pipeline import synth_dataset


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


class TestCount:
    def test_shiftresnet56_params(self, capsys):
        code, out, _ = run_cli(capsys, "count", "--arch", "shiftresnet56",
                               "--expansion", "3")
        assert code == 0
        params = int(re.search(r"params: (\d+)", out).group(1))
        assert abs(params - 0.29e6) <= 0.05 * 0.29e6
        assert "reduction vs resnet56" in out

    def test_shift_layer_query_is_free(self, capsys):
        code, out, _ = run_cli(capsys, "count", "--arch", "shift_layer",
                               "--channels", "64", "--kernel", "3")
        assert code == 0
        assert re.search(r"params: 0\b", out)
        assert "flops_2x: 0" in out

    def test_csv_mode(self, capsys):
        code, out, _ = run_cli(capsys, "count", "--arch", "resnet20", "--csv")
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "layer,params,macs,ai"
        assert lines[-1].startswith("total,")

    def test_reduce_flag(self, capsys):
        code, out, _ = run_cli(capsys, "count", "--arch", "resnet110",
                               "--reduce", "net", "--target-params", "203000")
        assert code == 0
        params = int(re.search(r"params: (\d+)", out).group(1))
        assert params <= 1.02 * 203000

    def test_reduce_needs_target(self, capsys):
        code, _, err = run_cli(capsys, "count", "--arch", "resnet110",
                               "--reduce", "net")
        assert code == 1
        assert "target-params" in err

    def test_reduce_rejects_a_net_that_is_not_plain_resnet(self, capsys):
        code, _, err = run_cli(capsys, "count", "--arch", "shiftresnet20",
                               "--reduce", "net", "--target-params", "100000")
        assert code == 1
        assert "--reduce applies to plain resnet architectures" in err

    @pytest.mark.parametrize("arch,size", [("shift_layer", "0"),
                                           ("shift_layer", "-3"),
                                           ("resnet20", "0")])
    def test_input_below_one_rejected(self, capsys, arch, size):
        code, out, err = run_cli(capsys, "count", "--arch", arch, "--input", size)
        assert code == 1
        assert f"input size must be at least 1, got {size}" in err
        assert out == ""

    def test_per_layer_prints_each_note_once(self, capsys):
        code, out, _ = run_cli(capsys, "count", "--arch", "shift_layer",
                               "--channels", "4", "--per-layer")
        assert code == 0
        notes = [line for line in out.splitlines() if line.startswith("note:")]
        assert notes == ["note: shift: fewer channels than window positions; "
                         "some shift groups empty"]

    @pytest.mark.parametrize("flag", ["--classes", "--seed", "--expansion"])
    def test_shift_layer_rejects_weight_flags(self, capsys, flag):
        code, out, err = run_cli(capsys, "count", "--arch", "shift_layer",
                                 flag, "5")
        assert code == 1
        assert f"{flag} does not apply to shift_layer" in err
        assert out == ""

    def test_target_params_needs_reduce(self, capsys):
        code, out, err = run_cli(capsys, "count", "--arch", "resnet20",
                                 "--target-params", "5")
        assert code == 1
        assert "--target-params needs --reduce" in err
        assert out == ""

    def test_reduce_rejects_a_config_file(self, capsys, tmp_path):
        _, cfg, _ = run_cli(capsys, "arch", "dump", "--arch", "resnet20")
        path = tmp_path / "r20.cfg"
        path.write_text(cfg)
        code, out, err = run_cli(capsys, "count", "--arch", str(path),
                                 "--reduce", "net", "--target-params", "100000")
        assert code == 1
        assert "--reduce applies to plain resnet architectures" in err
        assert out == ""

    @pytest.mark.parametrize("argv", [
        ("resnet",), ("shiftresnet",), ("resnetx",),
        ("resnet", "--reduce", "net", "--target-params", "100000"),
        ("resnetx", "--reduce", "module", "--target-params", "100000")])
    def test_malformed_arch_name_is_unknown(self, capsys, argv):
        code, out, err = run_cli(capsys, "count", "--arch", *argv)
        assert code == 1
        assert f"unknown architecture '{argv[0]}'" in err
        assert out == ""

    @pytest.mark.parametrize("argv", [
        ("--arch", "resnet20"),
        ("--arch", "shiftnetc"),
        ("--arch", "resnet20", "--reduce", "net", "--target-params", "100000")])
    def test_expansion_applies_to_shiftresnet_only(self, capsys, argv):
        code, out, err = run_cli(capsys, "count", *argv, "--expansion", "3")
        assert code == 1
        assert f"--expansion does not apply to {argv[1]}" in err
        assert out == ""


class TestUsageErrors:
    def test_unknown_subcommand_exits_2(self, capsys):
        assert run_cli(capsys, "frobnicate")[0] == 2

    def test_missing_required_flag_exits_2(self, capsys):
        assert run_cli(capsys, "count")[0] == 2

    def test_unknown_arch_exits_1(self, capsys):
        code, _, err = run_cli(capsys, "count", "--arch", "vgg16")
        assert code == 1
        assert "error:" in err

    # each row sets a key its type does not read
    @pytest.mark.parametrize("kind,key,value", [
        ("basic", "kernel", 5), ("conv", "dilation", 3), ("conv", "expansion", 7),
        ("csc", "mid_channels", 99), ("pool", "out_channels", 77), ("pool", "stride", 2),
        ("pool", "kernel", 5), ("fc", "dilation", 4), ("shift", "out_channels", 99),
        ("shift", "expansion", 3)])
    def test_unread_row_key_exits_1(self, capsys, tmp_path, kind, key, value):
        width = "out_channels = 16\n" if kind in ("basic", "conv", "csc") else ""
        path = tmp_path / "row.cfg"
        path.write_text("[row0]\nlabel = stem\ntype = conv\nout_channels = 16\n"
                        f"[row1]\nlabel = g\ntype = {kind}\n{width}{key} = {value}\n")
        code, out, err = run_cli(capsys, "count", "--arch", str(path))
        assert (code, out) == (1, "")
        assert f"section [row1]: {kind} rows do not read {key}; got " in err


class TestArchDump:
    def test_dump_round_trips(self, capsys, tmp_path):
        code, out, _ = run_cli(capsys, "arch", "dump", "--arch", "shiftneta")
        assert code == 0
        cfg = parse_config(out)
        assert cfg["name"] == "shiftnet-a"
        path = tmp_path / "arch.cfg"
        path.write_text(out)
        code2, out2, _ = run_cli(capsys, "count", "--arch", str(path))
        assert code2 == 0
        params = int(re.search(r"params: (\d+)", out2).group(1))
        assert abs(params - 4.1e6) <= 0.05 * 4.1e6

    def test_config_file_keeps_its_seed(self, capsys, tmp_path):
        _, out, _ = run_cli(capsys, "arch", "dump", "--arch", "shiftresnet20",
                            "--seed", "7")
        path = tmp_path / "s7.cfg"
        path.write_text(out)
        code, again, _ = run_cli(capsys, "arch", "dump", "--arch", str(path))
        assert code == 0
        assert parse_config(again)["seed"] == 7
        _, reseeded, _ = run_cli(capsys, "arch", "dump", "--arch", str(path),
                                 "--seed", "3")
        assert parse_config(reseeded)["seed"] == 3

    def test_classes_override_a_config_file(self, capsys, tmp_path):
        _, out, _ = run_cli(capsys, "arch", "dump", "--arch", "shiftresnet20")
        path = tmp_path / "c10.cfg"
        path.write_text(out)
        assert parse_config(out)["num_classes"] == 10
        code, again, _ = run_cli(capsys, "arch", "dump", "--arch", str(path),
                                 "--classes", "5")
        assert code == 0
        assert parse_config(again)["num_classes"] == 5

    @pytest.mark.parametrize("cmd", [("count",), ("arch", "dump")])
    def test_config_file_rejects_expansion(self, capsys, tmp_path, cmd):
        _, out, _ = run_cli(capsys, "arch", "dump", "--arch", "shiftresnet20")
        path = tmp_path / "s.cfg"
        path.write_text(out)
        code, out, err = run_cli(capsys, *cmd, "--arch", str(path),
                                 "--expansion", "3")
        assert code == 1
        assert "--expansion does not apply to a config file" in err
        assert out == ""

    @pytest.mark.parametrize("flag", ["--classes", "--seed", "--expansion"])
    def test_shift_layer_rejects_weight_flags(self, capsys, flag):
        code, out, err = run_cli(capsys, "arch", "dump", "--arch", "shift_layer",
                                 flag, "7")
        assert code == 1
        assert f"{flag} does not apply to shift_layer" in err
        assert out == ""


@pytest.mark.parametrize("cmd", [("count",), ("arch", "dump")])
@pytest.mark.parametrize("flag", ["--channels", "--kernel"])
def test_shift_layer_flags_rejected_elsewhere(capsys, tmp_path, cmd, flag):
    _, cfg, _ = run_cli(capsys, "arch", "dump", "--arch", "resnet20")
    path = tmp_path / "r20.cfg"
    path.write_text(cfg)
    for arch in ("resnet20", str(path)):
        code, out, err = run_cli(capsys, *cmd, "--arch", arch, flag, "5")
        assert code == 1
        assert f"{flag} applies only to shift_layer" in err
        assert out == ""


class TestSynthData:
    def test_splits_share_no_image(self):
        train, test = _load_data("synth", 10, seed=1, synth_n=64)
        assert (len(train), len(test)) == (64, 64)
        assert (train.split, test.split) == ("train", "test")
        flat_train = {im.tobytes() for im in train.images}
        assert not any(im.tobytes() in flat_train for im in test.images)
        with pytest.raises(ValueError, match="below the 10 classes"):
            _load_data("synth", 10, seed=1, synth_n=5)

    def test_train_split_unchanged(self):
        train, _ = _load_data("synth", 10, seed=1, synth_n=64)
        alone = synth_dataset(64, 10, seed=1)
        assert np.array_equal(train.images, alone.images)
        assert np.array_equal(train.labels, alone.labels)


@pytest.fixture(scope="module")
def ckpt(tmp_path_factory):
    path = str(tmp_path_factory.mktemp("run") / "ck.json")
    code = main(["train", "--arch", "shiftresnet20", "--expansion", "0.25",
                 "--data", "synth", "--synth-n", "64", "--iters", "6",
                 "--lr", "0.01", "--batch", "8", "--decay", "", "--seed", "1",
                 "--out", path])
    assert code == 0
    return path


class TestWorkflows:

    def test_train_writes_checkpoint(self, ckpt):
        assert os.path.exists(ckpt)
        assert os.path.exists(ckpt + ".blob")

    def test_eval_checkpoint(self, capsys, ckpt):
        code, out, _ = run_cli(capsys, "eval", "--ckpt", ckpt, "--data", "synth",
                               "--synth-n", "64", "--seed", "1")
        assert code == 0
        assert re.search(r"top1 \d\.\d+", out)

    def test_analyze_writes_csvs(self, capsys, ckpt, tmp_path):
        prefix = str(tmp_path / "an")
        code, out, _ = run_cli(capsys, "analyze", "--ckpt", ckpt, "--data", "synth",
                               "--synth-n", "64", "--module", "group1.block0",
                               "--out", prefix, "--max-images", "16", "--seed", "1")
        assert code == 0
        assert os.path.exists(prefix + "_corr.csv")
        assert os.path.exists(prefix + "_contrib.csv")
        with open(prefix + "_contrib.csv") as f:
            assert f.readline().strip() == "channel,group,dy,dx,value"

    @pytest.mark.parametrize("flag,field", [("--iters", "max_iters"),
                                            ("--batch", "batch_size"),
                                            ("--log-every", "log_every")])
    def test_train_rejects_sizes_below_one(self, capsys, tmp_path, flag, field):
        out = str(tmp_path / "never.json")
        code, _, err = run_cli(capsys, "train", "--arch", "shiftresnet20",
                               "--expansion", "0.25", "--data", "synth",
                               "--synth-n", "32", "--iters", "2", "--batch", "8",
                               "--out", out, flag, "0")
        assert code == 1
        assert f"{field} must be at least 1, got 0" in err
        assert not os.path.exists(out)

    def test_unreadable_decay_is_a_usage_error(self, capsys):
        code, _, err = run_cli(capsys, "train", "--arch", "shiftresnet20",
                               "--decay", "10,x")
        assert code == 2
        assert "argument --decay" in err

    def test_train_rejects_a_net_without_classifier(self, capsys):
        code, _, err = run_cli(capsys, "train", "--arch", "shift_layer",
                               "--data", "synth", "--synth-n", "16",
                               "--iters", "2", "--batch", "8")
        assert code == 1
        assert "shift_layer has no classifier to train" in err

    def test_train_rejects_negative_subset(self, capsys, tmp_path):
        out = str(tmp_path / "never.json")
        code, _, err = run_cli(capsys, "train", "--arch", "shiftresnet20",
                               "--expansion", "0.25", "--data", "synth",
                               "--synth-n", "16", "--iters", "1", "--batch", "4",
                               "--subset", "-5", "--out", out)
        assert code == 1
        assert "--subset must be >= 0" in err
        assert not os.path.exists(out)

    def test_shift_layer_flags_are_not_train_flags(self, capsys):
        code, _, err = run_cli(capsys, "train", "--arch", "shiftresnet20",
                               "--channels", "4")
        assert code == 2
        assert "--channels" in err

    def test_eval_rejects_batch_below_one(self, capsys, ckpt):
        code, _, err = run_cli(capsys, "eval", "--ckpt", ckpt, "--data", "synth",
                               "--synth-n", "64", "--batch", "-5")
        assert code == 1
        assert "batch_size must be at least 1, got -5" in err

    def test_train_log_csv(self, capsys, tmp_path):
        log_path = str(tmp_path / "log.csv")
        code, out, _ = run_cli(capsys, "train", "--arch", "shiftresnet20",
                               "--expansion", "0.25", "--data", "synth",
                               "--synth-n", "32", "--iters", "3", "--batch", "8",
                               "--lr", "0.01", "--decay", "", "--log-every", "1",
                               "--log-csv", log_path)
        assert code == 0
        with open(log_path) as f:
            lines = f.read().strip().splitlines()
        assert lines[0] == "iter,lr,loss,acc"
        assert len(lines) == 4


class TestBenchCli:
    def test_bench_with_config(self, capsys, tmp_path):
        cfg = tmp_path / "suite.cfg"
        cfg.write_text("[case]\nkind = shift_pointwise\nchannels = 9\n"
                       "out_channels = 4\nfeature = 8\nkernel = 3\n"
                       "reps = 2\nwarmup = 1\n")
        out_path = str(tmp_path / "bench.csv")
        code, out, _ = run_cli(capsys, "bench", "--config", str(cfg),
                               "--out", out_path)
        assert code == 0
        with open(out_path) as f:
            lines = f.read().strip().splitlines()
        assert lines[0].startswith("kind,dims,variant")
        assert len(lines) == 3  # unfused + fused rows

    @pytest.mark.parametrize("body,message", [
        ("kind = shift\nbatch = 0\n", "batch must be at least 1, got 0"),
        ("kind = shift\nreps = 0\n", "reps must be at least 1, got 0"),
        ("channels = 8\n", "section [case] has no kind")])
    def test_bench_checks_each_case_before_timing(self, capsys, tmp_path,
                                                  body, message):
        cfg = tmp_path / "suite.cfg"
        cfg.write_text("[case]\n" + body)
        code, out, err = run_cli(capsys, "bench", "--config", str(cfg))
        assert code == 1
        assert message in err
        assert out == ""
