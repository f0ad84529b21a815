"""Command-line entry point: count, train, eval, bench, analyze, arch dump.

Exit codes: 0 success, 1 runtime error, 2 usage error. Machine-readable
output via --csv where applicable; diagnostics go to stderr. The default
data directory can be set with the SHIFTNET_DATA_DIR environment variable.
"""

from __future__ import annotations

import argparse
import os
import sys

from . import accounting, analysis, bench, nets, pipeline
from .nets import ArchRow, Network

DATA_ENV = "SHIFTNET_DATA_DIR"


def _resolve_arch(args) -> Network:
    """Build from a known name, or load a plain-text config if --arch is a file."""
    is_file = os.path.exists(args.arch)
    key = args.arch.lower()
    if args.expansion is not None and (is_file or not key.startswith("shiftresnet")):
        target = "a config file" if is_file else args.arch
        raise ValueError(f"--expansion does not apply to {target}; "
                         "only shiftresnet architectures take it")
    reduce_mode = getattr(args, "reduce", None)
    if getattr(args, "target_params", None) is not None and not reduce_mode:
        raise ValueError("--target-params needs --reduce")
    if reduce_mode and (is_file or not key.startswith("resnet")):
        raise ValueError("--reduce applies to plain resnet architectures")
    shift_layer = key == "shift_layer" and not is_file
    for flag in ("channels", "kernel"):
        if getattr(args, flag, None) is not None and not shift_layer:
            raise ValueError(f"--{flag} applies only to shift_layer")
    if is_file:
        with open(args.arch) as f:
            cfg = nets.parse_config(f.read())
        if args.classes:
            cfg["num_classes"] = args.classes
        if args.seed is not None:
            cfg["seed"] = args.seed
        return nets.rebuild(cfg)
    seed = args.seed or 0
    if reduce_mode:
        if not args.target_params:
            raise ValueError("--reduce needs --target-params")
        mode = {"module": "module_wise", "net": "net_wise"}[reduce_mode]
        return nets.reduce_resnet(nets.name_depth(args.arch, "resnet"),
                                  args.target_params, mode,
                                  num_classes=args.classes or 10, seed=seed)
    if shift_layer:
        for flag in ("classes", "seed"):
            if getattr(args, flag) is not None:
                raise ValueError(f"--{flag} does not apply to shift_layer, "
                                 "which has no weights and no classifier")
        kernel, channels = (getattr(args, f, None) for f in ("kernel", "channels"))
        rows = [ArchRow("shift", "shift", kernel=3 if kernel is None else kernel)]
        return Network("shift_layer", rows, num_classes=0,
                       input_channels=16 if channels is None else channels)
    expansion = 1.0 if args.expansion is None else args.expansion
    return nets.build_by_name(args.arch, expansion=expansion,
                              num_classes=args.classes, seed=seed)


def _load_data(spec: str, num_classes: int, seed: int, synth_n: int):
    if spec == "synth":
        if synth_n < num_classes:
            raise ValueError(f"--synth-n {synth_n} is below the {num_classes} classes")
        # one draw of 2n images: the first n train, the other n are held out
        ds = pipeline.synth_dataset(2 * synth_n, num_classes, seed=seed)
        return ds.subset(slice(synth_n)), ds.subset(slice(synth_n, None), "test")
    return pipeline.load_cifar10(spec)


def _test_split(args, num_classes: int):
    """Test split named by --data or the data environment variable (required)."""
    spec = args.data or os.environ.get(DATA_ENV)
    if not spec:
        raise ValueError(f"--data or ${DATA_ENV} required")
    return _load_data(spec, num_classes, args.seed, args.synth_n)[1]


def _cmd_count(args) -> int:
    net = _resolve_arch(args)
    report = accounting.cost_report(net, args.input)
    if args.csv:
        sys.stdout.write(accounting.report_to_csv(report))
        return 0
    print(f"arch: {net.name}")
    print(f"params: {report.params}  ({report.params / 1e6:.3f}M)")
    print(f"macs: {report.macs}  flops_2x: {report.flops_2x}  (input {args.input})")
    if args.per_layer:
        sys.stdout.write(accounting.format_table(report))
    key = args.arch.lower()
    if key.startswith("shiftresnet") and not os.path.exists(args.arch):
        base = nets.build_resnet(nets.name_depth(key, "shiftresnet"),
                                 args.classes or 10, args.seed or 0)
        base_rep = accounting.cost_report(base, args.input)
        prate, frate = accounting.reduction_report(base_rep, report)
        print(f"reduction vs {base.name}: params {prate:.2f}x  flops {frate:.2f}x")
    if not args.per_layer:           # the table already lists the notes
        for note in report.notes:
            print(f"note: {note}")
    return 0


def _cmd_train(args) -> int:
    if args.subset < 0:
        raise ValueError(f"--subset must be >= 0 (0 trains on all), got {args.subset}")
    net = _resolve_arch(args)
    if net.num_classes < 1:
        raise ValueError(f"{net.name} has no classifier to train")
    data_spec = args.data or os.environ.get(DATA_ENV) or "synth"
    seed = args.seed or 0
    train_ds, _ = _load_data(data_spec, net.num_classes, seed, args.synth_n)
    if args.subset and args.subset < len(train_ds):
        train_ds = train_ds.subset(slice(args.subset))
    schedule = pipeline.TrainSchedule(
        max_iters=args.iters, base_lr=args.lr, batch_size=args.batch,
        lr_decay_points=args.decay, decay_factor=args.decay_factor,
        momentum=args.momentum, weight_decay=args.weight_decay,
        seed=seed, augment=args.augment, log_every=args.log_every)
    log = pipeline.train(net, train_ds, schedule, out_checkpoint=args.out)
    if args.log_csv:
        with open(args.log_csv, "w") as f:
            f.write(log.to_csv())
    last = log.records[-1]
    print(f"iter {last[0]}  lr {last[1]:.4g}  loss {last[2]:.4f}  acc {last[3]:.4f}")
    if args.out:
        print(f"checkpoint: {args.out}")
    return 0


def _cmd_eval(args) -> int:
    net, _ = pipeline.load_checkpoint(args.ckpt)
    ds = _test_split(args, net.num_classes)
    top1, loss = pipeline.evaluate(net, ds, args.batch)
    print(f"top1 {top1:.4f}  loss {loss:.4f}  ({len(ds)} examples)")
    return 0


def _cmd_bench(args) -> int:
    if args.config:
        with open(args.config) as f:
            cases = bench.parse_suite(f.read())
    else:
        cases = bench.default_suite()
    report = bench.run_bench(cases, seed=args.seed)
    csv = report.to_csv()
    if args.out:
        with open(args.out, "w") as f:
            f.write(csv)
        print(f"wrote {args.out}")
    else:
        sys.stdout.write(csv)
    return 0


def _cmd_analyze(args) -> int:
    net, _ = pipeline.load_checkpoint(args.ckpt)
    ds = _test_split(args, net.num_classes)
    block = analysis.find_csc_block(net, args.module)
    trace = analysis.record_activations(net, ds, args.module,
                                        max_images=args.max_images)
    corr_path = f"{args.out}_corr.csv"
    contrib_path = f"{args.out}_contrib.csv"
    with open(corr_path, "w") as f:
        f.write(analysis.correlations_to_csv(trace))
    with open(contrib_path, "w") as f:
        f.write(analysis.contributions_to_csv(block.pw2.weight.value, block.spec))
    sums = analysis.group_contribution_norms(block.pw2.weight.value, block.spec)
    print(f"module {args.module}: {trace.samples.shape[0]} observations x "
          f"{trace.samples.shape[1]} channels")
    print(f"group contribution sums (normalized): "
          + " ".join(f"{s:.2f}" for s in sums))
    print(f"wrote {corr_path} and {contrib_path}")
    return 0


def _cmd_arch_dump(args) -> int:
    sys.stdout.write(nets.dump_config(_resolve_arch(args)))
    return 0


def iterations(text: str) -> tuple[int, ...]:   # --decay's type; "" for none
    return tuple(int(p) for p in text.split(",") if p)


def _add_arch_flags(p):
    p.add_argument("--arch", required=True,
                   help="architecture name or config file path")
    p.add_argument("--expansion", type=float,
                   help="shiftresnet width expansion (default 1)")
    p.add_argument("--classes", type=int)
    p.add_argument("--seed", type=int,
                   help="weight seed (default: a config file's own, else 0)")


def _add_shift_layer_flags(p):
    p.add_argument("--channels", type=int,
                   help="channel count for shift_layer queries (default 16)")
    p.add_argument("--kernel", type=int,
                   help="shift window side for shift_layer queries (default 3)")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="shiftnet",
        description="Shift-based CNN toolkit: cost accounting, training, "
                    "benchmarks and channel analysis.")
    sub = parser.add_subparsers(dest="cmd", required=True)

    p = sub.add_parser("count", help="parameter/FLOP report for an architecture")
    _add_arch_flags(p)
    _add_shift_layer_flags(p)
    p.add_argument("--input", type=int, default=32)
    p.add_argument("--csv", action="store_true")
    p.add_argument("--per-layer", action="store_true")
    p.add_argument("--reduce", choices=("module", "net"))
    p.add_argument("--target-params", type=int)
    p.set_defaults(fn=_cmd_count)

    p = sub.add_parser("train", help="train an architecture")
    _add_arch_flags(p)
    p.add_argument("--data", help="CIFAR binary dir or 'synth'")
    p.add_argument("--iters", type=int, default=2000)
    p.add_argument("--lr", type=float, default=0.1)
    p.add_argument("--batch", type=int, default=128)
    p.add_argument("--decay", type=iterations, default="32000,48000",
                   help="comma-separated decay iterations ('' for none)")
    p.add_argument("--decay-factor", type=float, default=0.1)
    p.add_argument("--momentum", type=float, default=0.9)
    p.add_argument("--weight-decay", type=float, default=1e-4)
    p.add_argument("--augment", action="store_true")
    p.add_argument("--subset", type=int, default=0,
                   help="train on only the first N examples")
    p.add_argument("--synth-n", type=int, default=256)
    p.add_argument("--log-every", type=int, default=50)
    p.add_argument("--log-csv")
    p.add_argument("--out", help="checkpoint path to write")
    p.set_defaults(fn=_cmd_train)

    p = sub.add_parser("eval", help="evaluate a checkpoint")
    p.add_argument("--ckpt", required=True)
    p.add_argument("--data")
    p.add_argument("--batch", type=int, default=256)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--synth-n", type=int, default=256)
    p.set_defaults(fn=_cmd_eval)

    p = sub.add_parser("bench", help="run the microbenchmark suite")
    p.add_argument("--config", help="suite file; omit for the default suite")
    p.add_argument("--out", help="CSV output path (default stdout)")
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(fn=_cmd_bench)

    p = sub.add_parser("analyze", help="channel correlation/contribution report")
    p.add_argument("--ckpt", required=True)
    p.add_argument("--data")
    p.add_argument("--module", required=True, help="block id, e.g. group1.block0")
    p.add_argument("--out", required=True, help="output CSV path prefix")
    p.add_argument("--max-images", type=int, default=256)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--synth-n", type=int, default=256)
    p.set_defaults(fn=_cmd_analyze)

    p = sub.add_parser("arch", help="architecture config utilities")
    arch_sub = p.add_subparsers(dest="arch_cmd", required=True)
    pd = arch_sub.add_parser("dump", help="print the table-style config")
    _add_arch_flags(pd)
    _add_shift_layer_flags(pd)
    pd.set_defaults(fn=_cmd_arch_dump)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as e:
        return int(e.code or 0)
    try:
        return args.fn(args)
    except BrokenPipeError:
        return 0
    except Exception as e:  # runtime errors map to exit 1, usage stays 2
        print(f"error: {e}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
