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
    if os.path.exists(args.arch):
        with open(args.arch) as f:
            cfg = nets.parse_config(f.read())
        if getattr(args, "classes", None):
            cfg["num_classes"] = args.classes
        cfg["seed"] = getattr(args, "seed", 0)
        return nets.rebuild(cfg)
    if args.arch.lower() == "shift_layer":
        rows = [ArchRow("shift", "shift", kernel=getattr(args, "kernel", 3))]
        return Network("shift_layer", rows, num_classes=0,
                       input_channels=getattr(args, "channels", 16))
    net = nets.build_by_name(args.arch, expansion=args.expansion,
                             num_classes=getattr(args, "classes", None),
                             seed=getattr(args, "seed", 0))
    reduce_mode = getattr(args, "reduce", None)
    if reduce_mode:
        if not args.arch.lower().startswith("resnet"):
            raise ValueError("--reduce applies to plain resnet architectures")
        if not getattr(args, "target_params", None):
            raise ValueError("--reduce needs --target-params")
        depth = int(args.arch.lower()[len("resnet"):])
        mode = {"module": "module_wise", "net": "net_wise"}[reduce_mode]
        net = nets.reduce_resnet(depth, args.target_params, mode,
                                 num_classes=getattr(args, "classes", None) or 10,
                                 seed=getattr(args, "seed", 0))
    return net


def _load_data(spec: str, num_classes: int, seed: int, synth_n: int):
    if spec == "synth":
        ds = pipeline.synth_dataset(synth_n, num_classes, seed=seed)
        return ds, ds
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
        base = nets.build_resnet(int(key[len("shiftresnet"):]),
                                 args.classes or 10, args.seed)
        base_rep = accounting.cost_report(base, args.input)
        prate, frate = accounting.reduction_report(base_rep, report)
        print(f"reduction vs {base.name}: params {prate:.2f}x  flops {frate:.2f}x")
    for note in report.notes:
        print(f"note: {note}")
    return 0


def _cmd_train(args) -> int:
    net = _resolve_arch(args)
    data_spec = args.data or os.environ.get(DATA_ENV) or "synth"
    train_ds, _ = _load_data(data_spec, net.num_classes, args.seed, args.synth_n)
    if args.subset and args.subset < len(train_ds):
        train_ds = pipeline.Dataset(train_ds.images[:args.subset],
                                    train_ds.labels[:args.subset],
                                    train_ds.split, train_ds.num_classes,
                                    train_ds.mean, train_ds.std)
    decay_points = tuple(int(p) for p in args.decay.split(",") if p) \
        if args.decay else ()
    schedule = pipeline.TrainSchedule(
        max_iters=args.iters, base_lr=args.lr, batch_size=args.batch,
        lr_decay_points=decay_points, decay_factor=args.decay_factor,
        momentum=args.momentum, weight_decay=args.weight_decay,
        seed=args.seed, augment=args.augment, log_every=args.log_every)
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


def _cmd_arch(args) -> int:
    if args.arch_cmd == "dump":
        net = _resolve_arch(args)
        sys.stdout.write(nets.dump_config(net))
        return 0
    raise ValueError(f"unknown arch subcommand {args.arch_cmd!r}")


def _add_arch_flags(p, classes_default=None):
    p.add_argument("--arch", required=True,
                   help="architecture name or config file path")
    p.add_argument("--expansion", type=float, default=1.0)
    p.add_argument("--classes", type=int, default=classes_default)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--channels", type=int, default=16,
                   help="channel count for shift_layer queries")
    p.add_argument("--kernel", type=int, default=3,
                   help="shift window side for shift_layer queries")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="shiftnet",
        description="Shift-based CNN toolkit: cost accounting, training, "
                    "benchmarks and channel analysis.")
    sub = parser.add_subparsers(dest="cmd", required=True)

    p = sub.add_parser("count", help="parameter/FLOP report for an architecture")
    _add_arch_flags(p)
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
    p.add_argument("--decay", default="32000,48000",
                   help="comma-separated decay iterations")
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
    pd.set_defaults(fn=_cmd_arch)

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
