"""End-to-end and per-layer benchmark for the shiftnet train and eval paths.

Run it from the repository root:

    python3 perfbench/run.py --workload train-shiftresnet20-1 --seed 1 --seconds 30 --trace 0

See perfbench/README.md for the workloads, the metrics and how they relate.
"""
