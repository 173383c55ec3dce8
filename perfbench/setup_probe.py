"""Set-up probe: import `memlab.cli` (numpy included) and build one pass's
argument lists for a workload, then print one line.  `run.py` times the
interval from spawning this process to that line, which is the set-up a user
of the CLI pays before the first cell runs.

Usage: python3 perfbench/setup_probe.py WORKLOAD SEED
"""
import sys

import workloads


def main() -> None:
    workloads.use_source_tree()
    import memlab.cli  # noqa: F401
    name, seed = sys.argv[1], int(sys.argv[2])
    argvs = [workloads.argv(cell, workloads.pass_seed(seed, 0), "out.csv")
             for cell in workloads.WORKLOADS[name]]
    print(f"ready {len(argvs)}", flush=True)


if __name__ == "__main__":
    main()
