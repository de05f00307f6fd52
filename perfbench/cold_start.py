"""One cold set-up: fresh interpreter, import dimspec, generate the inputs.

run.py times this script as a child process several times and reports
the median as ``setup_s``.  It prints the digest of the generated
inputs, which run.py compares with its own.

    python3 perfbench/cold_start.py --workload dim-perturb --seed 1
"""

import argparse
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import dimspec.cli  # noqa: E402,F401  (the import is what is being timed)
import workloads  # noqa: E402


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--tiny", action="store_true")
    args = parser.parse_args()
    specs = workloads.make_specs(args.workload, args.seed, args.tiny)
    workloads.build_ops(specs)
    print(workloads.digest(specs))


if __name__ == "__main__":
    main()
