"""Set-up probe: a fresh interpreter that imports condisp and builds the
workload's first H(t) provider, then prints ``ready``.

    python3 perfbench/setup_probe.py <src dir> <workload> <size>

run.py times it from spawn to that line; this file keeps no clock.
"""
import sys


def main() -> int:
    src, name, size = sys.argv[1:4]
    sys.path.insert(0, src)
    import condisp  # noqa: F401  (the import is what is being timed)
    import workloads

    workloads.first_build(workloads.get(name, size))
    print("ready", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
