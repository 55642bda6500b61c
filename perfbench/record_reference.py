"""Record the reference stdout of every workload variant from the current
sources, for run.py's byte-for-byte correctness check:

    python3 perfbench/record_reference.py

Re-record only when a change is meant to alter the CLI output.
"""

import sys

import run


def main() -> int:
    run.REFERENCE.mkdir(exist_ok=True)
    for label, argv in run.all_variants().items():
        _, _, _, code, out, _ = run.run_child([sys.executable, "-m", "irrbounds", *argv])
        if code != 0:
            print(f"{label}: exit {code}", file=sys.stderr)
            return 1
        if label == "table-paper" and not run.paper_table_ok(out):
            print("table-paper: values disagree with the paper", file=sys.stderr)
            return 1
        (run.REFERENCE / f"{label}.out").write_bytes(out)
        print(f"{label}: {len(out)} bytes")
    return 0


if __name__ == "__main__":
    sys.exit(main())
