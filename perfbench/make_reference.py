"""Record the committed reference verdicts of one workload and seed.

    python3 perfbench/make_reference.py --workload solve --seed 44001

Runs every query of the workload once, refuses to write when a verdict
fails its invariant check, and writes ``perfbench/reference/<workload>-
<seed>.json``.  Later runs with that seed compare their verdicts to it.
"""

from __future__ import annotations

import argparse
import json
import sys
import tempfile
from pathlib import Path

from run import OUT_DIR, WORKLOAD_NAMES, closed_loop, judge, load_program


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    args = parser.parse_args(argv)
    workloads = load_program()
    OUT_DIR.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=OUT_DIR) as tmp:
        workload = workloads.WORKLOADS[args.workload](args.seed, Path(tmp))
        loop = closed_loop(workload.queries, float("inf"), max_queries=len(workload.queries))
        failed, reasons = judge(workload, [loop], None)
        if failed:
            print("\n".join(reasons), file=sys.stderr)
            return 1
        verdicts = [workload.reference_entry(k, v, loop.payloads[k])
                    for k, v in zip(loop.index, loop.verdicts)]
    path = workload.reference_path()
    path.parent.mkdir(exist_ok=True)
    path.write_text(json.dumps({"workload": args.workload, "seed": args.seed,
                                "verdicts": verdicts}, indent=0) + "\n")
    print(f"wrote {path.name}: {len(verdicts)} verdicts in {loop.elapsed:.1f} s")
    return 0


if __name__ == "__main__":
    sys.exit(main())
