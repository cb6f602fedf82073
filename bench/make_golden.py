"""Write golden.json: the sha256 of every CLI output that cli-reports pins.

Run from the repository root, on the commit whose output is the
reference:

    PYTHONPATH=src python3 bench/make_golden.py

The pinned invocations (``workloads.fixed_invocations``) do not depend on
the seed, so one file serves every seed, at the full size and at the
tests' smoke size.
"""

import hashlib
import json
import shutil
from pathlib import Path

from ttbell import cli

import workloads

SCALES = (1.0, workloads.SMOKE_SCALE)


def main() -> int:
    tmp = Path(__file__).resolve().parent / "_out" / "golden"
    tmp.mkdir(parents=True, exist_ok=True)
    outputs = {}
    try:
        for scale in SCALES:
            for label, argv, targets in workloads.fixed_invocations(scale):
                key = workloads.invocation_key(argv)
                if key in outputs:
                    continue
                if targets and abs(workloads.max_facet(targets) - 2.0) < workloads.CliReports.BOUNDARY_GAP:
                    raise SystemExit(f"{label}: too close to a facet to expect an exit code")
                out = tmp / "out"
                code = cli.main(argv + ["--out", str(out)])
                if code not in (cli.EXIT_OK, cli.EXIT_INFEASIBLE):
                    raise SystemExit(f"{label}: exit code {code}")
                outputs[key] = {
                    "label": label,
                    "key": key,
                    "sha256": hashlib.sha256(out.read_bytes()).hexdigest(),
                }
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    workloads.GOLDEN.write_text(json.dumps({"outputs": list(outputs.values())}, indent=1) + "\n")
    print(f"wrote {len(outputs)} digests to {workloads.GOLDEN}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
