#!/usr/bin/env python3
"""Write reference/figure.json: the figure workload's outputs (both r
curves, the nu curve, both denominator totals) from the code in ./src.

    python3 perfbench/make_reference.py

The stored file was made at the commit that introduced the benchmark, so
every later run is compared with that code's outputs.  Rerun it only to
move the reference on purpose, and say so in the change.
"""

import json
import sys

import run


def main() -> int:
    run._load_package()
    from provenance import provenance, source_digest
    from spans import Recorder
    from workloads import Figure

    fig = Figure()
    rec = Recorder("reference")
    out = fig.solve(fig.setup(rec, None), rec)
    if out.failed:
        print("error: figure checks failed: " + ", ".join(out.failed), file=sys.stderr)
        return 1
    meta = provenance(run.ROOT, run.SRC, 0)
    reference = {
        "git_commit": meta["git_commit"],
        "source_sha256": source_digest(run.SRC),
        "K": fig.K,
        "H": fig.H,
        "grid_points": fig.grid_points,
        "q_max": fig.q_max,
        **out.diagnostics["outputs"],
    }
    run.REFERENCE.parent.mkdir(exist_ok=True)
    run.REFERENCE.write_text(json.dumps(reference, indent=1) + "\n")
    print(f"wrote {run.REFERENCE}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
