"""One pass of one workload, in a fresh interpreter.

``run.py`` starts this script once per pass and times the interval
from process start to the ``READY`` line as set-up.  Modes:

* ``import`` — time a bare ``import repro.cli`` and count the modules
  it loads, then exit;
* ``setup`` — build the inputs and construct the controller, print
  ``READY``, exit;
* ``run`` — as ``setup``, then run the timed phase, check its outputs
  and print one JSON result line;
* ``trace`` — as ``run`` with every layer entry point wrapped in a
  span (see ``layers.py``) and the metrics registry on; the result
  gains the per-layer metrics and the spans are written to ``--spans``.

Usage: ``python3 perfbench/child.py --workload diurnal-k1 --seed 11
--mode run`` from the repository root.
"""

from __future__ import annotations

import argparse
import json
import resource
import sys
import time
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent


def _percentile(values: "list[float]", q: float) -> float:
    import numpy as np

    return float(np.percentile(values, q)) if values else 0.0


def main(argv: "list[str] | None" = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--size", default="full")
    parser.add_argument("--mode", choices=("import", "setup", "run", "trace"), required=True)
    parser.add_argument("--spans", type=Path, default=None)
    args = parser.parse_args(argv)
    sys.path.insert(0, str(REPO / "src"))

    if args.mode == "import":
        before = len(sys.modules)
        start = time.perf_counter()
        import repro.cli  # noqa: F401

        elapsed = time.perf_counter() - start
        print(json.dumps({"import_s": elapsed, "modules": len(sys.modules) - before}))
        return 0

    import workloads

    work = workloads.prepare(args.workload, args.size, args.seed)
    print("READY", flush=True)
    if args.mode == "setup":
        return 0

    recorder = None
    if args.mode == "trace":
        import layers
        from repro.obs import metrics as obs_metrics

        if obs_metrics.active() is None:
            obs_metrics.enable()
        recorder = layers.SpanRecorder()
        layers.install(recorder, extra_modules=[workloads])
        start = time.perf_counter()
        recorder.root(work.run)
    else:
        start = time.perf_counter()
        work.run()
    wall = time.perf_counter() - start
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    scored = work.score()
    result = {
        "wall_s": wall,
        "build_s": work.build_s,
        "peak_rss_mb": rss_mb,
        "attempted": scored.attempted,
        "failed": scored.failed,
        "problems": scored.problems,
        "cost_ratio": scored.cost_ratio,
        "digest": scored.digest,
        "fingerprint": workloads.instance_fingerprint(work.instance),
        "shape": workloads.instance_shape(work.instance),
        "slot_ms_p50": _percentile(scored.slot_ms, 50),
        "slot_ms_p90": _percentile(scored.slot_ms, 90),
        "slots_timed": len(scored.slot_ms),
    }
    if recorder is not None:
        from repro.obs import metrics as obs_metrics

        result["layers"], result["attribution"] = layers.layer_metrics(
            recorder.spans, obs_metrics.active().snapshot()
        )
        if args.spans is not None:
            recorder.dump(args.spans)
            result["spans_file"] = str(args.spans)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
