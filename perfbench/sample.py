"""
One benchmark sample in a fresh interpreter.

    python3 perfbench/sample.py CONFIG_JSON [--setup-only] [--trace SPANS_PATH]

Imports plasmonres from the checkout's src/, builds the SweepConfig
with load_sweep_config (the cli layer), then runs run_sweep. Prints one
JSON line: the monotonic clock reading when the config was validated
(the parent subtracts its spawn time to get setup_s), the run_sweep
wall time, peak RSS, verdict and slope. With --trace, the layer
modules are wrapped by the outside-in tracer before the config is
built, the spans are written to SPANS_PATH, and the per-layer summary
is added to the line. Exits 2 if plasmonres cannot be imported from
the checkout.
"""

import json
import os
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")


def main(argv):
    config_dict = json.loads(argv[0])
    setup_only = "--setup-only" in argv
    spans_path = argv[argv.index("--trace") + 1] if "--trace" in argv else None

    sys.path.insert(0, SRC)
    try:
        import plasmonres
    except ImportError as exc:
        print(f"cannot import plasmonres from {SRC}: {exc}", file=sys.stderr)
        return 2
    if not os.path.abspath(plasmonres.__file__).startswith(SRC + os.sep):
        print(f"plasmonres imported from {plasmonres.__file__}, not {SRC}",
              file=sys.stderr)
        return 2

    tracer = None
    if spans_path:
        sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
        from tracer import Tracer

        tracer = Tracer()
        patched = tracer.install()
    config = plasmonres.load_sweep_config(config_dict)
    t_ready = time.perf_counter()
    out = {"t_ready": t_ready}
    if not setup_only:
        t0 = time.perf_counter()
        result = plasmonres.run_sweep(config)
        sweep_s = time.perf_counter() - t0
        import resource

        out.update(
            sweep_s=sweep_s,
            peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            verdict=result.verdict,
            slope=result.slope,
            grid_points=len(config.delta_grid()),
            workers=int(config.workers),
        )
    if tracer is not None:
        tracer.restore()
        out.update(
            patched=patched,
            leftovers=tracer.leftovers(),
            spans=len(tracer.spans),
            layers=tracer.summary(),
            worker_utilization=tracer.utilization("sweep.run_sweep",
                                                  int(config.workers)),
        )
        tracer.dump(spans_path)
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
