"""
Sweep benchmark for plasmonres.

    python3 perfbench/run.py --workload NAME|all --seed N --seconds S --trace 0|1 [--smoke]

Every sample is one loss sweep in a fresh interpreter (sample.py):
import plasmonres from the checkout's src/, load_sweep_config(dict),
run_sweep(config). A fresh process per sample is what a command-line
user pays for; in one process a repeated sweep would reuse the
package's operator cache.

--trace 0 measures the end-to-end metrics. It first starts a few
set-up-only interpreters, then runs sweep samples back to back (a
closed loop of one caller) while the next one still fits in S seconds,
and always at least one:

    sweep_s      run_sweep wall time, median over the sweep samples
    setup_s      interpreter start to a validated SweepConfig, median
                 over every process started
    peak_rss_mb  peak resident set of a sweep sample process, median

--trace 1 runs pairs of one untraced and one traced sample, alternating
which runs first, while the next pair fits in S seconds, and always one
pair. It reports the per-layer metrics of the outside-in tracer
(tracer.py) as medians over the traced samples, and
trace.overhead_frac, the median traced run_sweep time over the median
untraced one, minus 1. Each traced sample must write the same CSV
cells as its untraced partner, apart from wall_time_ms, and leave no
patched name behind.

Every sample's CSV goes through the correctness gate (check.py);
rows attempted and rows failed become `attempted` and `failed` of the
result, so row_fail_frac = failed / attempted. The last stdout line is
the JSON result; the line before it is a JSON record with the machine,
the configuration and every sample. --workload all runs every workload
in turn, never two at once, and prints these lines for each. --smoke
runs the small variant of the workload for the self-test. Exits 2
without a result when the checkout holds no plasmonres sources.
"""

import argparse
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

from check import check_sample, read_rows, reference_path, same_cells  # noqa: E402
from workloads import WORKLOADS, sweep_config  # noqa: E402

SETUP_PROBES = 3
SAMPLE_TIMEOUT_S = 170.0
# The pinned reference CSVs were written with two OpenBLAS threads; other
# thread counts reorder reductions and move cancellation-prone cells such
# as the ellipse's phi0_hat_abs by a few 1e-12 relative. Idle OpenBLAS
# threads sleep almost at once (THREAD_TIMEOUT 2^4 cycles) instead of
# spinning for about 0.1 s: on a shared 2-vCPU Intel Xeon host the
# spinning doubled a 2D sweep's CPU time for no gain in wall time, and
# the ellipse's sample-to-sample spread (IQR/median over 19 interleaved
# samples) was 0.26 with it and 0.15 without.
# The timeout changes no result. Samples inherit both settings, and the
# machine record reports them.
os.environ["OPENBLAS_NUM_THREADS"] = "2"
os.environ["OPENBLAS_THREAD_TIMEOUT"] = "4"

# per-layer metrics reported by a traced run: name -> unit
_CALLS_AND_SELF = ("geometry.interior_points", "specfun.gamma_helmholtz",
                   "specfun.sph_bessel", "layer_ops.assemble_S_omega",
                   "layer_ops.assemble_Kstar_omega", "layer_ops.eval_potential",
                   "layer_ops.sphere_operators")
_SELF_ONLY = ("np_spectrum.build_gram", "np_spectrum.np_eigendecomposition",
              "np_spectrum.coeffs_hat", "np_spectrum.coeffs_check",
              "transmission.solve_direct", "transmission.assemble_system",
              "transmission.solve_spectral", "transmission.gradient_energy",
              "transmission.coupling_an", "transmission.dipole_traces",
              "sweep.run_sweep", "cli.load_sweep_config")
# layer metric names that sum several public functions
_GROUPS = {
    "specfun.sph_bessel": ("specfun.sph_jh_product", "specfun.sph_jh_product_deriv",
                           "specfun.sph_j_ratio", "specfun.sph_j_ratio_deriv",
                           "specfun.sph_jh_cross"),
    "transmission.solve_spectral": ("transmission.solve_spectral_2d",
                                    "transmission.solve_spectral_3d"),
}
PER_LAYER = dict(
    [(f"{f}.calls", "count") for f in _CALLS_AND_SELF]
    + [(f"{f}.self_s", "s") for f in _CALLS_AND_SELF + _SELF_ONLY]
    + [("layer_ops.helmholtz_assemblies_per_point", "count/point"),
       ("layer_ops.eval_potential.kernel_entries", "count"),
       ("transmission.solve_direct.lu_flops", "flop"),
       ("transmission.assemble_system.bytes", "B"),
       ("sweep.worker_utilization", "ratio"),
       ("sweep.rows", "count"),
       ("sweep.failed_rows", "count"),
       ("trace.overhead_frac", "ratio")]
)
_COMPUTED = ("layer_ops.eval_potential.kernel_entries",
             "transmission.solve_direct.lu_flops", "transmission.assemble_system.bytes")
END_TO_END = {"sweep_s": "s", "setup_s": "s", "peak_rss_mb": "MiB"}


class BenchError(Exception):
    """The benchmark cannot run here (exit 2, no result)."""


# ------------------------------------------------------------ machine


def machine_record():
    import numpy

    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": _blas_threads(numpy),
        "blas_thread_env": {k: os.environ[k] for k in
                            ("OPENBLAS_NUM_THREADS", "OPENBLAS_THREAD_TIMEOUT",
                             "OMP_NUM_THREADS", "MKL_NUM_THREADS")
                            if k in os.environ},
        "numpy": numpy.__version__,
        "scipy": _dist_version("scipy"),
        "python": sys.version.split()[0],
    }


def _dist_version(name):
    from importlib import metadata

    try:
        return metadata.version(name)
    except metadata.PackageNotFoundError:
        return "missing"


def _blas_threads(numpy):
    """Thread count the bundled OpenBLAS reports, or None if unknown."""
    import ctypes
    import glob

    libs = glob.glob(os.path.join(os.path.dirname(numpy.__file__), os.pardir,
                                  "numpy.libs", "*openblas*"))
    for path in libs:
        lib = ctypes.CDLL(path)
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(lib, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return fn()
    return None


# ------------------------------------------------------------ samples


def spawn(config, extra, deadline):
    """Run sample.py once; returns its JSON line plus the parent's timings."""
    cmd = [sys.executable, os.path.join(HERE, "sample.py"), json.dumps(config)] + extra
    timeout = max(1.0, min(SAMPLE_TIMEOUT_S, deadline - time.perf_counter()))
    t_spawn = time.perf_counter()
    try:
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                              timeout=timeout)
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"sample exceeded {timeout:.0f} s") from exc
    wall = time.perf_counter() - t_spawn
    if proc.returncode == 2:
        raise BenchError(proc.stderr.strip() or "sample could not start")
    if proc.returncode != 0:
        return {"error": proc.stderr.strip().splitlines()[-1:], "wall_s": wall}
    out = json.loads(proc.stdout.strip().splitlines()[-1])
    out["setup_s"] = out["t_ready"] - t_spawn
    out["wall_s"] = wall
    return out


def judge(workload, seed, smoke, csv_path, sample):
    """check_sample, with a crashed sample counting every row as failed."""
    if "error" in sample:
        cfg = sweep_config(workload.name, seed, csv_path, smoke)
        points = round(math.log10(cfg["delta_max"] / cfg["delta_min"])
                       * cfg["points_per_decade"]) + 1
        rows = 2 * points
        return {"rows": rows, "failed": rows, "energy_gap": float("nan"),
                "problems": [f"sample crashed: {sample['error']}"]}
    reference = None
    if seed == 0 and not smoke:
        reference = read_rows(reference_path(workload.name))
    return check_sample(workload, csv_path, sample, reference)


# --------------------------------------------------------------- runs


def timed_run(workload, seed, seconds, smoke, out_dir):
    start = time.perf_counter()
    deadline = start + SAMPLE_TIMEOUT_S

    def config(i):
        return sweep_config(workload.name, seed,
                            os.path.join(out_dir, f"sample-{i}.csv"), smoke)

    probes = [spawn(config("setup"), ["--setup-only"], deadline)
              for _ in range(SETUP_PROBES)]
    samples, checks = [], []
    while True:
        i = len(samples)
        sample = spawn(config(i), [], deadline)
        samples.append(sample)
        checks.append(judge(workload, seed, smoke, config(i)["csv_path"], sample))
        longest = max(s["wall_s"] for s in samples)
        if time.perf_counter() - start + longest > seconds:
            break
    good = [s for s in samples if "error" not in s]
    if not good:
        raise BenchError(f"every sweep sample crashed: {samples[0]['error']}")
    setups = [p["setup_s"] for p in probes if "error" not in p] + \
             [s["setup_s"] for s in good]
    series = {"sweep_s": [s["sweep_s"] for s in good], "setup_s": setups,
              "peak_rss_mb": [s["peak_rss_mb"] for s in good]}
    return samples + probes, checks, series


def traced_run(workload, seed, seconds, smoke, out_dir):
    """Untraced/traced sample pairs while the next pair fits in `seconds`."""
    start = time.perf_counter()
    deadline = start + SAMPLE_TIMEOUT_S
    samples, checks, per_pair = [], [], []
    while True:
        i = len(per_pair)
        paths = [os.path.join(out_dir, f"{kind}-{i}.csv") for kind in ("untraced", "traced")]
        configs = [sweep_config(workload.name, seed, p, smoke) for p in paths]
        trace_args = ["--trace", os.path.join(out_dir, f"spans-{i}.jsonl")]
        # alternate which side runs first, so drift does not bias overhead_frac
        if i % 2:
            traced = spawn(configs[1], trace_args, deadline)
            plain = spawn(configs[0], [], deadline)
        else:
            plain = spawn(configs[0], [], deadline)
            traced = spawn(configs[1], trace_args, deadline)
        pair_checks = [judge(workload, seed, smoke, p, s)
                       for p, s in zip(paths, (plain, traced))]
        samples += [plain, traced]
        checks += pair_checks
        if "error" in plain or "error" in traced:
            return samples, checks, {}
        problems = pair_checks[1]["problems"]
        if not same_cells(*paths):
            problems.append("traced CSV cells differ from untraced")
        if traced["leftovers"]:
            problems.append(f"names left patched: {traced['leftovers']}")
        if traced["patched"] == 0:
            problems.append("tracer patched no names")
        per_pair.append((plain, traced, layer_metrics(traced, pair_checks[1])))
        pair_s = plain["wall_s"] + traced["wall_s"]
        if time.perf_counter() - start + pair_s > seconds:
            break
    layers = {name: statistics.median(p[2][name] for p in per_pair) for name in per_pair[0][2]}
    layers["trace.overhead_frac"] = (statistics.median(p[1]["sweep_s"] for p in per_pair)
                                     / statistics.median(p[0]["sweep_s"] for p in per_pair)
                                     - 1.0)
    return samples, checks, layers


def layer_metrics(traced, check):
    layers = traced["layers"]

    def total(name, key):
        names = _GROUPS.get(name, (name,))
        return sum(layers.get(n, {}).get(key, 0) for n in names)

    m = {}
    for name in _CALLS_AND_SELF:
        m[f"{name}.calls"] = total(name, "calls")
    for name in _CALLS_AND_SELF + _SELF_ONLY:
        m[f"{name}.self_s"] = total(name, "self_s")
    m["layer_ops.helmholtz_assemblies_per_point"] = (
        total("layer_ops.assemble_S_omega", "calls")
        + total("layer_ops.assemble_Kstar_omega", "calls")) / traced["grid_points"]
    m["layer_ops.eval_potential.kernel_entries"] = total("layer_ops.eval_potential",
                                                         "kernel_entries")
    m["transmission.solve_direct.lu_flops"] = total("transmission.solve_direct",
                                                    "lu_flops")
    m["transmission.assemble_system.bytes"] = total("transmission.assemble_system",
                                                    "bytes")
    m["sweep.worker_utilization"] = traced["worker_utilization"]
    m["sweep.rows"] = check["rows"]
    m["sweep.failed_rows"] = check["failed"]
    return m


# ------------------------------------------------------------- output


def _fmt(x):
    return f"{x:.6g}" if isinstance(x, float) else str(x)


def report(workload, seed, smoke, trace, series, layers, checks, samples):
    rows = sum(c["rows"] for c in checks)
    failed = sum(c["failed"] for c in checks)
    problems = [p for c in checks for p in c["problems"]]
    gaps = [c["energy_gap"] for c in checks]
    good = [s for s in samples if "verdict" in s]
    lines = [f"workload {workload.name} seed {seed} trace {trace}"]
    if series:
        for name, unit in END_TO_END.items():
            v = series[name]
            lines.append(f"  {name:<12} {statistics.median(v):.6g} {unit}"
                         f"  (median; max {max(v):.6g}; n={len(v)})")
    lines.append(f"  row_fail_frac {failed / rows:.6g} ratio ({failed}/{rows} rows)")
    lines.append(f"  verdicts {sorted({s['verdict'] for s in good})} "
                 f"(expected {workload.verdict}); slopes "
                 f"{[round(s['slope'], 6) for s in good if s['slope'] is not None]} "
                 f"in {list(workload.slope_window)}")
    lines.append(f"  direct-vs-spectral energy_norm gap max {max(gaps):.3g}"
                 + (f" (gate {workload.gap_gate})" if workload.gap_gate else
                    " (not gated)"))
    if layers:
        for name, unit in PER_LAYER.items():
            note = "  (computed from array sizes)" if name in _COMPUTED else ""
            lines.append(f"  {name:<45} {_fmt(layers[name])} {unit}{note}")
    for p in problems[:20]:
        lines.append(f"  FAIL {p}")
    print("\n".join(lines))

    if series:
        metrics = {n: {"value": statistics.median(series[n]), "unit": u}
                   for n, u in END_TO_END.items()}
    else:
        metrics = {n: {"value": layers.get(n, 0), "unit": u}
                   for n, u in PER_LAYER.items()}
    config = sweep_config(workload.name, seed, "", smoke)
    del config["csv_path"]
    record = {"workload": workload.name, "seed": seed, "trace": trace,
              "config": config, "machine": machine_record(), "row_fail_frac": failed / rows,
              "energy_gap_max": max(gaps), "problems": problems,
              "samples": [{k: v for k, v in s.items() if k != "layers"}
                          for s in samples]}
    print(json.dumps({"record": record}))
    print(json.dumps({"correct": not problems, "attempted": rows,
                      "failed": failed, "metrics": metrics}))


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS) + ["all"],
                    help="'all' runs every workload in turn, one after another")
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true",
                    help="small variant of the workload, for the self-test")
    args = ap.parse_args(argv)

    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    for name in names:
        code = run_workload(WORKLOADS[name], args)
        if code:
            return code
    return 0


def run_workload(workload, args):
    try:
        if not os.path.isfile(os.path.join(ROOT, "src", "plasmonres", "__init__.py")):
            raise BenchError(f"no plasmonres sources under {ROOT}/src")
        out_dir = os.path.join(ROOT, ".bench_out",
                               workload.name + ("-smoke" if args.smoke else ""))
        shutil.rmtree(out_dir, ignore_errors=True)
        os.makedirs(out_dir)
        if args.trace:
            samples, checks, layers = traced_run(workload, args.seed, args.seconds,
                                                 args.smoke, out_dir)
            series = None
        else:
            samples, checks, series = timed_run(workload, args.seed, args.seconds,
                                                args.smoke, out_dir)
            layers = None
    except BenchError as exc:
        print(f"benchmark cannot run: {exc}", file=sys.stderr)
        return 2
    report(workload, args.seed, args.smoke, args.trace, series, layers, checks, samples)
    return 0

if __name__ == "__main__":
    sys.exit(main())
