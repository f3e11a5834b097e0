"""
Self-test of the sweep benchmark.

    python3 perfbench/selftest.py [--full]

Checks, in order:
  * BENCHMARK.json names exactly the workloads and metrics run.py reports;
  * seed 0 gives the pinned configurations and other seeds stay inside
    their documented perturbation;
  * the tracer wraps intra-module calls, records parent links, and
    restores every patched name;
  * a smoke run (small variant) of every workload passes the gate with
    tracing off and on, and reports every declared metric; the traced
    mode also requires traced and untraced CSV cells to be identical;
  * run.py refuses, exit code not 0 and no result line, in a directory
    holding only BENCHMARK.json and the benchmark files.
--full adds a traced seed-0 run of every full workload, which compares
traced and untraced CSVs and the pinned reference cells (about two
minutes, and the sphere needs about 4 GB).
"""

import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

from run import END_TO_END, PER_LAYER  # noqa: E402
from workloads import DELTA_MAX, WORKLOADS, sweep_config  # noqa: E402


def _run(args, cwd=ROOT):
    proc = subprocess.run([sys.executable, os.path.join(cwd, "perfbench", "run.py")] + args,
                          cwd=cwd, capture_output=True, text=True, timeout=600)
    return proc


def _result(proc):
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


def test_benchmark_json():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    assert {w["name"]: w["why"] for w in spec["workloads"]} == \
        {w.name: w.why for w in WORKLOADS.values()}
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == PER_LAYER
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    assert bounds["setup_s"] == max(bounds.values())


def test_seeds():
    for name, w in WORKLOADS.items():
        assert sweep_config(name, 0, "x.csv") == dict(w.config, csv_path="x.csv")
        for seed in range(1, 50):
            cfg = sweep_config(name, seed, "x.csv")
            assert cfg["delta_max"] <= DELTA_MAX
            assert cfg["delta_max"] > DELTA_MAX * 10 ** (-1 / cfg["points_per_decade"])
            assert abs(cfg["delta_max"] / cfg["delta_min"] / 1e3 - 1) < 1e-12
            for c, c0 in zip(cfg["z"], w.config["z"]):
                assert abs(c - c0) <= 0.05 * abs(c0) + 1e-15
            assert sweep_config(name, seed, "x.csv") == cfg


def test_tracer_restores():
    sys.path.insert(0, os.path.join(ROOT, "src"))
    import plasmonres
    from tracer import Tracer

    tracer = Tracer()
    modules = tracer._modules()
    before = [dict(vars(m)) for m in modules]
    assert tracer.install() > 0
    tx = plasmonres.transmission
    assert tx.assemble_system.__perfbench_span__ == "transmission.assemble_system"
    assert plasmonres.sweep.assemble_S_omega.__perfbench_span__ == \
        "layer_ops.assemble_S_omega"
    assert plasmonres.run_sweep.__perfbench_span__ == "sweep.run_sweep"
    try:
        problem = tx.TransmissionProblem(dim=3, geometry=(8, 1.0), s=1e-3, delta=1e-2,
                                         eps_c=-2.0, omega0=1.0, a=[0, 0, 1.0],
                                         z=[0, 0, 2.0])
        tx.solve_direct(problem)
    finally:
        tracer.restore()
    assert tracer.leftovers() == []
    for m, snapshot in zip(modules, before):
        assert all(vars(m)[k] is v for k, v in snapshot.items()), m.__name__
    by_id = {s[0]: s for s in tracer.spans}
    assembles = [s for s in tracer.spans if s[1] == "transmission.assemble_system"]
    assert len(assembles) == 1
    assert by_id[assembles[0][4]][1] == "transmission.solve_direct"
    summary = tracer.summary()
    assert summary["transmission.solve_direct"]["lu_flops"] == 8 / 3 * (2 * 81) ** 3
    assert summary["transmission.assemble_system"]["bytes"] == 16 * (2 * 81) ** 2
    assert 0 <= summary["transmission.solve_direct"]["self_s"] <= \
        summary["transmission.solve_direct"]["total_s"]


def test_smoke():
    for name in WORKLOADS:
        for trace, declared in ((0, END_TO_END), (1, PER_LAYER)):
            res = _result(_run(["--workload", name, "--seed", "0", "--seconds", "1",
                                "--trace", str(trace), "--smoke"]))
            assert res["correct"] and res["failed"] == 0, (name, trace, res)
            assert res["metrics"].keys() == declared.keys()
            assert all(m["unit"] == declared[k] for k, m in res["metrics"].items())


def test_full_traced():
    for name in WORKLOADS:
        res = _result(_run(["--workload", name, "--seed", "0", "--seconds", "1",
                            "--trace", "1"]))
        assert res["correct"] and res["failed"] == 0, (name, res)


def test_bare_directory():
    bare = os.path.join(ROOT, ".bench_out", "bare")
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(HERE, os.path.join(bare, "perfbench"),
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
    try:
        proc = _run(["--workload", "sphere3d-L40", "--seed", "0", "--seconds", "1",
                     "--trace", "0"], cwd=bare)
        assert proc.returncode != 0
        assert '"correct"' not in proc.stdout
    finally:
        shutil.rmtree(bare)


def main(argv):
    tests = [test_benchmark_json, test_seeds, test_tracer_restores, test_smoke,
             test_bare_directory]
    if "--full" in argv:
        tests.append(test_full_traced)
    for test in tests:
        test()
        print(f"ok {test.__name__}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
