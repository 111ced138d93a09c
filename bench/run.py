"""semichain benchmark: closed-loop runs of one workload.

    python3 bench/run.py --workload chain-large --seed 1 --seconds 42 --trace 0

Run from the root of a source checkout (``src/semichain`` must exist).
Runs go one at a time, each in a fresh single-process interpreter, for
about ``--seconds`` seconds; the next run starts only when the previous
one has exited and its predicted end is inside the window. Every run's
output is checked (see ``workloads.check_output``); a run that raised,
exited non-zero or wrote a wrong answer counts as failed.

``--trace 0`` reports the end-to-end metrics as medians over the runs:
``wall_s`` (spawn to exit), ``setup_s`` (spawn to the first update
cycle, or the first oracle step), ``sim_t_per_s`` (simulated time over
``wall_s - setup_s``) and ``peak_rss_mb`` (that run's peak resident
set, from ``os.wait4``). ``--trace 1`` first makes one traced run, whose
spans give the per-layer metrics, then untraced runs for the rest of the
window; ``trace.overhead_s`` is the traced wall time minus their median.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``. A per-invocation
report with machine, provenance and every run goes to ``.bench_runs/``.
"""

import argparse
import json
import os
import shutil
import signal
import statistics
import sys
import time

import tracer as tracing
import workloads

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BENCH_DIR = os.path.join(ROOT, "bench")
RUNS_DIR = os.path.join(ROOT, ".bench_runs")
RUN_TIMEOUT_S = 170.0
# The workloads multiply 2x2 and 34x34 matrices, far below where BLAS
# threading pays; one thread keeps runs from contending for the cores.
BLAS_THREADS = 1


def _read(path):
    with open(path) as f:
        return f.read().strip()


def machine_info():
    info = {"nproc": os.cpu_count(), "cpu_model": None, "caches": {},
            "blas_threads": BLAS_THREADS}
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    info["cpu_model"] = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    seen = set()
    cpu_root = "/sys/devices/system/cpu"
    for cpu in sorted(os.listdir(cpu_root)) if os.path.isdir(cpu_root) else []:
        cache_dir = os.path.join(cpu_root, cpu, "cache")
        if not cpu[3:].isdigit() or not os.path.isdir(cache_dir):
            continue
        for index in os.listdir(cache_dir):
            try:
                fields = {k: _read(os.path.join(cache_dir, index, k))
                          for k in ("level", "type", "size", "shared_cpu_list")}
            except OSError:
                continue
            key = (fields["level"], fields["type"], fields["shared_cpu_list"])
            if fields["type"] == "Instruction" or key in seen:
                continue
            seen.add(key)
            name = f"L{fields['level']}"
            kib = int(fields["size"].rstrip("K"))
            info["caches"][name] = info["caches"].get(name, 0) + kib
    info["caches"] = {k: f"{v / 1024:g} MiB" for k, v in sorted(info["caches"].items())}
    return info


def git_commit():
    """HEAD of the checkout, or None outside a git work tree."""
    try:
        ref = _read(os.path.join(ROOT, ".git", "HEAD"))
        if not ref.startswith("ref: "):
            return ref
        return _read(os.path.join(ROOT, ".git", ref[5:]))
    except OSError:
        return None


def child_env():
    env = dict(os.environ)
    src = os.path.join(ROOT, "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"]
                               if env.get("PYTHONPATH") else "")
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = str(BLAS_THREADS)
    return env


def spawn(argv, log_path, timeout):
    """Run ``argv`` to completion; returns (exit code, wall s, spawn
    time, peak RSS MiB). The child is killed after ``timeout`` seconds."""
    fd = os.open(log_path, os.O_WRONLY | os.O_CREAT | os.O_TRUNC, 0o644)
    try:
        t_spawn = time.monotonic()
        pid = os.posix_spawn(sys.executable, argv, child_env(),
                             file_actions=[(os.POSIX_SPAWN_DUP2, fd, 1),
                                           (os.POSIX_SPAWN_DUP2, fd, 2)])
    finally:
        os.close(fd)

    def kill(signum, frame):
        os.kill(pid, signal.SIGKILL)

    previous = signal.signal(signal.SIGALRM, kill)
    signal.setitimer(signal.ITIMER_REAL, timeout)
    try:
        # wait4 reports this child's own rusage; RUSAGE_CHILDREN would
        # give the maximum over every child reaped so far
        _, status, usage = os.wait4(pid, 0)
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)
    wall = time.monotonic() - t_spawn
    return os.waitstatus_to_exitcode(status), wall, t_spawn, usage.ru_maxrss / 1024.0


def one_run(workload, inp, run_dir, traced, timeout):
    os.makedirs(os.path.join(run_dir, "out"))
    input_path = os.path.join(run_dir, "input.json")
    result_path = os.path.join(run_dir, "result.json")
    with open(input_path, "w") as f:
        json.dump(inp, f)
    argv = [sys.executable, os.path.join(BENCH_DIR, "child.py"), workload,
            input_path, os.path.join(run_dir, "out"), result_path,
            "1" if traced else "0"]
    code, wall, t_spawn, rss = spawn(argv, os.path.join(run_dir, "log.txt"), timeout)
    rec = {"seed": inp["seed"], "traced": traced, "exit_code": code,
           "wall_s": wall, "peak_rss_mb": rss, "setup_s": None, "error": None}
    try:
        with open(result_path) as f:
            result = json.load(f)
    except (OSError, ValueError):
        result = {"error": f"no result file (exit code {code})"}
    if result.get("first_cycle") is not None:
        rec["setup_s"] = result["first_cycle"] - t_spawn
    rec["versions"] = result.get("versions")
    error = result.get("error")
    if error is None and code != 0:
        error = f"exit code {code}"
    out_name = "suite.csv" if workload == "resample" else "timeseries.csv"
    try:
        with open(os.path.join(run_dir, "out", out_name)) as f:
            text = f.read()
    except OSError:
        text = ""
    try:
        workloads.check_output(workload, text, error)
    except ValueError as e:
        rec["error"] = str(e)
        with open(os.path.join(run_dir, "log.txt")) as f:
            tail = f.read()[-2000:]
        print(f"run failed ({workload}, seed {inp['seed']}): {e}\n{tail}",
              file=sys.stderr)
    if traced and "trace" in result:
        rec["trace"] = result["trace"]
        rec["import_s"] = result["import_s"]
    return rec


def measure(workload, seed, seconds, traced):
    """Closed loop over runs until the window is used; returns records."""
    start = time.monotonic()
    deadline = start + seconds
    inputs = workloads.make_inputs(workload, seed)
    base = os.path.join(RUNS_DIR, f"{workload}-s{seed}-t{int(traced)}")
    shutil.rmtree(base, ignore_errors=True)
    records = []
    try:
        for i, inp in enumerate(inputs):
            traced_run = traced and i == 0
            timeout = max(5.0, RUN_TIMEOUT_S - (time.monotonic() - start))
            records.append(one_run(workload, inp, os.path.join(base, f"run{i}"),
                                   traced_run, timeout))
            untraced = [r["wall_s"] for r in records if not r["traced"]]
            if untraced and time.monotonic() + statistics.median(untraced) > deadline:
                break
    finally:
        shutil.rmtree(base, ignore_errors=True)
    return records


def end_to_end(workload, records):
    good = [r for r in records if not r["traced"] and r["error"] is None]
    runs = good or [r for r in records if not r["traced"]]
    wall = statistics.median(r["wall_s"] for r in runs)
    setups = [r["setup_s"] for r in runs if r["setup_s"] is not None]
    setup = statistics.median(setups) if setups else wall
    sim_rate = [workloads.simulated_time(workload) / (r["wall_s"] - r["setup_s"])
                for r in runs if r["setup_s"] is not None]
    return {
        "wall_s": (wall, "s"),
        "setup_s": (setup, "s"),
        "sim_t_per_s": (statistics.median(sim_rate) if sim_rate else 0.0, "1/s"),
        "peak_rss_mb": (statistics.median(r["peak_rss_mb"] for r in runs), "MiB"),
    }


def per_layer(records):
    traced = records[0]
    metrics = tracing.layer_metrics(traced.get("trace", {"spans": {}, "edges": {},
                                                         "counters": {}}),
                                    traced.get("import_s", 0.0))
    untraced = [r["wall_s"] for r in records if not r["traced"]]
    metrics["trace.overhead_s"] = (traced["wall_s"] - statistics.median(untraced), "s")
    return metrics


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "semichain", "__init__.py")):
        print(f"error: no semichain source under {ROOT}/src", file=sys.stderr)
        return 2

    load_before = os.getloadavg()
    records = measure(args.workload, args.seed, args.seconds, bool(args.trace))
    load_after = os.getloadavg()
    failed = sum(r["error"] is not None for r in records)
    metrics = per_layer(records) if args.trace else end_to_end(args.workload, records)

    report = {"workload": args.workload, "seed": args.seed,
              "seconds": args.seconds, "trace": args.trace,
              "machine": machine_info(), "git_commit": git_commit(),
              "versions": next((r["versions"] for r in records if r.get("versions")), None),
              "loadavg_before": load_before, "loadavg_after": load_after,
              "failed_frac": failed / len(records),
              "metrics": {k: v for k, (v, _) in metrics.items()},
              "runs": records}
    os.makedirs(RUNS_DIR, exist_ok=True)
    report_path = os.path.join(
        RUNS_DIR, f"report-{args.workload}-s{args.seed}-t{args.trace}.json")
    with open(report_path, "w") as f:
        json.dump(report, f, indent=1)

    print(f"machine: {json.dumps(report['machine'])}")
    print(f"provenance: commit={report['git_commit']} versions="
          f"{json.dumps(report['versions'])} loadavg before={load_before} "
          f"after={load_after}")
    for r in records:
        print(f"run seed={r['seed']} traced={int(r['traced'])} "
              f"wall_s={r['wall_s']:.3f} setup_s={r['setup_s']} "
              f"peak_rss_mb={r['peak_rss_mb']:.1f} error={r['error']}")
    if args.trace:
        traced = records[0]
        spans = traced.get("trace", {}).get("spans", {})
        shares = sorted(((v["self_s"] / traced["wall_s"], k) for k, v in spans.items()),
                        reverse=True)
        print("self-time share of traced wall: "
              + ", ".join(f"{k} {share:.1%}" for share, k in shares[:6]))
        print(f"absent trace targets: {traced.get('trace', {}).get('absent')}")
    print(f"failed_frac {failed / len(records):.4g} ({failed}/{len(records)} runs)")
    for name, (value, unit) in metrics.items():
        print(f"{name} {value:.6g} {unit}")
    print(json.dumps({"correct": failed == 0, "attempted": len(records),
                      "failed": failed,
                      "metrics": {k: {"value": v, "unit": u}
                                  for k, (v, u) in metrics.items()}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
