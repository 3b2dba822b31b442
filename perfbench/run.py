#!/usr/bin/env python3
"""Repo benchmark: three workloads, measured end to end and layer by layer.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Builds perfbench/ (the mantis library from src/ plus the workload driver)
into $CARGO_TARGET_DIR or .bench_build/, runs the workload in its own
process for --seconds, checks every repetition's deterministic outputs
against the seed's reference, prints a table of every metric with its unit,
writes the full result to .bench_out/, and prints one JSON line last:
{"correct", "attempted", "failed", "metrics"}. --trace 0 reports the
end-to-end metrics of BENCHMARK.json, --trace 1 the per-layer ones.

--record-references <first>-<last> [--workload <name>] records the
reference path's outputs (one repetition, sequential engine) for a seed range
into perfbench/references.json.
"""
import argparse
import fcntl
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("clos_dataplane", "gray_reactive", "route_churn")
# Engine threads per workload process (at most the 4 cores of the host class).
# clos_dataplane runs the parallel engine on 2: at 4 threads every barrier
# round needs all four vCPUs, and on a shared VM its host time then tracks the
# neighbours' load (interquartile spread 17% against 7% at 2 threads, same
# hour, same seeds). gray_reactive's engine runs no rounds; route_churn has
# no engine.
THREADS = {"clos_dataplane": 2, "gray_reactive": 4, "route_churn": 1}
REFERENCE_FILE = HERE / "references.json"
# Workloads whose checked outputs and virtual-time metrics are the same for
# every seed, with the outputs that are not: one recorded reference checks
# any seed. gray_reactive's seed drives only the links' drop processes, which
# its total-loss fault leaves idle. route_churn's seed picks which keys
# churn; its final table is checked against the benchmark's own replay of
# the churn plan (matches_model), the other outputs do not depend on it.
ANY_SEED = {"gray_reactive": (), "route_churn": ("route_digest",)}
RUN_TIMEOUT_S = 170


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def build_dir():
    d = Path(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    return d if d.is_absolute() else ROOT / d


def build():
    """Configures and builds mantis_perfbench; returns the binary's path."""
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        raise RuntimeError("library sources (src/) not found next to perfbench/")
    out = build_dir()
    out.mkdir(parents=True, exist_ok=True)
    with open(out / ".lock", "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)  # concurrent runs share one build
        if not (out / "CMakeCache.txt").exists():
            gen = ["-G", "Ninja"] if shutil.which("ninja") else []
            subprocess.run(["cmake", "-S", str(HERE), "-B", str(out),
                            "-DCMAKE_BUILD_TYPE=Release", *gen],
                           check=True, stdout=sys.stderr)
        subprocess.run(["cmake", "--build", str(out), "-j", "4",
                        "--target", "mantis_perfbench"],
                       check=True, stdout=sys.stderr)
    return out / "mantis_perfbench"


def run_binary(binary, workload, seed, seconds, trace, threads, scale, out_dir):
    cmd = [str(binary), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "1" if trace else "0",
           "--threads", str(threads), "--scale", repr(scale),
           "--out-dir", str(out_dir)]
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                          timeout=RUN_TIMEOUT_S, check=True)
    return json.loads(proc.stdout.strip().splitlines()[-1])


def reference(binary, workload, seed, scale, out_dir):
    """The seed's reference outputs and virtual-time metrics, and where they
    came from. Recorded ones come from references.json: per seed on
    clos_dataplane, once for every seed on the ANY_SEED workloads. For an
    unrecorded seed or a --scale below 1 the reference is computed by one
    repetition on the reference path (--threads 1: the sequential engine on
    clos_dataplane) in its own process, and never cached, so runs of two
    builds in one checkout cannot share it."""
    if scale == 1.0:
        recorded = json.loads(REFERENCE_FILE.read_text())["references"]
        for key in (f"{workload}/{seed}", f"{workload}/*"):
            if key in recorded:
                return recorded[key], "recorded"
    rep = run_binary(binary, workload, seed, 1e-3, False, 1, scale, out_dir)["reps"][0]
    return {"outputs": rep["outputs"], "virtual": rep["virtual"]}, "computed"


def rep_failures(workload, rep, reference):
    """Why one repetition fails its check (empty list = passed)."""
    why = []
    for group in ("outputs", "virtual"):
        for k, v in reference[group].items():
            if rep[group].get(k) != v:
                why.append(f"{group}.{k}={rep[group].get(k)} (reference {v})")
    out = rep["outputs"]
    if workload == "gray_reactive" and out.get("restored") != "true":
        why.append("delivery not restored")
    if workload == "route_churn":
        if out.get("aborted_batches") != "0":
            why.append("aborted async batches")
        if out.get("matches_model") != "true":
            why.append("route table differs from the replayed churn plan")
    if workload == "clos_dataplane":
        if not 0 < int(out.get("delivered_samples", 0)) <= int(out.get("sent_samples", 0)):
            why.append("delivered samples outside (0, sent]")
    return why


def distribution(values):
    """Median, quartiles and count; the tail is the highest percentile with
    at least ten samples beyond it (None when n < 20)."""
    values = sorted(values)
    n = len(values)
    d = {"n": n, "median": statistics.median(values)}
    if n >= 2:
        q = statistics.quantiles(values, n=4)
        d["q1"], d["q3"] = q[0], q[2]
    if n >= 20:
        pct = 100.0 * (1 - 10 / n)
        d["tail_pct"] = pct
        d["tail"] = statistics.quantiles(values, n=1000)[int(pct * 10) - 1]
    return d


def source_digest():
    h = hashlib.sha256()
    for base in (ROOT / "src", HERE):
        for p in sorted(base.rglob("*")):
            if p.is_file() and p.suffix in (".cpp", ".hpp", ".txt", ".py", ".json"):
                h.update(str(p.relative_to(ROOT)).encode())
                h.update(p.read_bytes())
    return h.hexdigest()[:16]


def git_sha():
    try:
        r = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                           capture_output=True, text=True, timeout=10)
        return r.stdout.strip() if r.returncode == 0 else None
    except OSError:
        return None


def summarize(workload, result, trace):
    """Reduces the repetitions to reported metrics: {name: (value, unit, stats)}."""
    reps = result["reps"]
    untraced = [r for r in reps if not r["traced"]]
    m = {}

    def add(name, unit, samples):
        d = distribution(samples)
        m[name] = (d["median"], unit, d)

    # Counts repeat exactly, so a rate is the count over the median run time.
    run_s = statistics.median(r["run_s"] for r in untraced)

    def rate(name, count):
        per_rep = distribution([r[count] / r["run_s"] for r in untraced])
        m[name] = (untraced[0][count] / run_s, "1/s", dict(per_rep, per_rep=True))

    rate("pkts_per_s", "pkts")
    add("setup_s", "s", [r["setup_s"] for r in reps])
    m["peak_rss_mb"] = (result["peak_rss_mb"], "MB", {"n": 1})
    if workload != "clos_dataplane":
        rate("dialogues_per_s", "dialogues")
    m["run_s"] = (run_s, "s", dict(distribution([r["run_s"] for r in untraced]),
                                   per_rep=True))
    # Virtual-time metrics repeat exactly (the check compares every
    # repetition's with the reference); take the first repetition's.
    virtual = reps[0]["virtual"]
    names = {"reaction_us.p50": "reaction_p50_us", "reaction_us.p99": "reaction_p99_us",
             "reaction_us.n": "reaction_samples"}
    for k, v in virtual.items():
        name = names.get(k, k)
        unit = ("count" if name.endswith(("samples", ".base")) else
                "vus" if name.endswith("_us") else
                "1/vs" if name.endswith("_per_s") else "ratio")
        m[name] = (v, unit, {"n": 1, "virtual": True})
    if trace:
        traced = [r for r in reps if r["traced"]]
        for name, unit in result["layer_units"].items():
            add(name, unit, [r["layers"][name] for r in traced])
        overhead = (statistics.median(r["run_s"] for r in traced) /
                    statistics.median(r["run_s"] for r in untraced))
        m["telemetry.trace_overhead"] = (overhead, "ratio", {
            "n": len(traced), "base_untraced_run_s": m["run_s"][0]})
    return m


def print_table(workload, seed, host, metrics):
    print(f"workload {workload}  seed {seed}  host {json.dumps(host, sort_keys=True)}")
    print(f"{'metric':<40} {'value':>16} {'unit':<8} {'n':>5}  spread")
    for name, (value, unit, d) in metrics.items():
        spread = ""
        if "q1" in d:
            spread = f"q1 {d['q1']:.6g} q3 {d['q3']:.6g}"
        if "tail" in d:
            spread += f" p{d['tail_pct']:.1f} {d['tail']:.6g}"
        print(f"{name:<40} {value:>16.6g} {unit:<8} {d.get('n', 1):>5}  {spread}")


def run(args):
    binary = build()
    out_dir = ROOT / ".bench_out"
    out_dir.mkdir(exist_ok=True)
    ref, ref_source = reference(binary, args.workload, args.seed, args.scale,
                                out_dir)
    result = run_binary(binary, args.workload, args.seed, args.seconds,
                        args.trace, THREADS[args.workload], args.scale, out_dir)
    reps = result["reps"]
    failures = {}
    for i, rep in enumerate(reps):
        why = rep_failures(args.workload, rep, ref)
        if why:
            failures[i] = why
    metrics = summarize(args.workload, result, args.trace)

    host = dict(result["host"], threads=THREADS[args.workload], git_sha=git_sha(),
                source_digest=source_digest())
    check = (f"{len(reps) - len(failures)}/{len(reps)} repetitions match the "
             f"{ref_source} reference" +
             (" (not in references.json: computed on the sequential reference path)"
              if ref_source == "computed" else "") +
             (f"; failures {failures}" if failures else ""))
    print_table(args.workload, args.seed, host, metrics)

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    wanted = spec["per_layer" if args.trace else "end_to_end"]
    reported = {}
    for w in wanted:
        value, unit, _ = metrics[w["name"]]
        if unit != w["unit"]:
            raise RuntimeError(f"{w['name']}: unit {unit}, BENCHMARK.json says {w['unit']}")
        reported[w["name"]] = {"value": value, "unit": unit}

    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "scale": args.scale, "host": host,
        "reference": dict(ref, source=ref_source),
        "failures": failures, "files": result["files"],
        "metrics": {k: {"value": v, "unit": u, "stats": d}
                    for k, (v, u, d) in metrics.items()},
        "repetitions": reps,
    }
    path = out_dir / f"{args.workload}-seed{args.seed}-trace{int(args.trace)}.json"
    path.write_text(json.dumps(record, indent=1) + "\n")
    print(f"full result: {path.relative_to(ROOT)}")
    print(f"check: {check}")
    print(json.dumps({"correct": not failures, "attempted": len(reps),
                      "failed": len(failures), "metrics": reported}))


def record_references(seed_range, workloads):
    """Records the reference path's outputs and virtual-time metrics for a
    seed range into references.json: per seed on clos_dataplane, and once on
    each ANY_SEED workload after checking that every seed in the range
    agrees."""
    first, last = (int(x) for x in seed_range.split("-"))
    binary = build()
    out_dir = ROOT / ".bench_out"
    out_dir.mkdir(exist_ok=True)
    data = (json.loads(REFERENCE_FILE.read_text()) if REFERENCE_FILE.is_file()
            else {"references": {}})
    refs = data["references"]
    for w in workloads:
        per_seed = {}
        for seed in range(first, last + 1):
            rep = run_binary(binary, w, seed, 1e-3, False, 1, 1.0, out_dir)["reps"][0]
            for k in ANY_SEED.get(w, ()):
                del rep["outputs"][k]
            per_seed[seed] = {"outputs": rep["outputs"], "virtual": rep["virtual"]}
            log(f"recorded {w} seed {seed}")
        if w in ANY_SEED:
            if len({json.dumps(r, sort_keys=True) for r in per_seed.values()}) != 1:
                raise RuntimeError(f"{w}: references differ between seeds {seed_range}")
            refs[f"{w}/*"] = dict(per_seed[first], seeds_checked=seed_range)
        else:
            refs.update({f"{w}/{seed}": r for seed, r in per_seed.items()})
    data["references"] = dict(sorted(refs.items()))
    REFERENCE_FILE.write_text(json.dumps(data, indent=1, sort_keys=True) + "\n")


def main():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", choices=WORKLOADS)
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=10.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--scale", type=float, default=1.0,
                   help="virtual horizon scale for smoke runs (0, 1]")
    p.add_argument("--record-references", metavar="FIRST-LAST")
    args = p.parse_args()
    try:
        if args.record_references:
            record_references(args.record_references,
                              [args.workload] if args.workload else WORKLOADS)
        elif args.workload is None:
            p.error("--workload is required")
        else:
            args.trace = bool(args.trace)
            run(args)
    except (RuntimeError, OSError, ValueError, KeyError,
            subprocess.SubprocessError) as e:
        log(f"perfbench: {type(e).__name__}: {e}")
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
