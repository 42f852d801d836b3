#!/usr/bin/env python3
"""rbft-bench: the repository's benchmark.

Builds the protocol library, rbft_noded and the rbft_bench program from the
sources in this checkout, runs one workload, checks its output and prints
every metric by name with its unit.  The last line of standard output is
one JSON object: {"correct", "attempted", "failed", "metrics"}.  With
--trace 0 the metrics are the end-to-end metrics of BENCHMARK.json, with
--trace 1 its per-layer metrics, taken from a separate traced run.

    python3 perfbench/run.py --workload fig7-steady --seed 1 --seconds 15 --trace 0
    python3 perfbench/run.py --self-test

Workloads: fig7-steady and realnode-loopback are the gated set in
BENCHMARK.json; fig7-overload and worst-attack2 run the same way but are
not gated (see perfbench/README.md).  Exit status is non-zero on a failed output
check, a build failure or a timeout; nothing is left running either way.
"""

import argparse
import ctypes
import json
import os
import shutil
import signal
import socket
import statistics
import subprocess
import sys
import tempfile
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_ROOT = os.path.join(ROOT, ".bench_build")
BUILD = os.path.join(BUILD_ROOT, "perfbench")
OUT = os.path.join(BUILD_ROOT, "perfbench-out")

SIM_WORKLOADS = ("fig7-steady", "fig7-overload", "worst-attack2")
REALNODE = "realnode-loopback"
# Open-loop offered rate of realnode-loopback (req/s): below the knee of a
# 4-process loopback cluster with real crypto (see perfbench/README.md).
REALNODE_RATE = 2000.0
SETUP_TRIALS = 5
WINDOW_S = 5.0
BUILD_TIMEOUT_S = 850.0
RUN_TIMEOUT_S = 170.0

PR_SET_PDEATHSIG = 1


def log(msg):
    print(msg, file=sys.stderr, flush=True)


class BenchError(Exception):
    pass


def die_with_parent():
    """Child pre-exec hook: the kernel SIGKILLs the child if we die."""
    try:
        ctypes.CDLL("libc.so.6", use_errno=True).prctl(PR_SET_PDEATHSIG, signal.SIGKILL)
    except OSError:
        pass


def build(deadline):
    """Configures (once) and builds rbft_bench and rbft_noded."""
    os.makedirs(BUILD, exist_ok=True)
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        cmd = ["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=RelWithDebInfo"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        run_checked(cmd, deadline, "configure")
    run_checked(["cmake", "--build", BUILD, "-j", jobs, "--target", "rbft_bench", "rbft_noded"],
                deadline, "build")


def run_checked(cmd, deadline, what):
    proc = subprocess.Popen(cmd, stdout=sys.stderr, stderr=sys.stderr,
                            preexec_fn=die_with_parent)
    try:
        rc = proc.wait(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        raise BenchError(f"{what} timed out")
    if rc != 0:
        raise BenchError(f"{what} failed (exit {rc})")


def run_bench(args, deadline):
    """Runs rbft_bench; returns its JSON result line as a dict."""
    proc = subprocess.Popen([os.path.join(BUILD, "rbft_bench")] + args,
                            stdout=subprocess.PIPE, stderr=sys.stderr, text=True,
                            preexec_fn=die_with_parent)
    try:
        out, _ = proc.communicate(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise BenchError("rbft_bench " + args[0] + " timed out")
    lines = [line for line in out.splitlines() if line.strip()]
    if not lines:
        raise BenchError(f"rbft_bench {args[0]} printed no result (exit {proc.returncode})")
    result = json.loads(lines[-1])
    result["exit"] = proc.returncode
    return result


# --- realnode-loopback --------------------------------------------------------

def free_ports(count):
    socks, ports = [], []
    for _ in range(count):
        s = socket.socket()
        s.bind(("127.0.0.1", 0))
        socks.append(s)
        ports.append(s.getsockname()[1])
    for s in socks:
        s.close()
    return ports


def proc_cpu_s(pid):
    """User + system CPU seconds of a live process, from /proc."""
    with open(f"/proc/{pid}/stat") as f:
        fields = f.read().rsplit(")", 1)[1].split()
    ticks = os.sysconf("SC_CLK_TCK")
    return (int(fields[11]) + int(fields[12])) / ticks  # utime, stime


def proc_mem_mb(pid, key):
    with open(f"/proc/{pid}/status") as f:
        for line in f:
            if line.startswith(key + ":"):
                return int(line.split()[1]) / 1024.0
    return 0.0


def read_commit_log(path):
    entries = {}
    with open(path) as f:
        for line in f:
            parts = line.split()
            if len(parts) == 2:
                entries[int(parts[0])] = parts[1]
    return entries


class LocalCluster:
    """Four rbft_noded processes on 127.0.0.1, logs in a private directory."""

    def __init__(self, workdir, seed):
        self.dir = workdir
        os.makedirs(workdir)
        self.config = os.path.join(workdir, "cluster.json")
        nodes = [{"host": "127.0.0.1", "port": p} for p in free_ports(4)]
        with open(self.config, "w") as f:
            json.dump({"f": 1, "seed": seed, "batch_max": 64, "checkpoint_interval": 128,
                       "engine_retry_ms": 40, "cost_model": "zero", "nodes": nodes}, f)
        self.procs = []

    def start(self, deadline):
        noded = os.path.join(BUILD, "rbft_noded")
        for i in range(4):
            out = open(os.path.join(self.dir, f"node{i}.out"), "w")
            self.procs.append((subprocess.Popen(
                [noded, "--config", self.config, "--node", str(i),
                 "--commitlog", os.path.join(self.dir, f"n{i}.log")],
                stdout=out, stderr=subprocess.STDOUT, preexec_fn=die_with_parent), out))
        waiting = set(range(4))
        while waiting:
            for i in list(waiting):
                if self.procs[i][0].poll() is not None:
                    raise BenchError(f"node {i} exited during start-up")
                with open(os.path.join(self.dir, f"node{i}.out")) as f:
                    if "listening" in f.read():
                        waiting.discard(i)
            if time.monotonic() > deadline:
                raise BenchError("nodes did not start listening in time")
            time.sleep(0.001)

    def sample(self):
        """(CPU s, peak RSS MiB, current RSS MiB) per node."""
        return [(proc_cpu_s(p.pid), proc_mem_mb(p.pid, "VmHWM"), proc_mem_mb(p.pid, "VmRSS"))
                for p, _ in self.procs]

    def stop(self):
        for p, _ in self.procs:
            if p.poll() is None:
                p.terminate()
        for p, out in self.procs:
            try:
                p.wait(timeout=5)
            except subprocess.TimeoutExpired:
                p.kill()
                p.wait()
            out.close()

    def check_logs(self):
        """Commit logs agree on every common seq; every node committed."""
        logs = [read_commit_log(os.path.join(self.dir, f"n{i}.log")) for i in range(4)]
        violations = [f"node {i} committed nothing" for i, log in enumerate(logs) if not log]
        for i in range(4):
            for j in range(i + 1, 4):
                for seq in logs[i].keys() & logs[j].keys():
                    if logs[i][seq] != logs[j][seq]:
                        violations.append(f"nodes {i} and {j} disagree at seq {seq}")
                        break
        return violations, max((len(log) for log in logs), default=0)


def run_realnode(seed, seconds, trace, deadline):
    """Set-up trials, then --seconds of open-loop load split into windows of
    about WINDOW_S, each on a fresh cluster; metrics are window medians."""
    windows = max(1, round(seconds / WINDOW_S))
    window_s = seconds / windows
    if trace:
        windows = 1
    trials = max(SETUP_TRIALS, windows)
    os.makedirs(BUILD_ROOT, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix="realnode-", dir=BUILD_ROOT)
    clusters = []
    try:
        setups, violations, measured = [], [], []
        for trial in range(trials):
            measure = trial >= trials - windows
            cluster = LocalCluster(os.path.join(workdir, f"trial{trial}"), seed)
            clusters.append(cluster)
            t0 = time.monotonic_ns()
            cluster.start(deadline)
            args = ["client", "--config", cluster.config, "--seed", str(seed * 64 + trial),
                    "--seconds", str(window_s), "--rate", str(REALNODE_RATE),
                    "--trace", "1" if trace else "0", "--out", OUT]
            if not measure:
                args.append("--probe-only")
            res = run_bench(args, deadline)
            if res["exit"] != 0:
                raise BenchError(f"realnode client exited {res['exit']}")
            setups.append((res["metrics"].pop("first_reply_mono_ns")[0] - t0) / 1e9)
            samples = cluster.sample() if measure else None
            cluster.stop()
            bad, log_len = cluster.check_logs()
            violations += bad
            if measure:
                m = res["metrics"]
                completed = m.pop("completed")[0]
                kreq = max(completed, 1.0) / 1e3
                node_cpu_ms = [cpu * 1e3 for cpu, _, _ in samples]
                m["cpu_ms_per_kreq"] = [sum(node_cpu_ms) / kreq, "ms/kreq"]
                m["peak_rss_mb"] = [max(hwm for _, hwm, _ in samples), "MiB"]
                m["runtime.node_cpu_ms_per_kreq"] = [max(node_cpu_ms) / kreq, "ms/kreq"]
                m["runtime.node_rss_mb"] = [max(rss for _, _, rss in samples), "MiB"]
                m["bft.batch_size"] = [completed / max(log_len, 1), "count"]
                measured.append(res)
        metrics = {name: [statistics.median(r["metrics"][name][0] for r in measured), unit]
                   for name, (_, unit) in measured[0]["metrics"].items()
                   if all(name in r["metrics"] for r in measured)}
        metrics["setup_s"] = [statistics.median(setups), "s"]
        metrics["windows"] = [len(measured), "count"]
        return {"correct": all(r["correct"] for r in measured) and not violations,
                "attempted": sum(r["attempted"] for r in measured),
                "failed": sum(r["failed"] for r in measured),
                "metrics": metrics, "violations": violations}
    finally:
        for cluster in clusters:
            cluster.stop()
        shutil.rmtree(workdir, ignore_errors=True)


# --- reporting -----------------------------------------------------------------

def load_contract():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def report(workload, trace, result, contract):
    """Prints the metric table and the final JSON line; returns exit code."""
    produced = {name: (v[0], v[1]) for name, v in result["metrics"].items()}
    wanted = contract["per_layer"] if trace else contract["end_to_end"]
    gated = workload in {w["name"] for w in contract["workloads"]}
    metrics = {}
    for spec in wanted:
        name = spec["name"]
        # Per-layer "e2e.<metric>" carries an ungated end-to-end number.
        source = name[len("e2e."):] if trace and name.startswith("e2e.") else name
        if source in produced:
            value, unit = produced[source]
            if unit != spec["unit"]:
                raise BenchError(f"{name}: unit {unit} != {spec['unit']}")
        elif trace:
            # A layer this workload does not run (the simulated network on
            # realnode, the socket runtime on sim workloads) reads zero.
            value = 0.0
            produced[name] = (value, spec["unit"])
        elif gated:
            raise BenchError(f"{workload} produced no {name}")
        else:
            continue
        metrics[name] = {"value": value, "unit": spec["unit"]}
    print(f"# {workload} ({'traced, per-layer' if trace else 'end-to-end'})")
    for name, (value, unit) in sorted(produced.items()):
        print(f"{name:34s} {value:16.6f} {unit}")
    for v in result.get("violations", []):
        print(f"VIOLATION {v}")
    print(json.dumps({"correct": bool(result["correct"]), "attempted": int(result["attempted"]),
                      "failed": int(result["failed"]), "metrics": metrics}))
    sys.stdout.flush()
    return 0 if result["correct"] else 1


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=15.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--self-test", action="store_true")
    args = ap.parse_args()
    if not args.self_test and args.workload not in SIM_WORKLOADS + (REALNODE,):
        ap.error(f"--workload must be one of {', '.join(SIM_WORKLOADS + (REALNODE,))}")

    # SIGTERM unwinds through the finally blocks that reap node processes.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    try:
        contract = load_contract()
        build(time.monotonic() + BUILD_TIMEOUT_S)
        deadline = time.monotonic() + RUN_TIMEOUT_S
        if args.self_test:
            proc = subprocess.run([os.path.join(BUILD, "rbft_bench"), "selftest"],
                                  timeout=RUN_TIMEOUT_S, preexec_fn=die_with_parent)
            return proc.returncode
        os.makedirs(OUT, exist_ok=True)
        if args.workload == REALNODE:
            result = run_realnode(args.seed, args.seconds, args.trace, deadline)
        else:
            result = run_bench(["sim", "--workload", args.workload, "--seed", str(args.seed),
                                 "--seconds", str(args.seconds), "--trace", str(args.trace),
                                 "--out", OUT], deadline)
        return report(args.workload, args.trace, result, contract)
    except (BenchError, OSError, ValueError, KeyError, subprocess.SubprocessError) as e:
        log(f"rbft-bench: {e}")
        return 1


if __name__ == "__main__":
    sys.exit(main())
