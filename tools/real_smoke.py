#!/usr/bin/env python3
"""Kill-recovery smoke for the real-node runtime.

Launches N = 4 rbft_noded processes and one closed-loop rbft_client over
localhost TCP, SIGKILLs one replica mid-run, restarts it, and asserts:

  a) liveness: the client completes all requests through the outage, and
     no node process other than the SIGKILLed one exits on its own;
  b) catch-up: the restarted node resumes committing via checkpoint state
     transfer and reaches the final sequence number (its log may have a
     hole covering the outage window — that is the design);
  c) safety/fidelity: every committed (seq, fingerprint) line on every
     node — including both incarnations of the killed one — is
     byte-identical to the same-workload `rbft_noded --sim-reference`
     run's log at that seq, and the surviving nodes' full logs match the
     reference byte-for-byte.

Exit code 0 on success, 1 on any assertion failure (node/client logs are
left in --outdir for post-mortem), 2 on usage/setup errors.
"""

import argparse
import os
import shutil
import signal
import socket
import subprocess
import sys
import time


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


def write_config(path, ports, seed):
    nodes = ",\n".join(
        f'    {{ "host": "127.0.0.1", "port": {p} }}' for p in ports
    )
    with open(path, "w") as f:
        f.write(
            "{\n"
            '  "f": 1,\n'
            f'  "seed": {seed},\n'
            '  "batch_max": 8,\n'
            '  "checkpoint_interval": 16,\n'
            '  "engine_retry_ms": 40,\n'
            '  "cost_model": "zero",\n'
            '  "nodes": [\n' + nodes + "\n  ]\n}\n"
        )


def read_log(path):
    """Parses a commit log into {seq: fingerprint}; returns ({}, 0) if absent."""
    entries = {}
    last = 0
    try:
        with open(path) as f:
            for line in f:
                parts = line.split()
                if len(parts) != 2:
                    continue
                entries[int(parts[0])] = parts[1]
                last = max(last, int(parts[0]))
    except FileNotFoundError:
        pass
    return entries, last


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--bindir", default="build/tools",
                    help="directory containing rbft_noded and rbft_client")
    ap.add_argument("--requests", type=int, default=600)
    ap.add_argument("--kill-at", type=int, default=200,
                    help="client completions after which node 3 is SIGKILLed")
    ap.add_argument("--restart-after", type=float, default=2.0,
                    help="seconds node 3 stays dead")
    ap.add_argument("--timeout", type=float, default=120.0,
                    help="hard wall-clock budget for the whole scenario")
    ap.add_argument("--outdir", default="smoke_artifacts")
    args = ap.parse_args()

    if args.requests < 500:
        print("refusing: the smoke must push >= 500 requests through the outage",
              file=sys.stderr)
        return 2

    noded = os.path.join(args.bindir, "rbft_noded")
    client_bin = os.path.join(args.bindir, "rbft_client")
    for b in (noded, client_bin):
        if not os.path.exists(b):
            print(f"missing binary: {b}", file=sys.stderr)
            return 2

    shutil.rmtree(args.outdir, ignore_errors=True)
    os.makedirs(args.outdir)
    cfg = os.path.join(args.outdir, "cluster.json")
    write_config(cfg, free_ports(4), seed=42)

    deadline = time.monotonic() + args.timeout
    procs = {}

    def launch(name, cmd):
        out = open(os.path.join(args.outdir, name + ".out"), "w")
        procs[name] = (subprocess.Popen(cmd, stdout=out, stderr=subprocess.STDOUT), out)
        return procs[name][0]

    def shutdown():
        for p, out in procs.values():
            if p.poll() is None:
                p.terminate()
        for p, out in procs.values():
            try:
                p.wait(timeout=5)
            except subprocess.TimeoutExpired:
                p.kill()
            out.close()

    def fail(msg):
        print(f"FAIL: {msg}", file=sys.stderr)
        print(f"artifacts left in {args.outdir}", file=sys.stderr)
        shutdown()
        return 1

    log = lambda n: os.path.join(args.outdir, n)

    def exited(names):
        """A failure message for the first of `names` that has exited, else None."""
        for name in names:
            rc = procs[name][0].poll()
            if rc is not None:
                return f"{name} exited early with rc={rc}; log: {log(name + '.out')}"
        return None

    try:
        for i in range(4):
            launch(f"node{i}", [noded, "--config", cfg, "--node", str(i),
                                "--commitlog", log(f"n{i}.log")])
        time.sleep(0.5)

        client_log = os.path.join(args.outdir, "client.out")
        client = launch("client", [client_bin, "--config", cfg,
                                   "--requests", str(args.requests),
                                   "--timeout-seconds", str(int(args.timeout))])

        # Phase 1: wait until the client is past --kill-at completions.
        milestone = (args.kill_at // 100) * 100
        while time.monotonic() < deadline:
            dead = exited(("node0", "node1", "node2", "node3"))
            if dead:
                return fail(dead)
            try:
                with open(client_log) as f:
                    if any(line.startswith("progress ") and
                           int(line.split()[1]) >= milestone for line in f):
                        break
            except FileNotFoundError:
                pass
            if client.poll() is not None:
                return fail("client exited before the kill point")
            time.sleep(0.1)
        else:
            return fail("timed out waiting for the kill point")

        # Phase 2: SIGKILL node 3 (hosts no primary under seed views), let
        # the cluster run degraded, then restart it with a fresh commit log.
        procs["node3"][0].send_signal(signal.SIGKILL)
        _, killed_at = read_log(log("n3.log"))
        print(f"killed node 3 at seq {killed_at}")
        time.sleep(args.restart_after)
        launch("node3b", [noded, "--config", cfg, "--node", "3",
                          "--commitlog", log("n3b.log")])

        # Phase 3: the client must finish despite the outage (liveness).
        survivors = ("node0", "node1", "node2", "node3b")
        client_deadline = max(deadline, time.monotonic() + 1.0)
        while (rc := client.poll()) is None:
            dead = exited(survivors)
            if dead:
                return fail(dead)
            if time.monotonic() >= client_deadline:
                return fail("client did not finish within the budget (liveness)")
            time.sleep(0.1)
        if rc != 0:
            return fail(f"client exited rc={rc} (liveness)")
        print(f"client completed {args.requests} requests through the outage")

        # Phase 4: wait for the restarted node to catch up to the final seq.
        while time.monotonic() < deadline:
            _, last = read_log(log("n3b.log"))
            if last >= args.requests:
                break
            time.sleep(0.2)
        else:
            _, last = read_log(log("n3b.log"))
            return fail(f"restarted node stuck at seq {last} < {args.requests} (catch-up)")
        print(f"restarted node caught up to seq {args.requests}")

        # Every node except the deliberately SIGKILLed first incarnation of
        # node 3 must still be running: shutdown() would otherwise terminate
        # the survivors and hide a node that crashed on its own.
        dead = exited(survivors)
        if dead:
            return fail(dead)

        shutdown()

        # Phase 5: the deterministic reference — same spec, same workload
        # shape — must agree byte-for-byte.
        ref_path = log("ref.log")
        rc = subprocess.run([noded, "--config", cfg, "--sim-reference",
                             "--requests", str(args.requests), "--out", ref_path],
                            capture_output=True, text=True, timeout=120)
        if rc.returncode != 0:
            return fail(f"sim-reference failed: {rc.stderr.strip()}")
        ref, _ = read_log(ref_path)
        with open(ref_path, "rb") as f:
            ref_bytes = f.read()

        # Fidelity: every (seq, fingerprint) any incarnation of any node
        # committed must equal the reference at that seq.  A node may have a
        # *hole* (it fell behind and adopted a checkpoint, skipping the
        # window — the design's recovery path), but never a different value.
        union = {}
        for name in ("n0.log", "n1.log", "n2.log", "n3.log", "n3b.log"):
            entries, _ = read_log(log(name))
            if name != "n3.log" and not entries:
                return fail(f"{name} is empty")
            for seq, fp in entries.items():
                if ref.get(seq) != fp:
                    return fail(f"{name} seq {seq}: {fp} != reference {ref.get(seq)}")
                union[seq] = fp
        missing = [s for s in range(1, args.requests + 1) if s not in union]
        if missing:
            return fail(f"union of node logs misses seqs {missing[:5]}...")
        # Byte-identity: at least one surviving node must have committed the
        # entire prefix with zero holes, making its log file byte-for-byte
        # equal to the simulator's.
        identical = []
        for i in range(3):
            with open(log(f"n{i}.log"), "rb") as f:
                if f.read() == ref_bytes:
                    identical.append(i)
        if not identical:
            return fail("no surviving node's commit log is byte-identical to the sim reference")
        print(f"committed prefix byte-identical to the simulator reference "
              f"(nodes {identical}; union covers 1..{args.requests})")
        print("PASS")
        return 0
    finally:
        shutdown()


if __name__ == "__main__":
    sys.exit(main())
