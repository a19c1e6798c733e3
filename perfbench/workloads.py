"""The benchmark's four workloads, and one measured sample of each.

``run.py`` starts ``python3 perfbench/workloads.py --workload W --seed S``
once per sample, so every sample runs in a fresh process and no run's
objects stay alive in memory while the next one is timed.  The sample
prints one JSON object as its last line; ``run.py`` turns those into the
benchmark's metrics.

Each sample builds its inputs from the seed alone, runs them, checks the
outputs, and reports:

* ``setup_s`` — set-up times: ``SimulationBackend.build`` (repeated) for
  the simulations, spawn plus handshake for the multi-process workloads;
* ``ops``, ``wall_s``, ``cpu_s`` — the work done after set-up, the wall
  time it took and the CPU time of every process involved.  An op is a
  simulated round (sims), a decided transaction (deploy-mesh) or a
  transaction fanned out to every other process (wire-fanout);
* ``attempted`` / ``failed`` — transactions, see :func:`tx_report`;
* ``checks`` — every output check, each ``True`` when it passed;
* ``counters`` — the layer counters the program keeps itself.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import math
import multiprocessing
import os
import resource
import sys
import time

from arith import first_decided_round, tx_outcomes

from repro.analysis import check_asynchrony_resilience, check_safety
from repro.attacks import apply_script, get_script
from repro.core.bounds import max_resilient_pi
from repro.engine import deploy_backend
from repro.engine.deploy_backend import DeploymentBackend
from repro.engine.sim_backend import SimulationBackend
from repro.engine.spec import RunSpec
from repro.net import wire_bench
from repro.net.wire_bench import WireBenchConfig, run_wire_benchmark
from repro.protocols.tob_base import DEFAULT_BLOCK_CAPACITY
from repro.workloads.participation import churn_walk
from repro.workloads.transactions import SubmissionRateWorkload

#: Offered load of the protocol workloads: transactions per round.
TX_PER_ROUND = 6
TX_PAYLOAD_BYTES = 64
#: A transaction not decided within this many rounds of its arrival has
#: failed.  Synchronous runs decide in 3-5 rounds; partition-surge delays
#: some transactions by up to 9.
LATENCY_LIMIT_ROUNDS = 12
#: ``SimulationBackend.build`` takes milliseconds on a host whose speed
#: swings by half within seconds; the run reports the median of this many
#: builds per sample.
SIM_SETUP_REPEATS = 24

SIM_N = 300
SIM_STEADY_ROUNDS = 20
SIM_CHURN_ROUNDS = 24
SIM_CHURN_ETA = 4
SIM_CHURN_GAMMA = 0.1

DEPLOY_N = 24
DEPLOY_ROUNDS = 24
DEPLOY_DELTA_S = 0.08
DEPLOY_PROCESSES = 2
DEPLOY_MEMPOOL_CAPACITY = 256

WIRE_N = 64
WIRE_PROCESSES = 2
WIRE_TRANSACTIONS = 65536
WIRE_PAYLOAD_BYTES = 32

# A proposer packs at most DEFAULT_BLOCK_CAPACITY transactions into the one
# block of each two-round view; offering more than that per two rounds
# grows a backlog, and latency would measure the queue, not the code.
if 2 * TX_PER_ROUND > DEFAULT_BLOCK_CAPACITY:
    raise ValueError("offered load exceeds decision capacity")


def _transactions(seed: int) -> SubmissionRateWorkload:
    return SubmissionRateWorkload(TX_PER_ROUND, seed=seed, payload_bytes=TX_PAYLOAD_BYTES)


def sim_steady_spec(seed: int) -> RunSpec:
    """Full participation, synchrony: every receiver holds the same vote window."""
    return RunSpec(
        n=SIM_N,
        rounds=SIM_STEADY_ROUNDS,
        protocol="resilient",
        eta=2,
        transactions=_transactions(seed),
        seed=seed,
    )


def sim_churn_spec(seed: int) -> RunSpec:
    """Churn plus the partition-surge script: views diverge, sleepers catch up."""
    base = RunSpec(
        n=SIM_N,
        rounds=SIM_CHURN_ROUNDS,
        protocol="resilient",
        eta=SIM_CHURN_ETA,
        schedule=churn_walk(SIM_N, SIM_CHURN_ETA, SIM_CHURN_GAMMA, seed=seed),
        transactions=_transactions(seed),
        seed=seed,
    )
    spec = apply_script(base, get_script("partition-surge", SIM_N))
    for period in spec.conditions.periods:
        if period.pi > max_resilient_pi(SIM_CHURN_ETA):
            raise ValueError(f"asynchronous window {period} exceeds what η tolerates")
    return spec


def deploy_spec(seed: int) -> RunSpec:
    return RunSpec(
        n=DEPLOY_N,
        rounds=DEPLOY_ROUNDS,
        protocol="resilient",
        eta=2,
        transactions=_transactions(seed),
        seed=seed,
    )


def wire_config(seed: int) -> WireBenchConfig:
    return WireBenchConfig(
        n=WIRE_N,
        processes=WIRE_PROCESSES,
        transactions=WIRE_TRANSACTIONS,
        payload_bytes=WIRE_PAYLOAD_BYTES,
        seed=seed,
        batching=True,
    )


# ----------------------------------------------------------------------
# Measurement helpers
# ----------------------------------------------------------------------
def peak_rss_mb() -> float:
    """Peak resident memory of this process or any child it has reaped."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, children) / 1024.0


def children_cpu_s() -> float:
    """CPU seconds used so far by this process's live child processes."""
    tick = os.sysconf("SC_CLK_TCK")
    total = 0
    for child in multiprocessing.active_children():
        with open(f"/proc/{child.pid}/stat", encoding="ascii") as handle:
            fields = handle.read().rsplit(")", 1)[1].split()
        total += int(fields[11]) + int(fields[12])  # utime, stime
    return total / tick


class ControlProbe:
    """Timestamps the coordinator's control frames ("start", "shutdown").

    Both multi-process coordinators encode each control frame through
    their module's ``encode_frame``; wrapping it marks the end of set-up
    (the start barrier) and the end of the measured run, and snapshots
    the CPU time of the coordinator plus its workers at each mark.
    """

    def __init__(self, module) -> None:
        self.module = module
        self.times: dict[str, float] = {}
        self.cpu: dict[str, float] = {}

    def __enter__(self) -> ControlProbe:
        encode = self.original = self.module.encode_frame

        def probed(frame):
            tag = frame[0]
            if tag in ("start", "shutdown") and tag not in self.times:
                self.times[tag] = time.perf_counter()
                self.cpu[tag] = time.process_time() + children_cpu_s()
            return encode(frame)

        self.module.encode_frame = probed
        return self

    def __exit__(self, *exc) -> None:
        self.module.encode_frame = self.original


def tx_report(spec: RunSpec, trace) -> tuple[int, int, int, list[int]]:
    """``(attempted, failed, decided, latencies in rounds)`` of a run's transactions."""
    arrivals = {tx.tx_id: r for r in range(spec.rounds) for tx in spec.arrivals(r)}
    tree = trace.tree
    first = first_decided_round(
        ((d.round, d.tip) for d in trace.decisions),
        parent_of=lambda block_id: tree.get(block_id).parent,
        payload_of=lambda block_id: [tx.tx_id for tx in tree.get(block_id).payload],
    )
    attempted, failed, latencies = tx_outcomes(arrivals, first, spec.rounds, LATENCY_LIMIT_ROUNDS)
    decided = sum(1 for tx in arrivals if tx in first)
    return attempted, failed, decided, latencies


def decisions_digest(trace) -> str:
    """Digest of every decision event: equal iff the runs decided identically."""
    events = sorted((d.pid, d.round, d.view, d.tip or "") for d in trace.decisions)
    return hashlib.sha256(json.dumps(events).encode()).hexdigest()


# ----------------------------------------------------------------------
# Samples
# ----------------------------------------------------------------------
def _timed_builds(backend: SimulationBackend, spec: RunSpec, count: int) -> list[float]:
    """Build ``count`` simulations of ``spec`` and time each build.

    As ``timeit`` does, each build runs with the cyclic collector off and
    a full collection between builds: which build a collector pass lands
    in depends on allocation counts left by earlier code, and it doubled
    some builds' times and not others'.
    """
    setups = []
    for _ in range(count):
        gc.collect()
        gc.disable()
        try:
            started = time.perf_counter()
            backend.build(spec)
            setups.append(time.perf_counter() - started)
        finally:
            gc.enable()
    gc.collect()
    return setups


def sim_sample(spec: RunSpec) -> dict:
    backend = SimulationBackend()
    # Half the set-up timings are taken before the run and half after it,
    # seconds apart: the host's speed changes on that scale, and builds
    # bunched into one tenth of a second would all see the same speed.
    setups = _timed_builds(backend, spec, SIM_SETUP_REPEATS // 2)
    simulation = backend.build(spec)
    wall, cpu = time.perf_counter(), time.process_time()
    SimulationBackend.drive(simulation, spec)
    wall, cpu = time.perf_counter() - wall, time.process_time() - cpu

    trace = simulation.trace
    checks = {"safety": check_safety(trace).ok}
    periods = spec.conditions.periods if spec.conditions is not None else ()
    for period in periods:
        report = check_asynchrony_resilience(trace, period.ra, period.pi)
        checks[f"resilience_ra{period.ra}_pi{period.pi}"] = report.ok
    attempted, failed, _decided, latencies = tx_report(spec, trace)
    sample = {
        "ops": spec.rounds,
        "wall_s": wall,
        "cpu_s": cpu,
        "peak_rss_mb": peak_rss_mb(),
        "attempted": attempted,
        "failed": failed,
        "checks": checks,
        "digest": decisions_digest(trace),
        "counters": {"ingest": dict(simulation.pipeline.stats), "bus": dict(simulation.bus.stats)},
        "info": {"decisions": len(trace.decisions), "tx_latency_rounds": latencies},
    }
    simulation = trace = None  # the builds below start from the same heap as those above
    setups += _timed_builds(backend, spec, SIM_SETUP_REPEATS - len(setups))
    return {"setup_s": setups, **sample}


def deploy_sample(spec: RunSpec) -> dict:
    backend = DeploymentBackend(
        delta_s=DEPLOY_DELTA_S,
        processes=DEPLOY_PROCESSES,
        mempool_capacity=DEPLOY_MEMPOOL_CAPACITY,
    )
    started = time.perf_counter()
    with ControlProbe(deploy_backend) as probe:
        result = backend.execute(spec)
    trace = result.trace
    attempted, failed, decided, latencies = tx_report(spec, trace)
    # Every awake honest node decides once per view from round 3 on
    # (rounds 3, 5, ...): the decisions a run at capacity must deliver.
    per_node = len(range(3, spec.rounds, 2))
    missed = sum(
        max(0, per_node - len(trace.decisions_by(pid))) for pid in range(spec.n)
    )
    transport = result.extras["transport"]
    cpu = probe.cpu["shutdown"] - probe.cpu["start"]
    return {
        "setup_s": [probe.times["start"] - started],
        "ops": decided,
        "wall_s": probe.times["shutdown"] - probe.times["start"],
        "cpu_s": cpu,
        "peak_rss_mb": peak_rss_mb(),
        "attempted": attempted,
        "failed": failed,
        "checks": {"safety": check_safety(trace).ok, "routing": transport["misrouted"] == 0},
        "digest": None,
        "counters": {
            "transport": transport,
            "gossip": result.extras["gossip"],
            "mempool": result.extras["mempool"],
        },
        "info": {
            "decisions": len(trace.decisions),
            "missed_decision_ratio": missed / (per_node * spec.n),
            "cpu_ms_per_round": cpu * 1000 / spec.rounds,
            "tx_latency_rounds": latencies,
        },
    }


def wire_sample(config: WireBenchConfig) -> dict:
    started = time.perf_counter()
    with ControlProbe(wire_bench) as probe:
        report = run_wire_benchmark(config)
    totals = report["totals"]
    delivered = totals["received"] == totals["expected"]
    missing = totals["expected"] - totals["received"]
    return {
        "setup_s": [probe.times["start"] - started],
        "ops": config.transactions,
        "wall_s": report["wall_s"],
        "cpu_s": report["cpu_s"],
        "peak_rss_mb": peak_rss_mb(),
        "attempted": config.transactions,
        "failed": 0 if delivered else math.ceil(max(missing, 1) / (config.n - 1)),
        "checks": {"delivered": delivered, "routing": totals["misrouted"] == 0},
        "digest": None,
        "counters": {"transport": totals},
        "info": {"cpu_us_per_delivery": report["cpu_s"] * 1e6 / max(totals["received"], 1)},
    }


WORKLOADS = {
    "sim-steady": lambda seed: sim_sample(sim_steady_spec(seed)),
    "sim-partition-churn": lambda seed: sim_sample(sim_churn_spec(seed)),
    "deploy-mesh": lambda seed: deploy_sample(deploy_spec(seed)),
    "wire-fanout": lambda seed: wire_sample(wire_config(seed)),
}


def main(argv: list[str] | None = None) -> None:
    parser = argparse.ArgumentParser(description="Run one measured sample of a workload.")
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    args = parser.parse_args(argv)
    sample = WORKLOADS[args.workload](args.seed)
    sys.stdout.write(json.dumps(sample) + "\n")


if __name__ == "__main__":
    main()
