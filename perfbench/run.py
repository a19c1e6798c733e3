"""The repository's benchmark: one command, four workloads, checked outputs.

Run from the repository root::

    python3 perfbench/run.py --workload sim-steady --seed 1 --seconds 35 --trace 0

``--trace 0`` measures the end-to-end metrics: it runs fresh-process
samples of the workload (``perfbench/workloads.py``) back to back for
``--seconds`` seconds, at least two, and reports each metric's median
over the samples.  ``--trace 1`` alternates two untraced and two traced
samples and reports the per-layer metrics: self time or count per layer, from
spans the start-up hook in ``perfbench/hook`` records in every process
of the traced sample, plus the tracing overhead.

Every line but the last names a metric or a check for a reader; the last
line is one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``.  A sample whose output fails a check makes the run
incorrect and its operations failed.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time

from arith import layer_seconds, nearest_rank, ratio, tail_percentile

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
SAMPLE_SCRIPT = os.path.join(BENCH_DIR, "workloads.py")
HOOK_DIR = os.path.join(BENCH_DIR, "hook")
OUT_DIR = os.path.join(BENCH_DIR, "out")
TMP_DIR = os.path.join(OUT_DIR, "tmp")

WORKLOADS = ("sim-steady", "sim-partition-churn", "deploy-mesh", "wire-fanout")
#: A run must end within this budget; samples get what is left of it.
RUN_BUDGET_S = 170.0
MIN_SAMPLES = 2
#: Untraced/traced sample pairs of a traced run.
TRACE_PAIRS = 2

END_TO_END = {
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "ops_per_s": "1/s",
    "cpu_ms_per_op": "ms",
}

#: per-layer metric -> unit.  Times are self times summed over the
#: traced sample, in seconds.
PER_LAYER = {
    "tally.set_votes_s": "s",
    "tally.grade_s": "s",
    "tally.set_votes_calls": "count",
    "chain.offer_s": "s",
    "chain.offer_calls": "count",
    "chain.view_adds": "count",
    "votes.record_s": "s",
    "votes.latest_s": "s",
    "votes.prune_s": "s",
    "protocol.send_self_s": "s",
    "protocol.receive_self_s": "s",
    "ingest.batch_s": "s",
    "ingest.batch_reuse_ratio": "ratio",
    "ingest.crypto_verifications": "count",
    "bus.publish_s": "s",
    "bus.deliver_s": "s",
    "bus.tail_reuse_ratio": "ratio",
    "bus.messages_materialised": "count",
    "adversary.deliver_s": "s",
    "crypto.verify_s": "s",
    "wire.encode_s": "s",
    "wire.decode_s": "s",
    "wire.send_many_s": "s",
    "wire.bytes_per_frame": "B",
    "wire.frames_per_batch": "count",
    "wire.payload_reuse_ratio": "ratio",
    "gossip.duplicate_ratio": "ratio",
    "node.send_phase_s": "s",
    "node.receive_phase_s": "s",
    "node.send_lateness_ms": "ms",
    "mempool.shed": "count",
    "trace.overhead_pct": "%",
}

#: per-layer time metric -> the span name whose self time it sums.
SPAN_TIMES = {
    "tally.set_votes_s": "tally.set_votes",
    "tally.grade_s": "tally.grade",
    "chain.offer_s": "chain.offer",
    "votes.record_s": "votes.record",
    "votes.latest_s": "votes.latest",
    "votes.prune_s": "votes.prune",
    "protocol.send_self_s": "protocol.send",
    "protocol.receive_self_s": "protocol.receive",
    "ingest.batch_s": "ingest.batch",
    "bus.publish_s": "bus.publish",
    "bus.deliver_s": "bus.deliver",
    "adversary.deliver_s": "adversary.deliver",
    "crypto.verify_s": "crypto.verify",
    "wire.encode_s": "wire.encode",
    "wire.decode_s": "wire.decode",
    "wire.send_many_s": "wire.send_many",
    "node.send_phase_s": "node.send_phase",
    "node.receive_phase_s": "node.receive_phase",
}


class SampleError(RuntimeError):
    """A sample process failed or printed no result."""


def run_sample(workload: str, seed: int, timeout: float, trace_dir: str | None = None) -> dict:
    """Run one sample in a fresh interpreter and return its JSON result."""
    paths = [os.path.join(os.getcwd(), "src")]
    env = dict(os.environ)
    env.pop("PERFBENCH_TRACE_DIR", None)
    if trace_dir is not None:
        paths.append(HOOK_DIR)
        env["PERFBENCH_TRACE_DIR"] = trace_dir
    env["PYTHONPATH"] = os.pathsep.join(paths)
    # The multi-process workloads bind UNIX sockets under the temporary
    # directory; keep them inside the checkout unless that would push a
    # socket path past the ~100-byte AF_UNIX limit.
    if len(TMP_DIR) <= 60:
        os.makedirs(TMP_DIR, exist_ok=True)
        env["TMPDIR"] = TMP_DIR
    command = [sys.executable, SAMPLE_SCRIPT, "--workload", workload, "--seed", str(seed)]
    # A session of its own, so a sample that overruns is killed together
    # with the worker processes it spawned.
    with subprocess.Popen(
        command,
        env=env,
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
        start_new_session=True,
    ) as child:
        try:
            stdout, stderr = child.communicate(timeout=max(timeout, 1.0))
        except subprocess.TimeoutExpired:
            os.killpg(child.pid, signal.SIGKILL)
            child.communicate()
            raise SampleError(f"{workload} sample exceeded {timeout:.0f} s") from None
    lines = stdout.strip().splitlines()
    if child.returncode != 0 or not lines:
        raise SampleError(f"{workload} sample failed:\n{stderr[-2000:]}")
    return json.loads(lines[-1])


def sample_ok(sample: dict) -> bool:
    return all(sample["checks"].values())


def end_to_end(samples: list[dict]) -> dict[str, float]:
    """Each end-to-end metric's median over the samples that passed their checks."""
    good = [s for s in samples if sample_ok(s)]
    return {
        "setup_s": statistics.median(t for s in good for t in s["setup_s"]),
        "peak_rss_mb": statistics.median(s["peak_rss_mb"] for s in good),
        "ops_per_s": statistics.median(s["ops"] / s["wall_s"] for s in good),
        "cpu_ms_per_op": statistics.median(1000.0 * s["cpu_s"] / s["ops"] for s in good),
    }


def load_traces(trace_dir: str) -> tuple[dict, dict, dict, dict, dict]:
    """Merge the span files of every traced process.

    Returns ``(seconds, span calls, hot calls, samples, stats)``: self
    seconds and timed calls per span name, all calls per hot name,
    per-call samples, and the program's own counters summed.
    """
    seconds: dict[str, float] = {}
    calls: dict[str, int] = {}
    hot_totals: dict[str, int] = {}
    samples: dict[str, list[float]] = {}
    stats: dict[str, dict[str, int]] = {}
    files = sorted(f for f in os.listdir(trace_dir) if f.startswith("spans-"))
    if not files:
        raise SampleError("the traced sample wrote no spans: the start-up hook did not run")
    for name in files:
        with open(os.path.join(trace_dir, name), encoding="utf-8") as handle:
            data = json.load(handle)
        hot = {(h, parent): n for h, parent, n in data["hot"]}
        estimated = layer_seconds(data["spans"], hot, data["sampled"], data["span_cost"])
        for span, value in estimated.items():
            seconds[span] = seconds.get(span, 0.0) + value
        for row in data["spans"]:
            calls[row[0]] = calls.get(row[0], 0) + 1
        for (h, _parent), n in hot.items():
            hot_totals[h] = hot_totals.get(h, 0) + n
        for key, values in data["samples"].items():
            samples.setdefault(key, []).extend(values)
        for key, counters in data["stats"].items():
            merged = stats.setdefault(key, {})
            for counter, value in counters.items():
                merged[counter] = merged.get(counter, 0) + value
    return seconds, calls, hot_totals, samples, stats


def per_layer(trace_dir: str, traced: list[dict], untraced: list[dict]) -> dict[str, float]:
    """Per-layer metrics of the last traced sample, plus the tracing overhead."""
    seconds, calls, hot, samples, stats = load_traces(trace_dir)
    counters = traced[-1]["counters"]
    metrics = {name: seconds.get(span, 0.0) for name, span in SPAN_TIMES.items()}
    ingest = stats.get("ingest", {})
    bus = stats.get("bus", {})
    transport = counters.get("transport", {})
    gossip = counters.get("gossip", {})
    lateness = samples.get("node.send_lateness_ms", [])
    metrics.update(
        {
            "tally.set_votes_calls": calls.get("tally.set_votes", 0),
            "chain.offer_calls": hot.get("chain.offer", 0),
            "chain.view_adds": hot.get("chain.view_add", 0),
            "ingest.batch_reuse_ratio": ratio(
                ingest.get("batch_memo_hits", 0),
                ingest.get("batch_memo_hits", 0) + ingest.get("batches_built", 0),
            ),
            "ingest.crypto_verifications": ingest.get("crypto_verifications", 0),
            "bus.tail_reuse_ratio": ratio(
                bus.get("tail_reuses", 0), bus.get("tail_reuses", 0) + bus.get("tail_builds", 0)
            ),
            "bus.messages_materialised": bus.get("messages_materialised", 0),
            "wire.bytes_per_frame": ratio(
                transport.get("bytes_sent", 0), transport.get("frames_sent", 0)
            ),
            "wire.frames_per_batch": ratio(
                transport.get("frames_sent", 0), transport.get("batches_sent", 0)
            ),
            "wire.payload_reuse_ratio": ratio(
                transport.get("payload_reuses", 0),
                transport.get("payload_reuses", 0) + transport.get("payload_encodes", 0),
            ),
            "gossip.duplicate_ratio": ratio(
                gossip.get("duplicates", 0),
                gossip.get("duplicates", 0) + gossip.get("delivered", 0),
            ),
            "node.send_lateness_ms": nearest_rank(lateness, 90) if lateness else 0.0,
            "mempool.shed": counters.get("mempool", {}).get("shed", 0),
        }
    )
    plain = end_to_end(untraced)["cpu_ms_per_op"]
    metrics["trace.overhead_pct"] = 100.0 * (end_to_end(traced)["cpu_ms_per_op"] / plain - 1)
    return {name: metrics[name] for name in PER_LAYER}


def report_lines(workload: str, samples: list[dict]) -> list[str]:
    """Human-readable lines: checks, counts, and the latency distribution."""
    lines = [f"workload {workload}: {len(samples)} samples"]
    for index, sample in enumerate(samples):
        failed_checks = [name for name, ok in sample["checks"].items() if not ok]
        verdict = "FAILED " + ", ".join(failed_checks) if failed_checks else "ok"
        lines.append(
            f"  sample {index}: checks {verdict}"
            f"; {sample['failed']}/{sample['attempted']} transactions failed"
        )
    latencies = [x for s in samples for x in s["info"].get("tx_latency_rounds", ())]
    if latencies:
        line = f"  tx latency (rounds): p50 {nearest_rank(latencies, 50)}"
        tail = tail_percentile(latencies)
        if tail is not None and tail[0] > 50:
            line += f", p{tail[0]:g} {tail[1]}"
        lines.append(line + f" over {len(latencies)} decided transactions")
    for key in ("missed_decision_ratio", "cpu_ms_per_round", "cpu_us_per_delivery"):
        values = [s["info"][key] for s in samples if key in s["info"]]
        if values:
            lines.append(f"  {key}: median {statistics.median(values):.4g}")
    return lines


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join("src", "repro", "__init__.py")):
        print("perfbench: run from the repository root (src/repro not found)", file=sys.stderr)
        return 2

    started = time.monotonic()

    def remaining() -> float:
        return RUN_BUDGET_S - (time.monotonic() - started)

    samples: list[dict] = []
    errors: list[str] = []
    metrics: dict[str, float] = {}
    try:
        if args.trace:
            # Untraced and traced samples alternate, so a slow spell of the
            # host does not land on one side only; the per-layer figures
            # come from the last traced sample.
            trace_dir = os.path.join(OUT_DIR, f"trace-{args.workload}")
            for _ in range(TRACE_PAIRS):
                samples.append(run_sample(args.workload, args.seed, remaining()))
                shutil.rmtree(trace_dir, ignore_errors=True)
                os.makedirs(trace_dir)
                samples.append(run_sample(args.workload, args.seed, remaining(), trace_dir))
            if all(sample_ok(s) for s in samples):
                metrics = per_layer(trace_dir, samples[1::2], samples[0::2])
        else:
            durations: list[float] = []
            while True:
                began = time.monotonic()
                samples.append(run_sample(args.workload, args.seed, remaining()))
                durations.append(time.monotonic() - began)
                elapsed = time.monotonic() - started
                if len(samples) >= MIN_SAMPLES and (
                    elapsed + statistics.median(durations) > args.seconds
                ):
                    break
            if any(sample_ok(s) for s in samples):
                metrics = end_to_end(samples)
    except SampleError as exc:
        errors.append(str(exc))

    # Simulations are deterministic: every sample of one seed, traced or
    # not, must decide the same (the multi-process workloads report no digest).
    if len({s["digest"] for s in samples}) > 1:
        errors.append("samples of one seed decided differently")
    correct = not errors and bool(samples) and all(sample_ok(s) for s in samples)
    attempted = sum(s["attempted"] for s in samples) or 1
    failed = attempted if not samples else sum(
        s["attempted"] if not sample_ok(s) else s["failed"] for s in samples
    )
    units = PER_LAYER if args.trace else END_TO_END

    for line in report_lines(args.workload, samples) + errors:
        print(line)
    for name, value in metrics.items():
        print(f"{name}: {value:.6g} {units[name]}")
    result = {
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": v, "unit": units[name]} for name, v in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
