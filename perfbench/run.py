"""Request-path benchmark: one seeded, single-process, single-threaded
driver over the sharded, journaled OASIS stack.

    python3 perfbench/run.py --workload access_hot --seed 1 --seconds 30 --trace 0

Runs rounds of the chosen workload until ``--seconds`` of wall time are
used (at least three rounds untraced, two traced).  Each round builds a
fresh world from the seed (its wall time is one ``setup_s`` sample),
runs the workload's fixed op count, and sweeps the end-of-run
invariants.  Every metric is printed by name with its unit; the last
line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``.  ``--trace 0`` reports the
end-to-end metrics; ``--trace 1`` alternates untraced and traced rounds
and reports the per-layer metrics.  The exit code is non-zero when any
op failed or any invariant sweep found a breach.
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import random
import resource
import statistics
import sys
from pathlib import Path
from time import perf_counter
from typing import Optional

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
# ``repro`` (and the benchmark modules importing it) load only after
# main() has checked that the sources are there, hence the local imports.

MIN_ROUNDS = {False: 3, True: 2}
# traced accounting: layer self times + unattributed time must equal the
# traced wall time to within this share of it
ACCOUNTING_TOLERANCE = 0.01

END_TO_END = [
    # name, unit, better
    ("setup_s", "s", "lower"),
    ("op_p50_us", "us", "lower"),
    ("op_p99_us", "us", "lower"),
    ("ops_per_s", "1/s", "higher"),
    ("peak_rss_mb", "MB", "lower"),
]

LAYER_EXTRAS = [
    ("core.secrets.hmacs_per_op", "count", "lower"),
    ("core.service.validity_hit_ratio", "ratio", "higher"),
    ("core.service.signature_hit_ratio", "ratio", "higher"),
    ("core.sharding.replica_warm_ratio", "ratio", "higher"),
    ("mssa.custode.decision_hit_ratio", "ratio", "higher"),
    ("core.credentials.create_external.growth", "ratio", "lower"),
    ("core.credentials.update_external_many.growth", "ratio", "lower"),
    ("core.credentials.cascade.records_changed_per_op", "count", "lower"),
    ("core.credentials.cascade.records_visited_per_op", "count", "lower"),
    ("core.journal.appends_per_op", "count", "lower"),
    ("core.journal.drain.growth", "ratio", "lower"),
    ("core.journal.dead_letters", "count", "lower"),
    ("runtime.codec.intern_hit_ratio", "ratio", "higher"),
    ("runtime.wire.items_per_flush", "count", "higher"),
    ("runtime.wire.coalesced_per_op", "count", "higher"),
    ("runtime.network.messages_per_op", "count", "lower"),
    ("runtime.network.bytes_per_op", "B", "lower"),
    ("runtime.network.unaccounted", "count", "lower"),
    ("runtime.rpc.retries_per_op", "count", "lower"),
    ("runtime.simulator.events_per_op", "count", "lower"),
    ("trace.unattributed_share", "ratio", "lower"),
    ("trace.overhead", "ratio", "lower"),
]


def per_layer_spec() -> list[tuple[str, str, str]]:
    """Every per-layer metric, in report order: each layer's self time
    and entry-point calls per op, then the layers' own ratios/counts."""
    from perfbench.trace import LAYERS

    spec = []
    for layer in LAYERS:
        spec.append((f"{layer}.self_us_per_op", "us", "lower"))
        spec.append((f"{layer}.calls_per_op", "count", "lower"))
    return spec + LAYER_EXTRAS


# ------------------------------------------------------------------ stats


def quantile(samples: list, q: float) -> float:
    """Nearest-rank quantile of ``samples``."""
    ordered = sorted(samples)
    rank = max(1, math.ceil(q * len(ordered)))
    return ordered[rank - 1]


def tail_q(count: int) -> float:
    """The "p99": the 99th percentile, or the highest percentile that
    still leaves ten samples beyond it when there are fewer than 1000."""
    return min(0.99, max(0.5, 1.0 - 10.0 / count)) if count else 0.99


def ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


# ----------------------------------------------------------------- rounds


class Round:
    """One fresh world: set-up, the timed phase, the sweeps."""

    def __init__(self, workload: str, seed: int, traced: bool,
                 sessions: Optional[int] = None, ops: Optional[int] = None):
        """``sessions`` and ``ops`` shrink the round for the benchmark's
        own tests; the command line always runs the workload's sizes."""
        from perfbench import trace as tracing
        from perfbench.workloads import SESSIONS, WORKLOADS
        from perfbench.world import build_world

        self.traced = traced
        self.tracer = None
        tracer = tracing.Tracer()
        uninstall = tracing.install(tracer) if traced else None
        try:
            gc.collect()
            started = perf_counter()
            world = build_world(seed, sessions or SESSIONS)
            self.setup_s = perf_counter() - started
            # hand every timed phase the same settled heap: without this,
            # whether a full collection of the set-up garbage lands inside
            # the timed phase depends on the previous round
            gc.collect()
            if traced:
                tracer.reset()
                detach = tracing.attach(tracer, world.sim)
            before = world.counters()
            self.samples = WORKLOADS[workload](
                world,
                random.Random(f"{workload}:{seed}"),
                tracer.set_op if traced else None,
                **({} if ops is None else {"ops": ops}),
            )
            if traced:
                # spans after the timed phase (the sweeps) must not count
                self.tracer = tracer.freeze()
                detach()
            after = world.counters()
            self.delta = {key: after[key] - before[key] for key in after}
            self.dead_letters = sum(
                len(journal.dead_letters())
                for journal in world.linkage.durable.journals().values()
            )
            self.breaches = world.end_of_run_breaches()
            self.unaccounted = world.net.unaccounted()
        finally:
            if uninstall is not None:
                uninstall()

    @property
    def ops_per_s(self) -> float:
        return ratio(self.samples.ops, self.samples.wall_s)


def run_rounds(workload: str, seed: int, seconds: float, trace: bool) -> list:
    rounds: list[Round] = []
    started = perf_counter()
    while True:
        round_started = perf_counter()
        rounds.append(Round(workload, seed, traced=trace and len(rounds) % 2 == 1))
        last = perf_counter() - round_started
        elapsed = perf_counter() - started
        if len(rounds) >= MIN_ROUNDS[trace] and elapsed + last > seconds:
            return rounds


# ---------------------------------------------------------------- metrics


def end_to_end(rounds: list) -> dict:
    """Each round is one repetition: every metric is the median of its
    per-round values (one slow round cannot move it), except peak RSS,
    which is the process's."""
    def per_round(metric):
        return statistics.median(metric(r) for r in rounds)

    def tail(r):
        samples = r.samples.op_us
        return quantile(samples, tail_q(len(samples)))

    peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return {
        "setup_s": per_round(lambda r: r.setup_s),
        "op_p50_us": per_round(lambda r: quantile(r.samples.op_us, 0.5)),
        "op_p99_us": per_round(tail),
        "ops_per_s": per_round(lambda r: r.ops_per_s),
        "peak_rss_mb": peak_kb / 1024.0,
    }


def detail(rounds: list) -> list[tuple[str, float, str, str]]:
    """The workload-specific figures behind the end-to-end metrics:
    (name, value, unit, note) rows for the human-readable report."""
    rows = []
    op_samples = [s for r in rounds for s in r.samples.op_us]
    rows.append(("op samples", len(op_samples), "count", ""))
    named: dict[str, list] = {}
    for r in rounds:
        for name, values in r.samples.extra.items():
            named.setdefault(name, []).extend(values)
    for name, values in sorted(named.items()):
        if not values:
            continue
        base, unit = name.rsplit("_", 1)
        q = tail_q(len(values))
        rows.append((f"{base}_p50_{unit}", quantile(values, 0.5), unit,
                     f"n={len(values)}"))
        rows.append((f"{base}_p99_{unit}", quantile(values, q), unit,
                     f"n={len(values)}, q={q:.3f}"))
    ops = sum(r.samples.ops for r in rounds)
    total = {key: sum(r.delta[key] for r in rounds) for key in rounds[0].delta}
    failed = sum(r.samples.failed for r in rounds)
    rows.append(("failed_frac", ratio(failed, ops), "ratio", f"of {ops} ops"))
    rows.append(("wire_bytes_per_op", ratio(total["encoded_bytes"], ops), "B", ""))
    rows.append(("messages_per_op", ratio(total["messages"], ops), "count", ""))
    rows.append(("events_per_op", ratio(total["events"], ops), "count", ""))
    rows.append(("appends_per_op", ratio(total["appends"], ops), "count", ""))
    rows.append(("rounds", len(rounds), "count", ""))
    return rows


def per_layer(rounds: list) -> tuple[dict, float]:
    """Per-layer metrics over the traced rounds; also returns the worst
    accounting error as a share of the traced wall time."""
    from perfbench.trace import LAYERS

    traced = [r for r in rounds if r.traced]
    plain = [r for r in rounds if not r.traced]
    ops = sum(r.samples.ops for r in traced)
    wall = sum(r.samples.wall_s for r in traced)
    self_s = {layer: 0.0 for layer in LAYERS}
    calls = {layer: 0 for layer in LAYERS}
    growth: dict[str, list] = {}
    covered = 0.0
    error = 0.0
    for r in traced:
        tracer = r.tracer
        for layer, seconds in tracer.layer_self_s().items():
            self_s[layer] += seconds
        for layer, count in tracer.layer_calls().items():
            calls[layer] += count
        for key, layer, label in (
            ("core.credentials.create_external.growth",
             "core.credentials.create_external",
             "CredentialRecordTable.create_external"),
            ("core.credentials.update_external_many.growth",
             "core.credentials.update_external_many",
             "CredentialRecordTable.update_external_many"),
            ("core.journal.drain.growth", "core.journal", "drain"),
        ):
            growth.setdefault(key, []).append(tracer.growth(layer, label))
        # self times must add up to the time top-level spans cover; a
        # span left open (an escaped exception) breaks the accounts
        leak = abs(sum(tracer.self_s) - tracer.top_s) / r.samples.wall_s
        error = max(error, math.inf if tracer.depth else leak)
        covered += tracer.top_s
    total = {key: sum(r.delta[key] for r in traced) for key in traced[0].delta}
    out = {}
    for layer in LAYERS:
        out[f"{layer}.self_us_per_op"] = ratio(self_s[layer], ops) * 1e6
        out[f"{layer}.calls_per_op"] = ratio(calls[layer], ops)
    out["core.secrets.hmacs_per_op"] = out["core.secrets.calls_per_op"]
    out["core.service.validity_hit_ratio"] = ratio(
        total["validity_hits"], total["validations"])
    out["core.service.signature_hit_ratio"] = ratio(
        total["signature_hits"], total["validations"])
    out["core.sharding.replica_warm_ratio"] = ratio(
        total["replica_warm"], total["replica_reads"])
    out["mssa.custode.decision_hit_ratio"] = ratio(
        total["decision_hits"], total["decision_hits"] + total["decision_misses"])
    for key, values in growth.items():
        out[key] = statistics.median(values)
    out["core.credentials.cascade.records_changed_per_op"] = ratio(
        total["records_changed"], ops)
    out["core.credentials.cascade.records_visited_per_op"] = ratio(
        total["records_visited"], ops)
    out["core.journal.appends_per_op"] = ratio(total["appends"], ops)
    out["core.journal.dead_letters"] = sum(r.dead_letters for r in traced)
    out["runtime.codec.intern_hit_ratio"] = ratio(
        total["intern_hits"], total["intern_hits"] + total["intern_misses"])
    out["runtime.wire.items_per_flush"] = ratio(
        total["wire_sends"], total["wire_batches"])
    out["runtime.wire.coalesced_per_op"] = ratio(total["coalesced"], ops)
    out["runtime.network.messages_per_op"] = ratio(total["messages"], ops)
    out["runtime.network.bytes_per_op"] = ratio(total["encoded_bytes"], ops)
    out["runtime.network.unaccounted"] = max(r.unaccounted for r in traced)
    out["runtime.rpc.retries_per_op"] = ratio(total["rpc_retries"], ops)
    out["runtime.simulator.events_per_op"] = ratio(total["events"], ops)
    out["trace.unattributed_share"] = ratio(wall - covered, wall)
    untraced_rate = statistics.median(r.ops_per_s for r in plain)
    traced_rate = statistics.median(r.ops_per_s for r in traced)
    out["trace.overhead"] = ratio(untraced_rate, traced_rate) - 1.0
    return out, error


# ------------------------------------------------------------------- main


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=["access_hot", "session_churn", "revoke_storm"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)

    if not (SRC / "repro").is_dir():
        print(f"perfbench: no program sources at {SRC / 'repro'}", file=sys.stderr)
        return 2
    for path in (str(SRC), str(ROOT)):
        if path not in sys.path:
            sys.path.insert(0, path)

    trace = bool(args.trace)
    rounds = run_rounds(args.workload, args.seed, args.seconds, trace)
    attempted = sum(r.samples.ops for r in rounds)
    failed = sum(r.samples.failed for r in rounds)
    breaches = [b for r in rounds for b in r.breaches]
    failures = [f for r in rounds for f in r.samples.failures][:5]

    print(f"# workload {args.workload}  seed {args.seed}  "
          f"{'traced' if trace else 'untraced'}  rounds {len(rounds)}")
    if trace:
        values, error = per_layer(rounds)
        spec = per_layer_spec()
        if error > ACCOUNTING_TOLERANCE:
            breaches.append(
                f"traced accounting off by {error:.2%} of wall time "
                f"(tolerance {ACCOUNTING_TOLERANCE:.0%})"
            )
    else:
        values = end_to_end(rounds)
        spec = END_TO_END
    for index, r in enumerate(rounds):
        print(f"# round {index} {'traced' if r.traced else 'untraced'}  "
              f"setup {r.setup_s:.3f} s  ops {r.samples.ops}  "
              f"timed {r.samples.wall_s:.3f} s  {r.ops_per_s:.1f} ops/s")
    for name, value, unit, note in detail([r for r in rounds if not r.traced]):
        print(f"{name:<48} {value:>14.4f} {unit:<6} {note}")
    for name, unit, _better in spec:
        print(f"{name:<48} {values[name]:>14.4f} {unit}")
    for line in failures + breaches:
        print(f"! {line}")

    correct = failed == 0 and not breaches
    result = {
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            name: {"value": values[name], "unit": unit} for name, unit, _ in spec
        },
    }
    print(json.dumps(result))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
