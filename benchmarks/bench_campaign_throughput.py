"""Campaign throughput: serial vs checkpointed vs parallel vs JIT.

Campaigns are the evaluation's dominant cost (250 trials per
(benchmark, technique) cell in the paper).  This bench measures
trials/sec on a SWIFT-R-protected workload along the optimisation
axes this repo implements -- golden-run checkpointing with
convergence fast-forward, ``--jobs`` process sharding, and the block
JIT -- and asserts that all the paths agree bit-for-bit while the
checkpointed path is at least 2x the serial reference on a single
core and the JIT at least 5x over full replay.

It also measures two observability features' cost envelopes:

* taint tracing: a ``--taint`` campaign pays for per-instruction
  dataflow tracking, but a campaign *without* taint must be
  unaffected by the feature existing -- the run loop's single
  ``machine.taint is None`` check is the entire overhead, and the
  re-measured taint-off datapoint holds that within noise;
* the simulator profiler: a profiled campaign runs the mirrored
  counting loop, and its throughput is recorded as a first-class
  datapoint (``profile_overhead`` in the summary) so the bench gate
  can catch the profiler getting expensive.

The measurement itself lives in :func:`repro.bench.benches.
measure_campaign_suite`, shared with ``python -m repro bench``; this
test adds the correctness bars and writes the committed baseline.

Run:  pytest benchmarks/bench_campaign_throughput.py -s
Exports: BENCH_campaign.json (versioned: bench_meta header, one
record per mode, summary).
"""

from conftest import TRIALS

from repro.bench import measure_campaign_suite, write_bench

SEED = 2006


def test_campaign_throughput():
    print()
    records, results = measure_campaign_suite(trials=TRIALS, seed=SEED,
                                              verbose=True)

    # All paths are the same campaign, bit for bit -- including under
    # taint tracing and profiling, which observe trials without
    # perturbing them.
    serial = results["serial"]
    assert results["checkpointed"] == serial
    # (The parallel mode is skipped on hosts with fewer cores than jobs.)
    assert results.get("parallel", serial) == serial
    assert results["taint"].counts == serial.counts
    assert results["taint"].recoveries == serial.recoveries
    assert results["taint_off_recheck"] == results["checkpointed"]
    assert results["profile"] == serial
    # The JIT modes are the same campaign too, trial for trial.
    assert results["jit_serial"] == serial
    assert results["jit"] == serial
    # Every checkpointed mode splices the same trials -- except taint
    # tracing, which keeps the exact-register convergence rule.
    checkpointed = results["checkpointed"].fast_forwards
    assert checkpointed > 0
    for mode in ("parallel", "taint_off_recheck", "profile", "atlas",
                 "jit"):
        if mode in results:
            assert results[mode].fast_forwards == checkpointed, mode
    assert results["taint"].fast_forwards <= checkpointed

    write_bench("BENCH_campaign.json", "campaign_throughput", records,
                seed=SEED, trials=TRIALS)

    summary = records[-1]
    assert summary["kind"] == "campaign_bench_summary"
    # The acceptance bar: checkpointing alone (one core, no pool)
    # at least doubles campaign throughput on a protected workload.
    assert summary["checkpoint_speedup"] >= 2.0
    # Taint-off throughput is unchanged by the feature within noise:
    # the recheck ran after a full taint-on campaign on this machine,
    # so drift here would mean tracing state leaked into the fast path.
    assert 0.5 <= summary["taint_off_ratio"] <= 2.0
    # Block JIT: at least 5x the full-replay interpreter on the same
    # suite (the compiled code also compounds with checkpointing,
    # recorded as jit_speedup over the checkpointed baseline).
    assert summary["jit_serial_speedup"] >= 5.0
