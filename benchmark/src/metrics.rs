//! The names the benchmark publishes: workloads, end-to-end metrics and
//! per-layer metrics. `BENCHMARK.json` is rendered from these tables
//! (`rmodp-benchmark manifest`; a unit test holds the committed file to
//! it); later issues cite the names.

/// A metric definition.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Metric {
    pub name: &'static str,
    pub unit: &'static str,
    /// `"higher"` or `"lower"`.
    pub better: &'static str,
}

const fn m(name: &'static str, unit: &'static str, better: &'static str) -> Metric {
    Metric { name, unit, better }
}

/// `(name, why)` of each workload, in the order they are run.
pub const WORKLOADS: &[(&str, &str)] = &[
    (
        "pop-bank-s1",
        "population bank scenario on one event queue: kernel, netsim, envelope, nucleus and behaviour do the work",
    ),
    (
        "pop-bank-s4",
        "the same world on 4 serial shards: adds epoch planning, outboxes and the canonical merge; must export what s1 exports",
    ),
    (
        "engine-call",
        "closed loop of Engine::call on the bank branch, bus off: channel stack, both codecs and the schema behaviour, which pop-bank bypasses",
    ),
    (
        "engine-call-observed",
        "the same calls with the observe bus recording into a ring: the observe layer works here (about a fifth of the call) and is idle in engine-call",
    ),
    (
        "trader-mix",
        "one trader, indexed imports beside exports, withdrawals and modifies; the invocation path does nothing",
    ),
    (
        "store-oo7",
        "OO7 library on the durable store: recovery, update batches with compaction, traversal, queries, crash and reopen; only the store works",
    ),
];

/// What a user of the system sees. Every workload reports all three.
/// `(metric, bound)`.
pub const END_TO_END: &[(Metric, f64)] = &[
    (m("ops_per_s", "op/s", "higher"), 0.15),
    (m("peak_rss_mb", "MB", "lower"), 0.10),
    (m("setup_s", "s", "lower"), 0.25),
];

/// Single layers. Probe metrics (fixed inputs, one layer's public
/// functions alone) read the same on every workload; in-pass metrics
/// read 0 on a workload where the layer does no work.
pub const PER_LAYER: &[Metric] = &[
    // kernel
    m("kernel.queue.schedule_pop_ns", "ns", "lower"),
    m("kernel.events_per_op", "count", "lower"),
    m("kernel.events_per_s", "1/s", "higher"),
    m("kernel.shard.epochs", "count", "lower"),
    m("kernel.shard.events_per_epoch", "count", "higher"),
    m("kernel.shard.cross_shard_messages", "count", "lower"),
    m("kernel.shard.epoch_serial_ns", "ns", "lower"),
    m("kernel.shard.epoch_threaded_ns", "ns", "lower"),
    m("kernel.shard.epoch_threaded_min_ns", "ns", "lower"),
    m("kernel.shard.epoch_threaded_max_ns", "ns", "lower"),
    m("kernel.shard.threaded_speedup", "ratio", "higher"),
    m("kernel.shard.threaded_speedup_min", "ratio", "higher"),
    m("kernel.shard.threaded_speedup_max", "ratio", "higher"),
    // netsim
    m("netsim.sim.deliver_ns", "ns", "lower"),
    m("netsim.sim.timer_ns", "ns", "lower"),
    m("netsim.sim.timer_cancel_ns", "ns", "lower"),
    m("netsim.delivered_per_op", "count", "lower"),
    // core
    m("core.codec.binary_encode_ns", "ns", "lower"),
    m("core.codec.binary_decode_ns", "ns", "lower"),
    m("core.codec.text_encode_ns", "ns", "lower"),
    m("core.codec.text_decode_ns", "ns", "lower"),
    m("core.value.field_get_set_ns", "ns", "lower"),
    // engineering
    m("engineering.envelope.encode_ns", "ns", "lower"),
    m("engineering.envelope.decode_ns", "ns", "lower"),
    m("engineering.channel.stack_out_ns", "ns", "lower"),
    m("engineering.channel.stack_in_ns", "ns", "lower"),
    m("engineering.nucleus.invoke_local_ns", "ns", "lower"),
    m("engineering.engine.invoke_local_ns", "ns", "lower"),
    m("engineering.engine.call_p50_us", "us", "lower"),
    m("engineering.engine.call_p99_us", "us", "lower"),
    m("engineering.engine.call_samples", "count", "higher"),
    m("engineering.retries", "count", "lower"),
    m(
        "engineering.engine.call_unattributed_share",
        "ratio",
        "lower",
    ),
    // observe
    m("observe.emit_disabled_ns", "ns", "lower"),
    m("observe.counter_add_ns", "ns", "lower"),
    m("observe.emit_enabled_ns", "ns", "lower"),
    m("observe.emit_ring_ns", "ns", "lower"),
    m("observe.emit_sampled_ns", "ns", "lower"),
    m("observe.events_per_call", "count", "lower"),
    m("observe.ring_evicted", "count", "lower"),
    m("observe.overhead_share", "ratio", "lower"),
    // trader
    m("trader.import_indexed_us", "us", "lower"),
    m("trader.import_fallback_us", "us", "lower"),
    m("trader.import_scan_us", "us", "lower"),
    m("trader.export_us", "us", "lower"),
    m("trader.withdraw_us", "us", "lower"),
    m("trader.modify_us", "us", "lower"),
    m("trader.constraint_parse_us", "us", "lower"),
    m("trader.offers_examined_per_import", "count", "lower"),
    m("trader.plans_indexed", "count", "higher"),
    m("trader.plans_fallback", "count", "lower"),
    // store
    m("store.commit_us_per_put", "us", "lower"),
    m("store.recover_ms", "ms", "lower"),
    m("store.compact_ms", "ms", "lower"),
    m("store.traverse_dense_ms", "ms", "lower"),
    m("store.query_exact_us", "us", "lower"),
    m("store.wal.encode_frame_ns", "ns", "lower"),
    m("store.wal.decode_ns_per_frame", "ns", "lower"),
    m("store.compactions", "count", "lower"),
    m("store.media.wal_bytes_per_put", "B", "lower"),
    m("store.media.syncs_per_commit", "count", "lower"),
    m("store.media.snapshot_bytes_per_pass", "B", "lower"),
    // host
    m("host.allocs_per_op", "count", "lower"),
    m("host.alloc_bytes_per_op", "B", "lower"),
    m("host.pass_median_s", "s", "lower"),
    m("host.pass_best_s", "s", "lower"),
    m("host.pass_iqr_share", "ratio", "lower"),
    m("host.ops_per_s_wall_best", "op/s", "higher"),
    m("host.slowdown_median", "ratio", "lower"),
    m("host.tracing_overhead_share", "ratio", "lower"),
    m("host.nproc", "count", "higher"),
];

#[cfg(test)]
mod tests {
    use super::*;

    fn well_formed(name: &str) -> bool {
        !name.is_empty()
            && name.len() <= 64
            && name.as_bytes()[0].is_ascii_alphanumeric()
            && name
                .bytes()
                .all(|b| b.is_ascii_alphanumeric() || matches!(b, b'_' | b'.' | b'-'))
    }

    #[test]
    fn names_are_well_formed_and_used_once() {
        let mut seen = std::collections::BTreeSet::new();
        let names = WORKLOADS
            .iter()
            .map(|(n, _)| *n)
            .chain(END_TO_END.iter().map(|(m, _)| m.name))
            .chain(PER_LAYER.iter().map(|m| m.name));
        for name in names {
            assert!(well_formed(name), "{name}");
            assert!(seen.insert(name), "{name} is used twice");
        }
        for metric in END_TO_END.iter().map(|(m, _)| m).chain(PER_LAYER) {
            assert!(
                metric.unit.len() <= 16
                    && metric.unit.bytes().all(|b| b.is_ascii_alphanumeric()
                        || matches!(b, b'_' | b'/' | b'%' | b'.' | b'-')),
                "{}",
                metric.unit
            );
            assert!(matches!(metric.better, "higher" | "lower"));
        }
        for (_, why) in WORKLOADS {
            assert!(why.len() <= 200 && !why.contains('\n'));
        }
    }
}
