//! The trading-at-scale suite behind `BENCH_trader.json`.
//!
//! [`run_suite`] populates a trader with a large offer corpus (a million
//! offers at full scale), replays the *same* seeded, mixed export/import
//! workload — arrivals from `rmodp-workload` scheduled on the kernel's
//! event queue — against two matching engines, and emits the full
//! `BENCH_trader.json` document (schema `rmodp-bench-trader/1`,
//! documented in `EXPERIMENTS.md` §E11):
//!
//! - **naive**: [`Trader::import_scan`], the linear reference scan;
//! - **indexed**: [`Trader::import`], the planner over declared
//!   secondary indexes.
//!
//! Latency is a *virtual* cost model — `1 + offers_examined/64`
//! microseconds per import, offers_examined read from the trader's own
//! counters — so every figure in the document derives from
//! deterministic counts and nothing here reads a host clock: the suite
//! is a pure function of its configuration (what the trader costs in
//! wall-clock time is `benchmark/`'s `trader-mix` and `trader.*`).
//! Both engines fold their match streams (ids, order, counts) into a
//! checksum; the suite asserts the checksums are equal, making every
//! benchmark run an equivalence test at full scale.

use rmodp_core::id::InterfaceId;
use rmodp_core::value::Value;
use rmodp_kernel::{EventQueue, SimTime};
use rmodp_observe::json::{Fixed, ToJson};
use rmodp_observe::metrics::Histogram;
use rmodp_observe::{json, json_into};
use rmodp_trader::shard::ShardedFederation;
use rmodp_trader::{ImportRequest, IndexKind, Trader};
use rmodp_workload::arrival::ArrivalProcess;

/// Suite parameters (a row of `rmodp_bench::artifacts::ARTIFACTS`).
#[derive(Debug, Clone, Copy)]
pub struct TraderBenchConfig {
    /// Initial offer corpus size.
    pub offers: usize,
    /// Workload operations replayed after population.
    pub imports: usize,
    /// Seed for the corpus and the arrival process.
    pub seed: u64,
}

const REGIONS: [&str; 4] = ["bne", "syd", "mel", "per"];
const TYPES: [&str; 3] = ["Printer", "Scanner", "Plotter"];

/// The deterministic properties of corpus offer `i`. Mixed int/float
/// speeds exercise the evaluator's numeric unification through the
/// index keys.
fn offer_properties(i: u64) -> Value {
    let ppm = (i.wrapping_mul(2_654_435_761) % 90 + 10) as i64;
    Value::record([
        (
            "ppm",
            if i.is_multiple_of(7) {
                Value::Float(ppm as f64)
            } else {
                Value::Int(ppm)
            },
        ),
        ("region", Value::text(REGIONS[(i % 4) as usize])),
        ("colour", Value::Bool(i.is_multiple_of(3))),
        ("floor", Value::Int((i % 12) as i64)),
    ])
}

fn offer_type(i: u64) -> &'static str {
    // 80% printers, the rest split — type buckets do real filtering.
    if i % 5 < 4 {
        TYPES[0]
    } else {
        TYPES[1 + (i % 2) as usize]
    }
}

fn populate(trader: &mut Trader, offers: usize) {
    for i in 0..offers as u64 {
        trader
            .export(offer_type(i), InterfaceId::new(i + 1), offer_properties(i))
            .expect("record properties");
    }
}

/// One workload step: mostly imports, with exports and withdrawals
/// mixed in so indexes are maintained (not just read) under load.
enum Op {
    Import(ImportRequest),
    Export(u64),
    Withdraw(u64),
}

/// The deterministic operation at workload position `k` over a corpus
/// of `offers`. Requests rotate through the planner's whole range:
/// selective conjunctions, point lookups, in-sets, preference-ordered
/// top-k, and planner-opaque constraints that force the fallback.
fn op_at(k: u64, offers: usize) -> Op {
    if k % 16 == 9 {
        return Op::Export(k);
    }
    if k % 32 == 19 {
        // A pseudo-random live-range id; withdrawing an already-gone
        // offer is a deterministic no-op on both engines.
        return Op::Withdraw(k.wrapping_mul(40_503) % offers as u64 + 1);
    }
    let region = REGIONS[(k % 4) as usize];
    let req = match k % 7 {
        0 => ImportRequest::new("Printer")
            .constraint(&format!("ppm >= 90 and region == \"{region}\""))
            .unwrap(),
        1 => ImportRequest::new("Printer")
            .constraint(&format!("ppm == {}", 10 + k % 90))
            .unwrap()
            .at_most(10),
        2 => ImportRequest::new("Scanner")
            .constraint("floor in [1, 5, 9] and colour == true")
            .unwrap(),
        3 => ImportRequest::new("Printer")
            .constraint(&format!("ppm >= 95 and region == \"{region}\""))
            .unwrap()
            .prefer_max("ppm")
            .unwrap()
            .at_most(5),
        4 => ImportRequest::new("Plotter")
            .constraint(&format!("ppm < {} and colour == false", 12 + k % 10))
            .unwrap(),
        // Planner-opaque: computed lhs forces the type-bucket fallback.
        5 => ImportRequest::new("Scanner")
            .constraint("ppm + 0 >= 97")
            .unwrap(),
        _ => ImportRequest::new("Plotter")
            .constraint(&format!("ppm <= 11 and floor == {}", k % 12))
            .unwrap()
            .prefer_min("ppm")
            .unwrap()
            .at_most(3),
    };
    Op::Import(req)
}

/// Measured outcome of one engine's run over the workload.
struct EngineRun {
    imports: u64,
    matches: u64,
    offers_examined: u64,
    busy_us: u64,
    latency: Histogram,
    checksum: u64,
    plans_indexed: u64,
    plans_fallback: u64,
    plan_example: String,
}

/// Replays the workload against one trader. `indexed` picks the engine:
/// the planned path or the reference scan. The arrival process supplies
/// each operation's schedule time on the kernel queue; the virtual
/// latency model (`1 + examined/64` µs) supplies its service cost.
fn run_engine(trader: &mut Trader, cfg: TraderBenchConfig, indexed: bool) -> EngineRun {
    let mut queue: EventQueue<u64> = EventQueue::new();
    let mut arrivals = ArrivalProcess::Poisson {
        rate_per_sec: 500.0,
    }
    .stream(cfg.seed ^ 0x5eed);
    for k in 0..cfg.imports as u64 {
        let offset = arrivals.next().expect("stream is infinite");
        queue.schedule(SimTime::ZERO + offset, k);
    }
    let mut run = EngineRun {
        imports: 0,
        matches: 0,
        offers_examined: 0,
        busy_us: 0,
        latency: Histogram::default(),
        checksum: 0,
        plans_indexed: 0,
        plans_fallback: 0,
        plan_example: String::new(),
    };
    let mut next_interface = cfg.offers as u64 + 1;
    while let Some((_, k)) = queue.pop() {
        match op_at(k, cfg.offers) {
            Op::Export(k) => {
                trader
                    .export(
                        offer_type(k),
                        InterfaceId::new(next_interface),
                        offer_properties(k),
                    )
                    .expect("record properties");
                next_interface += 1;
            }
            Op::Withdraw(id) => {
                let _ = trader.withdraw(rmodp_core::id::OfferId::new(id));
            }
            Op::Import(req) => {
                let before = trader.stats().offers_considered;
                let matches = if indexed {
                    trader.import(&req, None)
                } else {
                    trader.import_scan(&req, None)
                };
                let examined = trader.stats().offers_considered - before;
                let latency_us = 1 + examined / 64;
                run.imports += 1;
                run.matches += matches.len() as u64;
                run.offers_examined += examined;
                run.busy_us += latency_us;
                run.latency.observe(latency_us);
                run.checksum = run
                    .checksum
                    .wrapping_mul(31)
                    .wrapping_add(k)
                    .wrapping_add(matches.len() as u64);
                for m in &matches {
                    run.checksum = run
                        .checksum
                        .wrapping_mul(31)
                        .wrapping_add(m.offer.id.raw())
                        .wrapping_add(m.score.to_bits() >> 17);
                }
                if indexed && run.plan_example.is_empty() {
                    run.plan_example = trader.explain(&req, None).summary().to_string();
                }
            }
        }
    }
    run.plans_indexed = trader.stats().plans_indexed;
    run.plans_fallback = trader.stats().plans_fallback;
    run
}

impl ToJson for EngineRun {
    fn write_json(&self, out: &mut String) {
        let (p50, p95, p99) = self.latency.quantiles();
        let throughput = self.imports as f64 * 1e6 / self.busy_us.max(1) as f64;
        json_into!(out, {
            "imports": self.imports,
            "matches": self.matches,
            "offers_examined": self.offers_examined,
            "busy_virtual_us": self.busy_us,
            "latency_us": {"p50": p50, "p95": p95, "p99": p99},
            "throughput_per_virtual_sec": Fixed::<1>(throughput),
            "checksum": self.checksum,
        });
    }
}

/// The sharded-federation section: the same corpus spread over 16
/// shards, showing type-directed routing touching a bounded shard set
/// instead of every trader.
fn sharded_section(cfg: TraderBenchConfig) -> impl ToJson {
    const SHARDS: usize = 16;
    let offers = (cfg.offers / 8).max(1_000);
    let mut fed = ShardedFederation::new("shard", SHARDS);
    fed.index_property("ppm", IndexKind::Ordered);
    fed.index_property("region", IndexKind::Hash);
    for i in 0..offers as u64 {
        fed.export(offer_type(i), InterfaceId::new(i + 1), offer_properties(i))
            .expect("record properties");
    }
    let mut matches_total = 0u64;
    let mut checksum = 0u64;
    for k in 0..64u64 {
        let req = ImportRequest::new(TYPES[(k % 3) as usize])
            .constraint(&format!("ppm >= {}", 40 + k % 50))
            .unwrap()
            .exact_type();
        let matches = fed.import(&req, None);
        matches_total += matches.len() as u64;
        for m in &matches {
            checksum = checksum.wrapping_mul(31).wrapping_add(m.offer.id.raw());
        }
    }
    let stats = fed.stats();
    assert_eq!(
        stats.shard_queries, stats.routed_imports,
        "exact-type imports must touch exactly one shard each"
    );
    println!(
        "sharded: {SHARDS} shards, {offers} offers, {} routed imports -> {} shard queries (broadcast would be {})",
        stats.routed_imports,
        stats.shard_queries,
        stats.routed_imports * SHARDS as u64
    );
    json::from_fn(move |out| {
        json_into!(out, {
            "shards": SHARDS,
            "offers": offers,
            "routed_imports": stats.routed_imports,
            "shard_queries": stats.shard_queries,
            "broadcast_equivalent_queries": stats.routed_imports * SHARDS as u64,
            "matches": matches_total,
            "checksum": checksum,
        })
    })
}

/// Runs the full suite and returns the `BENCH_trader.json` document.
///
/// # Panics
///
/// If the two engines disagree on any import (checksum mismatch), or if
/// the indexed engine fails to beat the scan on virtual busy time.
pub fn run_suite(cfg: TraderBenchConfig) -> String {
    // Millions of exports and imports would otherwise accumulate
    // millions of events; this suite is about the trader, not the bus.
    rmodp_observe::bus::reset();
    let was_enabled = rmodp_observe::bus::is_enabled();
    rmodp_observe::bus::set_enabled(false);

    let mut naive_trader = Trader::new("bench-naive");
    populate(&mut naive_trader, cfg.offers);
    println!("populated {} offers (naive)", cfg.offers);
    let naive = run_engine(&mut naive_trader, cfg, false);
    drop(naive_trader);
    println!(
        "naive: {} imports, {} offers examined, busy {}us virtual",
        naive.imports, naive.offers_examined, naive.busy_us
    );

    let mut indexed_trader = Trader::new("bench-indexed");
    indexed_trader.index_property("ppm", IndexKind::Ordered);
    indexed_trader.index_property("region", IndexKind::Hash);
    indexed_trader.index_property("floor", IndexKind::Ordered);
    indexed_trader.index_property("colour", IndexKind::Hash);
    populate(&mut indexed_trader, cfg.offers);
    println!("populated {} offers (indexed)", cfg.offers);
    let indexed = run_engine(&mut indexed_trader, cfg, true);
    drop(indexed_trader);
    println!(
        "indexed: {} imports, {} offers examined, busy {}us virtual ({} planned, {} fallback)",
        indexed.imports,
        indexed.offers_examined,
        indexed.busy_us,
        indexed.plans_indexed,
        indexed.plans_fallback
    );

    assert_eq!(
        naive.checksum, indexed.checksum,
        "planned matching diverged from the reference scan"
    );
    assert!(
        indexed.busy_us < naive.busy_us,
        "indexed matching must beat the scan on virtual busy time \
         (indexed={}us naive={}us)",
        indexed.busy_us,
        naive.busy_us
    );

    let sharded = sharded_section(cfg);
    rmodp_observe::bus::set_enabled(was_enabled);

    let examined_ratio = naive.offers_examined as f64 / indexed.offers_examined.max(1) as f64;
    let throughput_ratio = naive.busy_us as f64 / indexed.busy_us.max(1) as f64;
    println!(
        "speedup: {examined_ratio:.1}x fewer offers examined, {throughput_ratio:.1}x match throughput"
    );

    json!({
        "schema": "rmodp-bench-trader/1",
        "config": {
            "offers": cfg.offers,
            "imports": cfg.imports,
            "seed": cfg.seed,
            "arrival": "poisson 500/s",
            "latency_model": "1 + examined/64 us",
        },
        "naive": naive,
        "indexed": indexed,
        "plans": {
            "indexed": indexed.plans_indexed,
            "fallback": indexed.plans_fallback,
            "example": indexed.plan_example,
        },
        "speedup": {
            "offers_examined_ratio": Fixed::<1>(examined_ratio),
            "throughput_ratio": Fixed::<1>(throughput_ratio),
        },
        "sharded": sharded,
    }) + "\n"
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn suite_is_deterministic_and_indexed_wins() {
        let cfg = TraderBenchConfig {
            offers: 4_000,
            imports: 96,
            seed: 7,
        };
        let a = run_suite(cfg);
        let b = run_suite(cfg);
        assert_eq!(a, b, "suite must be byte-identical across reruns");
        assert!(a.contains(r#""schema":"rmodp-bench-trader/1""#));
        assert!(a.ends_with('\n'));
    }
}
