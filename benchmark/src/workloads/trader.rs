//! `trader-mix`: one trader, an indexed offer corpus, reads beside
//! index-maintaining writes. The invocation path does nothing here.
//!
//! The operation at each position of a 20-step cycle is fixed — 15
//! imports (5 point, 4 range+region, 3 preference top-k, 3 planner-opaque
//! that force the type-bucket fallback), 2 exports, 2 withdrawals, 1
//! modify — and so are the selectivities of the import constraints, so
//! every seed does the same amount of each kind of work. The corpus is
//! the same multiset of offers for every seed, too (a fixed cross of
//! speed, region, type, colour and floor), so every seed's imports match
//! the same number of offers; the seed decides which offer id carries
//! which properties, the regions asked for, what the new offers look
//! like, and which offers are withdrawn and modified.

use rmodp::core::id::{InterfaceId, OfferId};
use rmodp::core::value::Value;
use rmodp::trader::{ImportRequest, IndexKind, Match, Trader};
use rmodp_kernel::rng::mix;

use super::{fnv1a, set_bus, PassOutcome, Pin, Size, TraceView, Workload, FNV_BASIS};
use crate::spans::span;

const REGIONS: [&str; 4] = ["bne", "syd", "mel", "per"];
const CORPUS_SALT: u64 = 0x0FFE_2000;
const OP_SALT: u64 = 0x0095_1000;

/// Stride through the id space when choosing offers to withdraw or
/// modify: a prime that divides no corpus size used, so targets never
/// repeat within a pass and no withdrawal can miss.
const TARGET_STRIDE: u64 = 7919;

/// What one step of the cycle does.
#[derive(Debug, Clone)]
pub enum Op {
    Import(ImportKind, ImportRequest),
    Export(&'static str, InterfaceId, Value),
    /// Index into the corpus ids (first half).
    Withdraw(usize),
    /// Index into the corpus ids (second half) and the new properties.
    Modify(usize, Value),
}

/// The four import shapes of the mix.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ImportKind {
    Point,
    Range,
    TopK,
    Fallback,
}

impl ImportKind {
    fn span_name(self) -> &'static str {
        match self {
            ImportKind::Point => "trader.import_point",
            ImportKind::Range => "trader.import_range",
            ImportKind::TopK => "trader.import_topk",
            ImportKind::Fallback => "trader.import_fallback",
        }
    }
}

/// One trader under a mixed read/write load.
pub struct TraderMix {
    seed: u64,
    offers: u64,
    ops: Vec<Op>,
    /// The constraint sources of `ops`' imports, kept for the parse probe.
    constraints: Vec<String>,
}

/// Corpus and live state of one pass.
pub struct TraderState {
    trader: Trader,
    ids: Vec<OfferId>,
    ops: Vec<Op>,
}

fn offer(ppm: i64, float: bool, region: usize, colour: bool, floor: i64) -> Value {
    Value::record([
        (
            "ppm",
            // Mixed int/float speeds take index keys through the
            // evaluator's numeric unification.
            if float {
                Value::Float(ppm as f64)
            } else {
                Value::Int(ppm)
            },
        ),
        ("region", Value::text(REGIONS[region])),
        ("colour", Value::Bool(colour)),
        ("floor", Value::Int(floor)),
    ])
}

const TYPES: [&str; 10] = [
    // 80% printers; scanners and plotters split the rest, so the type
    // buckets do real filtering.
    "Printer", "Printer", "Printer", "Printer", "Printer", "Printer", "Printer", "Printer",
    "Scanner", "Plotter",
];

/// Corpus slot `j`: speed, region and type vary fastest and independently
/// (a mixed-radix count), so any corpus that is a multiple of 3,600 holds
/// each combination equally often.
fn corpus_offer(j: u64) -> (&'static str, Value) {
    (
        TYPES[(j / 360 % 10) as usize],
        offer(
            (10 + j % 90) as i64,
            (j / 11).is_multiple_of(7),
            (j / 90 % 4) as usize,
            (j / 3_600).is_multiple_of(3),
            (j / 7 % 12) as i64,
        ),
    )
}

/// An offer exported during a pass: everything from the hash.
fn fresh_offer(h: u64) -> (&'static str, Value) {
    (
        TYPES[((h >> 40) % 10) as usize],
        offer(
            (10 + h % 90) as i64,
            (h >> 8).is_multiple_of(7),
            ((h >> 16) % 4) as usize,
            (h >> 24).is_multiple_of(3),
            ((h >> 32) % 12) as i64,
        ),
    )
}

/// A seeded permutation of `0..n` (Fisher-Yates on the pure hash).
fn permutation(seed: u64, n: u64) -> Vec<u64> {
    let mut slots: Vec<u64> = (0..n).collect();
    for i in (1..n as usize).rev() {
        slots.swap(
            i,
            (mix(seed ^ CORPUS_SALT, i as u64) % (i as u64 + 1)) as usize,
        );
    }
    slots
}

impl TraderMix {
    /// The operations of one pass, and the constraint sources of its
    /// imports.
    fn generate(seed: u64, offers: u64, ops: u64) -> (Vec<Op>, Vec<String>) {
        let half = offers / 2;
        // Withdrawals walk the first half of the corpus and modifies the
        // second, each from a seeded offset by a stride coprime to the id
        // space: no offer is hit twice, so no operation can fail.
        let start = mix(seed ^ OP_SALT, u64::MAX) % half;
        let (mut withdrawn, mut modified) = (0u64, 0u64);
        let mut constraints = Vec::new();
        let mut import = |kind: ImportKind, service: &str, constraint: String| {
            let request = ImportRequest::new(service)
                .constraint(&constraint)
                .expect("constraint parses");
            constraints.push(constraint);
            (kind, request)
        };
        let list = (0..ops)
            .map(|k| {
                let h = mix(seed ^ OP_SALT, k);
                let cycle = k / 20;
                let region = REGIONS[(h % 4) as usize];
                match k % 20 {
                    0 | 5 | 9 | 13 | 19 => {
                        let constraint = format!("ppm == {}", 10 + (k * 7) % 90);
                        let (kind, request) = import(ImportKind::Point, "Printer", constraint);
                        Op::Import(kind, request.at_most(10))
                    }
                    1 | 6 | 11 | 16 => {
                        let constraint =
                            format!("ppm >= {} and region == \"{region}\"", 90 + cycle % 8);
                        let (kind, request) = import(ImportKind::Range, "Printer", constraint);
                        Op::Import(kind, request)
                    }
                    2 | 8 | 15 => {
                        let constraint = format!("ppm >= 92 and region == \"{region}\"");
                        let (kind, request) = import(ImportKind::TopK, "Printer", constraint);
                        let request = request.prefer_max("ppm").expect("preference parses");
                        Op::Import(kind, request.at_most(5))
                    }
                    3 | 10 | 18 => {
                        // A computed left-hand side is opaque to the planner.
                        let constraint = format!("ppm + 0 >= {}", 96 + cycle % 3);
                        let (kind, request) = import(ImportKind::Fallback, "Scanner", constraint);
                        Op::Import(kind, request)
                    }
                    4 | 14 => {
                        let (service, properties) = fresh_offer(h);
                        Op::Export(service, InterfaceId::new(offers + k + 1), properties)
                    }
                    7 | 17 => {
                        withdrawn += 1;
                        Op::Withdraw(((start + withdrawn * TARGET_STRIDE) % half) as usize)
                    }
                    _ => {
                        modified += 1;
                        let index = half + (start + modified * TARGET_STRIDE) % half;
                        Op::Modify(index as usize, fresh_offer(h).1)
                    }
                }
            })
            .collect();
        (list, constraints)
    }
}

impl Workload for TraderMix {
    type State = TraderState;

    const NAME: &'static str = "trader-mix";

    fn new(seed: u64, size: Size) -> Self {
        let (offers, ops) = match size {
            Size::Full => (10_000, 200),
            Size::Quick => (500, 60),
        };
        let (ops, constraints) = Self::generate(seed, offers, ops);
        Self {
            seed,
            offers,
            ops,
            constraints,
        }
    }

    fn build(&self) -> TraderState {
        set_bus(false, None);
        let mut trader = Trader::new("bench");
        trader.index_property("ppm", IndexKind::Ordered);
        trader.index_property("region", IndexKind::Hash);
        trader.index_property("floor", IndexKind::Hash);
        trader.index_property("colour", IndexKind::Hash);
        let ids = permutation(self.seed, self.offers)
            .into_iter()
            .zip(1..)
            .map(|(slot, interface)| {
                let (service, properties) = corpus_offer(slot);
                trader
                    .export(service, InterfaceId::new(interface), properties)
                    .expect("record properties")
            })
            .collect();
        TraderState {
            trader,
            ids,
            ops: self.ops.clone(),
        }
    }

    fn pass(&self, state: TraderState) -> PassOutcome {
        set_bus(false, None);
        let TraderState {
            mut trader,
            ids,
            ops,
        } = state;
        let before = trader.stats();
        let attempted = ops.len() as u64;
        let (mut imports, mut matches, mut failed) = (0u64, 0u64, 0u64);
        let (mut exports, mut withdrawals, mut modifies) = (0u64, 0u64, 0u64);
        let mut checksum = FNV_BASIS;
        for op in ops {
            match op {
                Op::Import(kind, request) => {
                    let _op = span(kind.span_name());
                    let found = trader.import(&request, None);
                    imports += 1;
                    matches += found.len() as u64;
                    checksum = fold_matches(checksum, &found);
                }
                Op::Export(service, interface, properties) => {
                    let _op = span("trader.export");
                    match trader.export(service, interface, properties) {
                        Ok(_) => exports += 1,
                        Err(_) => failed += 1,
                    }
                }
                Op::Withdraw(index) => {
                    let _op = span("trader.withdraw");
                    match trader.withdraw(ids[index]) {
                        Ok(_) => withdrawals += 1,
                        Err(_) => failed += 1,
                    }
                }
                Op::Modify(index, properties) => {
                    let _op = span("trader.modify");
                    match trader.modify(ids[index], properties) {
                        Ok(()) => modifies += 1,
                        Err(_) => failed += 1,
                    }
                }
            }
        }
        let after = trader.stats();
        let mut problems = Vec::new();
        super::check_bus_silent(&mut problems);
        PassOutcome {
            ops: attempted - failed,
            attempted,
            failed,
            pinned: vec![
                ("ops", Pin::Count(attempted - failed)),
                ("imports", Pin::Count(imports)),
                ("matches", Pin::Count(matches)),
                ("match_checksum", Pin::Sum(checksum)),
                ("exports", Pin::Count(exports)),
                ("withdrawals", Pin::Count(withdrawals)),
                ("modifies", Pin::Count(modifies)),
                ("offers_after", Pin::Count(trader.len() as u64)),
            ],
            counts: vec![
                (
                    "trader.offers_examined_per_import",
                    (after.offers_considered - before.offers_considered) as f64 / imports as f64,
                ),
                (
                    "trader.plans_indexed",
                    (after.plans_indexed - before.plans_indexed) as f64,
                ),
                (
                    "trader.plans_fallback",
                    (after.plans_fallback - before.plans_fallback) as f64,
                ),
            ],
            problems,
        }
    }

    /// Replays the pass on a fresh corpus with every import also answered
    /// by the reference scan: members and order must be identical.
    fn verify(&self, outcome: &PassOutcome) -> Vec<String> {
        let TraderState {
            mut trader,
            ids,
            ops,
        } = self.build();
        let mut problems = Vec::new();
        let mut checksum = FNV_BASIS;
        for (k, op) in ops.into_iter().enumerate() {
            match op {
                Op::Import(_, request) => {
                    let planned = trader.import(&request, None);
                    let scanned = trader.import_scan(&request, None);
                    if planned != scanned {
                        problems.push(format!(
                            "op {k}: indexed import found {} offers, the scan {}",
                            planned.len(),
                            scanned.len()
                        ));
                    }
                    checksum = fold_matches(checksum, &scanned);
                }
                Op::Export(service, interface, properties) => {
                    let _ = trader.export(service, interface, properties);
                }
                Op::Withdraw(index) => {
                    let _ = trader.withdraw(ids[index]);
                }
                Op::Modify(index, properties) => {
                    let _ = trader.modify(ids[index], properties);
                }
            }
        }
        if outcome.pin("match_checksum") != Some(Pin::Sum(checksum)) {
            problems.push(format!(
                "match checksum of the timed passes ({:?}) differs from the scan's ({checksum:016x})",
                outcome.pin("match_checksum")
            ));
        }
        problems
    }

    fn layer_metrics(&self, view: &TraceView<'_>) -> Vec<(&'static str, f64)> {
        let us = |name: &str| view.mean_s(name).map_or(0.0, |s| s * 1e6);
        let indexed = [
            "trader.import_point",
            "trader.import_range",
            "trader.import_topk",
        ];
        let indexed_us = indexed.iter().map(|n| us(n)).sum::<f64>() / indexed.len() as f64;

        // The reference scan and the constraint parser are not on the
        // timed path; they are timed here, once, on the pass's own inputs.
        let mut clock = crate::clock::Clock::new();
        let mut state = self.build();
        let imports: Vec<&ImportRequest> = self
            .ops
            .iter()
            .filter_map(|op| match op {
                Op::Import(_, request) => Some(request),
                _ => None,
            })
            .take(30)
            .collect();
        let ((), scan) = clock.measure(|| {
            let _all = span("trader.import_scan");
            for request in &imports {
                std::hint::black_box(state.trader.import_scan(request, None));
            }
        });
        let ((), parse) = clock.measure(|| {
            let _all = span("trader.constraint_parse");
            for source in &self.constraints {
                std::hint::black_box(ImportRequest::new("Printer").constraint(source).is_ok());
            }
        });
        vec![
            ("trader.import_indexed_us", indexed_us),
            ("trader.import_fallback_us", us("trader.import_fallback")),
            ("trader.export_us", us("trader.export")),
            ("trader.withdraw_us", us("trader.withdraw")),
            ("trader.modify_us", us("trader.modify")),
            (
                "trader.import_scan_us",
                scan.norm_s() * 1e6 / imports.len() as f64,
            ),
            (
                "trader.constraint_parse_us",
                parse.norm_s() * 1e6 / self.constraints.len() as f64,
            ),
        ]
    }
}

fn fold_matches(mut checksum: u64, matches: &[Match]) -> u64 {
    checksum = fnv1a(checksum, &(matches.len() as u64).to_le_bytes());
    for m in matches {
        checksum = fnv1a(checksum, &m.offer.id.raw().to_le_bytes());
    }
    checksum
}
