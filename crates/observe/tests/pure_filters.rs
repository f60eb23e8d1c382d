//! Bounded collection is a pure filter of the unbounded stream: whatever
//! a run emits, a ring of capacity `c` holds exactly the last `c` events
//! of the same run collected unbounded, and 1-in-`d` sampling holds
//! exactly the events whose root it admits. Texts run from 0 to 200 bytes
//! so a recycled buffer is both longer and shorter than what it takes.

use proptest::prelude::*;
use rmodp_observe::bus::{self, sample_admits, CollectConfig};
use rmodp_observe::export::to_jsonl;
use rmodp_observe::{event, Event, EventKind, Layer, SpanId};
use std::collections::BTreeMap;

/// Text to cut details from: 400 bytes, varied enough that a stale byte
/// left in a recycled buffer shows.
fn text() -> String {
    (0..400u32)
        .map(|i| char::from(b'a' + (i * i % 26) as u8))
        .collect()
}

/// One step of a script: `(kind, a, b, len)`, read by [`run`].
type Op = (u8, u64, u64, usize);

/// Plays a script on a fresh bus under `collect`; returns what it holds.
///
/// Kinds 0–3 move the clock, allocate a span, push one on the context
/// stack and pop it; every other kind emits an event whose span and
/// parent are each absent or drawn (by `a`, `b`) from the spans so far —
/// four of which the bus never allocated — so cycles, self-parents and
/// parents above their spans all occur.
fn run(script: &[Op], collect: CollectConfig) -> Vec<Event> {
    bus::set_collect(collect);
    bus::reset();
    bus::set_enabled(true);
    let mut spans: Vec<SpanId> = vec![u64::MAX, 1 << 40, 0, 7];
    let text = text();
    let mut now = 0;
    for &(kind, a, b, len) in script {
        let pick = |x: u64| {
            let i = (x % (spans.len() as u64 + 1)) as usize;
            spans.get(i).copied()
        };
        match kind {
            0 => {
                now += a % 1_000;
                bus::set_time_us(now);
            }
            1 => spans.push(bus::new_span()),
            2 => bus::push_context(pick(a).unwrap_or(1)),
            3 => bus::pop_context(),
            _ => {
                let mut e = event(Layer::Engineering, EventKind::Note).node(a % 3);
                if let Some(span) = pick(a) {
                    e = e.span(span);
                }
                if let Some(parent) = pick(b) {
                    e = e.parent(parent);
                }
                if kind & 1 == 1 {
                    e = e.in_context();
                }
                if kind & 2 == 2 {
                    e = e.parent_from_context();
                }
                let from = (b % 200) as usize;
                let detail = &text[from..from + len];
                match a % 3 {
                    0 => e.emit(),
                    1 => e.detail(detail).emit(),
                    _ => e.detail_fmt(format_args!("{detail}")).emit(),
                };
            }
        }
    }
    bus::snapshot_events()
}

/// The keep/drop decision as the bus made it on ordered maps: the
/// first-declared parent of each span, roots memoised when first asked.
#[derive(Default)]
struct Sampler {
    parent_of: BTreeMap<SpanId, SpanId>,
    root_of: BTreeMap<SpanId, SpanId>,
}

impl Sampler {
    fn admits(&mut self, e: &Event, denom: u64) -> bool {
        if let (Some(span), Some(parent)) = (e.span, e.parent) {
            self.parent_of.entry(span).or_insert(parent);
        }
        e.span
            .or(e.parent)
            .is_none_or(|key| sample_admits(self.root(key), denom))
    }

    fn root(&mut self, span: SpanId) -> SpanId {
        if let Some(&r) = self.root_of.get(&span) {
            return r;
        }
        let mut chain = vec![span];
        let mut cur = span;
        while let Some(&p) = self.parent_of.get(&cur) {
            if let Some(&r) = self.root_of.get(&p) {
                cur = r;
                break;
            }
            if chain.contains(&p) {
                break;
            }
            chain.push(p);
            cur = p;
        }
        for s in chain {
            self.root_of.insert(s, cur);
        }
        cur
    }
}

fn last(events: &[Event], n: usize) -> &[Event] {
    &events[events.len().saturating_sub(n)..]
}

proptest! {
    #[test]
    fn ring_and_sampling_are_pure_filters_of_the_unbounded_stream(
        script in proptest::collection::vec((0u8..12, any::<u64>(), any::<u64>(), 0usize..=200), 0..160),
        cap in 1usize..64,
        denom in 1u64..6,
    ) {
        let full = run(&script, CollectConfig::default());
        prop_assert_eq!(bus::drop_stats(), bus::DropStats::default());

        let ring = run(&script, CollectConfig { ring_capacity: Some(cap), sample_denom: None });
        prop_assert_eq!(&ring[..], last(&full, cap));
        prop_assert_eq!(to_jsonl(&ring), to_jsonl(last(&full, cap)));
        prop_assert_eq!(bus::drop_stats().ring_evicted as usize, full.len() - ring.len());
        prop_assert_eq!(bus::counter("observe.drop.ring") as usize, full.len() - ring.len());

        let mut sampler = Sampler::default();
        let admitted: Vec<Event> =
            full.iter().filter(|e| sampler.admits(e, denom)).cloned().collect();
        let sampled = run(&script, CollectConfig { ring_capacity: None, sample_denom: Some(denom) });
        prop_assert_eq!(&sampled, &admitted);
        prop_assert_eq!(to_jsonl(&sampled), to_jsonl(&admitted));
        prop_assert_eq!(bus::drop_stats().sampled_out as usize, full.len() - admitted.len());

        let both = run(&script, CollectConfig { ring_capacity: Some(cap), sample_denom: Some(denom) });
        prop_assert_eq!(&both[..], last(&admitted, cap));
        bus::set_collect(CollectConfig::default());
    }
}
