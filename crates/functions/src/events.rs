//! The event-notification function (§8.2).
//!
//! Topic-based notification with durable history: subscribers register
//! interest in a topic and poll for events past their cursor, so
//! notification composes with the deterministic simulator (no hidden
//! callback ordering).

use std::collections::BTreeMap;

use rmodp_core::id::{IdGen, SubscriptionId};
use rmodp_core::value::Value;

/// One notified event.
#[derive(Debug, Clone, PartialEq)]
pub struct Event {
    /// Position in the topic's history (0-based).
    pub offset: u64,
    /// The topic it was emitted on.
    pub topic: String,
    /// The event payload.
    pub payload: Value,
}

#[derive(Debug)]
struct Subscription {
    topic: String,
    cursor: u64,
}

/// The event-notification function.
#[derive(Debug, Default)]
pub struct EventNotifier {
    topics: BTreeMap<String, Vec<Value>>,
    subs: BTreeMap<SubscriptionId, Subscription>,
    sub_gen: IdGen<SubscriptionId>,
}

impl EventNotifier {
    /// Emits an event on a topic; returns its offset.
    pub fn emit(&mut self, topic: impl Into<String>, payload: Value) -> u64 {
        let history = self.topics.entry(topic.into()).or_default();
        history.push(payload);
        history.len() as u64 - 1
    }

    /// Subscribes to a topic. `from_start` replays history; otherwise only
    /// future events are delivered.
    pub fn subscribe(&mut self, topic: impl Into<String>, from_start: bool) -> SubscriptionId {
        let topic = topic.into();
        let cursor = if from_start {
            0
        } else {
            self.topics.get(&topic).map(|h| h.len() as u64).unwrap_or(0)
        };
        let id = self.sub_gen.fresh();
        self.subs.insert(id, Subscription { topic, cursor });
        id
    }

    /// Cancels a subscription; returns whether it existed.
    pub fn unsubscribe(&mut self, sub: SubscriptionId) -> bool {
        self.subs.remove(&sub).is_some()
    }

    /// Delivers all events past the subscription's cursor and advances it.
    pub fn poll(&mut self, sub: SubscriptionId) -> Vec<Event> {
        let Some(s) = self.subs.get_mut(&sub) else {
            return Vec::new();
        };
        let history = self.topics.get(&s.topic).map(Vec::as_slice).unwrap_or(&[]);
        let out: Vec<Event> = history
            .iter()
            .enumerate()
            .skip(s.cursor as usize)
            .map(|(i, payload)| Event {
                offset: i as u64,
                topic: s.topic.clone(),
                payload: payload.clone(),
            })
            .collect();
        s.cursor = history.len() as u64;
        out
    }

    /// The full history of a topic.
    pub fn history(&self, topic: &str) -> &[Value] {
        self.topics.get(topic).map(Vec::as_slice).unwrap_or(&[])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn emit_then_poll_in_order() {
        let mut n = EventNotifier::default();
        let sub = n.subscribe("rates", true);
        assert_eq!(n.emit("rates", Value::Float(5.0)), 0);
        assert_eq!(n.emit("rates", Value::Float(5.5)), 1);
        let events = n.poll(sub);
        assert_eq!(events.len(), 2);
        assert_eq!(events[0].offset, 0);
        assert_eq!(events[1].payload, Value::Float(5.5));
        // Cursor advanced: nothing new.
        assert!(n.poll(sub).is_empty());
        n.emit("rates", Value::Float(6.0));
        assert_eq!(n.poll(sub).len(), 1);
    }

    #[test]
    fn late_subscribers_miss_history_unless_from_start() {
        let mut n = EventNotifier::default();
        n.emit("t", Value::Int(1));
        let fresh = n.subscribe("t", false);
        let replay = n.subscribe("t", true);
        assert!(n.poll(fresh).is_empty());
        assert_eq!(n.poll(replay).len(), 1);
    }

    #[test]
    fn topics_are_independent() {
        let mut n = EventNotifier::default();
        let a = n.subscribe("a", true);
        n.emit("b", Value::Int(1));
        assert!(n.poll(a).is_empty());
        assert_eq!(n.history("b").len(), 1);
    }

    #[test]
    fn unsubscribe_stops_delivery() {
        let mut n = EventNotifier::default();
        let sub = n.subscribe("t", true);
        assert!(n.unsubscribe(sub));
        assert!(!n.unsubscribe(sub));
        n.emit("t", Value::Int(1));
        assert!(n.poll(sub).is_empty());
    }
}
