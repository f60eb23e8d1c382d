//! Network topology: link characteristics, partitions, crashes.

use std::collections::{BTreeMap, BTreeSet};

use crate::sim::NodeIdx;
use crate::time::SimDuration;

/// The characteristics of a (directed) link between two nodes.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LinkConfig {
    /// Base one-way latency.
    pub latency: SimDuration,
    /// Maximum additional random latency, uniformly distributed.
    pub jitter: SimDuration,
    /// Probability in `[0, 1]` that a message is silently dropped.
    pub loss: f64,
}

impl Default for LinkConfig {
    fn default() -> Self {
        Self {
            latency: SimDuration::from_micros(500),
            jitter: SimDuration::ZERO,
            loss: 0.0,
        }
    }
}

impl LinkConfig {
    /// A perfect, instantaneous link (useful in unit tests).
    pub(crate) fn ideal() -> Self {
        Self {
            latency: SimDuration::ZERO,
            jitter: SimDuration::ZERO,
            loss: 0.0,
        }
    }

    /// A link with the given latency and no jitter or loss.
    pub fn with_latency(latency: SimDuration) -> Self {
        Self {
            latency,
            ..Self::ideal()
        }
    }

    /// Builder: sets the jitter bound.
    pub fn jitter(mut self, jitter: SimDuration) -> Self {
        self.jitter = jitter;
        self
    }

    /// Builder: sets the loss probability.
    ///
    /// # Panics
    ///
    /// Panics if `loss` is not within `[0, 1]`.
    pub fn loss(mut self, loss: f64) -> Self {
        assert!(
            (0.0..=1.0).contains(&loss),
            "loss must be in [0,1], got {loss}"
        );
        self.loss = loss;
        self
    }
}

/// The network topology: per-pair link overrides over a default link, plus
/// the dynamic fault state (partitions and crashed nodes).
#[derive(Debug, Clone, Default)]
pub struct Topology {
    default_link: LinkConfig,
    overrides: BTreeMap<(NodeIdx, NodeIdx), LinkConfig>,
    partitions: BTreeSet<(NodeIdx, NodeIdx)>,
    crashed: BTreeSet<NodeIdx>,
}

impl Topology {
    /// A full-mesh topology where every inter-node link has `default_link`
    /// characteristics and intra-node delivery takes 1 microsecond.
    pub fn full_mesh(default_link: LinkConfig) -> Self {
        Self {
            default_link,
            overrides: BTreeMap::new(),
            partitions: BTreeSet::new(),
            crashed: BTreeSet::new(),
        }
    }

    /// The delivery latency for messages that stay on one node.
    pub fn local_latency(&self) -> SimDuration {
        SimDuration::from_micros(1)
    }

    /// Overrides the link configuration for the directed pair `src → dst`.
    pub fn set_link(&mut self, src: NodeIdx, dst: NodeIdx, link: LinkConfig) {
        self.overrides.insert((src, dst), link);
    }

    /// The link configuration for `src → dst`.
    pub fn link(&self, src: NodeIdx, dst: NodeIdx) -> LinkConfig {
        self.overrides
            .get(&(src, dst))
            .copied()
            .unwrap_or(self.default_link)
    }

    /// Severs connectivity between two nodes (both directions).
    pub fn partition(&mut self, a: NodeIdx, b: NodeIdx) {
        self.partitions.insert(ordered(a, b));
    }

    /// Restores connectivity between two nodes.
    pub fn heal(&mut self, a: NodeIdx, b: NodeIdx) {
        self.partitions.remove(&ordered(a, b));
    }

    /// Whether two nodes can currently exchange messages.
    pub fn connected(&self, a: NodeIdx, b: NodeIdx) -> bool {
        a == b || !self.partitions.contains(&ordered(a, b))
    }

    /// Marks a node crashed: messages to and from it are dropped and its
    /// timers are suppressed until [`Self::restart`].
    pub fn crash(&mut self, node: NodeIdx) {
        self.crashed.insert(node);
    }

    /// Restores a crashed node.
    pub fn restart(&mut self, node: NodeIdx) {
        self.crashed.remove(&node);
    }

    /// Whether a node is currently crashed.
    pub fn is_crashed(&self, node: NodeIdx) -> bool {
        self.crashed.contains(&node)
    }

    /// The minimum base one-way latency over every directed node pair
    /// whose endpoints live on *different* shards of `map` — the
    /// conservative lookahead a sharded run derives its epoch horizon
    /// from: no cross-shard message can arrive sooner than this after it
    /// was sent. Jitter only adds latency, so it never shrinks the bound.
    ///
    /// Returns `None` when no cross-shard pair exists (a single shard
    /// needs no lookahead).
    pub fn min_cross_partition_latency(
        &self,
        map: &rmodp_kernel::PartitionMap,
    ) -> Option<SimDuration> {
        let nodes = map.nodes();
        let mut min: Option<SimDuration> = None;
        let mut cross_pairs = 0usize;
        let mut overridden = 0usize;
        for (&(src, dst), link) in &self.overrides {
            let (s, d) = (src.0 as usize, dst.0 as usize);
            if s < nodes && d < nodes && !map.co_located(s, d) {
                overridden += 1;
                min = Some(min.map_or(link.latency, |m| m.min(link.latency)));
            }
        }
        for s in 0..nodes {
            for d in 0..nodes {
                if s != d && !map.co_located(s, d) {
                    cross_pairs += 1;
                }
            }
        }
        if cross_pairs == 0 {
            return None;
        }
        if overridden < cross_pairs {
            // At least one cross-shard pair rides the default link.
            min = Some(min.map_or(self.default_link.latency, |m| {
                m.min(self.default_link.latency)
            }));
        }
        min
    }
}

fn ordered(a: NodeIdx, b: NodeIdx) -> (NodeIdx, NodeIdx) {
    if a <= b {
        (a, b)
    } else {
        (b, a)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const N0: NodeIdx = NodeIdx(0);
    const N1: NodeIdx = NodeIdx(1);
    const N2: NodeIdx = NodeIdx(2);

    #[test]
    fn default_and_override_links() {
        let mut t = Topology::full_mesh(LinkConfig::with_latency(SimDuration::from_millis(1)));
        assert_eq!(t.link(N0, N1).latency, SimDuration::from_millis(1));
        t.set_link(
            N0,
            N1,
            LinkConfig::with_latency(SimDuration::from_millis(9)),
        );
        assert_eq!(t.link(N0, N1).latency, SimDuration::from_millis(9));
        // Overrides are directional.
        assert_eq!(t.link(N1, N0).latency, SimDuration::from_millis(1));
    }

    #[test]
    fn partitions_are_symmetric_and_healable() {
        let mut t = Topology::full_mesh(LinkConfig::default());
        assert!(t.connected(N0, N1));
        t.partition(N1, N0);
        assert!(!t.connected(N0, N1));
        assert!(!t.connected(N1, N0));
        assert!(t.connected(N0, N2));
        // A node always reaches itself.
        assert!(t.connected(N0, N0));
        t.heal(N0, N1);
        assert!(t.connected(N0, N1));
    }

    #[test]
    fn crash_and_restart() {
        let mut t = Topology::full_mesh(LinkConfig::default());
        assert!(!t.is_crashed(N1));
        t.crash(N1);
        assert!(t.is_crashed(N1));
        t.restart(N1);
        assert!(!t.is_crashed(N1));
    }

    #[test]
    #[should_panic(expected = "loss must be in [0,1]")]
    fn loss_out_of_range_panics() {
        let _ = LinkConfig::default().loss(1.5);
    }

    #[test]
    fn min_cross_partition_latency_tracks_the_slowest_safe_bound() {
        use rmodp_kernel::PartitionMap;
        let mut t = Topology::full_mesh(LinkConfig::with_latency(SimDuration::from_millis(2)));
        let map = PartitionMap::round_robin(4, 2);
        // All cross pairs ride the default link.
        assert_eq!(
            t.min_cross_partition_latency(&map),
            Some(SimDuration::from_millis(2))
        );
        // A faster cross-shard override lowers the bound…
        t.set_link(
            N0,
            N1,
            LinkConfig::with_latency(SimDuration::from_millis(1)),
        );
        assert_eq!(
            t.min_cross_partition_latency(&map),
            Some(SimDuration::from_millis(1))
        );
        // …but a faster *intra-shard* override (n0 and n2 share shard 0)
        // does not.
        t.set_link(
            N0,
            N2,
            LinkConfig::with_latency(SimDuration::from_micros(10)),
        );
        assert_eq!(
            t.min_cross_partition_latency(&map),
            Some(SimDuration::from_millis(1))
        );
        // One shard owning everything has no cross pair.
        assert_eq!(
            t.min_cross_partition_latency(&PartitionMap::round_robin(4, 1)),
            None
        );
    }
}
