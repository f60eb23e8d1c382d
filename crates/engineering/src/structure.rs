//! Engineering structures: node, capsule, cluster, basic engineering
//! object (§6.2, Figure 5), plus checkpoints and structuring-rule
//! validation.

use std::collections::BTreeMap;
use std::fmt;

use rmodp_core::codec::{syntax_for, SyntaxId};
use rmodp_core::id::{CapsuleId, ClusterId, InterfaceId, NodeId, ObjectId};
use rmodp_core::value::Value;

/// Where an interface lives: the node/capsule/cluster coordinates of its
/// object.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Location {
    /// The node (computer system).
    pub node: NodeId,
    /// The capsule within the node.
    pub capsule: CapsuleId,
    /// The cluster within the capsule.
    pub cluster: ClusterId,
}

impl fmt::Display for Location {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}/{}/{}", self.node, self.capsule, self.cluster)
    }
}

/// An engineering interface reference: identity plus (possibly stale)
/// location knowledge and the epoch at which that knowledge was current.
///
/// Relocation transparency (§9.2) revolves around epochs: when an object
/// migrates, the authoritative epoch is bumped; holders of older epochs
/// get `NotHere` and must requery the relocator.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct InterfaceRef {
    /// The interface identity (stable across migration).
    pub interface: InterfaceId,
    /// The believed location.
    pub location: Location,
    /// The epoch of the belief.
    pub epoch: u64,
}

/// A basic engineering object's bookkeeping (the behaviour itself lives in
/// the nucleus process).
#[derive(Debug, Clone, PartialEq)]
pub struct BeoRecord {
    /// The object identity.
    pub object: ObjectId,
    /// A human-oriented name.
    pub name: String,
    /// The behaviour name (resolvable via the behaviour registry).
    pub behaviour: String,
    /// The interfaces this object offers.
    pub interfaces: Vec<InterfaceId>,
}

/// A checkpoint of one object: everything needed to recreate it.
#[derive(Debug, Clone, PartialEq)]
pub struct ObjectCheckpoint {
    /// The object's bookkeeping.
    pub record: BeoRecord,
    /// The captured state.
    pub state: Value,
}

/// A checkpoint of a whole cluster (§8.1: the cluster is the unit of
/// checkpointing, deactivation and migration).
#[derive(Debug, Clone, PartialEq)]
pub struct ClusterCheckpoint {
    /// The cluster this checkpoints.
    pub cluster: ClusterId,
    /// Checkpoints of every object in the cluster.
    pub objects: Vec<ObjectCheckpoint>,
    /// The epoch at which the checkpoint was taken.
    pub epoch: u64,
}

/// Serialises a cluster checkpoint with the binary transfer syntax: the
/// one byte form every store of checkpoints (persistence, the durable
/// guard, coordinated checkpoints) writes and [`decode_checkpoint`] reads.
/// The form carries no checksum of its own; the durable store frames it.
pub fn encode_checkpoint(cp: &ClusterCheckpoint) -> Vec<u8> {
    let objects = Value::Seq(
        cp.objects
            .iter()
            .map(|o| {
                Value::record([
                    ("object", Value::Int(o.record.object.raw() as i64)),
                    ("name", Value::text(o.record.name.clone())),
                    ("behaviour", Value::text(o.record.behaviour.clone())),
                    (
                        "interfaces",
                        Value::Seq(
                            o.record
                                .interfaces
                                .iter()
                                .map(|i| Value::Int(i.raw() as i64))
                                .collect(),
                        ),
                    ),
                    ("state", o.state.clone()),
                ])
            })
            .collect(),
    );
    let v = Value::record([
        ("cluster", Value::Int(cp.cluster.raw() as i64)),
        ("epoch", Value::Int(cp.epoch as i64)),
        ("objects", objects),
    ]);
    syntax_for(SyntaxId::Binary).encode(&v)
}

/// Deserialises a cluster checkpoint.
///
/// # Errors
///
/// Returns a description of the first structural problem found.
pub fn decode_checkpoint(bytes: &[u8]) -> Result<ClusterCheckpoint, String> {
    let v = syntax_for(SyntaxId::Binary)
        .decode(bytes)
        .map_err(|e| e.to_string())?;
    let cluster = v
        .field("cluster")
        .and_then(Value::as_int)
        .ok_or("missing cluster id")?;
    let epoch = v
        .field("epoch")
        .and_then(Value::as_int)
        .ok_or("missing epoch")?;
    let mut objects = Vec::new();
    for o in v
        .field("objects")
        .and_then(Value::as_seq)
        .ok_or("missing objects")?
    {
        let record = BeoRecord {
            object: ObjectId::new(
                o.field("object")
                    .and_then(Value::as_int)
                    .ok_or("missing object id")? as u64,
            ),
            name: o
                .field("name")
                .and_then(Value::as_text)
                .ok_or("missing object name")?
                .to_owned(),
            behaviour: o
                .field("behaviour")
                .and_then(Value::as_text)
                .ok_or("missing behaviour")?
                .to_owned(),
            interfaces: o
                .field("interfaces")
                .and_then(Value::as_seq)
                .ok_or("missing interfaces")?
                .iter()
                .map(|i| {
                    let raw = i.as_int().ok_or("non-integer id in interfaces")?;
                    Ok(InterfaceId::new(raw as u64))
                })
                .collect::<Result<_, &str>>()?,
        };
        let state = o.field("state").cloned().ok_or("missing state")?;
        objects.push(ObjectCheckpoint { record, state });
    }
    Ok(ClusterCheckpoint {
        cluster: ClusterId::new(cluster as u64),
        objects,
        epoch: epoch as u64,
    })
}

/// Optional structuring constraints an implementation may impose (§6.2:
/// "an implementation of an ODP system can choose to constrain the
/// structuring, for example, by allowing only one object per cluster /
/// only one cluster per capsule").
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StructurePolicy {
    /// Maximum objects per cluster (None = unbounded).
    pub max_objects_per_cluster: Option<usize>,
    /// Maximum clusters per capsule (None = unbounded).
    pub max_clusters_per_capsule: Option<usize>,
    /// Maximum capsules per node (None = unbounded).
    pub max_capsules_per_node: Option<usize>,
}

impl StructurePolicy {
    /// The constrained profile the paper mentions: one object per cluster,
    /// one cluster per capsule.
    pub fn single_object_capsules() -> Self {
        Self {
            max_objects_per_cluster: Some(1),
            max_clusters_per_capsule: Some(1),
            max_capsules_per_node: None,
        }
    }
}

/// The in-memory structure of one node, maintained by its nucleus.
#[derive(Debug, Default)]
pub struct NodeStructure {
    /// Capsules by identity.
    pub capsules: BTreeMap<CapsuleId, Capsule>,
}

/// A capsule: a set of clusters with their managers, plus the capsule
/// manager (represented by the capsule's own management functions).
#[derive(Debug, Default)]
pub struct Capsule {
    /// Clusters by identity.
    pub clusters: BTreeMap<ClusterId, Cluster>,
}

/// A cluster: related basic engineering objects that are always
/// co-located (the unit of migration).
#[derive(Debug, Default)]
pub struct Cluster {
    /// Object records by identity.
    pub objects: BTreeMap<ObjectId, BeoRecord>,
}

impl NodeStructure {
    /// Counts (capsules, clusters, objects).
    pub fn census(&self) -> (usize, usize, usize) {
        let capsules = self.capsules.len();
        let clusters: usize = self.capsules.values().map(|c| c.clusters.len()).sum();
        let objects: usize = self
            .capsules
            .values()
            .flat_map(|c| c.clusters.values())
            .map(|cl| cl.objects.len())
            .sum();
        (capsules, clusters, objects)
    }

    /// Checks the §6.2 structuring rules and any policy constraints,
    /// returning all violations (empty = valid).
    ///
    /// The containment rules (a capsule contains clusters, a cluster
    /// contains objects) hold by construction of the tree; what is checked
    /// here is policy conformance and referential integrity of interface
    /// routing.
    pub fn validate(
        &self,
        policy: &StructurePolicy,
        routing: &BTreeMap<InterfaceId, ObjectId>,
    ) -> Vec<String> {
        let mut violations = Vec::new();
        if let Some(max) = policy.max_capsules_per_node {
            if self.capsules.len() > max {
                violations.push(format!(
                    "node has {} capsules, policy allows {max}",
                    self.capsules.len()
                ));
            }
        }
        for (capsule_id, capsule) in &self.capsules {
            if let Some(max) = policy.max_clusters_per_capsule {
                if capsule.clusters.len() > max {
                    violations.push(format!(
                        "{capsule_id} has {} clusters, policy allows {max}",
                        capsule.clusters.len()
                    ));
                }
            }
            for (cluster_id, cluster) in &capsule.clusters {
                if let Some(max) = policy.max_objects_per_cluster {
                    if cluster.objects.len() > max {
                        violations.push(format!(
                            "{cluster_id} has {} objects, policy allows {max}",
                            cluster.objects.len()
                        ));
                    }
                }
                for (object_id, record) in &cluster.objects {
                    for ifc in &record.interfaces {
                        match routing.get(ifc) {
                            Some(owner) if owner == object_id => {}
                            Some(owner) => violations
                                .push(format!("{ifc} routed to {owner} but owned by {object_id}")),
                            None => violations.push(format!("{ifc} of {object_id} is not routed")),
                        }
                    }
                }
            }
        }
        // Every routed interface must belong to some object in the tree.
        for (ifc, owner) in routing {
            let exists = self
                .capsules
                .values()
                .flat_map(|c| c.clusters.values())
                .any(|cl| cl.objects.contains_key(owner));
            if !exists {
                violations.push(format!("{ifc} routes to non-resident object {owner}"));
            }
        }
        violations
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn record(object: u64, interfaces: Vec<u64>) -> BeoRecord {
        BeoRecord {
            object: ObjectId::new(object),
            name: format!("obj{object}"),
            behaviour: "echo".into(),
            interfaces: interfaces.into_iter().map(InterfaceId::new).collect(),
        }
    }

    fn small_node() -> (NodeStructure, BTreeMap<InterfaceId, ObjectId>) {
        let mut node = NodeStructure::default();
        let mut capsule = Capsule::default();
        let mut cluster = Cluster::default();
        cluster
            .objects
            .insert(ObjectId::new(1), record(1, vec![10]));
        cluster
            .objects
            .insert(ObjectId::new(2), record(2, vec![20, 21]));
        capsule.clusters.insert(ClusterId::new(1), cluster);
        node.capsules.insert(CapsuleId::new(1), capsule);
        let routing: BTreeMap<InterfaceId, ObjectId> = [
            (InterfaceId::new(10), ObjectId::new(1)),
            (InterfaceId::new(20), ObjectId::new(2)),
            (InterfaceId::new(21), ObjectId::new(2)),
        ]
        .into_iter()
        .collect();
        (node, routing)
    }

    #[test]
    fn census_counts_the_tree() {
        let (node, _) = small_node();
        assert_eq!(node.census(), (1, 1, 2));
    }

    #[test]
    fn valid_structure_has_no_violations() {
        let (node, routing) = small_node();
        assert!(node
            .validate(&StructurePolicy::default(), &routing)
            .is_empty());
    }

    #[test]
    fn policy_limits_are_enforced() {
        let (node, routing) = small_node();
        let policy = StructurePolicy::single_object_capsules();
        let violations = node.validate(&policy, &routing);
        assert_eq!(violations.len(), 1);
        assert!(violations[0].contains("2 objects"), "{violations:?}");
    }

    #[test]
    fn unrouted_and_misrouted_interfaces_are_caught() {
        let (node, mut routing) = small_node();
        routing.remove(&InterfaceId::new(21));
        routing.insert(InterfaceId::new(10), ObjectId::new(2));
        let violations = node.validate(&StructurePolicy::default(), &routing);
        assert!(
            violations.iter().any(|v| v.contains("not routed")),
            "{violations:?}"
        );
        assert!(
            violations.iter().any(|v| v.contains("owned by")),
            "{violations:?}"
        );
    }

    #[test]
    fn routing_to_nonresident_object_is_caught() {
        let (node, mut routing) = small_node();
        routing.insert(InterfaceId::new(99), ObjectId::new(42));
        let violations = node.validate(&StructurePolicy::default(), &routing);
        assert!(
            violations.iter().any(|v| v.contains("non-resident")),
            "{violations:?}"
        );
    }

    #[test]
    fn location_and_ref_display() {
        let loc = Location {
            node: NodeId::new(1),
            capsule: CapsuleId::new(2),
            cluster: ClusterId::new(3),
        };
        assert_eq!(loc.to_string(), "node:1/caps:2/clus:3");
    }

    fn checkpoint_sample() -> ClusterCheckpoint {
        ClusterCheckpoint {
            cluster: ClusterId::new(3),
            epoch: 7,
            objects: vec![ObjectCheckpoint {
                record: BeoRecord {
                    object: ObjectId::new(1),
                    name: "counter".into(),
                    behaviour: "counter".into(),
                    interfaces: vec![InterfaceId::new(10), InterfaceId::new(11)],
                },
                state: Value::record([("n", Value::Int(42))]),
            }],
        }
    }

    #[test]
    fn checkpoint_codec_round_trips() {
        let cp = checkpoint_sample();
        let bytes = encode_checkpoint(&cp);
        let back = decode_checkpoint(&bytes).unwrap();
        assert_eq!(back, cp);
    }

    #[test]
    fn checkpoint_bytes_are_pinned() {
        // Read off `persistence::encode_checkpoint` before the codec
        // moved here: stored checkpoints stay readable across the move.
        let bytes = encode_checkpoint(&checkpoint_sample());
        assert_eq!(bytes.len(), 193);
        assert_eq!(rmodp_observe::hash::fnv1a(&bytes), 0xd41d_16f0_958f_f14d);
    }

    #[test]
    fn decode_rejects_garbage() {
        assert!(decode_checkpoint(&[1, 2, 3]).is_err());
        let not_a_checkpoint = syntax_for(SyntaxId::Binary).encode(&Value::Int(5));
        assert!(decode_checkpoint(&not_a_checkpoint).is_err());
    }

    /// A damaged interface list is refused, not read as a shorter one.
    #[test]
    fn decode_rejects_a_non_integer_interface_id() {
        let object = Value::record([
            ("object", Value::Int(1)),
            ("name", Value::text("counter")),
            ("behaviour", Value::text("counter")),
            ("interfaces", Value::seq([Value::text("x")])),
            ("state", Value::record([("n", Value::Int(42))])),
        ]);
        let damaged = Value::record([
            ("cluster", Value::Int(3)),
            ("epoch", Value::Int(7)),
            ("objects", Value::seq([object])),
        ]);
        let bytes = syntax_for(SyntaxId::Binary).encode(&damaged);
        let err = decode_checkpoint(&bytes).unwrap_err();
        assert!(err.contains("interfaces"), "{err}");
    }
}
