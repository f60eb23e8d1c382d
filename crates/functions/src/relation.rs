//! The relationship repository (§8.3): a general store of typed
//! relationships between identified entities, queried from the subject.

use std::collections::BTreeSet;

/// One relationship triple.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
pub struct Relationship {
    /// The relationship kind (e.g. `"owns"`, `"member_of"`).
    pub kind: String,
    /// The subject entity.
    pub subject: u64,
    /// The object entity.
    pub object: u64,
}

/// The general relationship repository.
#[derive(Debug, Default)]
pub struct RelationshipRepository {
    triples: BTreeSet<Relationship>,
}

impl RelationshipRepository {
    /// Records a relationship; returns `false` if it already existed.
    pub fn relate(&mut self, kind: impl Into<String>, subject: u64, object: u64) -> bool {
        self.triples.insert(Relationship {
            kind: kind.into(),
            subject,
            object,
        })
    }

    /// Removes a relationship; returns whether it existed.
    pub fn unrelate(&mut self, kind: &str, subject: u64, object: u64) -> bool {
        self.triples.remove(&Relationship {
            kind: kind.to_owned(),
            subject,
            object,
        })
    }

    /// Whether the relationship holds.
    pub fn holds(&self, kind: &str, subject: u64, object: u64) -> bool {
        self.triples.contains(&Relationship {
            kind: kind.to_owned(),
            subject,
            object,
        })
    }

    /// Objects related to a subject under a kind.
    fn objects_of(&self, kind: &str, subject: u64) -> Vec<u64> {
        self.triples
            .iter()
            .filter(|r| r.kind == kind && r.subject == subject)
            .map(|r| r.object)
            .collect()
    }

    /// The transitive closure of a kind from a subject (e.g. nested
    /// community membership).
    pub fn reachable(&self, kind: &str, from: u64) -> Vec<u64> {
        let mut seen = BTreeSet::new();
        let mut frontier = vec![from];
        while let Some(node) = frontier.pop() {
            for next in self.objects_of(kind, node) {
                if seen.insert(next) {
                    frontier.push(next);
                }
            }
        }
        seen.into_iter().collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn relate_query_unrelate() {
        let mut repo = RelationshipRepository::default();
        assert!(repo.relate("owns", 1, 100));
        assert!(!repo.relate("owns", 1, 100)); // duplicate
        repo.relate("owns", 1, 101);
        repo.relate("owns", 2, 100);
        assert!(repo.holds("owns", 1, 100));
        assert_eq!(repo.objects_of("owns", 1), vec![100, 101]);
        assert!(repo.unrelate("owns", 1, 100));
        assert!(!repo.holds("owns", 1, 100));
    }

    #[test]
    fn kinds_are_disjoint() {
        let mut repo = RelationshipRepository::default();
        repo.relate("owns", 1, 2);
        repo.relate("manages", 1, 3);
        assert_eq!(repo.objects_of("owns", 1), vec![2]);
        assert_eq!(repo.objects_of("manages", 1), vec![3]);
        assert!(!repo.holds("owns", 1, 3));
    }

    #[test]
    fn reachable_computes_transitive_closure() {
        let mut repo = RelationshipRepository::default();
        repo.relate("in", 1, 2);
        repo.relate("in", 2, 3);
        repo.relate("in", 3, 4);
        repo.relate("in", 9, 1); // irrelevant direction
        assert_eq!(repo.reachable("in", 1), vec![2, 3, 4]);
        assert_eq!(repo.reachable("in", 4), Vec::<u64>::new());
        // Cycles terminate.
        repo.relate("in", 4, 1);
        assert_eq!(repo.reachable("in", 1), vec![1, 2, 3, 4]);
    }
}
