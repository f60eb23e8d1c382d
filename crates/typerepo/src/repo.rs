//! The type repository implementation.

use std::collections::{BTreeMap, BTreeSet};
use std::fmt;

use rmodp_computational::signature::InterfaceSignature;
use rmodp_computational::subtype::is_subtype_with;

/// A type-repository error.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TypeRepoError {
    /// A type with this name is already registered.
    Duplicate { name: String },
    /// No type with this name is registered.
    Unknown { name: String },
}

impl fmt::Display for TypeRepoError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TypeRepoError::Duplicate { name } => write!(f, "type {name} already registered"),
            TypeRepoError::Unknown { name } => write!(f, "unknown type {name}"),
        }
    }
}

impl std::error::Error for TypeRepoError {}

/// A named relationship between two registered types (beyond subtyping) —
/// e.g. `("implements", "AccountsImpl", "BankTeller")` or
/// `("compatible_with", "V2", "V1")`.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
pub struct TypeRelationship {
    /// The relationship kind.
    pub kind: String,
    /// The source type name.
    pub from: String,
    /// The target type name.
    pub to: String,
}

/// The registry of interface types with a derived subtype lattice.
#[derive(Debug, Default)]
pub struct TypeRepository {
    types: BTreeMap<String, InterfaceSignature>,
    /// Derived strict+reflexive subtype pairs `(sub, sup)`.
    subtype_pairs: BTreeSet<(String, String)>,
    relationships: BTreeSet<TypeRelationship>,
}

impl TypeRepository {
    /// Creates an empty repository.
    pub fn new() -> Self {
        Self::default()
    }

    /// Registers an interface type and re-derives the subtype lattice.
    ///
    /// # Errors
    ///
    /// Returns [`TypeRepoError::Duplicate`] on name collision.
    pub fn register(&mut self, signature: InterfaceSignature) -> Result<(), TypeRepoError> {
        let name = signature.name().to_owned();
        if self.types.contains_key(&name) {
            return Err(TypeRepoError::Duplicate { name });
        }
        self.types.insert(name, signature);
        self.recompute();
        Ok(())
    }

    /// Removes a type; relationships involving it are also removed.
    ///
    /// # Errors
    ///
    /// Returns [`TypeRepoError::Unknown`] if absent.
    pub fn unregister(&mut self, name: &str) -> Result<InterfaceSignature, TypeRepoError> {
        let sig = self
            .types
            .remove(name)
            .ok_or_else(|| TypeRepoError::Unknown {
                name: name.to_owned(),
            })?;
        self.relationships
            .retain(|r| r.from != name && r.to != name);
        self.recompute();
        Ok(sig)
    }

    /// Looks up a type by name.
    pub fn get(&self, name: &str) -> Option<&InterfaceSignature> {
        self.types.get(name)
    }

    /// All registered type names.
    pub fn names(&self) -> impl Iterator<Item = &str> {
        self.types.keys().map(String::as_str)
    }

    /// Number of registered types.
    pub fn len(&self) -> usize {
        self.types.len()
    }

    /// Whether the repository is empty.
    pub fn is_empty(&self) -> bool {
        self.types.is_empty()
    }

    /// Whether `sub` is (reflexively) a subtype of `sup`. Unknown names
    /// are subtypes of nothing.
    pub fn is_subtype(&self, sub: &str, sup: &str) -> bool {
        sub == sup && self.types.contains_key(sub)
            || self
                .subtype_pairs
                .contains(&(sub.to_owned(), sup.to_owned()))
    }

    /// The proper subtypes of a type.
    pub fn subtypes_of(&self, name: &str) -> Vec<&str> {
        self.subtype_pairs
            .iter()
            .filter(|(sub, sup)| sup == name && sub != name)
            .map(|(sub, _)| sub.as_str())
            .collect()
    }

    /// Records a named relationship between two registered types.
    ///
    /// # Errors
    ///
    /// Returns [`TypeRepoError::Unknown`] if either endpoint is not
    /// registered.
    pub fn relate(
        &mut self,
        kind: impl Into<String>,
        from: &str,
        to: &str,
    ) -> Result<(), TypeRepoError> {
        for n in [from, to] {
            if !self.types.contains_key(n) {
                return Err(TypeRepoError::Unknown { name: n.to_owned() });
            }
        }
        self.relationships.insert(TypeRelationship {
            kind: kind.into(),
            from: from.to_owned(),
            to: to.to_owned(),
        });
        Ok(())
    }

    /// All recorded relationships.
    pub fn relationships(&self) -> impl Iterator<Item = &TypeRelationship> {
        self.relationships.iter()
    }

    /// A resolver closure suitable for
    /// [`is_subtype_with`](rmodp_computational::subtype::is_subtype_with)
    /// and [`DataType::is_subtype_with`](rmodp_core::dtype::DataType):
    /// answers nested interface-reference subtyping from the derived
    /// lattice.
    pub fn resolver(&self) -> impl Fn(&str, &str) -> bool + '_ {
        move |a, b| self.is_subtype(a, b)
    }

    /// Re-derives the subtype lattice to a fixpoint: structural checks may
    /// depend on nested interface references whose subtyping is itself
    /// being derived, so iterate until no new pairs appear.
    fn recompute(&mut self) {
        let names: Vec<String> = self.types.keys().cloned().collect();
        let mut pairs: BTreeSet<(String, String)> =
            names.iter().map(|n| (n.clone(), n.clone())).collect();
        loop {
            let mut grew = false;
            for a in &names {
                for b in &names {
                    if a == b || pairs.contains(&(a.clone(), b.clone())) {
                        continue;
                    }
                    let known = &pairs;
                    let resolver =
                        move |x: &str, y: &str| known.contains(&(x.to_owned(), y.to_owned()));
                    let sub = &self.types[a];
                    let sup = &self.types[b];
                    if is_subtype_with(sub, sup, &resolver).is_ok() {
                        pairs.insert((a.clone(), b.clone()));
                        grew = true;
                    }
                }
            }
            if !grew {
                break;
            }
        }
        self.subtype_pairs = pairs;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rmodp_computational::signature::{
        bank_teller_signature, OperationalSignature, TerminationSignature,
    };
    use rmodp_core::dtype::DataType;

    fn op(sig: OperationalSignature) -> InterfaceSignature {
        InterfaceSignature::Operational(sig)
    }

    fn figure3_repo() -> TypeRepository {
        let mut repo = TypeRepository::new();
        repo.register(op(bank_teller_signature())).unwrap();
        let mut manager = OperationalSignature::new("BankManager");
        for (name, o) in bank_teller_signature().operations().clone() {
            manager = match o.kind {
                rmodp_computational::signature::OperationKind::Announcement => {
                    manager.announcement(name, o.params)
                }
                rmodp_computational::signature::OperationKind::Interrogation { terminations } => {
                    manager.interrogation(name, o.params, terminations)
                }
            };
        }
        let manager = manager.interrogation(
            "CreateAccount",
            [("c", DataType::Int)],
            vec![TerminationSignature::new("OK", [("a", DataType::Int)])],
        );
        repo.register(op(manager)).unwrap();
        repo
    }

    #[test]
    fn registers_and_queries_figure3() {
        let repo = figure3_repo();
        assert_eq!(repo.len(), 2);
        assert!(repo.is_subtype("BankManager", "BankTeller"));
        assert!(!repo.is_subtype("BankTeller", "BankManager"));
        assert!(repo.is_subtype("BankTeller", "BankTeller"));
        assert_eq!(repo.subtypes_of("BankTeller"), vec!["BankManager"]);
        assert!(repo.get("BankTeller").is_some());
        assert!(repo.get("Nope").is_none());
    }

    #[test]
    fn duplicates_rejected_unregister_works() {
        let mut repo = figure3_repo();
        assert!(matches!(
            repo.register(op(bank_teller_signature())),
            Err(TypeRepoError::Duplicate { .. })
        ));
        repo.unregister("BankManager").unwrap();
        assert_eq!(repo.len(), 1);
        assert!(repo.subtypes_of("BankTeller").is_empty());
        assert!(matches!(
            repo.unregister("BankManager"),
            Err(TypeRepoError::Unknown { .. })
        ));
    }

    #[test]
    fn unknown_names_are_not_reflexive() {
        let repo = figure3_repo();
        assert!(!repo.is_subtype("Ghost", "Ghost"));
    }

    #[test]
    fn fixpoint_resolves_nested_interface_refs() {
        // Factory types whose operations return interface references:
        // TellerFactory.make returns a BankTeller ref; ManagerFactory.make
        // returns a BankManager ref. ManagerFactory <: TellerFactory holds
        // only once BankManager <: BankTeller is derived — requiring the
        // fixpoint iteration.
        let mut repo = figure3_repo();
        let teller_factory = OperationalSignature::new("TellerFactory").interrogation(
            "make",
            [] as [(&str, DataType); 0],
            vec![TerminationSignature::new(
                "OK",
                [("ifc", DataType::Ref(Some("BankTeller".into())))],
            )],
        );
        let manager_factory = OperationalSignature::new("ManagerFactory").interrogation(
            "make",
            [] as [(&str, DataType); 0],
            vec![TerminationSignature::new(
                "OK",
                [("ifc", DataType::Ref(Some("BankManager".into())))],
            )],
        );
        repo.register(op(teller_factory)).unwrap();
        repo.register(op(manager_factory)).unwrap();
        assert!(repo.is_subtype("ManagerFactory", "TellerFactory"));
        assert!(!repo.is_subtype("TellerFactory", "ManagerFactory"));
    }

    #[test]
    fn resolver_closure_answers_from_lattice() {
        let repo = figure3_repo();
        let resolver = repo.resolver();
        assert!(resolver("BankManager", "BankTeller"));
        assert!(!resolver("BankTeller", "BankManager"));
    }

    #[test]
    fn named_relationships() {
        let mut repo = figure3_repo();
        repo.relate("audited_by", "BankManager", "BankTeller")
            .unwrap();
        assert!(repo.relate("x", "Ghost", "BankTeller").is_err());
        let audited = TypeRelationship {
            kind: "audited_by".into(),
            from: "BankManager".into(),
            to: "BankTeller".into(),
        };
        assert_eq!(repo.relationships().collect::<Vec<_>>(), [&audited]);
        // Unregistering an endpoint drops the relationship.
        repo.unregister("BankManager").unwrap();
        assert_eq!(repo.relationships().count(), 0);
    }

    #[test]
    fn empty_repo_behaviour() {
        let repo = TypeRepository::new();
        assert!(repo.is_empty());
        assert_eq!(repo.names().count(), 0);
        assert!(!repo.is_subtype("A", "B"));
    }
}
