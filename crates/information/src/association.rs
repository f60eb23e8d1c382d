//! Relationship and composite schemas.
//!
//! §4: "Schemas can also be used to describe relationships or associations
//! between objects; e.g., the static schema *owns account* could associate
//! each account with a customer. A schema can be composed from other
//! schemas to describe complex or composite objects; e.g., a bank branch
//! consists of a set of customers, a set of accounts, and the
//! owns-account relationships."

use std::collections::BTreeMap;
use std::fmt;

use crate::schema::{SchemaError, StaticSchema};

/// How many links a participant may appear in.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Cardinality {
    /// At most one link per participant.
    One,
    /// Any number of links.
    Many,
}

/// A binary association schema between two roles, with per-role
/// cardinalities. (`owns_account`: customer `Many` ↔ account `One` — a
/// customer may own many accounts, an account has one owner. §3 notes a
/// customer "should not be limited to having only one bank account".)
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AssociationSchema {
    name: String,
    left_role: String,
    left_cardinality: Cardinality,
    right_role: String,
    right_cardinality: Cardinality,
}

impl AssociationSchema {
    /// Defines an association schema.
    pub fn new(
        name: impl Into<String>,
        left_role: impl Into<String>,
        left_cardinality: Cardinality,
        right_role: impl Into<String>,
        right_cardinality: Cardinality,
    ) -> Self {
        Self {
            name: name.into(),
            left_role: left_role.into(),
            left_cardinality,
            right_role: right_role.into(),
            right_cardinality,
        }
    }

    /// The association name.
    fn name(&self) -> &str {
        &self.name
    }

    /// The left role name.
    fn left_role(&self) -> &str {
        &self.left_role
    }

    /// The right role name.
    fn right_role(&self) -> &str {
        &self.right_role
    }
}

/// An instantiated association: a set of links between object identities,
/// maintained under the schema's cardinality constraints.
#[derive(Debug, Clone, PartialEq)]
pub struct AssociationSet {
    schema: AssociationSchema,
    links: Vec<(u64, u64)>,
}

/// A cardinality constraint was violated, or the link is malformed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum AssociationError {
    /// The left participant already has a link and the left cardinality is
    /// [`Cardinality::One`].
    LeftCardinality { association: String, left: u64 },
    /// The right participant already has a link and the right cardinality
    /// is [`Cardinality::One`].
    RightCardinality { association: String, right: u64 },
    /// The identical link already exists.
    DuplicateLink { association: String },
}

impl fmt::Display for AssociationError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            AssociationError::LeftCardinality { association, left } => write!(
                f,
                "{association}: left participant {left} may appear in at most one link"
            ),
            AssociationError::RightCardinality { association, right } => write!(
                f,
                "{association}: right participant {right} may appear in at most one link"
            ),
            AssociationError::DuplicateLink { association } => {
                write!(f, "{association}: link already exists")
            }
        }
    }
}

impl std::error::Error for AssociationError {}

impl AssociationSet {
    /// Creates an empty association set for a schema.
    pub fn new(schema: AssociationSchema) -> Self {
        Self {
            schema,
            links: Vec::new(),
        }
    }

    /// The schema.
    pub fn schema(&self) -> &AssociationSchema {
        &self.schema
    }

    /// Adds a link, enforcing cardinalities.
    ///
    /// # Errors
    ///
    /// Returns an [`AssociationError`] if the link would violate a
    /// cardinality or duplicates an existing link.
    pub fn link(&mut self, left: u64, right: u64) -> Result<(), AssociationError> {
        if self.links.contains(&(left, right)) {
            return Err(AssociationError::DuplicateLink {
                association: self.schema.name.clone(),
            });
        }
        if self.schema.left_cardinality == Cardinality::One
            && self.links.iter().any(|(l, _)| *l == left)
        {
            return Err(AssociationError::LeftCardinality {
                association: self.schema.name.clone(),
                left,
            });
        }
        if self.schema.right_cardinality == Cardinality::One
            && self.links.iter().any(|(_, r)| *r == right)
        {
            return Err(AssociationError::RightCardinality {
                association: self.schema.name.clone(),
                right,
            });
        }
        self.links.push((left, right));
        Ok(())
    }

    /// Removes a link; returns whether it existed.
    pub fn unlink(&mut self, left: u64, right: u64) -> bool {
        let before = self.links.len();
        self.links.retain(|&l| l != (left, right));
        before != self.links.len()
    }
}

/// A composite schema: named component schemas plus the associations that
/// relate them (the paper's "bank branch" example).
#[derive(Debug, Clone, PartialEq)]
pub struct CompositeSchema {
    name: String,
    components: BTreeMap<String, StaticSchema>,
    associations: Vec<AssociationSchema>,
}

impl CompositeSchema {
    /// Starts an empty composite schema.
    pub fn new(name: impl Into<String>) -> Self {
        Self {
            name: name.into(),
            components: BTreeMap::new(),
            associations: Vec::new(),
        }
    }

    /// Adds a component schema under a role name.
    ///
    /// # Errors
    ///
    /// Returns [`SchemaError::BadDefinition`] on duplicate role names.
    pub fn with_component(
        mut self,
        role: impl Into<String>,
        schema: StaticSchema,
    ) -> Result<Self, SchemaError> {
        let role = role.into();
        if self.components.contains_key(&role) {
            return Err(SchemaError::BadDefinition {
                detail: format!("duplicate component role {role}"),
            });
        }
        self.components.insert(role, schema);
        Ok(self)
    }

    /// Adds an association whose roles must name existing components.
    ///
    /// # Errors
    ///
    /// Returns [`SchemaError::BadDefinition`] if either role is unknown.
    pub fn with_association(mut self, assoc: AssociationSchema) -> Result<Self, SchemaError> {
        for role in [assoc.left_role(), assoc.right_role()] {
            if !self.components.contains_key(role) {
                return Err(SchemaError::BadDefinition {
                    detail: format!(
                        "association {} names unknown component {role}",
                        assoc.name()
                    ),
                });
            }
        }
        self.associations.push(assoc);
        Ok(self)
    }

    /// The component schemas by role.
    pub fn components(&self) -> &BTreeMap<String, StaticSchema> {
        &self.components
    }

    /// The associations.
    pub fn associations(&self) -> &[AssociationSchema] {
        &self.associations
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rmodp_core::dtype::DataType;
    use rmodp_core::value::Value;

    fn owns_account() -> AssociationSchema {
        AssociationSchema::new(
            "owns_account",
            "customer",
            Cardinality::Many,
            "account",
            Cardinality::One,
        )
    }

    #[test]
    fn many_to_one_cardinality() {
        let mut set = AssociationSet::new(owns_account());
        // Customer 1 may own many accounts…
        set.link(1, 100).unwrap();
        set.link(1, 101).unwrap();
        // …but account 100 has exactly one owner.
        let err = set.link(2, 100).unwrap_err();
        assert!(matches!(
            err,
            AssociationError::RightCardinality { right: 100, .. }
        ));
        assert_eq!(set.links, [(1, 100), (1, 101)]);
    }

    #[test]
    fn one_to_one_cardinality() {
        let schema = AssociationSchema::new(
            "manages",
            "manager",
            Cardinality::One,
            "branch",
            Cardinality::One,
        );
        let mut set = AssociationSet::new(schema);
        set.link(1, 10).unwrap();
        assert!(matches!(
            set.link(1, 11),
            Err(AssociationError::LeftCardinality { left: 1, .. })
        ));
        assert!(matches!(
            set.link(2, 10),
            Err(AssociationError::RightCardinality { right: 10, .. })
        ));
    }

    #[test]
    fn duplicate_links_rejected_and_unlink_works() {
        let mut set = AssociationSet::new(owns_account());
        set.link(1, 100).unwrap();
        assert!(matches!(
            set.link(1, 100),
            Err(AssociationError::DuplicateLink { .. })
        ));
        assert!(set.unlink(1, 100));
        assert!(!set.unlink(1, 100));
        assert!(set.links.is_empty());
        // After unlinking, the slot is free again.
        set.link(2, 100).unwrap();
    }

    #[test]
    fn composite_schema_checks_roles() {
        let customer = StaticSchema::new(
            "Customer",
            DataType::record([("name", DataType::Text)]),
            Value::record([("name", Value::text(""))]),
        )
        .unwrap();
        let account = StaticSchema::new(
            "Account",
            DataType::record([("balance", DataType::Int)]),
            Value::record([("balance", Value::Int(0))]),
        )
        .unwrap();
        let branch = CompositeSchema::new("BankBranch")
            .with_component("customer", customer)
            .unwrap()
            .with_component("account", account)
            .unwrap()
            .with_association(owns_account())
            .unwrap();
        assert_eq!(branch.components().len(), 2);
        assert_eq!(branch.associations().len(), 1);

        let bad = CompositeSchema::new("Broken").with_association(owns_account());
        assert!(matches!(bad, Err(SchemaError::BadDefinition { .. })));
    }

    #[test]
    fn duplicate_component_role_rejected() {
        let c = StaticSchema::new(
            "C",
            DataType::record([("x", DataType::Int)]),
            Value::record([("x", Value::Int(0))]),
        )
        .unwrap();
        let result = CompositeSchema::new("X")
            .with_component("c", c.clone())
            .unwrap()
            .with_component("c", c);
        assert!(matches!(result, Err(SchemaError::BadDefinition { .. })));
    }
}
