//! Hierarchical names and naming contexts.
//!
//! RM-ODP repositories (the relocator's white pages §8.3.3, the storage
//! function, the type repository) need a naming scheme. A [`Name`] is a
//! sequence of segments (`"bank/branches/toowong"`); a [`NamingContext`] is
//! a tree binding names to numeric identities tagged with a kind string.

use std::collections::BTreeMap;
use std::fmt;

use serde::{Deserialize, Serialize};

/// A hierarchical name: one or more non-empty segments.
///
/// # Example
///
/// ```
/// use rmodp_core::naming::Name;
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let n: Name = "bank/branches/toowong".parse()?;
/// assert_eq!(n.leaf(), "toowong");
/// assert_eq!(n.to_string(), "bank/branches/toowong");
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct Name {
    segments: Vec<String>,
}

impl Name {
    /// Builds a name from segments.
    ///
    /// # Errors
    ///
    /// Fails if there are no segments or any segment is empty or contains
    /// `'/'`.
    fn from_segments<S: Into<String>, I: IntoIterator<Item = S>>(
        segments: I,
    ) -> Result<Self, NameError> {
        let segments: Vec<String> = segments.into_iter().map(Into::into).collect();
        if segments.is_empty() {
            return Err(NameError::Empty);
        }
        for s in &segments {
            if s.is_empty() || s.contains('/') {
                return Err(NameError::BadSegment { segment: s.clone() });
            }
        }
        Ok(Self { segments })
    }

    /// The segments of the name.
    fn segments(&self) -> &[String] {
        &self.segments
    }

    /// The final segment.
    pub fn leaf(&self) -> &str {
        self.segments.last().expect("names are non-empty")
    }
}

impl std::str::FromStr for Name {
    type Err = NameError;

    fn from_str(s: &str) -> Result<Self, NameError> {
        Name::from_segments(s.split('/'))
    }
}

impl fmt::Display for Name {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.segments.join("/"))
    }
}

/// An invalid name.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum NameError {
    /// Names must have at least one segment.
    Empty,
    /// A segment was empty or contained `'/'`.
    BadSegment { segment: String },
}

impl fmt::Display for NameError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            NameError::Empty => write!(f, "name must have at least one segment"),
            NameError::BadSegment { segment } => write!(f, "invalid name segment {segment:?}"),
        }
    }
}

impl std::error::Error for NameError {}

/// What a name resolves to: a raw identity plus its kind.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct BindingTarget {
    /// The raw identifier (interpreted per `kind`).
    pub id: u64,
    /// The kind of entity bound (e.g. `"interface"`, `"cluster"`).
    pub kind: String,
}

#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
struct ContextNode {
    binding: Option<BindingTarget>,
    children: BTreeMap<String, ContextNode>,
}

/// A tree of name bindings.
///
/// # Example
///
/// ```
/// use rmodp_core::naming::{BindingTarget, Name, NamingContext};
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let mut ctx = NamingContext::default();
/// let name: Name = "traders/brisbane".parse()?;
/// ctx.bind(&name, BindingTarget { id: 7, kind: "interface".into() })?;
/// assert_eq!(ctx.resolve(&name).unwrap().id, 7);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct NamingContext {
    root: ContextNode,
}

impl NamingContext {
    /// Binds a name, creating intermediate contexts as needed.
    ///
    /// # Errors
    ///
    /// Fails with [`BindError::AlreadyBound`] if the name is taken.
    pub fn bind(&mut self, name: &Name, target: BindingTarget) -> Result<(), BindError> {
        let node = self.node_mut(name);
        if node.binding.is_some() {
            return Err(BindError::AlreadyBound { name: name.clone() });
        }
        node.binding = Some(target);
        Ok(())
    }

    /// Resolves a name to its target.
    pub fn resolve(&self, name: &Name) -> Option<&BindingTarget> {
        self.node(name)?.binding.as_ref()
    }

    /// Removes a binding, returning it if it existed. Child bindings under
    /// the name are unaffected.
    pub fn unbind(&mut self, name: &Name) -> Option<BindingTarget> {
        let mut node = &mut self.root;
        for seg in name.segments() {
            node = node.children.get_mut(seg)?;
        }
        node.binding.take()
    }

    /// Lists the immediate child segments under a name (`None` lists the
    /// root). Each is tagged with whether it is itself bound.
    pub fn list(&self, name: Option<&Name>) -> Vec<(String, bool)> {
        let node = match name {
            None => Some(&self.root),
            Some(n) => self.node(n),
        };
        match node {
            Some(n) => n
                .children
                .iter()
                .map(|(seg, child)| (seg.clone(), child.binding.is_some()))
                .collect(),
            None => Vec::new(),
        }
    }
    fn node(&self, name: &Name) -> Option<&ContextNode> {
        let mut node = &self.root;
        for seg in name.segments() {
            node = node.children.get(seg)?;
        }
        Some(node)
    }

    fn node_mut(&mut self, name: &Name) -> &mut ContextNode {
        let mut node = &mut self.root;
        for seg in name.segments() {
            node = node.children.entry(seg.clone()).or_default();
        }
        node
    }
}

/// A binding failure.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum BindError {
    /// The name already has a binding; [`unbind`](NamingContext::unbind)
    /// it first to replace it.
    AlreadyBound { name: Name },
}

impl fmt::Display for BindError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            BindError::AlreadyBound { name } => write!(f, "name {name} is already bound"),
        }
    }
}

impl std::error::Error for BindError {}

#[cfg(test)]
mod tests {
    use super::*;

    fn name(s: &str) -> Name {
        s.parse().unwrap()
    }

    fn target(id: u64) -> BindingTarget {
        BindingTarget {
            id,
            kind: "interface".into(),
        }
    }

    #[test]
    fn parse_and_display() {
        let n = name("a/b/c");
        assert_eq!(n.segments(), ["a", "b", "c"]);
        assert_eq!(n.leaf(), "c");
        assert_eq!(n.to_string(), "a/b/c");
    }

    #[test]
    fn invalid_names_are_rejected() {
        assert!("".parse::<Name>().is_err());
        assert!("a//b".parse::<Name>().is_err());
        assert!(Name::from_segments(Vec::<String>::new()).is_err());
    }

    #[test]
    fn bind_resolve_unbind() {
        let mut ctx = NamingContext::default();
        ctx.bind(&name("x/y"), target(1)).unwrap();
        assert_eq!(ctx.resolve(&name("x/y")).unwrap().id, 1);
        assert_eq!(ctx.resolve(&name("x")), None);
        assert_eq!(ctx.unbind(&name("x/y")).unwrap().id, 1);
        assert_eq!(ctx.resolve(&name("x/y")), None);
        assert_eq!(ctx.unbind(&name("x/y")), None);
    }

    #[test]
    fn double_bind_fails_unbind_then_bind_replaces() {
        let mut ctx = NamingContext::default();
        ctx.bind(&name("t"), target(1)).unwrap();
        assert_eq!(
            ctx.bind(&name("t"), target(2)),
            Err(BindError::AlreadyBound { name: name("t") })
        );
        assert_eq!(ctx.unbind(&name("t")).unwrap().id, 1);
        ctx.bind(&name("t"), target(3)).unwrap();
        assert_eq!(ctx.resolve(&name("t")).unwrap().id, 3);
    }

    #[test]
    fn interior_nodes_can_be_bound_too() {
        let mut ctx = NamingContext::default();
        ctx.bind(&name("a/b"), target(1)).unwrap();
        ctx.bind(&name("a"), target(2)).unwrap();
        assert_eq!(ctx.resolve(&name("a")).unwrap().id, 2);
        assert_eq!(ctx.resolve(&name("a/b")).unwrap().id, 1);
        // Unbinding the interior keeps the child.
        ctx.unbind(&name("a"));
        assert_eq!(ctx.resolve(&name("a/b")).unwrap().id, 1);
    }

    #[test]
    fn list_shows_children_and_bound_flags() {
        let mut ctx = NamingContext::default();
        ctx.bind(&name("svc/trader"), target(1)).unwrap();
        ctx.bind(&name("svc/relocator"), target(2)).unwrap();
        assert_eq!(
            ctx.list(Some(&name("svc"))),
            vec![("relocator".to_owned(), true), ("trader".to_owned(), true)]
        );
        assert_eq!(ctx.list(None), vec![("svc".to_owned(), false)]);
        assert_eq!(ctx.list(Some(&name("nope"))), vec![]);
    }
}
