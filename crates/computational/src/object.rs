//! Computational objects: templates and instances.
//!
//! "A computational specification defines the objects within an ODP
//! system, the activities within those objects, and the interactions that
//! occur among objects" (§5). Objects encapsulate state, offer multiple
//! interfaces (Figure 2's bank branch offers a BankTeller and a
//! BankManager interface), and may be application objects or ODP
//! infrastructure objects such as a trader or type repository.

use std::fmt;

use rmodp_core::id::{IdGen, InterfaceId, ObjectId};
use rmodp_core::value::Value;

use crate::binding::Causality;
use crate::signature::InterfaceSignature;

/// A template for one interface an object offers.
#[derive(Debug, Clone, PartialEq)]
pub struct InterfaceTemplate {
    /// The template name, unique within the object template.
    pub name: String,
    /// The interface signature.
    pub signature: InterfaceSignature,
    /// The role the owner plays at this interface.
    pub causality: Causality,
}

impl InterfaceTemplate {
    /// Creates a template, checking causality/signature consistency.
    ///
    /// # Errors
    ///
    /// Returns [`ObjectError::CausalityMismatch`] if the causality does not
    /// apply to the signature kind (e.g. `Producer` on an operational
    /// signature).
    pub fn new(
        name: impl Into<String>,
        signature: InterfaceSignature,
        causality: Causality,
    ) -> Result<Self, ObjectError> {
        if !causality.applies_to(&signature) {
            return Err(ObjectError::CausalityMismatch {
                interface: name.into(),
                causality,
                kind: signature.kind(),
            });
        }
        Ok(Self {
            name: name.into(),
            signature,
            causality,
        })
    }
}

/// An error in an object or interface template.
#[derive(Debug, Clone, PartialEq)]
pub enum ObjectError {
    /// The causality does not fit the signature kind.
    CausalityMismatch {
        interface: String,
        causality: Causality,
        kind: &'static str,
    },
    /// Two interface templates share a name.
    DuplicateInterface { interface: String },
    /// The named interface template does not exist.
    UnknownInterface { interface: String },
}

impl fmt::Display for ObjectError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ObjectError::CausalityMismatch {
                interface,
                causality,
                kind,
            } => write!(
                f,
                "interface {interface}: causality {causality} does not apply to {kind} signatures"
            ),
            ObjectError::DuplicateInterface { interface } => {
                write!(f, "duplicate interface template {interface}")
            }
            ObjectError::UnknownInterface { interface } => {
                write!(f, "unknown interface template {interface}")
            }
        }
    }
}

impl std::error::Error for ObjectError {}

/// A template from which computational objects are instantiated.
#[derive(Debug, Clone, PartialEq)]
pub struct ObjectTemplate {
    name: String,
    interfaces: Vec<InterfaceTemplate>,
    initial_state: Value,
}

impl ObjectTemplate {
    /// Creates a template with empty state and no interfaces.
    pub fn new(name: impl Into<String>) -> Self {
        Self {
            name: name.into(),
            interfaces: Vec::new(),
            initial_state: Value::record::<&str, _>([]),
        }
    }

    /// Builder: sets the initial state.
    pub fn with_state(mut self, state: Value) -> Self {
        self.initial_state = state;
        self
    }

    /// Builder: adds an interface template.
    ///
    /// # Errors
    ///
    /// Returns [`ObjectError::DuplicateInterface`] on a name collision.
    pub fn with_interface(mut self, template: InterfaceTemplate) -> Result<Self, ObjectError> {
        if self.interfaces.iter().any(|i| i.name == template.name) {
            return Err(ObjectError::DuplicateInterface {
                interface: template.name,
            });
        }
        self.interfaces.push(template);
        Ok(self)
    }

    /// Looks up an interface template by name.
    pub fn interface(&self, name: &str) -> Option<&InterfaceTemplate> {
        self.interfaces.iter().find(|i| i.name == name)
    }

    /// Instantiates the template (§5.2 "creating an object"), allocating
    /// an object identity and one interface instance per template.
    pub fn instantiate(
        &self,
        objects: &IdGen<ObjectId>,
        interfaces: &IdGen<InterfaceId>,
    ) -> ComputationalObject {
        let id = objects.fresh();
        let instances = self
            .interfaces
            .iter()
            .map(|t| InterfaceInstance {
                id: interfaces.fresh(),
                template: t.name.clone(),
            })
            .collect();
        ComputationalObject {
            id,
            template: self.clone(),
            state: self.initial_state.clone(),
            interfaces: instances,
        }
    }
}

/// One instantiated interface of an object.
#[derive(Debug, Clone, PartialEq)]
pub struct InterfaceInstance {
    /// The interface identity (what interface references point at).
    pub id: InterfaceId,
    /// The name of the [`InterfaceTemplate`] this instantiates.
    pub template: String,
}

/// A computational object instance: identity, state, interfaces.
#[derive(Debug, Clone, PartialEq)]
pub struct ComputationalObject {
    id: ObjectId,
    template: ObjectTemplate,
    state: Value,
    interfaces: Vec<InterfaceInstance>,
}

impl ComputationalObject {
    /// The object state (§5.2 "reading the state of the object").
    pub fn state(&self) -> &Value {
        &self.state
    }

    /// Mutable state access (§5.2 "writing the state of the object").
    pub fn state_mut(&mut self) -> &mut Value {
        &mut self.state
    }

    /// The interface instance for a template name.
    pub fn interface(&self, template: &str) -> Option<&InterfaceInstance> {
        self.interfaces.iter().find(|i| i.template == template)
    }

    /// Creates an additional interface from a template at run time
    /// (§5.2 "creating an interface").
    ///
    /// # Errors
    ///
    /// Returns [`ObjectError::UnknownInterface`] if the template name is
    /// not declared by the object template.
    pub fn create_interface(
        &mut self,
        template: &str,
        interfaces: &IdGen<InterfaceId>,
    ) -> Result<InterfaceId, ObjectError> {
        if self.template.interface(template).is_none() {
            return Err(ObjectError::UnknownInterface {
                interface: template.to_owned(),
            });
        }
        let id = interfaces.fresh();
        self.interfaces.push(InterfaceInstance {
            id,
            template: template.to_owned(),
        });
        Ok(id)
    }

    /// Destroys an interface instance (§5.2); returns whether it existed.
    pub fn destroy_interface(&mut self, id: InterfaceId) -> bool {
        let before = self.interfaces.len();
        self.interfaces.retain(|i| i.id != id);
        before != self.interfaces.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::signature::{bank_teller_signature, OperationalSignature};
    use rmodp_core::dtype::DataType;

    fn branch_template() -> ObjectTemplate {
        let teller = InterfaceTemplate::new(
            "teller",
            InterfaceSignature::Operational(bank_teller_signature()),
            Causality::Server,
        )
        .unwrap();
        let manager_sig = OperationalSignature::new("BankManager")
            .announcement("CreateAccount", [("c", DataType::Int)]);
        let manager = InterfaceTemplate::new(
            "manager",
            InterfaceSignature::Operational(manager_sig),
            Causality::Server,
        )
        .unwrap();
        ObjectTemplate::new("BankBranch")
            .with_state(Value::record([("accounts", Value::seq([]))]))
            .with_interface(teller)
            .unwrap()
            .with_interface(manager)
            .unwrap()
    }

    #[test]
    fn figure2_branch_offers_two_interfaces() {
        let objects = IdGen::new();
        let interfaces = IdGen::new();
        let branch = branch_template().instantiate(&objects, &interfaces);
        assert_eq!(branch.interfaces.len(), 2);
        let teller = branch.interface("teller").unwrap();
        let manager = branch.interface("manager").unwrap();
        assert_ne!(teller.id, manager.id);
        let signature =
            |i: &InterfaceInstance| &branch.template.interface(&i.template).unwrap().signature;
        assert_eq!(signature(teller).name(), "BankTeller");
        assert_eq!(signature(manager).name(), "BankManager");
    }

    #[test]
    fn instances_have_distinct_identities() {
        let objects = IdGen::new();
        let interfaces = IdGen::new();
        let a = branch_template().instantiate(&objects, &interfaces);
        let b = branch_template().instantiate(&objects, &interfaces);
        assert_ne!(a.id, b.id);
        assert_ne!(
            a.interface("teller").unwrap().id,
            b.interface("teller").unwrap().id
        );
    }

    #[test]
    fn duplicate_interface_names_rejected() {
        let t = InterfaceTemplate::new(
            "x",
            InterfaceSignature::Operational(bank_teller_signature()),
            Causality::Server,
        )
        .unwrap();
        let result = ObjectTemplate::new("O")
            .with_interface(t.clone())
            .unwrap()
            .with_interface(t);
        assert!(matches!(
            result,
            Err(ObjectError::DuplicateInterface { .. })
        ));
    }

    #[test]
    fn causality_must_fit_signature_kind() {
        let err = InterfaceTemplate::new(
            "x",
            InterfaceSignature::Operational(bank_teller_signature()),
            Causality::Producer,
        )
        .unwrap_err();
        assert!(matches!(err, ObjectError::CausalityMismatch { .. }));
    }

    #[test]
    fn create_and_destroy_interfaces_at_runtime() {
        let objects = IdGen::new();
        let interfaces = IdGen::new();
        let mut branch = branch_template().instantiate(&objects, &interfaces);
        let extra = branch.create_interface("teller", &interfaces).unwrap();
        assert_eq!(branch.interfaces.len(), 3);
        assert!(branch.destroy_interface(extra));
        assert!(!branch.destroy_interface(extra));
        assert_eq!(branch.interfaces.len(), 2);
        assert!(matches!(
            branch.create_interface("nope", &interfaces),
            Err(ObjectError::UnknownInterface { .. })
        ));
    }

    #[test]
    fn state_read_and_write() {
        let objects = IdGen::new();
        let interfaces = IdGen::new();
        let mut branch = branch_template().instantiate(&objects, &interfaces);
        assert_eq!(branch.state().field("accounts"), Some(&Value::seq([])));
        branch
            .state_mut()
            .set_field("accounts", Value::seq([Value::Int(1)]));
        assert_eq!(
            branch.state().field("accounts"),
            Some(&Value::seq([Value::Int(1)]))
        );
    }
}
