//! Information objects: schema-governed state with a transition log.

use rmodp_core::value::Value;

use crate::schema::{DynamicSchema, InvariantSchema, SchemaError, StaticSchema};

/// One applied state transition, for audit and replay.
#[derive(Debug, Clone, PartialEq)]
pub struct TransitionRecord {
    /// Monotone sequence number within the object (starting at 1).
    pub seq: u64,
    /// The dynamic schema that was applied.
    pub schema: String,
    /// The arguments it was applied with.
    pub args: Value,
    /// State before the transition.
    pub before: Value,
    /// State after the transition.
    pub after: Value,
}

/// An object in the information viewpoint: typed state, invariants that
/// always hold, and a log of the dynamic-schema applications that produced
/// the current state.
#[derive(Debug, Clone, PartialEq)]
pub struct InformationObject {
    id: u64,
    schema: StaticSchema,
    invariants: Vec<InvariantSchema>,
    state: Value,
    log: Vec<TransitionRecord>,
}

impl InformationObject {
    /// Creates an object in the static schema's initial state.
    ///
    /// # Panics
    ///
    /// Panics if the initial state violates an invariant — an inconsistent
    /// specification is a programming error, not a runtime condition.
    pub fn new(id: u64, schema: StaticSchema, invariants: Vec<InvariantSchema>) -> Self {
        let state = schema.initial().clone();
        for inv in &invariants {
            assert!(
                inv.holds(&state).unwrap_or(false),
                "initial state of {} violates invariant {}",
                schema.name(),
                inv.name()
            );
        }
        Self {
            id,
            schema,
            invariants,
            state,
            log: Vec::new(),
        }
    }

    /// The static schema.
    pub fn schema(&self) -> &StaticSchema {
        &self.schema
    }

    /// The invariants.
    pub fn invariants(&self) -> &[InvariantSchema] {
        &self.invariants
    }

    /// The current state.
    pub fn state(&self) -> &Value {
        &self.state
    }

    /// The transition log.
    pub fn log(&self) -> &[TransitionRecord] {
        &self.log
    }

    /// Applies a dynamic schema: computes the successor state, checks the
    /// static type and every invariant, then commits and records the
    /// transition. On error the state is unchanged.
    ///
    /// # Errors
    ///
    /// Any [`SchemaError`] from guard, arguments, typing or invariants.
    pub fn apply(
        &mut self,
        schema: &DynamicSchema,
        args: Value,
    ) -> Result<&TransitionRecord, SchemaError> {
        let new_state = schema.apply_checked(&self.state, &args, &self.invariants)?;
        self.schema.check(&new_state)?;
        let record = TransitionRecord {
            seq: self.log.len() as u64 + 1,
            schema: schema.name().to_owned(),
            args,
            before: self.state.clone(),
            after: new_state.clone(),
        };
        self.state = new_state;
        self.log.push(record);
        Ok(self.log.last().expect("just pushed"))
    }

    /// Replays the transition log from the initial state and checks it
    /// reproduces the current state — the consistency check used by the
    /// recovery function's tests.
    pub fn replay_consistent(&self) -> bool {
        let mut state = self.schema.initial().clone();
        for rec in &self.log {
            if rec.before != state {
                return false;
            }
            state = rec.after.clone();
        }
        state == self.state
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rmodp_core::dtype::DataType;

    fn counter() -> InformationObject {
        let schema = StaticSchema::new(
            "Counter",
            DataType::record([("n", DataType::Int)]),
            Value::record([("n", Value::Int(0))]),
        )
        .unwrap();
        let invariants = vec![InvariantSchema::parse("NonNegative", "n >= 0").unwrap()];
        InformationObject::new(7, schema, invariants)
    }

    fn add() -> DynamicSchema {
        DynamicSchema::builder("Add")
            .param("k", DataType::Int)
            .effect("n", "n + k")
            .build()
            .unwrap()
    }

    #[test]
    fn apply_commits_and_logs() {
        let mut obj = counter();
        let rec = obj
            .apply(&add(), Value::record([("k", Value::Int(5))]))
            .unwrap()
            .clone();
        assert_eq!(rec.seq, 1);
        assert_eq!(rec.schema, "Add");
        assert_eq!(rec.before.field("n"), Some(&Value::Int(0)));
        assert_eq!(rec.after.field("n"), Some(&Value::Int(5)));
        assert_eq!(obj.state().field("n"), Some(&Value::Int(5)));
        assert_eq!(obj.log().len(), 1);
    }

    #[test]
    fn failed_apply_leaves_state_and_log_untouched() {
        let mut obj = counter();
        obj.apply(&add(), Value::record([("k", Value::Int(3))]))
            .unwrap();
        let err = obj
            .apply(&add(), Value::record([("k", Value::Int(-10))]))
            .unwrap_err();
        assert!(matches!(err, SchemaError::InvariantViolated { .. }));
        assert_eq!(obj.state().field("n"), Some(&Value::Int(3)));
        assert_eq!(obj.log().len(), 1);
    }

    #[test]
    fn replay_reproduces_state() {
        let mut obj = counter();
        for k in [1, 2, 3] {
            obj.apply(&add(), Value::record([("k", Value::Int(k))]))
                .unwrap();
        }
        assert!(obj.replay_consistent());
        assert_eq!(obj.state().field("n"), Some(&Value::Int(6)));
        // A state written around the log breaks replay consistency.
        obj.state = Value::record([("n", Value::Int(100))]);
        assert!(!obj.replay_consistent());
    }

    #[test]
    #[should_panic(expected = "violates invariant")]
    fn inconsistent_initial_state_panics() {
        let schema = StaticSchema::new(
            "Bad",
            DataType::record([("n", DataType::Int)]),
            Value::record([("n", Value::Int(-5))]),
        )
        .unwrap();
        let invariants = vec![InvariantSchema::parse("NonNegative", "n >= 0").unwrap()];
        let _ = InformationObject::new(1, schema, invariants);
    }
}
