//! Tests for declared (typed) service properties: exports and
//! modifications validated against the declaration, constraints
//! statically type-checked.

use rmodp_core::dtype::DataType;
use rmodp_core::id::InterfaceId;
use rmodp_core::value::Value;
use rmodp_trader::{ImportRequest, Trader, TraderError};

fn printer_type() -> DataType {
    DataType::record([
        ("ppm", DataType::Int),
        ("colour", DataType::Bool),
        ("location", DataType::Optional(Box::new(DataType::Text))),
    ])
}

fn declared_trader() -> Trader {
    let mut t = Trader::new("typed");
    t.declare_property_type("Printer", printer_type()).unwrap();
    t
}

#[test]
fn conforming_exports_pass() {
    let mut t = declared_trader();
    t.export(
        "Printer",
        InterfaceId::new(1),
        Value::record([("ppm", Value::Int(30)), ("colour", Value::Bool(true))]),
    )
    .unwrap();
    // Optional property may be present…
    t.export(
        "Printer",
        InterfaceId::new(2),
        Value::record([
            ("ppm", Value::Int(40)),
            ("colour", Value::Bool(false)),
            ("location", Value::text("level 2")),
        ]),
    )
    .unwrap();
    assert_eq!(t.len(), 2);
}

#[test]
fn nonconforming_exports_fail() {
    let mut t = declared_trader();
    // Missing required property.
    let err = t
        .export(
            "Printer",
            InterfaceId::new(1),
            Value::record([("ppm", Value::Int(30))]),
        )
        .unwrap_err();
    assert!(matches!(err, TraderError::PropertyType { .. }), "{err}");
    // Wrong property type.
    let err = t
        .export(
            "Printer",
            InterfaceId::new(1),
            Value::record([("ppm", Value::text("fast")), ("colour", Value::Bool(true))]),
        )
        .unwrap_err();
    assert!(matches!(err, TraderError::PropertyType { .. }), "{err}");
    assert!(t.is_empty());
}

#[test]
fn modify_is_held_to_the_declaration_too() {
    let mut t = declared_trader();
    let good = Value::record([("ppm", Value::Int(30)), ("colour", Value::Bool(true))]);
    let id = t
        .export("Printer", InterfaceId::new(1), good.clone())
        .unwrap();
    // What `export` would refuse, `modify` refuses: wrong type, missing
    // property. The offer stays as it was.
    for bad in [
        Value::record([("ppm", Value::text("fast")), ("colour", Value::Bool(true))]),
        Value::record([("ppm", Value::Int(30))]),
    ] {
        let err = t.modify(id, bad).unwrap_err();
        assert!(matches!(err, TraderError::PropertyType { .. }), "{err}");
        assert_eq!(t.offer(id).unwrap().properties, good);
    }
    // A conforming change goes through; an undeclared type stays free.
    let faster = Value::record([("ppm", Value::Int(60)), ("colour", Value::Bool(true))]);
    t.modify(id, faster.clone()).unwrap();
    assert_eq!(t.offer(id).unwrap().properties, faster);
    let scanner = t
        .export(
            "Scanner",
            InterfaceId::new(2),
            Value::record([("dpi", Value::Int(600))]),
        )
        .unwrap();
    t.modify(scanner, Value::record([("anything", Value::Null)]))
        .unwrap();
}

#[test]
fn undeclared_service_types_stay_permissive() {
    let mut t = declared_trader();
    t.export(
        "Scanner",
        InterfaceId::new(9),
        Value::record([("whatever", Value::Null)]),
    )
    .unwrap();
}

#[test]
fn constraints_are_statically_checked() {
    let t = declared_trader();
    // Well-typed boolean constraint: fine.
    let ok = ImportRequest::new("Printer")
        .constraint("ppm >= 30 and colour")
        .unwrap();
    t.check_request(&ok).unwrap();
    // Unknown property: rejected before any offer is touched.
    let bad = ImportRequest::new("Printer")
        .constraint("dpi > 300")
        .unwrap();
    let err = t.check_request(&bad).unwrap_err();
    assert!(matches!(err, TraderError::ConstraintType { .. }), "{err}");
    // Type mismatch inside the constraint.
    let bad = ImportRequest::new("Printer")
        .constraint("ppm and colour")
        .unwrap();
    assert!(t.check_request(&bad).is_err());
    // Non-boolean result.
    let bad = ImportRequest::new("Printer").constraint("ppm + 1").unwrap();
    let err = t.check_request(&bad).unwrap_err();
    assert!(err.to_string().contains("expected bool"), "{err}");
    // Undeclared types are unchecked.
    let any = ImportRequest::new("Scanner")
        .constraint("dpi > 300")
        .unwrap();
    t.check_request(&any).unwrap();
}

#[test]
fn declaration_must_be_a_record() {
    let mut t = Trader::new("x");
    assert!(matches!(
        t.declare_property_type("T", DataType::Int),
        Err(TraderError::BadProperties { .. })
    ));
    assert!(t.property_type("T").is_none());
    t.declare_property_type("T", DataType::record([("a", DataType::Int)]))
        .unwrap();
    assert!(t.property_type("T").is_some());
}

#[test]
fn checked_pipeline_end_to_end() {
    let mut t = declared_trader();
    t.export(
        "Printer",
        InterfaceId::new(1),
        Value::record([("ppm", Value::Int(55)), ("colour", Value::Bool(true))]),
    )
    .unwrap();
    let request = ImportRequest::new("Printer")
        .constraint("ppm >= 50 and colour")
        .unwrap();
    t.check_request(&request).unwrap();
    let matches = t.import(&request, None);
    assert_eq!(matches.len(), 1);
}
