//! Property tests for the engineering layer: envelope codec totality,
//! channel-stack inverses, and checkpoint/migration state preservation.

use proptest::prelude::*;

use rmodp_core::codec::{syntax_for, SyntaxId};
use rmodp_core::id::{ChannelId, InterfaceId};
use rmodp_core::value::Value;
use rmodp_engineering::behaviour::CounterBehaviour;
use rmodp_engineering::channel::{ChannelConfig, Stack};
use rmodp_engineering::engine::Engine;
use rmodp_engineering::envelope::Envelope;

fn arb_payload_value() -> impl Strategy<Value = Value> {
    let leaf = prop_oneof![
        any::<i64>().prop_map(Value::Int),
        "[a-z]{0,8}".prop_map(Value::text),
        any::<bool>().prop_map(Value::Bool),
    ];
    leaf.prop_recursive(2, 12, 3, |inner| {
        proptest::collection::btree_map("[a-z]{1,5}", inner, 0..3)
            .prop_map(|m| Value::Record(m.into()))
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn envelope_codec_round_trips(
        channel in any::<u64>(),
        request in any::<u64>(),
        seq in any::<u64>(),
        target in any::<u64>(),
        payload in proptest::collection::vec(any::<u8>(), 0..64),
        text_syntax in any::<bool>(),
    ) {
        let syntax = if text_syntax { SyntaxId::Text } else { SyntaxId::Binary };
        let mut env = Envelope::request(
            ChannelId::new(channel),
            request,
            InterfaceId::new(target),
            syntax,
            payload,
        );
        env.seq = seq;
        let back = Envelope::from_payload(&env.to_bytes().into()).unwrap();
        prop_assert_eq!(back, env);
    }

    #[test]
    fn envelope_decode_never_panics(bytes in proptest::collection::vec(any::<u8>(), 0..128)) {
        let _ = Envelope::from_payload(&bytes.into());
    }

    /// A marshalling round trip through any wire syntax preserves the
    /// payload value exactly (access transparency's core guarantee).
    #[test]
    fn stack_marshalling_is_lossless(
        v in arb_payload_value(),
        wire_text in any::<bool>(),
        native_text in any::<bool>(),
        sequence in any::<bool>(),
    ) {
        let wire = if wire_text { SyntaxId::Text } else { SyntaxId::Binary };
        let native = if native_text { SyntaxId::Text } else { SyntaxId::Binary };
        let config = ChannelConfig {
            wire_syntax: wire,
            sequence,
            audit: false,
            retry: None,
            breaker: None,
        };
        let mut out_stack: Stack = config.build_stack(native);
        let mut in_stack: Stack = config.build_stack(native);

        let payload = syntax_for(native).encode(&v);
        let mut env = Envelope::request(
            ChannelId::new(1),
            1,
            InterfaceId::new(1),
            native,
            payload,
        );
        out_stack.outgoing(&mut env).unwrap();
        prop_assert_eq!(env.syntax, wire);
        in_stack.incoming(&mut env).unwrap();
        prop_assert_eq!(env.syntax, native);
        let decoded = syntax_for(env.syntax).decode(&env.payload).unwrap();
        prop_assert_eq!(decoded, v);
    }

    /// Checkpoint → deactivate → reactivate preserves arbitrary object
    /// state exactly, across any pair of node syntaxes.
    #[test]
    fn reactivation_preserves_state(
        adds in proptest::collection::vec(1i64..100, 0..8),
        target_text in any::<bool>(),
    ) {
        let mut engine = Engine::new(9);
        engine.behaviours_mut().register("counter", CounterBehaviour::default);
        let node = engine.add_node(SyntaxId::Binary);
        let capsule = engine.add_capsule(node).unwrap();
        let cluster = engine.add_cluster(node, capsule).unwrap();
        let (_, refs) = engine
            .create_object(node, capsule, cluster, "c", "counter", CounterBehaviour::initial_state(), 1)
            .unwrap();
        let expected: i64 = adds.iter().sum();
        for k in &adds {
            engine
                .invoke_local(node, refs[0].interface, "Add", &Value::record([("k", Value::Int(*k))]))
                .unwrap();
        }
        let target = engine.add_node(if target_text { SyntaxId::Text } else { SyntaxId::Binary });
        let target_capsule = engine.add_capsule(target).unwrap();
        let checkpoint = engine.deactivate_cluster(node, capsule, cluster).unwrap();
        engine.reactivate_cluster(target, target_capsule, &checkpoint).unwrap();
        let t = engine
            .invoke_local(target, refs[0].interface, "Get", &Value::record::<&str, _>([]))
            .unwrap();
        prop_assert_eq!(t.results.field("n"), Some(&Value::Int(expected)));
    }

    /// Remote calls agree with local ground truth for arbitrary add
    /// sequences, whatever the wire syntax.
    #[test]
    fn remote_equals_local_semantics(
        adds in proptest::collection::vec(-50i64..50, 1..10),
        wire_text in any::<bool>(),
    ) {
        let mut engine = Engine::new(10);
        engine.behaviours_mut().register("counter", CounterBehaviour::default);
        let server = engine.add_node(SyntaxId::Binary);
        let client = engine.add_node(SyntaxId::Text);
        let capsule = engine.add_capsule(server).unwrap();
        let cluster = engine.add_cluster(server, capsule).unwrap();
        let (_, refs) = engine
            .create_object(server, capsule, cluster, "c", "counter", CounterBehaviour::initial_state(), 1)
            .unwrap();
        let config = ChannelConfig {
            wire_syntax: if wire_text { SyntaxId::Text } else { SyntaxId::Binary },
            ..ChannelConfig::default()
        };
        let ch = engine.open_channel(client, refs[0].interface, config).unwrap();
        let mut expected = 0i64;
        for k in &adds {
            expected += k;
            let t = engine
                .call(ch, "Add", &Value::record([("k", Value::Int(*k))]))
                .unwrap();
            prop_assert_eq!(t.results.field("n"), Some(&Value::Int(expected)));
        }
    }
}
