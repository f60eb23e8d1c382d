//! Property tests for the workload subsystem: arrival streams are
//! deterministic, monotone, and respect their configured mean rate; a
//! whole scenario replays to a byte-identical SLO report.

use proptest::prelude::*;

use rmodp_core::codec::SyntaxId;
use rmodp_core::value::Value;
use rmodp_engineering::behaviour::CounterBehaviour;
use rmodp_engineering::channel::ChannelConfig;
use rmodp_engineering::engine::Engine;
use rmodp_netsim::time::SimDuration;
use rmodp_workload::prelude::*;

fn offsets(p: ArrivalProcess, seed: u64, horizon: SimDuration) -> Vec<SimDuration> {
    p.stream(seed).take_while(|&t| t < horizon).collect()
}

fn arb_process() -> impl Strategy<Value = ArrivalProcess> {
    prop_oneof![
        (50.0f64..4_000.0).prop_map(|rate_per_sec| ArrivalProcess::Constant { rate_per_sec }),
        (50.0f64..4_000.0).prop_map(|rate_per_sec| ArrivalProcess::Poisson { rate_per_sec }),
        (200.0f64..4_000.0, 0.0f64..100.0, 5u64..80, 5u64..80).prop_map(
            |(on_rate_per_sec, off_rate_per_sec, on_ms, off_ms)| ArrivalProcess::BurstyOnOff {
                on_rate_per_sec,
                off_rate_per_sec,
                mean_on: SimDuration::from_millis(on_ms),
                mean_off: SimDuration::from_millis(off_ms),
            }
        ),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn same_seed_same_stream(p in arb_process(), seed in 0u64..10_000) {
        let horizon = SimDuration::from_secs(2);
        let a = offsets(p, seed, horizon);
        let b = offsets(p, seed, horizon);
        prop_assert_eq!(a, b);
    }

    #[test]
    fn streams_are_monotone(p in arb_process(), seed in 0u64..10_000) {
        let arr = offsets(p, seed, SimDuration::from_secs(2));
        prop_assert!(arr.windows(2).all(|w| w[0] <= w[1]));
    }

    #[test]
    fn poisson_mean_rate_holds(rate in 100.0f64..2_000.0, seed in 0u64..1_000) {
        // Long horizon so the relative error bound is statistical, not
        // luck: ~sqrt(n)/n at n >= 2000 is under 2.3%, asserted at 10%.
        let secs = 20u64;
        let arr = offsets(
            ArrivalProcess::Poisson { rate_per_sec: rate },
            seed,
            SimDuration::from_secs(secs),
        );
        let expected = rate * secs as f64;
        let got = arr.len() as f64;
        prop_assert!(
            (got - expected).abs() / expected < 0.10,
            "rate {} seed {}: got {}, expected ~{}",
            rate, seed, got, expected
        );
    }

    #[test]
    fn bursty_mean_rate_holds(
        on_rate in 500.0f64..3_000.0,
        on_ms in 10u64..60,
        off_ms in 10u64..60,
        seed in 0u64..1_000,
    ) {
        let p = ArrivalProcess::BurstyOnOff {
            on_rate_per_sec: on_rate,
            off_rate_per_sec: 0.0,
            mean_on: SimDuration::from_millis(on_ms),
            mean_off: SimDuration::from_millis(off_ms),
        };
        // Long horizon: many phase alternations average out the phase
        // length variance (looser bound than Poisson for that reason).
        let secs = 60u64;
        let arr = offsets(p, seed, SimDuration::from_secs(secs));
        // The long-run rate: on_rate for the on share of the time.
        let on_share = on_ms as f64 / (on_ms + off_ms) as f64;
        let expected = on_rate * on_share * secs as f64;
        let got = arr.len() as f64;
        prop_assert!(
            (got - expected).abs() / expected < 0.25,
            "got {}, expected ~{}",
            got, expected
        );
    }
}

fn counter_channel(seed: u64) -> (Engine, rmodp_core::id::ChannelId) {
    let mut engine = Engine::new(seed);
    engine
        .behaviours_mut()
        .register("counter", CounterBehaviour::default);
    let server = engine.add_node(SyntaxId::Binary);
    let client = engine.add_node(SyntaxId::Text);
    let capsule = engine.add_capsule(server).unwrap();
    let cluster = engine.add_cluster(server, capsule).unwrap();
    let (_, refs) = engine
        .create_object(
            server,
            capsule,
            cluster,
            "counter",
            "counter",
            CounterBehaviour::initial_state(),
            1,
        )
        .unwrap();
    let channel = engine
        .open_channel(client, refs[0].interface, ChannelConfig::default())
        .unwrap();
    (engine, channel)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    #[test]
    fn scenario_replays_byte_identically(seed in 0u64..500, rate in 100.0f64..800.0) {
        let scenario = Scenario::new(
            "prop-replay",
            seed,
            LoadModel::Open {
                arrivals: ArrivalProcess::Poisson { rate_per_sec: rate },
            },
        )
        .lasting(SimDuration::from_millis(300))
        .with_mix(
            OperationMix::new()
                .with("Add", Value::record([("k", Value::Int(2))]), 3)
                .with("Get", Value::record::<&str, _>([]), 1),
        );

        let (mut e1, ch1) = counter_channel(seed);
        let (_, r1) = run_scenario(&mut e1, ch1, &scenario);
        let (mut e2, ch2) = counter_channel(seed);
        let (_, r2) = run_scenario(&mut e2, ch2, &scenario);
        prop_assert_eq!(r1.to_json(), r2.to_json());
    }
}
