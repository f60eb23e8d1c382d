//! Benchmarks for the transparency layer (EXPERIMENTS.md rows E5–E6):
//! per-transparency invocation overhead, relocation recovery cost,
//! replication fan-out, and stream throughput.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use std::time::Duration;

use rmodp_bench::capture::{capture_metrics, mechanism_report};
use rmodp_bench::{add_one, counter_rig, open};
use rmodp_core::codec::SyntaxId;
use rmodp_core::value::Value;
use rmodp_engineering::channel::ChannelConfig;
use rmodp_engineering::engine::Engine;
use rmodp_transparency::proxy::{migrate_transparently, OdpInfra};
use rmodp_transparency::replication::quorum_counters;
use rmodp_transparency::{Transparency, TransparencySet, TransparentProxy};

/// E5a — invocation cost through the proxy as transparencies accrue, vs
/// the bare channel baseline.
fn e5_transparency_ablation(c: &mut Criterion) {
    // Timed loops run with the observability bus off; the E5d pass below
    // re-enables it for the per-mechanism metric capture.
    rmodp_observe::bus::set_enabled(false);
    let mut group = c.benchmark_group("e5_transparency_ablation");
    group
        .measurement_time(Duration::from_secs(3))
        .sample_size(30);

    // Baseline: a raw channel, no proxy.
    let mut rig = counter_rig(10, SyntaxId::Binary);
    let ch = open(&mut rig, ChannelConfig::default());
    group.bench_function("bare_channel", |b| {
        b.iter(|| rig.engine.call(ch, "Add", &add_one()).unwrap());
    });

    let selections: [(&str, TransparencySet); 3] = [
        (
            "access_only",
            TransparencySet::none().with(Transparency::Access),
        ),
        (
            "plus_relocation",
            TransparencySet::none().with(Transparency::Relocation),
        ),
        ("all_eight", TransparencySet::all()),
    ];
    for (name, selection) in selections {
        let mut rig = counter_rig(11, SyntaxId::Binary);
        let mut infra = OdpInfra::new();
        infra.publish(&rig.engine, rig.interface).unwrap();
        let mut proxy = TransparentProxy::new(rig.client, rig.interface, selection);
        group.bench_function(BenchmarkId::new("proxy", name), |b| {
            b.iter(|| {
                proxy
                    .call(&mut rig.engine, &mut infra, "Add", &add_one())
                    .unwrap()
            });
        });
    }
    group.finish();
}

/// E5b — the §9.2 relocation recovery path: a migration followed by one
/// masked call (stale detection + relocator requery + reconnect +
/// replay), vs a steady-state call.
fn e5_relocation_recovery(c: &mut Criterion) {
    let mut group = c.benchmark_group("e5_relocation_recovery");
    group
        .measurement_time(Duration::from_secs(4))
        .sample_size(20);
    group.bench_function("migrate_then_masked_call", |b| {
        b.iter(|| {
            let mut rig = counter_rig(12, SyntaxId::Binary);
            let mut infra = OdpInfra::new();
            infra.publish(&rig.engine, rig.interface).unwrap();
            let mut proxy = TransparentProxy::new(
                rig.client,
                rig.interface,
                TransparencySet::none().with(Transparency::Relocation),
            );
            proxy
                .call(&mut rig.engine, &mut infra, "Add", &add_one())
                .unwrap();
            let new_node = rig.engine.add_node(SyntaxId::Binary);
            let new_capsule = rig.engine.add_capsule(new_node).unwrap();
            migrate_transparently(
                &mut rig.engine,
                &mut infra,
                rig.home,
                (new_node, new_capsule),
                &[rig.interface],
            )
            .unwrap();
            proxy
                .call(&mut rig.engine, &mut infra, "Add", &add_one())
                .unwrap()
        });
    });
    group.bench_function("steady_state_call", |b| {
        let mut rig = counter_rig(13, SyntaxId::Binary);
        let mut infra = OdpInfra::new();
        infra.publish(&rig.engine, rig.interface).unwrap();
        let mut proxy = TransparentProxy::new(
            rig.client,
            rig.interface,
            TransparencySet::none().with(Transparency::Relocation),
        );
        b.iter(|| {
            proxy
                .call(&mut rig.engine, &mut infra, "Add", &add_one())
                .unwrap()
        });
    });
    group.finish();
}

/// E5c — replication fan-out: quorum update cost vs replica count.
fn e5_replication_fanout(c: &mut Criterion) {
    let mut group = c.benchmark_group("e5_replication_fanout");
    group
        .measurement_time(Duration::from_secs(3))
        .sample_size(20);
    for replicas in [1usize, 3, 5] {
        let mut engine = Engine::new(14);
        let client = engine.add_node(SyntaxId::Binary);
        let mut infra = OdpInfra::new();
        let (mut svc, _) = quorum_counters(&mut engine, &mut infra, client, replicas).unwrap();
        group.bench_function(BenchmarkId::new("quorum_update", replicas), |b| {
            b.iter(|| svc.quorum_update(&mut engine, &mut infra, 1).unwrap());
        });
    }
    group.finish();
}

/// E6 — stream throughput: flow items delivered per unit of virtual time
/// vs payload size (§5.1's multimedia motivation).
fn e6_stream_throughput(c: &mut Criterion) {
    let mut group = c.benchmark_group("e6_stream_throughput");
    group
        .measurement_time(Duration::from_secs(3))
        .sample_size(20);
    for payload in [16usize, 160, 1_600] {
        group.bench_with_input(
            BenchmarkId::new("frames_1000", payload),
            &payload,
            |b, &payload| {
                b.iter(|| {
                    let mut rig = counter_rig(15, SyntaxId::Binary);
                    let ch = open(&mut rig, ChannelConfig::default());
                    let item = Value::Blob(vec![0u8; payload]);
                    for _ in 0..1_000 {
                        rig.engine.send_flow(ch, "increments", &item).unwrap();
                    }
                    rig.engine.run_until_idle();
                    rig.engine.sim().metrics().bytes_delivered
                });
            },
        );
    }
    group.finish();
}

/// E5d — per-mechanism metric capture: one instrumented pass of each E5
/// workload with the observability bus on, reporting which mechanisms
/// fired (calls, marshals, channel hops, retries, migrations, replica
/// fan-out) and their sim-time latency quantiles, next to the wall-clock
/// numbers the timed groups produce.
fn e5_mechanism_metrics(_c: &mut Criterion) {
    let (_, registry) = capture_metrics(|| {
        let mut rig = counter_rig(11, SyntaxId::Binary);
        let mut infra = OdpInfra::new();
        infra.publish(&rig.engine, rig.interface).unwrap();
        let mut proxy = TransparentProxy::new(rig.client, rig.interface, TransparencySet::all());
        for _ in 0..100 {
            proxy
                .call(&mut rig.engine, &mut infra, "Add", &add_one())
                .unwrap();
        }
    });
    println!(
        "{}",
        mechanism_report("proxy_all_eight_100_calls", &registry)
    );

    let (_, registry) = capture_metrics(|| {
        let mut rig = counter_rig(12, SyntaxId::Binary);
        let mut infra = OdpInfra::new();
        infra.publish(&rig.engine, rig.interface).unwrap();
        let mut proxy = TransparentProxy::new(
            rig.client,
            rig.interface,
            TransparencySet::none().with(Transparency::Relocation),
        );
        proxy
            .call(&mut rig.engine, &mut infra, "Add", &add_one())
            .unwrap();
        let new_node = rig.engine.add_node(SyntaxId::Binary);
        let new_capsule = rig.engine.add_capsule(new_node).unwrap();
        migrate_transparently(
            &mut rig.engine,
            &mut infra,
            rig.home,
            (new_node, new_capsule),
            &[rig.interface],
        )
        .unwrap();
        proxy
            .call(&mut rig.engine, &mut infra, "Add", &add_one())
            .unwrap();
    });
    println!(
        "{}",
        mechanism_report("migrate_then_masked_call", &registry)
    );

    let (_, registry) = capture_metrics(|| {
        let mut engine = Engine::new(14);
        let client = engine.add_node(SyntaxId::Binary);
        let mut infra = OdpInfra::new();
        let (mut svc, _) = quorum_counters(&mut engine, &mut infra, client, 5).unwrap();
        for _ in 0..20 {
            svc.quorum_update(&mut engine, &mut infra, 1).unwrap();
        }
    });
    println!(
        "{}",
        mechanism_report("quorum_replication_5x20_updates", &registry)
    );
}

criterion_group!(
    transparencies,
    e5_transparency_ablation,
    e5_relocation_recovery,
    e5_replication_fanout,
    e6_stream_throughput,
    e5_mechanism_metrics
);
criterion_main!(transparencies);
