//! Micro-probes: one layer's public functions, alone, on fixed inputs.
//!
//! A probe does not depend on the workload or the seed, so it reads the
//! same (up to noise) in every traced run. Each repetition is timed
//! between calibration loops and recorded as a span; where a probe covers
//! one of `rmodp-profile`'s segments the span carries that segment name,
//! so the virtual-time attribution table and these numbers line up.

use std::hint::black_box;

use rmodp::bank::deployment::BranchBehaviour;
use rmodp::computational::signature::Invocation;
use rmodp::core::codec::{syntax_for, SyntaxId};
use rmodp::core::id::{CapsuleId, ChannelId, ClusterId, InterfaceId, NodeId, ObjectId, TxId};
use rmodp::core::value::Value;
use rmodp::engineering::envelope::{Envelope, ReplyStatus};
use rmodp::engineering::nucleus::NucleusProcess;
use rmodp::engineering::structure::BeoRecord;
use rmodp::netsim::{Addr, Ctx, Message, Payload, Process, Sim};
use rmodp::observe::bus::{self, CollectConfig};
use rmodp::observe::{event, EventKind, Layer};
use rmodp::store::wal::{decode_frames, encode_frame};
use rmodp::transactions::log::LogRecord;
use rmodp_kernel::rng::mix;
use rmodp_kernel::{CrossShardEvent, EventQueue, ShardWorld, ShardedKernel, SimDuration, SimTime};

use crate::clock::Clock;
use crate::spans::segment_span;
use crate::stats;
use crate::workloads::engine::{channel_config, rig, ACCOUNTS, RING_CAPACITY};
use crate::workloads::{set_bus, Size};

/// How many repetitions a probe takes the median of.
fn reps(size: Size) -> usize {
    match size {
        Size::Full => 5,
        Size::Quick => 2,
    }
}

/// Iterations per repetition, scaled down for the unit tests.
fn scaled(size: Size, full: u64) -> u64 {
    match size {
        Size::Full => full,
        Size::Quick => (full / 50).max(20),
    }
}

struct Probes<'a> {
    clock: &'a mut Clock,
    size: Size,
    out: Vec<(&'static str, f64)>,
}

impl Probes<'_> {
    /// Times `body(setup(iterations))` `reps` times, the set-up outside
    /// the timed part; publishes the median reference-host nanoseconds
    /// per iteration under `name`.
    fn timed<S>(
        &mut self,
        name: &'static str,
        segment: Option<&'static str>,
        iterations: u64,
        mut setup: impl FnMut(u64) -> S,
        mut body: impl FnMut(S),
    ) -> f64 {
        let samples: Vec<f64> = (0..reps(self.size))
            .map(|_| {
                let state = setup(iterations);
                let ((), timed) = self.clock.measure(|| {
                    let _probe = segment_span(name, segment);
                    body(state);
                });
                timed.norm_s() * 1e9 / iterations as f64
            })
            .collect();
        let ns = stats::median(&samples);
        self.out.push((name, ns));
        ns
    }

    /// [`Self::timed`] for a probe whose inputs outlive the repetitions.
    fn per_iteration(
        &mut self,
        name: &'static str,
        segment: Option<&'static str>,
        iterations: u64,
        body: impl FnMut(u64),
    ) -> f64 {
        self.timed(name, segment, iterations, |n| n, body)
    }
}

/// Runs every probe; returns `(per-layer metric name, value)`.
pub fn run_all(clock: &mut Clock, size: Size) -> Vec<(&'static str, f64)> {
    let mut p = Probes {
        clock,
        size,
        out: Vec::new(),
    };
    kernel_queue(&mut p);
    shards(&mut p);
    netsim(&mut p);
    codecs(&mut p);
    envelope_and_stack(&mut p);
    invoke_local(&mut p);
    observe(&mut p);
    wal(&mut p);
    set_bus(false, None);
    p.out
}

// --- kernel ---------------------------------------------------------------

/// Hold model on a queue with 100k resident events: pop the earliest,
/// schedule a successor. One iteration is one pop and one schedule.
fn kernel_queue(p: &mut Probes<'_>) {
    let resident = scaled(p.size, 100_000);
    let mut queue: EventQueue<u64> = EventQueue::new();
    for i in 0..resident {
        queue.schedule(SimTime::from_micros(mix(1, i) % 1_000_000), i);
    }
    p.per_iteration(
        "kernel.queue.schedule_pop_ns",
        None,
        scaled(p.size, 100_000),
        |n| {
            for _ in 0..n {
                let (at, item) = queue.pop().expect("resident events");
                let delay = SimDuration::from_micros(1 + mix(2, item) % 2_000);
                queue.schedule(at + delay, item);
            }
            black_box(queue.len());
        },
    );
}

const LOOKAHEAD: SimDuration = SimDuration::from_micros(200);
const LOCAL_HOP: SimDuration = SimDuration::from_micros(50);

/// A near-empty shard: an event does nothing but schedule its successor,
/// every fourth one on the next shard. What is left to time is the epoch
/// machinery itself: planning, outboxes, the canonical merge, deposits.
struct TickShard {
    id: usize,
    shards: usize,
    queue: EventQueue<u32>,
    outbox: Vec<CrossShardEvent<u32>>,
    sent: u64,
}

impl ShardWorld for TickShard {
    type Msg = u32;
    type Action = ();

    fn shard_id(&self) -> usize {
        self.id
    }

    fn now(&self) -> SimTime {
        self.queue.now()
    }

    fn next_event_time(&self) -> Option<SimTime> {
        self.queue.peek_time()
    }

    fn run_before(&mut self, horizon: SimTime) -> u64 {
        let mut processed = 0;
        while self.queue.peek_time().is_some_and(|t| t < horizon) {
            let (at, ttl) = self.queue.pop().expect("peeked");
            processed += 1;
            if ttl == 0 {
                continue;
            }
            if ttl.is_multiple_of(4) {
                self.outbox.push(CrossShardEvent {
                    at: at + LOOKAHEAD,
                    src_shard: self.id,
                    src_seq: self.sent,
                    dst_shard: (self.id + 1) % self.shards,
                    msg: ttl - 1,
                });
                self.sent += 1;
            } else {
                self.queue.schedule(at + LOCAL_HOP, ttl - 1);
            }
        }
        processed
    }

    fn take_outbox(&mut self) -> Vec<CrossShardEvent<u32>> {
        std::mem::take(&mut self.outbox)
    }

    fn deposit(&mut self, event: CrossShardEvent<u32>) {
        self.queue.schedule(event.at, event.msg);
    }

    fn apply_action(&mut self, (): &()) {}
}

fn tick_kernel(shards: usize, ttl: u32, threaded: bool) -> ShardedKernel<TickShard> {
    let worlds = (0..shards)
        .map(|id| {
            let mut queue = EventQueue::new();
            for chain in 0..4u64 {
                queue.schedule(SimTime::from_micros(10 * chain + id as u64), ttl);
            }
            TickShard {
                id,
                shards,
                queue,
                outbox: Vec::new(),
                sent: 0,
            }
        })
        .collect();
    let mut kernel = ShardedKernel::new(worlds, LOOKAHEAD);
    kernel.set_threaded(threaded);
    kernel
}

/// Serial epochs over four shards, then the threaded epoch loop against
/// the serial one on two shards (this host has two hardware threads).
/// The threaded numbers come with their minimum and maximum over the
/// repetitions: they are not steady enough to stand as one figure.
fn shards(p: &mut Probes<'_>) {
    let ttl = scaled(p.size, 4_000) as u32;
    let epoch_ns = |p: &mut Probes<'_>, shards: usize, threaded: bool, span: &'static str| {
        let mut kernel = tick_kernel(shards, ttl, threaded);
        let (sync, timed) = p.clock.measure(|| {
            let _probe = segment_span(span, None);
            kernel.run()
        });
        timed.norm_s() * 1e9 / sync.epochs as f64
    };

    let serial4: Vec<f64> = (0..reps(p.size))
        .map(|_| epoch_ns(p, 4, false, "kernel.shard.epoch_serial_ns"))
        .collect();
    p.out
        .push(("kernel.shard.epoch_serial_ns", stats::median(&serial4)));

    let mut threaded = Vec::new();
    let mut speedup = Vec::new();
    for _ in 0..reps(p.size) {
        let serial = epoch_ns(p, 2, false, "kernel.shard.epoch_serial2_ns");
        let parallel = epoch_ns(p, 2, true, "kernel.shard.epoch_threaded_ns");
        threaded.push(parallel);
        speedup.push(serial / parallel);
    }
    let max = |v: &[f64]| v.iter().copied().fold(f64::MIN, f64::max);
    p.out.extend([
        ("kernel.shard.epoch_threaded_ns", stats::median(&threaded)),
        ("kernel.shard.epoch_threaded_min_ns", stats::best(&threaded)),
        ("kernel.shard.epoch_threaded_max_ns", max(&threaded)),
        ("kernel.shard.threaded_speedup", stats::median(&speedup)),
        ("kernel.shard.threaded_speedup_min", stats::best(&speedup)),
        ("kernel.shard.threaded_speedup_max", max(&speedup)),
    ]);
}

// --- netsim ---------------------------------------------------------------

/// Returns every message to its sender until its budget runs out.
struct Echo {
    remaining: u64,
}

impl Process for Echo {
    fn on_message(&mut self, ctx: &mut Ctx<'_>, msg: Message) {
        if self.remaining > 0 {
            self.remaining -= 1;
            ctx.send(msg.src, msg.payload);
        }
    }
}

/// Re-arms one timer per firing; with `cancel` it also sets and cancels
/// a second, later one each time.
struct Ticker {
    remaining: u64,
    cancel: bool,
}

impl Process for Ticker {
    fn on_message(&mut self, _ctx: &mut Ctx<'_>, _msg: Message) {}

    fn on_timer(&mut self, ctx: &mut Ctx<'_>, _tag: u64) {
        if self.remaining == 0 {
            return;
        }
        self.remaining -= 1;
        if self.cancel {
            let doomed = ctx.set_timer(SimDuration::from_millis(10), 1);
            ctx.cancel_timer(doomed);
        }
        ctx.set_timer(SimDuration::from_micros(100), 0);
    }
}

fn netsim(p: &mut Probes<'_>) {
    set_bus(false, None);
    let hops = scaled(p.size, 20_000);
    p.timed(
        "netsim.sim.deliver_ns",
        Some("link.request"),
        hops,
        |n| {
            let mut sim = Sim::new(7);
            let a = Addr::new(sim.add_node(), 0);
            let b = Addr::new(sim.add_node(), 0);
            sim.attach(a, Echo { remaining: n / 2 });
            sim.attach(b, Echo { remaining: n / 2 });
            sim.send_from(a, b, Payload::new(vec![0x5a; 64]));
            (sim, n)
        },
        |(mut sim, n)| {
            sim.run_until_idle();
            // One injected message plus n echoes, the last unanswered.
            assert_eq!(sim.metrics().delivered, n + 1);
        },
    );

    let timer_chain = |p: &mut Probes<'_>, name: &'static str, cancel: bool| {
        p.timed(
            name,
            None,
            hops,
            |n| {
                let mut sim = Sim::new(7);
                let at = Addr::new(sim.add_node(), 0);
                let remaining = n;
                sim.attach(at, Ticker { remaining, cancel });
                sim.schedule_timer(at, SimDuration::from_micros(100), 0);
                (sim, n)
            },
            |(mut sim, n)| {
                sim.run_until_idle();
                assert_eq!(sim.metrics().timers_fired, n + 1);
            },
        )
    };
    let plain = timer_chain(p, "netsim.sim.timer_ns", false);
    let with_cancel = timer_chain(p, "netsim.sim.timer_cancel_ns", true);
    // Published as the extra cost of one set + cancel + dead pop.
    let last = p.out.last_mut().expect("just pushed");
    last.1 = (with_cancel - plain).max(0.0);
}

// --- core -----------------------------------------------------------------

/// The invocation record the engine marshals for `Deposit`.
fn invocation_value() -> Value {
    Value::record([
        ("op", Value::text("Deposit")),
        (
            "args",
            Value::record([("a", Value::Int(17)), ("d", Value::Int(250))]),
        ),
    ])
}

fn codecs(p: &mut Probes<'_>) {
    let value = invocation_value();
    let n = scaled(p.size, 20_000);
    for (syntax, encode_name, decode_name) in [
        (
            SyntaxId::Binary,
            "core.codec.binary_encode_ns",
            "core.codec.binary_decode_ns",
        ),
        (
            SyntaxId::Text,
            "core.codec.text_encode_ns",
            "core.codec.text_decode_ns",
        ),
    ] {
        // `syntax_for` is inside the loop because every call site in the
        // program asks for the codec afresh; that is the cost they pay.
        p.per_iteration(encode_name, Some("marshal"), n, |n| {
            for _ in 0..n {
                black_box(syntax_for(syntax).encode(black_box(&value)));
            }
        });
        let bytes = syntax_for(syntax).encode(&value);
        p.per_iteration(decode_name, Some("marshal"), n, |n| {
            for _ in 0..n {
                black_box(
                    syntax_for(syntax)
                        .decode(black_box(&bytes))
                        .expect("own encoding"),
                );
            }
        });
    }

    let mut accounts = Value::record((1..=ACCOUNTS).map(|a| (format!("acct{a}"), Value::Int(0))));
    p.per_iteration("core.value.field_get_set_ns", None, n * 2, |n| {
        for i in 0..n {
            let key = if i % 2 == 0 { "acct17" } else { "acct52" };
            let balance = accounts
                .field(key)
                .and_then(Value::as_int)
                .expect("present");
            accounts.set_field(key, Value::Int(balance + 1));
        }
    });
}

// --- engineering ----------------------------------------------------------

fn envelope_and_stack(p: &mut Probes<'_>) {
    set_bus(false, None);
    let n = scaled(p.size, 20_000);
    let channel = ChannelId::new(1);
    let target = InterfaceId::new(1);
    let binary = Payload::new(syntax_for(SyntaxId::Binary).encode(&invocation_value()));
    let text = Payload::new(syntax_for(SyntaxId::Text).encode(&invocation_value()));

    p.per_iteration("engineering.envelope.encode_ns", Some("marshal"), n, |n| {
        for request in 0..n {
            let env = Envelope::request(
                channel,
                request + 1,
                target,
                SyntaxId::Binary,
                binary.clone(),
            );
            black_box(env.to_bytes());
        }
    });
    let frame = Payload::new(
        Envelope::request(channel, 1, target, SyntaxId::Binary, binary.clone()).to_bytes(),
    );
    p.per_iteration(
        "engineering.envelope.decode_ns",
        Some("reply.path"),
        n,
        |n| {
            for _ in 0..n {
                black_box(Envelope::from_payload(black_box(&frame)).expect("own frame"));
            }
        },
    );

    // The client side of the benchmark's channel: text-native, binary
    // wire, sequence binder. Outgoing transcodes a request and stamps it;
    // incoming checks the stamp of a reply and transcodes it back. The
    // envelopes are made beforehand; only the stack is timed.
    let config = channel_config();
    p.timed(
        "engineering.channel.stack_out_ns",
        Some("marshal"),
        n,
        |n| {
            let requests: Vec<Envelope> = (0..n)
                .map(|r| Envelope::request(channel, r + 1, target, SyntaxId::Text, text.clone()))
                .collect();
            (config.build_stack(SyntaxId::Text), requests)
        },
        |(mut stack, mut requests)| {
            for env in &mut requests {
                stack.outgoing(env).expect("own encoding");
            }
            black_box(requests.len());
        },
    );
    p.timed(
        "engineering.channel.stack_in_ns",
        Some("reply.path"),
        n,
        |n| {
            let mut server = config.build_stack(SyntaxId::Binary);
            let replies: Vec<Envelope> = (0..n)
                .map(|r| {
                    let request =
                        Envelope::request(channel, r + 1, target, SyntaxId::Binary, binary.clone());
                    let mut reply = Envelope::reply_to(
                        &request,
                        ReplyStatus::Ok,
                        SyntaxId::Binary,
                        binary.clone(),
                    );
                    server.outgoing(&mut reply).expect("own encoding");
                    reply
                })
                .collect();
            (config.build_stack(SyntaxId::Text), replies)
        },
        |(mut client, mut replies)| {
            for env in &mut replies {
                client.incoming(env).expect("fresh sequence numbers");
            }
            black_box(replies.len());
        },
    );
}

fn account_args(customer: u64) -> Value {
    Value::record([
        ("c", Value::Int(customer as i64)),
        ("opening", Value::Int(100_000)),
    ])
}

fn deposit_args(i: u64) -> Value {
    Value::record([
        ("a", Value::Int(1 + (i % ACCOUNTS) as i64)),
        ("d", Value::Int(1 + (i % 97) as i64)),
    ])
}

/// Dispatch plus the information-schema behaviour, with no network: first
/// on a nucleus alone, then through `Engine::invoke_local`.
fn invoke_local(p: &mut Probes<'_>) {
    set_bus(false, None);
    let n = scaled(p.size, 4_000);
    let interface = InterfaceId::new(1);
    let mut nucleus = NucleusProcess::new(NodeId::new(1), SyntaxId::Binary);
    let (capsule, cluster) = (CapsuleId::new(1), ClusterId::new(1));
    nucleus.add_capsule(capsule);
    nucleus.add_cluster(capsule, cluster);
    nucleus.install_object(
        capsule,
        cluster,
        BeoRecord {
            object: ObjectId::new(1),
            name: "probe-branch".into(),
            behaviour: "bank-branch".into(),
            interfaces: vec![interface],
        },
        Box::new(BranchBehaviour),
        BranchBehaviour::initial_state(),
    );
    for customer in 1..=ACCOUNTS {
        let created = nucleus
            .invoke_local(
                interface,
                &Invocation::new("CreateAccount", account_args(customer)),
            )
            .expect("installed");
        assert!(created.is_ok());
    }
    let deposits: Vec<Invocation> = (0..n)
        .map(|i| Invocation::new("Deposit", deposit_args(i)))
        .collect();
    p.per_iteration(
        "engineering.nucleus.invoke_local_ns",
        Some("server.service"),
        n,
        |_| {
            for invocation in &deposits {
                black_box(
                    nucleus
                        .invoke_local(interface, invocation)
                        .expect("installed"),
                );
            }
        },
    );

    let mut rig = rig(7);
    let args: Vec<Value> = (0..n).map(deposit_args).collect();
    let (node, interface) = (rig.branch.node, rig.branch.manager.interface);
    p.per_iteration(
        "engineering.engine.invoke_local_ns",
        Some("server.service"),
        n,
        |_| {
            for a in &args {
                black_box(
                    rig.engine
                        .invoke_local(node, interface, "Deposit", a)
                        .expect("deployed"),
                );
            }
        },
    );
}

// --- observe --------------------------------------------------------------

/// One emit as the program's call sites write it: a located event whose
/// detail is formatted before the bus decides whether to keep it.
fn emit(i: u64, span: Option<u64>) {
    let builder = event(Layer::Engineering, EventKind::Note)
        .node(1)
        .detail(format!("probe op={i}"));
    match span {
        Some(s) => builder.span(s).emit(),
        None => builder.in_context().emit(),
    };
}

fn observe(p: &mut Probes<'_>) {
    let n = scaled(p.size, 20_000);
    set_bus(false, None);
    p.per_iteration("observe.emit_disabled_ns", None, n, |n| {
        for i in 0..n {
            emit(i, None);
        }
    });
    p.per_iteration("observe.counter_add_ns", None, n, |n| {
        for _ in 0..n {
            bus::counter_add("bench.probe", 1);
        }
    });
    assert_eq!(bus::event_count(), 0, "bus off");

    p.timed(
        "observe.emit_enabled_ns",
        None,
        n,
        |n| {
            set_bus(true, None);
            n
        },
        |n| {
            for i in 0..n {
                emit(i, None);
            }
            assert_eq!(bus::event_count() as u64, n);
        },
    );

    // Steady state of a full ring: every emit evicts the oldest event.
    set_bus(true, Some(RING_CAPACITY));
    for i in 0..RING_CAPACITY as u64 {
        emit(i, None);
    }
    p.per_iteration("observe.emit_ring_ns", None, n, |n| {
        for i in 0..n {
            emit(i, None);
        }
    });
    assert_eq!(bus::event_count(), RING_CAPACITY);

    // Head-based 1-in-16 sampling, each event its own causal root.
    p.timed(
        "observe.emit_sampled_ns",
        None,
        n,
        |n| {
            bus::set_enabled(true);
            bus::set_collect(CollectConfig {
                ring_capacity: None,
                sample_denom: Some(16),
            });
            bus::reset();
            n
        },
        |n| {
            for i in 0..n {
                emit(i, Some(bus::new_span()));
            }
        },
    );
    set_bus(false, None);
}

// --- store ----------------------------------------------------------------

fn wal(p: &mut Probes<'_>) {
    let n = scaled(p.size, 10_000);
    let record = LogRecord::Write {
        tx: TxId::new(7),
        item: "oo7/atomic/000012/07".into(),
        before: None,
        after: Value::record([
            ("id", Value::Int(12_007)),
            ("x", Value::Int(41)),
            ("y", Value::Int(-3)),
            ("build_date", Value::Int(377)),
            (
                "to",
                Value::seq([Value::Int(8), Value::Int(21), Value::Int(30)]),
            ),
        ]),
    };
    p.per_iteration("store.wal.encode_frame_ns", None, n, |n| {
        for _ in 0..n {
            black_box(encode_frame(black_box(&record)));
        }
    });
    let frame = encode_frame(&record);
    let log: Vec<u8> = std::iter::repeat_n(&frame[..], n as usize)
        .flatten()
        .copied()
        .collect();
    p.per_iteration("store.wal.decode_ns_per_frame", None, n, |n| {
        let decoded = decode_frames(black_box(&log));
        assert_eq!(decoded.records.len() as u64, n);
    });
}
