//! The structured event model: one cross-layer taxonomy of everything
//! the RM-ODP stack does that is worth seeing, and the builder call sites
//! emit it with. The builder carries text as unformatted
//! `format_args!`, or as [`Facts`] and the [`Render`] function that turns
//! them into text; whether, where and when it is formatted is the bus's
//! call.

use std::fmt;

/// Which part of the stack emitted an event.
///
/// The layers mirror the workspace's crate structure, which in turn
/// mirrors the model: the network simulator at the bottom, the
/// engineering viewpoint's channel machinery above it, the transparency
/// functions, the ODP functions (trading, transactions), and finally the
/// application itself.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Layer {
    /// The discrete-event network simulator (`rmodp-netsim`).
    Netsim,
    /// Nucleus, capsules, channels (`rmodp-engineering`).
    Engineering,
    /// Distribution transparencies (`rmodp-transparency`).
    Transparency,
    /// Atomic commitment (`rmodp-transactions`).
    Transactions,
    /// The trading function (`rmodp-trader`).
    Trader,
    /// Common ODP functions (`rmodp-functions`).
    Functions,
    /// The durable object store (`rmodp-store`).
    Store,
    /// Code driving the stack: examples, tests, benches.
    Application,
}

impl Layer {
    /// The stable lower-case name used in the JSONL export.
    pub fn name(self) -> &'static str {
        match self {
            Layer::Netsim => "netsim",
            Layer::Engineering => "engineering",
            Layer::Transparency => "transparency",
            Layer::Transactions => "transactions",
            Layer::Trader => "trader",
            Layer::Functions => "functions",
            Layer::Store => "store",
            Layer::Application => "application",
        }
    }
}

impl fmt::Display for Layer {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// What happened. One flat taxonomy across every layer, so a single
/// trace can show a trader lookup causing a channel hop causing a
/// message send.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum EventKind {
    // ---- netsim ----
    /// A message entered the network.
    Send,
    /// A message reached its destination process.
    Deliver,
    /// A message was dropped (loss, partition, crash, unroutable).
    Drop,
    /// A timer fired.
    TimerFired,
    /// A free-form annotation from a simulated process.
    Note,
    // ---- engineering ----
    /// An envelope traversed one channel component (stub/binder/...).
    ChannelHop,
    /// A value was re-encoded between transfer syntaxes.
    Marshal,
    /// An operation invocation began.
    CallStart,
    /// An operation invocation completed (ok or error).
    CallEnd,
    /// A timed-out attempt was retried.
    Retry,
    /// A cluster checkpoint was taken.
    Checkpoint,
    /// A cluster was deactivated.
    Deactivate,
    /// A cluster was reactivated from a checkpoint.
    Reactivate,
    /// A cluster migration began.
    MigrateStart,
    /// A cluster migration completed.
    MigrateEnd,
    /// A client was redirected to a relocated interface.
    Relocate,
    /// A channel's circuit breaker changed state (closed/open/half-open).
    BreakerTransition,
    /// A request entered a node's admission queue (start of queue wait).
    AdmissionEnqueue,
    /// A queued request left the admission queue for service (end of
    /// queue wait, start of service).
    AdmissionDispatch,
    // ---- transparency ----
    /// A write was applied to replicas.
    ReplicaUpdate,
    /// A read was served by a replica.
    ReplicaRead,
    /// A replica voted / was reconciled in a read-all.
    ReplicaVote,
    /// Failure recovery began.
    RecoveryStart,
    /// Failure recovery completed.
    RecoveryEnd,
    /// A cluster state was persisted / restored by persistence fns.
    Persist,
    // ---- trader ----
    /// A service offer was exported to a trader.
    TraderExport,
    /// An importer queried a trader.
    TraderLookup,
    /// The trader compiled a constraint into an index-backed query plan
    /// (detail carries the plan summary).
    TraderPlan,
    /// A query was forwarded across a federation link.
    FederationHop,
    // ---- transactions ----
    /// A coordinator asked a participant to prepare.
    TxPrepare,
    /// A participant voted.
    TxVote,
    /// A transaction committed.
    TxCommit,
    /// A transaction aborted.
    TxAbort,
    // ---- group robustness (detector / views / quorum) ----
    /// A failure-detector heartbeat probe completed (detail says
    /// `ack` or `miss`).
    Heartbeat,
    /// The failure detector started suspecting a group member.
    Suspect,
    /// A previously suspected member answered again and was restored.
    Restore,
    /// A new epoch-numbered group view was installed by majority
    /// acknowledgement (detail carries group/epoch/leader/watermark).
    ViewChange,
    /// An update reached its majority quorum and committed (detail
    /// carries group/epoch/seq).
    QuorumCommit,
    /// A stale-epoch write was rejected by a fencing replica.
    FencedWrite,
    // ---- chaos / fault injection ----
    /// A scheduled fault was injected (crash, partition, loss burst…).
    FaultInject,
    /// A scheduled fault was cleared (restart, heal, window end).
    FaultClear,
    // ---- durable store ----
    /// A batch of writes was made stable in the write-ahead log
    /// (`store.wal` span).
    WalCommit,
    /// A snapshot of the full committed state was written
    /// (`store.snapshot` span).
    StoreSnapshot,
    /// The log was compacted behind a snapshot (`store.compaction` span).
    StoreCompaction,
    /// A store recovered its state from snapshot + log replay.
    StoreRecovery,
}

impl EventKind {
    /// The stable snake_case name used in the JSONL export.
    pub fn name(self) -> &'static str {
        match self {
            EventKind::Send => "send",
            EventKind::Deliver => "deliver",
            EventKind::Drop => "drop",
            EventKind::TimerFired => "timer_fired",
            EventKind::Note => "note",
            EventKind::ChannelHop => "channel_hop",
            EventKind::Marshal => "marshal",
            EventKind::CallStart => "call_start",
            EventKind::CallEnd => "call_end",
            EventKind::Retry => "retry",
            EventKind::Checkpoint => "checkpoint",
            EventKind::Deactivate => "deactivate",
            EventKind::Reactivate => "reactivate",
            EventKind::MigrateStart => "migrate_start",
            EventKind::MigrateEnd => "migrate_end",
            EventKind::Relocate => "relocate",
            EventKind::BreakerTransition => "breaker_transition",
            EventKind::AdmissionEnqueue => "admission_enqueue",
            EventKind::AdmissionDispatch => "admission_dispatch",
            EventKind::ReplicaUpdate => "replica_update",
            EventKind::ReplicaRead => "replica_read",
            EventKind::ReplicaVote => "replica_vote",
            EventKind::RecoveryStart => "recovery_start",
            EventKind::RecoveryEnd => "recovery_end",
            EventKind::Persist => "persist",
            EventKind::TraderExport => "trader_export",
            EventKind::TraderLookup => "trader_lookup",
            EventKind::TraderPlan => "trader_plan",
            EventKind::FederationHop => "federation_hop",
            EventKind::TxPrepare => "tx_prepare",
            EventKind::TxVote => "tx_vote",
            EventKind::TxCommit => "tx_commit",
            EventKind::TxAbort => "tx_abort",
            EventKind::Heartbeat => "heartbeat",
            EventKind::Suspect => "suspect",
            EventKind::Restore => "restore",
            EventKind::ViewChange => "view_change",
            EventKind::QuorumCommit => "quorum_commit",
            EventKind::FencedWrite => "fenced_write",
            EventKind::FaultInject => "fault_inject",
            EventKind::FaultClear => "fault_clear",
            EventKind::WalCommit => "store.wal",
            EventKind::StoreSnapshot => "store.snapshot",
            EventKind::StoreCompaction => "store.compaction",
            EventKind::StoreRecovery => "store.recovery",
        }
    }
}

impl fmt::Display for EventKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// A causal span identifier. Spans are allocated by the bus; an event's
/// `span` ties it to one causal activity (one message in flight, one
/// invocation, one migration), and `parent` links that activity to the
/// one that started it.
pub type SpanId = u64;

/// One structured trace event.
///
/// Coordinates are plain integers (node index, port, channel id, capsule
/// id) rather than the emitting crate's id types, so the bus depends on
/// nothing and every crate can emit without dependency cycles.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Event {
    /// Global emission order (dense, starting at 0).
    pub seq: u64,
    /// Virtual simulation time, microseconds.
    pub t_us: u64,
    /// Emitting layer.
    pub layer: Layer,
    /// What happened.
    pub kind: EventKind,
    /// Causal span this event belongs to, if any.
    pub span: Option<SpanId>,
    /// Span that caused this span to exist, if any.
    pub parent: Option<SpanId>,
    /// Node index, if the event is located at a node.
    pub node: Option<u64>,
    /// Port on the node, if meaningful.
    pub port: Option<u64>,
    /// Channel id, if the event belongs to a channel.
    pub channel: Option<u64>,
    /// Capsule id, if the event belongs to a capsule.
    pub capsule: Option<u64>,
    /// Free-form human-readable detail.
    pub detail: String,
}

impl fmt::Display for Event {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "#{} t={}us [{}] {}",
            self.seq, self.t_us, self.layer, self.kind
        )?;
        if let Some(s) = self.span {
            write!(f, " span={s}")?;
        }
        if let Some(p) = self.parent {
            write!(f, " parent={p}")?;
        }
        if let Some(n) = self.node {
            write!(f, " node={n}")?;
        }
        if !self.detail.is_empty() {
            write!(f, " {}", self.detail)?;
        }
        Ok(())
    }
}

/// The plain data a deferred detail is written from (see
/// [`EventBuilder::detail_deferred`]): numbers, a name the program holds
/// for its whole run, and names the bus copies into the recorded event. A
/// renderer rebuilds the typed values from the words (an address, a
/// transfer syntax) and formats them through their own `Display`/`Debug`,
/// so no text format is written twice.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Facts<'a> {
    /// Sizes, packed coordinates, discriminants.
    pub words: [u64; 2],
    /// A name kept by reference: a channel component's.
    pub name: &'static str,
    /// Borrowed names, copied into the event: an operation, a termination.
    pub texts: [&'a str; 2],
}

/// Writes a deferred detail's text from its [`Facts`]. A plain `fn`, so
/// the bus can keep it beside the facts and call it when the event is
/// read; it must not emit.
pub type Render = fn(&Facts<'_>, &mut fmt::Formatter<'_>) -> fmt::Result;

/// How many bytes of [`Facts`] texts an entry holds inline: an operation
/// and its termination (`Withdraw`, `NotToday`) fit with room to spare.
pub(crate) const INLINE: usize = 22;

/// A deferred detail as the builder hands it to the bus and the ring
/// keeps it: the words, the static name, the borrowed names copied inline
/// (`texts[0]` is the first `split` of `len` bytes), the renderer.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Deferred {
    words: [u64; 2],
    name: &'static str,
    split: u8,
    len: u8,
    bytes: [u8; INLINE],
    pub(crate) render: Render,
}

impl Deferred {
    /// Copies `facts`; `None` if their texts do not fit inline. Inlined
    /// into the call site, where a constant text's length is known.
    #[inline]
    fn keep(facts: &Facts<'_>, render: Render) -> Option<Self> {
        let [a, b] = facts.texts;
        let len = a.len() + b.len();
        if len > INLINE {
            return None;
        }
        let mut bytes = [0; INLINE];
        bytes[..a.len()].copy_from_slice(a.as_bytes());
        bytes[a.len()..len].copy_from_slice(b.as_bytes());
        Some(Self {
            words: facts.words,
            name: facts.name,
            split: a.len() as u8,
            len: len as u8,
            bytes,
            render,
        })
    }

    /// The facts back, names borrowed from the entry.
    pub(crate) fn facts(&self) -> Facts<'_> {
        let (split, len) = (usize::from(self.split), usize::from(self.len));
        let text = |bytes| std::str::from_utf8(bytes).expect("copied whole from a str");
        Facts {
            words: self.words,
            name: self.name,
            texts: [text(&self.bytes[..split]), text(&self.bytes[split..len])],
        }
    }
}

/// An event's detail as the builder holds it until the bus records it.
#[derive(Debug, Clone, Copy)]
pub(crate) enum Pending<'a> {
    /// Text to format, once, if the event is kept.
    Fmt(fmt::Arguments<'a>),
    /// Facts kept inline, rendered only when the event is read.
    Deferred(Deferred),
    /// Facts whose texts are too long to keep inline: formatted, once,
    /// if the event is kept.
    Long(Facts<'a>, Render),
}

/// Builder for an [`Event`]; all coordinates optional.
///
/// The builder reads the bus's enabled flag once, when it is created.
/// On a disabled bus every method below is a field store or a no-op:
/// nothing is formatted, nothing is allocated and [`emit`](Self::emit)
/// returns `None` without touching the bus again.
///
/// The lifetime is [`detail_fmt`](Self::detail_fmt)'s [`format_args!`]: it
/// borrows temporaries that die with their statement, so a builder kept
/// in a `let` to be emitted later does not compile. The names of
/// [`detail_deferred`](Self::detail_deferred)'s [`Facts`] share it.
#[derive(Debug, Clone)]
pub struct EventBuilder<'a> {
    /// Whether the bus was recording when this builder was created.
    live: bool,
    /// The event so far; the bus fills in `seq`, `t_us` and formatted text.
    pub(crate) event: Event,
    /// Take a missing span / parent from the context stack at emit.
    pub(crate) span_from_context: bool,
    pub(crate) parent_from_context: bool,
    /// Unformatted text; it wins over `event.detail`.
    pub(crate) pending: Option<Pending<'a>>,
}

impl<'a> EventBuilder<'a> {
    /// Starts an event of the given layer and kind.
    // Inlined (with `bus::is_enabled`, `event` and every setter) so the
    // flag read is a thread-local load in the caller and the builder is
    // built in place; out of line, an enabled emit costs ~10 ns more.
    #[inline]
    pub fn new(layer: Layer, kind: EventKind) -> Self {
        Self {
            live: crate::bus::is_enabled(),
            event: Event {
                seq: 0,
                t_us: 0,
                layer,
                kind,
                span: None,
                parent: None,
                node: None,
                port: None,
                channel: None,
                capsule: None,
                detail: String::new(),
            },
            span_from_context: false,
            parent_from_context: false,
            pending: None,
        }
    }

    /// Attaches the causal span.
    #[inline]
    pub fn span(mut self, span: SpanId) -> Self {
        self.event.span = Some(span);
        self
    }

    /// Attaches the parent span.
    #[inline]
    pub fn parent(mut self, parent: SpanId) -> Self {
        self.event.parent = Some(parent);
        self
    }

    /// Attaches the node coordinate.
    #[inline]
    pub fn node(mut self, node: u64) -> Self {
        self.event.node = Some(node);
        self
    }

    /// Attaches the port coordinate.
    #[inline]
    pub fn port(mut self, port: u64) -> Self {
        self.event.port = Some(port);
        self
    }

    /// Attaches the channel coordinate.
    #[inline]
    pub fn channel(mut self, channel: u64) -> Self {
        self.event.channel = Some(channel);
        self
    }

    /// Attaches the capsule coordinate.
    #[inline]
    pub fn capsule(mut self, capsule: u64) -> Self {
        self.event.capsule = Some(capsule);
        self
    }

    /// Attaches the context span current at [`emit`](Self::emit) as this
    /// event's span (no-op if a span is set or no context is active).
    /// Lets mid-activity events — a checkpoint inside a migration, a vote
    /// inside a transaction — land on the enclosing causal span.
    #[inline]
    pub fn in_context(mut self) -> Self {
        self.span_from_context = true;
        self
    }

    /// Attaches the context span current at [`emit`](Self::emit) as this
    /// event's *parent* (no-op if a parent is set or no context is active).
    #[inline]
    pub fn parent_from_context(mut self) -> Self {
        self.parent_from_context = true;
        self
    }

    /// Attaches text the caller already owns. Text that has to be
    /// formatted goes through [`detail_fmt`](Self::detail_fmt), so a
    /// disabled bus never pays for it.
    #[inline]
    pub fn detail(mut self, detail: impl Into<String>) -> Self {
        if self.live {
            self.event.detail = detail.into();
        }
        self
    }

    /// Attaches text as `format_args!(…)`. Nothing is formatted here:
    /// the bus does it in [`emit`](Self::emit), once, only if it keeps the
    /// event, into the buffer of the event the ring evicts; the recorded
    /// stream reads as if the text had been built eagerly. The arguments'
    /// `Display` code runs inside the bus and must not call back into it.
    #[inline]
    pub fn detail_fmt(mut self, detail: fmt::Arguments<'a>) -> Self {
        self.pending = Some(Pending::Fmt(detail));
        self
    }

    /// Attaches text as [`Facts`] and the [`Render`] that writes it. The
    /// `facts` closure runs only while the bus records; the bus keeps what
    /// it returns beside the event, texts copied inline, and calls
    /// `render` only when the event is read
    /// ([`snapshot_events`](crate::bus::snapshot_events),
    /// [`take_events`](crate::bus::take_events)), so an event the ring
    /// evicts or sampling drops is never formatted. Texts too long to
    /// copy inline are formatted when the event is recorded, as
    /// [`detail_fmt`](Self::detail_fmt)'s are. Either way the event reads
    /// the same text.
    #[inline]
    pub fn detail_deferred(mut self, facts: impl FnOnce() -> Facts<'a>, render: Render) -> Self {
        if self.live {
            let facts = facts();
            self.pending = Some(match Deferred::keep(&facts, render) {
                Some(kept) => Pending::Deferred(kept),
                None => Pending::Long(facts, render),
            });
        }
        self
    }

    /// Records the event on the thread's bus. Returns the sequence
    /// number, or `None` if the bus is disabled or sampling discarded
    /// the event.
    #[inline]
    pub fn emit(self) -> Option<u64> {
        if !self.live {
            return None;
        }
        crate::bus::record(self)
    }
}
