//! Channel components: stubs and binders (§6.1, Figure 4).
//!
//! "A channel provides the communication mechanism and contains or
//! controls the transparency functions… composed of stubs, binders, and
//! protocol objects. Stubs are used when the transparency involves some
//! knowledge of the application semantics, e.g., maintaining a log of
//! operations for an audit trail. Binders are used when application
//! semantics are not required… binders could use sequence numbers to foil
//! capture-and-replay attempts."
//!
//! A [`Stack`] composes [`ChannelComponent`]s; the protocol object itself
//! lives in the nucleus (it is the part that talks to the network).

use std::collections::BTreeSet;
use std::fmt;

use rmodp_core::codec::{self, CodecError, SyntaxId, TYPICAL_ENCODING};

use crate::envelope::{Envelope, EnvelopeKind};
use crate::wire;
use rmodp_netsim::time::SimDuration;
use rmodp_observe::Facts;

/// A failure inside a channel component.
#[derive(Debug, Clone, PartialEq)]
pub enum ChannelError {
    /// Payload could not be re-encoded.
    Codec(CodecError),
    /// A sequence binder detected a duplicate (capture-and-replay).
    Replay {
        /// The duplicated sequence number.
        seq: u64,
    },
}

impl fmt::Display for ChannelError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ChannelError::Codec(e) => write!(f, "channel codec failure: {e}"),
            ChannelError::Replay { seq } => {
                write!(f, "sequence binder rejected replayed message (seq {seq})")
            }
        }
    }
}

impl std::error::Error for ChannelError {}

impl From<CodecError> for ChannelError {
    fn from(e: CodecError) -> Self {
        ChannelError::Codec(e)
    }
}

/// One configurable element of a channel, traversed on the way out and on
/// the way in.
pub trait ChannelComponent: Send + 'static {
    /// A short component name for traces.
    fn name(&self) -> &'static str;

    /// Upcast for [`Stack::component`] downcasting. Implementations
    /// return `self`.
    fn as_any(&self) -> &dyn std::any::Any;

    /// Transforms an envelope leaving the object (towards the network).
    ///
    /// # Errors
    ///
    /// Returns a [`ChannelError`] to abort the send.
    fn on_outgoing(&mut self, env: &mut Envelope) -> Result<(), ChannelError>;

    /// Transforms an envelope arriving from the network.
    ///
    /// # Errors
    ///
    /// Returns a [`ChannelError`] to reject the message.
    fn on_incoming(&mut self, env: &mut Envelope) -> Result<(), ChannelError>;

    /// Adjusts an already-marshalled envelope before a retransmission.
    /// Most components are idempotent across attempts and keep the
    /// default no-op; a [`SequenceBinder`] must stamp a fresh sequence
    /// number so the peer's replay check does not reject the retry.
    /// Returns `true` if the envelope changed (forcing a re-serialise).
    fn on_retransmit(&mut self, env: &mut Envelope) -> bool {
        let _ = env;
        false
    }
}

/// The stub providing **access transparency** (§9.1): marshals payloads
/// between the object's native transfer syntax and the channel's wire
/// syntax. It holds no document: [`codec::transcode`] reads the payload
/// in one syntax and writes it in the other in the same pass.
#[derive(Debug)]
pub struct MarshallingStub {
    /// The owner's native syntax.
    pub native: SyntaxId,
    /// The syntax agreed for the wire.
    pub wire: SyntaxId,
}

impl ChannelComponent for MarshallingStub {
    fn name(&self) -> &'static str {
        "marshalling-stub"
    }

    fn as_any(&self) -> &dyn std::any::Any {
        self
    }

    fn on_outgoing(&mut self, env: &mut Envelope) -> Result<(), ChannelError> {
        marshal(env, self.wire)
    }

    fn on_incoming(&mut self, env: &mut Envelope) -> Result<(), ChannelError> {
        marshal(env, self.native)
    }
}

/// The transfer syntaxes in declaration order, so `SYNTAXES[s as usize] == s`.
const SYNTAXES: [SyntaxId; 2] = [SyntaxId::Binary, SyntaxId::Text];

/// `Marshal`'s detail: `<from> -> <to> (<n> bytes)`, the two syntaxes
/// packed high and low in the first word.
fn render_marshal(facts: &Facts<'_>, f: &mut fmt::Formatter<'_>) -> fmt::Result {
    let [syntaxes, len] = facts.words;
    let (from, to) = (
        SYNTAXES[(syntaxes >> 32) as usize],
        SYNTAXES[syntaxes as u32 as usize],
    );
    write!(f, "{from:?} -> {to:?} ({len} bytes)")
}

/// An outward `ChannelHop`'s detail: `out:<component>`.
fn render_hop_out(facts: &Facts<'_>, f: &mut fmt::Formatter<'_>) -> fmt::Result {
    write!(f, "out:{}", facts.name)
}

/// An inward `ChannelHop`'s detail: `in:<component>`.
fn render_hop_in(facts: &Facts<'_>, f: &mut fmt::Formatter<'_>) -> fmt::Result {
    write!(f, "in:{}", facts.name)
}

/// A hop's facts: the component's name.
fn hop_facts(component: &'static str) -> Facts<'static> {
    Facts {
        name: component,
        ..Facts::default()
    }
}

/// Puts the envelope's payload into the syntax `to`, if it is in another.
fn marshal(env: &mut Envelope, to: SyntaxId) -> Result<(), ChannelError> {
    let from = env.syntax;
    if from == to {
        return Ok(());
    }
    let mut payload = Vec::with_capacity(TYPICAL_ENCODING);
    codec::transcode(from, to, &env.payload, &mut payload)?;
    env.payload = payload.into();
    env.syntax = to;
    rmodp_observe::event(
        rmodp_observe::Layer::Engineering,
        rmodp_observe::EventKind::Marshal,
    )
    .in_context()
    .channel(env.channel.raw())
    .detail_deferred(
        || Facts {
            words: [((from as u64) << 32) | to as u64, env.payload.len() as u64],
            ..Facts::default()
        },
        render_marshal,
    )
    .emit();
    rmodp_observe::bus::counter_add("engineering.marshals", 1);
    Ok(())
}

/// A stub maintaining an operation log for an audit trail — the paper's
/// example of a transparency "involving some knowledge of the application
/// semantics" (§6.1): it decodes payloads to recover operation names.
#[derive(Debug, Default)]
pub struct AuditStub {
    entries: Vec<String>,
}

impl AuditStub {
    /// Creates an empty audit stub.
    fn new() -> Self {
        Self::default()
    }

    /// The audit log collected so far.
    pub fn entries(&self) -> &[String] {
        &self.entries
    }
}

impl ChannelComponent for AuditStub {
    fn name(&self) -> &'static str {
        "audit-stub"
    }

    fn as_any(&self) -> &dyn std::any::Any {
        self
    }

    fn on_outgoing(&mut self, env: &mut Envelope) -> Result<(), ChannelError> {
        if matches!(env.kind, EnvelopeKind::Request | EnvelopeKind::Announce) {
            let op = wire::operation_name(env.syntax, &env.payload)?;
            self.entries.push(format!("out {:?} {op}", env.kind));
        }
        Ok(())
    }

    fn on_incoming(&mut self, env: &mut Envelope) -> Result<(), ChannelError> {
        match env.kind {
            EnvelopeKind::Request | EnvelopeKind::Announce => {
                let op = wire::operation_name(env.syntax, &env.payload)?;
                self.entries.push(format!("in {:?} {op}", env.kind));
            }
            EnvelopeKind::Reply => {
                self.entries.push(format!("in reply {:?}", env.status));
            }
            EnvelopeKind::Flow => {}
        }
        Ok(())
    }
}

/// A binder that stamps outgoing messages with sequence numbers and
/// rejects incoming duplicates — foiling capture-and-replay (§6.1).
///
/// What it has seen is kept as a low-water mark plus the numbers that
/// arrived ahead of it, so a peer that sends in order costs no memory
/// however long the binding lives; a number lost for good (a
/// retransmission is stamped afresh) keeps the mark where it is.
#[derive(Debug)]
pub struct SequenceBinder {
    next_out: u64,
    /// Every number from 1 up to this one has been seen.
    seen_through: u64,
    /// The numbers seen above `seen_through + 1`.
    seen_ahead: BTreeSet<u64>,
}

impl SequenceBinder {
    /// Creates a fresh binder.
    fn new() -> Self {
        Self {
            next_out: 1,
            seen_through: 0,
            seen_ahead: BTreeSet::new(),
        }
    }
}

impl Default for SequenceBinder {
    fn default() -> Self {
        Self::new()
    }
}

impl ChannelComponent for SequenceBinder {
    fn name(&self) -> &'static str {
        "sequence-binder"
    }

    fn as_any(&self) -> &dyn std::any::Any {
        self
    }

    fn on_outgoing(&mut self, env: &mut Envelope) -> Result<(), ChannelError> {
        env.seq = self.next_out;
        self.next_out += 1;
        Ok(())
    }

    fn on_retransmit(&mut self, env: &mut Envelope) -> bool {
        env.seq = self.next_out;
        self.next_out += 1;
        true
    }

    fn on_incoming(&mut self, env: &mut Envelope) -> Result<(), ChannelError> {
        if env.seq == 0 {
            // Peer has no sequence binder; nothing to check.
            return Ok(());
        }
        if env.seq == self.seen_through + 1 {
            self.seen_through += 1;
            while self.seen_ahead.remove(&(self.seen_through + 1)) {
                self.seen_through += 1;
            }
        } else if env.seq <= self.seen_through || !self.seen_ahead.insert(env.seq) {
            return Err(ChannelError::Replay { seq: env.seq });
        }
        Ok(())
    }
}

/// An ordered stack of channel components. Outgoing envelopes traverse
/// components first-to-last (application-nearest first); incoming
/// envelopes traverse last-to-first.
#[derive(Default)]
pub struct Stack {
    components: Vec<Box<dyn ChannelComponent>>,
}

impl fmt::Debug for Stack {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let names: Vec<&str> = self.components.iter().map(|c| c.name()).collect();
        write!(f, "Stack{names:?}")
    }
}

impl Stack {
    /// An empty (pass-through) stack.
    fn new() -> Self {
        Self::default()
    }

    /// Appends a component (placed closer to the network than previous
    /// components).
    pub fn push(&mut self, component: impl ChannelComponent) -> &mut Self {
        self.components.push(Box::new(component));
        self
    }

    /// Number of components.
    pub fn len(&self) -> usize {
        self.components.len()
    }

    /// Whether the stack is empty.
    pub fn is_empty(&self) -> bool {
        self.components.is_empty()
    }

    /// Runs an envelope outwards through the stack.
    ///
    /// # Errors
    ///
    /// Propagates the first component failure.
    pub fn outgoing(&mut self, env: &mut Envelope) -> Result<(), ChannelError> {
        for c in self.components.iter_mut() {
            rmodp_observe::event(
                rmodp_observe::Layer::Engineering,
                rmodp_observe::EventKind::ChannelHop,
            )
            .in_context()
            .channel(env.channel.raw())
            .detail_deferred(|| hop_facts(c.name()), render_hop_out)
            .emit();
            rmodp_observe::bus::counter_add("engineering.channel_hops", 1);
            c.on_outgoing(env)?;
        }
        Ok(())
    }

    /// Runs an envelope inwards through the stack (reverse order).
    ///
    /// # Errors
    ///
    /// Propagates the first component failure.
    pub fn incoming(&mut self, env: &mut Envelope) -> Result<(), ChannelError> {
        for c in self.components.iter_mut().rev() {
            rmodp_observe::event(
                rmodp_observe::Layer::Engineering,
                rmodp_observe::EventKind::ChannelHop,
            )
            .in_context()
            .channel(env.channel.raw())
            .detail_deferred(|| hop_facts(c.name()), render_hop_in)
            .emit();
            rmodp_observe::bus::counter_add("engineering.channel_hops", 1);
            c.on_incoming(env)?;
        }
        Ok(())
    }

    /// Prepares an already-marshalled envelope for retransmission,
    /// letting each component restamp what it must (sequence numbers).
    /// Unlike [`Stack::outgoing`] this emits no hop events and performs
    /// no marshalling: the envelope's wire form is reused as-is unless a
    /// component reports a change, in which case the caller re-serialises.
    pub fn restamp(&mut self, env: &mut Envelope) -> bool {
        let mut changed = false;
        for c in self.components.iter_mut() {
            changed |= c.on_retransmit(env);
        }
        changed
    }

    /// Access to a component of a concrete type (e.g. to read an
    /// [`AuditStub`]'s log).
    pub fn component<T: ChannelComponent>(&self) -> Option<&T> {
        self.components
            .iter()
            .find_map(|c| c.as_any().downcast_ref::<T>())
    }
}

/// How many times and how patiently a caller retransmits a request.
///
/// Retransmission pacing is exponential: before retransmission `k`
/// (1-based) the caller pauses `min(backoff_base · 2^(k-1), backoff_cap)`
/// plus a deterministic jitter drawn from the engine's seeded stream in
/// `[0, jitter]`. The whole call — every attempt and every pause — is
/// bounded by `deadline`; once it passes, no further retransmission is
/// made and the call fails with `CallError::Timeout`.
///
/// `RetryPolicy::one_shot()` (a single attempt, no retransmission) gives
/// **at-most-once** delivery. Any policy with `retries > 0` gives
/// at-least-once *transmission*; combined with the nucleus's request-id
/// dedup cache the server still *executes* at most once, so the observed
/// semantics are effectively exactly-once while the server stays
/// reachable.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RetryPolicy {
    /// How long to wait for a reply before giving up on an attempt.
    pub timeout: SimDuration,
    /// How many retransmissions (0 = single attempt).
    pub retries: u32,
    /// Pause before the first retransmission; doubles each time.
    pub backoff_base: SimDuration,
    /// Ceiling on the exponential pause.
    pub backoff_cap: SimDuration,
    /// Maximum deterministic jitter added to each pause.
    pub jitter: SimDuration,
    /// Total budget for the call across all attempts and pauses.
    pub deadline: SimDuration,
}

impl RetryPolicy {
    /// A single attempt with no retransmission: at-most-once delivery.
    /// This is what a channel configured with `retry: None` uses.
    pub fn one_shot() -> Self {
        Self {
            timeout: SimDuration::from_millis(50),
            retries: 0,
            backoff_base: SimDuration::ZERO,
            backoff_cap: SimDuration::ZERO,
            jitter: SimDuration::ZERO,
            deadline: SimDuration::from_millis(50),
        }
    }

    /// A hardened policy for lossy links: 8 retransmissions with
    /// exponential backoff (2 ms doubling, capped at 40 ms), 1 ms jitter,
    /// all within a 600 ms budget.
    pub fn reliable() -> Self {
        Self {
            timeout: SimDuration::from_millis(25),
            retries: 8,
            backoff_base: SimDuration::from_millis(2),
            backoff_cap: SimDuration::from_millis(40),
            jitter: SimDuration::from_millis(1),
            deadline: SimDuration::from_millis(600),
        }
    }

    /// Sets the per-attempt reply timeout.
    pub fn with_timeout(mut self, timeout: SimDuration) -> Self {
        self.timeout = timeout;
        self
    }

    /// Sets the total call budget.
    pub fn with_deadline(mut self, deadline: SimDuration) -> Self {
        self.deadline = deadline;
        self
    }

    /// The pause before retransmission `k` (1-based), without jitter.
    pub fn backoff_delay(&self, k: u32) -> SimDuration {
        let micros = self
            .backoff_base
            .as_micros()
            .saturating_mul(1u64.checked_shl(k.saturating_sub(1)).unwrap_or(u64::MAX));
        SimDuration::from_micros(micros.min(self.backoff_cap.as_micros()))
    }
}

impl Default for RetryPolicy {
    /// The default is the hardened [`RetryPolicy::reliable`] policy. For
    /// the old single-attempt behaviour use [`RetryPolicy::one_shot`] or
    /// leave `ChannelConfig::retry` as `None`.
    fn default() -> Self {
        Self::reliable()
    }
}

/// Per-channel circuit breaker configuration. The breaker counts
/// *consecutive timeouts* (replies of any status count as liveness); once
/// `failure_threshold` is reached the breaker opens and calls fail fast
/// with `CallError::CircuitOpen` until `cooldown` has elapsed, after
/// which one probe call is let through (half-open). A probe reply closes
/// the breaker; a probe timeout re-opens it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BreakerConfig {
    /// Consecutive timeouts before the breaker opens.
    pub failure_threshold: u32,
    /// How long the breaker stays open before allowing a probe.
    pub cooldown: SimDuration,
    /// Consecutive probe successes required to close again.
    pub success_to_close: u32,
}

impl Default for BreakerConfig {
    fn default() -> Self {
        Self {
            failure_threshold: 3,
            cooldown: SimDuration::from_millis(200),
            success_to_close: 1,
        }
    }
}

/// The observable state of a channel's circuit breaker.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BreakerPhase {
    /// Calls flow normally; consecutive timeouts are counted.
    Closed,
    /// Calls fail fast until the cooldown elapses.
    Open,
    /// The cooldown elapsed; probe calls are allowed through.
    HalfOpen,
}

impl BreakerPhase {
    /// Stable lower-case name for traces and metrics.
    pub fn name(self) -> &'static str {
        match self {
            BreakerPhase::Closed => "closed",
            BreakerPhase::Open => "open",
            BreakerPhase::HalfOpen => "half-open",
        }
    }
}

/// Declarative channel configuration: which components each side's stack
/// gets (Figure 4's shaded area).
#[derive(Debug, Clone, PartialEq)]
pub struct ChannelConfig {
    /// The transfer syntax agreed for the wire.
    pub wire_syntax: SyntaxId,
    /// Add sequence binders (replay protection).
    pub sequence: bool,
    /// Add audit stubs (operation log).
    pub audit: bool,
    /// Retransmission policy for requests. `None` means a single attempt
    /// per call ([`RetryPolicy::one_shot`]): at-most-once delivery.
    pub retry: Option<RetryPolicy>,
    /// Circuit breaker guarding the invocation path. `None` disables it.
    pub breaker: Option<BreakerConfig>,
}

impl Default for ChannelConfig {
    fn default() -> Self {
        Self {
            wire_syntax: SyntaxId::Binary,
            sequence: false,
            audit: false,
            retry: None,
            breaker: None,
        }
    }
}

impl ChannelConfig {
    /// Builds one side's component stack given that side's native syntax.
    pub fn build_stack(&self, native: SyntaxId) -> Stack {
        let mut stack = Stack::new();
        if self.audit {
            stack.push(AuditStub::new());
        }
        stack.push(MarshallingStub {
            native,
            wire: self.wire_syntax,
        });
        if self.sequence {
            stack.push(SequenceBinder::new());
        }
        stack
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rmodp_core::codec::syntax_for;
    use rmodp_core::id::{ChannelId, InterfaceId};
    use rmodp_core::value::Value;

    fn invocation_payload(syntax: SyntaxId) -> Vec<u8> {
        let mut out = Vec::new();
        let args = Value::record([("d", Value::Int(100))]);
        wire::encode_invocation_into(syntax, "Deposit", &args, &mut out);
        out
    }

    fn request(syntax: SyntaxId) -> Envelope {
        Envelope::request(
            ChannelId::new(1),
            1,
            InterfaceId::new(1),
            syntax,
            invocation_payload(syntax),
        )
    }

    #[test]
    fn marshalling_stub_converts_between_syntaxes() {
        let mut stub = MarshallingStub {
            native: SyntaxId::Text,
            wire: SyntaxId::Binary,
        };
        let mut env = request(SyntaxId::Text);
        stub.on_outgoing(&mut env).unwrap();
        assert_eq!(env.syntax, SyntaxId::Binary);
        let decoded = syntax_for(SyntaxId::Binary).decode(&env.payload).unwrap();
        assert_eq!(decoded.field("op"), Some(&Value::text("Deposit")));
        stub.on_incoming(&mut env).unwrap();
        assert_eq!(env.syntax, SyntaxId::Text);
    }

    #[test]
    fn marshalling_stub_is_identity_when_syntaxes_agree() {
        let mut stub = MarshallingStub {
            native: SyntaxId::Binary,
            wire: SyntaxId::Binary,
        };
        let mut env = request(SyntaxId::Binary);
        let before = env.payload.clone();
        stub.on_outgoing(&mut env).unwrap();
        assert_eq!(env.payload, before);
    }

    #[test]
    fn sequence_binder_stamps_and_detects_replay() {
        let mut client = SequenceBinder::new();
        let mut server = SequenceBinder::new();
        let mut env = request(SyntaxId::Binary);
        client.on_outgoing(&mut env).unwrap();
        assert_eq!(env.seq, 1);
        server.on_incoming(&mut env).unwrap();
        // A captured copy replayed later is rejected.
        let mut replayed = env.clone();
        let err = server.on_incoming(&mut replayed).unwrap_err();
        assert_eq!(err, ChannelError::Replay { seq: 1 });
        // Fresh messages keep flowing.
        let mut env2 = request(SyntaxId::Binary);
        client.on_outgoing(&mut env2).unwrap();
        assert_eq!(env2.seq, 2);
        server.on_incoming(&mut env2).unwrap();
    }

    #[test]
    fn sequence_binder_remembers_only_what_arrived_ahead() {
        let mut server = SequenceBinder::new();
        let mut env = request(SyntaxId::Binary);
        let mut receive = |server: &mut SequenceBinder, seq| {
            env.seq = seq;
            server.on_incoming(&mut env)
        };
        for seq in 1..=1_000_000 {
            receive(&mut server, seq).unwrap();
        }
        assert!(server.seen_ahead.is_empty());
        assert_eq!(server.seen_through, 1_000_000);
        let replay = |seq| Err(ChannelError::Replay { seq });
        assert_eq!(receive(&mut server, 1), replay(1));
        assert_eq!(receive(&mut server, 1_000_000), replay(1_000_000));

        // 1_000_001 is late: what overtakes it is accepted once, and so
        // is the late one when it fills the gap.
        receive(&mut server, 1_000_003).unwrap();
        receive(&mut server, 1_000_002).unwrap();
        assert_eq!(receive(&mut server, 1_000_003), replay(1_000_003));
        assert_eq!(server.seen_ahead.len(), 2);
        receive(&mut server, 1_000_001).unwrap();
        assert!(server.seen_ahead.is_empty());
        assert_eq!(server.seen_through, 1_000_003);
        for seq in 1_000_001..=1_000_003 {
            assert_eq!(receive(&mut server, seq), replay(seq));
        }
        receive(&mut server, 1_000_004).unwrap();
    }

    #[test]
    fn unstamped_messages_pass_sequence_binder() {
        let mut server = SequenceBinder::new();
        let mut env = request(SyntaxId::Binary);
        assert_eq!(env.seq, 0);
        server.on_incoming(&mut env).unwrap();
        server.on_incoming(&mut env).unwrap();
    }

    #[test]
    fn audit_stub_logs_operations() {
        let mut audit = AuditStub::new();
        let mut env = request(SyntaxId::Binary);
        audit.on_outgoing(&mut env).unwrap();
        audit.on_incoming(&mut env).unwrap();
        assert_eq!(audit.entries().len(), 2);
        assert!(audit.entries()[0].contains("Deposit"));
        assert!(audit.entries()[1].contains("Deposit"));
    }

    #[test]
    fn stack_applies_outgoing_forward_incoming_reverse() {
        // Client native text, wire binary, with sequencing.
        let cfg = ChannelConfig {
            wire_syntax: SyntaxId::Binary,
            sequence: true,
            audit: true,
            retry: None,
            breaker: None,
        };
        let mut client = cfg.build_stack(SyntaxId::Text);
        let mut server = cfg.build_stack(SyntaxId::Binary);
        assert_eq!(client.len(), 3);

        let mut env = request(SyntaxId::Text);
        client.outgoing(&mut env).unwrap();
        assert_eq!(env.syntax, SyntaxId::Binary);
        assert_eq!(env.seq, 1);

        server.incoming(&mut env).unwrap();
        assert_eq!(env.syntax, SyntaxId::Binary); // server native is binary

        // Replay through the server stack is rejected by its binder.
        let mut replay = env.clone();
        // The envelope seq survived; incoming checks happen binder-first.
        replay.syntax = SyntaxId::Binary;
        let err = server.incoming(&mut replay).unwrap_err();
        assert!(matches!(err, ChannelError::Replay { .. }));
    }

    #[test]
    fn empty_stack_is_passthrough() {
        let mut stack = Stack::new();
        assert!(stack.is_empty());
        let mut env = request(SyntaxId::Binary);
        let before = env.clone();
        stack.outgoing(&mut env).unwrap();
        stack.incoming(&mut env).unwrap();
        assert_eq!(env, before);
    }

    #[test]
    fn backoff_doubles_and_caps() {
        let p = RetryPolicy::reliable();
        assert_eq!(p.backoff_delay(1), SimDuration::from_millis(2));
        assert_eq!(p.backoff_delay(2), SimDuration::from_millis(4));
        assert_eq!(p.backoff_delay(5), SimDuration::from_millis(32));
        assert_eq!(p.backoff_delay(6), SimDuration::from_millis(40));
        assert_eq!(p.backoff_delay(60), SimDuration::from_millis(40));
        let one = RetryPolicy::one_shot();
        assert_eq!(one.retries, 0);
        assert_eq!(one.backoff_delay(1), SimDuration::ZERO);
    }

    #[test]
    fn restamp_gives_retransmissions_fresh_sequence_numbers() {
        let cfg = ChannelConfig {
            wire_syntax: SyntaxId::Binary,
            sequence: true,
            audit: false,
            retry: None,
            breaker: None,
        };
        let mut client = cfg.build_stack(SyntaxId::Binary);
        let mut server = cfg.build_stack(SyntaxId::Binary);
        let mut env = request(SyntaxId::Binary);
        client.outgoing(&mut env).unwrap();
        assert_eq!(env.seq, 1);
        server.incoming(&mut env).unwrap();
        // A retransmission restamps instead of replaying seq 1.
        assert!(client.restamp(&mut env));
        assert_eq!(env.seq, 2);
        server.incoming(&mut env).unwrap();
        // A stack without binders leaves the wire form untouched.
        let mut plain = ChannelConfig::default().build_stack(SyntaxId::Binary);
        let mut env2 = request(SyntaxId::Binary);
        plain.outgoing(&mut env2).unwrap();
        assert!(!plain.restamp(&mut env2));
    }

    #[test]
    fn corrupt_payload_surfaces_codec_error() {
        let mut stub = MarshallingStub {
            native: SyntaxId::Text,
            wire: SyntaxId::Binary,
        };
        let mut env = request(SyntaxId::Text);
        env.payload = vec![0xff, 0xff].into();
        let err = stub.on_outgoing(&mut env).unwrap_err();
        assert!(matches!(err, ChannelError::Codec(_)));
        assert_eq!(
            err.to_string(),
            "channel codec failure: text decode error at byte 0: encoding is not utf-8"
        );
        assert_eq!(
            env.syntax,
            SyntaxId::Text,
            "a refused envelope is untouched"
        );
        assert_eq!(env.payload.as_bytes(), [0xff, 0xff]);
    }
}
