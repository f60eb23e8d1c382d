//! Source rules: the "one way to do it" decisions of earlier changes,
//! kept from coming back by a scan of the tree. Each row of [`RULES`]
//! names the text that must not reappear (or must stay the only copy),
//! where, and why; a hit is reported as `file:line`. Plain `std::fs` and
//! string matching, so it runs wherever `cargo test` does (CI carries no
//! copy of these rules). A second scan, the public-surface census, holds
//! every library `pub fn` to a caller outside tests or a [`KEEP`] row
//! that says why it stays.

use std::collections::{BTreeMap, BTreeSet};
use std::fs;
use std::path::{Path, PathBuf};

/// How a rule recognises an offending line.
enum Pattern {
    /// The line contains this text.
    Literal(&'static str),
    /// The line contains this text as whole words: no letter, digit or
    /// `_` touches either end of it.
    Word(&'static str),
    /// The line contains `open` and, later, `then`, with no `|` between
    /// the two: text formatted as a plain argument rather than inside a
    /// closure.
    EagerArgument {
        open: &'static str,
        then: &'static str,
    },
    /// The line calls the function of this name: `name(` appears, and not
    /// as its definition `fn name(`.
    Call(&'static str),
    /// The line names the generic type `outer` (`Cow<`) over the type
    /// `argument` (`Expr>`): `argument` follows `outer` with no `>`
    /// between them, and no letter, digit or `_` touches its start.
    TypeArgument {
        outer: &'static str,
        argument: &'static str,
    },
    /// The line spells a JSON key inside a string literal: `\"`, a key,
    /// then `\":` in an ordinary literal, or `"`, a key, then `":` inside
    /// a raw one (`r"…"`, `r#"…"#`). A key is a word (letters, digits,
    /// `_`, `.`, `-`) or a format placeholder (`{}`, `{name}`, `{:?}`).
    JsonKey,
}

impl Pattern {
    /// `raw` is the part of `line` that lies inside raw string literals.
    fn matches(&self, line: &str, raw: &str) -> bool {
        match self {
            Pattern::Literal(text) => line.contains(text),
            Pattern::Word(text) => line.match_indices(text).any(|(at, _)| {
                let word = |c: char| c.is_alphanumeric() || c == '_';
                !line[..at].ends_with(word) && !line[at + text.len()..].starts_with(word)
            }),
            Pattern::EagerArgument { open, then } => line.match_indices(open).any(|(at, _)| {
                let rest = &line[at + open.len()..];
                rest.find(then)
                    .is_some_and(|end| !rest[..end].contains('|'))
            }),
            Pattern::Call(name) => line.match_indices(name).any(|(at, _)| {
                line[at + name.len()..].starts_with('(') && !line[..at].ends_with("fn ")
            }),
            Pattern::TypeArgument { outer, argument } => {
                line.match_indices(outer).any(|(at, _)| {
                    let rest = &line[at + outer.len()..];
                    rest.match_indices(argument).any(|(end, _)| {
                        let between = &rest[..end];
                        !between.contains('>')
                            && !between.ends_with(|c: char| c.is_alphanumeric() || c == '_')
                    })
                })
            }
            Pattern::JsonKey => spells_key(line, "\\\"") || spells_key(raw, "\""),
        }
    }
}

/// Whether `text` holds `quote`, a key (see [`Pattern::JsonKey`]),
/// `quote` again and a colon.
fn spells_key(text: &str, quote: &str) -> bool {
    text.match_indices(quote).any(|(at, _)| {
        let key = &text[at + quote.len()..];
        let end = key
            .find(|c: char| !(c.is_alphanumeric() || "_.-{}:?".contains(c)))
            .unwrap_or(key.len());
        end > 0 && key[end..].starts_with(quote) && key[end + quote.len()..].starts_with(':')
    })
}

/// For each line of `text`, the characters that lie inside a raw string
/// literal (`r"…"`, `r#"…"#`, `br"…"`), which may span lines.
fn raw_string_parts(text: &str) -> Vec<String> {
    let mut closer: Option<String> = None;
    let mut parts = Vec::new();
    for line in text.lines() {
        let mut part = String::new();
        let mut rest = line;
        loop {
            if let Some(close) = &closer {
                let Some(end) = rest.find(close.as_str()) else {
                    part.push_str(rest);
                    break;
                };
                part.push_str(&rest[..end]);
                part.push(' ');
                rest = &rest[end + close.len()..];
                closer = None;
            } else {
                let Some((at, hashes)) = raw_string_opener(rest) else {
                    break;
                };
                rest = &rest[at + 2 + hashes..];
                closer = Some(format!("\"{}", "#".repeat(hashes)));
            }
        }
        parts.push(part);
    }
    parts
}

/// The first `r`, `#`s, `"` in `line` that opens a raw string: its offset
/// and how many `#`s it has. The `r` may follow `b`, not another word
/// character.
fn raw_string_opener(line: &str) -> Option<(usize, usize)> {
    line.match_indices('r').find_map(|(at, _)| {
        let before = line[..at].strip_suffix('b').unwrap_or(&line[..at]);
        if before.ends_with(|c: char| c.is_alphanumeric() || c == '_') {
            return None;
        }
        let after = &line[at + 1..];
        let hashes = after.len() - after.trim_start_matches('#').len();
        after[hashes..].starts_with('"').then_some((at, hashes))
    })
}

struct Rule {
    name: &'static str,
    /// What to do instead; printed with every hit.
    why: &'static str,
    /// Directories (searched recursively for `.rs` files) or single
    /// files of any kind, relative to the repository root; one `*` stands
    /// for every directory at that level.
    roots: &'static [&'static str],
    patterns: &'static [Pattern],
    /// Files the rule does not apply to (where the one copy lives).
    exempt: &'static [&'static str],
    /// Only the part of a file above its `#[cfg(test)]` line is held to
    /// the rule.
    above_tests_only: bool,
    /// How many lines under the roots hold one of the patterns: 0 for
    /// text that is gone, 1 for text whose one copy must stay the only one.
    copies: usize,
}

use Pattern::{Call, EagerArgument, JsonKey, Literal, TypeArgument, Word};

const SRC: &[&str] = &["crates/*/src", "src"];

const ONE_CALL_PATH: &str = "an interrogation, blocking or asynchronous, opens in \
                             `Engine::open` and closes in `Engine::close`: one `CallStart` \
                             site, one `CallEnd` site, one place that counts a call \
                             (DESIGN.md, \"One call record, two steps\")";

const ONE_ENTRY_POINT: &str = "every suite configuration, committed and full, is a row of \
                               `ARTIFACTS` (crates/bench/src/artifacts.rs) and the \
                               `baselines` bin is the one way to run it: `baselines \
                               [--full] <DIR> [NAME…]`, read by `artifacts::select`";

const ONE_MEASUREMENT_SYSTEM: &str = "a count is pinned in a row of `ARTIFACTS` \
                                      (crates/bench/src/artifacts.rs) and wall-clock time \
                                      is measured in benchmark/: no `[[bench]]` target, no \
                                      criterion, no crates/*/benches";

const RULES: &[Rule] = &[
    Rule {
        name: "event details are format arguments",
        why: "formatted event text goes in as `.detail_fmt(format_args!(…))`, which the bus \
              formats only for an event it keeps, or as `.detail_deferred(|| facts, render)`, \
              which it renders only when read; `.detail(format!(…))` builds it whether or not \
              anyone records it, and so does `.record(…, format!(…))`: pass a closure there \
              (DESIGN.md, \"Observability\")",
        roots: SRC,
        patterns: &[
            Literal(".detail(format!"),
            Literal(".detail(&format!"),
            Literal(".detail_with("),
            EagerArgument {
                open: ".record(",
                then: "format!",
            },
        ],
        exempt: &[],
        above_tests_only: false,
        copies: 0,
    },
    Rule {
        name: "notes are closures",
        why: "`Ctx::note` takes a closure and calls it only while the bus records: write \
              `ctx.note(|| format!(…))`",
        roots: SRC,
        patterns: &[Literal(".note(format!")],
        exempt: &[],
        above_tests_only: false,
        copies: 0,
    },
    Rule {
        name: "imports share offers",
        why: "an import shares offers (`Arc::clone`), it never copies one",
        roots: &["crates/trader/src"],
        patterns: &[Literal("offer.clone()")],
        exempt: &[],
        above_tests_only: false,
        copies: 0,
    },
    Rule {
        name: "flat offer repository",
        why: "offers live in a slab indexed by the raw offer id and every posting list is one \
              ascending `Vec<OfferId>`: no node-per-entry container keyed by or holding offer \
              ids (DESIGN.md, \"Trader at scale\")",
        roots: &["crates/trader/src"],
        patterns: &[Literal("BTreeSet<OfferId>"), Literal("BTreeMap<OfferId")],
        exempt: &[],
        above_tests_only: true,
        copies: 0,
    },
    Rule {
        name: "the residual is set up once",
        why: "`Trader::import` sets the request up once (`Residual`: the kept conjuncts, each \
              judged by `Expr::holds`, and the preference scored by `Expr::value`); \
              `residual_match`, which binds every variable and evaluates the whole constraint, \
              is the reference scan's alone, called once, in `import_scan` (DESIGN.md, \
              \"Trader at scale\")",
        roots: &["crates/trader/src"],
        patterns: &[Call("residual_match")],
        exempt: &[],
        above_tests_only: true,
        copies: 1,
    },
    Rule {
        name: "one judge of an exact atom",
        why: "`plan::serves_exactly` alone decides which conjuncts leave the residual: it is \
              called once, on the one line that sets `IndexStep::exact`, and `Trader::import` \
              builds its one `Residual` only from the conjuncts the plan kept \
              (`Residual::new(&planned.residual, …)`); a second caller, a second writer of \
              `exact`, or a second `Residual` (say, of the whole constraint) is a second way to \
              drop or keep a conjunct (DESIGN.md, \"Trader at scale\", step 4)",
        roots: &["crates/trader/src"],
        patterns: &[
            Call("serves_exactly"),
            Literal("exact ="),
            Call("Residual::new"),
        ],
        exempt: &[],
        above_tests_only: true,
        copies: 2,
    },
    Rule {
        name: "one match order",
        why: "matches are ordered by `trader::match_order` alone — the one `total_cmp` of a \
              score — and cut by `keep_best`, which picks an ordered request's best `k` before \
              any offer is shared; the full sort and truncate (`order_matches`) is the \
              reference scan's, called once, in `import_scan` (DESIGN.md, \"Trader at scale\")",
        roots: &["crates/trader/src"],
        patterns: &[Literal("total_cmp("), Call("order_matches")],
        exempt: &[],
        above_tests_only: true,
        copies: 2,
    },
    Rule {
        name: "one numeric semantics",
        why: "numbers are combined and compared by one kernel, `Num` in \
              crates/core/src/expr/eval.rs, whose seven lines hold the expression language's \
              only wrapping `+ - * / %`, float ordering and widening cast; the walker's \
              `arithmetic` and `comparison` call it for every pair of numbers, and the fast \
              paths (`truth`, `operand`) read their operands to a `Num` and call it too. An \
              eighth such line is a second copy of those rules, free to drift from the first, \
              and a fast-path-against-walker test would not say which one is right \
              (DESIGN.md, \"Trader at scale\", step 4)",
        roots: &["crates/core/src/expr"],
        patterns: &[
            Literal("wrapping_add"),
            Literal("wrapping_sub"),
            Literal("wrapping_mul"),
            Literal("wrapping_div"),
            Literal("wrapping_rem"),
            Literal("partial_cmp"),
            Literal("as f64"),
        ],
        exempt: &[],
        above_tests_only: false,
        copies: 7,
    },
    Rule {
        name: "schemas evaluate once",
        why: "an invariant, a guard and an effect are each evaluated once, by \
              `Expr::eval_bool` or `Expr::eval`, which run the error-free fast path and walk \
              the tree only to build the error of one that fails: one call each, and no \
              second pass to recover an error (DESIGN.md, \"Schemas evaluate once, \
              transitions in place\")",
        roots: &["crates/information/src"],
        patterns: &[Literal(".eval("), Literal(".eval_bool(")],
        exempt: &[],
        above_tests_only: true,
        copies: 3,
    },
    Rule {
        name: "one expression tree",
        why: "an expression is its `Expr` tree and nothing else: `Expr::eval_bool`/`eval` \
              and the error-free `Expr::holds`/`value` all run over it, so there is no \
              compiled copy to keep beside it (`Predicate<…>`, `Term<…>`, `mod compile`) and \
              no `Cow<…, Expr>` for a copy to borrow and then own (DESIGN.md, \"Schemas \
              evaluate once, transitions in place\")",
        roots: SRC,
        patterns: &[
            Literal("Predicate<"),
            Literal("Term<"),
            Literal("mod compile"),
            TypeArgument {
                outer: "Cow<",
                argument: "Expr>",
            },
        ],
        exempt: &[],
        above_tests_only: false,
        copies: 0,
    },
    Rule {
        name: "`Scope` does not come back",
        why: "`expr::Scope` is gone: a transition reads through `Transition`/`Successor`, a \
              plain binding set is a `Value` record or a `BTreeMap`",
        roots: &["crates/*/src"],
        patterns: &[Literal("Scope")],
        exempt: &[],
        above_tests_only: false,
        copies: 0,
    },
    Rule {
        name: "one hash module",
        why: "FNV-1a and the word-wise checksum live in crates/observe/src/hash.rs (re-exported \
              as rmodp_kernel::hash): use them instead of a private copy",
        roots: &["crates", "src"],
        patterns: &[Literal("cbf2_9ce4_8422_2325")],
        exempt: &["crates/observe/src/hash.rs"],
        above_tests_only: false,
        copies: 0,
    },
    Rule {
        name: "one netsim trace",
        why: "the observe bus is the only netsim trace: read rmodp_observe::bus",
        roots: SRC,
        patterns: &[Literal("TraceEntry"), Literal("set_tracing")],
        exempt: &[],
        above_tests_only: false,
        copies: 0,
    },
    Rule {
        name: "one frame",
        why: "the [flagged len][checksum][payload] header is assembled in log/frame.rs and \
              nowhere else: call log::frame::frame_into / unframe",
        roots: &["crates/store/src", "crates/transactions/src"],
        patterns: &[Literal("len() as u32).to_le_bytes()")],
        exempt: &["crates/transactions/src/log/frame.rs"],
        above_tests_only: false,
        copies: 0,
    },
    Rule {
        name: "frames are checksummed word-wise",
        why: "a frame is written with hash::word_checksum (frame_into sets the version flag); \
              byte-at-a-time FNV-1a is read only by unframe, for unflagged frames of older \
              media (DESIGN.md, \"Durable state: one log, one crash model\")",
        roots: &[
            "crates/transactions/src",
            "crates/store/src/engine.rs",
            "crates/store/src/snapshot.rs",
        ],
        patterns: &[Call("fnv1a")],
        exempt: &[],
        above_tests_only: true,
        copies: 1,
    },
    Rule {
        name: "log records are not Value documents",
        why: "a log record goes from its parts to the media bytes: write it with \
              codec::binary::Writer (DESIGN.md, \"The byte path\")",
        roots: &["crates/transactions/src/log.rs"],
        patterns: &[Literal("to_value("), Literal("from_value(")],
        exempt: &[],
        above_tests_only: false,
        copies: 0,
    },
    Rule {
        name: "the store copies no Value",
        why: "outside their tests the engine and the snapshot codec copy no Value and reach \
              the codec as `BinarySyntax`, never through `syntax_for`: a value is encoded once, \
              by `put`, and built only where `get` decodes it (DESIGN.md, \"The byte path\")",
        roots: &["crates/store/src/engine.rs", "crates/store/src/snapshot.rs"],
        patterns: &[
            Literal("syntax_for(SyntaxId::Binary)"),
            Literal(".cloned()"),
            Literal(".clone()"),
        ],
        exempt: &[],
        above_tests_only: true,
        copies: 0,
    },
    Rule {
        name: "the keyspace holds canonical bytes",
        why: "the keyspace holds each value's canonical binary encoding (`Keyspace`), and a \
              snapshot value is read by `Reader::value_span`, which checks it with the one \
              parser and builds nothing: no map of `Value`s, no `Reader::value` (DESIGN.md, \
              \"Durable state\")",
        roots: &["crates/store/src/engine.rs", "crates/store/src/snapshot.rs"],
        patterns: &[Literal("BTreeMap<String, Value>"), Literal(".value()")],
        exempt: &[],
        above_tests_only: false,
        copies: 0,
    },
    Rule {
        name: "one log, one storage seam",
        why: "the in-memory log and the versioned storage function are gone (DESIGN.md, \
              \"Durable state: one log, one crash model\")",
        roots: &["crates/*/src"],
        patterns: &[
            Literal("from_records"),
            Literal("stable_len"),
            Literal("put_if"),
            Literal("get_version"),
        ],
        exempt: &[],
        above_tests_only: false,
        copies: 0,
    },
    Rule {
        name: "one golden gate",
        why: "tests/baselines is the only committed copy of the artifacts and \
              crates/bench/tests/golden.rs compares it with == on bytes: add a row to \
              crates/bench/src/artifacts.rs, not a second gate or fixture copy",
        roots: &["crates/*/src", "crates/*/tests", "src", "tests"],
        patterns: &[
            Literal("tests/fixtures"),
            Literal("perf_gate"),
            Literal("struct Band"),
        ],
        exempt: &[],
        above_tests_only: false,
        copies: 0,
    },
    Rule {
        name: "one measurement system",
        why: ONE_MEASUREMENT_SYSTEM,
        roots: &[
            "Cargo.toml",
            "crates/*/Cargo.toml",
            "crates/compat/*/Cargo.toml",
        ],
        patterns: &[Literal("[[bench]]"), Word("criterion")],
        exempt: &[],
        above_tests_only: false,
        copies: 0,
    },
    Rule {
        name: "no host clock in a deterministic suite",
        why: "wall-clock time is measured in benchmark/, not under crates/bench/src",
        roots: &["crates/bench/src"],
        patterns: &[
            Literal("Instant"),
            Literal("SystemTime"),
            Literal("--measure"),
        ],
        exempt: &[],
        above_tests_only: false,
        copies: 0,
    },
    Rule {
        name: "one artifact entry point",
        why: ONE_ENTRY_POINT,
        roots: &["crates/bench/src"],
        patterns: &[Call("env::args")],
        exempt: &[],
        above_tests_only: false,
        copies: 1,
    },
    Rule {
        name: "one artifact entry point, no second set of defaults",
        why: ONE_ENTRY_POINT,
        roots: &["crates/bench/src"],
        patterns: &[
            Literal("pub mod cli"),
            Literal("DEFAULT_SEED"),
            Literal("impl Default for TraderBenchConfig"),
            Literal("impl Default for Oo7BenchConfig"),
            Literal("impl Default for PopulationBenchConfig"),
        ],
        exempt: &[],
        above_tests_only: false,
        copies: 0,
    },
    Rule {
        name: "one epoch loop",
        why: "the sharded kernel's loop is `drive` and its per-shard round is `serve`, shared \
              by both runners; faults are a timeline value, not a trait: `FaultPlan::timeline` \
              compiles it, and one queue plays the same value through `Sim::schedule_action` \
              (DESIGN.md, \"Sharded kernel\")",
        roots: &["crates/kernel/src"],
        patterns: &[
            Literal("fn run_serial"),
            Literal("fn run_threaded"),
            Literal("enum Cmd"),
            Literal("trait EpochHook"),
        ],
        exempt: &[],
        above_tests_only: false,
        copies: 0,
    },
    Rule {
        name: "records are flat",
        why: "a record is `value::Record`, one vector sorted by name: neither the value model \
              nor a decoder builds a map (DESIGN.md, \"The value model: a record is a sorted \
              vector\")",
        roots: &["crates/core/src/value.rs", "crates/core/src/codec"],
        patterns: &[
            Literal("BTreeMap<String, Value>"),
            Literal("BTreeMap::new()"),
        ],
        exempt: &[],
        above_tests_only: true,
        copies: 0,
    },
    Rule {
        name: "record names are inline",
        why: "a record's entry is `(Name, Value)`: a name of up to 22 bytes is held in place, \
              and a decoder copies the borrowed key into it (`Name::new`) rather than owning a \
              `String` per field (DESIGN.md, \"The value model: a record is a sorted vector\")",
        roots: &["crates/core/src/value.rs", "crates/core/src/codec"],
        patterns: &[Literal("Vec<(String, Value)>"), Literal("key.into_owned()")],
        exempt: &[],
        above_tests_only: true,
        copies: 0,
    },
    Rule {
        name: "no unsafe in the library",
        why: "the library is safe Rust: an inline name is checked as UTF-8 where it becomes a \
              `&str`, not trusted (DESIGN.md, \"The value model: a record is a sorted vector\"); \
              a test's counting allocator lives under its crate's tests/",
        roots: SRC,
        patterns: &[
            Literal("unsafe {"),
            Literal("unsafe fn"),
            Literal("unsafe impl"),
        ],
        exempt: &[],
        above_tests_only: false,
        copies: 0,
    },
    Rule {
        name: "wire records are written from their parts",
        why: "an invocation or termination record goes to its bytes through the codecs' \
              `Writer`s, borrowing `args` and `results`: no `{op, args}` wrapper value, no copy \
              of the arguments for the encoder (DESIGN.md, \"One invocation path\")",
        roots: &[
            "crates/engineering/src/wire.rs",
            "crates/engineering/src/engine.rs",
        ],
        patterns: &[Literal("Value::record("), Literal("args.clone(), &mut")],
        exempt: &[],
        above_tests_only: true,
        copies: 0,
    },
    Rule {
        name: "one guard",
        why: "`FailureGuard` over any `PersistentStore`, with or without `log_op`, is the only \
              guard, and the §8.1 management functions are `Engine`'s own methods (DESIGN.md, \
              \"Failure and persistence: one guard, one checkpoint store\")",
        roots: &["crates/*/src"],
        patterns: &[
            Literal("DurableGuard"),
            Literal("DurableError"),
            Literal("struct ManagementFunctions"),
        ],
        exempt: &[],
        above_tests_only: false,
        copies: 0,
    },
    Rule {
        name: "one checkpoint store",
        why: "a cluster checkpoint goes into and out of a store through \
              rmodp_functions::checkpoints::{store, load}, which own the byte form's use and the \
              NotStored/Corrupt answers",
        roots: &["crates/*/src"],
        patterns: &[Literal("encode_checkpoint("), Literal("decode_checkpoint(")],
        exempt: &[
            "crates/engineering/src/structure.rs",
            "crates/functions/src/checkpoints.rs",
        ],
        above_tests_only: true,
        copies: 0,
    },
    Rule {
        name: "the stub holds no document",
        why: "a marshalling stub takes a payload from one syntax to the other with \
              codec::transcode, in one pass: it decodes nothing (DESIGN.md, \"One invocation \
              path\")",
        roots: &["crates/engineering/src/channel.rs"],
        patterns: &[Literal(".decode(")],
        exempt: &[],
        above_tests_only: true,
        copies: 0,
    },
    Rule {
        name: "the text grammar is written once",
        why: "a syntax is read by one parser folded over a `Builder` — `decode` and `transcode` \
              are two builders, not two parsers (DESIGN.md, \"A decoder is a parser folded over \
              a builder\")",
        roots: &["crates/core/src/codec"],
        patterns: &[Literal("fn string_body")],
        exempt: &[],
        above_tests_only: false,
        copies: 1,
    },
    Rule {
        name: "one replication path",
        why: "replication transparency is the quorum group alone: `quorum_counters`, \
              `quorum_update`, `quorum_read`, `fail_over`; the no-quorum fan-out, its policy \
              enum and round-robin reads are gone (DESIGN.md, \"One invocation path\", the \
              collapse triage)",
        roots: &["crates/*/src", "src", "examples"],
        patterns: &[
            Literal("ReplicationPolicy"),
            Literal("replicated_counters"),
            Literal("read_target"),
            Literal("fn read_all"),
        ],
        exempt: &[],
        above_tests_only: false,
        copies: 0,
    },
    Rule {
        name: "one JSON writer",
        why: "JSON syntax lives in rmodp_observe::json alone: render an artifact, report or \
              trace line with `json!`/`json_into!` or a `ToJson` impl, not a string that \
              spells its keys (DESIGN.md, \"One JSON writer\")",
        roots: SRC,
        patterns: &[JsonKey],
        exempt: &["crates/observe/src/json.rs"],
        above_tests_only: true,
        copies: 0,
    },
    Rule {
        name: "one fault path",
        why: "a fault plan compiles once, in `FaultPlan::timeline`, to network actions that \
              `Sim::apply_action` alone applies: one queue plays them from its own schedule \
              (`FaultPlan::schedule_on`), N shards at their barriers; no injector steps a \
              run to a fault, and no chaos code edits a link itself (DESIGN.md, \"One fault \
              timeline\")",
        roots: &["crates/chaos"],
        patterns: &[
            Literal("FaultInjector"),
            Call("execute_with"),
            Literal("topology_mut().set_link("),
        ],
        exempt: &[],
        above_tests_only: false,
        copies: 0,
    },
    Rule {
        name: "one schedule",
        why: "the simulator's event queue is the one schedule: a load driver is a loop that \
              runs it to its next instant (`run_until`) or steps it while replies are due, \
              and a fault plan's actions are entries of it; no scheduler, actor or world \
              trait sits on top (DESIGN.md, \"Who plays it\")",
        roots: &["crates/*/src", "src", "examples"],
        patterns: &[
            Word("trait Actor"),
            Word("trait World"),
            Word("impl World for"),
            Word("struct Kernel"),
            Word("Kernel::new("),
            Word("impl Actor<Engine>"),
        ],
        exempt: &[],
        above_tests_only: false,
        copies: 0,
    },
    Rule {
        name: "an oracle judges what it is handed",
        why: "an oracle is a function of the events and counters its caller passes \
              (`bus::snapshot_events()`, `bus::snapshot_metrics()` at the call site), so it \
              judges a merged shard stream or a replayed one unchanged; its report is a \
              `Verdict` that renders only through `ToJson` (DESIGN.md, \"One verdict shape\")",
        roots: &[
            "crates/observe/src/oracle.rs",
            "crates/chaos/src/oracle.rs",
            "crates/chaos/src/linear.rs",
            "crates/workload/src/slo.rs",
        ],
        patterns: &[Literal("bus::"), Literal("fn render")],
        exempt: &[],
        above_tests_only: true,
        copies: 0,
    },
    Rule {
        name: "one call path opens a call",
        why: ONE_CALL_PATH,
        roots: &["crates/engineering/src/engine.rs"],
        patterns: &[Literal("EventKind::CallStart")],
        exempt: &[],
        above_tests_only: true,
        copies: 1,
    },
    Rule {
        name: "one call path closes a call",
        why: ONE_CALL_PATH,
        roots: &["crates/engineering/src/engine.rs"],
        patterns: &[Literal("EventKind::CallEnd")],
        exempt: &[],
        above_tests_only: true,
        copies: 1,
    },
    Rule {
        name: "one call path, no second one",
        why: ONE_CALL_PATH,
        roots: SRC,
        patterns: &[
            Literal("fn call_inner"),
            Literal("fn call_attempts"),
            Literal("calls_async"),
            Literal("mode=async"),
        ],
        exempt: &[],
        above_tests_only: false,
        copies: 0,
    },
    Rule {
        name: "the binary layout is read once",
        why: "as for the text grammar: `Reader::value_at` is the one reading of the layout",
        roots: &["crates/core/src/codec"],
        patterns: &[Literal("TAG_RECORD =>")],
        exempt: &[],
        above_tests_only: false,
        copies: 1,
    },
];

/// This file quotes every forbidden text.
const SELF: &str = "tests/source_rules.rs";

/// The 1-based numbers of the lines of `text` that hold one of the
/// rule's patterns.
fn offending_lines(rule: &Rule, text: &str) -> Vec<usize> {
    let raw = raw_string_parts(text);
    text.lines()
        .take_while(|line| !(rule.above_tests_only && line.trim() == "#[cfg(test)]"))
        .enumerate()
        .filter(|(i, line)| rule.patterns.iter().any(|p| p.matches(line, &raw[*i])))
        .map(|(i, _)| i + 1)
        .collect()
}

/// Expands one root (see [`Rule::roots`]) into the `.rs` files under it,
/// or the file it names, sorted, skipping build output.
fn rust_files(repo: &Path, root: &str) -> Vec<PathBuf> {
    let mut dirs = vec![repo.to_path_buf()];
    for part in root.split('/') {
        dirs = dirs
            .into_iter()
            .flat_map(|dir| match part {
                "*" => children(&dir),
                _ => vec![dir.join(part)],
            })
            .filter(|p| p.exists())
            .collect();
    }
    let (mut dirs, mut files): (Vec<_>, Vec<_>) = dirs.into_iter().partition(|p| p.is_dir());
    while let Some(path) = dirs.pop() {
        if path.is_dir() {
            if path.file_name().is_some_and(|n| n != "target") {
                dirs.extend(children(&path));
            }
        } else if path.extension().is_some_and(|e| e == "rs") {
            files.push(path);
        }
    }
    files.sort();
    files
}

/// The `crates/*/benches` directories under `repo`: where a bench target
/// of a second measurement system would live.
fn bench_dirs(repo: &Path) -> Vec<PathBuf> {
    let crates = children(&repo.join("crates")).into_iter();
    crates
        .map(|c| c.join("benches"))
        .filter(|d| d.is_dir())
        .collect()
}

fn children(dir: &Path) -> Vec<PathBuf> {
    fs::read_dir(dir)
        .map(|entries| entries.flatten().map(|e| e.path()).collect())
        .unwrap_or_default()
}

#[test]
fn the_tree_keeps_every_source_rule() {
    let repo = Path::new(env!("CARGO_MANIFEST_DIR"));
    let mut report = String::new();
    let mut scanned = 0;
    for rule in RULES {
        let mut hits = Vec::new();
        for root in rule.roots {
            let files = rust_files(repo, root);
            assert!(
                !files.is_empty(),
                "rule {:?}: nothing under {root}",
                rule.name
            );
            for file in files {
                let shown = file.strip_prefix(repo).expect("under the repository");
                let shown = shown.to_string_lossy().replace('\\', "/");
                if shown == SELF || rule.exempt.contains(&shown.as_str()) {
                    continue;
                }
                scanned += 1;
                let text = fs::read_to_string(&file).expect("readable source file");
                let lines = offending_lines(rule, &text).into_iter();
                hits.extend(lines.map(|line| format!("{shown}:{line}")));
            }
        }
        if rule.copies == 0 {
            for hit in hits {
                report.push_str(&format!("{hit}: {} — {}\n", rule.name, rule.why));
            }
        } else if hits.len() != rule.copies {
            let found = format!("{} copies, not {}: {hits:?}", hits.len(), rule.copies);
            report.push_str(&format!("{}: {found} — {}\n", rule.name, rule.why));
        }
    }
    if repo.join("tests/fixtures").exists() {
        report.push_str("tests/fixtures: a second copy of the artifacts (one golden gate)\n");
    }
    for dir in bench_dirs(repo) {
        let shown = dir
            .strip_prefix(repo)
            .expect("under the repository")
            .display();
        report.push_str(&format!(
            "{shown}: one measurement system — {ONE_MEASUREMENT_SYSTEM}\n"
        ));
    }
    assert!(scanned > 100, "only {scanned} files scanned");
    assert!(report.is_empty(), "source rules broken:\n{report}");
}

/// The code outside tests that may call a library `pub fn`: the library
/// itself and what runs it.
const CALLERS: &[&str] = &["crates/*/src", "src", "examples", "benchmark/src"];

/// The library `pub fn`s no code in [`CALLERS`] calls, kept on purpose:
/// each row is `Owner::name: why it stays`, the owner being the type
/// whose `impl` defines it or a free function's module (see
/// [`census`]). Any other `pub fn` under [`SRC`] without a caller fails
/// the census: delete it, or add a row here.
const KEEP: &[&str] = &[
    // Named by the paper: the viewpoint languages and the ODP functions.
    "ActionRequest::new: §3, an action: an actor and the action it performs",
    "PolicyEngine::revoke: §3, a performative action withdrawing a policy",
    "ActionRequest::with_context: §3, the context of an action, which a policy's condition \
     ranges over",
    "Decision::is_allowed: §3, whether permissions and prohibitions let an action proceed",
    "Community::unassign: §3, an object leaves a community role",
    "AssociationSet::new: §4, an association's set of links",
    "AssociationSet::link: §4, adding an association link under its cardinalities",
    "AssociationSet::unlink: §4, removing an association link",
    "CompositeSchema::components: §4, the component schemas a composition relates",
    "CompositeSchema::associations: §4, the associations of a composition",
    "information::branch_composite: §4, the bank branch as a composite schema",
    "activity::execute: §5, an activity (sequence, fork, join, spawn) run",
    "Binding::establish: §5, a primitive binding between compatible interfaces",
    "BindingEndpoint::new: §5, a party to a binding",
    "BindingObject::new: §5, a binding object",
    "BindingObject::control: §5, a binding object's control interface",
    "BindingObject::add_endpoint: §5, a binding object gains a party",
    "BindingObject::remove_endpoint: §5, a binding object loses a party",
    "Engine::announce: §5.1, an announcement: an invocation with no termination",
    "notation::parse_interface_type: §5.1, the interface-type notation",
    "SignalSignature::new: §5.1, a signal interface signature, built only here",
    "SignalSignature::signal: §5.1, a signal interface's signals",
    "OperationSignature::check_args: §5.1, an invocation checked against its signature",
    "OperationSignature::check_termination: §5.1, a termination checked against its signature",
    "DataType::is_subtype_of: §5.1.1, data subtyping with interface refs equal by name",
    "ObjectTemplate::interface: §5.2, an object template's interface template by name",
    "ObjectTemplate::instantiate: §5.2, creating an object",
    "ComputationalObject::state: §5.2, reading the state of an object",
    "ComputationalObject::state_mut: §5.2, writing the state of an object",
    "ComputationalObject::interface: §5.2, an object's interface by its template",
    "ComputationalObject::create_interface: §5.2, creating an interface",
    "ComputationalObject::destroy_interface: §5.2, deleting an interface",
    "computational::branch_template: Figure 2, the bank branch object template",
    "AuditStub::entries: Figure 4, the log an auditing stub keeps of what crosses it",
    "StructurePolicy::single_object_capsules: §6, the one-object-per-capsule profile",
    "Engine::with_policy: §6.2, an engine whose nodes keep a structuring policy",
    "NucleusProcess::remove_object: §6.2, the nucleus deletes an object",
    "management::coordinated_checkpoint: §8.1, checkpointing a set of clusters",
    "management::coordinated_restore: §8.1, recovering a set of clusters",
    "management::store_checkpoint: §8.1, a checkpoint put in the storage function",
    "EventNotifier::subscribe: §8.2, event notification",
    "EventNotifier::unsubscribe: §8.2, event notification",
    "EventNotifier::poll: §8.2, event notification",
    "GroupManager::leave: §8.2, a failed member drops out of a replica group's view",
    "FileMedia::open: §8.2.1, the storage function's on-disk medium, which only this opens",
    "StoreEngine::abort: §8.2.1, a transaction aborted on the durable store",
    "RelationshipRepository::relate: §8.3, the relationship repository",
    "RelationshipRepository::unrelate: §8.3, the relationship repository",
    "RelationshipRepository::holds: §8.3, the relationship repository's query",
    "RelationshipRepository::reachable: §8.3, the relationship repository's closure query",
    "TypeRepository::relate: §8.3.1, a relationship between types",
    "TypeRepository::relationships: §8.3.1, the recorded relationships between types",
    "TypeRepository::unregister: §8.3.1, the type repository",
    "Trader::declare_property_type: §8.3.2, a service type's property types",
    "Trader::property_type: §8.3.2, a service type's property types",
    "Trader::check_request: §8.3.2, an import type-checked against its service type",
    "NamingContext::bind: §8.3.3, naming for the relocator's white pages",
    "NamingContext::resolve: §8.3.3, naming for the relocator's white pages",
    "NamingContext::unbind: §8.3.3, naming for the relocator's white pages",
    "Authenticator::new: §8.4, authentication, with a token lifetime",
    "Authenticator::enrol: §8.4, authentication",
    "Authenticator::authenticate: §8.4, authentication",
    "Authenticator::validate: §8.4, a token checked against virtual time",
    "Authenticator::revoke: §8.4, withdrawing a credential",
    "AccessController::allow_principal: §8.4, access control",
    "AccessController::allow_role: §8.4, access control",
    "AccessController::assign_role: §8.4, access control",
    "AccessController::check: §8.4, an access-control decision, audited",
    "AccessController::audit: §8.4, the security audit trail",
    "PersistenceManager::deactivate_to_storage: §9, persistence transparency",
    "Relocator::deactivate: §9.2, a deactivated interface leaves the white pages",
    "transaction::in_transaction: §9.3, transaction transparency: a body run in a \
     transaction, retried when it loses a deadlock",
    "TxContext::read: §9.3, a read inside a transparent transaction",
    "TxContext::write: §9.3, a write inside a transparent transaction",
    "transaction::transfer: §9.3, the transaction transparency example",
    // Observation points: what tests read behaviour through.
    "FailureGuard::pending_ops: the failure guard's ops logged since its checkpoint",
    "FailureGuard::lost_updates: the loss window of a guard that logs nothing, measured",
    "Engine::calls_in_flight: the engine's uncollected asynchronous calls",
    "NucleusProcess::dedup_len: how many request outcomes a nucleus's dedup cache holds",
    "NucleusProcess::set_dedup_capacity: the dedup cache's bound, which the sustained-load \
     test shrinks so that eviction happens",
    "DriverProcess::awaiting: the replies a node's driver still waits for",
    "Stack::component: a channel component read by type, such as an audit stub",
    "EventNotifier::history: the notifications a topic has carried",
    "PolicyEngine::audit: the policy engine's decision trail",
    "PropertyIndex::entries: an index's size, held to the offers it indexes",
    "MemMedia::synced_len: the WAL bytes a crash keeps",
    "MemMedia::truncate_wal: the crash point of the crash-at-every-prefix tests",
    "Payload::shares_buffer_with: whether a payload was copied",
    "PartitionMap::round_robin: the partition the kernel's shard tests run under",
    "bus::now_us: the bus's clock, which the event queue's pops drive",
    "bus::take_events: the bus's buffered events, drained",
    "bus::peak_trace_events: the bus's bounded-collection high-water mark",
    "bus::peak_trace_bytes: the bus's bounded-collection high-water mark",
    "Registry::histogram: a histogram read by name, as counters are",
    "InvocationProfile::segment: a profile's attribution to one segment",
    "InvocationProfile::segment_sum: a profile's attribution, summed",
    "rmodp_profile::attribution_table: the profile rendered, pinned byte for byte",
    "rmodp_profile::folded_stacks: the profile rendered, pinned byte for byte",
    // References a test compares against.
    "ShardedFederation::import_all: the unrouted broadcast the routed sharded import must \
     agree with",
    "InformationObject::replay_consistent: the replayed transition log the recovered state \
     must equal",
    // Open ROADMAP items that build on them.
    "FaultPlan::timeline: item 13, one fault path at any shard count: the timeline a \
     sharded population run is handed",
    "population::run_population_with: item 13, one fault path at any shard count: a \
     population run under a fault timeline",
];

/// The name a line defines as a `pub fn` (or `pub const fn`), if any.
fn defined_pub_fn(line: &str) -> Option<&str> {
    let rest = line.trim_start().strip_prefix("pub ")?;
    let rest = rest.strip_prefix("const ").unwrap_or(rest);
    let rest = rest.strip_prefix("fn ")?;
    let end = rest
        .find(|c: char| !(c.is_alphanumeric() || c == '_'))
        .unwrap_or(rest.len());
    Some(&rest[..end])
}

/// The identifiers of a line's code before any `//`, each with the byte
/// offset it starts at.
fn words(line: &str) -> Vec<(usize, &str)> {
    let code = line.split("//").next().unwrap_or_default();
    let mut words = Vec::new();
    let mut start = None;
    for (at, c) in code.char_indices().chain([(code.len(), ' ')]) {
        match (start, c.is_alphanumeric() || c == '_') {
            (None, true) => start = Some(at),
            (Some(from), false) => {
                words.push((from, &code[from..at]));
                start = None;
            }
            _ => {}
        }
    }
    words
}

/// The identifiers a line uses: those of its code before any `//`,
/// except a name that follows `fn ` (which it defines).
fn used_names(line: &str) -> Vec<&str> {
    words(line)
        .into_iter()
        .filter(|&(at, _)| !line[..at].ends_with("fn "))
        .map(|(_, name)| name)
        .collect()
}

/// The names a line calls or refers to as functions: a word followed by
/// `(` or by `::<…>(`, a word after `::`, and every word of a `use` item
/// (`in_use`); not a variable, a field or a definition. Each comes with
/// the type it is called on when the line spells one (`Type::name`).
fn called_names(line: &str, in_use: bool) -> Vec<(Option<&str>, &str)> {
    let mut calls = Vec::new();
    for (at, name) in words(line) {
        let (before, after) = (&line[..at], line[at + name.len()..].trim_start());
        let turbofish_call = after.strip_prefix("::").is_some_and(|generics| {
            let mut depth = 0;
            let close = generics.char_indices().find_map(|(at, c)| {
                depth += i32::from(c == '<') - i32::from(c == '>');
                (depth == 0).then_some(at)
            });
            close.is_some_and(|at| generics[at + 1..].trim_start().starts_with('('))
        });
        if before.ends_with("fn ")
            || !(in_use || before.ends_with("::") || after.starts_with('(') || turbofish_call)
        {
            continue;
        }
        let on_type = qualifier(before).filter(|owner| {
            *owner != "Self" && owner.starts_with(|c: char| c.is_ascii_uppercase())
        });
        calls.push((on_type, name));
    }
    calls
}

/// The path segment a call is spelled on: `Type` in `Type::name(` and in
/// `Type::<T>::name(`.
fn qualifier(before: &str) -> Option<&str> {
    let mut path = before.strip_suffix("::")?;
    if path.ends_with('>') {
        let mut depth = 0;
        let open = path.char_indices().rev().find_map(|(at, c)| {
            depth += i32::from(c == '>') - i32::from(c == '<');
            (depth == 0).then_some(at)
        })?;
        path = path[..open].trim_end_matches("::");
    }
    let start = path.rfind(|c: char| !(c.is_alphanumeric() || c == '_'));
    Some(&path[start.map_or(0, |at| at + 1)..])
}

/// One file as the census reads it: the path shown in a report and its
/// lines above `#[cfg(test)]`.
#[derive(Clone)]
struct Source {
    shown: String,
    lines: Vec<String>,
}

impl Source {
    fn new(shown: &str, text: &str) -> Self {
        let lines = text
            .lines()
            .take_while(|line| line.trim() != "#[cfg(test)]");
        let lines = lines.map(str::to_owned).collect();
        Source {
            shown: shown.to_owned(),
            lines,
        }
    }

    fn read(repo: &Path, file: &Path) -> Self {
        let shown = file.strip_prefix(repo).expect("under the repository");
        let text = fs::read_to_string(file).expect("readable source file");
        Source::new(&shown.to_string_lossy().replace('\\', "/"), &text)
    }

    /// The module a free function of this file belongs to: an inline
    /// `mod`'s name, else the file stem, the directory of a `mod.rs`, or
    /// the crate (`rmodp_<dir>`, or `rmodp` for `src/lib.rs`) of a root.
    fn module(&self) -> String {
        let parts: Vec<&str> = self.shown.trim_end_matches(".rs").split('/').collect();
        match parts[..] {
            ["src", "lib"] => "rmodp".to_owned(),
            ["crates", krate, "src", "lib"] => format!("rmodp_{krate}"),
            [.., dir, "mod"] => dir.to_owned(),
            [.., stem] => stem.to_owned(),
            [] => unreachable!("a path has a file name"),
        }
    }

    /// Each line with the names it calls (see [`called_names`]), a `use`
    /// item running on until its `;`.
    fn calls(&self) -> impl Iterator<Item = Vec<(Option<&str>, &str)>> {
        let mut in_use = false;
        self.lines.iter().map(move |line| {
            let code = line.trim_start();
            in_use |= code.starts_with("use ") || code.starts_with("pub use ");
            let names = called_names(line, in_use);
            in_use &= !line.contains(';');
            names
        })
    }
}

/// The type an `impl` line is for: the first path after `impl` and its
/// generics, or after ` for `; its last segment.
fn impl_type(line: &str) -> Option<&str> {
    let mut rest = line.trim_start().strip_prefix("impl")?;
    if rest.starts_with('<') {
        let mut depth = 0;
        let end = rest.char_indices().find_map(|(at, c)| {
            depth += i32::from(c == '<') - i32::from(c == '>');
            (depth == 0).then_some(at + 1)
        })?;
        rest = &rest[end..];
    }
    if let Some((_, target)) = rest.split_once(" for ") {
        rest = target;
    }
    let path = rest.trim_start().split(['<', ' ', '{']).next()?;
    path.rsplit("::").next().filter(|name| !name.is_empty())
}

/// A library `pub fn` as the census keys it: the type whose `impl`
/// defines it (its owner), or a free function's module, and its name.
type Def = (String, String);

/// The `pub fn`s a file defines, each with its `file:line`. A `pub fn`
/// indented under an `impl` or `mod` line belongs to it.
fn definitions(source: &Source) -> Vec<(Def, String)> {
    let mut open: Vec<(usize, String)> = Vec::new();
    let mut found = Vec::new();
    for (i, line) in source.lines.iter().enumerate() {
        let indent = line.len() - line.trim_start().len();
        let code = line.trim_start();
        if code.starts_with('}') {
            open.retain(|&(at, _)| at < indent);
        }
        let module = code.trim_start_matches("pub ").strip_prefix("mod ");
        if let Some(module) = module.and_then(|m| m.strip_suffix(" {")) {
            open.push((indent, module.to_owned()));
        } else if code.starts_with("impl") {
            let owner = impl_type(code).unwrap_or(code);
            open.push((indent, owner.to_owned()));
        } else if let Some(name) = defined_pub_fn(line) {
            let owner = match open.last() {
                Some((at, owner)) if *at < indent => owner.clone(),
                _ => source.module(),
            };
            // `impl $name` in a `macro_rules!` body names no type.
            if !owner.starts_with('$') {
                let at = format!("{}:{}", source.shown, i + 1);
                found.push(((owner, name.to_owned()), at));
            }
        }
    }
    found
}

/// For each function name defined exactly once under [`CALLERS`], the
/// identifiers of its return type: a file that calls `behaviours_mut()`
/// names `BehaviourRegistry` though it never spells it.
fn unique_returns(sources: &[Source]) -> BTreeMap<String, Option<Vec<String>>> {
    let mut returns = BTreeMap::new();
    for source in sources {
        for (i, line) in source.lines.iter().enumerate() {
            let Some(at) = line.find("fn ").filter(|&at| !line[..at].contains("//")) else {
                continue;
            };
            let Some(&(_, name)) = words(&line[at + 3..]).first() else {
                continue;
            };
            let mut signature = String::new();
            for line in &source.lines[i..] {
                signature.push_str(line.split("//").next().unwrap_or_default());
                if line.contains(['{', ';']) {
                    break;
                }
            }
            let signature = signature.split(['{', ';']).next().unwrap_or_default();
            let signature = signature.split(" where ").next().unwrap_or_default();
            let returned = signature.split_once("->").map_or("", |(_, r)| r);
            let types = used_names(returned).into_iter().map(str::to_owned);
            returns
                .entry(name.to_owned())
                .and_modify(|seen| *seen = None)
                .or_insert_with(|| Some(types.collect()));
        }
    }
    returns
}

/// For each `pub` field name declared under [`CALLERS`], each declaration's
/// struct and the identifiers of its type: a file that reads
/// `part.rm.crash()` names `ResourceManager` though it never spells it.
fn pub_fields(sources: &[Source]) -> BTreeMap<String, Vec<(String, Vec<String>)>> {
    let mut fields: BTreeMap<String, Vec<(String, Vec<String>)>> = BTreeMap::new();
    for source in sources {
        let mut holder = "";
        for line in &source.lines {
            let code = line.trim_start();
            if let Some((_, declared)) = code.split_once("struct ") {
                if !code.contains("//") {
                    holder = declared
                        .split(|c: char| !c.is_alphanumeric() && c != '_')
                        .next()
                        .unwrap_or_default();
                }
            }
            let Some(field) = code.strip_prefix("pub ") else {
                continue;
            };
            let Some((name, declared)) = field.split_once(": ") else {
                continue;
            };
            if !name.chars().all(|c| c.is_alphanumeric() || c == '_') {
                continue;
            }
            let types = used_names(declared).into_iter().map(str::to_owned);
            let declaration = (holder.to_owned(), types.collect());
            fields.entry(name.to_owned()).or_default().push(declaration);
        }
    }
    fields
}

/// The census: every `pub fn` the `defining` files declare, with where,
/// and those a file other than the defining one calls. A call spelled on
/// a type (`Type::name`) counts for that type's `name` alone. Any other
/// call of a name counts for a definition of it when no other owner
/// defines that name, or when the file names the owner — spelling it,
/// calling a once-defined function that returns it, or reading a `pub`
/// field of its type that is declared once or in a struct the file
/// names; a crate root's functions are
/// named by their crate's files and by the crate's name or alias. So a
/// local variable never counts, and `.name()` on one type does not keep
/// another type's `name`.
fn census(defining: &[Source], calling: &[Source]) -> (BTreeMap<Def, String>, BTreeSet<Def>) {
    let defined: BTreeMap<Def, String> = defining.iter().flat_map(definitions).collect();
    let mut owners: BTreeMap<&str, Vec<&Def>> = BTreeMap::new();
    for def in defined.keys() {
        owners.entry(def.1.as_str()).or_default().push(def);
    }
    let returns = unique_returns(calling);
    let fields = pub_fields(calling);
    let mut called = BTreeSet::new();
    for source in calling {
        let calls: Vec<Vec<(Option<&str>, &str)>> = source.calls().collect();
        let mut named: BTreeSet<&str> = source.lines.iter().flat_map(|l| used_names(l)).collect();
        for (_, name) in calls.iter().flatten() {
            if let Some(Some(types)) = returns.get(*name) {
                named.extend(types.iter().map(String::as_str));
            }
        }
        let mut read: Vec<&str> = Vec::new();
        for line in &source.lines {
            for (at, name) in words(line) {
                let Some(declared) = fields.get(name).filter(|_| line[..at].ends_with('.')) else {
                    continue;
                };
                for (holder, types) in declared {
                    if declared.len() == 1 || named.contains(holder.as_str()) {
                        read.extend(types.iter().map(String::as_str));
                    }
                }
            }
        }
        named.extend(read);
        let krate = source.shown.split('/').nth(1).unwrap_or_default();
        let here = format!("{}:", source.shown);
        let names_owner = |def: &Def| {
            let root = def.0.strip_prefix("rmodp_");
            named.contains(def.0.as_str())
                || root.is_some_and(|dir| named.contains(dir) || dir == krate)
                || (def.0 == "rmodp" && source.shown.starts_with("src/"))
        };
        for &(on_type, name) in calls.iter().flatten() {
            let Some(defs) = owners.get(name) else {
                continue;
            };
            let counts = |def: &&&Def| {
                !defined[*def].starts_with(&here)
                    && match on_type {
                        Some(owner) => def.0 == owner,
                        None => defs.len() == 1 || names_owner(def),
                    }
            };
            called.extend(defs.iter().filter(counts).map(|def| (*def).clone()));
        }
    }
    (defined, called)
}

#[test]
fn every_pub_fn_has_a_caller_or_a_reason() {
    let repo = Path::new(env!("CARGO_MANIFEST_DIR"));
    let read = |roots: &[&str]| -> Vec<Source> {
        let files = roots.iter().flat_map(|root| rust_files(repo, root));
        files.map(|file| Source::read(repo, &file)).collect()
    };
    let (defined, called) = census(&read(SRC), &read(CALLERS));
    assert!(defined.len() > 500, "only {} pub fns found", defined.len());
    let mut kept = BTreeSet::new();
    let mut report = String::new();
    for row in KEEP {
        let (key, _why) = row
            .split_once(": ")
            .expect("a KEEP row reads `Owner::name: why`");
        let (owner, name) = key
            .split_once("::")
            .expect("a KEEP row names `Owner::name`");
        let def = (owner.to_owned(), name.to_owned());
        if called.contains(&def) || !defined.contains_key(&def) {
            report.push_str(&format!(
                "KEEP row {key:?}: stale — it is now called, or no `pub fn` is {key}\n"
            ));
        }
        kept.insert(def);
    }
    for (def @ (owner, name), at) in &defined {
        if !called.contains(def) && !kept.contains(def) {
            report.push_str(&format!(
                "{at}: `{owner}::{name}` has no caller outside tests — delete it, or add a \
                 KEEP row saying why it stays\n"
            ));
        }
    }
    assert!(report.is_empty(), "public-surface census:\n{report}");
}

#[test]
fn the_census_reads_definitions_and_uses() {
    assert_eq!(
        defined_pub_fn("    pub fn with_retries(mut self) -> Self {"),
        Some("with_retries")
    );
    assert_eq!(
        defined_pub_fn("pub const fn new(raw: u64) -> Self {"),
        Some("new")
    );
    assert_eq!(defined_pub_fn("pub fn push<T>(x: T) {"), Some("push"));
    assert_eq!(defined_pub_fn("pub(crate) fn hidden() {"), None);
    assert_eq!(defined_pub_fn("    fn private() {"), None);
    assert_eq!(
        used_names("pub fn a(b: B) -> C { d.e(Self::f) } // g(h)"),
        ["pub", "fn", "b", "B", "C", "d", "e", "Self", "f"]
    );
    assert_eq!(
        called_names("pub fn a(b: B) -> C { d.e(Self::f) } // g(h)", false),
        [(None, "e"), (None, "f")]
    );
    assert_eq!(
        called_names("let timeline = x.timeline; y.len::<u8>(z.name ())", false),
        [(None, "len"), (None, "name")]
    );
    assert_eq!(
        called_names(
            "let v = Vec::new(); export::timeline(&e); Vec::<Vec<u8>>::new()",
            false
        ),
        [
            (Some("Vec"), "new"),
            (None, "timeline"),
            (Some("Vec"), "new")
        ]
    );
    assert_eq!(
        called_names("    timeline, summary_table,", true),
        [(None, "timeline"), (None, "summary_table")]
    );
    assert_eq!(impl_type("impl<T: Into<u8>> Wrapper<T> {"), Some("Wrapper"));
    assert_eq!(
        impl_type("impl fmt::Display for super::Name {"),
        Some("Name")
    );
    assert_eq!(impl_type("impl Engine {"), Some("Engine"));
}

/// One name defined on two types, only one of them called: the census
/// keeps the one whose type the calling file names, and no local
/// variable keeps a free function. A call from the defining file keeps
/// nothing, a macro's `impl $name` owns nothing, and a `pub` field names
/// its type, in the struct the reader names when two declare it.
#[test]
fn a_name_on_two_types_counts_only_where_the_type_is_named() {
    let library = Source::new(
        "crates/demo/src/shapes.rs",
        "impl Alpha {\n    pub fn size(&self) -> u8 {\n        1\n    }\n}\n\
         impl<T> Beta<T> {\n    pub fn size(&self) -> u8 {\n        2\n    }\n}\n\
         pub fn timeline() {}\n\
         pub mod inner {\n    pub fn helper() {}\n}\n\
         #[cfg(test)]\nmod tests {\n    pub fn size() { Beta::size(); }\n}\n",
    );
    let demo_root = Source::new("crates/demo/src/lib.rs", "pub fn root() {}\n");
    let caller = Source::new(
        "examples/use_alpha.rs",
        "use demo::shapes::Alpha;\nfn f(a: &Alpha) -> u8 {\n    let timeline = 3;\n    a.size()\n}\n\
         fn g() { inner::helper(); demo::root() }\n",
    );
    let (defined, called) = census(&[library.clone(), demo_root.clone()], &[library, caller]);
    let def = |owner: &str, name: &str| (owner.to_owned(), name.to_owned());
    let keys: Vec<&Def> = defined.keys().collect();
    assert_eq!(
        keys,
        [
            &def("Alpha", "size"),
            &def("Beta", "size"),
            &def("inner", "helper"),
            &def("rmodp_demo", "root"),
            &def("shapes", "timeline"),
        ]
    );
    assert_eq!(defined[&def("Beta", "size")], "crates/demo/src/shapes.rs:7");
    assert!(called.contains(&def("Alpha", "size")));
    assert!(
        !called.contains(&def("Beta", "size")),
        "Beta is never named"
    );
    assert!(
        !called.contains(&def("shapes", "timeline")),
        "a variable is no call"
    );
    assert!(called.contains(&def("inner", "helper")));
    assert!(called.contains(&def("rmodp_demo", "root")));

    // A file that obtains a Beta from a once-defined function names it.
    let maker = Source::new(
        "src/maker.rs",
        "fn make_beta() -> Beta<u8> {\n    todo!()\n}\nfn h() -> u8 {\n    make_beta().size()\n}\n",
    );
    let (_, called) = census(&[Source::new("crates/demo/src/shapes.rs", "impl Beta {\n    pub fn size(&self) {}\n}\nimpl Alpha {\n    pub fn size(&self) {}\n}\n")], &[maker]);
    assert!(called.contains(&def("Beta", "size")));
    assert!(!called.contains(&def("Alpha", "size")));

    // A call spelled on one type keeps that type's function alone.
    let library = Source::new(
        "crates/demo/src/beta.rs",
        "impl Beta {\n    pub fn new() {}\n}\n",
    );
    let caller = Source::new("src/user.rs", "fn f(_: Beta) {\n    Vec::<u8>::new();\n}\n");
    let (_, called) = census(&[library], &[caller]);
    assert!(called.is_empty(), "{called:?}");

    // A call from the defining file is no caller, even of a name defined once.
    let library = Source::new(
        "crates/demo/src/alone.rs",
        "pub fn helper() {}\npub fn entry() {\n    helper();\n}\n",
    );
    let caller = Source::new("src/user.rs", "fn f() {\n    alone::entry();\n}\n");
    let sources = [library, caller];
    let (_, called) = census(&sources[..1], &sources);
    assert!(called.contains(&def("alone", "entry")));
    assert!(
        !called.contains(&def("alone", "helper")),
        "only its own file calls it"
    );

    // `impl $name` in a macro body defines no owner called `$name`.
    let library = Source::new(
        "crates/demo/src/id.rs",
        "macro_rules! id {\n    ($name:ident) => {\n        impl $name {\n            \
         pub fn raw(self) -> u64 {\n                0\n            }\n        }\n    };\n}\n",
    );
    let (defined, _) = census(&[library], &[]);
    assert!(defined.is_empty(), "{defined:?}");

    // A `pub` field declared once names its type where it is read.
    let library = Source::new(
        "crates/demo/src/parts.rs",
        "pub struct Part {\n    pub rm: Manager,\n}\n\
         impl Manager {\n    pub fn crash(&mut self) {}\n}\n\
         impl Other {\n    pub fn crash(&mut self) {}\n}\n",
    );
    let caller = Source::new(
        "src/user.rs",
        "fn f(part: &mut Part) {\n    part.rm.crash();\n}\n",
    );
    let sources = [library, caller];
    let (_, called) = census(&sources[..1], &sources);
    assert!(called.contains(&def("Manager", "crash")));
    assert!(!called.contains(&def("Other", "crash")), "{called:?}");

    // A `pub` field declared in two structs names the type it has in the
    // struct the reading file names.
    let library = Source::new(
        "crates/demo/src/infra.rs",
        "pub struct Infra {\n    pub groups: GroupManager,\n}\n\
         impl GroupManager {\n    pub fn create(&mut self) {}\n}\n\
         impl Registry {\n    pub fn create(&mut self) {}\n}\n",
    );
    let report = Source::new(
        "crates/other/src/report.rs",
        "#[derive(Debug)]\npub struct Report {\n    pub groups: Vec<Verdict>,\n}\n",
    );
    let caller = Source::new(
        "src/user.rs",
        "fn f(infra: &mut Infra) {\n    infra.groups.create();\n}\n",
    );
    let sources = [library, report, caller];
    let (_, called) = census(&sources[..1], &sources);
    assert!(
        called.contains(&def("GroupManager", "create")),
        "{called:?}"
    );
    assert!(!called.contains(&def("Registry", "create")), "{called:?}");
}

/// The vendored `bytes` shim, whose accessors every codec calls per byte.
const BYTE_SHIM: &str = "crates/compat/bytes/src/lib.rs";

/// The 1-based lines, above the test module, of each `fn` that has a body
/// but no `#[inline]` on the line before it; and how many bodies there are.
fn uninlined_bodies(text: &str) -> (Vec<usize>, usize) {
    let lines: Vec<&str> = text
        .lines()
        .take_while(|line| line.trim() != "#[cfg(test)]")
        .collect();
    let mut bare = Vec::new();
    let mut bodies = 0;
    for (i, line) in lines.iter().enumerate() {
        let code = line.trim_start().trim_start_matches("pub ");
        if !code.starts_with("fn ") {
            continue;
        }
        // A declaration ends at `;`, a definition at the `{` of its body.
        let end = lines[i..]
            .iter()
            .flat_map(|line| line.chars())
            .find(|c| matches!(c, '{' | ';'));
        if end == Some('{') {
            bodies += 1;
            if i == 0 || lines[i - 1].trim() != "#[inline]" {
                bare.push(i + 1);
            }
        }
    }
    (bare, bodies)
}

/// clippy's `missing_inline_in_public_items` cannot hold this: the compat
/// crates are outside the workspace, so `cargo clippy --workspace` never
/// lints them.
#[test]
fn the_byte_shim_inlines_every_method() {
    let repo = Path::new(env!("CARGO_MANIFEST_DIR"));
    let text = fs::read_to_string(repo.join(BYTE_SHIM)).expect("readable shim");
    let (bare, bodies) = uninlined_bodies(&text);
    assert!(
        bodies >= 15,
        "only {bodies} method bodies found in {BYTE_SHIM}"
    );
    assert!(
        bare.is_empty(),
        "{BYTE_SHIM} lines {bare:?}: a shim method with a body needs `#[inline]` on the line \
         above it, as upstream `bytes` has; without LTO every codec byte is otherwise an \
         out-of-line call (DESIGN.md, \"Dependencies\")"
    );
}

#[test]
fn an_uninlined_body_is_found_and_a_declaration_is_not() {
    let text = "\
        fn remaining(&self) -> usize;\n\
        #[inline]\n\
        fn get_u8(&mut self) -> u8 {\n\
        fn put_u8(&mut self, v: u8) {\n\
        /// doc\n\
        pub fn split(\n    a: u8,\n) -> u8 {\n\
        #[cfg(test)]\n\
        fn test_only() {}\n";
    assert_eq!(uninlined_bodies(text), (vec![4, 6], 3));
}

/// The events every call or message emits, as `(file, kind, sites)`: a
/// netsim send and delivery, a marshal, a hop out and a hop in, and a
/// call's `CallStart` and `CallEnd` on a termination (its error arm,
/// after the first `.emit()`, stays eager). An observed call records
/// sixteen of these and a ring keeps few, so their text is written only
/// when read (DESIGN.md, "Emit cost model").
const DEFERRED_SITES: &[(&str, &str, usize)] = &[
    ("crates/netsim/src/sim.rs", "EventKind::Send", 1),
    ("crates/netsim/src/sim.rs", "EventKind::Deliver", 1),
    ("crates/engineering/src/channel.rs", "EventKind::Marshal", 1),
    (
        "crates/engineering/src/channel.rs",
        "EventKind::ChannelHop",
        2,
    ),
    (
        "crates/engineering/src/engine.rs",
        "EventKind::CallStart",
        1,
    ),
    ("crates/engineering/src/engine.rs", "EventKind::CallEnd", 1),
];

/// The 1-based lines, above the test module, that name `kind`, each with
/// whether the text from there to the first `.emit()` attaches its detail
/// deferred: a `.detail_deferred(` and no `.detail_fmt(`.
fn deferred_sites(text: &str, kind: &'static str) -> Vec<(usize, bool)> {
    let lines: Vec<&str> = text
        .lines()
        .take_while(|line| line.trim() != "#[cfg(test)]")
        .collect();
    let mut sites = Vec::new();
    for (i, line) in lines.iter().enumerate() {
        if !Pattern::Word(kind).matches(line, "") {
            continue;
        }
        let mut statement = String::new();
        for line in &lines[i..] {
            statement.push_str(line);
            if let Some(end) = statement.find(".emit()") {
                statement.truncate(end);
                break;
            }
        }
        let deferred =
            statement.contains(".detail_deferred(") && !statement.contains(".detail_fmt(");
        sites.push((i + 1, deferred));
    }
    sites
}

#[test]
fn per_call_events_attach_their_text_deferred() {
    let repo = Path::new(env!("CARGO_MANIFEST_DIR"));
    let mut report = String::new();
    for &(file, kind, count) in DEFERRED_SITES {
        let text = fs::read_to_string(repo.join(file)).expect("readable source file");
        let sites = deferred_sites(&text, kind);
        if sites.len() != count {
            report.push_str(&format!(
                "{file}: {} `{kind}` sites, not {count}\n",
                sites.len()
            ));
        }
        for (line, _) in sites.iter().filter(|(_, deferred)| !deferred) {
            report.push_str(&format!(
                "{file}:{line}: `{kind}` attaches its text eagerly — write \
                 `.detail_deferred(|| facts, render)`, so the bus renders it only when read\n"
            ));
        }
    }
    assert!(report.is_empty(), "deferred event details:\n{report}");
}

#[test]
fn an_eager_per_call_detail_is_flagged() {
    let text = "\
        Self::located(EventKind::Send, src)\n\
            .detail_deferred(|| message_facts(dst, &payload), render_send)\n\
            .emit();\n\
        Self::located(EventKind::Send, src)\n\
            .detail_fmt(format_args!(\"-> {dst}\"))\n\
            .emit();\n\
        Self::located(EventKind::SendBatch, src).emit();\n\
        match &result {\n\
            Ok(t) => event(Layer::Engineering, EventKind::Send).detail_deferred(f, r).emit(),\n\
            Err(e) => end.detail_fmt(format_args!(\"{e}\")).emit(),\n\
        }\n\
        event(Layer::Netsim, EventKind::Send).detail(\"x\").emit();\n\
        #[cfg(test)]\n\
        event(Layer::Netsim, EventKind::Send).detail_fmt(format_args!(\"{x}\")).emit();\n";
    assert_eq!(
        deferred_sites(text, "EventKind::Send"),
        [(1, true), (4, false), (9, true), (12, false)]
    );
}

fn rule_with(patterns: &'static [Pattern], above_tests_only: bool) -> Rule {
    Rule {
        name: "sample",
        why: "",
        roots: &[],
        patterns,
        exempt: &[],
        above_tests_only,
        copies: 0,
    }
}

#[test]
fn a_literal_matches_anywhere_on_a_line() {
    let rule = rule_with(&[Literal("offer.clone()"), Literal("put_if")], false);
    let text = "let a = offer.clone();\nlet b = Arc::clone(&offer);\n    store.put_if(k, v);\n";
    assert_eq!(offending_lines(&rule, text), vec![1, 3]);
}

#[test]
fn an_eager_argument_is_text_formatted_outside_a_closure() {
    let rule = rule_with(
        &[EagerArgument {
            open: ".record(",
            then: "format!",
        }],
        false,
    );
    let text = "\
        bus.record(kind, format!(\"{x}\"));\n\
        bus.record(kind, || format!(\"{x}\"));\n\
        bus.record(kind, text);\n\
        let s = format!(\"{x}\"); bus.record(kind, s);\n\
        a.record(k, || t); b.record(k, format!(\"{y}\"));\n";
    assert_eq!(offending_lines(&rule, text), vec![1, 5]);
}

#[test]
fn a_word_is_not_part_of_a_longer_name() {
    let rule = rule_with(&[Word("Kernel::new(")], false);
    let text = "Kernel::new()\nShardedKernel::new(w, h)\nlet k = rmodp_kernel::Kernel::new();\n";
    assert_eq!(offending_lines(&rule, text), vec![1, 3]);
}

#[test]
fn a_call_is_not_the_definition() {
    let rule = rule_with(&[Call("residual_match")], false);
    let text = "\
        fn residual_match(\n\
        if let Some(m) = residual_match(offer, request) {}\n\
        let f = residual_match;\n\
        pub(crate) fn residual_match(o: &O) -> bool { o.residual_match(x) }\n";
    assert_eq!(offending_lines(&rule, text), vec![2, 4]);
}

#[test]
fn a_json_key_is_a_quoted_word_and_a_colon_in_a_literal() {
    let rule = rule_with(&[JsonKey], true);
    let text = r##"out.push_str(&format!("{{\"a\":{}}}", x));
let s = format!(",\"p50_us\":{p50}");
b'"' => b"\\\"",
b'\\' => b"\\\\",
self.out.extend_from_slice(b"b\"");
if self.eat("\"") {
let key = if self.eat("\"") {
out.push_str("\"");
let k = "{\"has space\": 1}";
json_into!(out, {"a": x});
let line = r#"{"k":1}"#;
write!(out, "\"{}\":{}", name, v);
let both = [r"x", r#"y"#, br#"{"z": 2}"#];
let span = r#"
  {"opens": 1}
"#;
let per = format!("\"{name}\":{{\"ops\":{n}}}");
let dbg = format!("\"{:?}\":0", k);
let spaced = r#"{"has space": 1}"#;
let parts = r"a", "b";
let lifetime: &'r str = "{\"x\"}";
#[cfg(test)]
assert_eq!(s, "{\"has space\": 1, \"true\": 2}");
"##;
    assert_eq!(
        offending_lines(&rule, text),
        vec![1, 2, 11, 12, 13, 15, 17, 18]
    );
    // The text codec's quoting, as it stands, holds no key.
    let repo = Path::new(env!("CARGO_MANIFEST_DIR"));
    let codec = fs::read_to_string(repo.join("crates/core/src/codec/text.rs")).unwrap();
    assert!(
        codec.contains("b'\"' => b\"\\\\\\\"\","),
        "the quote escape moved"
    );
    assert_eq!(offending_lines(&rule, &codec), Vec::<usize>::new());
}

#[test]
fn an_oracle_that_reads_the_bus_or_renders_text_is_flagged() {
    let rule = RULES
        .iter()
        .find(|rule| rule.name == "an oracle judges what it is handed")
        .expect("the rule is a row of RULES");
    let text = "\
        use rmodp_observe::json::ToJson;\n\
        let events = bus::snapshot_events();\n\
        pub fn render(&self) -> String {\n\
        pub fn verify_consistency(events: &[Event]) -> ConsistencyReport {\n\
        #[cfg(test)]\n\
        let events = bus::snapshot_events();\n";
    assert_eq!(offending_lines(rule, text), vec![2, 3]);
}

#[test]
fn a_keyspace_of_values_is_flagged() {
    let rule = RULES
        .iter()
        .find(|rule| rule.name == "the keyspace holds canonical bytes")
        .expect("the rule is a row of RULES");
    let text = "\
        state: BTreeMap<String, Value>,\n\
        let value = r.value()?;\n\
        state: Keyspace,\n\
        let (value, canonical) = r.value_span()?;\n\
        w.value(&Value::Int(next_batch as i64));\n";
    assert_eq!(offending_lines(rule, text), vec![1, 2]);
}

#[test]
fn a_second_fault_path_is_flagged() {
    let rule = RULES
        .iter()
        .find(|rule| rule.name == "one fault path")
        .expect("the rule is a row of RULES");
    let text = "\
        let mut injector = FaultInjector::new(plan, t0);\n\
        let stats = execute_with(engine, channel, scenario, &mut [&mut injector]);\n\
        engine.sim_mut().topology_mut().set_link(a, b, lossy);\n\
        plan.schedule_on(engine.sim_mut());\n\
        let stats = execute(engine, channel, scenario);\n\
        sim.schedule_action(at, action);\n";
    assert_eq!(offending_lines(rule, text), vec![1, 2, 3]);
}

#[test]
fn a_scheduler_on_top_of_the_queue_is_flagged() {
    let rule = RULES
        .iter()
        .find(|rule| rule.name == "one schedule")
        .expect("the rule is a row of RULES");
    let text = "\
        pub trait World {\n\
        pub trait Actor<W: World + ?Sized> {\n\
        impl World for Sim {\n\
        pub struct Kernel<'a, W: World> {\n\
        Kernel::new().register(&mut actor).run(engine);\n\
        impl Actor<Engine> for Injector {\n\
        pub trait ShardWorld: Send {\n\
        impl ShardWorld for Sim {\n\
        pub struct KernelRng {\n\
        let mut kernel = ShardedKernel::new(sims, lookahead);\n\
        engine.sim_mut().run_until(at);\n";
    assert_eq!(offending_lines(rule, text), vec![1, 2, 3, 4, 5, 6]);
}

#[test]
fn numeric_rules_written_beside_the_kernel_are_counted() {
    let rule = RULES
        .iter()
        .find(|rule| rule.name == "one numeric semantics")
        .expect("the rule is a row of RULES");
    let text = "\
        (Val::Num(x), Val::Num(y)) => x.comparison(*op, y),\n\
        Add => Ok(Num::Int(x.wrapping_add(y))),\n\
        (Value::Int(x), Value::Int(y)) => Value::Int(x.wrapping_mul(*y)),\n\
        (Value::Float(x), Value::Float(y)) => x.partial_cmp(y),\n\
        (Value::Int(x), Value::Float(y)) => (*x as f64) == *y,\n\
        Value::Int(i) => owned(Value::Int(i.wrapping_neg())),\n\
        #[cfg(test)]\n\
        let big = i64::MAX.wrapping_add(1);\n";
    assert_eq!(offending_lines(rule, text), vec![2, 3, 4, 5, 8]);
    assert!(!rule.above_tests_only, "the tests pin answers, not rules");
    assert_eq!(
        rule.copies, 7,
        "the kernel's five int operators, its ordering and its widening: an eighth line is \
         a second kernel"
    );
}

#[test]
fn a_compiled_copy_of_an_expression_is_flagged() {
    let rule = RULES
        .iter()
        .find(|rule| rule.name == "one expression tree")
        .expect("the rule is a row of RULES");
    let text = "\
        mod compile;\n\
        compiled: Predicate<'static>,\n\
        effects: Vec<(String, Term<'static>, Expr)>,\n\
        Walk(Cow<'e, Expr>),\n\
        fn lend(&self) -> Option<Cow<Expr>> {\n\
        conjuncts: &'r [&'r Expr],\n\
        score: Option<&'r Expr>,\n\
        effects: Vec<(String, Expr)>,\n\
        named: BTreeMap<String, Expr>,\n\
        fn pick(v: Cow<'_, Value>, e: &Expr) -> Option<&Expr> {\n\
        shape: Cow<'a, SubExpr>,\n\
        let text = bytes.into_owned();\n";
    assert_eq!(offending_lines(rule, text), vec![1, 2, 3, 4, 5]);
}

#[test]
fn a_second_call_end_is_counted() {
    let rule = RULES
        .iter()
        .find(|rule| rule.name == "one call path closes a call")
        .expect("the rule is a row of RULES");
    let text = "\
        event(Layer::Engineering, EventKind::CallStart)\n\
        event(Layer::Engineering, EventKind::CallEnd)\n\
        let end = EventKind::CallEnd;\n\
        #[cfg(test)]\n\
        event(Layer::Engineering, EventKind::CallEnd)\n";
    assert_eq!(offending_lines(rule, text), vec![2, 3]);
    assert_eq!(rule.copies, 1, "two lines are one too many");
}

#[test]
fn a_second_judge_of_exactness_is_counted() {
    let rule = RULES
        .iter()
        .find(|rule| rule.name == "one judge of an exact atom")
        .expect("the rule is a row of RULES");
    let text = "\
        path.step.exact = serves_exactly(store, &path.step, &path.atom);\n\
        fn serves_exactly(store: &OfferStore, step: &IndexStep, atom: &Atom<'_>) -> bool {\n\
        exact: false,\n\
        let residual = Residual::new(&planned.residual, request);\n\
        step.exact = step.used && matches!(c.op, BinOp::Eq);\n\
        let whole = Residual::new(&request.constraint.conjuncts(), request);\n\
        fn new(conjuncts: &'r [&'r Expr], request: &'r ImportRequest) -> Self {\n\
        #[cfg(test)]\n\
        assert!(serves_exactly(&s, &step, &atom));\n";
    assert_eq!(offending_lines(rule, text), vec![1, 4, 5, 6]);
    assert_eq!(
        rule.copies, 2,
        "one judge and one residual of what it left: a third line is one too many"
    );
}

#[test]
fn a_second_match_order_is_counted() {
    let rule = RULES
        .iter()
        .find(|rule| rule.name == "one match order")
        .expect("the rule is a row of RULES");
    let text = "\
        let score = a_score.total_cmp(&b_score);\n\
        fn order_matches(matches: &mut [Match], preference: &Preference) {\n\
        order_matches(&mut matches, &request.preference);\n\
        matches.sort_by(|a, b| b.score.total_cmp(&a.score));\n\
        crate::trader::order_matches(&mut merged, &request.preference);\n\
        #[cfg(test)]\n\
        merged.sort_by(|a, b| a.score.total_cmp(&b.score));\n";
    assert_eq!(offending_lines(rule, text), vec![1, 3, 4, 5]);
    assert_eq!(
        rule.copies, 2,
        "one comparator and the scan's one full sort: a third line is one too many"
    );
}

#[test]
fn a_second_entry_point_is_counted() {
    let rule = RULES
        .iter()
        .find(|rule| rule.name == "one artifact entry point")
        .expect("the rule is a row of RULES");
    let text = "\
        //! Reads `std::env::args` once.\n\
        let selection = artifacts::select(std::env::args().skip(1));\n\
        let mut args = std::env::args().skip(1);\n\
        for arg in env::args() {}\n";
    assert_eq!(offending_lines(rule, text), vec![2, 3, 4]);
    assert_eq!(
        rule.copies, 1,
        "a second reader of the arguments is one too many"
    );
}

#[test]
fn a_second_measurement_system_is_flagged() {
    let rule = RULES
        .iter()
        .find(|rule| rule.name == "one measurement system")
        .expect("the rule is a row of RULES");
    let manifest = "\
        [dev-dependencies]\n\
        criterion.workspace = true\n\
        criterion_stub = { path = \"x\" }\n\
        \n\
        [[bench]]\n\
        name = \"figures\"\n";
    assert_eq!(offending_lines(rule, manifest), vec![2, 5]);
    // The rule reaches every crate's manifest, not only `.rs` files.
    let repo = Path::new(env!("CARGO_MANIFEST_DIR"));
    let manifests = rust_files(repo, rule.roots[1]);
    assert!(manifests
        .iter()
        .any(|f| f.ends_with("crates/bench/Cargo.toml")));
    // A benches directory is found as `tests/fixtures` is.
    let planted = Path::new(env!("CARGO_TARGET_TMPDIR")).join("planted-benches");
    fs::create_dir_all(planted.join("crates/demo/benches")).expect("writable target dir");
    fs::create_dir_all(planted.join("crates/other/src")).expect("writable target dir");
    let found = bench_dirs(&planted);
    fs::remove_dir_all(&planted).expect("remove what was planted");
    assert_eq!(found, vec![planted.join("crates/demo/benches")]);
}

#[test]
fn a_rule_can_stop_at_the_test_module() {
    let text = "fn a() { x.clone() }\n\n    #[cfg(test)]\nmod tests { fn b() { y.clone() } }\n";
    let whole = rule_with(&[Literal(".clone()")], false);
    let above = rule_with(&[Literal(".clone()")], true);
    assert_eq!(offending_lines(&whole, text), vec![1, 4]);
    assert_eq!(offending_lines(&above, text), vec![1]);
}

#[test]
fn a_root_expands_a_star_and_finds_only_rust_files() {
    let repo = Path::new(env!("CARGO_MANIFEST_DIR"));
    let files = rust_files(repo, "crates/*/src");
    let has = |suffix: &str| files.iter().any(|f| f.ends_with(suffix));
    assert!(has("crates/kernel/src/shard.rs") && has("crates/netsim/src/sim.rs"));
    assert!(files
        .iter()
        .all(|f| f.extension().is_some_and(|e| e == "rs")));
    // A single file is a root too; a missing one is simply empty.
    assert_eq!(rust_files(repo, "crates/kernel/src/shard.rs").len(), 1);
    assert!(rust_files(repo, "crates/kernel/src/no_such.rs").is_empty());
}
