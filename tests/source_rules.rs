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
}

impl Pattern {
    fn matches(&self, line: &str) -> bool {
        match self {
            Pattern::Literal(text) => line.contains(text),
            Pattern::EagerArgument { open, then } => line.match_indices(open).any(|(at, _)| {
                let rest = &line[at + open.len()..];
                rest.find(then)
                    .is_some_and(|end| !rest[..end].contains('|'))
            }),
            Pattern::Call(name) => line.match_indices(name).any(|(at, _)| {
                line[at + name.len()..].starts_with('(') && !line[..at].ends_with("fn ")
            }),
        }
    }
}

struct Rule {
    name: &'static str,
    /// What to do instead; printed with every hit.
    why: &'static str,
    /// Directories (searched recursively for `.rs` files) or single
    /// files, relative to the repository root; one `*` stands for every
    /// directory at that level.
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

use Pattern::{Call, EagerArgument, Literal};

const SRC: &[&str] = &["crates/*/src", "src"];

const RULES: &[Rule] = &[
    Rule {
        name: "event details are format arguments",
        why: "formatted event text has one way in, `.detail_fmt(format_args!(…))`, which the \
              bus formats only for an event it keeps; `.detail(format!(…))` builds it whether \
              or not anyone records it, and so does `.record(…, format!(…))`: pass a closure \
              there (DESIGN.md, \"Observability\")",
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
        name: "the residual is compiled once",
        why: "`Trader::import` runs the request compiled once (`Residual`, a \
              `rmodp_core::expr::Predicate` and `Term`); the tree-walking `residual_match` is \
              the reference scan's alone, called once, in `import_scan` (DESIGN.md, \"Trader at \
              scale\")",
        roots: &["crates/trader/src"],
        patterns: &[Call("residual_match")],
        exempt: &[],
        above_tests_only: true,
        copies: 1,
    },
    Rule {
        name: "schemas evaluate compiled",
        why: "invariants, guards and effects run their `Predicate`/`Term`, compiled when the \
              schema is built; the walker only renders the error of one that fails — one \
              fallback each (DESIGN.md, \"Schemas run compiled, transitions in place\")",
        roots: &["crates/information/src"],
        patterns: &[Literal(".eval("), Literal(".eval_bool(")],
        exempt: &[],
        above_tests_only: true,
        copies: 3,
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
        why: "outside their tests the engine and the snapshot codec neither copy a Value nor \
              call the whole-document codec (DESIGN.md, \"The byte path\")",
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
        name: "one epoch loop",
        why: "the sharded kernel's loop is `drive` and its per-shard round is `serve`, shared \
              by both runners; the fault hook is a timeline value, not a trait (DESIGN.md, \
              \"Sharded kernel\")",
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
    text.lines()
        .take_while(|line| !(rule.above_tests_only && line.trim() == "#[cfg(test)]"))
        .enumerate()
        .filter(|(_, line)| rule.patterns.iter().any(|p| p.matches(line)))
        .map(|(i, _)| i + 1)
        .collect()
}

/// Expands one root (see [`Rule::roots`]) into the `.rs` files under it,
/// sorted, skipping build output.
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
    let mut files = Vec::new();
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
    assert!(scanned > 100, "only {scanned} files scanned");
    assert!(report.is_empty(), "source rules broken:\n{report}");
}

/// The code outside tests that may call a library `pub fn`: the library
/// itself and what runs it.
const CALLERS: &[&str] = &[
    "crates/*/src",
    "src",
    "examples",
    "benchmark/src",
    "crates/bench/benches",
];

/// The library `pub fn`s no code in [`CALLERS`] calls, kept on purpose:
/// each row is `name: why it stays`. Any other `pub fn` under [`SRC`]
/// without a caller fails the census: delete it, or add a row here.
const KEEP: &[&str] = &[
    // Named by the paper: the viewpoint languages and the ODP functions.
    "unassign: §3, an object leaves a community role",
    "unlink: §4, removing an association link",
    "branch_composite: §4, the bank branch as a composite schema",
    "parse_interface_type: §5.1, the interface-type notation",
    "check_args: §5.1, an invocation checked against its signature",
    "check_termination: §5.1, a termination checked against its signature",
    "is_subtype_of: §5.1.1, data subtyping with interface refs equal by name",
    "instantiate: §5.2, creating an object",
    "state_mut: §5.2, writing the state of an object",
    "create_interface: §5.2, creating an interface",
    "destroy_interface: §5.2, deleting an interface",
    "add_endpoint: §5, a binding object gains a party",
    "remove_endpoint: §5, a binding object loses a party",
    "branch_template: Figure 2, the bank branch object template",
    "single_object_capsules: §6, the one-object-per-capsule profile the paper mentions",
    "remove_object: §6.2, the nucleus deletes an object",
    "coordinated_checkpoint: §8.1, checkpointing a set of clusters",
    "coordinated_restore: §8.1, recovering a set of clusters",
    "store_checkpoint: §8.1, a checkpoint put in the storage function",
    "subscribe: §8.2, event notification",
    "unsubscribe: §8.2, event notification",
    "leave: §8.2, a failed member drops out of a replica group's view",
    "relate: §8.3, the relationship repository; §8.3.1, type relationships",
    "unrelate: §8.3, the relationship repository",
    "reachable: §8.3, the relationship repository's closure query",
    "unregister: §8.3.1, the type repository",
    "declare_property_type: §8.3.2, a service type's property types",
    "property_type: §8.3.2, a service type's property types",
    "check_request: §8.3.2, an import type-checked against its service type",
    "resolve: §8.3.3, naming for the relocator's white pages",
    "unbind: §8.3.3, naming for the relocator's white pages",
    "enrol: §8.4, authentication",
    "authenticate: §8.4, authentication",
    "allow_principal: §8.4, access control",
    "allow_role: §8.4, access control",
    "assign_role: §8.4, access control",
    "deactivate_to_storage: §9, persistence transparency",
    "transfer: §9.3, the transaction transparency example",
    // Observation points: what tests read behaviour through.
    "backup_pool: the failure guard's remaining backups",
    "pending_ops: the failure guard's ops logged since its checkpoint",
    "calls_in_flight: the engine's uncollected asynchronous calls",
    "node_stats: a nucleus's counters",
    "synced_len: the WAL bytes a crash keeps",
    "truncate_wal: the crash point of the crash-at-every-prefix tests",
    "shares_buffer_with: whether a payload was copied",
    "round_robin: the partition the kernel's shard tests run under",
    "detach: how a test makes an address unroutable",
    "take_events: the bus's buffered events, drained",
    "peak_trace_events: the bus's bounded-collection high-water mark",
    "peak_trace_bytes: the bus's bounded-collection high-water mark",
    "bucket_count: a histogram's footprint",
    "segment_sum: a profile's attribution, summed",
    "attribution_table: the profile rendered, pinned byte for byte",
    "folded_stacks: the profile rendered, pinned byte for byte",
    "summary_table: the trace rendered per node",
    // References a test compares against.
    "import_all: the unrouted broadcast the routed sharded import must agree with",
    "from_bytes: the copying envelope decode the shared-buffer one must agree with",
    "replay_consistent: the replayed transition log the recovered state must equal",
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

/// The identifiers a line uses: those of its code before any `//`,
/// except a name that follows `fn ` (which it defines).
fn used_names(line: &str) -> Vec<&str> {
    let code = line.split("//").next().unwrap_or_default();
    let mut names = Vec::new();
    let mut start = None;
    for (at, c) in code.char_indices().chain([(code.len(), ' ')]) {
        match (start, c.is_alphanumeric() || c == '_') {
            (None, true) => start = Some(at),
            (Some(from), false) => {
                if !code[..from].ends_with("fn ") {
                    names.push(&code[from..at]);
                }
                start = None;
            }
            _ => {}
        }
    }
    names
}

/// The lines of a file above its `#[cfg(test)]`, numbered from 1, and
/// the file as shown in a report.
fn lines_above_tests(repo: &Path, file: &Path) -> (String, Vec<(usize, String)>) {
    let shown = file.strip_prefix(repo).expect("under the repository");
    let text = fs::read_to_string(file).expect("readable source file");
    let lines = text
        .lines()
        .take_while(|line| line.trim() != "#[cfg(test)]")
        .enumerate()
        .map(|(i, line)| (i + 1, line.to_owned()))
        .collect();
    (shown.to_string_lossy().replace('\\', "/"), lines)
}

/// A name counts as called when a line above the test module of a file
/// under [`CALLERS`] uses it as a word outside a comment, other than as
/// its own definition: the census works by name, so one caller keeps
/// every `pub fn` of that name.
#[test]
fn every_pub_fn_has_a_caller_or_a_reason() {
    let repo = Path::new(env!("CARGO_MANIFEST_DIR"));
    let mut defined = BTreeMap::new();
    for file in SRC.iter().flat_map(|root| rust_files(repo, root)) {
        let (shown, lines) = lines_above_tests(repo, &file);
        for (number, line) in lines {
            if let Some(name) = defined_pub_fn(&line) {
                let at = format!("{shown}:{number}");
                defined.entry(name.to_owned()).or_insert(at);
            }
        }
    }
    let mut called = BTreeSet::new();
    for file in CALLERS.iter().flat_map(|root| rust_files(repo, root)) {
        for (_, line) in lines_above_tests(repo, &file).1 {
            let used = used_names(&line).into_iter();
            called.extend(
                used.filter(|name| defined.contains_key(*name))
                    .map(str::to_owned),
            );
        }
    }
    assert!(
        defined.len() > 500,
        "only {} pub fn names found",
        defined.len()
    );
    let kept: Vec<&str> = KEEP
        .iter()
        .map(|row| {
            row.split_once(": ")
                .expect("a KEEP row reads `name: why`")
                .0
        })
        .collect();
    let mut report = String::new();
    for (name, at) in &defined {
        if !called.contains(name) && !kept.contains(&name.as_str()) {
            report.push_str(&format!(
                "{at}: `pub fn {name}` has no caller outside tests — delete it, or add a KEEP \
                 row saying why it stays\n"
            ));
        }
    }
    for name in kept {
        if called.contains(name) || !defined.contains_key(name) {
            report.push_str(&format!(
                "KEEP row {name:?}: stale — the name is now called, or no `pub fn` has it\n"
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
