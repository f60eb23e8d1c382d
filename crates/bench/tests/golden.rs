//! The golden gate: every deterministic artifact must reproduce its
//! committed bytes.
//!
//! `tests/baselines/` at the workspace root holds what this
//! reproduction publishes — seven `BENCH_*.json` documents, each a pure
//! function of the committed configuration named in
//! [`rmodp_bench::artifacts::ARTIFACTS`]. Same seed → same events in the
//! same order → the same JSON, byte for byte, in debug and in release:
//! the comparison is `==` on bytes, nothing is parsed and nothing is
//! tolerated. A change that moves a byte on purpose regenerates the
//! directory with the `baselines` bin and the moved bytes show in its
//! diff.

use std::collections::BTreeSet;
use std::path::{Path, PathBuf};

use rmodp_bench::artifacts::ARTIFACTS;

const REGENERATE: &str = "cargo run --release -p rmodp-bench --bin baselines -- tests/baselines";

fn baselines_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("../../tests/baselines")
}

/// A fresh directory under the target dir Cargo gives integration tests.
fn scratch_dir(name: &str) -> PathBuf {
    let dir = Path::new(env!("CARGO_TARGET_TMPDIR")).join(format!("golden-{name}"));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create scratch directory");
    dir
}

/// Where `rendered` first departs from `committed` — the byte offset and
/// ~60 bytes around it from each side — or `None` when they are equal.
fn mismatch(name: &str, committed: &[u8], rendered: &[u8]) -> Option<String> {
    if committed == rendered {
        return None;
    }
    let offset = committed
        .iter()
        .zip(rendered)
        .position(|(a, b)| a != b)
        .unwrap_or_else(|| committed.len().min(rendered.len()));
    let around = |bytes: &[u8]| {
        let window = offset.saturating_sub(30)..(offset + 30).min(bytes.len());
        String::from_utf8_lossy(&bytes[window]).into_owned()
    };
    Some(format!(
        "{name}: first differing byte at offset {offset} (committed {} bytes, rendered {})\n  \
         committed: …{}…\n  rendered:  …{}…",
        committed.len(),
        rendered.len(),
        around(committed),
        around(rendered),
    ))
}

/// Every way the entries of `dir` and the table's names disagree: the
/// directory must hold exactly one file per row and nothing else.
fn name_mismatches(dir: &Path) -> Vec<String> {
    let present: BTreeSet<String> = std::fs::read_dir(dir)
        .unwrap_or_else(|e| panic!("read {}: {e}", dir.display()))
        .map(|entry| entry.expect("directory entry").file_name())
        .map(|name| name.to_string_lossy().into_owned())
        .collect();
    let named: BTreeSet<String> = ARTIFACTS.iter().map(|row| row.name.to_string()).collect();
    let orphans = present
        .difference(&named)
        .map(|name| format!("{name}: in {} but not in the artifact table", dir.display()));
    let missing = named
        .difference(&present)
        .map(|name| format!("{name}: in the artifact table but not in {}", dir.display()));
    orphans.chain(missing).collect()
}

/// Compares each row's rendered bytes with `tests/baselines/` and
/// panics with *all* disagreements, the set of file names included.
fn assert_matches_baselines(rows: impl Iterator<Item = (&'static str, Vec<u8>)>) {
    let dir = baselines_dir();
    let mut failures = name_mismatches(&dir);
    for (name, rendered) in rows {
        // A row without a committed file is already in `failures`.
        if let Ok(committed) = std::fs::read(dir.join(name)) {
            failures.extend(mismatch(name, &committed, &rendered));
        }
    }
    assert!(
        failures.is_empty(),
        "{} disagreement(s) with tests/baselines:\n{}\n\
         if the change is meant, regenerate with\n  {REGENERATE}\nand commit the diff",
        failures.len(),
        failures.join("\n"),
    );
}

#[test]
fn every_artifact_reproduces_its_committed_bytes() {
    assert_matches_baselines(
        ARTIFACTS
            .iter()
            .map(|row| (row.name, (row.committed)().into_bytes())),
    );
}

#[test]
fn baselines_bin_writes_the_committed_directory() {
    let dir = scratch_dir("bin");
    let bin = env!("CARGO_BIN_EXE_baselines");
    let run = std::process::Command::new(bin)
        .arg(&dir)
        .output()
        .expect("spawn baselines");
    assert!(run.status.success(), "baselines {}: {run:?}", dir.display());
    assert_eq!(name_mismatches(&dir), Vec::<String>::new());
    assert_matches_baselines(ARTIFACTS.iter().map(|row| {
        let written = std::fs::read(dir.join(row.name)).expect("bin wrote the row");
        (row.name, written)
    }));

    // A named row alone, at its full configuration: a seed-only suite's
    // full run is its committed one.
    let dir = scratch_dir("bin-full");
    let run = std::process::Command::new(bin)
        .args([
            "--full".as_ref(),
            dir.as_os_str(),
            "BENCH_mechanisms.json".as_ref(),
        ])
        .output()
        .expect("spawn baselines");
    assert!(run.status.success(), "baselines --full: {run:?}");
    let written: Vec<_> = std::fs::read_dir(&dir).expect("read").flatten().collect();
    assert_eq!(written.len(), 1, "{written:?}");
    let committed = std::fs::read(baselines_dir().join("BENCH_mechanisms.json")).expect("read");
    let full = std::fs::read(dir.join("BENCH_mechanisms.json")).expect("bin wrote the row");
    assert_eq!(mismatch("BENCH_mechanisms.json", &committed, &full), None);

    // The directory is required; `--full` is the only flag and a second
    // argument must name a row.
    let refused: [&[&str]; 3] = [&[], &["--seed", "7"], &["a", "b"]];
    for args in refused {
        let run = std::process::Command::new(bin)
            .args(args)
            .output()
            .expect("spawn baselines");
        assert_eq!(run.status.code(), Some(2), "baselines {args:?}");
        let stderr = String::from_utf8_lossy(&run.stderr);
        assert!(
            stderr.contains("usage: baselines [--full] <DIR> [NAME…]"),
            "{stderr}"
        );
    }
}

/// The four edits the tolerance-band gate this test replaced let
/// through, plus a truncation: each is refused, at the edited byte.
#[test]
fn comparator_reports_every_edit_at_its_offset() {
    const DOC: &str = "{\"events\":6140,\"completed\":2048,\"lost\":0,\
         \"export_checksum\":3929204612371416819,\"slo_pass\":true,\
         \"plans\":{\"example\":\"Printer: ordered(ppm) then hash(region)\"}}\n";
    assert_eq!(mismatch("same", DOC.as_bytes(), DOC.as_bytes()), None);
    for (what, from, to) in [
        ("u64 checksum off by one", "416819", "416820"),
        ("count moved 6 %", "\"events\":6140", "\"events\":6500"),
        ("lost 0 -> 2", "\"lost\":0", "\"lost\":2"),
        ("changed string", "then hash(region)", "then scan"),
        ("truncated", "}}\n", "}}"),
    ] {
        let edited = DOC.replacen(from, to, 1);
        assert_ne!(edited, DOC, "{what}: the edit applies");
        let same = from.bytes().zip(to.bytes()).take_while(|(a, b)| a == b);
        let offset = DOC.find(from).expect("pattern present") + same.count();
        let report = mismatch(what, DOC.as_bytes(), edited.as_bytes())
            .unwrap_or_else(|| panic!("{what}: accepted"));
        assert!(
            report.contains(&format!("{what}: first differing byte at offset {offset} ")),
            "{what}: {report}"
        );
        // Context from both sides, so the report shows what moved.
        assert!(report.contains(from) && report.contains(to), "{report}");
    }
}

#[test]
fn directory_check_refuses_an_orphan_and_a_missing_file() {
    let dir = scratch_dir("names");
    for row in ARTIFACTS {
        std::fs::write(dir.join(row.name), b"{}\n").expect("write");
    }
    assert_eq!(name_mismatches(&dir), Vec::<String>::new());

    std::fs::write(dir.join("BENCH_orphan.json"), b"{}\n").expect("write");
    let report = name_mismatches(&dir);
    assert_eq!(report.len(), 1, "{report:?}");
    assert!(
        report[0].starts_with("BENCH_orphan.json: ")
            && report[0].contains("not in the artifact table")
    );

    std::fs::remove_file(dir.join("BENCH_orphan.json")).expect("remove");
    std::fs::remove_file(dir.join(ARTIFACTS[3].name)).expect("remove");
    let report = name_mismatches(&dir);
    assert_eq!(report.len(), 1, "{report:?}");
    assert!(
        report[0].starts_with(ARTIFACTS[3].name)
            && report[0].contains("in the artifact table but not in")
    );
}
