//! `expected.json`: the counts and checksums seed 4242 must reproduce at
//! the reported sizes. Other seeds (and the quick sizes) are checked only
//! for equality across passes and between `pop-bank-s1` and `-s4`.

use crate::json::Json;
use crate::workloads::Pin;

/// The seed `expected.json` pins.
pub const PINNED_SEED: u64 = 4242;

const FILE: &str = include_str!("../expected.json");

fn render_pin(pin: Pin) -> Json {
    match pin {
        Pin::Count(n) => Json::int(n),
        Pin::Sum(s) => Json::hex(s),
    }
}

/// One workload's entry, as `expected.json` holds it.
pub fn entry(pinned: &[(&'static str, Pin)]) -> Json {
    Json::obj(pinned.iter().map(|(key, pin)| (*key, render_pin(*pin))))
}

/// Compares what a run pinned with the file's entry for the workload.
/// Returns what differs; a workload the file does not list differs.
pub fn check(workload: &str, pinned: &[(&'static str, Pin)]) -> Vec<String> {
    check_against(FILE, workload, pinned)
}

fn check_against(file: &str, workload: &str, pinned: &[(&'static str, Pin)]) -> Vec<String> {
    let doc = match Json::parse(file) {
        Ok(doc) => doc,
        Err(e) => return vec![format!("expected.json: {e}")],
    };
    let Some(want) = doc.get("workloads").and_then(|w| w.get(workload)) else {
        return vec![format!("expected.json has no entry for {workload}")];
    };
    let Json::Obj(want_pairs) = want else {
        return vec![format!("{workload}: entry is not an object")];
    };
    let differing = pinned.iter().filter_map(|(key, pin)| {
        let got = render_pin(*pin);
        let want = want.get(key);
        (want != Some(&got)).then(|| {
            format!(
                "{workload}.{key}: got {}, expected.json says {}",
                got.render(),
                want.map_or_else(|| "nothing".to_owned(), Json::render)
            )
        })
    });
    // A key the file pins but the run no longer produces.
    let missing = want_pairs
        .iter()
        .filter(|(k, _)| pinned.iter().all(|(p, _)| p != k))
        .map(|(k, _)| format!("{workload}.{k}: pinned in expected.json, not produced"));
    differing.chain(missing).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    const SAMPLE: &str = r#"{"seed":4242,"workloads":{"w":{"ops":12,"sum":"00000000000000ff"}}}"#;

    #[test]
    fn a_matching_run_has_nothing_to_report() {
        let pinned = [("ops", Pin::Count(12)), ("sum", Pin::Sum(255))];
        assert!(check_against(SAMPLE, "w", &pinned).is_empty());
    }

    #[test]
    fn a_mismatch_names_the_key() {
        let pinned = [("ops", Pin::Count(13)), ("sum", Pin::Sum(255))];
        let problems = check_against(SAMPLE, "w", &pinned);
        assert_eq!(problems.len(), 1);
        assert!(problems[0].contains("w.ops"), "{problems:?}");

        let fewer = [("ops", Pin::Count(12))];
        assert!(check_against(SAMPLE, "w", &fewer)[0].contains("w.sum"));
        assert!(!check_against(SAMPLE, "other", &pinned).is_empty());
        assert!(!check_against("{", "w", &pinned).is_empty());
    }

    #[test]
    fn the_committed_file_pins_every_workload() {
        let doc = Json::parse(FILE).expect("expected.json parses");
        assert_eq!(
            doc.get("seed").and_then(Json::as_f64),
            Some(PINNED_SEED as f64)
        );
        for (name, _) in crate::metrics::WORKLOADS {
            assert!(
                doc.get("workloads").and_then(|w| w.get(name)).is_some(),
                "{name}"
            );
        }
    }
}
