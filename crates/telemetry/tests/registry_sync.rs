//! Keeps `docs/metrics-registry.txt` in lockstep with the compiled-in
//! registry. CI diffs live `hps serve --metrics` scrapes against that
//! file, so a drift here would make CI lie.

use hps_telemetry::metrics::{ALL_COUNTERS, ALL_HISTOGRAMS};
use std::path::PathBuf;

fn registry_file() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../docs/metrics-registry.txt")
}

#[test]
fn registry_file_matches_compiled_registry() {
    let expected: Vec<&str> = ALL_COUNTERS.iter().chain(ALL_HISTOGRAMS).copied().collect();
    let path = registry_file();
    let file = std::fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("cannot read {} ({e})", path.display()));
    let listed: Vec<&str> = file.lines().filter(|l| !l.is_empty()).collect();
    assert_eq!(
        listed, expected,
        "docs/metrics-registry.txt is out of sync with hps-telemetry's \
         ALL_COUNTERS/ALL_HISTOGRAMS (counters first, then histograms, \
         registry order); update the file and docs/OBSERVABILITY.md"
    );
}

#[test]
fn registries_are_sorted_and_disjoint() {
    // The exposition formats rely on registry order being lexicographic
    // (BTreeMap iteration matches it) and on the two kinds never sharing a
    // name.
    let mut counters = ALL_COUNTERS.to_vec();
    counters.sort_unstable();
    assert_eq!(counters, ALL_COUNTERS, "ALL_COUNTERS must stay sorted");
    let mut hists = ALL_HISTOGRAMS.to_vec();
    hists.sort_unstable();
    assert_eq!(hists, ALL_HISTOGRAMS, "ALL_HISTOGRAMS must stay sorted");
    for h in ALL_HISTOGRAMS {
        assert!(!ALL_COUNTERS.contains(h), "{h} registered as both kinds");
    }
}
