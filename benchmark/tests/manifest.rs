//! Build hygiene: the benchmark must measure the program the repo
//! ships, and `BENCHMARK.json` must describe the benchmark that runs.

use std::path::Path;

use vne_benchmark::adapter::WORKLOADS;
use vne_benchmark::json::Json;
use vne_benchmark::metrics::{END_TO_END, PER_LAYER};

fn read(relative: &str) -> String {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join(relative);
    std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("{}: {e}", path.display()))
}

/// The `key = value` lines of one TOML table, comments and blanks
/// dropped, whitespace squeezed.
fn table(manifest: &str, header: &str) -> Vec<String> {
    manifest
        .lines()
        .skip_while(|line| line.trim() != header)
        .skip(1)
        .take_while(|line| !line.trim_start().starts_with('['))
        .map(|line| {
            line.split('#')
                .next()
                .unwrap_or("")
                .split_whitespace()
                .collect::<String>()
        })
        .filter(|line| !line.is_empty())
        .collect()
}

#[test]
fn release_profile_is_the_root_manifests() {
    let root = table(&read("../Cargo.toml"), "[profile.release]");
    let own = table(&read("Cargo.toml"), "[profile.release]");
    assert!(!root.is_empty(), "root Cargo.toml has no [profile.release]");
    assert_eq!(
        own, root,
        "benchmark/Cargo.toml must copy the root [profile.release] verbatim, or the \
         benchmark measures a differently optimised program"
    );
}

#[test]
fn table_extraction_stops_at_the_next_header_and_ignores_comments() {
    let manifest = "[a]\nx = 1\n[profile.release]\n# why\nopt-level = 3 # fast\n\nlto = \"thin\"\n[b]\ny = 2\n";
    assert_eq!(
        table(manifest, "[profile.release]"),
        ["opt-level=3", "lto=\"thin\""]
    );
    assert!(table(manifest, "[profile.bench]").is_empty());
}

fn members<'a>(manifest: &'a Json, key: &str) -> &'a [Json] {
    manifest
        .get(key)
        .and_then(Json::as_array)
        .unwrap_or_else(|| panic!("{key} missing"))
}

fn text<'a>(object: &'a Json, key: &str) -> &'a str {
    object
        .get(key)
        .and_then(Json::as_str)
        .unwrap_or_else(|| panic!("{key} missing"))
}

#[test]
fn benchmark_json_lists_the_tables_the_binary_reports() {
    let manifest = Json::parse(&read("../BENCHMARK.json")).expect("BENCHMARK.json parses");

    let workloads: Vec<_> = members(&manifest, "workloads")
        .iter()
        .map(|w| (text(w, "name"), text(w, "why")))
        .collect();
    let expected: Vec<_> = WORKLOADS.iter().map(|w| (w.name, w.why)).collect();
    assert_eq!(workloads, expected);

    let end_to_end: Vec<_> = members(&manifest, "end_to_end")
        .iter()
        .map(|m| {
            let bound = m.get("bound").and_then(Json::as_f64).expect("bound");
            (text(m, "name"), text(m, "unit"), text(m, "better"), bound)
        })
        .collect();
    let expected: Vec<_> = END_TO_END
        .iter()
        .map(|m| (m.name, m.unit, m.better.label(), m.bound))
        .collect();
    assert_eq!(end_to_end, expected);
    assert!(END_TO_END.iter().all(|m| m.bound > 0.0 && m.bound <= 0.25));
    assert!(END_TO_END
        .iter()
        .any(|m| m.name == "setup_s" && m.unit == "s"));

    let per_layer: Vec<_> = members(&manifest, "per_layer")
        .iter()
        .map(|m| (text(m, "name"), text(m, "unit"), text(m, "better")))
        .collect();
    let expected: Vec<_> = PER_LAYER
        .iter()
        .map(|m| (m.name, m.unit, m.better.label()))
        .collect();
    assert_eq!(per_layer, expected);

    let paths: Vec<_> = members(&manifest, "paths")
        .iter()
        .filter_map(Json::as_str)
        .collect();
    assert_eq!(paths, ["benchmark"]);
    let command: Vec<_> = members(&manifest, "command")
        .iter()
        .filter_map(Json::as_str)
        .collect();
    assert!(command.contains(&"benchmark/Cargo.toml") && command.contains(&"--release"));
}

#[test]
fn metric_and_workload_names_are_unique_and_well_formed() {
    let mut names: Vec<&str> = END_TO_END.iter().map(|m| m.name).collect();
    names.extend(PER_LAYER.iter().map(|m| m.name));
    names.extend(WORKLOADS.iter().map(|w| w.name));
    let count = names.len();
    for name in &names {
        assert!(name.len() <= 64 && name.starts_with(|c: char| c.is_ascii_alphanumeric()));
        assert!(
            name.chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)),
            "{name}"
        );
    }
    names.sort_unstable();
    names.dedup();
    assert_eq!(names.len(), count, "a name is used twice");
    assert!(WORKLOADS
        .iter()
        .all(|w| w.why.len() <= 200 && !w.why.contains('\n')));
}
