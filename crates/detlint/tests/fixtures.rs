//! Fixture-driven acceptance tests for the analyzer, plus the
//! live-workspace gate.
//!
//! Each `fixtures/bad/*.rs` file pairs with a `.expected` golden of
//! `line rule` entries; drift in either direction fails with a diff
//! you can paste back into the golden. `fixtures/allowed/justified.rs`
//! additionally pins the suppression contract: it scans clean as
//! written, and deleting ANY single directive makes the scan fail —
//! the property the CI gate relies on.

use detlint::{analyze, parse_config, Config};

/// Fixture scan roles, mirroring how detlint.toml assigns the live
/// tree's roles. `clean.rs` and `justified.rs` get BOTH roles so they
/// prove cleanliness against every rule family at once.
fn fixture_config() -> Config {
    let toml = r#"
sim = [
    "fixtures/bad/determinism.rs",
    "fixtures/bad/suppress.rs",
    "fixtures/good/clean.rs",
    "fixtures/allowed/justified.rs",
]
protocol = [
    "fixtures/bad/protocol.rs",
    "fixtures/good/clean.rs",
    "fixtures/allowed/justified.rs",
]
skip = []
"#;
    parse_config(toml, Config::default()).expect("fixture config parses")
}

fn fixture_src(rel: &str) -> String {
    let path = format!("{}/{rel}", env!("CARGO_MANIFEST_DIR"));
    std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("{path}: {e}"))
}

fn scan(rel: &str) -> detlint::FileReport {
    analyze(rel, &fixture_src(rel), &fixture_config())
}

fn check_golden(rel: &str) {
    let actual: Vec<String> =
        scan(rel).findings.iter().map(|f| format!("{} {}", f.line, f.rule)).collect();
    let golden_rel = rel.replace(".rs", ".expected");
    let expected: Vec<String> = fixture_src(&golden_rel)
        .lines()
        .map(str::trim)
        .filter(|l| !l.is_empty() && !l.starts_with('#'))
        .map(str::to_string)
        .collect();
    assert_eq!(
        actual,
        expected,
        "\n{rel} drifted from {golden_rel}; actual findings were:\n{}\n",
        actual.join("\n")
    );
}

#[test]
fn determinism_fixture_matches_golden() {
    check_golden("fixtures/bad/determinism.rs");
}

#[test]
fn protocol_fixture_matches_golden() {
    check_golden("fixtures/bad/protocol.rs");
}

#[test]
fn suppress_fixture_matches_golden() {
    check_golden("fixtures/bad/suppress.rs");
}

#[test]
fn clean_fixture_is_clean() {
    let report = scan("fixtures/good/clean.rs");
    assert!(report.findings.is_empty(), "unexpected findings: {:?}", report.findings);
    assert_eq!(report.directives, 0, "clean fixture must not need directives");
}

#[test]
fn justified_fixture_is_suppressed_clean() {
    let report = scan("fixtures/allowed/justified.rs");
    assert!(report.findings.is_empty(), "unexpected findings: {:?}", report.findings);
    assert!(report.suppressed >= 4, "expected several suppressed findings");
    assert_eq!(report.directives, 4);
}

/// The governance property end to end: every directive in the allowed
/// fixture is load-bearing. Deleting any ONE of them re-surfaces a
/// finding (or trips S002 on a now-dangling sibling), so a scan of the
/// edited file is non-clean — which is exit code 1 at the CLI.
#[test]
fn deleting_any_suppression_fails_the_scan() {
    let rel = "fixtures/allowed/justified.rs";
    let src = fixture_src(rel);
    let directive_lines: Vec<usize> = src
        .lines()
        .enumerate()
        .filter(|(_, l)| l.trim_start().starts_with("// detlint::allow"))
        .map(|(i, _)| i)
        .collect();
    assert_eq!(directive_lines.len(), 4, "fixture should carry 4 directives");
    for &del in &directive_lines {
        let edited: String = src
            .lines()
            .enumerate()
            .filter(|&(i, _)| i != del)
            .map(|(_, l)| format!("{l}\n"))
            .collect();
        let report = analyze(rel, &edited, &fixture_config());
        assert!(
            !report.findings.is_empty(),
            "deleting the directive on line {} left the scan clean — \
             that suppression was not load-bearing",
            del + 1
        );
    }
}

// ---------------------------------------------------------------
// Cross-file rule families (W / T / X / P-reachability). Each family
// scans its own fixture set with a config that enables only that
// family, and pins a `file line rule` golden.
// ---------------------------------------------------------------

/// Scans a fixture set with a family-specific config. Keys absent from
/// the TOML keep their compiled-in defaults, so each family config
/// explicitly empties the lists that would enable the other families.
fn scan_set(rels: &[&str], toml: &str) -> detlint::ScanReport {
    let config = parse_config(toml, Config::default()).expect("family config parses");
    let sources: Vec<(String, String)> =
        rels.iter().map(|r| ((*r).to_string(), fixture_src(r))).collect();
    detlint::scan_sources(&sources, &config)
}

fn check_set_golden(report: &detlint::ScanReport, golden_rel: &str) {
    let actual: Vec<String> =
        report.findings.iter().map(|f| format!("{} {} {}", f.file, f.line, f.rule)).collect();
    let expected: Vec<String> = fixture_src(golden_rel)
        .lines()
        .map(str::trim)
        .filter(|l| !l.is_empty() && !l.starts_with('#'))
        .map(str::to_string)
        .collect();
    assert_eq!(
        actual,
        expected,
        "\nfixture set drifted from {golden_rel}; actual findings were:\n{}\n",
        actual.join("\n")
    );
}

const WELD_TOML: &str = r#"
sim = []
protocol = []
wire_enums = []
scheduler_roots = []
weld_scope = ["fixtures/weld/**"]
weld_facade = ["fixtures/weld/facade.rs"]
"#;

#[test]
fn weld_fixture_matches_golden() {
    let report = scan_set(&["fixtures/weld/core.rs", "fixtures/weld/facade.rs"], WELD_TOML);
    check_set_golden(&report, "fixtures/weld/set.expected");
    // The two governed welds fire and their directives absorb them.
    assert_eq!(report.stats.suppressed, 2);
}

const TOTALITY_TOML: &str = r#"
sim = []
protocol = []
weld_scope = []
scheduler_roots = []
wire_enums = ["Payload"]
handler_fns = ["on_deliver", "on_direct"]
"#;

#[test]
fn totality_fixture_matches_golden() {
    let report = scan_set(&["fixtures/totality/wire.rs"], TOTALITY_TOML);
    check_set_golden(&report, "fixtures/totality/set.expected");
}

const SCHED_TOML: &str = r#"
sim = []
protocol = []
weld_scope = []
wire_enums = []
scheduler_roots = ["Sched::run"]
scheduler_scope = ["fixtures/sched/sched.rs"]
"#;

#[test]
fn sched_fixture_matches_golden() {
    let report = scan_set(&["fixtures/sched/sched.rs"], SCHED_TOML);
    check_set_golden(&report, "fixtures/sched/set.expected");
    assert!(
        !report.findings.iter().any(|f| f.line > 33),
        "helpers unreachable from the scheduler roots must not be flagged: {:?}",
        report.findings
    );
}

const REACH_TOML: &str = r#"
sim = []
weld_scope = []
wire_enums = []
scheduler_roots = []
protocol = ["fixtures/reach/proto.rs"]
protocol_entries = ["on_message"]
"#;

#[test]
fn reachability_fixture_matches_golden() {
    let report = scan_set(&["fixtures/reach/proto.rs"], REACH_TOML);
    check_set_golden(&report, "fixtures/reach/set.expected");
    let s002 = report
        .findings
        .iter()
        .find(|f| f.rule == "S002")
        .expect("the out-of-cone suppression must be flagged stale");
    assert!(
        s002.message.contains("not reachable"),
        "S002 should explain WHY the directive is stale: {}",
        s002.message
    );
}

/// A function name in the config that matches nothing fails the scan —
/// for each of the three lists that designate functions, and only while
/// the family the list feeds is switched on.
#[test]
fn a_configured_name_that_matches_nothing_is_a_finding() {
    let s004 = |rels: &[&str], toml: &str| -> Vec<String> {
        let report = scan_set(rels, toml);
        let found = report.findings.iter().filter(|f| f.rule == "S004");
        found.map(|f| format!("{}:{} {}", f.file, f.line, f.message)).collect()
    };
    // The method moved to another type; a free function was given an owner.
    let toml = SCHED_TOML.replace(
        "\"Sched::run\"",
        "\"Sched::run\", \"Server::run\", \"Sched::unreachable_helper\"",
    );
    assert_eq!(
        s004(&["fixtures/sched/sched.rs"], &toml),
        [
            "detlint.toml:6 `scheduler_roots` entry \"Server::run\" matches no function",
            "detlint.toml:6 `scheduler_roots` entry \"Sched::unreachable_helper\" matches no function",
        ]
    );
    let toml = REACH_TOML.replace("[\"on_message\"]", "[\"on_message\", \"apply_effects\"]");
    assert_eq!(
        s004(&["fixtures/reach/proto.rs"], &toml),
        ["detlint.toml:7 `protocol_entries` entry \"apply_effects\" matches no function"]
    );
    let toml = TOTALITY_TOML.replace("\"on_direct\"]", "\"on_direct\", \"handle_direct\"]");
    assert_eq!(
        s004(&["fixtures/totality/wire.rs"], &toml),
        ["detlint.toml:7 `handler_fns` entry \"handle_direct\" matches no function"]
    );
    // The weld fixture names no protocol file and no wire enum: the
    // compiled-in entry and handler lists are not judged against it.
    assert!(s004(&["fixtures/weld/core.rs", "fixtures/weld/facade.rs"], WELD_TOML).is_empty());
}

fn workspace_root() -> std::path::PathBuf {
    std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .ancestors()
        .nth(2)
        .expect("workspace root above crates/detlint")
        .to_path_buf()
}

/// The live tree must scan clean with the checked-in config — the same
/// gate CI runs via `cargo run -p detlint`. Running it as a test means
/// `cargo test` alone catches a regression. No W rule fires even with
/// every directive blanked out: the protocol crates touch the host
/// environment only through the runtime facade.
#[test]
fn live_workspace_is_clean() {
    let root = workspace_root();
    let config = detlint::load_config(&root).expect("detlint.toml loads");
    let scan = detlint::scan_workspace(&root, &config).expect("workspace scans");
    let listing = |findings: &[detlint::Finding]| {
        let rows = findings.iter().map(|f| format!("  {}:{} {}", f.file, f.line, f.rule));
        rows.collect::<Vec<_>>().join("\n")
    };
    assert!(
        scan.clean(),
        "live workspace has {} detlint finding(s); run `cargo run -p detlint` for the report:\n{}",
        scan.findings.len(),
        listing(&scan.findings)
    );

    let undirected: Vec<(String, String)> = detlint::collect_files(&root, &config)
        .expect("workspace lists")
        .into_iter()
        .map(|rel| {
            let src = std::fs::read_to_string(root.join(&rel)).expect("source reads");
            (rel, src.replace("detlint::allow", "detlint-allow"))
        })
        .collect();
    let mut welds = detlint::scan_sources(&undirected, &config).findings;
    welds.retain(|f| f.rule.starts_with('W'));
    assert!(welds.is_empty(), "IO welds in the live workspace:\n{}", listing(&welds));
}
