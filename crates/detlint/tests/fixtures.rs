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
/// prove cleanliness against every rule family at once. No wire enum is
/// designated, so a whole-workspace scan of a fixture runs the same
/// rules as a scan of that file alone.
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
wire_enums = []
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
    assert!(report.suppressed >= 5, "expected several suppressed findings");
    assert_eq!(report.directives, 5);
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
    assert_eq!(directive_lines.len(), 5, "fixture should carry 5 directives");
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

/// `--paths` / `--changed-only` run [`analyze`] per file; CI runs the
/// whole-workspace scan. Both must give a file the same verdict.
#[test]
fn per_file_scan_matches_the_full_scan() {
    for rel in ["fixtures/bad/protocol.rs", "fixtures/bad/determinism.rs"] {
        let row = |f: &detlint::Finding| format!("{} {} {} {}", f.file, f.line, f.rule, f.message);
        let alone: Vec<String> = scan(rel).findings.iter().map(row).collect();
        let sources = [(rel.to_string(), fixture_src(rel))];
        let full = detlint::scan_sources(&sources, &fixture_config());
        let full: Vec<String> = full.findings.iter().map(row).collect();
        assert!(!alone.is_empty());
        assert_eq!(alone, full, "{rel}: per-file and full scans disagree");
    }
}

// ---------------------------------------------------------------
// Fixture sets scanned whole (T, and X through the same pipeline),
// each with a config that enables only its family and a
// `file line rule` golden.
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

const TOTALITY_TOML: &str = r#"
sim = []
protocol = []
wire_enums = ["Payload"]
handler_fns = ["on_deliver", "on_direct"]
"#;

#[test]
fn totality_fixture_matches_golden() {
    let report = scan_set(&["fixtures/totality/wire.rs"], TOTALITY_TOML);
    check_set_golden(&report, "fixtures/totality/set.expected");
    // Alone, the file cannot be judged for T: its three T directives
    // are neither used nor called unused.
    let config = parse_config(TOTALITY_TOML, Config::default()).expect("config parses");
    let rel = "fixtures/totality/wire.rs";
    let alone = analyze(rel, &fixture_src(rel), &config);
    assert!(alone.findings.is_empty(), "{:?}", alone.findings);
    assert_eq!((alone.directives, alone.suppressed), (3, 0));
}

const SCHED_TOML: &str = r#"
sim = []
protocol = []
wire_enums = []
scheduler_scope = ["fixtures/sched/sched.rs"]
"#;

#[test]
fn sched_fixture_matches_golden() {
    let report = scan_set(&["fixtures/sched/sched.rs"], SCHED_TOML);
    check_set_golden(&report, "fixtures/sched/set.expected");
    assert!(
        report.findings.iter().any(|f| f.line > 33),
        "a helper no scheduler method calls is still scheduler code: {:?}",
        report.findings
    );
}

/// A handler name in the config that matches nothing fails the scan,
/// while the T family is switched on.
#[test]
fn a_configured_name_that_matches_nothing_is_a_finding() {
    let s004 = |rels: &[&str], toml: &str| -> Vec<String> {
        let report = scan_set(rels, toml);
        let found = report.findings.iter().filter(|f| f.rule == "S004");
        found.map(|f| format!("{}:{} {}", f.file, f.line, f.message)).collect()
    };
    let toml = TOTALITY_TOML.replace("\"on_direct\"]", "\"on_direct\", \"handle_direct\"]");
    assert_eq!(
        s004(&["fixtures/totality/wire.rs"], &toml),
        ["detlint.toml:5 `handler_fns` entry \"handle_direct\" matches no function"]
    );
    // The sched config designates no wire enum: the compiled-in handler
    // list is not judged against a file that has none of them.
    assert!(s004(&["fixtures/sched/sched.rs"], SCHED_TOML).is_empty());
}

/// The keys that once scoped the call graph are gone: a config that
/// still names one fails to parse, at that key's line.
#[test]
fn a_deleted_key_fails_to_parse() {
    for key in ["protocol_entries", "scheduler_roots", "weld_scope", "weld_facade"] {
        let toml = format!("sim = []\n{key} = [\"x\"]\n");
        let err = parse_config(&toml, Config::default()).expect_err(key);
        assert_eq!(err.line, 2, "{key}");
        assert!(err.message.contains(key), "{key}: {}", err.message);
    }
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
/// `cargo test` alone catches a regression. No host-IO rule (D006/D007)
/// fires even with every directive blanked out: the simulation-facing
/// crates reach the host only through the simulator.
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
    let mut host_io = detlint::scan_sources(&undirected, &config).findings;
    host_io.retain(|f| matches!(f.rule, "D006" | "D007"));
    assert!(host_io.is_empty(), "host IO in the live workspace:\n{}", listing(&host_io));
}
