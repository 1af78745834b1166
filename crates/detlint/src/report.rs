//! Rendering: a human-readable aligned table, a machine-readable
//! JSON document, and the weld-map JSON (all hand-rolled — the
//! analyzer carries no deps).

use crate::engine::Finding;
use crate::weld::Weld;

/// Scan totals alongside the findings.
#[derive(Debug, Default, Clone, Copy)]
pub struct Stats {
    pub files_scanned: usize,
    pub suppressed: usize,
    pub directives: usize,
}

/// Renders the human table: one `file:line  RULE  message` row per
/// finding plus an indented hint, then a summary line.
pub fn render_human(findings: &[Finding], stats: Stats) -> String {
    let mut out = String::new();
    let loc_width = findings.iter().map(|f| f.file.len() + 1 + digits(f.line)).max().unwrap_or(0);
    for f in findings {
        let loc = format!("{}:{}", f.file, f.line);
        out.push_str(&format!("{loc:<loc_width$}  {}  {}\n", f.rule, f.message));
        out.push_str(&format!("{:loc_width$}        hint: {}\n", "", f.hint));
    }
    let verdict = if findings.is_empty() { "clean" } else { "FAIL" };
    out.push_str(&format!(
        "detlint: {} — {} finding(s), {} suppressed by {} directive(s), {} file(s) scanned\n",
        verdict,
        findings.len(),
        stats.suppressed,
        stats.directives,
        stats.files_scanned,
    ));
    out
}

/// Renders the JSON document consumed by CI.
pub fn render_json(findings: &[Finding], stats: Stats) -> String {
    let mut out = String::from("{\n  \"version\": 1,\n  \"findings\": [");
    for (i, f) in findings.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(&format!(
            "\n    {{\"file\": {}, \"line\": {}, \"rule\": {}, \"message\": {}, \"hint\": {}}}",
            json_str(&f.file),
            f.line,
            json_str(f.rule),
            json_str(&f.message),
            json_str(f.hint),
        ));
    }
    if !findings.is_empty() {
        out.push_str("\n  ");
    }
    out.push_str(&format!(
        "],\n  \"summary\": {{\"findings\": {}, \"suppressed\": {}, \"directives\": {}, \"files_scanned\": {}, \"clean\": {}}}\n}}\n",
        findings.len(),
        stats.suppressed,
        stats.directives,
        stats.files_scanned,
        findings.is_empty(),
    ));
    out
}

/// Renders the weld map — the work-list and ratchet for
/// the sans-IO refactor — as CI uploads it. Entries are sorted by (file, line, rule)
/// upstream so the file is byte-stable across runs; `count` includes
/// suppressed (justified) welds, because the ratchet bounds the total
/// IO surface, not just the unjustified part.
pub fn render_weld_map(welds: &[Weld]) -> String {
    render_welds(welds, true)
}

/// The form of the weld map that is committed as `results/weld_map.json`:
/// [`render_weld_map`] without the line numbers, so that moving a welded
/// function within its file does not make the committed map stale.
pub fn render_weld_baseline(welds: &[Weld]) -> String {
    render_welds(welds, false)
}

fn render_welds(welds: &[Weld], lines: bool) -> String {
    let mut out = String::from("{\n  \"version\": 1,\n  \"welds\": [");
    for (i, w) in welds.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let prims: Vec<String> = w.primitives.iter().map(|p| json_str(p)).collect();
        let line = if lines { format!("\"line\": {}, ", w.line) } else { String::new() };
        out.push_str(&format!(
            "\n    {{\"fn\": {}, \"file\": {}, {line}\"rule\": {}, \"primitives\": [{}], \"suppressed\": {}}}",
            json_str(&w.fn_name),
            json_str(&w.file),
            json_str(w.rule),
            prims.join(", "),
            w.suppressed,
        ));
    }
    if !welds.is_empty() {
        out.push_str("\n  ");
    }
    out.push_str(&format!("],\n  \"count\": {}\n}}\n", welds.len()));
    out
}

/// Extracts the `"count"` field from a weld-map JSON document — the
/// CI ratchet baseline. A tiny scan, not a JSON parser: the document
/// is machine-written by [`render_weld_map`].
pub fn weld_map_count(json: &str) -> Option<usize> {
    let k = json.rfind("\"count\"")?;
    let rest = json[k + 7..].trim_start().strip_prefix(':')?.trim_start();
    let digits: String = rest.chars().take_while(|c| c.is_ascii_digit()).collect();
    digits.parse().ok()
}

fn digits(mut n: u32) -> usize {
    let mut d = 1;
    while n >= 10 {
        n /= 10;
        d += 1;
    }
    d
}

/// JSON string escaping (quotes, backslashes, control characters).
fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::Finding;

    fn sample() -> Vec<Finding> {
        vec![Finding {
            file: "crates/x/src/a.rs".into(),
            line: 7,
            rule: "D001",
            message: "`Instant` is wall-clock time".into(),
            hint: "use SimTime",
        }]
    }

    #[test]
    fn human_table_mentions_everything() {
        let s = render_human(&sample(), Stats { files_scanned: 3, suppressed: 1, directives: 2 });
        assert!(s.contains("crates/x/src/a.rs:7"));
        assert!(s.contains("D001"));
        assert!(s.contains("hint: use SimTime"));
        assert!(s.contains("FAIL"));
        let clean = render_human(&[], Stats::default());
        assert!(clean.contains("clean"));
    }

    #[test]
    fn weld_map_roundtrips_count() {
        let welds = vec![Weld {
            fn_name: "ThreadedCluster::start".into(),
            file: "crates/core/src/threaded.rs".into(),
            line: 42,
            rule: "W001",
            primitives: vec!["thread::spawn".into(), "Instant".into()],
            suppressed: true,
        }];
        let json = render_weld_map(&welds);
        assert!(json.contains("\"fn\": \"ThreadedCluster::start\""));
        assert!(json.contains("\"suppressed\": true"));
        assert_eq!(weld_map_count(&json), Some(1));
        assert_eq!(weld_map_count(&render_weld_map(&[])), Some(0));
        assert!(json.contains("\"line\": 42"));
        let baseline = render_weld_baseline(&welds);
        assert_eq!(baseline, json.replace("\"line\": 42, ", ""));
    }

    #[test]
    fn json_escapes_and_reports_clean_flag() {
        let mut f = sample();
        f[0].message = "quote \" and \\ backslash".into();
        let s = render_json(&f, Stats::default());
        assert!(s.contains(r#"quote \" and \\ backslash"#));
        assert!(s.contains("\"clean\": false"));
        let s = render_json(&[], Stats::default());
        assert!(s.contains("\"clean\": true"));
    }
}
