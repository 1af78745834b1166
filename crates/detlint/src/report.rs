//! Rendering: a human-readable aligned table and a machine-readable
//! JSON document (both hand-rolled — the analyzer carries no deps).

use crate::engine::Finding;

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
