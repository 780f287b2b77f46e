//! Diagnostics, suppressions, and report rendering.
//!
//! Text output is rustc-style `file:line: rule-id: message`, one per line,
//! sorted by `(file, line, rule)` so runs are byte-identical. The JSON
//! report (`--fix-report`) is hand-rendered — the workspace is
//! dependency-free, so no serde.

use std::fmt;

/// A rule violation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Diagnostic {
    /// Workspace-relative path.
    pub file: String,
    /// 1-based line number.
    pub line: usize,
    /// Rule id, e.g. `panic-unwrap`.
    pub rule: &'static str,
    pub message: String,
}

impl Diagnostic {
    pub fn new(file: String, line: usize, rule: &'static str, message: String) -> Self {
        Diagnostic {
            file,
            line,
            rule,
            message,
        }
    }
}

impl fmt::Display for Diagnostic {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}:{}: {}: {}",
            self.file, self.line, self.rule, self.message
        )
    }
}

/// A violation suppressed by a `// lint:allow(<rule>) <justification>`
/// comment; kept in the report so justifications stay auditable.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Suppression {
    pub file: String,
    pub line: usize,
    pub rule: &'static str,
    pub justification: String,
}

/// The outcome of linting a workspace.
#[derive(Debug, Default)]
pub struct LintOutcome {
    pub violations: Vec<Diagnostic>,
    pub allowed: Vec<Suppression>,
    pub files_scanned: usize,
}

impl LintOutcome {
    pub fn is_clean(&self) -> bool {
        self.violations.is_empty()
    }

    /// Canonical ordering: `(file, line, rule)`.
    pub fn sort(&mut self) {
        self.violations
            .sort_by(|a, b| (&a.file, a.line, a.rule).cmp(&(&b.file, b.line, b.rule)));
        self.allowed
            .sort_by(|a, b| (&a.file, a.line, a.rule).cmp(&(&b.file, b.line, b.rule)));
    }

    /// Render the machine-readable report.
    pub fn to_json(&self) -> String {
        let mut s = String::new();
        s.push_str("{\n");
        s.push_str(&format!("  \"files_scanned\": {},\n", self.files_scanned));
        s.push_str(&format!(
            "  \"violation_count\": {},\n",
            self.violations.len()
        ));
        s.push_str(&format!(
            "  \"suppression_count\": {},\n",
            self.allowed.len()
        ));
        s.push_str("  \"violations\": [\n");
        for (i, d) in self.violations.iter().enumerate() {
            let comma = if i + 1 < self.violations.len() {
                ","
            } else {
                ""
            };
            s.push_str(&format!(
                "    {{\"file\": {}, \"line\": {}, \"rule\": {}, \"message\": {}}}{}\n",
                json_str(&d.file),
                d.line,
                json_str(d.rule),
                json_str(&d.message),
                comma
            ));
        }
        s.push_str("  ],\n");
        s.push_str("  \"allowed\": [\n");
        for (i, a) in self.allowed.iter().enumerate() {
            let comma = if i + 1 < self.allowed.len() { "," } else { "" };
            s.push_str(&format!(
                "    {{\"file\": {}, \"line\": {}, \"rule\": {}, \"justification\": {}}}{}\n",
                json_str(&a.file),
                a.line,
                json_str(a.rule),
                json_str(&a.justification),
                comma
            ));
        }
        s.push_str("  ]\n}\n");
        s
    }
}

/// Escape `s` as a JSON string literal.
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

/// Lint infrastructure failure (unreadable file, missing directory) —
/// distinct from rule violations.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LintError {
    pub message: String,
}

impl LintError {
    pub fn new(message: String) -> Self {
        LintError { message }
    }
}

impl fmt::Display for LintError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "robopt-lint: {}", self.message)
    }
}

impl std::error::Error for LintError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn json_escaping_and_shape() {
        let mut out = LintOutcome {
            violations: vec![Diagnostic {
                file: "a\\b.rs".to_string(),
                line: 3,
                rule: "panic-unwrap",
                message: "say \"no\"".to_string(),
            }],
            allowed: Vec::new(),
            files_scanned: 2,
        };
        out.sort();
        let j = out.to_json();
        assert!(j.contains("\"a\\\\b.rs\""));
        assert!(j.contains("\\\"no\\\""));
        assert!(j.contains("\"violation_count\": 1"));
        assert!(j.contains("\"suppression_count\": 0"));
    }

    #[test]
    fn display_is_rustc_style() {
        let d = Diagnostic::new(
            "crates/core/src/enumerate.rs".to_string(),
            12,
            "hash-container",
            "m".to_string(),
        );
        assert_eq!(
            d.to_string(),
            "crates/core/src/enumerate.rs:12: hash-container: m"
        );
    }
}
