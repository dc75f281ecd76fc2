//! Findings and their rendering (terminal + SARIF-shaped JSON).

use std::fmt;

use crate::analysis::Hop;

/// One rule violation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Finding {
    /// Rule name (`panic_freedom`, …).
    pub rule: &'static str,
    /// Workspace-relative path.
    pub path: String,
    /// 1-based line.
    pub line: u32,
    /// Human message.
    pub message: String,
    /// The trimmed offending source line (the baseline key).
    pub snippet: String,
    /// Call-path witness for interprocedural findings (empty for purely
    /// local ones). Ordered entry-point-first.
    pub trace: Vec<Hop>,
}

impl Finding {
    /// A local (trace-less) finding.
    pub fn local(rule: &'static str, path: String, line: u32, message: String, snippet: String) -> Finding {
        Finding {
            rule,
            path,
            line,
            message,
            snippet,
            trace: Vec::new(),
        }
    }
}

impl fmt::Display for Finding {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}:{}: [{}] {}", self.path, self.line, self.rule, self.message)?;
        for (i, hop) in self.trace.iter().enumerate() {
            write!(
                f,
                "\n    {} {} ({}:{})",
                if i == 0 { "via" } else { " ->" },
                hop.symbol,
                hop.path,
                hop.line
            )?;
        }
        Ok(())
    }
}

/// Escapes a string for JSON output.
fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            '\r' => out.push_str("\\r"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

fn location(path: &str, line: u32, snippet: Option<&str>, indent: &str) -> String {
    let region = match snippet {
        Some(s) => format!(
            "{{\"startLine\": {line}, \"snippet\": {{\"text\": \"{}\"}}}}",
            json_escape(s)
        ),
        None => format!("{{\"startLine\": {line}}}"),
    };
    format!(
        "{indent}{{\"physicalLocation\": {{\"artifactLocation\": {{\"uri\": \"{}\"}}, \"region\": {region}}}}}",
        json_escape(path)
    )
}

/// Renders findings as a SARIF-shaped (2.1.0) JSON report for the CI
/// artifact. Each interprocedural finding carries its call-path witness
/// as a `codeFlows` thread flow, entry point first.
pub fn to_sarif(findings: &[Finding], suppressed: usize, rules: &[(&str, &str)]) -> String {
    let mut out = String::new();
    out.push_str("{\n");
    out.push_str("  \"version\": \"2.1.0\",\n");
    out.push_str("  \"$schema\": \"https://json.schemastore.org/sarif-2.1.0.json\",\n");
    out.push_str("  \"runs\": [\n    {\n");
    out.push_str("      \"tool\": {\n        \"driver\": {\n          \"name\": \"greengpu-lint\",\n");
    out.push_str("          \"rules\": [\n");
    for (i, (name, describe)) in rules.iter().enumerate() {
        out.push_str(&format!(
            "            {{\"id\": \"{}\", \"shortDescription\": {{\"text\": \"{}\"}}}}{}\n",
            json_escape(name),
            json_escape(describe),
            if i + 1 < rules.len() { "," } else { "" }
        ));
    }
    out.push_str("          ]\n        }\n      },\n");
    out.push_str(&format!(
        "      \"properties\": {{\"findings\": {}, \"suppressed\": {suppressed}}},\n",
        findings.len()
    ));
    out.push_str("      \"results\": [\n");
    for (i, f) in findings.iter().enumerate() {
        out.push_str("        {\n");
        out.push_str(&format!("          \"ruleId\": \"{}\",\n", json_escape(f.rule)));
        out.push_str("          \"level\": \"error\",\n");
        out.push_str(&format!(
            "          \"message\": {{\"text\": \"{}\"}},\n",
            json_escape(&f.message)
        ));
        out.push_str(&format!(
            "          \"locations\": [\n{}\n          ]",
            location(&f.path, f.line, Some(&f.snippet), "            ")
        ));
        if !f.trace.is_empty() {
            out.push_str(
                ",\n          \"codeFlows\": [\n            {\"threadFlows\": [\n              {\"locations\": [\n",
            );
            for (j, hop) in f.trace.iter().enumerate() {
                out.push_str(&format!(
                    "                {{\"location\": {{\"message\": {{\"text\": \"{}\"}}, \"physicalLocation\": {{\"artifactLocation\": {{\"uri\": \"{}\"}}, \"region\": {{\"startLine\": {}}}}}}}}}{}\n",
                    json_escape(&hop.symbol),
                    json_escape(&hop.path),
                    hop.line,
                    if j + 1 < f.trace.len() { "," } else { "" }
                ));
            }
            out.push_str("              ]}\n            ]}\n          ]\n");
        } else {
            out.push('\n');
        }
        out.push_str(&format!(
            "        }}{}\n",
            if i + 1 < findings.len() { "," } else { "" }
        ));
    }
    out.push_str("      ]\n    }\n  ]\n}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sarif_is_escaped_and_counted() {
        let f = Finding::local(
            "float_eq",
            "a/b.rs".into(),
            3,
            "no `==` on floats".into(),
            "x == \"q\"".into(),
        );
        let j = to_sarif(&[f], 2, &[("float_eq", "no float equality")]);
        assert!(j.contains("\"version\": \"2.1.0\""));
        assert!(j.contains("\"ruleId\": \"float_eq\""));
        assert!(j.contains("\"findings\": 1"));
        assert!(j.contains("\"suppressed\": 2"));
        assert!(j.contains("x == \\\"q\\\""));
        assert!(!j.contains("codeFlows"), "local findings carry no flow");
    }

    #[test]
    fn sarif_carries_witness_trace_as_code_flow() {
        let mut f = Finding::local(
            "panic_freedom",
            "crates/a/src/x.rs".into(),
            9,
            "reachable".into(),
            "x.unwrap()".into(),
        );
        f.trace = vec![
            Hop {
                symbol: "run_spine".into(),
                path: "crates/cluster/src/engine.rs".into(),
                line: 455,
            },
            Hop {
                symbol: "helper".into(),
                path: "crates/a/src/x.rs".into(),
                line: 9,
            },
        ];
        let j = to_sarif(&[f], 0, &[]);
        assert!(j.contains("codeFlows"));
        assert!(j.contains("run_spine"));
        assert!(j.contains("\"startLine\": 455"));
    }

    #[test]
    fn display_appends_trace_hops() {
        let mut f = Finding::local("panic_freedom", "a.rs".into(), 1, "m".into(), "s".into());
        f.trace = vec![Hop {
            symbol: "root".into(),
            path: "b.rs".into(),
            line: 2,
        }];
        let text = f.to_string();
        assert!(text.contains("via root (b.rs:2)"));
    }
}
