//! Table rendering for the experiment harness.
//!
//! The `repro` binaries print the same rows/series the paper reports; this
//! module renders them as GitHub-flavored markdown (for EXPERIMENTS.md) and
//! CSV (for plotting).

use std::fmt::Write as _;

/// A simple column-aligned table.
#[derive(Debug, Clone)]
pub struct Table {
    title: String,
    headers: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl Table {
    /// Creates a table with the given title and column headers.
    pub fn new(title: impl Into<String>, headers: &[&str]) -> Self {
        Table {
            title: title.into(),
            headers: headers.iter().map(|s| s.to_string()).collect(),
            rows: Vec::new(),
        }
    }

    /// Appends a row. Panics if the arity does not match the header.
    pub fn row(&mut self, cells: &[String]) -> &mut Self {
        assert_eq!(
            cells.len(),
            self.headers.len(),
            "row arity {} != header arity {}",
            cells.len(),
            self.headers.len()
        );
        self.rows.push(cells.to_vec());
        self
    }

    /// The table title.
    pub fn title(&self) -> &str {
        &self.title
    }

    /// Number of data rows.
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// True when the table has no data rows.
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// Renders as GitHub-flavored markdown with a title heading.
    pub fn to_markdown(&self) -> String {
        let mut out = String::new();
        if !self.title.is_empty() {
            let _ = writeln!(out, "### {}\n", self.title);
        }
        let widths: Vec<usize> = self
            .headers
            .iter()
            .enumerate()
            .map(|(i, h)| {
                self.rows
                    .iter()
                    .map(|r| r[i].len())
                    .chain(std::iter::once(h.len()))
                    .max()
                    .unwrap_or(0)
            })
            .collect();
        let render_row = |cells: &[String]| -> String {
            let padded: Vec<String> = cells.iter().zip(&widths).map(|(c, w)| format!("{c:<w$}")).collect();
            format!("| {} |", padded.join(" | "))
        };
        let _ = writeln!(out, "{}", render_row(&self.headers));
        let sep: Vec<String> = widths.iter().map(|w| "-".repeat(*w)).collect();
        let _ = writeln!(out, "{}", render_row(&sep));
        for r in &self.rows {
            let _ = writeln!(out, "{}", render_row(r));
        }
        out
    }

    /// Renders as CSV (RFC-4180 quoting for cells containing commas,
    /// quotes, or newlines).
    pub fn to_csv(&self) -> String {
        let esc = |cell: &str| -> String {
            if cell.contains(',') || cell.contains('"') || cell.contains('\n') {
                format!("\"{}\"", cell.replace('"', "\"\""))
            } else {
                cell.to_string()
            }
        };
        let mut out = String::new();
        let _ = writeln!(
            out,
            "{}",
            self.headers.iter().map(|h| esc(h)).collect::<Vec<_>>().join(",")
        );
        for r in &self.rows {
            let _ = writeln!(out, "{}", r.iter().map(|c| esc(c)).collect::<Vec<_>>().join(","));
        }
        out
    }
}

/// Formats a float with fixed decimals, trimming `-0.000` artifacts.
pub fn fnum(x: f64, decimals: usize) -> String {
    let s = format!("{x:.decimals$}");
    if s.starts_with('-') && s[1..].chars().all(|c| c == '0' || c == '.') {
        s[1..].to_string()
    } else {
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn markdown_has_header_separator_and_rows() {
        let mut t = Table::new("Demo", &["a", "b"]);
        t.row(&["1".into(), "2".into()]);
        let md = t.to_markdown();
        assert!(md.contains("### Demo"));
        assert!(md.contains("| a | b |"));
        assert!(md.contains("| - | - |"));
        assert!(md.contains("| 1 | 2 |"));
    }

    #[test]
    fn markdown_pads_columns() {
        let mut t = Table::new("", &["name", "v"]);
        t.row(&["x".into(), "123456".into()]);
        let md = t.to_markdown();
        assert!(md.contains("| x    | 123456 |"), "{md}");
    }

    #[test]
    #[should_panic(expected = "row arity")]
    fn arity_mismatch_panics() {
        let mut t = Table::new("t", &["a"]);
        t.row(&["1".into(), "2".into()]);
    }

    #[test]
    fn csv_escapes_special_cells() {
        let mut t = Table::new("t", &["a", "b"]);
        t.row(&["x,y".into(), "he said \"hi\"".into()]);
        let csv = t.to_csv();
        assert!(csv.contains("\"x,y\""));
        assert!(csv.contains("\"he said \"\"hi\"\"\""));
    }

    #[test]
    fn rows_are_counted() {
        let mut t = Table::new("t", &["a", "b"]);
        assert!(t.is_empty());
        t.row(&["1.5".into(), "2.5".into()]);
        assert_eq!(t.len(), 1);
        assert!(!t.is_empty());
    }

    #[test]
    fn fnum_trims_negative_zero() {
        assert_eq!(fnum(-0.0001, 2), "0.00");
        assert_eq!(fnum(-1.2345, 2), "-1.23");
        assert_eq!(fnum(1.23456, 3), "1.235");
    }
}
