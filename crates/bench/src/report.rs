//! ASCII table rendering and JSON result persistence.

use eras_data::json::ToJson;
use std::fmt::Write as _;
use std::path::{Path, PathBuf};

/// A simple fixed-width ASCII table builder.
#[derive(Debug, Clone, Default)]
pub struct Table {
    headers: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl Table {
    /// Start a table with the given column headers.
    pub fn new(headers: &[&str]) -> Self {
        Table {
            headers: headers.iter().map(|s| s.to_string()).collect(),
            rows: Vec::new(),
        }
    }

    /// Append a row; must match the header count.
    // audit:allow(E701): row shape is fixed by the caller's code, not
    // by request or file data; a mismatch is a programming error
    pub fn row(&mut self, cells: Vec<String>) -> &mut Self {
        assert_eq!(cells.len(), self.headers.len(), "column count mismatch");
        self.rows.push(cells);
        self
    }

    /// Render with per-column width fitting.
    pub fn render(&self) -> String {
        let cols = self.headers.len();
        let mut widths: Vec<usize> = self.headers.iter().map(|h| h.len()).collect();
        for row in &self.rows {
            for (i, cell) in row.iter().enumerate() {
                widths[i] = widths[i].max(cell.len());
            }
        }
        let mut out = String::new();
        let line = |cells: &[String], out: &mut String| {
            for (i, cell) in cells.iter().enumerate() {
                if i > 0 {
                    out.push_str(" | ");
                }
                let _ = write!(out, "{:<width$}", cell, width = widths[i]);
            }
            out.push('\n');
        };
        line(&self.headers, &mut out);
        let total: usize = widths.iter().sum::<usize>() + 3 * (cols - 1);
        out.push_str(&"-".repeat(total));
        out.push('\n');
        for row in &self.rows {
            line(row, &mut out);
        }
        out
    }
}

/// Format a fraction as a percentage with one decimal (the paper's Hit@k
/// format).
pub fn pct(x: f64) -> String {
    format!("{:.1}", 100.0 * x)
}

/// Format an MRR with three decimals (the paper's format).
pub fn mrr(x: f64) -> String {
    format!("{x:.3}")
}

/// Write a serialisable result to `crates/bench/results/<name>.json`
/// (directory created on demand), wherever the process runs from.
/// Returns the path written.
pub fn save_json<T: ToJson>(name: &str, value: &T) -> std::io::Result<PathBuf> {
    let dir = Path::new(env!("CARGO_MANIFEST_DIR")).join("results");
    std::fs::create_dir_all(&dir)?;
    let path = dir.join(format!("{name}.json"));
    std::fs::write(&path, value.to_json().to_pretty())?;
    Ok(path)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_renders_aligned() {
        let mut t = Table::new(&["model", "MRR"]);
        t.row(vec!["DistMult".into(), "0.821".into()]);
        t.row(vec!["X".into(), "0.9".into()]);
        let s = t.render();
        let lines: Vec<&str> = s.lines().collect();
        assert_eq!(lines.len(), 4);
        // All lines the same width.
        assert_eq!(lines[0].len(), lines[2].len());
        assert!(lines[0].starts_with("model"));
    }

    #[test]
    #[should_panic]
    fn row_width_checked() {
        let mut t = Table::new(&["a", "b"]);
        t.row(vec!["only one".into()]);
    }

    #[test]
    fn formatters() {
        assert_eq!(pct(0.9485), "94.8"); // 0.9485 × 100 = 94.84999… in f64
        assert_eq!(mrr(0.95349), "0.953");
    }

    #[test]
    fn save_json_roundtrip() {
        let rows = vec![("a", 1.0f64), ("b", 2.0)];
        let path = save_json("unit_test_report", &rows).unwrap();
        let text = std::fs::read_to_string(&path).unwrap();
        assert!(text.contains("\"a\""));
        std::fs::remove_file(path).ok();
    }
}
