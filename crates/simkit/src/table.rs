//! Plain-text table rendering and CSV output for the experiment harnesses.

use std::fmt::Write as _;
use std::fs;
use std::io;
use std::path::Path;

/// A simple column-aligned ASCII table.
#[derive(Clone, Debug, Default)]
pub struct AsciiTable {
    header: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl AsciiTable {
    /// Table with the given column headers.
    pub fn new<S: Into<String>>(header: Vec<S>) -> Self {
        AsciiTable {
            header: header.into_iter().map(Into::into).collect(),
            rows: Vec::new(),
        }
    }

    /// Append a row; it is padded/truncated to the header width.
    pub fn add_row<S: Into<String>>(&mut self, row: Vec<S>) {
        let mut r: Vec<String> = row.into_iter().map(Into::into).collect();
        r.resize(self.header.len(), String::new());
        self.rows.push(r);
    }

    /// Number of data rows.
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// True when the table has no data rows.
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// Render to a `String` with `|`-separated, width-aligned columns.
    pub fn render(&self) -> String {
        let ncols = self.header.len();
        let mut widths: Vec<usize> = self.header.iter().map(|h| h.len()).collect();
        for row in &self.rows {
            for (i, cell) in row.iter().enumerate().take(ncols) {
                widths[i] = widths[i].max(cell.len());
            }
        }
        let mut out = String::new();
        let fmt_row = |out: &mut String, cells: &[String]| {
            for (i, cell) in cells.iter().enumerate().take(ncols) {
                let _ = write!(out, "| {:<w$} ", cell, w = widths[i]);
            }
            out.push_str("|\n");
        };
        fmt_row(&mut out, &self.header);
        for w in &widths {
            out.push('|');
            out.push_str(&"-".repeat(w + 2));
        }
        out.push_str("|\n");
        for row in &self.rows {
            fmt_row(&mut out, row);
        }
        out
    }

    /// Render as CSV (RFC-4180-style quoting for commas/quotes/newlines).
    pub fn to_csv(&self) -> String {
        let mut out = String::new();
        let esc = |cell: &str| -> String {
            if cell.contains(',') || cell.contains('"') || cell.contains('\n') {
                format!("\"{}\"", cell.replace('"', "\"\""))
            } else {
                cell.to_string()
            }
        };
        let push_row = |out: &mut String, cells: &[String]| {
            let line: Vec<String> = cells.iter().map(|c| esc(c)).collect();
            out.push_str(&line.join(","));
            out.push('\n');
        };
        push_row(&mut out, &self.header);
        for row in &self.rows {
            push_row(&mut out, row);
        }
        out
    }

    /// Write the CSV rendering to `path`, creating parent directories.
    pub fn write_csv<P: AsRef<Path>>(&self, path: P) -> io::Result<()> {
        if let Some(parent) = path.as_ref().parent() {
            fs::create_dir_all(parent)?;
        }
        fs::write(path, self.to_csv())
    }
}

/// Format a float with `prec` decimals, rendering NaN/inf as "-".
pub fn fmt_f64(x: f64, prec: usize) -> String {
    if x.is_finite() {
        format!("{x:.prec$}")
    } else {
        "-".to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn render_aligns_columns() {
        let mut t = AsciiTable::new(vec!["name", "value"]);
        t.add_row(vec!["alpha", "1"]);
        t.add_row(vec!["b", "123456"]);
        let s = t.render();
        let lines: Vec<&str> = s.lines().collect();
        assert_eq!(lines.len(), 4);
        // All lines have equal width.
        assert!(lines.iter().all(|l| l.len() == lines[0].len()));
        assert!(lines[0].contains("name"));
        assert!(lines[3].contains("123456"));
    }

    #[test]
    fn short_rows_are_padded() {
        let mut t = AsciiTable::new(vec!["a", "b", "c"]);
        t.add_row(vec!["only-one"]);
        assert_eq!(t.len(), 1);
        let s = t.render();
        assert!(s.contains("only-one"));
    }

    #[test]
    fn csv_quotes_special_cells() {
        let mut t = AsciiTable::new(vec!["k", "v"]);
        t.add_row(vec!["a,b", "say \"hi\""]);
        let csv = t.to_csv();
        assert!(csv.contains("\"a,b\""));
        assert!(csv.contains("\"say \"\"hi\"\"\""));
    }

    #[test]
    fn write_csv_creates_dirs() {
        let dir = std::env::temp_dir().join("qi_table_test");
        let _ = fs::remove_dir_all(&dir);
        let mut t = AsciiTable::new(vec!["x"]);
        t.add_row(vec!["1"]);
        let path = dir.join("nested/out.csv");
        t.write_csv(&path).unwrap();
        assert_eq!(fs::read_to_string(&path).unwrap(), "x\n1\n");
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn fmt_helpers() {
        assert_eq!(fmt_f64(1.23456, 2), "1.23");
        assert_eq!(fmt_f64(f64::NAN, 2), "-");
    }
}
