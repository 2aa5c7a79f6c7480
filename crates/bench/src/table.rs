//! Minimal fixed-width table formatting for experiment reports.

use std::fmt::Write as _;

/// A simple right-aligned fixed-width table.
#[derive(Debug, Clone, Default)]
pub struct Table {
    header: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl Table {
    /// Creates a table with the given column headers.
    pub fn new<S: Into<String>, I: IntoIterator<Item = S>>(header: I) -> Self {
        Table {
            header: header.into_iter().map(Into::into).collect(),
            rows: Vec::new(),
        }
    }

    /// Appends one row (missing cells render empty; extras are kept).
    pub fn row<S: Into<String>, I: IntoIterator<Item = S>>(&mut self, cells: I) {
        self.rows.push(cells.into_iter().map(Into::into).collect());
    }
}

impl core::fmt::Display for Table {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        let cols = self
            .header
            .len()
            .max(self.rows.iter().map(|r| r.len()).max().unwrap_or(0));
        let mut widths = vec![0usize; cols];
        for (i, h) in self.header.iter().enumerate() {
            widths[i] = widths[i].max(h.chars().count());
        }
        for row in &self.rows {
            for (i, cell) in row.iter().enumerate() {
                widths[i] = widths[i].max(cell.chars().count());
            }
        }
        let mut line = String::new();
        for (i, h) in self.header.iter().enumerate() {
            let _ = write!(line, "{:>width$}  ", h, width = widths[i]);
        }
        writeln!(f, "{}", line.trim_end())?;
        let total: usize = widths.iter().sum::<usize>() + 2 * cols.saturating_sub(1);
        writeln!(f, "{}", "-".repeat(total))?;
        for row in &self.rows {
            let mut line = String::new();
            for (i, cell) in row.iter().enumerate() {
                let _ = write!(line, "{:>width$}  ", cell, width = widths[i]);
            }
            writeln!(f, "{}", line.trim_end())?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn renders_aligned() {
        let mut t = Table::new(["a", "speed"]);
        t.row(["1", "10.5"]);
        t.row(["22", "3"]);
        let s = t.to_string();
        assert!(s.contains("a  speed"));
        assert!(s.contains("22"));
        assert_eq!(t.rows.len(), 2);
    }

    #[test]
    fn handles_ragged_rows() {
        let mut t = Table::new(["x"]);
        t.row(["1", "extra"]);
        let s = t.to_string();
        assert!(s.contains("extra"));
    }
}
