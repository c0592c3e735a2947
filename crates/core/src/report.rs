//! Plain-text table rendering for the experiment artifacts.

/// A simple fixed-width text table builder.
///
/// # Examples
///
/// ```
/// use inceptionn::report::TextTable;
///
/// let mut t = TextTable::new(vec!["model", "ratio"]);
/// t.row(vec!["AlexNet".into(), "5.5".into()]);
/// let s = t.render();
/// assert!(s.contains("AlexNet"));
/// assert!(s.contains("model"));
/// ```
#[derive(Debug, Clone)]
pub struct TextTable {
    header: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl TextTable {
    /// Creates a table with the given column headers.
    pub fn new<S: Into<String>>(header: Vec<S>) -> Self {
        TextTable {
            header: header.into_iter().map(Into::into).collect(),
            rows: Vec::new(),
        }
    }

    /// Appends one row.
    ///
    /// # Panics
    ///
    /// Panics if the row width differs from the header width.
    pub fn row(&mut self, cells: Vec<String>) {
        assert_eq!(
            cells.len(),
            self.header.len(),
            "row width {} != header width {}",
            cells.len(),
            self.header.len()
        );
        self.rows.push(cells);
    }

    /// Renders the table with aligned columns.
    pub fn render(&self) -> String {
        let cols = self.header.len();
        let mut widths: Vec<usize> = self.header.iter().map(|h| h.len()).collect();
        for row in &self.rows {
            for (w, cell) in widths.iter_mut().zip(row) {
                *w = (*w).max(cell.len());
            }
        }
        let mut out = String::new();
        let fmt_row = |cells: &[String], widths: &[usize]| -> String {
            let mut line = String::new();
            for c in 0..cols {
                if c > 0 {
                    line.push_str("  ");
                }
                line.push_str(&format!("{:<width$}", cells[c], width = widths[c]));
            }
            line.trim_end().to_string()
        };
        out.push_str(&fmt_row(&self.header, &widths));
        out.push('\n');
        let total: usize = widths.iter().sum::<usize>() + 2 * (cols - 1);
        out.push_str(&"-".repeat(total));
        out.push('\n');
        for row in &self.rows {
            out.push_str(&fmt_row(row, &widths));
            out.push('\n');
        }
        out
    }
}

/// Formats a fraction as a percentage with one decimal.
pub fn pct(frac: f64) -> String {
    format!("{:.1}%", frac * 100.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn renders_aligned_columns() {
        let mut t = TextTable::new(vec!["a", "bb"]);
        t.row(vec!["xxxx".into(), "y".into()]);
        t.row(vec!["z".into(), "wwww".into()]);
        let s = t.render();
        let lines: Vec<&str> = s.lines().collect();
        assert_eq!(lines.len(), 4);
        assert!(lines[0].starts_with("a"));
        assert!(lines[1].starts_with("---"));
        // All data lines align the second column.
        let col = lines[2].find("y").unwrap();
        assert_eq!(lines[3].find("wwww").unwrap(), col);
    }

    #[test]
    #[should_panic(expected = "row width")]
    fn rejects_ragged_rows() {
        let mut t = TextTable::new(vec!["a"]);
        t.row(vec!["1".into(), "2".into()]);
    }

    #[test]
    fn helpers_format() {
        assert_eq!(pct(0.7571), "75.7%");
    }
}
