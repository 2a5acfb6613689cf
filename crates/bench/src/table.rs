//! Plain-text table rendering for experiment reports (paper-style rows).

/// A simple aligned table: header + rows of strings.
#[derive(Debug, Clone, Default)]
pub struct Table {
    title: String,
    header: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl Table {
    /// New table with a title and column headers.
    pub fn new(title: impl Into<String>, header: &[&str]) -> Self {
        Table {
            title: title.into(),
            header: header.iter().map(|s| s.to_string()).collect(),
            rows: Vec::new(),
        }
    }

    /// Append a row (must match the header width).
    pub fn row(&mut self, cells: Vec<String>) -> &mut Self {
        assert_eq!(cells.len(), self.header.len(), "row width mismatch");
        self.rows.push(cells);
        self
    }

    /// Number of data rows.
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// Whether the table has no rows.
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// Render with aligned columns.
    pub(crate) fn render(&self) -> String {
        let mut widths: Vec<usize> = self.header.iter().map(|h| h.chars().count()).collect();
        for row in &self.rows {
            for (i, c) in row.iter().enumerate() {
                widths[i] = widths[i].max(c.chars().count());
            }
        }
        let mut out = String::new();
        out.push_str(&format!("### {}\n", self.title));
        let fmt_row = |cells: &[String]| -> String {
            let mut line = String::from("| ");
            for (i, c) in cells.iter().enumerate() {
                line.push_str(&format!("{:<w$} | ", c, w = widths[i]));
            }
            line.trim_end().to_string()
        };
        out.push_str(&fmt_row(&self.header));
        out.push('\n');
        let mut sep = String::from("|");
        for w in &widths {
            sep.push_str(&format!("{:-<w$}|", "", w = w + 2));
        }
        out.push_str(&sep);
        out.push('\n');
        for row in &self.rows {
            out.push_str(&fmt_row(row));
            out.push('\n');
        }
        out
    }

    /// Print to stdout.
    pub fn print(&self) {
        println!("{}", self.render());
    }

    /// Render as CSV (RFC 4180 quoting), header first.
    fn to_csv(&self) -> String {
        let quote = |cell: &str| -> String {
            if cell.contains([',', '"', '\n']) {
                format!("\"{}\"", cell.replace('"', "\"\""))
            } else {
                cell.to_string()
            }
        };
        let mut out = String::new();
        out.push_str(
            &self
                .header
                .iter()
                .map(|h| quote(h))
                .collect::<Vec<_>>()
                .join(","),
        );
        out.push('\n');
        for row in &self.rows {
            out.push_str(&row.iter().map(|c| quote(c)).collect::<Vec<_>>().join(","));
            out.push('\n');
        }
        out
    }

    /// Write the CSV next to a directory under a slugified title.
    pub fn write_csv(&self, dir: &std::path::Path) -> std::io::Result<std::path::PathBuf> {
        std::fs::create_dir_all(dir)?;
        let slug: String = self
            .title
            .chars()
            .map(|c| {
                if c.is_alphanumeric() {
                    c.to_ascii_lowercase()
                } else {
                    '_'
                }
            })
            .collect::<String>()
            .split('_')
            .filter(|s| !s.is_empty())
            .collect::<Vec<_>>()
            .join("_");
        let path = dir.join(format!("{slug}.csv"));
        std::fs::write(&path, self.to_csv())?;
        Ok(path)
    }
}

/// Format a `Duration` compactly (µs below 2ms, ms below 2s, else s).
pub fn fmt_duration(d: std::time::Duration) -> String {
    let us = d.as_micros();
    if us < 2_000 {
        format!("{us}µs")
    } else if us < 2_000_000 {
        format!("{:.1}ms", us as f64 / 1000.0)
    } else {
        format!("{:.2}s", us as f64 / 1e6)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn renders_aligned_columns() {
        let mut t = Table::new("demo", &["engine", "latency"]);
        t.row(vec!["naive".into(), "1.2s".into()]);
        t.row(vec!["best-effort".into(), "8ms".into()]);
        let s = t.render();
        assert!(s.contains("### demo"));
        assert!(s.contains("| engine      | latency |"));
        assert!(s.lines().count() == 5);
    }

    #[test]
    #[should_panic(expected = "row width mismatch")]
    fn row_width_checked() {
        let mut t = Table::new("x", &["a", "b"]);
        t.row(vec!["only-one".into()]);
    }

    #[test]
    fn csv_rendering_quotes_properly() {
        let mut t = Table::new("csv demo", &["a", "b"]);
        t.row(vec!["plain".into(), "with,comma".into()]);
        t.row(vec!["with\"quote".into(), "x".into()]);
        let csv = t.to_csv();
        assert_eq!(csv.lines().next().unwrap(), "a,b");
        assert!(csv.contains("\"with,comma\""));
        assert!(csv.contains("\"with\"\"quote\""));
    }

    #[test]
    fn csv_file_write() {
        let mut t = Table::new("E99: tiny table", &["x"]);
        t.row(vec!["1".into()]);
        let dir = std::env::temp_dir().join("octopus_csv_test");
        let path = t.write_csv(&dir).unwrap();
        assert!(path
            .file_name()
            .unwrap()
            .to_str()
            .unwrap()
            .starts_with("e99"));
        let content = std::fs::read_to_string(&path).unwrap();
        assert_eq!(content, "x\n1\n");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn duration_formatting() {
        use std::time::Duration;
        assert_eq!(fmt_duration(Duration::from_micros(500)), "500µs");
        assert_eq!(fmt_duration(Duration::from_millis(15)), "15.0ms");
        assert_eq!(fmt_duration(Duration::from_secs(3)), "3.00s");
    }
}
