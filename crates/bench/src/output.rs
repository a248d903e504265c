//! Table printing and TSV output for figure data, the report binaries'
//! file writes, and the size knobs they read from the environment.

use std::io::Write as _;
use std::path::{Path, PathBuf};

/// One regenerated figure: a table of numeric series plus free-form notes
/// (paper-vs-measured commentary).
#[derive(Debug, Clone)]
pub struct Figure {
    /// Figure id, e.g. `"fig5a"`.
    pub id: &'static str,
    /// Human title, e.g. `"Fig. 5(a): analysis vs simulation"`.
    pub title: String,
    /// Column names; the first column is the x-axis.
    pub columns: Vec<String>,
    /// Data rows, one value per column.
    pub rows: Vec<Vec<f64>>,
    /// Notes appended under the table and into the TSV as `# comments`.
    pub notes: Vec<String>,
}

impl Figure {
    /// Creates an empty figure.
    pub fn new(id: &'static str, title: impl Into<String>, columns: Vec<String>) -> Self {
        Figure {
            id,
            title: title.into(),
            columns,
            rows: Vec::new(),
            notes: Vec::new(),
        }
    }

    /// Appends a data row.
    ///
    /// # Panics
    ///
    /// Panics if the row width does not match the column count.
    pub fn push_row(&mut self, row: Vec<f64>) {
        assert_eq!(row.len(), self.columns.len(), "row width mismatch");
        self.rows.push(row);
    }

    /// Appends a note.
    pub fn note(&mut self, text: impl Into<String>) {
        self.notes.push(text.into());
    }

    /// Renders the table to stdout.
    pub fn print(&self) {
        println!("\n=== {} — {} ===", self.id, self.title);
        let widths: Vec<usize> = self
            .columns
            .iter()
            .enumerate()
            .map(|(c, name)| {
                self.rows
                    .iter()
                    .map(|r| format_cell(r[c]).len())
                    .chain(std::iter::once(name.len()))
                    .max()
                    .unwrap_or(8)
            })
            .collect();
        let header: Vec<String> = self
            .columns
            .iter()
            .zip(&widths)
            .map(|(name, w)| format!("{name:>w$}"))
            .collect();
        println!("{}", header.join("  "));
        for row in &self.rows {
            let cells: Vec<String> = row
                .iter()
                .zip(&widths)
                .map(|(v, w)| format!("{:>w$}", format_cell(*v)))
                .collect();
            println!("{}", cells.join("  "));
        }
        for note in &self.notes {
            println!("  · {note}");
        }
    }

    /// Writes `<dir>/<id>.tsv`, creating `dir` if needed; returns the
    /// path.
    ///
    /// # Errors
    ///
    /// Propagates filesystem errors.
    pub fn write_tsv(&self, dir: &Path) -> std::io::Result<PathBuf> {
        std::fs::create_dir_all(dir)?;
        let path = dir.join(format!("{}.tsv", self.id));
        let mut f = std::fs::File::create(&path)?;
        writeln!(f, "# {} — {}", self.id, self.title)?;
        for note in &self.notes {
            writeln!(f, "# {note}")?;
        }
        writeln!(f, "{}", self.columns.join("\t"))?;
        for row in &self.rows {
            let cells: Vec<String> = row.iter().map(|v| format_cell(*v)).collect();
            writeln!(f, "{}", cells.join("\t"))?;
        }
        Ok(path)
    }

    /// Prints the table and writes `results/<id>.tsv` at the workspace
    /// root; returns the path.
    ///
    /// # Errors
    ///
    /// Propagates the TSV write failure (the table has been printed by
    /// then), so a harness can finish its other figures and still exit
    /// non-zero instead of leaving a stale file behind unnoticed.
    pub fn emit(&self) -> std::io::Result<PathBuf> {
        self.print();
        let path = self.write_tsv(&results_dir())?;
        println!("  → {}", path.display());
        Ok(path)
    }
}

/// `results/` at the workspace root.
pub fn results_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("../..")
        .join("results")
}

/// Writes one report file (creating its directory), printing where it
/// went or why it could not; `false` on failure, so a binary can attempt
/// its remaining outputs and still exit non-zero instead of leaving a
/// stale file to pass for a fresh one.
pub fn write_output(path: &Path, contents: &str) -> bool {
    let written = path
        .parent()
        .map_or(Ok(()), std::fs::create_dir_all)
        .and_then(|()| std::fs::write(path, contents));
    match &written {
        Ok(()) => println!("→ {}", path.display()),
        Err(e) => eprintln!("! could not write {}: {e}", path.display()),
    }
    written.is_ok()
}

/// The integer in environment variable `name`, at least `min`; `None`
/// when the variable is unset or empty.
///
/// Any other value exits 2 with the knob's name on stderr. A report
/// binary reads its knobs before it runs anything, so a malformed size
/// stops the run instead of being replaced by a default that would pass
/// for the run that was asked for.
pub fn env_usize(name: &str, min: usize) -> Option<usize> {
    let raw = env_value(name)?;
    Some(parse_knob(name, &raw, min))
}

/// The comma-separated integers in environment variable `name`, each at
/// least `min` (empty entries skipped); empty when the variable is
/// unset. Any other entry exits 2, as in [`env_usize`].
pub fn env_usizes(name: &str, min: usize) -> Vec<usize> {
    env_value(name).map_or_else(Vec::new, |raw| {
        raw.split(',')
            .filter(|entry| !entry.trim().is_empty())
            .map(|entry| parse_knob(name, entry, min))
            .collect()
    })
}

/// The value of `name`; `None` when unset or blank. A value that is not
/// Unicode exits 2.
fn env_value(name: &str) -> Option<String> {
    match std::env::var(name) {
        Ok(raw) => (!raw.trim().is_empty()).then_some(raw),
        Err(std::env::VarError::NotPresent) => None,
        Err(e) => refuse(name, &e.to_string()),
    }
}

fn parse_knob(name: &str, raw: &str, min: usize) -> usize {
    match raw.trim().parse() {
        Ok(v) if v >= min => v,
        _ => refuse(name, &format!("expected an integer >= {min}, got {raw:?}")),
    }
}

fn refuse(name: &str, why: &str) -> ! {
    eprintln!("! {name}: {why}");
    std::process::exit(2);
}

fn format_cell(v: f64) -> String {
    if v == 0.0 {
        "0".to_string()
    } else if v.abs() >= 1e6 || v.abs() < 1e-3 {
        format!("{v:.3e}")
    } else if (v - v.round()).abs() < 1e-9 {
        format!("{}", v.round() as i64)
    } else {
        format!("{v:.3}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cells_format_compactly() {
        assert_eq!(format_cell(0.0), "0");
        assert_eq!(format_cell(5.0), "5");
        assert_eq!(format_cell(0.123456), "0.123");
        assert_eq!(format_cell(1.5e-9), "1.500e-9");
        assert_eq!(format_cell(2.0e7), "2.000e7");
    }

    #[test]
    #[should_panic(expected = "row width mismatch")]
    fn row_width_checked() {
        let mut fig = Figure::new("t", "t", vec!["a".into(), "b".into()]);
        fig.push_row(vec![1.0]);
    }

    #[test]
    fn tsv_lands_in_the_given_directory() {
        let dir = std::env::temp_dir().join(format!("lpbcast-bench-tsv-{}", std::process::id()));
        let mut fig = Figure::new("t", "title", vec!["x".into(), "y".into()]);
        fig.push_row(vec![1.0, 0.5]);
        fig.note("a note");
        let path = fig
            .write_tsv(&dir.join("nested"))
            .expect("writable temp dir");
        assert_eq!(path, dir.join("nested").join("t.tsv"));
        let text = std::fs::read_to_string(&path).expect("just written");
        assert_eq!(text, "# t — title\n# a note\nx\ty\n1\t0.500\n");
        std::fs::remove_dir_all(&dir).expect("cleanup");
    }

    #[test]
    fn tsv_write_failure_is_returned_not_swallowed() {
        // A directory cannot be created under a regular file, on any
        // platform.
        let file = std::env::temp_dir().join(format!("lpbcast-bench-file-{}", std::process::id()));
        std::fs::write(&file, b"not a directory").expect("writable temp dir");
        let fig = Figure::new("t", "t", vec!["x".into()]);
        assert!(fig.write_tsv(&file.join("results")).is_err());
        assert!(fig.write_tsv(&file).is_err());
        std::fs::remove_file(&file).expect("cleanup");
    }
}
