//! Result statistics, table printing and CSV output.

use serde::{Deserialize, Serialize};
use std::io;
use std::path::Path;

/// Mean ± sample standard deviation of repeated measurements — the format
/// of every accuracy the paper reports ("the sample mean of five passes of
/// the validation dataset … with error bars showing the sample standard
/// deviation").
#[derive(Debug, Clone, Copy, PartialEq, Default, Serialize, Deserialize)]
pub struct Stat {
    /// Sample mean.
    pub mean: f64,
    /// Sample standard deviation (n−1 denominator; 0 for a single sample).
    pub std: f64,
}

impl Stat {
    /// Computes mean and sample standard deviation, or `None` for an
    /// empty sample set (there is no meaningful mean of nothing — callers
    /// decide whether that is a bug or an expected "no data" case).
    pub fn from_samples(samples: &[f64]) -> Option<Self> {
        if samples.is_empty() {
            return None;
        }
        let n = samples.len() as f64;
        let mean = samples.iter().sum::<f64>() / n;
        let std = if samples.len() > 1 {
            (samples.iter().map(|x| (x - mean) * (x - mean)).sum::<f64>() / (n - 1.0)).sqrt()
        } else {
            0.0
        };
        Some(Stat { mean, std })
    }

    /// The loss of this statistic relative to a baseline mean
    /// (`baseline − self`), propagating both standard deviations in
    /// quadrature.
    pub fn loss_relative_to(&self, baseline: Stat) -> Stat {
        Stat {
            mean: baseline.mean - self.mean,
            std: (self.std * self.std + baseline.std * baseline.std).sqrt(),
        }
    }
}

impl std::fmt::Display for Stat {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{:.4} ± {:.1e}", self.mean, self.std)
    }
}

/// A printable, CSV-exportable experiment result.
///
/// Every figure/table result type implements this by describing its main
/// table (title, headers, rows) and CSV file stem; the provided
/// [`Report::report`] drives the shared print-then-write sequence that
/// every experiment binary calls. Results with side output override
/// [`Report::print_extra`] (summary lines after the table) and
/// [`Report::write_extra_csvs`] (additional files); results whose CSV
/// schema differs from the printed table override [`Report::csv_headers`]
/// / [`Report::csv_rows`].
pub trait Report {
    /// Title printed above the main table.
    fn title(&self) -> String;
    /// Column headers of the main table.
    fn headers(&self) -> Vec<String>;
    /// Formatted rows of the main table.
    fn rows(&self) -> Vec<Vec<String>>;
    /// File stem of the main CSV — written as `<stem>_<scale>.csv`.
    fn csv_stem(&self) -> &'static str;

    /// CSV column headers; defaults to the printed headers.
    fn csv_headers(&self) -> Vec<String> {
        self.headers()
    }

    /// CSV rows; defaults to the printed rows.
    fn csv_rows(&self) -> Vec<Vec<String>> {
        self.rows()
    }

    /// Extra summary lines printed after the main table.
    fn print_extra(&self) {}

    /// Additional CSV files beyond the main one.
    fn write_extra_csvs(&self, _dir: &Path, _scale_name: &str) {}

    /// Prints the main table and any extras, then writes the CSVs into
    /// `dir`. I/O failures are ignored — reporting is best-effort and the
    /// printed output always happens.
    fn report(&self, dir: &Path, scale_name: &str) {
        let headers = self.headers();
        let header_refs: Vec<&str> = headers.iter().map(String::as_str).collect();
        print_table(&self.title(), &header_refs, &self.rows());
        self.print_extra();
        let csv_headers = self.csv_headers();
        let csv_header_refs: Vec<&str> = csv_headers.iter().map(String::as_str).collect();
        let _ = write_csv(
            dir.join(format!("{}_{scale_name}.csv", self.csv_stem())),
            &csv_header_refs,
            &self.csv_rows(),
        );
        self.write_extra_csvs(dir, scale_name);
    }
}

/// Prints an aligned text table with a title, in the style of the paper's
/// tables.
pub fn print_table(title: &str, headers: &[&str], rows: &[Vec<String>]) {
    let mut widths: Vec<usize> = headers.iter().map(|h| h.len()).collect();
    for row in rows {
        for (i, cell) in row.iter().enumerate() {
            if i < widths.len() {
                widths[i] = widths[i].max(cell.len());
            }
        }
    }
    let total: usize = widths.iter().sum::<usize>() + 3 * widths.len().saturating_sub(1);
    println!("\n{title}");
    println!("{}", "=".repeat(total.max(title.len())));
    let header_line: Vec<String> = headers
        .iter()
        .zip(&widths)
        .map(|(h, w)| format!("{h:<w$}"))
        .collect();
    println!("{}", header_line.join(" | "));
    println!("{}", "-".repeat(total.max(title.len())));
    for row in rows {
        let line: Vec<String> = row
            .iter()
            .zip(&widths)
            .map(|(c, w)| format!("{c:<w$}"))
            .collect();
        println!("{}", line.join(" | "));
    }
}

/// Writes rows as CSV (headers first). Parent directories are created.
///
/// # Errors
///
/// Returns any underlying I/O error.
pub fn write_csv(path: impl AsRef<Path>, headers: &[&str], rows: &[Vec<String>]) -> io::Result<()> {
    let mut out = String::new();
    out.push_str(&headers.join(","));
    out.push('\n');
    for row in rows {
        // Quote cells containing commas.
        let cells: Vec<String> = row
            .iter()
            .map(|c| {
                if c.contains(',') {
                    format!("\"{c}\"")
                } else {
                    c.clone()
                }
            })
            .collect();
        out.push_str(&cells.join(","));
        out.push('\n');
    }
    // Atomic so a kill mid-run never leaves a torn CSV for the resume to
    // diff against.
    ams_obs::fsio::atomic_write(path, out.as_bytes())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stat_matches_hand_computation() {
        let s = Stat::from_samples(&[1.0, 2.0, 3.0]).unwrap();
        assert!((s.mean - 2.0).abs() < 1e-12);
        assert!((s.std - 1.0).abs() < 1e-12);
    }

    #[test]
    fn stat_single_sample_has_zero_std() {
        let single = Stat::from_samples(&[5.0]).unwrap();
        assert_eq!(single.mean, 5.0);
        assert_eq!(single.std, 0.0);
    }

    #[test]
    fn stat_empty_samples_is_none_not_panic() {
        assert!(Stat::from_samples(&[]).is_none());
    }

    #[test]
    fn loss_relative_subtracts_and_propagates() {
        let base = Stat {
            mean: 0.78,
            std: 0.003,
        };
        let cfg = Stat {
            mean: 0.74,
            std: 0.004,
        };
        let loss = cfg.loss_relative_to(base);
        assert!((loss.mean - 0.04).abs() < 1e-12);
        assert!((loss.std - 0.005).abs() < 1e-12);
    }

    #[test]
    fn report_trait_defaults_write_main_csv() {
        struct Demo;
        impl Report for Demo {
            fn title(&self) -> String {
                "demo".into()
            }
            fn headers(&self) -> Vec<String> {
                vec!["a".into(), "b".into()]
            }
            fn rows(&self) -> Vec<Vec<String>> {
                vec![vec!["1".into(), "2".into()]]
            }
            fn csv_stem(&self) -> &'static str {
                "demo"
            }
        }
        let dir = std::env::temp_dir().join("ams_exp_report_trait_test");
        let _ = std::fs::remove_dir_all(&dir);
        Demo.report(&dir, "t");
        let text = std::fs::read_to_string(dir.join("demo_t.csv")).unwrap();
        assert_eq!(text, "a,b\n1,2\n");
        let _ = std::fs::remove_dir_all(dir);
    }

    #[test]
    fn csv_round_trip() {
        let dir = std::env::temp_dir().join("ams_exp_csv_test.csv");
        write_csv(&dir, &["a", "b"], &[vec!["1".into(), "x,y".into()]]).unwrap();
        let text = std::fs::read_to_string(&dir).unwrap();
        assert_eq!(text, "a,b\n1,\"x,y\"\n");
        let _ = std::fs::remove_file(dir);
    }
}
