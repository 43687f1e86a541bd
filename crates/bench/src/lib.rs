//! # revbifpn-bench
//!
//! Shared utilities for the benchmark binaries that regenerate every table
//! and figure of the paper (see `src/bin/`). Each binary prints a markdown
//! table mirroring the paper's, with our measured / modelled values next to
//! the paper's published numbers.

#![warn(missing_docs)]

/// A simple markdown table builder.
#[derive(Debug, Default)]
pub struct Table {
    headers: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl Table {
    /// Creates a table with the given column headers.
    pub fn new<S: Into<String>>(headers: Vec<S>) -> Self {
        Self { headers: headers.into_iter().map(Into::into).collect(), rows: Vec::new() }
    }

    /// Appends a row (padded/truncated to the header width).
    pub fn row<S: Into<String>>(&mut self, cells: Vec<S>) {
        let mut r: Vec<String> = cells.into_iter().map(Into::into).collect();
        r.resize(self.headers.len(), String::new());
        self.rows.push(r);
    }

    /// Renders the table as markdown.
    pub fn to_markdown(&self) -> String {
        let mut widths: Vec<usize> = self.headers.iter().map(|h| h.len()).collect();
        for r in &self.rows {
            for (i, c) in r.iter().enumerate() {
                widths[i] = widths[i].max(c.len());
            }
        }
        let mut out = String::new();
        let fmt_row = |cells: &[String], widths: &[usize]| -> String {
            let mut line = String::from("|");
            for (i, &w) in widths.iter().enumerate() {
                line.push_str(&format!(" {:<w$} |", cells.get(i).map(|s| s.as_str()).unwrap_or("")));
            }
            line.push('\n');
            line
        };
        out.push_str(&fmt_row(&self.headers, &widths));
        out.push('|');
        for w in &widths {
            out.push_str(&format!("{:-<w$}|", "", w = w + 2));
        }
        out.push('\n');
        for r in &self.rows {
            out.push_str(&fmt_row(r, &widths));
        }
        out
    }

    /// Prints the table to stdout.
    pub fn print(&self) {
        print!("{}", self.to_markdown());
    }
}

/// Formats a count in millions with 2 decimals ("3.21M").
pub fn fmt_m(x: u64) -> String {
    format!("{:.2}M", x as f64 / 1e6)
}

/// Formats a count in billions with 2 decimals ("0.31B").
pub fn fmt_b(x: u64) -> String {
    format!("{:.2}B", x as f64 / 1e9)
}

/// Formats bytes in GB (decimal) with 3 decimals.
pub fn fmt_gb(bytes: u64) -> String {
    format!("{:.3}GB", bytes as f64 / 1e9)
}

/// Formats bytes in MB (decimal) with 1 decimal.
pub fn fmt_mb(bytes: u64) -> String {
    format!("{:.1}MB", bytes as f64 / 1e6)
}

/// `true` when `REVBIFPN_QUICK=1` — binaries shrink their workloads so the
/// whole suite runs in CI time.
pub fn quick_mode() -> bool {
    std::env::var("REVBIFPN_QUICK").map(|v| v == "1").unwrap_or(false)
}

/// Reads a `--flag value` style argument from the command line.
pub fn arg_usize(name: &str, default: usize) -> usize {
    let args: Vec<String> = std::env::args().collect();
    args.iter()
        .position(|a| a == name)
        .and_then(|i| args.get(i + 1))
        .and_then(|v| v.parse().ok())
        .unwrap_or(default)
}

/// Shared ablation runner: trains a (scaled-down) RevBiFPN configuration on
/// SynthScale and returns `(params, macs, final_val_accuracy)`. Used by the
/// Table 3/4/5 binaries so every ablation row runs the identical recipe.
pub fn ablation_run(
    cfg: &revbifpn::RevBiFPNConfig,
    epochs: usize,
    train_size: usize,
    val_size: usize,
) -> (u64, u64, f64) {
    use revbifpn::{RevBiFPNClassifier, RunMode};
    use revbifpn_data::{SynthScale, SynthScaleConfig};
    use revbifpn_train::{train_classifier, TrainConfig};

    let data = SynthScale::new(SynthScaleConfig::hard(cfg.resolution), 42);
    let mut cfg = cfg.clone();
    cfg.num_classes = data.num_classes();
    let mut model = RevBiFPNClassifier::new(cfg);
    let params = model.param_count();
    let macs = model.macs(1);
    let tc = TrainConfig {
        epochs,
        train_size,
        val_size,
        batch_size: 16,
        lr: 0.08,
        ..TrainConfig::small()
    };
    let history = train_classifier(&mut model, &data, &tc, RunMode::TrainReversible);
    (params, macs, history.final_val_acc())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_renders_markdown() {
        let mut t = Table::new(vec!["a", "bb"]);
        t.row(vec!["1", "2"]);
        let md = t.to_markdown();
        assert!(md.contains("| a | bb |"));
        assert!(md.contains("| 1 | 2  |"));
        assert!(md.contains("|---|"));
    }

    #[test]
    fn formatters() {
        assert_eq!(fmt_m(3_210_000), "3.21M");
        assert_eq!(fmt_b(310_000_000), "0.31B");
        assert_eq!(fmt_gb(254_000_000), "0.254GB");
        assert_eq!(fmt_mb(1_500_000), "1.5MB");
    }
}
