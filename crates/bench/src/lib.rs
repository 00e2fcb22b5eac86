//! # knactor-bench
//!
//! Harnesses that regenerate the paper's evaluation:
//!
//! * [`table2`] — the latency breakdown of one shipment request across
//!   RPC, K-apiserver, K-redis, and K-redis-udf (Table 2). Run with
//!   `cargo run -p knactor-bench --bin table2 --release`.
//! * [`scatter`] — the §2 "composition logic is scattered" statistics:
//!   API-invocation sites across the API-centric apps vs the single DXG.
//!   Run with `cargo run -p knactor-bench --bin scatter`.
//! * Table 1 is measured from the manifests in `knactor_apps::table1`;
//!   run with `cargo run -p knactor-bench --bin table1`.
//!
//! The §3.3 ablations are Table 2's rows and columns, `benchmark/` probes,
//! and the wire-count tests of `knactor_core::cast`.

pub mod scatter;
pub mod table2;

/// Render a list of rows as an aligned text table.
pub fn render_table(header: &[&str], rows: &[Vec<String>]) -> String {
    let mut widths: Vec<usize> = header.iter().map(|h| h.len()).collect();
    for row in rows {
        for (i, cell) in row.iter().enumerate() {
            if i < widths.len() {
                widths[i] = widths[i].max(cell.len());
            }
        }
    }
    let mut out = String::new();
    let fmt_row = |cells: &[String], widths: &[usize]| -> String {
        cells
            .iter()
            .enumerate()
            .map(|(i, c)| format!("{:>width$}", c, width = widths[i]))
            .collect::<Vec<_>>()
            .join("  ")
    };
    let header_cells: Vec<String> = header.iter().map(|s| s.to_string()).collect();
    out.push_str(&fmt_row(&header_cells, &widths));
    out.push('\n');
    out.push_str(&"-".repeat(widths.iter().sum::<usize>() + 2 * (widths.len() - 1)));
    out.push('\n');
    for row in rows {
        out.push_str(&fmt_row(row, &widths));
        out.push('\n');
    }
    out
}

#[cfg(test)]
mod tests {
    #[test]
    fn render_aligns_columns() {
        let out = super::render_table(
            &["Setup", "Total"],
            &[
                vec!["RPC".to_string(), "447.8".to_string()],
                vec!["K-apiserver".to_string(), "486.1".to_string()],
            ],
        );
        let lines: Vec<&str> = out.lines().collect();
        assert_eq!(lines.len(), 4);
        assert!(lines[2].contains("RPC"));
        assert!(lines[3].contains("K-apiserver"));
    }
}
