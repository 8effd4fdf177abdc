//! # chimera-bench
//!
//! Experiment harness regenerating every table and figure of the paper's
//! evaluation (§4). Each `src/bin/figNN_*.rs` / `src/bin/tableN.rs` binary
//! prints the paper-style rows and writes machine-readable JSON under
//! `results/`. Criterion micro-benchmarks live in `benches/`.

use std::fs;
use std::path::{Path, PathBuf};

use chimera_perf::planner::Candidate;

pub mod scaling;

/// Pretty-print a fixed-width table.
pub fn print_table(title: &str, headers: &[&str], rows: &[Vec<String>]) {
    println!("\n=== {title} ===");
    let mut widths: Vec<usize> = headers.iter().map(|h| h.len()).collect();
    for row in rows {
        for (w, cell) in widths.iter_mut().zip(row) {
            *w = (*w).max(cell.len());
        }
    }
    let line = |cells: &[String]| {
        let mut s = String::new();
        for (w, c) in widths.iter().zip(cells) {
            s.push_str(&format!("{c:>w$}  "));
        }
        s
    };
    println!(
        "{}",
        line(
            &headers
                .iter()
                .map(std::string::ToString::to_string)
                .collect::<Vec<_>>()
        )
    );
    println!(
        "{}",
        "-".repeat(widths.iter().sum::<usize>() + 2 * widths.len())
    );
    for row in rows {
        println!("{}", line(row));
    }
}

/// Write a JSON value to `results/<name>.json` (relative to the workspace
/// root when run via `cargo run`, else the current directory).
pub fn save_json(name: &str, value: serde_json::Value) {
    write_json(&output_root(false).join("results"), name, &value);
}

/// The directory a run's `results/` and `BENCH_*.json` go under: the
/// workspace root for a full run, `target/smoke/` for a `--smoke` run.
/// Committed results are full runs only, so a smoke run (CI, a quick local
/// check) must never overwrite one.
pub fn output_root(smoke: bool) -> PathBuf {
    // CARGO_MANIFEST_DIR = crates/bench when run via `cargo run`.
    let root = match std::env::var("CARGO_MANIFEST_DIR") {
        Ok(m) => PathBuf::from(m).join("../.."),
        Err(_) => PathBuf::from("."),
    };
    if smoke {
        root.join("target/smoke")
    } else {
        root
    }
}

/// Write `value` as pretty JSON to `<dir>/<name>.json`, creating `dir`.
pub fn write_json(dir: &Path, name: &str, value: &serde_json::Value) {
    fs::create_dir_all(dir).expect("create output dir");
    let path = dir.join(format!("{name}.json"));
    fs::write(
        &path,
        serde_json::to_string_pretty(value).expect("serialize"),
    )
    .expect("write results file");
    println!("[saved {}]", path.display());
}

/// Value of a `--flag <value>` pair in the process arguments (e.g.
/// `--trace /tmp/run.trace.json`). Returns `None` when the flag is absent
/// or is the final argument.
pub fn arg_value(flag: &str) -> Option<String> {
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        if a == flag {
            return args.next();
        }
    }
    None
}

/// Candidate → display row used by the tuning/scaling figures.
pub fn candidate_row(c: &Candidate) -> Vec<String> {
    vec![
        c.scheme.label(),
        c.w.to_string(),
        c.d.to_string(),
        c.b.to_string(),
        c.n.to_string(),
        if c.recompute { "R" } else { "-" }.to_string(),
        format!("{:.1}", c.throughput),
        format!("{:.3}", c.bubble_ratio),
        format!("{:.2}", c.peak_mem as f64 / (1u64 << 30) as f64),
    ]
}

/// Headers matching [`candidate_row`].
pub fn candidate_headers() -> Vec<&'static str> {
    vec![
        "scheme",
        "W",
        "D",
        "B",
        "N",
        "rec",
        "samples/s",
        "bubble",
        "peakGiB",
    ]
}

/// Candidate → JSON. This is the canonical `chimera-serve` serializer,
/// re-exported so the figure binaries, `chimera-cli plan --json`, and the
/// planning service all emit the same candidate schema.
pub use chimera_serve::response::candidate_json;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_prints_without_panic() {
        print_table(
            "demo",
            &["a", "bb"],
            &[vec!["1".into(), "2".into()], vec!["333".into(), "4".into()]],
        );
    }

    #[test]
    fn headers_match_row_arity() {
        use chimera_perf::planner::{evaluate, PlanScheme};
        use chimera_perf::{ClusterSpec, ModelSpec, StructureTable};
        let c = evaluate(
            &StructureTable::new(),
            PlanScheme::Dapple,
            ModelSpec::bert48(),
            ClusterSpec::piz_daint(),
            8,
            64,
            2,
            4,
            4,
        )
        .unwrap()
        .unwrap();
        assert_eq!(candidate_row(&c).len(), candidate_headers().len());
        let j = candidate_json(&c);
        assert!(j.get("throughput").is_some());
    }
}
