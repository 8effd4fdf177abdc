//! Run every table/figure regeneration in sequence (the full §4 evaluation).
//!
//! ```sh
//! cargo run --release -p chimera-bench --bin all_experiments
//! ```

use std::process::Command;

const BINS: &[&str] = &[
    "table2",
    "table3",
    "fig01_headline",
    "fig09_memory",
    "fig10_tuning_bert",
    "fig11_tuning_gpt2",
    "fig12_sync_strategies",
    "fig13_perf_model",
    "fig14_weak_bert",
    "fig15_weak_gpt2",
    "fig16_v100",
    "fig17_large_batch_bert",
    "fig18_large_batch_gpt2",
    "fig19_multi_pipeline",
    "ablation_allreduce",
];

fn main() {
    let exe_dir = std::env::current_exe()
        .expect("own path")
        .parent()
        .expect("bin dir")
        .to_path_buf();
    let mut failed = Vec::new();
    for bin in BINS {
        println!("\n################ {bin} ################");
        let status = Command::new(exe_dir.join(bin))
            .status()
            .unwrap_or_else(|e| panic!("failed to launch {bin}: {e}"));
        if !status.success() {
            failed.push(*bin);
        }
    }
    if failed.is_empty() {
        println!(
            "\nAll {} experiments regenerated; JSON under results/.",
            BINS.len()
        );
    } else {
        eprintln!("\nFAILED: {failed:?}");
        std::process::exit(1);
    }
}

#[cfg(test)]
mod tests {
    use super::BINS;

    /// A bin deleted from `src/bin/` but still listed here would only fail
    /// when `all_experiments` tries to launch it.
    #[test]
    fn every_listed_bin_has_a_source_file() {
        let bin_dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("src/bin");
        for bin in BINS {
            let src = bin_dir.join(format!("{bin}.rs"));
            assert!(
                src.is_file(),
                "{bin} is listed but {} is missing",
                src.display()
            );
        }
    }
}
