//! Runs every table/figure reproducer in sequence (forwarding the common
//! flags), so `cargo run --release -p ios-bench --bin run_all -- --quick`
//! regenerates the whole evaluation.

use std::process::{Command, ExitCode};

const BINARIES: &[&str] = &[
    "fig1_trends",
    "fig2_motivation",
    "table1_complexity",
    "table2_networks",
    "fig6_schedules",
    "fig7_frameworks",
    "fig8_warps",
    "fig9_pruning",
    "table3_specialization",
    "fig10_specialized_schedule",
    "fig11_batchsize",
    "fig12_intra_inter",
    "fig13_worstcase",
    "fig16_blockwise",
];

fn main() -> ExitCode {
    let forwarded: Vec<String> = std::env::args().skip(1).collect();
    let exe_dir = std::env::current_exe()
        .ok()
        .and_then(|p| p.parent().map(std::path::Path::to_path_buf))
        .expect("current executable directory");
    let mut failures = Vec::new();
    for bin in BINARIES {
        println!("\n############ {bin} ############");
        let path = exe_dir.join(bin);
        let status = if path.exists() {
            Command::new(&path).args(&forwarded).status()
        } else {
            // Fall back to cargo when the sibling binary has not been built.
            Command::new("cargo")
                .args([
                    "run",
                    "--release",
                    "-q",
                    "-p",
                    "ios-bench",
                    "--bin",
                    bin,
                    "--",
                ])
                .args(&forwarded)
                .status()
        };
        match status {
            Ok(s) if s.success() => {}
            Ok(s) => {
                eprintln!("{bin} exited with {s}");
                failures.push(*bin);
            }
            Err(e) => {
                eprintln!("failed to launch {bin}: {e}");
                failures.push(*bin);
            }
        }
    }
    if failures.is_empty() {
        println!("\nall experiments completed");
        ExitCode::SUCCESS
    } else {
        eprintln!("\nfailed experiments: {failures:?}");
        ExitCode::FAILURE
    }
}
