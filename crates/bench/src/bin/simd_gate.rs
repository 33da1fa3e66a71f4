//! `simd_gate` — CI acceptance gate for the explicit AVX2 f32 GEMM
//! microkernels behind the runtime SIMD dispatch (`ios_backend::simd`).
//!
//! On the serving-hot layer shapes of [`ios_bench::gate::simd_bench_shapes`],
//! each run with a full bias + residual + ReLU epilogue:
//!
//! 1. **Bit-identity across ISAs** — before any timing, the f32 GEMM
//!    kernel ([`conv2d_im2col_packed_fused`]) is run under *every* ISA
//!    this host supports via `with_forced_isa` and asserted bitwise equal
//!    to the scalar-forced reference. A single differing bit fails the
//!    gate.
//! 2. **Host-aware speedup bar** — on AVX2 hosts, the active kernels must
//!    beat the auto-vectorized SSE2-tier baseline by a geomean ≥ 1.4×;
//!    on hosts without AVX2 the explicit path does not exist, so the bar
//!    degrades to a ≥ 0.95× no-regression check against the same tier
//!    (the dispatch itself must not cost anything measurable).
//!
//! Speedups are medians of per-round paired ratios (baseline and wide
//! variants run adjacently within each round, so a noisy stretch on a
//! shared single-core CI host cancels out of the ratio, and the median
//! discards the rounds a burst split in half); the reported per-variant
//! times are best-of-N.
//!
//! Run with: `cargo run --release -p ios-bench --bin simd_gate`
//! (`--quick` lowers the round count; the shapes stay full-size).

use ios_backend::gemm::conv2d_im2col_packed_fused;
use ios_backend::simd::{self, Isa};
use ios_backend::ScratchPool;
use ios_bench::gate::{self, interleaved, simd_bench_shapes};
use ios_bench::{fmt3, geomean, render_table, BenchOptions};
use serde::Serialize;

#[derive(Debug, Clone, Serialize)]
struct SimdRow {
    shape: String,
    baseline_ms: f64,
    wide_ms: f64,
    speedup: f64,
}

#[derive(Serialize)]
struct Report {
    active_isa: String,
    baseline_isa: String,
    rows: Vec<SimdRow>,
    geomean_speedup: f64,
    acceptance_bar: f64,
    bit_identical: bool,
    pass: bool,
}

fn main() {
    let opts = BenchOptions::from_args();
    let iters = if opts.quick { 9 } else { 15 };
    let arena = ScratchPool::new();
    let cases = simd_bench_shapes();

    let active = simd::active_isa();
    // On AVX2 hosts the baseline is the previous production kernel: the
    // auto-vectorized tile at the SSE2 tier. Elsewhere there is no wider
    // kernel to compare, so the "baseline" is the active tier itself and
    // the bar is a pure no-regression check on the dispatch overhead.
    let baseline = if active == Isa::Avx2 {
        Isa::Sse2
    } else {
        active
    };
    let bar = if active == Isa::Avx2 { 1.4 } else { 0.95 };
    println!(
        "simd_gate: {} shapes, best of {iters} rounds each (active isa = {active}, \
         baseline isa = {baseline}, bar = {bar:.2}x, quick = {})",
        cases.len(),
        opts.quick
    );

    let supported: Vec<Isa> = [Isa::Scalar, Isa::Sse2, Isa::Avx2]
        .into_iter()
        .filter(|&i| i <= simd::detected_isa())
        .collect();

    let mut rows = Vec::new();
    for case in &cases {
        // Full serving-hot epilogue so the vectorized store is on the
        // measured (and verified) path.
        let ops = case.operands();
        let ep = ops.epilogue();
        let run = || conv2d_im2col_packed_fused(&ops.input, &ops.plain, &ops.packed, &ep, &arena);
        let run_at = |isa: Isa| simd::with_forced_isa(isa, run);

        // The gate is only meaningful if every ISA computes the same bits.
        let reference = run_at(Isa::Scalar);
        for &isa in &supported[1..] {
            let out = run_at(isa);
            assert_eq!(
                out, reference,
                "{}: f32 kernel must be bit-identical on {isa}",
                case.name
            );
            arena.recycle_tensor(out);
        }
        arena.recycle_tensor(reference);

        // Baseline and wide variants interleave within every round; the
        // speedup is the median of the per-round paired ratios and the
        // reported times are best-of-N.
        let run_recycled = || arena.recycle_tensor(run());
        let rounds = interleaved(
            iters,
            &mut [
                &mut || simd::with_forced_isa(baseline, run_recycled),
                &mut || simd::with_forced_isa(active, run_recycled),
            ],
        );
        let (baseline_ms, wide_ms) = (rounds.best_ms(0), rounds.best_ms(1));
        let speedup = rounds.median_ratio(0, 1);
        rows.push(SimdRow {
            shape: case.name.to_string(),
            baseline_ms,
            wide_ms,
            speedup,
        });
    }

    let table_rows: Vec<Vec<String>> = rows
        .iter()
        .map(|r| {
            vec![
                r.shape.clone(),
                fmt3(r.baseline_ms),
                fmt3(r.wide_ms),
                fmt3(r.speedup),
            ]
        })
        .collect();
    println!(
        "{}",
        render_table(
            &format!("f32 GEMM microkernel: {baseline} baseline vs {active}"),
            &["shape", "baseline ms", "wide ms", "speedup"],
            &table_rows,
        )
    );

    let mean = geomean(rows.iter().map(|r| r.speedup));
    let pass = mean >= bar;
    println!("geomean speedup: {mean:.3}x (acceptance bar: >= {bar:.2}x)");

    let report = Report {
        active_isa: active.name().to_string(),
        baseline_isa: baseline.name().to_string(),
        rows,
        geomean_speedup: mean,
        acceptance_bar: bar,
        bit_identical: true,
        pass,
    };
    gate::finish("simd", &opts, pass, &report);
}
