//! `conv_gate` — CI acceptance gate for the CPU convolution engine.
//!
//! Times the im2col + register-blocked GEMM convolution over a filter
//! pre-packed once before timing ([`conv2d_packed_pooled`], the kernel
//! precomputed weights run) against the naive 7-deep reference loop
//! ([`conv2d_naive`]) on the Inception-/SqueezeNet-shaped layers of
//! [`ios_bench::gate::conv_bench_shapes`], after first asserting the two paths
//! are **bit-identical** on every shape. The acceptance bar is a geometric
//! mean speedup ≥ 3×.
//!
//! Run with: `cargo run --release -p ios-bench --bin conv_gate`
//! (`--quick` halves the channel counts and the iteration count).

use ios_backend::ops_cpu::{conv2d_naive, conv2d_packed_pooled};
use ios_backend::ScratchPool;
use ios_bench::gate::{self, best_ms, conv_bench_shapes};
use ios_bench::{fmt3, geomean, render_table, BenchOptions};
use serde::Serialize;

#[derive(Debug, Clone, Serialize)]
struct ConvRow {
    shape: String,
    macs: u64,
    naive_ms: f64,
    gemm_ms: f64,
    speedup: f64,
}

#[derive(Serialize)]
struct Report {
    rows: Vec<ConvRow>,
    geomean_speedup: f64,
    acceptance_bar: f64,
    pass: bool,
}

fn main() {
    let opts = BenchOptions::from_args();
    let iters = if opts.quick { 3 } else { 5 };
    let arena = ScratchPool::new();
    let cases = conv_bench_shapes(opts.quick);
    println!(
        "conv_gate: {} shapes, best of {iters} runs each (quick = {})",
        cases.len(),
        opts.quick
    );

    let mut rows = Vec::new();
    for case in &cases {
        let ops = case.operands();

        // The gate is only meaningful if the fast path is exact.
        let fast = conv2d_packed_pooled(&ops.input, &case.params, &ops.packed, &arena);
        let reference = conv2d_naive(&ops.input, &case.params, &ops.weights);
        assert_eq!(
            fast, reference,
            "{}: im2col/GEMM output must be bit-identical to the naive kernel",
            case.name
        );
        let macs = (ops.k_len * ops.out_shape.num_elements()) as u64;
        arena.recycle_tensor(fast);

        let naive_ms = best_ms(iters, || {
            conv2d_naive(&ops.input, &case.params, &ops.weights)
        });
        let gemm_ms = best_ms(iters * 3, || {
            let out = conv2d_packed_pooled(&ops.input, &case.params, &ops.packed, &arena);
            arena.recycle_tensor(out);
        });
        rows.push(ConvRow {
            shape: case.name.to_string(),
            macs,
            naive_ms,
            gemm_ms,
            speedup: naive_ms / gemm_ms,
        });
    }

    let table_rows: Vec<Vec<String>> = rows
        .iter()
        .map(|r| {
            vec![
                r.shape.clone(),
                r.macs.to_string(),
                fmt3(r.naive_ms),
                fmt3(r.gemm_ms),
                fmt3(r.speedup),
            ]
        })
        .collect();
    println!(
        "{}",
        render_table(
            "Convolution kernels: naive loop vs im2col + blocked GEMM",
            &["shape", "MACs", "naive ms", "gemm ms", "speedup"],
            &table_rows,
        )
    );

    let mean = geomean(rows.iter().map(|r| r.speedup));
    let bar = 3.0;
    let pass = mean >= bar;
    println!("geomean speedup: {mean:.2}x (acceptance bar: >= {bar:.2}x)");

    let report = Report {
        rows,
        geomean_speedup: mean,
        acceptance_bar: bar,
        pass,
    };
    gate::finish("conv", &opts, pass, &report);
}
