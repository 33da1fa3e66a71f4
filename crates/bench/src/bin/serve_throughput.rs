//! `serve_throughput` — batched serving vs naive one-request-at-a-time.
//!
//! Serves SqueezeNet on the simulated target device through the full
//! `ios-serve` runtime twice:
//!
//! * **naive** — `max_batch = 1`: every request is dispatched alone, paying
//!   the batch-1 device latency (the classic unbatched server);
//! * **batched** — `max_batch = 32` with a deep request queue, so the
//!   dynamic batcher coalesces full batches and the schedule cache serves
//!   the batch-32-specialized schedule.
//!
//! Throughput is accounted in *device time* (requests per second of
//! simulated GPU time), the resource an inference service actually buys.
//! Batch-1 kernels under-utilize a large GPU (few thread blocks for 80
//! SMs), which is exactly the effect the paper's Figure 11 batch-size study
//! measures — batching restores utilization, and the acceptance bar for
//! this binary is ≥ 2× naive throughput at queue depth ≥ 32.
//!
//! Run with: `cargo run --release -p ios-bench --bin serve_throughput`
//! (`--device`, `--quick` and `--json PATH` as in every bench binary).
//!
//! Note the acceptance bar is a property of *large* devices: on a small
//! GPU like the Tesla K80 (13 SMs) batch-1 kernels already saturate the
//! device, batching buys only ~1.2×, and the gate honestly fails —
//! the same reason the paper's Figure 11 speedups shrink as batch grows.

use ios_backend::TensorData;
use ios_bench::{fmt3, gate, render_table, BenchOptions};
use ios_serve::{MetricsSnapshot, ServeConfig, ServeEngine};
use serde::Serialize;
use std::time::Duration;

#[derive(Debug, Clone, Serialize)]
struct ServeRow {
    mode: String,
    requests: u64,
    mean_batch_size: f64,
    device_time_ms: f64,
    device_throughput_rps: f64,
    p99_latency_us: f64,
    cache_hit_rate: f64,
}

fn run_mode(
    mode: &str,
    network: &ios_ir::Network,
    opts: &BenchOptions,
    max_batch: usize,
    requests: usize,
) -> ServeRow {
    let config = ServeConfig::default()
        .with_device(opts.device)
        .with_max_batch(max_batch)
        .with_workers(1)
        .with_max_wait(Duration::from_millis(50))
        .with_prewarm_batches(vec![1, max_batch]);
    let engine = ServeEngine::start_simulated(network.clone(), config);

    // Pre-build one input and clone it per request: submission must outpace
    // dispatch so the queue actually reaches depth ≥ max_batch.
    let input = TensorData::zeros(network.input_shape);
    let handles: Vec<_> = (0..requests)
        .map(|_| {
            engine
                .submit(input.clone())
                .expect("engine accepts requests")
        })
        .collect();
    let queue_depth_seen = engine.queue_depth();
    for handle in handles {
        let _ = handle.wait();
    }
    let metrics: MetricsSnapshot = engine.metrics();
    engine.shutdown();

    println!(
        "  {mode}: peak observed queue depth ≈ {queue_depth_seen}, \
         mean batch {:.2}, {} batches",
        metrics.mean_batch_size, metrics.batches
    );
    ServeRow {
        mode: mode.to_string(),
        requests: metrics.completed,
        mean_batch_size: metrics.mean_batch_size,
        device_time_ms: metrics.device_time_us / 1e3,
        device_throughput_rps: metrics.device_throughput_rps,
        p99_latency_us: metrics.p99_latency_us,
        cache_hit_rate: metrics.cache.hit_rate(),
    }
}

fn main() {
    let opts = BenchOptions::from_args();
    let requests = if opts.quick { 64 } else { 256 };
    let max_batch = 32;
    let network = ios_models::squeezenet(1);
    println!(
        "serve_throughput: {} on {:?}, {requests} requests, max batch {max_batch}",
        network.name, opts.device
    );

    let naive = run_mode("naive (batch 1)", &network, &opts, 1, requests);
    let batched = run_mode("batched (batch 32)", &network, &opts, max_batch, requests);
    let speedup = batched.device_throughput_rps / naive.device_throughput_rps;

    let rows: Vec<Vec<String>> = [&naive, &batched]
        .iter()
        .map(|r| {
            vec![
                r.mode.clone(),
                r.requests.to_string(),
                fmt3(r.mean_batch_size),
                fmt3(r.device_time_ms),
                fmt3(r.device_throughput_rps),
                fmt3(r.cache_hit_rate),
            ]
        })
        .collect();
    println!(
        "{}",
        render_table(
            "Serving throughput (simulated device time)",
            &[
                "mode",
                "requests",
                "mean batch",
                "device ms",
                "req/s (device)",
                "cache hit rate"
            ],
            &rows,
        )
    );
    println!("batched vs naive speedup: {speedup:.2}x (acceptance bar: >= 2.00x)");

    #[derive(Serialize)]
    struct Report {
        rows: Vec<ServeRow>,
        speedup: f64,
    }
    let report = Report {
        rows: vec![naive, batched],
        speedup,
    };
    gate::finish("serve_throughput", &opts, speedup >= 2.0, &report);
}
