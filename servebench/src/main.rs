//! `servebench` — serves the Table-2 networks through the real CPU
//! engine (`ios_serve::ServeEngine::start`, f32) and reports end-to-end
//! metrics from an untraced run, or per-layer metrics from a traced one.
//!
//! ```text
//! cargo run --release --manifest-path servebench/Cargo.toml -- \
//!     --workload inception_b1 --seed 1 --seconds 20 --trace 0
//! ```
//!
//! The last line of standard output is one JSON object with the keys
//! `correct`, `attempted`, `failed` and `metrics`. See `README.md` for the
//! workloads and what each metric should move.

mod ceiling;
mod layers;
mod load;
mod serve;
mod stats;
mod workload;

use ios_backend::{execute_network, NetworkWeights, TensorData};
use ios_ir::Network;
use ios_serve::{MetricsSnapshot, ServeEngine};
use ios_telemetry::{chrome_trace_json, TraceRecord, Tracer};
use serve::Window;
use std::process::ExitCode;
use std::time::Instant;
use workload::{Traffic, Workload};

/// Command-line arguments.
struct Args {
    workload: &'static Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

const USAGE: &str =
    "usage: servebench --workload <inception_b1|randwire_open> --seed <n> --seconds <n> --trace <0|1>";

fn parse_args(mut args: impl Iterator<Item = String>) -> Result<Args, String> {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or(format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload =
                    Some(workload::find(&value).ok_or(format!("unknown workload {value:?}"))?);
            }
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s = value
                    .parse::<f64>()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err(format!("--seconds must be in (0, 600], got {s}"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace must be 0 or 1, got {value:?}")),
                });
            }
            _ => return Err(format!("unknown argument {flag:?}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.unwrap_or(false),
    })
}

/// Engine starts timed per untraced run; `setup_s` is their median.
const SETUPS: usize = 3;

/// The untraced run's metrics, in output order.
const END_TO_END: [&str; 6] = [
    "setup_s",
    "latency_p50_ms",
    "latency_tail_ms",
    "throughput_ips",
    "goodput_ips",
    "peak_rss_mb",
];

/// The traced run's metrics, in output order.
const PER_LAYER: [&str; 45] = [
    "serve.queue_wait_ms",
    "serve.batch_exec_ms",
    "serve.overhead_ms",
    "serve.batch_size_mean",
    "serve.exact_schedule_frac",
    "serve.tenant_wait_ratio",
    "serve.pool_reuse_frac",
    "serve.tail_pct",
    "serve.samples",
    "gen.lag_ms",
    "trace.overhead_frac",
    "core.optimize_s",
    "core.dp_states",
    "core.dp_transitions",
    "core.cost_queries",
    "core.memo_hits",
    "core.setup_share",
    "sim.query_us",
    "sim.queries",
    "profile.stages",
    "profile.stage_runs",
    "profile.cache_hits",
    "profile.s",
    "exec.seq_ms",
    "exec.ios_ms",
    "exec.ios_speedup",
    "exec.batch_max_ms",
    "kernel.conv_kxk_ms",
    "kernel.conv_kxk_gflops",
    "kernel.conv_kxk_peak_frac",
    "kernel.conv_1x1_ms",
    "kernel.conv_1x1_gflops",
    "kernel.conv_1x1_peak_frac",
    "kernel.sepconv_ms",
    "kernel.sepconv_gflops",
    "kernel.sepconv_peak_frac",
    "kernel.pool_ms",
    "kernel.pool_gflops",
    "kernel.pool_peak_frac",
    "kernel.other_ms",
    "kernel.other_gflops",
    "kernel.other_peak_frac",
    "kernel.coverage",
    "ceiling.gflops",
    "ceiling.triad_gbs",
];

/// The metrics of one run, printed as the final JSON line.
#[derive(Default)]
struct Report {
    correct: bool,
    attempted: u64,
    failed: u64,
    metrics: Vec<(&'static str, f64, &'static str)>,
}

impl Report {
    fn add(&mut self, name: &'static str, value: f64, unit: &'static str) {
        self.metrics.push((name, value, unit));
    }

    fn json(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|(name, value, unit)| {
                assert!(value.is_finite(), "metric {name} is not finite: {value}");
                format!("\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}")
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct,
            self.attempted,
            self.failed,
            metrics.join(", ")
        )
    }
}

/// `a / b`, or 0 when `b` is 0.
fn ratio(a: f64, b: f64) -> f64 {
    if b == 0.0 {
        0.0
    } else {
        a / b
    }
}

/// The workload's inputs and their reference outputs.
struct Prepared {
    network: Network,
    inputs: Vec<TensorData>,
    references: Vec<Vec<TensorData>>,
}

/// Builds the seeded input pool and computes every reference with the
/// sequential reference executor.
fn prepare(w: &Workload, seed: u64) -> Prepared {
    let network = (w.network)();
    let inputs: Vec<TensorData> = load::input_seeds(seed, w.pool)
        .into_iter()
        .map(|s| TensorData::random(network.input_shape, s))
        .collect();
    let references = inputs
        .iter()
        .map(|x| execute_network(&network, std::slice::from_ref(x)))
        .collect();
    Prepared {
        network,
        inputs,
        references,
    }
}

/// Starts the engine `times` times, timing each start; returns the last
/// engine (the earlier ones are shut down) and the start times, s.
fn start_engines(w: &Workload, network: &Network, times: usize) -> (ServeEngine, Vec<f64>) {
    let mut setups = Vec::with_capacity(times);
    let mut engine = None;
    for _ in 0..times {
        if let Some(previous) = engine.take() {
            ServeEngine::shutdown(previous);
        }
        let start = Instant::now();
        engine = Some(ServeEngine::start(network.clone(), (w.config)()));
        setups.push(start.elapsed().as_secs_f64());
    }
    (engine.expect("at least one start"), setups)
}

/// Most warm-up rounds of a full batch.
const WARM_ROUNDS: usize = 8;

/// Fills the engine's pools and caches before timing: rounds of a full
/// batch, at least two, until a round was dispatched as one batch. The
/// inputs of a round are copied before it is submitted, so its requests
/// reach the queue back to back; a round that still splits (the host
/// stalled the submitter past `max_wait`) is repeated, so the pools a full
/// batch needs exist before the window opens. Returns the requests
/// submitted.
fn warm_up(w: &Workload, engine: &ServeEngine, prepared: &Prepared) -> u64 {
    let batch = match w.traffic {
        Traffic::Closed => 1,
        Traffic::Open { .. } => (w.config)().max_batch,
    };
    let mut submitted = 0;
    for round in 0..WARM_ROUNDS {
        let inputs: Vec<TensorData> = (0..batch)
            .map(|i| prepared.inputs[i % prepared.inputs.len()].clone())
            .collect();
        let batches_before = engine.metrics().batches;
        let handles: Vec<_> = inputs.into_iter().map(|x| engine.submit(x)).collect();
        submitted += batch as u64;
        for handle in handles {
            let _ = handle.map(|h| h.wait_outcome());
        }
        if round >= 1 && engine.metrics().batches - batches_before == 1 {
            break;
        }
    }
    submitted
}

fn run_window(
    w: &Workload,
    engine: &ServeEngine,
    prepared: &Prepared,
    seed: u64,
    seconds: f64,
    tracer: Option<&Tracer>,
) -> Window {
    match w.traffic {
        Traffic::Closed => serve::closed_loop(
            engine,
            &prepared.inputs,
            &prepared.references,
            seed,
            seconds,
            tracer,
        ),
        Traffic::Open { rate, tenants } => {
            let shares: Vec<u32> = tenants.iter().map(|t| t.1).collect();
            let schedule = load::open_schedule(seed, rate, seconds, w.pool, &shares);
            serve::open_loop(
                engine,
                &prepared.inputs,
                &prepared.references,
                &schedule,
                tenants,
                tracer,
            )
        }
    }
}

/// Whether every request the engine saw is accounted for:
/// `submitted = completed + shed + expired`.
fn accounting_holds(snapshot: &MetricsSnapshot, submitted: u64) -> bool {
    let accounted = snapshot.completed + snapshot.shed + snapshot.deadline_expired;
    if accounted != submitted {
        eprintln!(
            "accounting identity broken: submitted {submitted} != completed {} + shed {} + \
             expired {}",
            snapshot.completed, snapshot.shed, snapshot.deadline_expired
        );
    }
    accounted == submitted
}

/// Peak resident memory of this process, MiB (`VmHWM`).
fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").expect("read /proc/self/status");
    let kib: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .expect("VmHWM in /proc/self/status");
    kib / 1024.0
}

fn latencies(window: &Window) -> Vec<f64> {
    window.replies.iter().map(|r| r.latency_ms).collect()
}

fn host_cores() -> usize {
    std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get)
}

/// Adds the end-to-end metrics of `window` to `report` and prints them
/// with the tail's percentile, the sample count and the generator lag.
fn end_to_end(report: &mut Report, w: &Workload, window: &Window, setup_s: f64, setups: usize) {
    let lat = latencies(window);
    assert!(!lat.is_empty(), "no correct response in the window");
    let p50 = stats::median(&lat);
    // A window too short for ten samples beyond any percentile reports
    // its maximum, marked as p100.
    let tail = stats::tail(&lat, stats::TAIL_BEYOND).unwrap_or(stats::Tail {
        value: stats::percentile(&lat, 100.0),
        percentile: 100.0,
        samples: lat.len(),
    });
    let throughput = window.replies.len() as f64 / window.seconds;
    let goodput = stats::goodput(&lat, w.limit_ms, window.seconds);
    let rss = peak_rss_mb();
    println!("  setup_s          {setup_s:.3} s (median of {setups} engine starts)");
    println!(
        "  latency_p50_ms   {p50:.2} ms   latency_tail_ms {:.2} ms (p{:.1} of {} samples)",
        tail.value, tail.percentile, tail.samples
    );
    println!(
        "  gen.lag_ms       p50 {:.3}  p99 {:.3}  max {:.3}",
        stats::median(&window.lags_ms),
        stats::percentile(&window.lags_ms, 99.0),
        stats::percentile(&window.lags_ms, 100.0)
    );
    println!(
        "  throughput_ips   {throughput:.3} img/s   goodput_ips {goodput:.3} img/s (limit {} ms) \
         over {:.2} s",
        w.limit_ms, window.seconds
    );
    println!("  peak_rss_mb      {rss:.1} MiB");
    println!(
        "  requests         attempted {} succeeded {} failed {} (mismatched {})",
        window.attempted,
        window.replies.len(),
        window.failed,
        window.mismatches
    );
    report.add("setup_s", setup_s, "s");
    report.add("latency_p50_ms", p50, "ms");
    report.add("latency_tail_ms", tail.value, "ms");
    report.add("throughput_ips", throughput, "1/s");
    report.add("goodput_ips", goodput, "1/s");
    report.add("peak_rss_mb", rss, "MiB");
}

fn untraced(w: &Workload, args: &Args) -> Report {
    let prepared = prepare(w, args.seed);
    let (engine, setups) = start_engines(w, &prepared.network, SETUPS);
    let submitted = warm_up(w, &engine, &prepared);
    let window = run_window(w, &engine, &prepared, args.seed, args.seconds, None);
    let snapshot = engine.metrics();
    engine.shutdown();

    let mut report = Report {
        correct: window.mismatches == 0
            && accounting_holds(&snapshot, submitted + window.attempted),
        attempted: window.attempted,
        failed: window.failed,
        ..Report::default()
    };
    end_to_end(
        &mut report,
        w,
        &window,
        stats::median(&setups),
        setups.len(),
    );
    report
}

/// The traced run: an untraced window and a traced one on the same
/// engine and schedule, each half of `--seconds`, then each layer
/// measured on its own.
fn traced(w: &Workload, args: &Args) -> Report {
    let prepared = prepare(w, args.seed);
    let config = (w.config)();
    let ceiling = ceiling::measure(3);
    let tracer = Tracer::with_capacity(1 << 18);
    tracer.set_enabled(true);

    let start_ns = tracer.now_ns();
    let (engine, setups) = start_engines(w, &prepared.network, 1);
    layers::span(&tracer, "serve.setup", start_ns, 0);
    let setup_s = setups[0];
    let mut submitted = warm_up(w, &engine, &prepared);
    let half = args.seconds / 2.0;
    let plain = run_window(w, &engine, &prepared, args.seed, half, None);
    submitted += plain.attempted;

    let before = engine.metrics();
    let engine_tracer = ios_telemetry::tracer();
    engine_tracer.set_enabled(true);
    let window = run_window(w, &engine, &prepared, args.seed, half, Some(&tracer));
    engine_tracer.set_enabled(false);
    submitted += window.attempted;
    let after = engine.metrics();
    let (io_fresh, io_reuse) = engine.io_pool_stats();
    let (ex_fresh, ex_reuse) = engine.executor_pool_stats().unwrap_or((0, 0));
    engine.shutdown();

    let mut report = Report {
        correct: plain.mismatches == 0
            && window.mismatches == 0
            && accounting_holds(&after, submitted),
        attempted: window.attempted,
        failed: window.failed,
        ..Report::default()
    };
    println!("traced window:");
    end_to_end(&mut Report::default(), w, &window, setup_s, 1);
    let p50_traced = stats::median(&latencies(&window));
    let p50_plain = stats::median(&latencies(&plain));
    let lat = latencies(&window);
    let tail = stats::tail(&lat, stats::TAIL_BEYOND);

    // serve: per-request queue wait, batch execution and the rest.
    let queue: Vec<f64> = window.replies.iter().map(|r| r.queue_ms).collect();
    let overhead = request_self_times_ms(&tracer);
    let batches = (after.batches - before.batches) as f64;
    let batch_exec_ms = ratio(after.device_time_us - before.device_time_us, batches) / 1e3;
    let exact = window.replies.iter().filter(|r| r.exact).count() as f64;
    let tenant_p95 = |t: usize| {
        let waits: Vec<f64> = window
            .replies
            .iter()
            .filter(|r| r.tenant == t)
            .map(|r| r.queue_ms)
            .collect();
        (!waits.is_empty()).then(|| stats::percentile(&waits, 95.0))
    };
    let tenant_wait_ratio = match (tenant_p95(0), tenant_p95(1)) {
        (Some(heavy), Some(light)) => ratio(heavy, light),
        _ => 1.0,
    };
    let reuses = (io_reuse + ex_reuse) as f64;
    let fresh = (io_fresh + ex_fresh) as f64;
    report.add("serve.queue_wait_ms", stats::median(&queue), "ms");
    report.add("serve.batch_exec_ms", batch_exec_ms, "ms");
    report.add("serve.overhead_ms", stats::median(&overhead), "ms");
    report.add(
        "serve.batch_size_mean",
        ratio((after.completed - before.completed) as f64, batches),
        "count",
    );
    report.add(
        "serve.exact_schedule_frac",
        ratio(exact, window.replies.len() as f64),
        "ratio",
    );
    report.add("serve.tenant_wait_ratio", tenant_wait_ratio, "ratio");
    report.add(
        "serve.pool_reuse_frac",
        ratio(reuses, reuses + fresh),
        "ratio",
    );
    report.add("serve.tail_pct", tail.map_or(100.0, |t| t.percentile), "%");
    report.add("serve.samples", lat.len() as f64, "count");
    report.add("gen.lag_ms", stats::percentile(&window.lags_ms, 99.0), "ms");
    report.add(
        "trace.overhead_frac",
        ratio(p50_traced, p50_plain) - 1.0,
        "ratio",
    );

    // core, sim and profile: the engine's start-up search, re-run.
    let (core, sim, profile) = layers::core(&prepared.network, &config, &tracer);
    report.add("core.optimize_s", core.optimize_s, "s");
    report.add("core.dp_states", core.states as f64, "count");
    report.add("core.dp_transitions", core.transitions as f64, "count");
    report.add("core.cost_queries", core.cost_queries as f64, "count");
    report.add("core.memo_hits", core.memo_hits as f64, "count");
    report.add("core.setup_share", ratio(core.optimize_s, setup_s), "ratio");
    report.add(
        "sim.query_us",
        ratio(sim.seconds * 1e6, sim.queries as f64),
        "us",
    );
    report.add("sim.queries", sim.queries as f64, "count");
    report.add("profile.stages", profile.stages as f64, "count");
    report.add("profile.stage_runs", profile.stage_runs as f64, "count");
    report.add("profile.cache_hits", profile.cache_hits as f64, "count");
    report.add("profile.s", profile.seconds, "s");

    // exec: whole-network execution outside the engine.
    let weights = NetworkWeights::precompute_as(&prepared.network, config.precision);
    let schedule_for = |batch: usize| {
        &core
            .schedules
            .iter()
            .find(|(b, _)| *b == batch)
            .expect("pre-warmed batch size")
            .1
    };
    let bmax = *config
        .effective_prewarm_batches()
        .last()
        .expect("a pre-warmed batch size");
    let exec = layers::exec(
        &prepared.network,
        &weights,
        schedule_for(1),
        schedule_for(bmax),
        &prepared.inputs,
        bmax,
        host_cores().div_ceil(config.workers.max(1)),
        3,
        &tracer,
    );
    report.add("exec.seq_ms", exec.seq_ms, "ms");
    report.add("exec.ios_ms", exec.ios_ms, "ms");
    report.add("exec.ios_speedup", ratio(exec.seq_ms, exec.ios_ms), "x");
    report.add("exec.batch_max_ms", exec.batch_max_ms, "ms");

    // kernel: operator by operator, against the host's roofline.
    let (classes, kernels_match) = layers::kernels(
        &prepared.network,
        &weights,
        &prepared.inputs[0],
        &prepared.references[0],
        &ceiling,
        3,
        &tracer,
    );
    let kernel_names: [[&str; 3]; 5] = [
        [
            "kernel.conv_kxk_ms",
            "kernel.conv_kxk_gflops",
            "kernel.conv_kxk_peak_frac",
        ],
        [
            "kernel.conv_1x1_ms",
            "kernel.conv_1x1_gflops",
            "kernel.conv_1x1_peak_frac",
        ],
        [
            "kernel.sepconv_ms",
            "kernel.sepconv_gflops",
            "kernel.sepconv_peak_frac",
        ],
        [
            "kernel.pool_ms",
            "kernel.pool_gflops",
            "kernel.pool_peak_frac",
        ],
        [
            "kernel.other_ms",
            "kernel.other_gflops",
            "kernel.other_peak_frac",
        ],
    ];
    for (class, [ms, gflops, peak]) in classes.iter().zip(kernel_names) {
        report.add(ms, class.seconds * 1e3, "ms");
        report.add(gflops, ratio(class.flops, class.seconds) / 1e9, "GFLOP/s");
        report.add(peak, ratio(class.roofline_s, class.seconds), "ratio");
    }
    let kernel_ms: f64 = classes.iter().map(|c| c.seconds * 1e3).sum();
    report.add("kernel.coverage", ratio(kernel_ms, exec.seq_ms), "ratio");
    report.add("ceiling.gflops", ceiling.gflops, "GFLOP/s");
    report.add("ceiling.triad_gbs", ceiling.gbs, "GB/s");

    report.correct &= exec.ios_matches_seq && kernels_match;
    if !exec.ios_matches_seq {
        eprintln!("exec.ios output differs from exec.seq output");
    }
    if !kernels_match {
        eprintln!("operator-by-operator output differs from the reference");
    }

    println!(
        "reconciliation: latency_p50 {p50_traced:.2} ms ~ queue {:.2} + batch exec {batch_exec_ms:.2} \
         + serve overhead {:.2} ms; setup {setup_s:.2} s of which core.optimize {:.2} s; \
         kernels {kernel_ms:.1} ms of exec.seq {:.1} ms",
        stats::median(&queue),
        stats::median(&overhead),
        core.optimize_s,
        exec.seq_ms
    );
    println!(
        "where the time goes (batch 1, sequential, {} ISA):",
        ceiling.isa
    );
    println!(
        "{}",
        time_table_row(&prepared.network, exec.seq_ms, &classes)
    );
    for network in w.table_extra {
        let (row, walk_matches) = extra_table_row(&network(), args.seed, &ceiling, &tracer);
        println!("{row}");
        report.correct &= walk_matches;
    }
    dump_traces(w, args, &tracer, engine_tracer);
    report
}

/// Self time of each traced request span: its duration minus its queue
/// and batch-execution children, ms.
fn request_self_times_ms(tracer: &Tracer) -> Vec<f64> {
    let records = tracer.records();
    let interval = |r: &TraceRecord| (r.start_ns, r.start_ns + r.dur_ns);
    records
        .iter()
        .filter(|r| r.name == "serve.request")
        .map(|request| {
            let children: Vec<(u64, u64)> = records
                .iter()
                .filter(|r| {
                    r.id == request.id && matches!(r.name, "serve.queue" | "serve.batch_exec")
                })
                .map(interval)
                .collect();
            stats::self_time(interval(request), &children) as f64 / 1e6
        })
        .collect()
}

/// One row of the "where the time goes" table: sequential batch-1 time,
/// GFLOP, GFLOP/s and each operator class's share and rate.
fn time_table_row(network: &Network, seq_ms: f64, classes: &[layers::KernelClass; 5]) -> String {
    const LABELS: [&str; 5] = ["KxK conv", "1×1 conv", "sepconv", "pool", "other"];
    let gflop = network.total_flops() as f64 / 1e9;
    let total_s: f64 = classes.iter().map(|c| c.seconds).sum();
    let shares: Vec<String> = classes
        .iter()
        .zip(LABELS)
        .filter(|(c, _)| c.seconds > 0.01 * total_s)
        .map(|(c, label)| {
            format!(
                "{label} {:.0} % @ {:.1}",
                100.0 * c.seconds / total_s,
                ratio(c.flops, c.seconds) / 1e9
            )
        })
        .collect();
    format!(
        "| {} | {seq_ms:.0} | {gflop:.2} | {:.1} | {} |",
        network.name,
        gflop / (seq_ms / 1e3),
        shares.join(" · ")
    )
}

/// The table row of a network no workload serves, and whether its
/// operator-by-operator walk reproduces the reference output.
fn extra_table_row(
    network: &Network,
    seed: u64,
    ceiling: &ceiling::Ceiling,
    tracer: &Tracer,
) -> (String, bool) {
    let input = TensorData::random(network.input_shape, load::input_seeds(seed, 1)[0]);
    let reference = execute_network(network, std::slice::from_ref(&input));
    let weights = NetworkWeights::precompute(network);
    let seq_ms = layers::seq_ms(network, &weights, &input, 3, tracer);
    let (classes, walk_matches) =
        layers::kernels(network, &weights, &input, &reference, ceiling, 3, tracer);
    if !walk_matches {
        eprintln!(
            "{}: operator-by-operator output differs from the reference",
            network.name
        );
    }
    (time_table_row(network, seq_ms, &classes), walk_matches)
}

/// Writes the benchmark's spans and the engine's spans of the traced
/// window as Chrome trace files under `.bench_out/`.
fn dump_traces(w: &Workload, args: &Args, bench: &Tracer, engine: &Tracer) {
    let dir = std::path::Path::new(".bench_out");
    let written = std::fs::create_dir_all(dir).and_then(|()| {
        for (label, tracer) in [("bench", bench), ("engine", engine)] {
            let path = dir.join(format!("{}-seed{}.{label}.json", w.name, args.seed));
            std::fs::write(&path, chrome_trace_json(&tracer.records()))?;
            println!("trace: {}", path.display());
        }
        Ok(())
    });
    if let Err(e) = written {
        eprintln!("could not write the traces: {e}");
    }
}

fn main() -> ExitCode {
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let w = args.workload;
    println!(
        "servebench {} seed={} seconds={} trace={} cores={} isa={}",
        w.name,
        args.seed,
        args.seconds,
        u8::from(args.trace),
        host_cores(),
        ios_backend::simd::active_isa()
    );
    let (report, declared) = if args.trace {
        (traced(w, &args), &PER_LAYER[..])
    } else {
        (untraced(w, &args), &END_TO_END[..])
    };
    let names: Vec<&str> = report.metrics.iter().map(|m| m.0).collect();
    assert_eq!(
        names, declared,
        "reported metrics differ from the declared ones"
    );
    println!("{}", report.json());
    ExitCode::SUCCESS
}

#[cfg(test)]
mod tests {
    use super::*;
    use serde_json::Value;

    fn benchmark_json() -> Value {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json next to servebench/");
        serde_json::from_str(&text).expect("BENCHMARK.json parses")
    }

    fn names(list: &Value) -> Vec<&str> {
        list.as_array()
            .expect("a list")
            .iter()
            .map(|entry| entry["name"].as_str().expect("a name"))
            .collect()
    }

    #[test]
    fn benchmark_json_declares_what_the_runs_report() {
        let json = benchmark_json();
        assert_eq!(names(&json["end_to_end"]), END_TO_END);
        assert_eq!(names(&json["per_layer"]), PER_LAYER);
        let workloads: Vec<&str> = workload::WORKLOADS.iter().map(|w| w.name).collect();
        assert_eq!(names(&json["workloads"]), workloads);
    }

    #[test]
    fn workload_constants_are_stated_in_benchmark_json() {
        let json = benchmark_json();
        for (entry, w) in json["workloads"]
            .as_array()
            .expect("workloads")
            .iter()
            .zip(&workload::WORKLOADS)
        {
            let why = entry["why"].as_str().expect("a why");
            let limit = format!("limit {} ms", w.limit_ms);
            assert!(why.contains(&limit), "{}: {why:?} lacks {limit:?}", w.name);
            if let Traffic::Open { rate, .. } = w.traffic {
                let rate = format!("{rate} img/s");
                assert!(why.contains(&rate), "{}: {why:?} lacks {rate:?}", w.name);
            }
        }
    }

    #[test]
    fn arguments_are_checked() {
        let parse = |s: &str| parse_args(s.split_whitespace().map(String::from));
        let args = parse("--workload randwire_open --seed 3 --seconds 15 --trace 1").unwrap();
        assert_eq!(
            (args.workload.name, args.seed, args.seconds, args.trace),
            ("randwire_open", 3, 15.0, true)
        );
        assert!(parse("--workload nasnet --seed 1 --seconds 1").is_err());
        assert!(parse("--workload inception_b1 --seed x --seconds 1").is_err());
        assert!(parse("--workload inception_b1 --seed 1 --seconds 0").is_err());
        assert!(parse("--workload inception_b1 --seed 1 --seconds 1 --trace 2").is_err());
        assert!(parse("--workload inception_b1 --seconds 1").is_err());
        assert!(parse("--workload").is_err());
    }

    #[test]
    fn report_prints_one_json_object() {
        let mut report = Report {
            correct: true,
            attempted: 3,
            failed: 1,
            ..Report::default()
        };
        report.add("latency_p50_ms", 1.25, "ms");
        report.add("setup_s", 0.5, "s");
        let json: Value = serde_json::from_str(&report.json()).unwrap();
        assert_eq!(json["correct"].as_bool(), Some(true));
        assert_eq!(json["metrics"]["setup_s"]["unit"].as_str(), Some("s"));
        assert_eq!(
            json["metrics"]["latency_p50_ms"]["value"]
                .as_number()
                .unwrap()
                .as_f64(),
            1.25
        );
    }
}
