//! `tenant_gate` — CI acceptance gate for multi-tenant admission.
//!
//! Two phases, each on a fresh [`ios_serve::ServeEngine`] over the real
//! CPU reference backend:
//!
//! 1. **Weighted fairness** — two *equal-weight* tenants offer load at a
//!    3:1 ratio against a saturated single-worker server. Weighted-fair
//!    dequeue must split completed throughput evenly regardless of the
//!    offered skew: the gate requires the completed-count ratio to stay
//!    within 1.25× of parity while both lanes are backlogged.
//! 2. **Quota enforcement** — a token-bucket-limited tenant is offered
//!    load well above its refill rate. Every over-quota offer must come
//!    back as the typed [`Rejected::Shed`] (exact conservation:
//!    `accepted + shed == offered`), the per-tenant metrics must agree
//!    with client-side truth, and the accepted count must stay within
//!    `burst + rate · elapsed + slack` — the bucket cannot leak.
//!
//! The gate also round-trips the engine's Prometheus exposition (now
//! carrying `ios_tenant_*{tenant="…"}` labelled series) through the
//! telemetry validator. The report records every counter and bar.
//!
//! Run with: `cargo run --release -p ios-bench --bin tenant_gate`
//! (`--quick` shortens both phases for CI).

use ios_backend::TensorData;
use ios_bench::gate::{self, chain_network, host_cores};
use ios_bench::{fmt3, render_table, BenchOptions};
use ios_ir::TensorShape;
use ios_serve::{Rejected, ServeConfig, ServeEngine, ServeError, TenantConfig};
use serde::Serialize;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

#[derive(Serialize)]
struct Report {
    host_parallelism: usize,
    quick: bool,
    fairness_target_completed: u64,
    burst_completed: u64,
    trickle_completed: u64,
    /// max(burst, trickle) / min(burst, trickle) completed counts.
    fairness_ratio: f64,
    fairness_bar: f64,
    quota_rate_per_sec: f64,
    quota_burst: f64,
    quota_offered: u64,
    quota_accepted: u64,
    quota_shed: u64,
    quota_elapsed_s: f64,
    /// `burst + rate · elapsed + slack`: the most the bucket may admit.
    quota_accept_bound: f64,
    prometheus_series: usize,
    pass: bool,
}

fn tenant_completed(engine: &ServeEngine, tenant: &str) -> u64 {
    engine
        .metrics()
        .tenants
        .iter()
        .find(|t| t.tenant == tenant)
        .map_or(0, |t| t.completed)
}

fn main() {
    let opts = BenchOptions::from_args();
    let cores = host_cores();
    // The serving workload of `adapt_gate`.
    let net = chain_network(TensorShape::new(1, 16, 12, 12), 3);
    let fairness_target = if opts.quick { 240u64 } else { 600 };
    let quota_offers = if opts.quick { 60u64 } else { 120 };

    // ---- Phase 1: equal weights split a 3:1 offered load evenly ------
    // One worker, batch 1: every dispatch is a pure weighted-fair choice.
    // The burst tenant keeps 9 requests outstanding, the trickle tenant 3
    // (the 3:1 offered skew); equal weights mean the dequeue must ignore
    // that skew as long as both lanes are backlogged.
    let config = ServeConfig::default()
        .with_max_batch(1)
        .with_workers(1)
        .with_max_wait(Duration::from_millis(1))
        .with_prewarm_batches(vec![1])
        .with_background_reoptimize(false)
        .with_tenant("burst", TenantConfig::default())
        .with_tenant("trickle", TenantConfig::default());
    let engine = Arc::new(ServeEngine::start(net.clone(), config));
    let stop = Arc::new(AtomicBool::new(false));
    let feeders: Vec<_> = [("burst", 9usize), ("trickle", 3usize)]
        .into_iter()
        .map(|(tenant, depth)| {
            let engine = Arc::clone(&engine);
            let net = net.clone();
            let stop = Arc::clone(&stop);
            std::thread::spawn(move || {
                let mut outstanding = Vec::new();
                let mut seed = 0u64;
                while !stop.load(Ordering::SeqCst) {
                    while outstanding.len() < depth {
                        seed += 1;
                        let handle = engine
                            .submit_for_tenant(tenant, TensorData::random(net.input_shape, seed))
                            .expect("fairness phase runs unmetered");
                        outstanding.push(handle);
                    }
                    outstanding = outstanding
                        .into_iter()
                        .filter_map(|h| h.try_wait().err())
                        .collect();
                    std::thread::sleep(Duration::from_micros(300));
                }
                for handle in outstanding {
                    let _ = handle.wait_outcome();
                }
            })
        })
        .collect();
    let deadline = Instant::now() + Duration::from_secs(120);
    while engine.metrics().completed < fairness_target && Instant::now() < deadline {
        std::thread::sleep(Duration::from_millis(5));
    }
    let burst_completed = tenant_completed(&engine, "burst");
    let trickle_completed = tenant_completed(&engine, "trickle");
    stop.store(true, Ordering::SeqCst);
    for feeder in feeders {
        feeder.join().expect("feeder thread");
    }
    Arc::try_unwrap(engine)
        .unwrap_or_else(|_| panic!("feeders joined"))
        .shutdown();
    let fairness_bar = 1.25;
    let fairness_ratio = if burst_completed.min(trickle_completed) == 0 {
        f64::INFINITY
    } else {
        burst_completed.max(trickle_completed) as f64
            / burst_completed.min(trickle_completed) as f64
    };
    println!(
        "tenant_gate: {cores} cores, fairness burst {burst_completed} vs trickle \
         {trickle_completed} completed ({fairness_ratio:.3}x, bar {fairness_bar:.2}x, \
         quick = {})",
        opts.quick
    );

    // ---- Phase 2: the token bucket cannot leak -----------------------
    let rate = 20.0;
    let burst = 5.0;
    let config = ServeConfig::default()
        .with_max_batch(8)
        .with_workers(1)
        .with_max_wait(Duration::from_millis(1))
        .with_prewarm_batches(vec![1])
        .with_background_reoptimize(false)
        .with_tenant("metered", TenantConfig::default().with_rate(rate, burst))
        .with_tenant("bystander", TenantConfig::default());
    let engine = ServeEngine::start(net.clone(), config);
    let mut accepted_handles = Vec::new();
    let mut quota_shed = 0u64;
    let quota_started = Instant::now();
    for i in 0..quota_offers {
        match engine.submit_for_tenant("metered", TensorData::random(net.input_shape, i)) {
            Ok(handle) => accepted_handles.push(handle),
            Err(ServeError::Rejected(Rejected::Shed)) => quota_shed += 1,
            Err(other) => panic!("unexpected submit error: {other}"),
        }
        std::thread::sleep(Duration::from_millis(10));
    }
    let quota_elapsed = quota_started.elapsed().as_secs_f64();
    let quota_accepted = accepted_handles.len() as u64;
    for handle in accepted_handles {
        handle
            .wait_outcome()
            .expect("accepted metered requests complete");
    }
    // A bystander rides along untouched by the neighbor's exhausted bucket.
    engine
        .submit_for_tenant("bystander", TensorData::random(net.input_shape, 0))
        .expect("an unmetered tenant is never rate-limited")
        .wait_outcome()
        .expect("bystander completes");
    let snapshot = engine.metrics();
    let metered = snapshot
        .tenants
        .iter()
        .find(|t| t.tenant == "metered")
        .expect("metered tenant reported");
    let quota_accept_bound = burst + rate * quota_elapsed + 3.0;
    let text = engine.prometheus_text();
    let prometheus_series = match ios_telemetry::prometheus::validate(&text) {
        Ok(series) => series,
        Err(e) => {
            println!("tenant_gate: prometheus exposition failed validation: {e}");
            0
        }
    };
    engine.shutdown();
    println!(
        "tenant_gate: quota accepted {quota_accepted}/{quota_offers} (shed {quota_shed}) over \
         {quota_elapsed:.2} s — bound {quota_accept_bound:.1} at rate {rate}/s, burst {burst}"
    );

    // ---- Verdict -----------------------------------------------------
    let pass = fairness_ratio <= fairness_bar
        && quota_shed > 0
        && quota_accepted + quota_shed == quota_offers
        && (quota_accepted as f64) <= quota_accept_bound
        && quota_accepted >= burst as u64
        && metered.completed == quota_accepted
        && metered.shed == quota_shed
        && prometheus_series > 0
        && text.contains(r#"ios_tenant_requests_shed_total{tenant="metered"}"#);

    println!(
        "{}",
        render_table(
            "Multi-tenant admission gate: weighted fairness and quota enforcement",
            &[
                "burst done",
                "trickle done",
                "ratio",
                "bar",
                "quota accepted",
                "quota shed",
                "accept bound",
            ],
            &[vec![
                burst_completed.to_string(),
                trickle_completed.to_string(),
                fmt3(fairness_ratio),
                format!("<= {fairness_bar:.2}x"),
                quota_accepted.to_string(),
                quota_shed.to_string(),
                fmt3(quota_accept_bound),
            ]],
        )
    );

    let report = Report {
        host_parallelism: cores,
        quick: opts.quick,
        fairness_target_completed: fairness_target,
        burst_completed,
        trickle_completed,
        fairness_ratio,
        fairness_bar,
        quota_rate_per_sec: rate,
        quota_burst: burst,
        quota_offered: quota_offers,
        quota_accepted,
        quota_shed,
        quota_elapsed_s: quota_elapsed,
        quota_accept_bound,
        prometheus_series,
        pass,
    };
    gate::finish("tenant", &opts, pass, &report);
}
