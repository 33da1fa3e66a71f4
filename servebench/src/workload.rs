//! The two workloads: which network, which engine configuration, which
//! traffic, and the latency limit goodput is judged against. Every
//! constant here is also stated in the workload's `why` in
//! `BENCHMARK.json` (a test keeps the two in step).

use ios_ir::Network;
use ios_serve::{CostModelKind, ServeConfig, TenantConfig};

/// How requests are offered to the engine.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Traffic {
    /// One client that sends its next request when the previous answer
    /// arrives.
    Closed,
    /// Poisson arrivals at a fixed total rate, split between tenants in
    /// proportion to their shares.
    Open {
        /// Offered requests per second, all tenants together.
        rate: f64,
        /// `(tenant name, offered share)` per tenant.
        tenants: &'static [(&'static str, u32)],
    },
}

/// One benchmark workload.
#[derive(Debug, Clone, Copy)]
pub struct Workload {
    /// The name the benchmark is invoked with.
    pub name: &'static str,
    /// The served network at batch size 1.
    pub network: fn() -> Network,
    /// The engine configuration.
    pub config: fn() -> ServeConfig,
    /// The offered traffic.
    pub traffic: Traffic,
    /// Latency limit of goodput, ms.
    pub limit_ms: f64,
    /// Distinct inputs whose reference outputs are computed per run.
    pub pool: usize,
    /// Networks no workload serves whose row of the "where the time goes"
    /// table the traced run also prints, so the traced runs together
    /// rebuild the whole table.
    pub table_extra: &'static [fn() -> Network],
}

/// Every workload, in the order they are documented.
pub const WORKLOADS: [Workload; 2] = [
    Workload {
        name: "inception_b1",
        network: || ios_models::inception_v3(1),
        config: || ServeConfig::default().with_cost_model(CostModelKind::Simulated),
        traffic: Traffic::Closed,
        limit_ms: 1000.0,
        pool: 4,
        table_extra: &[|| ios_models::squeezenet(1)],
    },
    Workload {
        name: "randwire_open",
        network: || ios_models::randwire_small(1),
        config: || {
            ServeConfig::default()
                .with_cost_model(CostModelKind::Simulated)
                .with_workers(1)
                .with_max_batch(2)
                .with_prewarm_batches(vec![1, 2])
                .with_tenant("heavy", TenantConfig::default().with_weight(1))
                .with_tenant("light", TenantConfig::default().with_weight(1))
        },
        traffic: Traffic::Open {
            rate: 1.0,
            tenants: &[("heavy", 3), ("light", 1)],
        },
        limit_ms: 500.0,
        pool: 8,
        table_extra: &[],
    },
];

/// The workload named `name`.
#[must_use]
pub fn find(name: &str) -> Option<&'static Workload> {
    WORKLOADS.iter().find(|w| w.name == name)
}
