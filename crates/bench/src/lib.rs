//! # ios-bench — experiment harness for the IOS reproduction
//!
//! One binary per table/figure of the paper (see `src/bin/`), plus the
//! shared plumbing in this library: schedule/framework sweeps, table
//! rendering, normalization, geometric means and JSON report output. The
//! CI gate binaries share the [`gate`] harness.
//!
//! Every binary accepts:
//!
//! * `--device v100|k80|2080ti|1080|980ti|a100` — the simulated GPU
//!   (default V100);
//! * `--batch N` — batch size where applicable (default 1);
//! * `--quick` — smaller model variants and tighter pruning so the full
//!   suite finishes quickly on a laptop-class machine;
//! * `--json PATH` — also write the rows as a JSON report.
//!
//! A malformed value (unknown device, batch not a positive integer, flag
//! without its value) is a usage error.
//!
//! Run everything with `cargo run --release -p ios-bench --bin run_all`.

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod gate;

use ios_core::{
    greedy_network_schedule, optimize_network, sequential_network_schedule, IosVariant,
    NetworkSchedule, SchedulerConfig, SimCostModel,
};
use ios_frameworks::{Framework, FrameworkKind};
use ios_ir::Network;
use ios_models::RandWireConfig;
use ios_sim::{DeviceKind, Simulator};
use serde::Serialize;
use std::borrow::Borrow;

/// Command-line options shared by every experiment binary.
#[derive(Debug, Clone)]
pub struct BenchOptions {
    /// Simulated device.
    pub device: DeviceKind,
    /// Batch size.
    pub batch: usize,
    /// Quick mode: smaller models, tighter pruning.
    pub quick: bool,
    /// Optional JSON output path.
    pub json: Option<String>,
}

impl Default for BenchOptions {
    fn default() -> Self {
        BenchOptions {
            device: DeviceKind::TeslaV100,
            batch: 1,
            quick: false,
            json: None,
        }
    }
}

impl BenchOptions {
    /// Parses the options from `std::env::args`; a malformed value is a
    /// usage error that exits with status 2.
    ///
    /// Unknown arguments are ignored so binaries can add their own flags.
    #[must_use]
    pub fn from_args() -> Self {
        let args: Vec<String> = std::env::args().skip(1).collect();
        Self::parse(&args).unwrap_or_else(|e| {
            eprintln!("usage error: {e}");
            std::process::exit(2)
        })
    }

    fn parse(args: &[String]) -> Result<Self, String> {
        let mut opts = BenchOptions::default();
        let mut args = args.iter();
        while let Some(arg) = args.next() {
            let mut value = || args.next().ok_or(format!("{arg} needs a value"));
            match arg.as_str() {
                "--device" => opts.device = parse_device(value()?)?,
                "--batch" => {
                    let v = value()?;
                    opts.batch = match v.parse() {
                        Ok(batch) if batch > 0 => batch,
                        _ => return Err(format!("--batch wants a positive integer, got `{v}`")),
                    };
                }
                "--json" => opts.json = Some(value()?.clone()),
                "--quick" => opts.quick = true,
                _ => {}
            }
        }
        Ok(opts)
    }

    /// The scheduler configuration implied by the options (quick mode uses
    /// a tighter pruning strategy, cf. Figure 9).
    #[must_use]
    pub fn scheduler_config(&self, variant: IosVariant) -> SchedulerConfig {
        let cfg = SchedulerConfig::for_variant(variant);
        if self.quick {
            cfg.with_pruning(2, 4)
        } else {
            cfg
        }
    }

    /// The benchmark networks of Table 2 at this batch size (smaller
    /// variants in quick mode).
    #[must_use]
    pub fn benchmark_networks(&self) -> Vec<Network> {
        if self.quick {
            vec![
                ios_models::inception_v3(self.batch),
                ios_models::randwire::randwire(
                    self.batch,
                    RandWireConfig {
                        nodes_per_stage: 12,
                        ..RandWireConfig::default()
                    },
                ),
                ios_models::nasnet::nasnet_with(self.batch, 44, 6),
                ios_models::squeezenet(self.batch),
            ]
        } else {
            ios_models::paper_benchmarks(self.batch)
        }
    }
}

/// The `--device` names [`parse_device`] accepts.
const DEVICE_NAMES: &str = "v100, k80, 2080ti, 1080, 980ti, a100";

fn parse_device(name: &str) -> Result<DeviceKind, String> {
    Ok(match name.to_ascii_lowercase().as_str() {
        "v100" => DeviceKind::TeslaV100,
        "k80" => DeviceKind::TeslaK80,
        "2080ti" | "rtx2080ti" => DeviceKind::Rtx2080Ti,
        "1080" | "gtx1080" => DeviceKind::Gtx1080,
        "980ti" | "gtx980ti" => DeviceKind::Gtx980Ti,
        "a100" => DeviceKind::A100,
        _ => return Err(format!("unknown device `{name}` (valid: {DEVICE_NAMES})")),
    })
}

/// One labelled measurement row (latency + derived throughput).
#[derive(Debug, Clone, Serialize)]
pub struct MeasurementRow {
    /// Method / framework label.
    pub label: String,
    /// Network name.
    pub network: String,
    /// Latency in milliseconds.
    pub latency_ms: f64,
    /// Throughput in images per second.
    pub throughput: f64,
}

/// Builds the five schedules compared in Figure 6 / Figure 14 and measures
/// them: Sequential, Greedy, IOS-Merge, IOS-Parallel, IOS-Both.
#[must_use]
pub fn schedule_comparison(network: &Network, opts: &BenchOptions) -> Vec<MeasurementRow> {
    let cost = SimCostModel::new(Simulator::new(opts.device));
    let batch = network.input_shape.batch;
    let mut rows = Vec::new();
    let mut push = |label: &str, schedule: &NetworkSchedule| {
        rows.push(MeasurementRow {
            label: label.to_string(),
            network: network.name.clone(),
            latency_ms: schedule.latency_ms(),
            throughput: schedule.throughput(batch),
        });
    };
    push("Sequential", &sequential_network_schedule(network, &cost));
    push("Greedy", &greedy_network_schedule(network, &cost));
    for variant in [IosVariant::Merge, IosVariant::Parallel, IosVariant::Both] {
        let report = optimize_network(network, &cost, &opts.scheduler_config(variant));
        push(&variant.to_string(), &report.schedule);
    }
    rows
}

/// Measures the cuDNN-based baseline frameworks plus IOS on one network
/// (Figure 7 / Figure 15), or all frameworks when `include_tvm` is set
/// (Figure 11 / Figure 12 building block).
#[must_use]
pub fn framework_comparison(
    network: &Network,
    opts: &BenchOptions,
    include_tvm: bool,
) -> Vec<MeasurementRow> {
    let batch = network.input_shape.batch;
    let kinds: Vec<FrameworkKind> = if include_tvm {
        FrameworkKind::all().to_vec()
    } else {
        FrameworkKind::cudnn_baselines().to_vec()
    };
    let mut rows: Vec<MeasurementRow> = kinds
        .iter()
        .map(|kind| {
            let result = Framework::new(*kind, opts.device).measure(network);
            MeasurementRow {
                label: kind.to_string(),
                network: network.name.clone(),
                latency_ms: result.latency_us / 1e3,
                throughput: result.throughput,
            }
        })
        .collect();
    let cost = SimCostModel::new(Simulator::new(opts.device));
    let ios = optimize_network(network, &cost, &opts.scheduler_config(IosVariant::Both)).schedule;
    rows.push(MeasurementRow {
        label: "IOS".to_string(),
        network: network.name.clone(),
        latency_ms: ios.latency_ms(),
        throughput: ios.throughput(batch),
    });
    rows
}

/// Geometric mean of the values (0 when there are none).
#[must_use]
pub fn geomean(values: impl IntoIterator<Item = impl Borrow<f64>>) -> f64 {
    let (sum, n) = values
        .into_iter()
        .fold((0.0, 0), |(sum, n), v| (sum + v.borrow().ln(), n + 1));
    if n == 0 {
        0.0
    } else {
        (sum / f64::from(n)).exp()
    }
}

/// Normalizes throughputs to the best value per network (the y-axis of
/// Figures 6, 7, 14 and 15): returns `(label, normalized)` pairs.
#[must_use]
pub fn normalize_by_best(rows: &[MeasurementRow]) -> Vec<(String, f64)> {
    let best = rows.iter().map(|r| r.throughput).fold(0.0f64, f64::max);
    rows.iter()
        .map(|r| {
            (
                r.label.clone(),
                if best > 0.0 { r.throughput / best } else { 0.0 },
            )
        })
        .collect()
}

/// Renders an ASCII table.
#[must_use]
pub fn render_table(title: &str, headers: &[&str], rows: &[Vec<String>]) -> String {
    use std::fmt::Write as _;
    let mut widths: Vec<usize> = headers.iter().map(|h| h.len()).collect();
    for row in rows {
        for (i, cell) in row.iter().enumerate() {
            if i < widths.len() {
                widths[i] = widths[i].max(cell.len());
            }
        }
    }
    let mut out = String::new();
    let _ = writeln!(out, "== {title} ==");
    let header_line: Vec<String> = headers
        .iter()
        .enumerate()
        .map(|(i, h)| format!("{h:<width$}", width = widths[i]))
        .collect();
    let _ = writeln!(out, "| {} |", header_line.join(" | "));
    let sep: Vec<String> = widths.iter().map(|w| "-".repeat(*w)).collect();
    let _ = writeln!(out, "|-{}-|", sep.join("-|-"));
    for row in rows {
        let cells: Vec<String> = row
            .iter()
            .enumerate()
            .map(|(i, c)| {
                format!(
                    "{c:<width$}",
                    width = widths.get(i).copied().unwrap_or(c.len())
                )
            })
            .collect();
        let _ = writeln!(out, "| {} |", cells.join(" | "));
    }
    out
}

/// Formats a float with three significant decimals.
#[must_use]
pub fn fmt3(v: f64) -> String {
    format!("{v:.3}")
}

/// Writes any serializable value as pretty JSON if a path was requested.
pub fn maybe_write_json<T: Serialize>(opts: &BenchOptions, value: &T) {
    if let Some(path) = &opts.json {
        gate::write_json(std::path::Path::new(path), value);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn geomean_and_normalize() {
        assert!((geomean([1.0, 4.0]) - 2.0).abs() < 1e-12);
        assert_eq!(geomean(Vec::<f64>::new()), 0.0);
        let rows = vec![
            MeasurementRow {
                label: "a".into(),
                network: "n".into(),
                latency_ms: 2.0,
                throughput: 500.0,
            },
            MeasurementRow {
                label: "b".into(),
                network: "n".into(),
                latency_ms: 1.0,
                throughput: 1000.0,
            },
        ];
        let normalized = normalize_by_best(&rows);
        assert_eq!(normalized[1].1, 1.0);
        assert_eq!(normalized[0].1, 0.5);
    }

    #[test]
    fn table_rendering_contains_cells() {
        let t = render_table("t", &["a", "bb"], &[vec!["1".into(), "2".into()]]);
        assert!(t.contains("== t =="));
        assert!(t.contains("| a "));
        assert!(t.contains("| 1 "));
        assert_eq!(fmt3(1.23456), "1.235");
    }

    #[test]
    fn schedule_comparison_orders_ios_first_on_figure2() {
        let opts = BenchOptions::default();
        let net = ios_models::figure2_block(1);
        let rows = schedule_comparison(&net, &opts);
        assert_eq!(rows.len(), 5);
        let best_label = rows
            .iter()
            .max_by(|a, b| a.throughput.partial_cmp(&b.throughput).unwrap())
            .unwrap()
            .label
            .clone();
        assert_eq!(best_label, "IOS-Both");
        let seq = rows.iter().find(|r| r.label == "Sequential").unwrap();
        let both = rows.iter().find(|r| r.label == "IOS-Both").unwrap();
        assert!(seq.latency_ms / both.latency_ms > 1.1);
    }

    #[test]
    fn framework_comparison_includes_ios_row() {
        let opts = BenchOptions::default();
        let net = ios_models::figure2_block(1);
        let rows = framework_comparison(&net, &opts, false);
        assert_eq!(rows.len(), 6);
        assert!(rows.iter().any(|r| r.label == "IOS"));
        assert!(rows.iter().any(|r| r.label == "TensorRT"));
    }

    #[test]
    fn options_parse_device_names() {
        assert_eq!(parse_device("k80"), Ok(DeviceKind::TeslaK80));
        assert_eq!(parse_device("2080ti"), Ok(DeviceKind::Rtx2080Ti));
        assert_eq!(parse_device("V100"), Ok(DeviceKind::TeslaV100));
        let err = parse_device("h100").unwrap_err();
        assert!(err.contains("h100") && err.contains(DEVICE_NAMES), "{err}");
        let opts = BenchOptions::default();
        assert_eq!(opts.batch, 1);
        assert!(!opts.quick);
        let parse = |args: &[&str]| {
            BenchOptions::parse(&args.iter().map(|a| (*a).to_string()).collect::<Vec<_>>())
        };
        let opts = parse(&["--device", "k80", "--batch", "4", "--quick", "--extra"]).unwrap();
        assert_eq!(opts.device, DeviceKind::TeslaK80);
        assert_eq!(opts.batch, 4);
        assert!(opts.quick);
        assert!(parse(&["--device", "h100"]).is_err());
        assert!(parse(&["--batch", "four"]).is_err());
        assert!(parse(&["--batch", "0"]).is_err());
        assert!(parse(&["--json"]).is_err());
    }
}
