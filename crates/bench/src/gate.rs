//! The harness every CI gate binary (`src/bin/*_gate.rs`,
//! `serve_throughput`) runs on: wall-clock timers, the host-aware bar,
//! the gates' shared workloads, and the verdict tail that prints
//! `RESULT: PASS|FAIL`, writes `BENCH_<gate>.json` (plus `--json PATH`)
//! and exits non-zero on FAIL.
//!
//! Every gate asserts bit-identity of the paths it compares *before* it
//! times them; the harness only measures and reports.

use crate::BenchOptions;
use ios_backend::ops_cpu::conv_weights;
use ios_backend::{ConvEpilogue, PackedFilter, TensorData};
use ios_ir::{Activation, Block, Conv2dParams, GraphBuilder, Network, TensorShape, Value};
use serde::Serialize;
use std::path::{Path, PathBuf};
use std::time::Instant;

/// One timed call of `f`, in milliseconds.
fn time_ms<O>(f: impl FnOnce() -> O) -> f64 {
    let start = Instant::now();
    std::hint::black_box(f());
    start.elapsed().as_secs_f64() * 1e3
}

/// Best (minimum) wall time of `iters` runs of `f`, in milliseconds.
pub fn best_ms<O>(iters: usize, mut f: impl FnMut() -> O) -> f64 {
    (0..iters)
        .map(|_| time_ms(&mut f))
        .fold(f64::INFINITY, f64::min)
}

/// Per-round wall times of several arms timed by [`interleaved`].
#[derive(Debug, Clone)]
pub struct Rounds {
    /// `ms[arm][round]`.
    ms: Vec<Vec<f64>>,
}

impl Rounds {
    /// Best (minimum) time of `arm` over all rounds, in milliseconds.
    #[must_use]
    pub fn best_ms(&self, arm: usize) -> f64 {
        self.ms[arm].iter().copied().fold(f64::INFINITY, f64::min)
    }

    /// Median over rounds of `time[num] / time[den]`: the speedup of arm
    /// `den` over arm `num`. A noisy stretch on a shared host covers a
    /// whole round, so the round's ratio stays clean even when its
    /// absolute times do not, and the median discards the rounds a burst
    /// split in half.
    #[must_use]
    pub fn median_ratio(&self, num: usize, den: usize) -> f64 {
        let mut ratios: Vec<f64> = self.ms[num]
            .iter()
            .zip(&self.ms[den])
            .map(|(n, d)| n / d)
            .collect();
        median(&mut ratios)
    }
}

/// Times `rounds` rounds, each running every arm once in order, so the
/// arms of one round run adjacently.
pub fn interleaved(rounds: usize, arms: &mut [&mut dyn FnMut()]) -> Rounds {
    let mut ms = vec![Vec::with_capacity(rounds); arms.len()];
    for _ in 0..rounds {
        for (arm, times) in arms.iter_mut().zip(&mut ms) {
            times.push(time_ms(arm));
        }
    }
    Rounds { ms }
}

/// Median of a sample set (averages the middle pair for even counts).
fn median(samples: &mut [f64]) -> f64 {
    assert!(!samples.is_empty(), "median of an empty sample set");
    samples.sort_by(|a, b| a.partial_cmp(b).unwrap());
    let mid = samples.len() / 2;
    if samples.len() % 2 == 1 {
        samples[mid]
    } else {
        (samples[mid - 1] + samples[mid]) / 2.0
    }
}

/// The cores this process may run on.
#[must_use]
pub fn host_cores() -> usize {
    std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get)
}

/// The bar a host-aware gate enforces on a host with `cores` cores.
/// Concurrency gains are a hardware property: with ≥ 2 cores the gate
/// enforces `multi_core`; on one core it prints `notice` (why the bar
/// relaxes there) and enforces `single_core`.
#[must_use]
pub fn host_bar(cores: usize, multi_core: f64, single_core: f64, notice: &str) -> f64 {
    if cores >= 2 {
        multi_core
    } else {
        println!("single-core host: {notice}");
        single_core
    }
}

/// Prints the verdict, writes the report to `BENCH_<gate>.json` in the
/// working directory and to `--json PATH` when given, and exits with
/// status 1 on FAIL.
pub fn finish<T: Serialize>(gate: &str, opts: &BenchOptions, pass: bool, report: &T) {
    println!("RESULT: {}", if pass { "PASS" } else { "FAIL" });
    write_report(Path::new("."), gate, opts.json.as_deref(), report);
    if !pass {
        std::process::exit(1);
    }
}

/// Writes `report` to `dir/BENCH_<gate>.json` and, when given, to `json`.
fn write_report<T: Serialize>(dir: &Path, gate: &str, json: Option<&str>, report: &T) {
    let default = dir.join(format!("BENCH_{gate}.json"));
    for path in std::iter::once(default).chain(json.map(PathBuf::from)) {
        write_json(&path, report);
    }
}

/// Writes `value` as pretty JSON to `path`; failures go to stderr.
pub(crate) fn write_json<T: Serialize>(path: &Path, value: &T) {
    match serde_json::to_string_pretty(value) {
        Ok(json) => {
            if let Err(e) = std::fs::write(path, json) {
                eprintln!("failed to write {}: {e}", path.display());
            }
        }
        Err(e) => eprintln!("failed to serialize {}: {e}", path.display()),
    }
}

/// A chain of `blocks` branchy blocks over `input`: each block runs a 3×3
/// and a 1×1 convolution side by side and concatenates them.
#[must_use]
pub fn chain_network(input: TensorShape, blocks: usize) -> Network {
    chain(input, blocks, |_, _, cat| cat)
}

/// [`chain_network`] with a 1×1 projection back to the input's channel
/// count closing every block, so every block keeps the input's shape.
#[must_use]
pub fn projected_chain_network(input: TensorShape, blocks: usize) -> Network {
    let project = Conv2dParams::relu(input.channels, (1, 1), (1, 1), (0, 0));
    chain(input, blocks, |b, i, cat| {
        b.conv2d(format!("b{i}_r1"), cat, project)
    })
}

/// The chain builder: each block's 3×3‖1×1 concat goes through `tail`.
fn chain(
    input: TensorShape,
    blocks: usize,
    tail: impl Fn(&mut GraphBuilder, usize, Value) -> Value,
) -> Network {
    let channels = input.channels;
    let mut shape = input;
    let mut out = Vec::with_capacity(blocks);
    for i in 0..blocks {
        let mut b = GraphBuilder::new(format!("chain_b{i}"), shape);
        let x = b.input(0);
        let a = b.conv2d(
            format!("b{i}_a3"),
            x,
            Conv2dParams::relu(channels, (3, 3), (1, 1), (1, 1)),
        );
        let c = b.conv2d(
            format!("b{i}_c1"),
            x,
            Conv2dParams::relu(channels, (1, 1), (1, 1), (0, 0)),
        );
        let cat = b.concat(format!("b{i}_cat"), &[a, c]);
        let y = tail(&mut b, i, cat);
        let block = Block::new(b.build(vec![y]));
        shape = block.graph.output_shapes()[0];
        out.push(block);
    }
    Network::new("chain", input, out)
}

/// One convolution layer shape benchmarked by the kernel gates and the
/// `conv_kernels` bench.
#[derive(Debug, Clone)]
pub struct ConvCase {
    /// Short shape label.
    pub name: &'static str,
    /// Input tensor shape.
    pub input: TensorShape,
    /// Convolution parameters.
    pub params: Conv2dParams,
}

/// The deterministic operands of one [`ConvCase`].
#[derive(Debug, Clone)]
pub struct ConvOperands {
    /// Random input.
    pub input: TensorData,
    /// Filter in natural `[oc][ic/groups][kh][kw]` layout.
    pub weights: Vec<f32>,
    /// The same filter packed for the GEMM kernel.
    pub packed: PackedFilter,
    /// GEMM reduction length: `ic/groups · kh · kw`.
    pub k_len: usize,
    /// Output shape.
    pub out_shape: TensorShape,
    /// The case's parameters without the activation, for epilogue runs.
    pub plain: Conv2dParams,
    /// Per-output-channel bias for epilogue runs.
    pub bias: Vec<f32>,
    /// Residual addend with the output's shape for epilogue runs.
    pub residual: TensorData,
}

impl ConvOperands {
    /// The serving-hot bias + residual + ReLU epilogue.
    #[must_use]
    pub fn epilogue(&self) -> ConvEpilogue<'_> {
        ConvEpilogue {
            input_relu: false,
            bias: Some(&self.bias),
            residual: Some(&self.residual),
            relu: true,
        }
    }
}

impl ConvCase {
    /// Builds the case's input, filters and epilogue operands.
    #[must_use]
    pub fn operands(&self) -> ConvOperands {
        let p = &self.params;
        let in_c_per_group = self.input.channels / p.groups;
        let weights = conv_weights(11, p.out_channels, in_c_per_group, p.kernel);
        let k_len = in_c_per_group * p.kernel.0 * p.kernel.1;
        let packed = PackedFilter::pack(&weights, p.out_channels, p.groups, k_len);
        let (oh, ow) = self.input.conv_output_hw(p.kernel, p.stride, p.padding);
        let out_shape = TensorShape::new(self.input.batch, p.out_channels, oh, ow);
        ConvOperands {
            input: TensorData::random(self.input, 7),
            weights,
            packed,
            k_len,
            out_shape,
            plain: Conv2dParams {
                activation: Activation::None,
                ..*p
            },
            bias: conv_weights(13, p.out_channels, 1, (1, 1)),
            residual: TensorData::random(out_shape, 17),
        }
    }
}

/// The convolution shapes the kernel bench and gate run: Inception- and
/// SqueezeNet-shaped layers covering 3×3, pointwise, strided-downsample
/// and grouped cases. `quick` halves the channel counts.
#[must_use]
pub fn conv_bench_shapes(quick: bool) -> Vec<ConvCase> {
    let s = if quick { 2 } else { 1 };
    vec![
        ConvCase {
            // Inception-v3 mixed-block 3×3 branch shape.
            name: "inception_3x3",
            input: TensorShape::new(1, 96 / s, 15, 15),
            params: Conv2dParams::relu(96 / s, (3, 3), (1, 1), (1, 1)),
        },
        ConvCase {
            // Inception 1×1 bottleneck: the pointwise fast path.
            name: "inception_1x1",
            input: TensorShape::new(1, 128 / s, 15, 15),
            params: Conv2dParams::relu(128 / s, (1, 1), (1, 1), (0, 0)),
        },
        ConvCase {
            // SqueezeNet fire-module 3×3 expand.
            name: "squeezenet_expand3",
            input: TensorShape::new(1, 16, 27, 27),
            params: Conv2dParams::relu(64 / s, (3, 3), (1, 1), (1, 1)),
        },
        ConvCase {
            // Strided downsampling layer.
            name: "downsample_s2",
            input: TensorShape::new(1, 64 / s, 27, 27),
            params: Conv2dParams::relu(64 / s, (3, 3), (2, 2), (1, 1)),
        },
    ]
}

/// The convolution shapes the `quant_gate` CI binary runs: the layers of
/// serving CNN backbones that actually *carry* a bias + residual-add +
/// ReLU epilogue — ResNet basic-block ending 3×3s and bottleneck
/// expansion 1×1s (the convs the residual joins), MobileNetV2-style
/// shallow-`k` expansion pointwises, and Inception branch convs feeding a
/// concat. Epilogue fusion pays where the epilogue's whole-tensor passes
/// are a real fraction of the conv (shallow `k`, large output planes);
/// deep-`k` interior 3×3s keep their epilogue-free fast path. The shapes
/// are never scaled down in quick mode — that would change the
/// compute-vs-traffic regime the gate measures.
#[must_use]
pub fn quant_bench_shapes() -> Vec<ConvCase> {
    vec![
        ConvCase {
            // ResNet basic-block conv2: the 3×3 the residual joins.
            name: "resnet_3x3_56",
            input: TensorShape::new(1, 64, 56, 56),
            params: Conv2dParams::relu(64, (3, 3), (1, 1), (1, 1)),
        },
        ConvCase {
            // ResNet bottleneck expansion at 56²: 64 → 256 pointwise.
            name: "bottleneck_1x1_56",
            input: TensorShape::new(1, 64, 56, 56),
            params: Conv2dParams::relu(256, (1, 1), (1, 1), (0, 0)),
        },
        ConvCase {
            // ResNet conv3 bottleneck expansion at 28²: 128 → 512.
            name: "bottleneck_1x1_28",
            input: TensorShape::new(1, 128, 28, 28),
            params: Conv2dParams::relu(512, (1, 1), (1, 1), (0, 0)),
        },
        ConvCase {
            // MobileNetV2-style expansion at 112²: shallow k, huge plane.
            name: "mb_expand_1x1_112",
            input: TensorShape::new(1, 32, 112, 112),
            params: Conv2dParams::relu(192, (1, 1), (1, 1), (0, 0)),
        },
        ConvCase {
            // MobileNetV2-style expansion at 56².
            name: "mb_expand_1x1_56",
            input: TensorShape::new(1, 24, 56, 56),
            params: Conv2dParams::relu(144, (1, 1), (1, 1), (0, 0)),
        },
        ConvCase {
            // Inception mixed-block 3×3 branch feeding the concat.
            name: "inception_3x3",
            input: TensorShape::new(1, 96, 15, 15),
            params: Conv2dParams::relu(96, (3, 3), (1, 1), (1, 1)),
        },
        ConvCase {
            // Inception 1×1 bottleneck branch.
            name: "inception_1x1",
            input: TensorShape::new(1, 128, 15, 15),
            params: Conv2dParams::relu(128, (1, 1), (1, 1), (0, 0)),
        },
    ]
}

/// The convolution shapes the `simd_gate` CI binary runs: the f32 GEMM
/// register tile under its serving-hot regimes — ResNet body 3×3s (deep
/// `k`, the tile-bound case the AVX2 kernel targets), a strided
/// downsample, a bottleneck pointwise (pure GEMM), and a compact
/// Inception 3×3 so small-`m` layers with edge tiles stay visible. Like
/// the quant set, never scaled down in quick mode — that would
/// shift the compute-vs-traffic regime; `simd_gate --quick` reduces the
/// round count instead.
#[must_use]
pub fn simd_bench_shapes() -> Vec<ConvCase> {
    vec![
        ConvCase {
            // ResNet conv2_x body: 56×56, 64 channels, k = 576.
            name: "resnet_3x3_56",
            input: TensorShape::new(1, 64, 56, 56),
            params: Conv2dParams::relu(64, (3, 3), (1, 1), (1, 1)),
        },
        ConvCase {
            // ResNet conv3_x body: 28×28, 128 channels, k = 1152.
            name: "resnet_3x3_28",
            input: TensorShape::new(1, 128, 28, 28),
            params: Conv2dParams::relu(128, (3, 3), (1, 1), (1, 1)),
        },
        ConvCase {
            // ResNet conv3 downsample entry: strided 3×3.
            name: "resnet_3x3_s2",
            input: TensorShape::new(1, 128, 56, 56),
            params: Conv2dParams::relu(128, (3, 3), (2, 2), (1, 1)),
        },
        ConvCase {
            // ResNet bottleneck expansion pointwise: pure GEMM, k = 128.
            name: "bottleneck_1x1_28",
            input: TensorShape::new(1, 128, 28, 28),
            params: Conv2dParams::relu(512, (1, 1), (1, 1), (0, 0)),
        },
        ConvCase {
            // Inception mixed-block 3×3 branch: compact, edge tiles.
            name: "inception_3x3",
            input: TensorShape::new(1, 96, 15, 15),
            params: Conv2dParams::relu(96, (3, 3), (1, 1), (1, 1)),
        },
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_handles_odd_even_and_unsorted() {
        assert_eq!(median(&mut [3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&mut [4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&mut [7.0]), 7.0);
        // A single outlier round must not move the verdict.
        assert_eq!(median(&mut [1.0, 1.0, 100.0]), 1.0);
    }

    #[test]
    fn rounds_report_best_times_and_median_paired_ratios() {
        // Arm 0 is twice arm 1 in every round but the noisy third, where
        // a burst inflated arm 1 alone.
        let rounds = Rounds {
            ms: vec![vec![4.0, 2.0, 3.0, 5.0, 2.4], vec![2.0, 1.0, 6.0, 2.5, 1.2]],
        };
        assert_eq!(rounds.best_ms(0), 2.0);
        assert_eq!(rounds.best_ms(1), 1.0);
        assert_eq!(rounds.median_ratio(0, 1), 2.0);
        assert_eq!(rounds.median_ratio(1, 0), 0.5);
        let timed = interleaved(3, &mut [&mut || (), &mut || ()]);
        assert_eq!(timed.ms.len(), 2);
        assert!(timed.ms.iter().all(|arm| arm.len() == 3));
    }

    #[test]
    fn host_bar_relaxes_only_on_one_core() {
        assert_eq!(host_bar(1, 1.10, 0.95, "test"), 0.95);
        assert_eq!(host_bar(2, 1.10, 0.95, "test"), 1.10);
        assert_eq!(host_bar(64, 3.0, 6.0, "test"), 3.0);
    }

    #[test]
    fn reports_land_at_the_default_and_json_paths() {
        #[derive(Serialize)]
        struct Report {
            speedup: f64,
            pass: bool,
        }
        let dir = std::env::temp_dir().join(format!("ios_bench_gate_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let extra = dir.join("extra.json");
        let report = Report {
            speedup: 1.5,
            pass: true,
        };
        write_report(&dir, "unit", extra.to_str(), &report);
        for path in [dir.join("BENCH_unit.json"), extra] {
            let text = std::fs::read_to_string(&path).unwrap();
            let value: serde_json::Value = serde_json::from_str(&text).unwrap();
            assert_eq!(
                value["speedup"],
                serde_json::json!(1.5),
                "{}",
                path.display()
            );
            assert_eq!(value["pass"], serde_json::json!(true));
        }
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn conv_operands_match_the_case() {
        for case in simd_bench_shapes() {
            let ops = case.operands();
            assert_eq!(ops.input.shape, case.input);
            assert_eq!(ops.out_shape.channels, case.params.out_channels);
            assert_eq!(ops.residual.shape, ops.out_shape);
            assert_eq!(ops.bias.len(), case.params.out_channels);
            assert_eq!(ops.weights.len(), case.params.out_channels * ops.k_len);
        }
    }

    #[test]
    fn simd_shapes_cover_deep_k_and_edge_tiles() {
        let shapes = simd_bench_shapes();
        assert!(shapes.len() >= 4);
        assert!(shapes.iter().any(|c| c.name == "resnet_3x3_56"));
        assert!(shapes.iter().any(|c| c.params.kernel == (1, 1)));
    }

    #[test]
    fn chain_network_keeps_the_projected_shape() {
        let input = TensorShape::new(1, 16, 12, 12);
        let net = chain_network(input, 3);
        assert_eq!(net.blocks.len(), 3);
        assert_eq!(net.blocks[2].graph.output_shapes()[0].channels, 32);
        let net = projected_chain_network(input, 2);
        assert_eq!(net.blocks[1].graph.output_shapes()[0], input);
    }
}
