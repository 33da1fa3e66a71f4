//! The traced run's layer measurements, each taken around calls into the
//! layer's public functions: schedule optimization (`core`), cost-model
//! queries (`sim`, `profile`), whole-network execution (`exec`) and
//! single operators (`kernel`).

use crate::ceiling::Ceiling;
use crate::serve::same_bits;
use ios_backend::{
    execute_network_batched_capped, execute_network_scheduled, execute_network_with_weights,
    ops_cpu::{execute_op_pooled, execute_op_with_weights_pooled},
    relu_fold_plan, stack_batch, CpuStageProfiler, FoldedRelu, GroupMode, NetworkWeights,
    ScratchPool, TensorData,
};
use ios_core::{
    optimize_network, sequential_network_schedule, CachingCostModel, CostModel, MergedConv,
    NetworkSchedule, ProfiledCostModel, SimCostModel, StageProfiler,
};
use ios_ir::{Activation, Conv2dParams, Graph, Network, Op, OpId, OpKind, Value};
use ios_serve::{CostModelKind, PipelineMode, ServeConfig};
use ios_sim::Simulator;
use ios_telemetry::Tracer;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

/// Calls and nanoseconds spent in a wrapped layer.
#[derive(Debug, Default)]
pub struct Timer {
    calls: AtomicU64,
    ns: AtomicU64,
}

impl Timer {
    fn time<R>(&self, f: impl FnOnce() -> R) -> R {
        let start = Instant::now();
        let out = f();
        self.ns
            .fetch_add(start.elapsed().as_nanos() as u64, Ordering::Relaxed);
        self.calls.fetch_add(1, Ordering::Relaxed);
        out
    }

    /// Calls timed so far.
    #[must_use]
    pub fn calls(&self) -> u64 {
        self.calls.load(Ordering::Relaxed)
    }

    /// Seconds spent in them.
    #[must_use]
    pub fn seconds(&self) -> f64 {
        self.ns.load(Ordering::Relaxed) as f64 / 1e9
    }
}

/// A cost model that times every query it forwards.
pub struct Timed<T> {
    inner: T,
    /// The time spent in `inner`.
    pub timer: Timer,
}

impl<T> Timed<T> {
    fn new(inner: T) -> Self {
        Timed {
            inner,
            timer: Timer::default(),
        }
    }
}

impl<C: CostModel> CostModel for Timed<C> {
    fn concurrent_latency(&self, graph: &Graph, groups: &[Vec<OpId>]) -> f64 {
        self.timer
            .time(|| self.inner.concurrent_latency(graph, groups))
    }

    fn merge_latency(&self, graph: &Graph, merged: &MergedConv) -> f64 {
        self.timer.time(|| self.inner.merge_latency(graph, merged))
    }

    fn measurement_count(&self) -> u64 {
        self.inner.measurement_count()
    }
}

impl<P: StageProfiler> StageProfiler for Timed<P> {
    fn run_concurrent(&self, graph: &Graph, groups: &[Vec<OpId>]) {
        self.timer.time(|| self.inner.run_concurrent(graph, groups));
    }

    fn run_merge(&self, graph: &Graph, merged: &MergedConv) {
        self.timer.time(|| self.inner.run_merge(graph, merged));
    }

    fn device_name(&self) -> &'static str {
        self.inner.device_name()
    }
}

/// Records a span from `start` to now on `tracer`.
pub fn span(tracer: &Tracer, name: &'static str, start_ns: u64, id: u64) {
    let end = tracer.now_ns();
    tracer.record_span_at(name, "bench", start_ns, end - start_ns, id, 0);
}

/// Search statistics summed over the pre-warmed batch sizes.
#[derive(Debug, Default)]
pub struct Core {
    /// Wall time of the `optimize_network` calls, s.
    pub optimize_s: f64,
    /// DP states.
    pub states: u64,
    /// DP transitions.
    pub transitions: u64,
    /// Stage-cost evaluations the cost model performed.
    pub cost_queries: u64,
    /// Stage-generation memo hits.
    pub memo_hits: u64,
    /// The optimized schedule per pre-warmed batch size.
    pub schedules: Vec<(usize, NetworkSchedule)>,
}

/// Simulator queries and their time.
#[derive(Debug, Default, Clone, Copy)]
pub struct SimStats {
    /// Queries answered by the simulator (cache misses).
    pub queries: u64,
    /// Time spent in them, s.
    pub seconds: f64,
}

/// Stage profiling on the CPU backend.
#[derive(Debug, Default, Clone, Copy)]
pub struct ProfileStats {
    /// Distinct stages profiled.
    pub stages: u64,
    /// Stage executions, warm-up included.
    pub stage_runs: u64,
    /// Stage-cost requests served from the profile cache.
    pub cache_hits: u64,
    /// Time spent in profiling calls, s.
    pub seconds: f64,
}

/// The profiler the engine builds for `config` (1 warm-up, median of 3,
/// stages grouped the way serving runs them).
fn engine_profiler(config: &ServeConfig) -> ProfiledCostModel<Timed<CpuStageProfiler>> {
    let load = if config.pipeline == PipelineMode::Off {
        0
    } else {
        config.workers.saturating_sub(1)
    };
    ProfiledCostModel::with_policy(
        Timed::new(
            CpuStageProfiler::with_group_mode(GroupMode::MatchServing)
                .with_background_load(load)
                .with_precision(config.precision),
        ),
        1,
        3,
    )
}

fn profile_stats(model: &ProfiledCostModel<Timed<CpuStageProfiler>>) -> ProfileStats {
    ProfileStats {
        stages: model.profiled_stages(),
        stage_runs: model.stage_runs(),
        cache_hits: model.cache_hits(),
        seconds: model.profiler().timer.seconds(),
    }
}

fn sim_model(config: &ServeConfig) -> CachingCostModel<Timed<SimCostModel>> {
    CachingCostModel::new(Timed::new(SimCostModel::new(Simulator::new(config.device))))
}

fn sim_stats(model: &CachingCostModel<Timed<SimCostModel>>) -> SimStats {
    SimStats {
        queries: model.inner().timer.calls(),
        seconds: model.inner().timer.seconds(),
    }
}

fn optimize_all<C: CostModel>(
    base: &Network,
    config: &ServeConfig,
    model: &C,
    tracer: &Tracer,
) -> Core {
    let mut core = Core::default();
    for batch in config.effective_prewarm_batches() {
        let instance = base.with_batch_size(batch);
        let start_ns = tracer.now_ns();
        let start = Instant::now();
        let report = optimize_network(&instance, model, &config.scheduler);
        core.optimize_s += start.elapsed().as_secs_f64();
        span(tracer, "core.optimize", start_ns, batch as u64);
        core.states += report.states;
        core.transitions += report.transitions;
        core.cost_queries += report.measurements;
        core.memo_hits += report.stage_memo_hits;
        core.schedules.push((batch, report.schedule));
    }
    core
}

/// Re-runs the engine's start-up optimization for every pre-warmed batch
/// size against the cost model the engine composes for `config`, and
/// measures whichever of the simulator and the profiler that model does
/// not use on a side probe of the batch-1 network: the simulator through
/// a batch-1 optimization, the profiler through the stages of the
/// sequential schedule.
pub fn core(
    base: &Network,
    config: &ServeConfig,
    tracer: &Tracer,
) -> (Core, SimStats, ProfileStats) {
    let sim = sim_model(config);
    let profiler = engine_profiler(config);
    let core = match config.cost_model {
        CostModelKind::Simulated => {
            let core = optimize_all(base, config, &sim, tracer);
            let start_ns = tracer.now_ns();
            let _ = sequential_network_schedule(base, &profiler);
            span(tracer, "profile.sequential_probe", start_ns, 1);
            core
        }
        CostModelKind::CpuProfiled => {
            let core = optimize_all(base, config, &profiler, tracer);
            let start_ns = tracer.now_ns();
            let _ = optimize_network(base, &sim, &config.scheduler);
            span(tracer, "sim.optimize_probe", start_ns, 1);
            core
        }
    };
    (core, sim_stats(&sim), profile_stats(&profiler))
}

/// Whole-network execution times, ms (medians).
#[derive(Debug, Default, Clone, Copy)]
pub struct Exec {
    /// Sequential, batch 1, precomputed weights.
    pub seq_ms: f64,
    /// Under the batch-1 IOS schedule.
    pub ios_ms: f64,
    /// A stacked batch of `max_batch` under its schedule, at the engine's
    /// per-batch worker cap.
    pub batch_max_ms: f64,
    /// Whether the IOS output equals the sequential one bit for bit.
    pub ios_matches_seq: bool,
}

fn median_ms(reps: usize, mut f: impl FnMut()) -> f64 {
    let samples: Vec<f64> = (0..reps)
        .map(|_| {
            let start = Instant::now();
            f();
            start.elapsed().as_secs_f64() * 1e3
        })
        .collect();
    crate::stats::median(&samples)
}

/// Median time of a sequential batch-1 pass of `base` on `input`, ms.
pub fn seq_ms(
    base: &Network,
    weights: &NetworkWeights,
    input: &TensorData,
    reps: usize,
    tracer: &Tracer,
) -> f64 {
    let x = std::slice::from_ref(input);
    let start_ns = tracer.now_ns();
    let ms = median_ms(reps, || {
        std::hint::black_box(execute_network_with_weights(base, weights, x));
    });
    span(tracer, "exec.seq", start_ns, reps as u64);
    ms
}

/// Times sequential, IOS-scheduled and batched execution of `base`.
#[allow(clippy::too_many_arguments)]
pub fn exec(
    base: &Network,
    weights: &NetworkWeights,
    b1: &NetworkSchedule,
    bmax: &NetworkSchedule,
    inputs: &[TensorData],
    max_batch: usize,
    batch_workers: usize,
    reps: usize,
    tracer: &Tracer,
) -> Exec {
    let x = std::slice::from_ref(&inputs[0]);
    let seq_out = execute_network_with_weights(base, weights, x);
    let ios_out = execute_network_scheduled(base, b1, weights, x);
    let ios_matches_seq = same_bits(ios_out.iter(), &seq_out);

    let seq_ms = seq_ms(base, weights, &inputs[0], reps, tracer);

    let start_ns = tracer.now_ns();
    let ios_ms = median_ms(reps, || {
        std::hint::black_box(execute_network_scheduled(base, b1, weights, x));
    });
    span(tracer, "exec.ios", start_ns, reps as u64);

    let samples: Vec<&TensorData> = (0..max_batch).map(|i| &inputs[i % inputs.len()]).collect();
    let stacked = [stack_batch(&samples)];
    let pool = ScratchPool::new();
    let start_ns = tracer.now_ns();
    let batch_max_ms = median_ms(reps.div_ceil(2), || {
        let out = execute_network_batched_capped(
            base,
            Some(bmax),
            weights,
            &stacked,
            &pool,
            batch_workers,
        );
        for t in out {
            pool.recycle_tensor(t);
        }
    });
    span(tracer, "exec.batch_max", start_ns, max_batch as u64);

    Exec {
        seq_ms,
        ios_ms,
        batch_max_ms,
        ios_matches_seq,
    }
}

/// The kernel class of `op`: conv_kxk, conv_1x1, sepconv, pool, other.
fn class_of(op: &Op) -> usize {
    match &op.kind {
        OpKind::Conv2d(p) if p.kernel == (1, 1) => 1,
        OpKind::Conv2d(_) => 0,
        OpKind::SepConv2d(_) => 2,
        OpKind::Pool(_) => 3,
        _ => 4,
    }
}

/// One operator class's totals over a batch-1 pass.
#[derive(Debug, Default, Clone, Copy)]
pub struct KernelClass {
    /// Sum of per-operator median times, s.
    pub seconds: f64,
    /// FLOPs, from shapes.
    pub flops: f64,
    /// Sum of per-operator roofline times, s.
    pub roofline_s: f64,
}

/// Walks the batch-1 network operator by operator, as the sequential
/// executor runs it (standalone ReLUs folded into their convolution),
/// timing each operator `reps` times. Returns per-class totals and
/// whether the final outputs equal `reference` bit for bit.
pub fn kernels(
    base: &Network,
    weights: &NetworkWeights,
    input: &TensorData,
    reference: &[TensorData],
    ceiling: &Ceiling,
    reps: usize,
    tracer: &Tracer,
) -> ([KernelClass; 5], bool) {
    let pool = ScratchPool::new();
    let mut classes = [KernelClass::default(); 5];
    let mut current = vec![input.clone()];
    for (b, block) in base.blocks.iter().enumerate() {
        let graph = &block.graph;
        let block_weights = weights.block(b);
        let plan = block_weights
            .fold_plan()
            .map_or_else(|| relu_fold_plan(graph), <[FoldedRelu]>::to_vec);
        let mut outputs: Vec<Option<TensorData>> = vec![None; graph.len()];
        for id in graph.topological_order() {
            let op = graph.op(id);
            let ins: Vec<&TensorData> = op
                .inputs
                .iter()
                .map(|v| match v {
                    Value::Input(i) => &current[*i],
                    Value::Op(p) => outputs[p.index()].as_ref().expect("producer ran"),
                })
                .collect();
            let fused;
            let run_as = match plan[id.index()] {
                FoldedRelu::FuseRelu => {
                    let OpKind::Conv2d(p) = &op.kind else {
                        unreachable!("only convolutions absorb a ReLU")
                    };
                    fused = Op {
                        kind: OpKind::Conv2d(Conv2dParams {
                            activation: Activation::Relu,
                            ..*p
                        }),
                        ..op.clone()
                    };
                    &fused
                }
                _ => op,
            };
            let copy = matches!(plan[id.index()], FoldedRelu::CopyOf(_));
            let run = || {
                if copy {
                    let mut out = pool.take_tensor(op.output_shape);
                    out.data.copy_from_slice(&ins[0].data);
                    out
                } else {
                    match block_weights.get(id) {
                        Some(w) => execute_op_with_weights_pooled(run_as, &ins, w, &pool),
                        None => execute_op_pooled(run_as, &ins, 0, &pool),
                    }
                }
            };
            let start_ns = tracer.now_ns();
            let mut samples = Vec::with_capacity(reps);
            let mut out = None;
            for _ in 0..reps {
                let start = Instant::now();
                let result = run();
                samples.push(start.elapsed().as_secs_f64());
                if let Some(previous) = out.replace(result) {
                    pool.recycle_tensor(previous);
                }
            }
            span(tracer, "kernel.op", start_ns, class_of(op) as u64);
            let class = &mut classes[class_of(op)];
            let seconds = crate::stats::median(&samples);
            let flops = graph.op_flops(id) as f64;
            class.seconds += seconds;
            class.flops += flops;
            class.roofline_s += ceiling.roofline_s(flops, graph.op_memory_bytes(id) as f64);
            outputs[id.index()] = out;
        }
        current = graph
            .outputs()
            .iter()
            .map(|v| match v {
                Value::Input(i) => current[*i].clone(),
                Value::Op(id) => outputs[id.index()].clone().expect("op ran"),
            })
            .collect();
    }
    let matches = same_bits(current.iter(), reference);
    (classes, matches)
}
