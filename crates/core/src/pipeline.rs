//! Network-level pipeline planning.
//!
//! IOS (the dynamic program in [`crate::dp`]) exploits parallelism *within*
//! a block; blocks themselves are sequentially dependent, so a single
//! sample cannot run two blocks at once. A serving runtime, however, has
//! many samples in flight — and there, between-block parallelism across
//! batch instances is free capacity: partition the block sequence into
//! contiguous segments ([`SegmentPlan`]), give each segment a stage worker,
//! and stream samples through them so block `k` of sample `i + 1` overlaps
//! block `k + 1` of sample `i`.
//!
//! This module chooses those boundaries. The inputs are per-block latency
//! measurements from any [`CostModel`] — in production a
//! [`crate::ProfiledCostModel`] whose stage latencies were **measured on
//! the execution backend, under concurrent load** (an idle-machine profile
//! flatters long segments: serving neighbours steal cache and cores, which
//! the load-generating profiler reproduces). The planner runs the classic
//! contiguous-partition dynamic program (minimize the bottleneck segment)
//! for every admissible segment count, charges each hand-off its overhead,
//! and keeps the plan with the best predicted steady-state period:
//!
//! ```text
//! period(S) = max(bottleneck(S) + h, (total + S·h) / workers)
//! ```
//!
//! where `h` is the per-segment hand-off overhead. The single-segment plan
//! (flat execution) is always a candidate, so a host where pipelining
//! cannot win — one core, or a network dominated by one block — plans
//! itself back to flat execution.

use crate::cost_model::CostModel;
use crate::optimizer::{network_block_costs, NetworkSchedule};
use ios_ir::{Network, SegmentPlan};
use serde::{Deserialize, Serialize};

/// Per-segment hand-off overhead charged by the planner, in µs: one
/// channel send plus a worker wake-up on the measured hosts. Small against
/// any real block, but it breaks ties away from needlessly fine plans.
pub const SEGMENT_HANDOFF_US: f64 = 25.0;

/// A chosen pipeline: segment boundaries plus the measurements that chose
/// them and the predicted steady-state behaviour.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct PipelinePlan {
    /// The segment boundaries over the network's block list.
    pub segments: SegmentPlan,
    /// Measured latency of each block, in µs (the planner's input).
    pub block_costs_us: Vec<f64>,
    /// Latency of each segment (sum of its blocks), in µs.
    pub segment_costs_us: Vec<f64>,
    /// Worker budget the plan was chosen for (pipeline stage workers).
    pub workers: usize,
    /// Predicted steady-state per-sample period of the pipeline, in µs:
    /// `max(bottleneck + handoff, (total + segments·handoff) / workers)`.
    pub period_us: f64,
}

impl PipelinePlan {
    /// Builds the plan for an explicitly chosen segmentation (the planner
    /// normally picks one — this is the escape hatch for forced
    /// configurations and tests), deriving segment costs and the
    /// predicted period from the given per-block measurements.
    ///
    /// # Panics
    ///
    /// Panics if the segmentation does not cover `block_costs_us`.
    #[must_use]
    pub fn for_segments(block_costs_us: Vec<f64>, segments: SegmentPlan, workers: usize) -> Self {
        assert_eq!(
            segments.num_blocks(),
            block_costs_us.len(),
            "segment plan and block-cost counts differ"
        );
        let workers = workers.max(1);
        let segment_costs_us = segment_costs(&segments, &block_costs_us);
        let total: f64 = block_costs_us.iter().sum();
        let s = segments.num_segments();
        let handoff = if s > 1 { SEGMENT_HANDOFF_US } else { 0.0 };
        let bottleneck = segment_costs_us.iter().fold(0.0f64, |a, &b| a.max(b));
        let period_us = (bottleneck + handoff).max((total + s as f64 * handoff) / workers as f64);
        PipelinePlan {
            segments,
            block_costs_us,
            segment_costs_us,
            workers,
            period_us,
        }
    }

    /// Latency of the slowest segment, in µs.
    #[must_use]
    pub fn bottleneck_us(&self) -> f64 {
        self.segment_costs_us.iter().fold(0.0, |a, &b| a.max(b))
    }

    /// Sum of all block latencies (one sample, flat execution), in µs.
    #[must_use]
    pub fn total_us(&self) -> f64 {
        self.block_costs_us.iter().sum()
    }

    /// Predicted per-sample wall time of **flat batched** execution at
    /// `batch` with this plan's full worker budget —
    /// [`PipelinePlan::flat_us_per_sample_with`] at `workers`.
    #[must_use]
    pub fn flat_us_per_sample(&self, batch: usize) -> f64 {
        self.flat_us_per_sample_with(batch, self.workers)
    }

    /// Predicted per-sample wall time of **flat batched** execution at
    /// `batch` over `flat_workers` sample workers: samples fan out
    /// one-per-worker, so a batch that does not divide the worker count
    /// pays a straggler round (`ceil(batch / flat_workers)` rounds of the
    /// full per-sample latency). A serving engine whose flat executor is
    /// capped below the host's cores (it splits them across dispatch
    /// workers) passes its actual cap here.
    #[must_use]
    pub fn flat_us_per_sample_with(&self, batch: usize, flat_workers: usize) -> f64 {
        if batch == 0 {
            return 0.0;
        }
        let effective = flat_workers.max(1).min(batch);
        let rounds = batch.div_ceil(effective);
        rounds as f64 * self.total_us() / batch as f64
    }

    /// Whether the pipeline is predicted to out-serve flat batched
    /// execution at this batch size (with a 5 % margin — prediction noise
    /// must not flap the execution mode). A flat (single-segment) plan
    /// never prefers the pipeline.
    #[must_use]
    pub fn prefers_pipeline(&self, batch: usize) -> bool {
        self.prefers_pipeline_vs(batch, self.workers)
    }

    /// [`PipelinePlan::prefers_pipeline`] against a flat path capped at
    /// `flat_workers` sample workers — the comparison a serving engine
    /// makes, since its flat executor runs with the per-batch worker cap
    /// it was configured with, not the whole host.
    #[must_use]
    pub fn prefers_pipeline_vs(&self, batch: usize, flat_workers: usize) -> bool {
        !self.segments.is_flat()
            && batch >= 2
            && self.period_us * 1.05 < self.flat_us_per_sample_with(batch, flat_workers)
    }

    /// Predicted steady-state speedup of pipelined over flat batched
    /// execution at `batch` (> 1 means the pipeline wins).
    #[must_use]
    pub fn predicted_speedup(&self, batch: usize) -> f64 {
        if self.period_us <= 0.0 {
            return 1.0;
        }
        self.flat_us_per_sample(batch) / self.period_us
    }
}

/// The segment costs a plan implies for the given block costs.
fn segment_costs(plan: &SegmentPlan, block_costs: &[f64]) -> Vec<f64> {
    plan.segments()
        .map(|range| block_costs[range].iter().sum())
        .collect()
}

/// The contiguous partition of `block_costs` into exactly `segments`
/// parts that minimizes the bottleneck (maximum segment sum) — the
/// linear-partition dynamic program.
fn best_partition(block_costs: &[f64], segments: usize) -> SegmentPlan {
    let n = block_costs.len();
    let s = segments.clamp(1, n);
    // prefix[i] = sum of the first i costs.
    let mut prefix = vec![0.0f64; n + 1];
    for (i, &c) in block_costs.iter().enumerate() {
        prefix[i + 1] = prefix[i] + c;
    }
    let sum = |a: usize, b: usize| prefix[b] - prefix[a];
    // dp[k][i]: minimal bottleneck splitting the first i blocks into k+1
    // segments; cut[k][i]: the start of the last segment in that optimum.
    let mut dp = vec![vec![f64::INFINITY; n + 1]; s];
    let mut cut = vec![vec![0usize; n + 1]; s];
    for (i, slot) in dp[0].iter_mut().enumerate().skip(1) {
        *slot = sum(0, i);
    }
    for k in 1..s {
        for i in (k + 1)..=n {
            for j in k..i {
                let candidate = dp[k - 1][j].max(sum(j, i));
                if candidate < dp[k][i] {
                    dp[k][i] = candidate;
                    cut[k][i] = j;
                }
            }
        }
    }
    let mut starts = vec![0usize; s];
    let mut end = n;
    for k in (1..s).rev() {
        starts[k] = cut[k][end];
        end = starts[k];
    }
    SegmentPlan::from_starts(n, starts).expect("partition DP produces valid boundaries")
}

/// Chooses pipeline segment boundaries for `network` executing under
/// `schedule`, measuring each block with `cost_model` and optimizing the
/// predicted steady-state period for `workers` stage workers.
///
/// The plan has at most `2 × workers` segments — finer than the worker
/// count so the bottleneck can be split below `total / workers`, but not
/// so fine that hand-off overhead dominates.
///
/// The network and schedule should be the **per-sample (batch-1)**
/// instances: the pipeline executes one sample per job, whatever the
/// serving batch size.
///
/// # Panics
///
/// Panics if the network has no blocks or the schedule does not match it.
#[must_use]
pub fn plan_pipeline<C: CostModel>(
    network: &Network,
    schedule: &NetworkSchedule,
    cost_model: &C,
    workers: usize,
) -> PipelinePlan {
    assert!(!network.blocks.is_empty(), "cannot plan an empty network");
    let workers = workers.max(1);
    let block_costs = network_block_costs(network, schedule, cost_model);
    let limit = (2 * workers).min(network.blocks.len());

    let mut best: Option<PipelinePlan> = None;
    for s in 1..=limit {
        let segments = best_partition(&block_costs, s);
        let candidate = PipelinePlan::for_segments(block_costs.clone(), segments, workers);
        // Strict improvement required: ties keep the coarser plan.
        if best
            .as_ref()
            .is_none_or(|b| candidate.period_us < b.period_us)
        {
            best = Some(candidate);
        }
    }
    best.expect("at least the flat plan is admissible")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cost_model::testing::UnitCostModel;
    use crate::optimizer::sequential_network_schedule;
    use ios_ir::{Block, Conv2dParams, GraphBuilder, TensorShape};

    /// A network of `per_block_ops`-op chain blocks; with the unit cost
    /// model every block costs the same, so partitions are predictable.
    fn chain_network(blocks: usize, per_block_ops: &[usize]) -> Network {
        let mut shape = TensorShape::new(1, 4, 8, 8);
        let input = shape;
        let mut out = Vec::new();
        for b in 0..blocks {
            let ops = per_block_ops[b % per_block_ops.len()];
            let mut g = GraphBuilder::new(format!("chain_b{b}"), shape);
            let mut v = g.input(0);
            for i in 0..ops {
                v = g.conv2d(
                    format!("b{b}_conv{i}"),
                    v,
                    Conv2dParams::relu(4, (3, 3), (1, 1), (1, 1)),
                );
            }
            let block = Block::new(g.build(vec![v]));
            shape = block.graph.output_shapes()[0];
            out.push(block);
        }
        Network::new("chain", input, out)
    }

    #[test]
    fn one_worker_plans_flat() {
        let net = chain_network(6, &[2]);
        let cost = UnitCostModel::default();
        let schedule = sequential_network_schedule(&net, &cost);
        let plan = plan_pipeline(&net, &schedule, &cost, 1);
        assert!(
            plan.segments.is_flat(),
            "one core cannot pipeline: {plan:?}"
        );
        assert!(!plan.prefers_pipeline(8));
        assert!((plan.period_us - plan.total_us()).abs() < 1e-9);
    }

    #[test]
    fn uniform_blocks_split_evenly_across_workers() {
        let net = chain_network(8, &[2]);
        // Realistically heavy blocks (≈ 1 ms each): the hand-off overhead
        // must not be what decides the comparison.
        let cost = UnitCostModel {
            base_us: 500.0,
            ..UnitCostModel::default()
        };
        let schedule = sequential_network_schedule(&net, &cost);
        let plan = plan_pipeline(&net, &schedule, &cost, 4);
        assert_eq!(plan.block_costs_us.len(), 8);
        assert!(
            plan.segments.num_segments() > 1,
            "four workers must pipeline eight uniform blocks: {plan:?}"
        );
        // Balanced segments: bottleneck close to total / segments.
        let ideal = plan.total_us() / plan.segments.num_segments() as f64;
        assert!(plan.bottleneck_us() <= ideal * 2.0 + 1e-9);
        // An odd batch on four workers leaves flat execution a straggler
        // round; the steady-state pipeline is predicted to win.
        assert!(plan.prefers_pipeline(5), "plan: {plan:?}");
        assert!(plan.predicted_speedup(5) > 1.05);
    }

    #[test]
    fn dominant_block_bounds_the_bottleneck() {
        // One block is 10x the rest: the partition must isolate it.
        let net = chain_network(5, &[1, 1, 10, 1, 1]);
        let cost = UnitCostModel::default();
        let schedule = sequential_network_schedule(&net, &cost);
        let plan = plan_pipeline(&net, &schedule, &cost, 4);
        let dominant = plan.block_costs_us[2];
        assert!(
            plan.bottleneck_us() < dominant * 1.5,
            "the dominant block must not share a segment with heavy neighbours: {plan:?}"
        );
        let segment = plan.segments.segment_of(2).unwrap();
        let range = plan.segments.segment(segment);
        assert!(range.len() <= 3, "dominant block segment stays small");
    }

    #[test]
    fn flat_prediction_models_the_straggler_round() {
        let net = chain_network(4, &[2]);
        let cost = UnitCostModel::default();
        let schedule = sequential_network_schedule(&net, &cost);
        let plan = plan_pipeline(&net, &schedule, &cost, 4);
        let total = plan.total_us();
        // batch 4 on 4 workers: one round.
        assert!((plan.flat_us_per_sample(4) - total / 4.0).abs() < 1e-9);
        // batch 5 on 4 workers: two rounds for five samples.
        assert!((plan.flat_us_per_sample(5) - 2.0 * total / 5.0).abs() < 1e-9);
        // batch below the worker count: every sample gets a worker.
        assert!((plan.flat_us_per_sample(2) - total / 2.0).abs() < 1e-9);
        assert!(!plan.prefers_pipeline(0));
        assert!(!plan.prefers_pipeline(1), "a lone sample cannot overlap");
    }

    #[test]
    fn capped_flat_path_tilts_the_comparison_toward_the_pipeline() {
        // A serving engine's flat executor may be capped below the host's
        // cores (it splits them across dispatch workers); the decision
        // must compare against that capped flat path, not the whole host.
        let net = chain_network(8, &[2]);
        let cost = UnitCostModel {
            base_us: 500.0,
            ..UnitCostModel::default()
        };
        let schedule = sequential_network_schedule(&net, &cost);
        let plan = plan_pipeline(&net, &schedule, &cost, 8);
        // Batch 8 over 8 flat workers is one perfect round: the pipeline
        // cannot beat it.
        assert!(!plan.prefers_pipeline(8), "plan: {plan:?}");
        // The same batch over a flat path capped at 2 workers pays 4
        // serial rounds: the pipeline wins easily.
        assert!(plan.prefers_pipeline_vs(8, 2));
        assert!(
            plan.flat_us_per_sample_with(8, 2) > plan.flat_us_per_sample(8) * 3.9,
            "the capped flat path is ~4x slower per sample"
        );
    }
}
