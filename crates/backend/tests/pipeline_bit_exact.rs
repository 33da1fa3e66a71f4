//! Property tests pinning down the cross-block pipeline's bit-exactness:
//! for random multi-block networks (RandWire-style random DAG blocks with
//! random wiring, branch counts and channel widths), random batch sizes
//! 1–8 and every kind of segment split — the degenerate single-segment
//! plan, the one-segment-per-block plan, and random interior boundaries —
//! pipelined execution must be **bit-identical** (`assert_eq!`, no
//! tolerances) to flat batched execution and to per-sample solo runs,
//! with and without an IOS schedule.

use ios_backend::{
    execute_network, execute_network_batched_capped, execute_network_pipelined, split_batch,
    stack_batch, NetworkWeights, ScratchPool, TensorData,
};
use ios_core::{optimize_network, SchedulerConfig, SimCostModel};
use ios_ir::{
    Block, Conv2dParams, GraphBuilder, Network, PoolParams, SegmentPlan, TensorShape, Value,
};
use ios_sim::{DeviceKind, Simulator};
use proptest::prelude::*;

/// Per-operator recipe of a random block, packed into one byte: the low
/// bits pick the operator kind and which earlier value feeds it, the high
/// bits the channel width — so the generated DAGs are randomly wired like
/// a RandWire stage (every op reads a random predecessor; sinks are
/// aggregated at the end).
type OpSpec = u8;

/// Builds one random block from its recipe. All generated operators
/// preserve the spatial extent, so any pair of values stays concatenable
/// regardless of wiring.
fn random_block(name: &str, input_shapes: Vec<TensorShape>, spec: &[OpSpec]) -> Block {
    let mut b = GraphBuilder::with_inputs(name, input_shapes.clone());
    let mut values: Vec<Value> = (0..input_shapes.len()).map(|i| b.input(i)).collect();
    let mut used = vec![false; values.len()];
    for (i, &byte) in spec.iter().enumerate() {
        let source_index = (byte >> 2) as usize % values.len();
        let source = values[source_index];
        used[source_index] = true;
        let channels = 2 + (byte >> 4) as usize % 5;
        let value = match byte % 3 {
            0 => b.conv2d(
                format!("{name}_conv3_{i}"),
                source,
                Conv2dParams::relu(channels, (3, 3), (1, 1), (1, 1)),
            ),
            1 => b.conv2d(
                format!("{name}_conv1_{i}"),
                source,
                Conv2dParams::plain(channels, (1, 1), (1, 1), (0, 0)),
            ),
            _ => b.pool(
                format!("{name}_pool_{i}"),
                source,
                PoolParams::max((3, 3), (1, 1), (1, 1)),
            ),
        };
        values.push(value);
        used.push(false);
    }
    // Aggregate the sinks (values nothing consumed) into the block output,
    // like a RandWire stage aggregates its sink nodes.
    let sinks: Vec<Value> = values
        .iter()
        .zip(&used)
        .filter(|(_, used)| !**used)
        .map(|(v, _)| *v)
        .collect();
    let out = if sinks.len() > 1 {
        b.concat(format!("{name}_out"), &sinks)
    } else {
        sinks[0]
    };
    Block::new(b.build(vec![out]))
}

/// Chains random blocks into a network (block `i + 1` consumes block `i`'s
/// output).
fn random_network(block_specs: &[Vec<OpSpec>]) -> Network {
    let input = TensorShape::new(1, 4, 6, 6);
    let mut shapes = vec![input];
    let mut blocks = Vec::new();
    for (i, spec) in block_specs.iter().enumerate() {
        let block = random_block(&format!("prop_pipe_b{i}"), shapes, spec);
        shapes = block.graph.output_shapes();
        blocks.push(block);
    }
    Network::new("prop_pipe", input, blocks)
}

/// Every segment plan exercised for a network: the two degenerate plans
/// plus one derived from the random cut mask.
fn plans_under_test(num_blocks: usize, cut_mask: u8) -> Vec<SegmentPlan> {
    let mut starts = vec![0usize];
    for block in 1..num_blocks {
        if cut_mask & (1 << (block - 1)) != 0 {
            starts.push(block);
        }
    }
    vec![
        SegmentPlan::single(num_blocks),
        SegmentPlan::per_block(num_blocks),
        SegmentPlan::from_starts(num_blocks, starts).expect("cut mask yields valid starts"),
    ]
}

fn block_specs_strategy() -> impl Strategy<Value = Vec<Vec<OpSpec>>> {
    collection::vec(collection::vec(any::<u8>(), 1..4), 2..5)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(10))]

    #[test]
    fn pipelined_execution_is_bit_identical_for_any_split(
        specs in block_specs_strategy(),
        batch in 1usize..9,
        cut_mask in any::<u8>(),
        seed in any::<u64>(),
    ) {
        let net = random_network(&specs);
        let weights = NetworkWeights::precompute(&net);
        let samples: Vec<TensorData> = (0..batch)
            .map(|i| TensorData::random(net.input_shape, seed.wrapping_add(i as u64)))
            .collect();
        let refs: Vec<&TensorData> = samples.iter().collect();
        let stacked = stack_batch(&refs);

        let arena = ScratchPool::new();
        let flat = execute_network_batched_capped(
            &net, None, &weights, std::slice::from_ref(&stacked), &arena, usize::MAX);
        for plan in plans_under_test(net.blocks.len(), cut_mask) {
            let piped = execute_network_pipelined(&net, None, &weights, std::slice::from_ref(&stacked), &plan);
            prop_assert_eq!(
                &piped, &flat,
                "plan {} diverged from flat batched execution", plan
            );
        }

        // Flat batched (and therefore every pipelined run) matches solo
        // per-sample execution bit for bit.
        let per_output: Vec<Vec<TensorData>> = flat.iter().map(split_batch).collect();
        for (i, sample) in samples.iter().enumerate() {
            let solo = execute_network(&net, std::slice::from_ref(sample));
            for (o, solo_out) in solo.iter().enumerate() {
                prop_assert_eq!(&per_output[o][i], solo_out);
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    #[test]
    fn pipelined_execution_is_bit_identical_under_ios_schedules(
        specs in block_specs_strategy(),
        batch in 1usize..5,
        cut_mask in any::<u8>(),
        seed in any::<u64>(),
    ) {
        let net = random_network(&specs);
        let cost = SimCostModel::new(Simulator::new(DeviceKind::TeslaV100));
        let schedule =
            optimize_network(&net, &cost, &SchedulerConfig::paper_default()).schedule;
        let weights = NetworkWeights::precompute(&net);
        let samples: Vec<TensorData> = (0..batch)
            .map(|i| TensorData::random(net.input_shape, seed.wrapping_add(i as u64)))
            .collect();
        let refs: Vec<&TensorData> = samples.iter().collect();
        let stacked = stack_batch(&refs);

        let arena = ScratchPool::new();
        let flat = execute_network_batched_capped(
            &net,
            Some(&schedule),
            &weights,
            std::slice::from_ref(&stacked),
            &arena,
            usize::MAX,
        );
        for plan in plans_under_test(net.blocks.len(), cut_mask) {
            let piped = execute_network_pipelined(
                &net,
                Some(&schedule),
                &weights,
                std::slice::from_ref(&stacked),
                &plan,
            );
            prop_assert_eq!(
                &piped, &flat,
                "scheduled plan {} diverged from flat batched execution", plan
            );
        }
    }
}
