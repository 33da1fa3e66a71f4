//! Seeded inputs and arrival schedules. Everything a run sends is derived
//! from the workload seed alone, so the same seed replays the same
//! requests at the same offsets.

/// SplitMix64: a small, fast, well-mixed generator that is fully
/// determined by its seed.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    /// A generator for `seed`, decorrelated per `stream` so the arrival
    /// times, tenant labels and input seeds of one run do not share draws.
    #[must_use]
    pub fn new(seed: u64, stream: u64) -> Self {
        let mut rng = Rng(seed ^ stream.wrapping_mul(0xD1B5_4A32_D192_ED03));
        rng.next_u64();
        rng
    }

    /// The next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// A uniform draw from `[0, 1)`.
    pub fn next_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// A uniform draw from `0..n`.
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_f64() * n as f64) as usize
    }
}

const INPUT_STREAM: u64 = 1;
const ARRIVAL_STREAM: u64 = 2;
const LABEL_STREAM: u64 = 3;

/// Seeds of the `pool` distinct input tensors of a run.
#[must_use]
pub fn input_seeds(seed: u64, pool: usize) -> Vec<u64> {
    let mut rng = Rng::new(seed, INPUT_STREAM);
    let mut seeds: Vec<u64> = Vec::with_capacity(pool);
    while seeds.len() < pool {
        let s = rng.next_u64();
        if !seeds.contains(&s) {
            seeds.push(s);
        }
    }
    seeds
}

/// One request of an open-loop schedule.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Arrival {
    /// When the request is due, in seconds after the window opens.
    pub due_s: f64,
    /// Index into the run's input pool.
    pub input: usize,
    /// Index into the workload's tenant list.
    pub tenant: usize,
}

/// A Poisson arrival schedule of `rate` requests per second over
/// `seconds`, conditioned on its expected count: exactly
/// `round(rate * seconds)` arrivals at sorted uniform offsets, which is
/// the distribution of a Poisson process given that count. Fixing the
/// count keeps the offered load of every seed the same. Each request
/// draws its input from `pool` and its tenant in proportion to `shares`.
///
/// # Panics
///
/// Panics if `pool` is zero or `shares` is empty or sums to zero.
#[must_use]
pub fn open_schedule(
    seed: u64,
    rate: f64,
    seconds: f64,
    pool: usize,
    shares: &[u32],
) -> Vec<Arrival> {
    assert!(pool > 0, "an empty input pool");
    let total: u32 = shares.iter().sum();
    assert!(total > 0, "tenant shares must not all be zero");
    let count = (rate * seconds).round() as usize;
    let mut times = Rng::new(seed, ARRIVAL_STREAM);
    let mut offsets: Vec<f64> = (0..count).map(|_| times.next_f64() * seconds).collect();
    offsets.sort_by(|a, b| a.partial_cmp(b).expect("offsets are finite"));
    let mut labels = Rng::new(seed, LABEL_STREAM);
    offsets
        .into_iter()
        .map(|due_s| {
            let input = labels.below(pool);
            let mut ticket = labels.below(total as usize) as u32;
            let tenant = shares
                .iter()
                .position(|&share| {
                    let hit = ticket < share;
                    ticket = ticket.saturating_sub(share);
                    hit
                })
                .expect("ticket falls within the share total");
            Arrival {
                due_s,
                input,
                tenant,
            }
        })
        .collect()
}

/// The input-pool index of the `i`-th closed-loop request.
#[must_use]
pub fn closed_input(seed: u64, i: u64, pool: usize) -> usize {
    Rng::new(seed ^ i.wrapping_mul(0xA076_1D64_78BD_642F), LABEL_STREAM).below(pool)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_same_seed_gives_the_same_schedule_and_inputs() {
        let a = open_schedule(7, 6.0, 10.0, 8, &[3, 1]);
        let b = open_schedule(7, 6.0, 10.0, 8, &[3, 1]);
        assert_eq!(a, b);
        assert_eq!(input_seeds(7, 8), input_seeds(7, 8));
        let closed: Vec<usize> = (0..50).map(|i| closed_input(7, i, 8)).collect();
        let again: Vec<usize> = (0..50).map(|i| closed_input(7, i, 8)).collect();
        assert_eq!(closed, again);

        let other = open_schedule(8, 6.0, 10.0, 8, &[3, 1]);
        assert_ne!(a, other);
        assert_ne!(input_seeds(7, 8), input_seeds(8, 8));
    }

    #[test]
    fn schedule_has_the_fixed_count_in_order_within_the_window() {
        let s = open_schedule(11, 12.0, 10.0, 8, &[1]);
        assert_eq!(s.len(), 120);
        assert!(s.windows(2).all(|w| w[0].due_s <= w[1].due_s));
        assert!(s.iter().all(|a| (0.0..10.0).contains(&a.due_s)));
        assert!(s.iter().all(|a| a.input < 8 && a.tenant == 0));
        // All pool entries get used over a long schedule.
        let long = open_schedule(11, 100.0, 10.0, 8, &[1]);
        assert!((0..8).all(|i| long.iter().any(|a| a.input == i)));
    }

    #[test]
    fn tenant_labels_follow_the_shares() {
        let s = open_schedule(3, 400.0, 10.0, 4, &[3, 1]);
        let heavy = s.iter().filter(|a| a.tenant == 0).count() as f64;
        let share = heavy / s.len() as f64;
        assert!((share - 0.75).abs() < 0.03, "heavy share {share}");
    }

    #[test]
    fn input_seeds_are_distinct() {
        let seeds = input_seeds(5, 16);
        let mut unique = seeds.clone();
        unique.sort_unstable();
        unique.dedup();
        assert_eq!(unique.len(), 16);
    }
}
