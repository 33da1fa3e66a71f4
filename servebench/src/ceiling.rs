//! The host's compute and bandwidth ceilings, measured on one core: a
//! multiply-then-add throughput loop at the ISA the backend's kernels
//! dispatch to (separate `mul` and `add`, never FMA, as the bit-exact
//! kernels compute), and a STREAM-style triad over arrays far larger
//! than the caches. Kernel classes are reported against the roofline of
//! these two numbers.

use ios_backend::simd::{active_isa, Isa};
use std::hint::black_box;
use std::time::Instant;

/// Measured single-core ceilings.
#[derive(Debug, Clone, Copy)]
pub struct Ceiling {
    /// The ISA the compute loop ran at.
    pub isa: Isa,
    /// Multiply + add throughput, GFLOP/s.
    pub gflops: f64,
    /// Triad bandwidth (bytes read and written), GB/s.
    pub gbs: f64,
}

impl Ceiling {
    /// Seconds an operation of `flops` and `bytes` needs at best under
    /// the roofline of this host.
    #[must_use]
    pub fn roofline_s(&self, flops: f64, bytes: f64) -> f64 {
        (flops / (self.gflops * 1e9)).max(bytes / (self.gbs * 1e9))
    }
}

/// Independent accumulators: enough to cover the multiply and add
/// latencies on two ports.
const CHAINS: usize = 12;
/// Loop trips per timed compute call.
const TRIPS: usize = 10_000_000;
/// Elements per triad array (3 arrays of 32 MiB).
const TRIAD_LEN: usize = 8 << 20;

/// Measures both ceilings, keeping the best of `repeats` timings of each.
#[must_use]
pub fn measure(repeats: usize) -> Ceiling {
    let isa = active_isa();
    let gflops = (0..repeats)
        .map(|_| compute_gflops(isa))
        .fold(0.0, f64::max);
    let mut a = vec![0.0f32; TRIAD_LEN];
    let b = vec![1.0f32; TRIAD_LEN];
    let c = vec![2.0f32; TRIAD_LEN];
    let gbs = (0..repeats)
        .map(|_| triad_gbs(&mut a, &b, &c))
        .fold(0.0, f64::max);
    Ceiling { isa, gflops, gbs }
}

fn compute_gflops(isa: Isa) -> f64 {
    let start = Instant::now();
    let lanes = match isa {
        #[cfg(target_arch = "x86_64")]
        // SAFETY: `active_isa` only selects AVX2 when the CPU reports it.
        Isa::Avx2 => unsafe { x86::mul_add_avx2(TRIPS) },
        #[cfg(target_arch = "x86_64")]
        // SAFETY: SSE2 is part of the x86_64 baseline.
        Isa::Sse2 => unsafe { x86::mul_add_sse2(TRIPS) },
        _ => mul_add_scalar(TRIPS),
    };
    let elapsed = start.elapsed().as_secs_f64();
    // One multiply and one add per lane, per chain, per trip.
    (2 * CHAINS * lanes * TRIPS) as f64 / elapsed / 1e9
}

fn mul_add_scalar(trips: usize) -> usize {
    let mut acc = [1.0f32; CHAINS];
    let (m, k) = (black_box(0.999_999f32), black_box(1e-6f32));
    for _ in 0..trips {
        for a in &mut acc {
            *a = *a * m + k;
        }
    }
    black_box(acc);
    1
}

#[cfg(target_arch = "x86_64")]
mod x86 {
    use super::CHAINS;
    use std::arch::x86_64::*;
    use std::hint::black_box;

    /// Returns the lane count.
    ///
    /// # Safety
    ///
    /// The CPU must support AVX2.
    #[target_feature(enable = "avx2")]
    pub unsafe fn mul_add_avx2(trips: usize) -> usize {
        let m = _mm256_set1_ps(black_box(0.999_999));
        let k = _mm256_set1_ps(black_box(1e-6));
        let mut acc = [_mm256_set1_ps(1.0); CHAINS];
        for _ in 0..trips {
            for a in &mut acc {
                *a = _mm256_add_ps(_mm256_mul_ps(*a, m), k);
            }
        }
        black_box(acc);
        8
    }

    /// Returns the lane count.
    ///
    /// # Safety
    ///
    /// The CPU must support SSE2 (every x86_64 CPU does).
    #[target_feature(enable = "sse2")]
    pub unsafe fn mul_add_sse2(trips: usize) -> usize {
        let m = _mm_set1_ps(black_box(0.999_999));
        let k = _mm_set1_ps(black_box(1e-6));
        let mut acc = [_mm_set1_ps(1.0); CHAINS];
        for _ in 0..trips {
            for a in &mut acc {
                *a = _mm_add_ps(_mm_mul_ps(*a, m), k);
            }
        }
        black_box(acc);
        4
    }
}

fn triad_gbs(a: &mut [f32], b: &[f32], c: &[f32]) -> f64 {
    let s = black_box(3.0f32);
    let start = Instant::now();
    for ((a, &b), &c) in a.iter_mut().zip(b).zip(c) {
        *a = b + s * c;
    }
    black_box(&mut *a);
    let elapsed = start.elapsed().as_secs_f64();
    (3 * std::mem::size_of::<f32>() * a.len()) as f64 / elapsed / 1e9
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roofline_takes_the_slower_bound() {
        let c = Ceiling {
            isa: Isa::Scalar,
            gflops: 10.0,
            gbs: 5.0,
        };
        // Compute-bound: 1e9 flops over few bytes.
        assert!((c.roofline_s(1e9, 1e3) - 0.1).abs() < 1e-12);
        // Memory-bound: few flops over 1e9 bytes.
        assert!((c.roofline_s(1e3, 1e9) - 0.2).abs() < 1e-12);
    }
}
