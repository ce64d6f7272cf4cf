//! Machine reference probe: two fixed kernels that share no code with
//! the program, timed before and after every run.
//!
//! A memory chase (one dependent load per step through a random cycle
//! twice the size of a core's L2 cache) and an ALU chain (one dependent
//! multiply-add per step). Their wall-clock says which state the machine
//! was in during a run, so a set of runs taken on a slow machine state
//! shows as such. The probe never scales any metric.

use std::hint::black_box;
use std::time::Instant;

use crate::rng::splitmix64;

/// Chase-table entries (8 MiB of `u32`).
const CHASE_LEN: usize = 2 << 20;
/// Dependent loads per chase.
const CHASE_STEPS: usize = 1 << 20;
/// Dependent multiply-adds per ALU chain.
const ALU_STEPS: u64 = 10_000_000;

/// Runs both kernels once; returns their summed wall-clock in ms. The
/// chase table (one random cycle over all entries by Sattolo's
/// algorithm, from a fixed seed) is built untimed and freed on return,
/// so the probe adds nothing to the run's resident set afterwards.
pub fn reference_ms() -> f64 {
    let mut next: Vec<u32> = (0..CHASE_LEN as u32).collect();
    let mut state = 0x9E37_79B9_7F4A_7C15_u64;
    for i in (1..CHASE_LEN).rev() {
        state = splitmix64(state);
        let j = (state % i as u64) as usize;
        next.swap(i, j);
    }

    let t0 = Instant::now();
    let mut at = 0u32;
    for _ in 0..CHASE_STEPS {
        at = next[black_box(at) as usize];
    }
    black_box(at);
    let mut x = black_box(1u64);
    for _ in 0..ALU_STEPS {
        x = x
            .wrapping_mul(6_364_136_223_846_793_005)
            .wrapping_add(1_442_695_040_888_963_407);
    }
    black_box(x);
    t0.elapsed().as_secs_f64() * 1e3
}
