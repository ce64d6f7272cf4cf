//! The benchmark's own seeded randomness: every order, trace seed and
//! arrival time a run uses derives from `--seed` through these.

/// One step of the SplitMix64 generator.
pub fn splitmix64(state: u64) -> u64 {
    let mut z = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Advances `state` and returns a uniform value in `0..n` (`n > 0`).
pub fn below(state: &mut u64, n: usize) -> usize {
    *state = splitmix64(*state);
    (*state % n as u64) as usize
}

/// Advances `state` and returns a uniform value in `[0, 1)`.
pub fn unit(state: &mut u64) -> f64 {
    *state = splitmix64(*state);
    (*state >> 11) as f64 / (1u64 << 53) as f64
}

/// Shuffles `xs` in place (Fisher-Yates) from `state`.
pub fn shuffle<T>(xs: &mut [T], state: &mut u64) {
    for k in (1..xs.len()).rev() {
        xs.swap(k, below(state, k + 1));
    }
}
