//! Fault plans, chaos profiles and the seeded RNG.
//!
//! All randomness in the harness flows from [`SplitMix64`] streams seeded
//! by the run's `u64` seed, so a run is exactly as reproducible as its
//! scheduling model allows: bit-for-bit in deterministic mode, best-effort
//! in stress mode.

/// The SplitMix64 generator (Steele, Lea & Flood): tiny, seedable, and
/// with a well-mixed single-word state — the whole harness draws from it.
#[derive(Debug, Clone)]
pub struct SplitMix64 {
    state: u64,
}

impl SplitMix64 {
    /// A stream seeded by `seed`.
    pub fn new(seed: u64) -> Self {
        SplitMix64 { state: seed }
    }

    /// A sub-stream for worker `index`, decorrelated from its siblings.
    pub fn for_worker(seed: u64, index: usize) -> Self {
        let mut base = SplitMix64::new(seed ^ 0x9E37_79B9_7F4A_7C15u64.rotate_left(index as u32));
        base.next_u64(); // warm up past small seeds
        base
    }

    /// The next 64 uniformly distributed bits.
    pub fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// A uniform index in `0..bound` (`bound > 0`).
    pub fn index(&mut self, bound: usize) -> usize {
        (self.next_u64() % bound as u64) as usize
    }

    /// A biased coin: true with probability `p_256 / 256`.
    pub fn chance(&mut self, p_256: u8) -> bool {
        (self.next_u64() & 0xFF) < u64::from(p_256)
    }
}

/// Per-site fault probabilities (in 1/256 units) and magnitudes.
///
/// Which knobs matter depends on the scheduling model: in deterministic
/// (token-passing) mode only the scheduling knobs (`switch_prob`,
/// starvation) and the semantic faults (`cas_fail_prob`, `abandon_prob`)
/// have any effect, because exactly one thread runs at a time and delays
/// cannot change the interleaving. Stress mode uses all of them.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FaultPlan {
    /// P(switch to another thread) at each instrumented point
    /// (deterministic mode).
    pub switch_prob: u8,
    /// P(inject a delay) at each instrumented point (stress mode).
    pub delay_prob: u8,
    /// Upper bound on an injected delay, in `spin_loop` hints.
    pub max_delay_spins: u32,
    /// P(yield the CPU) at each instrumented point (stress mode) —
    /// simulated preemption.
    pub yield_prob: u8,
    /// P(an instrumented CAS is forced to act as spuriously failed).
    pub cas_fail_prob: u8,
    /// P(a worker abandons mid-operation, leaving a pending invocation
    /// and never running another op), evaluated once per operation.
    pub abandon_prob: u8,
    /// Starve the highest-indexed worker: in deterministic mode it is
    /// picked with reduced probability; in stress mode its delays are
    /// eight times longer.
    pub starve_last: bool,
}

/// Named fault-plan presets, selectable as `--chaos <profile>`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Profile {
    /// Scheduling noise only: switches and delays, no semantic faults.
    Light,
    /// Everything on: frequent switches, spurious CAS failures, and
    /// mid-operation abandonment.
    Heavy,
    /// Biased scheduling: one worker is starved of CPU while the others
    /// hammer the object.
    Starvation,
}

impl Profile {
    /// Every profile, in CLI order.
    pub const ALL: [Profile; 3] = [Profile::Light, Profile::Heavy, Profile::Starvation];

    /// The fault plan this profile stands for.
    pub fn plan(self) -> FaultPlan {
        match self {
            Profile::Light => FaultPlan {
                switch_prob: 96,
                delay_prob: 48,
                max_delay_spins: 64,
                yield_prob: 24,
                cas_fail_prob: 0,
                abandon_prob: 0,
                starve_last: false,
            },
            Profile::Heavy => FaultPlan {
                switch_prob: 144,
                delay_prob: 96,
                max_delay_spins: 256,
                yield_prob: 48,
                cas_fail_prob: 48,
                abandon_prob: 16,
                starve_last: false,
            },
            Profile::Starvation => FaultPlan {
                switch_prob: 128,
                delay_prob: 64,
                max_delay_spins: 128,
                yield_prob: 32,
                cas_fail_prob: 16,
                abandon_prob: 8,
                starve_last: true,
            },
        }
    }

    /// The profile's CLI name.
    pub fn name(self) -> &'static str {
        match self {
            Profile::Light => "light",
            Profile::Heavy => "heavy",
            Profile::Starvation => "starvation",
        }
    }

    /// Parses a CLI profile name.
    pub fn parse(s: &str) -> Option<Self> {
        Profile::ALL.into_iter().find(|p| p.name() == s)
    }
}

impl std::fmt::Display for Profile {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_stream() {
        let mut a = SplitMix64::new(42);
        let mut b = SplitMix64::new(42);
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn worker_streams_decorrelate() {
        let mut w0 = SplitMix64::for_worker(7, 0);
        let mut w1 = SplitMix64::for_worker(7, 1);
        let same = (0..64).filter(|_| w0.next_u64() == w1.next_u64()).count();
        assert_eq!(same, 0);
    }

    #[test]
    fn chance_extremes() {
        let mut r = SplitMix64::new(1);
        assert!((0..100).all(|_| !r.chance(0)));
        // p = 255/256 can miss, but not 100 times in a row.
        assert!((0..100).any(|_| r.chance(255)));
    }

    #[test]
    fn profiles_parse_round_trip() {
        for p in Profile::ALL {
            assert_eq!(Profile::parse(p.name()), Some(p));
        }
        assert_eq!(Profile::parse("nope"), None);
    }

    #[test]
    fn heavy_enables_semantic_faults() {
        let plan = Profile::Heavy.plan();
        assert!(plan.cas_fail_prob > 0 && plan.abandon_prob > 0);
        assert_eq!(Profile::Light.plan().cas_fail_prob, 0);
    }
}
