//! Deterministic random-number streams.
//!
//! Every stochastic element of the simulation (clock skew, scene sampling
//! jitter, …) draws from a [`DetRng`] derived from a single root seed, so a
//! whole experiment replays identically from `(seed, config)`. Independent
//! subsystems take *derived* streams ([`DetRng::derive`]) keyed by a label,
//! which keeps their draws decoupled: adding a draw in one subsystem does
//! not shift the sequence seen by another.

use rand::rngs::StdRng;
use rand::{Rng, RngCore, SeedableRng};

/// A deterministic, seedable random number generator stream.
///
/// # Examples
///
/// ```
/// use des::rng::DetRng;
///
/// let mut a = DetRng::new(42);
/// let mut b = DetRng::new(42);
/// assert_eq!(a.next_u64(), b.next_u64());
///
/// // Derived streams are decoupled from the parent and from each other.
/// let mut clock = DetRng::new(42).derive("clock-skew");
/// let mut scene = DetRng::new(42).derive("scene");
/// assert_ne!(clock.next_u64(), scene.next_u64());
/// ```
#[derive(Debug, Clone)]
pub struct DetRng {
    seed: u64,
    inner: StdRng,
}

impl DetRng {
    /// Creates a stream from a root seed.
    pub fn new(seed: u64) -> Self {
        DetRng {
            seed,
            inner: StdRng::seed_from_u64(seed),
        }
    }

    /// Returns the seed this stream was created from.
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// Derives an independent child stream keyed by `label`.
    ///
    /// The child seed is a stable hash of `(parent seed, label)`; the same
    /// parent and label always produce the same child stream.
    pub fn derive(&self, label: &str) -> DetRng {
        DetRng::new(mix(self.seed, label))
    }

    /// Derives an independent child stream keyed by a numeric index, e.g.
    /// a node id.
    pub fn derive_indexed(&self, label: &str, index: u64) -> DetRng {
        DetRng::new(mix(self.seed, label).wrapping_add(index.wrapping_mul(0x9E37_79B9_7F4A_7C15)))
    }

    /// Draws a uniform `u64`.
    pub fn next_u64(&mut self) -> u64 {
        self.inner.next_u64()
    }

    /// Draws a uniform value in `[0, 1)`.
    pub fn uniform(&mut self) -> f64 {
        self.inner.gen::<f64>()
    }

    /// Draws a uniform value in `[lo, hi)`.
    ///
    /// # Panics
    ///
    /// Panics if `lo >= hi`.
    pub fn uniform_range(&mut self, lo: f64, hi: f64) -> f64 {
        assert!(lo < hi, "empty uniform range");
        lo + (hi - lo) * self.uniform()
    }

    /// Draws a uniform integer in `[lo, hi)`.
    ///
    /// # Panics
    ///
    /// Panics if `lo >= hi`.
    pub fn uniform_u64(&mut self, lo: u64, hi: u64) -> u64 {
        assert!(lo < hi, "empty uniform range");
        self.inner.gen_range(lo..hi)
    }

    /// Draws from a symmetric range `[-bound, bound]`.
    pub fn symmetric(&mut self, bound: f64) -> f64 {
        self.uniform_range(-bound, bound.max(f64::MIN_POSITIVE))
    }

    /// Draws a standard-normal variate via Box–Muller.
    pub fn normal(&mut self) -> f64 {
        let u1: f64 = self.uniform().max(f64::MIN_POSITIVE);
        let u2: f64 = self.uniform();
        (-2.0 * u1.ln()).sqrt() * (std::f64::consts::TAU * u2).cos()
    }
}

/// Stable 64-bit mix of a seed and a label (FNV-1a over the label, folded
/// with the seed). Not cryptographic; just well-spread and stable across
/// platforms and compiler versions.
fn mix(seed: u64, label: &str) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325 ^ seed;
    for b in label.bytes() {
        h ^= b as u64;
        h = h.wrapping_mul(0x100_0000_01b3);
    }
    // Final avalanche (splitmix64 finalizer).
    h ^= h >> 30;
    h = h.wrapping_mul(0xbf58_476d_1ce4_e5b9);
    h ^= h >> 27;
    h = h.wrapping_mul(0x94d0_49bb_1331_11eb);
    h ^ (h >> 31)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_stream() {
        let mut a = DetRng::new(7);
        let mut b = DetRng::new(7);
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn different_seeds_differ() {
        let mut a = DetRng::new(1);
        let mut b = DetRng::new(2);
        // Overwhelmingly unlikely to collide on the first draw.
        assert_ne!(a.next_u64(), b.next_u64());
    }

    #[test]
    fn derivation_is_stable_and_label_sensitive() {
        let root = DetRng::new(99);
        assert_eq!(root.derive("x").seed(), root.derive("x").seed());
        assert_ne!(root.derive("x").seed(), root.derive("y").seed());
        assert_ne!(
            root.derive_indexed("node", 0).seed(),
            root.derive_indexed("node", 1).seed()
        );
    }

    #[test]
    fn uniform_in_range() {
        let mut r = DetRng::new(3);
        for _ in 0..1000 {
            let v = r.uniform_range(2.0, 5.0);
            assert!((2.0..5.0).contains(&v));
            let i = r.uniform_u64(10, 20);
            assert!((10..20).contains(&i));
        }
    }

    #[test]
    fn normal_has_sane_moments() {
        let mut r = DetRng::new(11);
        let n = 20_000;
        let samples: Vec<f64> = (0..n).map(|_| r.normal()).collect();
        let mean = samples.iter().sum::<f64>() / n as f64;
        let var = samples.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / n as f64;
        assert!(mean.abs() < 0.05, "mean {mean}");
        assert!((var - 1.0).abs() < 0.1, "var {var}");
    }

    #[test]
    #[should_panic(expected = "empty uniform range")]
    fn empty_range_panics() {
        DetRng::new(0).uniform_range(1.0, 1.0);
    }
}
