//! Incremental FNV-1a digesting.
//!
//! The workspace's determinism checks compare 64-bit FNV-1a digests of
//! event traces (golden files, sweep artifacts, CI drift checks). This
//! module is the single implementation: an incremental hasher that can
//! digest a stream record-by-record, so hot paths never need to retain
//! a full trace just to fingerprint it.

/// FNV-1a 64-bit offset basis.
pub const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;

/// FNV-1a 64-bit prime.
pub const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

/// `FNV_PRIME^k` for `k` in `0..=8`. Absorbing a zero byte leaves the
/// xor a no-op, so `k` zero bytes multiply the state by `FNV_PRIME^k`.
const PRIME_POWERS: [u64; 9] = {
    let mut powers = [1u64; 9];
    let mut k = 1;
    while k < powers.len() {
        powers[k] = powers[k - 1].wrapping_mul(FNV_PRIME);
        k += 1;
    }
    powers
};

/// Incremental 64-bit FNV-1a hasher.
///
/// # Examples
///
/// ```
/// use des::digest::Fnv64;
///
/// let mut h = Fnv64::new();
/// h.write_u64(42);
/// h.write_bytes(b"trace");
///
/// // Incremental digesting is byte-equivalent to one-shot digesting.
/// let mut g = Fnv64::new();
/// g.write_bytes(&42u64.to_le_bytes());
/// g.write_bytes(b"trace");
/// assert_eq!(h.finish(), g.finish());
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Fnv64(u64);

impl Fnv64 {
    /// A hasher at the FNV-1a offset basis.
    #[inline]
    pub const fn new() -> Self {
        Fnv64(FNV_OFFSET)
    }

    /// Absorbs one byte.
    #[inline]
    pub fn write_u8(&mut self, b: u8) {
        self.0 = (self.0 ^ b as u64).wrapping_mul(FNV_PRIME);
    }

    /// Absorbs a byte slice.
    #[inline]
    pub fn write_bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.write_u8(b);
        }
    }

    /// Absorbs a `u64` as its 8 little-endian bytes. The high zero
    /// bytes fold into one multiplication by a power of the prime.
    #[inline]
    pub fn write_u64(&mut self, v: u64) {
        let significant = 8 - (v.leading_zeros() / 8) as usize;
        let mut rest = v;
        for _ in 0..significant {
            self.write_u8(rest as u8);
            rest >>= 8;
        }
        self.0 = self.0.wrapping_mul(PRIME_POWERS[8 - significant]);
    }

    /// Absorbs a `u64` of at most `N` significant bytes as its 8
    /// little-endian bytes: the `N` low bytes, then the zero bytes
    /// above them as one multiplication by a power of the prime. Equals
    /// [`write_u64`](Self::write_u64) for every `v < 2^(8N)`, but its
    /// loop has a length fixed at compile time, so the hashes of many
    /// values of one width can run side by side.
    ///
    /// # Panics
    ///
    /// Fails to compile if `N > 8`. Panics in debug builds if `v` has
    /// more than `N` significant bytes.
    #[inline(always)]
    pub fn write_u64_fixed<const N: usize>(&mut self, v: u64) {
        const { assert!(N <= 8, "a u64 has 8 bytes") };
        debug_assert!(
            8 - v.leading_zeros() as usize / 8 <= N,
            "{v:#x} has more than {N} significant bytes"
        );
        let mut rest = v;
        for _ in 0..N {
            self.write_u8(rest as u8);
            rest >>= 8;
        }
        self.0 = self.0.wrapping_mul(PRIME_POWERS[8 - N]);
    }

    /// The digest of everything absorbed so far. Non-consuming: more
    /// data may be written afterwards.
    #[inline]
    pub const fn finish(&self) -> u64 {
        self.0
    }
}

impl Default for Fnv64 {
    fn default() -> Self {
        Fnv64::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn matches_reference_vectors() {
        // Standard FNV-1a test vectors.
        let digest = |s: &str| {
            let mut h = Fnv64::new();
            h.write_bytes(s.as_bytes());
            h.finish()
        };
        assert_eq!(digest(""), FNV_OFFSET);
        assert_eq!(digest("a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(digest("foobar"), 0x85944171f73967e8);
    }

    fn bytewise(v: u64) -> u64 {
        let mut h = Fnv64::new();
        h.write_u64(0x5eed);
        h.write_bytes(&v.to_le_bytes());
        h.finish()
    }

    fn folded(v: u64) -> u64 {
        let mut h = Fnv64::new();
        h.write_u64(0x5eed);
        h.write_u64(v);
        h.finish()
    }

    #[test]
    fn write_u64_equals_its_bytes_at_every_byte_boundary() {
        let mut values = vec![0, 1, u64::MAX];
        for k in 1..8 {
            values.push((1u64 << (8 * k)) - 1);
            values.push(1u64 << (8 * k));
        }
        for v in values {
            assert_eq!(folded(v), bytewise(v), "{v:#x}");
        }
    }

    /// `write_u64_fixed` at `width` bytes, after the same prefix as
    /// [`folded`].
    fn fixed(width: usize, v: u64) -> u64 {
        let mut h = Fnv64::new();
        h.write_u64(0x5eed);
        match width {
            0 => h.write_u64_fixed::<0>(v),
            1 => h.write_u64_fixed::<1>(v),
            2 => h.write_u64_fixed::<2>(v),
            3 => h.write_u64_fixed::<3>(v),
            4 => h.write_u64_fixed::<4>(v),
            5 => h.write_u64_fixed::<5>(v),
            6 => h.write_u64_fixed::<6>(v),
            7 => h.write_u64_fixed::<7>(v),
            8 => h.write_u64_fixed::<8>(v),
            _ => unreachable!("a u64 has 8 bytes"),
        }
        h.finish()
    }

    #[test]
    fn write_u64_fixed_equals_write_u64_at_every_byte_boundary() {
        for width in 0..=8 {
            // 0, and both sides of every byte boundary the width holds.
            let mut values = vec![0];
            for k in 1..=width {
                values.push(1u64 << (8 * (k - 1)));
                values.push(u64::MAX >> (64 - 8 * k));
            }
            for v in values {
                assert_eq!(fixed(width, v), folded(v), "width {width}, {v:#x}");
                assert_eq!(fixed(width, v), bytewise(v), "width {width}, {v:#x}");
            }
        }
    }

    proptest::proptest! {
        #[test]
        fn write_u64_equals_its_bytes(v in proptest::prelude::any::<u64>(), shift in 0u32..64) {
            proptest::prop_assert_eq!(folded(v), bytewise(v));
            let v = v >> shift;
            proptest::prop_assert_eq!(folded(v), bytewise(v));
            // Every fixed width that holds `v`.
            for width in 8 - v.leading_zeros() as usize / 8..=8 {
                proptest::prop_assert_eq!(fixed(width, v), bytewise(v));
            }
        }
    }

    #[test]
    fn incremental_equals_one_shot() {
        let mut one = Fnv64::new();
        one.write_bytes(b"hello world");
        let mut inc = Fnv64::new();
        inc.write_bytes(b"hello");
        inc.write_bytes(b" ");
        inc.write_bytes(b"world");
        assert_eq!(one.finish(), inc.finish());
    }
}
