//! Deterministic state fingerprinting.
//!
//! Protocol implementations expose a 64-bit fingerprint of their logical
//! state. The boundness experiments of Theorem 2.1 count distinct
//! `(fingerprint(Aᵗ), fingerprint(Aʳ))` product states, and the falsifiers
//! use fingerprints to detect quiescent cycles. `std`'s default hasher is
//! randomly keyed per process, so we provide a fixed-key FNV-1a hasher that
//! is stable across runs — experiment outputs must be reproducible from a
//! seed alone.

use std::hash::{Hash, Hasher};

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

/// A 64-bit FNV-1a hasher with a fixed key.
///
/// # Example
///
/// ```
/// use nonfifo_ioa::fingerprint::{fnv64, Fnv64};
/// use std::hash::{Hash, Hasher};
///
/// let mut h = Fnv64::new();
/// 42u64.hash(&mut h);
/// let a = h.finish();
/// let b = fnv64(&42u64);
/// assert_eq!(a, b); // deterministic across processes and runs
/// ```
#[derive(Debug, Clone)]
pub struct Fnv64 {
    state: u64,
}

impl Fnv64 {
    /// Creates a hasher at the standard FNV offset basis.
    pub const fn new() -> Self {
        Fnv64 { state: FNV_OFFSET }
    }
}

impl Default for Fnv64 {
    fn default() -> Self {
        Fnv64::new()
    }
}

impl Hasher for Fnv64 {
    fn finish(&self) -> u64 {
        self.state
    }

    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.state ^= u64::from(b);
            self.state = self.state.wrapping_mul(FNV_PRIME);
        }
    }
}

/// Hashes any `Hash` value with the fixed-key FNV-1a hasher.
pub fn fnv64<T: Hash + ?Sized>(value: &T) -> u64 {
    let mut h = Fnv64::new();
    value.hash(&mut h);
    h.finish()
}

/// A strong 64-bit bit-mixing finalizer (the SplitMix64 output function).
///
/// FNV-1a is fast but nearly linear over inputs that share a prefix and
/// differ in trailing byte values: `fnv64(a) - fnv64(b)` is close to
/// `(a - b) * FNV_PRIME`. That is harmless when the hash is used whole, but
/// it breaks *additive* combinations — summing raw FNV hashes of the
/// sequentially-numbered packets a protocol mints makes `{p1, p4}` collide
/// with `{p2, p3}`. Any accumulator that adds per-element hashes (the
/// packet multiset's content digest) must finalize each element through
/// this mixer first, restoring full avalanche so sums collide only by
/// 64-bit coincidence.
pub fn mix64(mut x: u64) -> u64 {
    x ^= x >> 30;
    x = x.wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x ^= x >> 27;
    x = x.wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^= x >> 31;
    x
}

/// Incremental builder for protocol state fingerprints.
///
/// # Example
///
/// ```
/// use nonfifo_ioa::fingerprint::StateHash;
///
/// let fp = StateHash::new("alternating-bit")
///     .field(1u8)         // current bit
///     .field(true)        // awaiting ack
///     .finish();
/// assert_ne!(fp, StateHash::new("alternating-bit").field(0u8).field(true).finish());
/// ```
#[derive(Debug, Clone)]
pub struct StateHash {
    hasher: Fnv64,
}

impl StateHash {
    /// Starts a fingerprint, domain-separated by a protocol tag: FNV-1a
    /// over the tag's bytes and the `0xff` terminator, exactly as
    /// `str::hash` feeds them. In a `const` block a fixed tag's hashed
    /// prefix is computed at compile time, so a hot fingerprint starts
    /// from a constant instead of rehashing its tag on every call.
    pub const fn new(tag: &str) -> Self {
        let bytes = tag.as_bytes();
        let mut state = FNV_OFFSET;
        let mut i = 0;
        while i < bytes.len() {
            state ^= bytes[i] as u64;
            state = state.wrapping_mul(FNV_PRIME);
            i += 1;
        }
        state ^= 0xff;
        state = state.wrapping_mul(FNV_PRIME);
        StateHash {
            hasher: Fnv64 { state },
        }
    }

    /// Mixes one state field into the fingerprint.
    #[must_use]
    pub fn field<T: Hash>(mut self, value: T) -> Self {
        value.hash(&mut self.hasher);
        self
    }

    /// Finishes and returns the 64-bit fingerprint.
    pub fn finish(self) -> u64 {
        self.hasher.finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn known_vector() {
        // FNV-1a of the empty input is the offset basis.
        assert_eq!(Fnv64::new().finish(), FNV_OFFSET);
    }

    #[test]
    fn new_starts_where_str_hash_does() {
        const EXPLORE: StateHash = StateHash::new("explore-state");
        for tag in ["", "a", "explore-state", "explore-state-por", "ünïcode"] {
            let mut reference = Fnv64::new();
            tag.hash(&mut reference);
            assert_eq!(StateHash::new(tag).finish(), reference.finish(), "{tag:?}");
            reference.write_u64(7);
            assert_eq!(
                StateHash::new(tag).field(7u64).finish(),
                reference.finish(),
                "{tag:?}"
            );
        }
        let mut reference = Fnv64::new();
        "explore-state".hash(&mut reference);
        assert_eq!(EXPLORE.finish(), reference.finish());
    }

    #[test]
    fn deterministic_and_sensitive() {
        assert_eq!(fnv64("abc"), fnv64("abc"));
        assert_ne!(fnv64("abc"), fnv64("abd"));
        assert_ne!(fnv64(&1u64), fnv64(&2u64));
    }

    #[test]
    fn mix64_breaks_fnv_linearity() {
        // Raw FNV hashes of consecutive small values differ only in a few
        // xor-flipped bits, so their sums collide ({0,3} vs {1,2}: the
        // offset basis ends in 0x25, and 0x24 + 0x27 == 0x25 + 0x26);
        // mixed hashes must not.
        let h = |v: u32| fnv64(&v);
        let raw = |a: u32, b: u32| h(a).wrapping_add(h(b));
        assert_eq!(raw(0, 3), raw(1, 2), "the degeneracy mix64 exists to fix");
        let mixed = |a: u32, b: u32| mix64(h(a)).wrapping_add(mix64(h(b)));
        assert_ne!(mixed(0, 3), mixed(1, 2));
        assert_eq!(mix64(7), mix64(7));
    }

    #[test]
    fn state_hash_field_order_matters() {
        let a = StateHash::new("p").field(1u8).field(2u8).finish();
        let b = StateHash::new("p").field(2u8).field(1u8).finish();
        assert_ne!(a, b);
    }

    #[test]
    fn state_hash_tag_separates_domains() {
        let a = StateHash::new("p").field(1u8).finish();
        let b = StateHash::new("q").field(1u8).finish();
        assert_ne!(a, b);
    }
}
