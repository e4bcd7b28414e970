//! The FNV-1a digest the golden tests pin. Not a test target of its
//! own: `sim_golden.rs` and `crates/bench/tests/figures_golden.rs`
//! include it by path.

#![allow(dead_code)] // each includer uses its own subset

/// FNV-1a: stable across platforms, toolchains and `std` versions,
/// unlike `DefaultHasher`.
pub struct Fnv(pub u64);

impl Fnv {
    pub fn new() -> Self {
        Self(0xcbf2_9ce4_8422_2325)
    }

    pub fn bytes(&mut self, bs: &[u8]) {
        for &b in bs {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    /// One 64-bit word, little-endian.
    pub fn word(&mut self, v: u64) {
        self.bytes(&v.to_le_bytes());
    }

    pub fn words(&mut self, vs: &[u64]) {
        for &v in vs {
            self.word(v);
        }
    }
}
