//! The DES block cipher and 3DES-EDE — fast SP-table implementation.
//!
//! The paper encrypts with "a triple-DES algorithm hardwired in the smart
//! card" (Appendix A), and Figure 12 shows decryption dominating the
//! end-to-end cost, so this module is the hottest code in the workspace.
//!
//! # One kernel over independent blocks
//!
//! The classic software optimization (Hoey/Outerbridge lineage, the same
//! structure used by libdes and its descendants) collapses the per-round
//! work into table lookups, and one kernel (`crypt`) runs it over a
//! const number of blocks at once:
//!
//! * **SP boxes.** Round function `f(R, K) = P(S(E(R) ⊕ K))` applies the
//!   eight 6→4-bit S-boxes and then the fixed 32-bit permutation `P`.
//!   Because each S-box feeds a disjoint 4-bit field of `P`'s input, `P`
//!   distributes over the concatenation: precompute, for every box `b`
//!   and 6-bit input `v`, the 32-bit word `P(S_b(v) << (28 − 4b))`. The
//!   round function becomes eight lookups OR-ed together. The tables are
//!   built **at compile time** (`build_sp`) from the FIPS `SBOX`/`P`
//!   constants of the retained [`reference`](mod@reference) module, so the fast path is
//!   derived from, not parallel to, the audited tables.
//! * **Pre-rotated halves, packed keys.** `E` feeds box `b` bits
//!   `4b..4b+5` of `R`, cyclically extended by one bit on each side. In
//!   `R` rotated right by one bit, the even boxes' inputs are the 6-bit
//!   windows at offsets 26/18/10/2, and the odd boxes' sit at the same
//!   offsets of that word rotated left by 4. Both halves stay rotated from
//!   IP to FP, against SP tables built rotated the same way, and each
//!   round key is packed into two words with its pieces at those offsets:
//!   a round is one rotate and two key XORs ahead of its eight lookups.
//! * **IP/FP.** The initial and final permutations are butterflies: five
//!   delta-swaps on the 32-bit halves (`ip_split`/`fp_join`) replace
//!   128 single-bit moves. Their correctness is pinned against the
//!   bit-by-bit `reference::permute` in the tests below.
//! * **Fused EDE.** `FP∘IP = id`, so 3DES cancels the middle
//!   permutations: one IP, one 48-round schedule and one FP per block.
//! * **Lanes.** A round is eight table loads on one dependency chain, so
//!   a lone block waits on load latency. The kernel interleaves the
//!   rounds of `N` independent blocks, so one block's lookups hide the
//!   other's latency. Every mode whose blocks are independent (see
//!   [`modes`](crate::modes)) feeds whole runs through two lanes, which
//!   deliver about 1.5× the one-lane rate; four add nothing.
//!
//! A lone block still runs on one lane, and its latency is what a
//! session mostly pays: sessions read a few bytes at a time, so most
//! deciphered runs are one or two blocks long. Whole-chunk work
//! (publishing, CBC chunks) pays the two-lane rate.
//!
//! The bit-by-bit FIPS implementation is retained as [`reference`](mod@reference) for
//! differential testing (`crates/crypto/tests/des_differential.rs` checks
//! fast == reference on random keys/blocks and pins both to published
//! known-answer vectors). `cargo bench -p xsac-bench --bench crypto`
//! measures the speedup and records it in `BENCH_crypto.json`.
//!
//! This is a faithful reproduction of a 2004-era design; DES/3DES are not
//! recommendations for new systems.

pub mod reference;

/// The eight merged S+P tables, outputs rotated right by one bit:
/// `SP[b][v] = P(S_b(v) << (28 − 4b)) >>> 1`.
static SP: [[u32; 64]; 8] = build_sp();

/// Builds the SP tables from the FIPS constants at compile time.
const fn build_sp() -> [[u32; 64]; 8] {
    let mut sp = [[0u32; 64]; 8];
    let mut b = 0;
    while b < 8 {
        let mut v = 0;
        while v < 64 {
            // FIPS row/column split of the 6-bit input.
            let row = ((v & 0x20) >> 4) | (v & 1);
            let col = (v >> 1) & 0xF;
            let s_out = reference::SBOX[b][row * 16 + col] as u32;
            // Place the 4-bit output in box b's field, then permute by P.
            let pre_p = s_out << (28 - 4 * b);
            let mut out = 0u32;
            let mut i = 0;
            while i < 32 {
                let src = reference::P[i] as u32; // 1-indexed source bit
                out |= ((pre_p >> (32 - src)) & 1) << (31 - i);
                i += 1;
            }
            sp[b][v] = out.rotate_right(1);
            v += 1;
        }
        b += 1;
    }
    sp
}

/// One delta-swap step: exchanges the bits of `a` and `b` selected by
/// `mask` at distance `shift`.
macro_rules! perm_op {
    ($a:ident, $b:ident, $shift:expr, $mask:expr) => {
        let t = (($a >> $shift) ^ $b) & $mask;
        $b ^= t;
        $a ^= t << $shift;
    };
}

/// The initial permutation as five delta-swaps, returning `(L0, R0)`.
#[inline]
fn ip_split(block: u64) -> (u32, u32) {
    let mut l = (block >> 32) as u32;
    let mut r = block as u32;
    perm_op!(l, r, 4, 0x0F0F_0F0F);
    perm_op!(l, r, 16, 0x0000_FFFF);
    perm_op!(r, l, 2, 0x3333_3333);
    perm_op!(r, l, 8, 0x00FF_00FF);
    perm_op!(l, r, 1, 0x5555_5555);
    (l, r)
}

/// The final permutation (inverse butterfly) over `(hi, lo)` halves.
#[inline]
fn fp_join(mut l: u32, mut r: u32) -> u64 {
    perm_op!(l, r, 1, 0x5555_5555);
    perm_op!(r, l, 8, 0x00FF_00FF);
    perm_op!(r, l, 2, 0x3333_3333);
    perm_op!(l, r, 16, 0x0000_FFFF);
    perm_op!(l, r, 4, 0x0F0F_0F0F);
    (u64::from(l) << 32) | u64::from(r)
}

/// A round key packed for pre-rotated halves: the even boxes' 6-bit
/// pieces, then the odd boxes', each at offsets 26/18/10/2.
type PackedKey = [u32; 2];

/// Packs the 48-bit round keys of one DES key, in encryption order.
fn schedule(key: [u8; 8]) -> [PackedKey; 16] {
    reference::round_keys(key).map(|k| {
        let piece = |b: u32| ((k >> (42 - 6 * b)) & 0x3F) as u32;
        let pack = |odd: u32| (0..4).fold(0, |w, i| w | (piece(2 * i + odd) << (26 - 8 * i)));
        [pack(0), pack(1)]
    })
}

/// The kernel: runs `N` independent blocks through every 16-round pass of
/// `keys`, their rounds interleaved. Each pass ends with DES's closing
/// half-swap; the FP and IP between two passes cancel, so nothing else
/// separates them.
#[inline(always)]
fn crypt<const N: usize>(keys: &[PackedKey], blocks: [u64; N]) -> [u64; N] {
    let mut l = [0u32; N];
    let mut r = [0u32; N];
    for i in 0..N {
        let (hi, lo) = ip_split(blocks[i]);
        (l[i], r[i]) = (hi.rotate_right(1), lo.rotate_right(1));
    }
    let f = |x: u32, k: &PackedKey| {
        let (e, o) = (x ^ k[0], x.rotate_left(4) ^ k[1]);
        let sp = |b: usize, w: u32, at: u32| SP[b][((w >> at) & 0x3F) as usize];
        let even = sp(0, e, 26) | sp(2, e, 18) | sp(4, e, 10) | sp(6, e, 2);
        let odd = sp(1, o, 26) | sp(3, o, 18) | sp(5, o, 10) | sp(7, o, 2);
        even | odd
    };
    for pass in keys.chunks_exact(16) {
        for pair in pass.chunks_exact(2) {
            for i in 0..N {
                l[i] ^= f(r[i], &pair[0]);
            }
            for i in 0..N {
                r[i] ^= f(l[i], &pair[1]);
            }
        }
        core::mem::swap(&mut l, &mut r);
    }
    core::array::from_fn(|i| fp_join(l[i].rotate_left(1), r[i].rotate_left(1)))
}

/// A single-DES key schedule, packed for the kernel.
#[derive(Clone)]
pub struct Des {
    enc: [PackedKey; 16],
    dec: [PackedKey; 16],
}

impl Des {
    /// Builds the key schedule from an 8-byte key (parity bits ignored).
    pub fn new(key: [u8; 8]) -> Des {
        let enc = schedule(key);
        let mut dec = enc;
        dec.reverse();
        Des { enc, dec }
    }

    /// Encrypts one 64-bit block.
    pub fn encrypt_block(&self, block: u64) -> u64 {
        crypt(&self.enc, [block])[0]
    }

    /// Decrypts one 64-bit block.
    pub fn decrypt_block(&self, block: u64) -> u64 {
        crypt(&self.dec, [block])[0]
    }
}

/// 3DES in EDE mode with a 24-byte key (K1, K2, K3): one fused 48-round
/// schedule per direction.
#[derive(Clone)]
pub struct TripleDes {
    enc: [PackedKey; 48],
    dec: [PackedKey; 48],
}

impl TripleDes {
    /// Three-key 3DES.
    pub fn new(key: [u8; 24]) -> TripleDes {
        let [k1, k2, k3] = [0, 8, 16].map(|at| Des::new(key[at..at + 8].try_into().expect("8")));
        let fuse = |passes: [&[PackedKey; 16]; 3]| core::array::from_fn(|i| passes[i / 16][i % 16]);
        TripleDes { enc: fuse([&k1.enc, &k2.dec, &k3.enc]), dec: fuse([&k3.dec, &k2.enc, &k1.dec]) }
    }

    /// Two-key 3DES (K1, K2, K1).
    pub fn new_2key(key: [u8; 16]) -> TripleDes {
        let mut full = [0u8; 24];
        full[0..16].copy_from_slice(&key);
        full[16..24].copy_from_slice(&key[0..8]);
        TripleDes::new(full)
    }

    /// Encrypts one block (EDE): `E_{k3}(D_{k2}(E_{k1}(b)))`.
    pub fn encrypt_block(&self, block: u64) -> u64 {
        self.blocks(false, [block])[0]
    }

    /// Decrypts one block.
    pub fn decrypt_block(&self, block: u64) -> u64 {
        self.blocks(true, [block])[0]
    }

    /// Enciphers (or, with `decrypt`, deciphers) `N` independent blocks
    /// with their rounds interleaved.
    #[inline]
    pub(crate) fn blocks<const N: usize>(&self, decrypt: bool, blocks: [u64; N]) -> [u64; N] {
        crypt(if decrypt { &self.dec } else { &self.enc }, blocks)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The butterfly IP/FP must agree with the bit-by-bit FIPS tables.
    #[test]
    fn butterflies_match_reference_permutations() {
        let mut x = 0x0123_4567_89AB_CDEFu64;
        for _ in 0..1000 {
            x = x.wrapping_mul(0x9E37_79B9_7F4A_7C15).wrapping_add(1);
            let expect_ip = reference::permute(x, &reference::IP, 64);
            let (l, r) = ip_split(x);
            assert_eq!((u64::from(l) << 32) | u64::from(r), expect_ip, "IP of {x:016x}");
            let expect_fp = reference::permute(x, &reference::FP, 64);
            assert_eq!(fp_join((x >> 32) as u32, x as u32), expect_fp, "FP of {x:016x}");
            // Inverse pair.
            let (l, r) = ip_split(x);
            assert_eq!(fp_join(l, r), x);
        }
    }

    /// The classic worked DES example: key 133457799BBCDFF1, plaintext
    /// 0123456789ABCDEF → ciphertext 85E813540F0AB405.
    #[test]
    fn des_known_answer() {
        let des = Des::new(0x1334_5779_9BBC_DFF1u64.to_be_bytes());
        assert_eq!(des.encrypt_block(0x0123_4567_89AB_CDEF), 0x85E8_1354_0F0A_B405);
        assert_eq!(des.decrypt_block(0x85E8_1354_0F0A_B405), 0x0123_4567_89AB_CDEF);
    }

    /// NBS/NIST vector: all-zero key and plaintext.
    #[test]
    fn des_zero_vector() {
        let des = Des::new([0u8; 8]);
        assert_eq!(des.encrypt_block(0), 0x8CA6_4DE9_C1B1_23A7);
    }

    /// Weak-key identity property: E(E(x)) == x for the all-ones weak key.
    #[test]
    fn des_weak_key_involution() {
        let des = Des::new([0xFF; 8]);
        let x = 0x0011_2233_4455_6677u64;
        assert_eq!(des.encrypt_block(des.encrypt_block(x)), x);
    }

    /// 3DES with K1 == K2 == K3 degenerates to single DES.
    #[test]
    fn tdes_degenerates_to_des() {
        let k = 0x1334_5779_9BBC_DFF1u64.to_be_bytes();
        let mut key = [0u8; 24];
        key[0..8].copy_from_slice(&k);
        key[8..16].copy_from_slice(&k);
        key[16..24].copy_from_slice(&k);
        let tdes = TripleDes::new(key);
        assert_eq!(tdes.encrypt_block(0x0123_4567_89AB_CDEF), 0x85E8_1354_0F0A_B405);
    }

    #[test]
    fn tdes_roundtrip_many_blocks() {
        let mut key = [0u8; 24];
        for (i, b) in key.iter_mut().enumerate() {
            *b = (i as u8).wrapping_mul(37).wrapping_add(11);
        }
        let tdes = TripleDes::new(key);
        for i in 0..100u64 {
            let p = i.wrapping_mul(0x9E37_79B9_7F4A_7C15);
            assert_eq!(tdes.decrypt_block(tdes.encrypt_block(p)), p);
        }
    }

    #[test]
    fn tdes_2key_matches_explicit() {
        let k16: [u8; 16] = *b"0123456789abcdef";
        let mut k24 = [0u8; 24];
        k24[0..16].copy_from_slice(&k16);
        k24[16..24].copy_from_slice(&k16[0..8]);
        let a = TripleDes::new_2key(k16);
        let b = TripleDes::new(k24);
        assert_eq!(a.encrypt_block(42), b.encrypt_block(42));
    }

    #[test]
    fn different_keys_different_ciphertexts() {
        let a = Des::new([1; 8]);
        let b = Des::new([2; 8]);
        assert_ne!(a.encrypt_block(7), b.encrypt_block(7));
    }

    /// Quick in-module differential check (the exhaustive property test
    /// lives in `tests/des_differential.rs`).
    #[test]
    fn fast_matches_reference_smoke() {
        let key = *b"smoke-test-24-byte-key!!";
        let fast = TripleDes::new(key);
        let slow = reference::TripleDes::new(key);
        let mut x = 0xDEAD_BEEF_0BAD_F00Du64;
        for _ in 0..256 {
            x = x.wrapping_mul(0x9E37_79B9_7F4A_7C15).wrapping_add(0x1234_5678);
            assert_eq!(fast.encrypt_block(x), slow.encrypt_block(x), "encrypt {x:016x}");
            assert_eq!(fast.decrypt_block(x), slow.decrypt_block(x), "decrypt {x:016x}");
        }
    }
}
