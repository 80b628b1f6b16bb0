//! Differential tests: the SP-table DES/3DES must agree block-for-block
//! with the retained bit-by-bit FIPS reference on random keys and blocks,
//! and both must reproduce published known-answer vectors. Every
//! in-place mode, which feeds the fast cipher several blocks per call,
//! must agree with a per-block loop over the reference.

use proptest::prelude::*;
use xsac_crypto::des::{reference, Des, TripleDes};
use xsac_crypto::modes::{
    cbc_decrypt_in_place, cbc_encrypt_in_place, ecb_decrypt_in_place, ecb_encrypt_in_place,
    posxor_decrypt_in_place, posxor_encrypt_in_place,
};

/// Classic single-DES known-answer vectors `(key, plaintext,
/// ciphertext)`: the worked FIPS example plus entries from the NBS
/// Special Publication 500-20 S-box test list.
const DES_KAT: &[(u64, u64, u64)] = &[
    (0x1334_5779_9BBC_DFF1, 0x0123_4567_89AB_CDEF, 0x85E8_1354_0F0A_B405),
    (0x0000_0000_0000_0000, 0x0000_0000_0000_0000, 0x8CA6_4DE9_C1B1_23A7),
    (0x0123_4567_89AB_CDEF, 0x4E6F_7720_6973_2074, 0x3FA4_0E8A_984D_4815),
    (0x0131_D961_9DC1_376E, 0x5CD5_4CA8_3DEF_57DA, 0x7A38_9D10_354B_D271),
    (0x07A1_133E_4A0B_2686, 0x0248_D438_06F6_7172, 0x868E_BB51_CAB4_599A),
    (0x3849_674C_2602_319E, 0x5145_4B58_2DDF_440A, 0x7178_876E_01F1_9B2A),
    (0x04B9_15BA_43FE_B5B6, 0x42FD_4430_5957_7FA2, 0xAF37_FB42_1F8C_4095),
];

/// The three-key 3DES-EDE example of NIST SP 800-67 (the "brown fox"
/// plaintext), block by block.
const TDES_KEY: [u8; 24] = [
    0x01, 0x23, 0x45, 0x67, 0x89, 0xAB, 0xCD, 0xEF, 0x23, 0x45, 0x67, 0x89, 0xAB, 0xCD, 0xEF, 0x01,
    0x45, 0x67, 0x89, 0xAB, 0xCD, 0xEF, 0x01, 0x23,
];
const TDES_KAT: &[(u64, u64)] = &[
    (0x5468_6520_7175_6663, 0xA826_FD8C_E53B_855F),
    (0x6B20_6272_6F77_6E20, 0xCCE2_1C81_1225_6FE6),
    (0x666F_7820_6A75_6D70, 0x68D5_C05D_D9B6_B900),
];

#[test]
fn des_known_answers_fast_and_reference() {
    for &(key, plain, cipher) in DES_KAT {
        let fast = Des::new(key.to_be_bytes());
        let slow = reference::Des::new(key.to_be_bytes());
        assert_eq!(fast.encrypt_block(plain), cipher, "fast KAT {key:016x}");
        assert_eq!(slow.encrypt_block(plain), cipher, "reference KAT {key:016x}");
        assert_eq!(fast.decrypt_block(cipher), plain, "fast inverse KAT {key:016x}");
        assert_eq!(slow.decrypt_block(cipher), plain, "reference inverse KAT {key:016x}");
    }
}

#[test]
fn tdes_known_answers_fast_and_reference() {
    let fast = TripleDes::new(TDES_KEY);
    let slow = reference::TripleDes::new(TDES_KEY);
    for &(plain, cipher) in TDES_KAT {
        assert_eq!(fast.encrypt_block(plain), cipher, "fast 3DES KAT {plain:016x}");
        assert_eq!(slow.encrypt_block(plain), cipher, "reference 3DES KAT {plain:016x}");
        assert_eq!(fast.decrypt_block(cipher), plain, "fast 3DES inverse {cipher:016x}");
        assert_eq!(slow.decrypt_block(cipher), plain, "reference 3DES inverse {cipher:016x}");
    }
}

/// An in-place mode under test, its key and parameters bound.
type InPlace<'a> = Box<dyn Fn(&mut [u8]) + 'a>;

/// The big-endian bytes of `f(i, block_i)` for every block, one call per
/// block in order.
fn per_block(blocks: &[u64], mut f: impl FnMut(usize, u64) -> u64) -> Vec<u8> {
    blocks.iter().enumerate().flat_map(|(i, &b)| f(i, b).to_be_bytes()).collect()
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 512, ..Default::default() })]

    /// Single DES: ciphertext and plaintext equivalence on random keys
    /// and blocks (parity bits of the key are ignored by both paths).
    #[test]
    fn des_fast_equals_reference(key in any::<[u8; 8]>(), block in any::<u64>()) {
        let fast = Des::new(key);
        let slow = reference::Des::new(key);
        let c = fast.encrypt_block(block);
        prop_assert_eq!(c, slow.encrypt_block(block), "encrypt key={:02x?} block={:016x}", key, block);
        prop_assert_eq!(fast.decrypt_block(block), slow.decrypt_block(block), "decrypt key={:02x?} block={:016x}", key, block);
        prop_assert_eq!(fast.decrypt_block(c), block, "roundtrip key={:02x?} block={:016x}", key, block);
    }

    /// 3DES-EDE: equivalence and roundtrip on random 24-byte keys.
    #[test]
    fn tdes_fast_equals_reference(key in any::<[u8; 24]>(), block in any::<u64>()) {
        let fast = TripleDes::new(key);
        let slow = reference::TripleDes::new(key);
        let c = fast.encrypt_block(block);
        prop_assert_eq!(c, slow.encrypt_block(block), "encrypt key={:02x?} block={:016x}", key, block);
        prop_assert_eq!(fast.decrypt_block(block), slow.decrypt_block(block), "decrypt key={:02x?} block={:016x}", key, block);
        prop_assert_eq!(fast.decrypt_block(c), block, "roundtrip key={:02x?} block={:016x}", key, block);
    }

    /// Cross-path streams: data encrypted by the reference cipher through
    /// the position-XOR mode decrypts identically under the fast cipher
    /// (the two never disagree at the mode layer either).
    #[test]
    fn posxor_cross_path(data in prop::collection::vec(any::<u8>(), 0..256), key in any::<[u8; 24]>(), first in 0u64..1_000_000) {
        use xsac_crypto::modes::{pad_blocks, posxor_decrypt, posxor_encrypt};
        let fast = TripleDes::new(key);
        let padded = pad_blocks(&data);
        let enc = posxor_encrypt(&fast, &padded, first);
        // Reference decryption of the fast-encrypted stream.
        let slow = reference::TripleDes::new(key);
        let mut dec = Vec::with_capacity(enc.len());
        for (i, block) in enc.chunks_exact(8).enumerate() {
            let c = u64::from_be_bytes(block.try_into().unwrap());
            let p = slow.decrypt_block(c) ^ (first + i as u64);
            dec.extend_from_slice(&p.to_be_bytes());
        }
        prop_assert_eq!(&dec, &padded, "reference must decrypt fast ciphertext");
        prop_assert_eq!(posxor_decrypt(&fast, &enc, first), padded);
    }

    /// Lane order: each in-place mode equals a per-block loop over the
    /// reference cipher. The roundtrip properties of `mode_properties.rs`
    /// cannot see two lanes swapped, since encryption and decryption
    /// would swap them alike; comparing each direction with the reference
    /// can. Up to 13 blocks covers empty input, whole lane groups and an
    /// odd last block.
    #[test]
    fn modes_equal_per_block_reference(
        blocks in prop::collection::vec(any::<u64>(), 0..14),
        key in any::<[u8; 24]>(),
        first in 0..u64::MAX - 16,
        iv in any::<u64>(),
    ) {
        let (fast, slow) = (TripleDes::new(key), reference::TripleDes::new(key));
        let pos = |i: usize| first + i as u64;
        let prev = |i: usize| if i == 0 { iv } else { blocks[i - 1] };
        let mut chain = iv;
        let cases: [(&str, InPlace, Vec<u8>); 6] = [
            ("posxor encrypt", Box::new(|d| posxor_encrypt_in_place(&fast, d, first)),
                per_block(&blocks, |i, b| slow.encrypt_block(b ^ pos(i)))),
            ("posxor decrypt", Box::new(|d| posxor_decrypt_in_place(&fast, d, first)),
                per_block(&blocks, |i, b| slow.decrypt_block(b) ^ pos(i))),
            ("ecb encrypt", Box::new(|d| ecb_encrypt_in_place(&fast, d)),
                per_block(&blocks, |_, b| slow.encrypt_block(b))),
            ("ecb decrypt", Box::new(|d| ecb_decrypt_in_place(&fast, d)),
                per_block(&blocks, |_, b| slow.decrypt_block(b))),
            ("cbc encrypt", Box::new(|d| cbc_encrypt_in_place(&fast, d, iv)),
                per_block(&blocks, |_, b| { chain = slow.encrypt_block(b ^ chain); chain })),
            ("cbc decrypt", Box::new(|d| cbc_decrypt_in_place(&fast, d, iv)),
                per_block(&blocks, |i, b| slow.decrypt_block(b) ^ prev(i))),
        ];
        for (mode, in_place, expect) in cases {
            let mut data = per_block(&blocks, |_, b| b);
            in_place(&mut data);
            prop_assert_eq!(data, expect, "{} of {} blocks from {}", mode, blocks.len(), first);
        }
    }
}
