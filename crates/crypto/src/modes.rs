//! Block-cipher modes: ECB, CBC, and the paper's position-XOR-ECB.
//!
//! "In place of CBC, we perform an exclusive OR between each 8-byte block
//! and the position of this block in the document, before encrypting the
//! result in ECB mode. Thus, a plaintext block b at absolute position p in
//! the document is encrypted by `E_k(b ⊕ p)`" (Appendix A). This yields
//! different ciphertexts for identical plaintext blocks (defeating
//! dictionary and statistical attacks) while preserving O(1) random
//! access, which plain CBC cannot.
//!
//! It also makes every block independent, so the cipher can interleave
//! them: ECB, position-XOR ECB and CBC decryption all go through one lane
//! driver (`run_blocks`) that hands the 3DES kernel two blocks per call
//! (see [`crate::des`], "Lanes"). Only CBC encryption, where each block's
//! input is the previous block's output, runs one block at a time.

use crate::des::TripleDes;

/// Block size of the underlying cipher.
pub const BLOCK: usize = 8;

fn to_block(bytes: &[u8]) -> u64 {
    u64::from_be_bytes(bytes.try_into().expect("8-byte block"))
}

fn put_block(bytes: &mut [u8], v: u64) {
    bytes.copy_from_slice(&v.to_be_bytes());
}

// ---------------------------------------------------------------------
// In-place primitives — the zero-copy decrypt pipeline's workhorses.
// Every mode transforms whole blocks inside one caller-provided buffer.

/// Blocks per interleaved cipher call (see [`crate::des`], "Lanes").
const LANES: usize = 2;

/// The lane driver of every mode whose blocks are independent: block `i`
/// of `data`, read as `x`, becomes `post(i, x, K(pre(i, x)))`, where `K`
/// enciphers, or deciphers when `decrypt` is set. Blocks go through the
/// cipher [`LANES`] at a time, the last few alone; `post` sees them in
/// order.
fn run_blocks(
    cipher: &TripleDes,
    decrypt: bool,
    data: &mut [u8],
    pre: impl Fn(u64, u64) -> u64,
    mut post: impl FnMut(u64, u64, u64) -> u64,
) {
    assert_eq!(data.len() % BLOCK, 0);
    let mut runs = data.chunks_exact_mut(LANES * BLOCK);
    let mut first = 0;
    for run in &mut runs {
        lanes::<LANES>(cipher, decrypt, run, first, &pre, &mut post);
        first += LANES as u64;
    }
    for block in runs.into_remainder().chunks_exact_mut(BLOCK) {
        lanes::<1>(cipher, decrypt, block, first, &pre, &mut post);
        first += 1;
    }
}

/// One cipher call of [`run_blocks`] over the `N` blocks of `run`,
/// numbered from `first`.
#[inline(always)]
fn lanes<const N: usize>(
    cipher: &TripleDes,
    decrypt: bool,
    run: &mut [u8],
    first: u64,
    pre: &impl Fn(u64, u64) -> u64,
    post: &mut impl FnMut(u64, u64, u64) -> u64,
) {
    let x: [u64; N] = core::array::from_fn(|l| to_block(&run[l * BLOCK..(l + 1) * BLOCK]));
    let y = cipher.blocks::<N>(decrypt, core::array::from_fn(|l| pre(first + l as u64, x[l])));
    for (l, block) in run.chunks_exact_mut(BLOCK).enumerate() {
        put_block(block, post(first + l as u64, x[l], y[l]));
    }
}

/// Encrypts whole blocks in ECB mode, in place.
pub fn ecb_encrypt_in_place(cipher: &TripleDes, data: &mut [u8]) {
    run_blocks(cipher, false, data, |_, x| x, |_, _, y| y);
}

/// Decrypts whole blocks in ECB mode, in place.
pub fn ecb_decrypt_in_place(cipher: &TripleDes, data: &mut [u8]) {
    run_blocks(cipher, true, data, |_, x| x, |_, _, y| y);
}

/// Position-XOR ECB encryption in place: block `i` (counting from
/// `first_block`) becomes `E_k(b_i ⊕ (first_block + i))`.
pub fn posxor_encrypt_in_place(cipher: &TripleDes, data: &mut [u8], first_block: u64) {
    run_blocks(cipher, false, data, |i, x| x ^ (first_block + i), |_, _, y| y);
}

/// Position-XOR ECB decryption in place.
pub fn posxor_decrypt_in_place(cipher: &TripleDes, data: &mut [u8], first_block: u64) {
    run_blocks(cipher, true, data, |_, x| x, |i, _, y| y ^ (first_block + i));
}

/// CBC encryption in place (the CBC-SHA / CBC-SHAC baselines). Serial:
/// each block's input is the previous block's output, so one lane.
pub fn cbc_encrypt_in_place(cipher: &TripleDes, data: &mut [u8], iv: u64) {
    assert_eq!(data.len() % BLOCK, 0);
    let mut prev = iv;
    for chunk in data.chunks_exact_mut(BLOCK) {
        prev = cipher.encrypt_block(to_block(chunk) ^ prev);
        put_block(chunk, prev);
    }
}

/// CBC decryption in place. Each block deciphers on its own, then takes
/// the previous ciphertext block (or `iv`) off, so it runs on all lanes.
pub fn cbc_decrypt_in_place(cipher: &TripleDes, data: &mut [u8], iv: u64) {
    let mut prev = iv;
    run_blocks(cipher, true, data, |_, x| x, |_, x, y| y ^ std::mem::replace(&mut prev, x));
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cipher() -> TripleDes {
        let mut key = [0u8; 24];
        for (i, b) in key.iter_mut().enumerate() {
            *b = i as u8 + 1;
        }
        TripleDes::new(key)
    }

    /// `mode` applied to a copy of `data`.
    fn run(data: &[u8], mode: impl FnOnce(&mut [u8])) -> Vec<u8> {
        let mut out = data.to_vec();
        mode(&mut out);
        out
    }

    #[test]
    fn ecb_roundtrip_and_determinism() {
        let c = cipher();
        let data = *b"identical blocks identical blocks\0\0\0\0\0\0\0";
        let enc = run(&data, |b| ecb_encrypt_in_place(&c, b));
        assert_eq!(run(&enc, |b| ecb_decrypt_in_place(&c, b)), data);
        // ECB leaks equality of blocks:
        let two = [0x42u8; 16];
        let e = run(&two, |b| ecb_encrypt_in_place(&c, b));
        assert_eq!(e[0..8], e[8..16], "ECB: identical plaintexts → identical ciphertexts");
    }

    #[test]
    fn posxor_hides_equal_blocks() {
        let c = cipher();
        let two = [0x42u8; 16];
        let e = run(&two, |b| posxor_encrypt_in_place(&c, b, 0));
        assert_ne!(e[0..8], e[8..16], "position XOR must break ECB equality leak");
        assert_eq!(run(&e, |b| posxor_decrypt_in_place(&c, b, 0)), two);
    }

    #[test]
    fn posxor_random_access() {
        // Decrypting only the second block works given its position.
        let c = cipher();
        let data: Vec<u8> = (0..32).collect();
        let enc = run(&data, |b| posxor_encrypt_in_place(&c, b, 100));
        let second = run(&enc[8..16], |b| posxor_decrypt_in_place(&c, b, 101));
        assert_eq!(second, &data[8..16]);
    }

    #[test]
    fn posxor_position_binding_defeats_block_swapping() {
        // Swapping two ciphertext blocks garbles the plaintext (block
        // substitution attack of §6).
        let c = cipher();
        let data: Vec<u8> = (0..16).collect();
        let mut enc = run(&data, |b| posxor_encrypt_in_place(&c, b, 0));
        enc.swap(0, 8);
        enc.swap(1, 9);
        enc.swap(2, 10);
        enc.swap(3, 11);
        enc.swap(4, 12);
        enc.swap(5, 13);
        enc.swap(6, 14);
        enc.swap(7, 15);
        let dec = run(&enc, |b| posxor_decrypt_in_place(&c, b, 0));
        assert_ne!(dec, data);
    }

    #[test]
    fn in_place_matches_block_at_a_time() {
        let c = cipher();
        let data: Vec<u8> = (0..64).collect();
        let blocks: Vec<u64> = data.chunks_exact(BLOCK).map(to_block).collect();
        let serial = |f: &dyn Fn(usize, u64) -> u64| -> Vec<u8> {
            blocks.iter().enumerate().flat_map(|(i, &b)| f(i, b).to_be_bytes()).collect()
        };
        let mut buf = data.clone();
        posxor_encrypt_in_place(&c, &mut buf, 7);
        assert_eq!(buf, serial(&|i, b| c.encrypt_block(b ^ (7 + i as u64))));
        posxor_decrypt_in_place(&c, &mut buf, 7);
        assert_eq!(buf, data);
        cbc_encrypt_in_place(&c, &mut buf, 99);
        let mut prev = 99;
        let cbc: Vec<u8> = blocks
            .iter()
            .flat_map(|&b| {
                prev = c.encrypt_block(b ^ prev);
                prev.to_be_bytes()
            })
            .collect();
        assert_eq!(buf, cbc);
        cbc_decrypt_in_place(&c, &mut buf, 99);
        assert_eq!(buf, data);
        ecb_encrypt_in_place(&c, &mut buf);
        assert_eq!(buf, serial(&|_, b| c.encrypt_block(b)));
        ecb_decrypt_in_place(&c, &mut buf);
        assert_eq!(buf, data);
    }

    #[test]
    fn cbc_roundtrip_and_chaining() {
        let c = cipher();
        let data = [0x42u8; 24];
        let enc = run(&data, |b| cbc_encrypt_in_place(&c, b, 0xDEAD_BEEF));
        assert_eq!(run(&enc, |b| cbc_decrypt_in_place(&c, b, 0xDEAD_BEEF)), data);
        assert_ne!(enc[0..8], enc[8..16], "CBC hides equal blocks");
        // Wrong IV corrupts only the first block.
        let dec = run(&enc, |b| cbc_decrypt_in_place(&c, b, 0));
        assert_ne!(dec[0..8], data[0..8]);
        assert_eq!(dec[8..24], data[8..24]);
    }
}
