//! Property tests for the cryptographic substrate: round-trips, position
//! binding, digest binding and protected-read equivalence.

use proptest::prelude::*;
use xsac_crypto::chunk::{ChunkLayout, ProtectedDoc};
use xsac_crypto::modes::{
    cbc_decrypt, cbc_encrypt, ecb_decrypt, ecb_encrypt, pad_blocks, posxor_decrypt, posxor_encrypt,
};
use xsac_crypto::sha1::{sha1, Sha1};
use xsac_crypto::{IntegrityScheme, SoeReader, TripleDes};

fn key(seed: u8) -> TripleDes {
    let mut k = [0u8; 24];
    for (i, b) in k.iter_mut().enumerate() {
        *b = seed.wrapping_mul(31).wrapping_add(i as u8);
    }
    TripleDes::new(k)
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 64, ..Default::default() })]

    #[test]
    fn all_modes_roundtrip(data in prop::collection::vec(any::<u8>(), 0..256), seed in any::<u8>(), pos in 0u64..1_000_000, iv in any::<u64>()) {
        let k = key(seed);
        let padded = pad_blocks(&data);
        prop_assert_eq!(ecb_decrypt(&k, &ecb_encrypt(&k, &padded)), padded.clone());
        prop_assert_eq!(posxor_decrypt(&k, &posxor_encrypt(&k, &padded, pos), pos), padded.clone());
        prop_assert_eq!(cbc_decrypt(&k, &cbc_encrypt(&k, &padded, iv), iv), padded);
    }

    /// Position binding: the same plaintext encrypts differently at
    /// different positions, and decrypting at the wrong position garbles.
    #[test]
    fn posxor_binds_positions(block in any::<[u8; 8]>(), p1 in 0u64..1000, p2 in 0u64..1000, seed in any::<u8>()) {
        prop_assume!(p1 != p2);
        let k = key(seed);
        let c1 = posxor_encrypt(&k, &block, p1);
        let c2 = posxor_encrypt(&k, &block, p2);
        prop_assert_ne!(&c1, &c2, "identical ciphertexts leak positions");
        prop_assert_ne!(posxor_decrypt(&k, &c1, p2), block.to_vec());
    }

    /// SHA-1 incremental == one-shot for arbitrary chunkings.
    #[test]
    fn sha1_chunking_invariance(data in prop::collection::vec(any::<u8>(), 0..512), cuts in prop::collection::vec(any::<u16>(), 0..6)) {
        let mut h = Sha1::new();
        let mut offsets: Vec<usize> = cuts.iter().map(|&c| c as usize % (data.len() + 1)).collect();
        offsets.sort_unstable();
        offsets.dedup();
        let mut prev = 0usize;
        for o in offsets {
            h.update(&data[prev..o]);
            prev = o;
        }
        h.update(&data[prev..]);
        prop_assert_eq!(h.finish(), sha1(&data));
    }

    /// Split and resume invariance at the lengths where the padding
    /// changes shape: a tail that leaves room for the length suffix (55),
    /// one that does not (56, 63, 119, 120), whole blocks (64, 128).
    #[test]
    fn sha1_split_and_resume_at_block_and_padding_boundaries(data in prop::collection::vec(any::<u8>(), 128..129), cut in any::<u16>()) {
        for len in [55, 56, 63, 64, 119, 120, 128] {
            let data = &data[..len];
            let want = sha1(data);
            let split = cut as usize % (len + 1);
            let mut h = Sha1::new();
            h.update(&data[..split]);
            h.update(&data[split..]);
            prop_assert_eq!(h.finish(), want, "len {} split {}", len, split);
            let at = split / 64 * 64;
            let mut terminal = Sha1::new();
            terminal.update(&data[..at]);
            let (state, blocks) = terminal.state();
            let mut soe = Sha1::resume(state, blocks);
            soe.update(&data[at..split]);
            soe.update(&data[split..]);
            prop_assert_eq!(soe.finish(), want, "len {} resume at {}", len, at);
        }
    }

    /// Protected reads return exactly the plaintext for every scheme,
    /// offset and length.
    #[test]
    fn protected_reads_equal_plaintext(
        data in prop::collection::vec(any::<u8>(), 64..700),
        off in any::<u16>(),
        len in 1u16..128,
        seed in any::<u8>(),
    ) {
        let k = key(seed);
        let layout = ChunkLayout { chunk_size: 128, fragment_size: 32 };
        for scheme in IntegrityScheme::ALL {
            let p = ProtectedDoc::protect(&data, &k, scheme, layout);
            let off = off as usize % data.len();
            let len = (len as usize).min(data.len() - off);
            let mut r = SoeReader::new(&p, &k);
            let got = r.read(off, len).unwrap();
            prop_assert_eq!(got, &data[off..off + len], "{:?} {}+{}", scheme, off, len);
        }
    }

    /// Split reads equal one big read (the working buffer must not skew
    /// content, only costs).
    #[test]
    fn split_reads_equal_whole(data in prop::collection::vec(any::<u8>(), 128..512), cut in any::<u16>(), seed in any::<u8>()) {
        let k = key(seed);
        let layout = ChunkLayout { chunk_size: 128, fragment_size: 32 };
        let p = ProtectedDoc::protect(&data, &k, IntegrityScheme::EcbMht, layout);
        let cut = 1 + (cut as usize % (data.len() - 1));
        let mut r = SoeReader::new(&p, &k);
        let mut split = r.read(0, cut).unwrap().to_vec();
        split.extend(r.read(cut, data.len() - cut).unwrap());
        prop_assert_eq!(split, data);
    }

    /// Digest records are bound to their chunk index.
    #[test]
    fn digest_chunk_binding(digest_seed in any::<[u8; 20]>(), c1 in 0usize..64, c2 in 0usize..64, seed in any::<u8>()) {
        prop_assume!(c1 != c2);
        let k = key(seed);
        let rec = xsac_crypto::chunk::encrypt_digest(&k, c1, &digest_seed);
        prop_assert_eq!(xsac_crypto::chunk::decrypt_digest(&k, c1, &rec), digest_seed);
        prop_assert_ne!(xsac_crypto::chunk::decrypt_digest(&k, c2, &rec), digest_seed);
    }
}
