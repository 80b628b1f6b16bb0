//! Criterion: crypto primitive throughput (3DES, SHA-1 at 64 KiB and at
//! fragment and combine size, protected reads), including the SP-table
//! vs bit-by-bit reference comparison that gates the fast path. Results
//! land in `BENCH_crypto.json`.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use xsac_crypto::chunk::{ChunkLayout, ProtectedDoc};
use xsac_crypto::des::reference;
use xsac_crypto::merkle::combine;
use xsac_crypto::modes::{ecb_decrypt_in_place, posxor_decrypt_in_place, posxor_encrypt_in_place};
use xsac_crypto::sha1::sha1;
use xsac_crypto::{IntegrityScheme, SoeReader, TripleDes};

fn key() -> TripleDes {
    TripleDes::new(*b"bench-key-bench-key-24!!")
}

fn bench_primitives(c: &mut Criterion) {
    let k = key();
    let data = vec![0xA5u8; 64 * 1024];
    let mut group = c.benchmark_group("crypto/primitives");
    group.throughput(Throughput::Bytes(data.len() as u64));
    // Each iteration copies the input and runs the mode over the copy.
    group.bench_function("3des-posxor-encrypt", |b| {
        b.iter(|| {
            let mut buf = data.clone();
            posxor_encrypt_in_place(&k, &mut buf, 0);
            buf
        })
    });
    let mut enc = data.clone();
    posxor_encrypt_in_place(&k, &mut enc, 0);
    group.bench_function("3des-posxor-decrypt", |b| {
        b.iter(|| {
            let mut buf = enc.clone();
            posxor_decrypt_in_place(&k, &mut buf, 0);
            buf
        })
    });
    // NB: the timed region includes the `copy_from_slice` that resets the
    // buffer each iteration (the shim has no iter_batched), so this entry
    // *understates* the in-place gain over `3des-posxor-decrypt` by one
    // 64 KiB memcpy per iteration — don't compare the two records as if
    // they measured the same work.
    group.bench_function("memcpy+3des-posxor-decrypt-in-place", |b| {
        let mut buf = enc.clone();
        b.iter(|| {
            buf.copy_from_slice(&enc);
            posxor_decrypt_in_place(&k, &mut buf, 0);
            buf[0]
        })
    });
    group.bench_function("sha1", |b| b.iter(|| sha1(&data)));
    group.finish();
}

/// SHA-1 at the two sizes an ECB-MHT session hashes, beside the 64 KiB
/// `crypto/primitives/sha1` row (the per-byte rate of long runs):
///
/// * `fragment-128`: one 128-byte fragment, the digest the SOE computes
///   per fetch and the terminal per leaf — three compressions (two data
///   blocks and a padding block) for 128 metered bytes;
/// * `combine-40`: one Merkle combine of two child digests, a single
///   pre-padded block for 40 metered bytes.
///
/// Each also pays the fixed cost of a call: setting up the chaining
/// state and laying out the padding.
fn bench_sha1_sizes(c: &mut Criterion) {
    let fragment: Vec<u8> = (0..128u32).map(|i| (i * 7 % 251) as u8).collect();
    let mut group = c.benchmark_group("crypto/sha1");
    group.throughput(Throughput::Bytes(fragment.len() as u64));
    group.bench_function("fragment-128", |b| b.iter(|| sha1(&fragment)));
    let (left, right) = (sha1(b"left"), sha1(b"right"));
    group.throughput(Throughput::Bytes(40));
    group.bench_function("combine-40", |b| b.iter(|| combine(&left, &right)));
    group.finish();
}

/// The acceptance gate of the SP-table rewrite: 3DES block decryption,
/// fast vs retained reference, same payload. The ratio of the
/// `bytes_per_sec` entries in `BENCH_crypto.json` is the speedup.
///
/// * `sp-table`: one block per call, so one kernel lane — the latency
///   bound rate.
/// * `two-lane`: the same 1024 blocks deciphered in place as one ECB run,
///   two interleaved blocks per kernel call.
/// * `reference`: the bit-by-bit FIPS path.
///
/// Which rate a workload pays depends on how many blocks each cipher call
/// gets. In perfbench's view-rules mix (ECB, seed 1), 68% of the blocks
/// sessions decipher come in one-block calls; in view-integrity
/// (ECB-MHT, one call per run of still-ciphertext blocks), 54% do, so
/// sessions pay mostly the one-lane rate. Publishing encrypts 256-block
/// chunks, so it pays the two-lane rate.
fn bench_fast_vs_reference(c: &mut Criterion) {
    let raw_key = *b"bench-key-bench-key-24!!";
    let fast = TripleDes::new(raw_key);
    let slow = reference::TripleDes::new(raw_key);
    let blocks: Vec<u64> = (0..1024u64).map(|i| i.wrapping_mul(0x9E37_79B9_7F4A_7C15)).collect();
    let mut group = c.benchmark_group("crypto/3des-decrypt");
    group.throughput(Throughput::Bytes(blocks.len() as u64 * 8));
    group.bench_function("sp-table", |b| {
        b.iter(|| blocks.iter().fold(0u64, |acc, &x| acc ^ fast.decrypt_block(x)))
    });
    let mut run: Vec<u8> = blocks.iter().flat_map(|x| x.to_be_bytes()).collect();
    group.bench_function("two-lane", |b| {
        b.iter(|| {
            ecb_decrypt_in_place(&fast, &mut run);
            run[0]
        })
    });
    group.bench_function("reference", |b| {
        b.iter(|| blocks.iter().fold(0u64, |acc, &x| acc ^ slow.decrypt_block(x)))
    });
    group.finish();
}

fn bench_protected_reads(c: &mut Criterion) {
    let k = key();
    let data: Vec<u8> = (0..256 * 1024).map(|i| (i % 251) as u8).collect();
    let mut group = c.benchmark_group("crypto/random-read-4k");
    group.throughput(Throughput::Bytes(4096));
    for scheme in IntegrityScheme::ALL {
        let doc = ProtectedDoc::protect(&data, &k, scheme, ChunkLayout::default());
        group.bench_with_input(BenchmarkId::from_parameter(scheme.name()), &doc, |b, doc| {
            let mut offset = 0usize;
            b.iter(|| {
                let mut r = SoeReader::new(doc, &k);
                offset = (offset + 37 * 1024) % (200 * 1024);
                r.read(offset, 4096).unwrap().len()
            })
        });
    }
    group.finish();
}

/// ECB-MHT fragment fetches with the chunk's Merkle tree cached on the
/// terminal side and its digest decrypted.
///
/// * `warm-read-8`: an 8-byte read of the next fragment, cycling through
///   one chunk, so every read fetches. After the first lap the SOE has
///   authenticated the whole tree: the floor of a fetch — hash the
///   128-byte fragment, compare it with its trusted leaf digest, decipher
///   one block; no proof.
/// * `sequential-chunk-scan`: an 8-byte read of each of the 16 fragments
///   of a chunk, in order, alternating between two chunks so every scan
///   starts from the chunk digest alone: one digest decryption, 16
///   fragment hashes and the 15 proof digests (and combines) a
///   sequential scan needs.
///
/// `ns_per_iter` is the verify cost that the perfbench trace's
/// `crypto.hash_ms` is read against.
fn bench_mht_fragment(c: &mut Criterion) {
    let k = key();
    let data: Vec<u8> = (0..4096).map(|i| (i % 251) as u8).collect();
    let doc = ProtectedDoc::protect(&data, &k, IntegrityScheme::EcbMht, ChunkLayout::default());
    let (fs, fragments) = (doc.layout.fragment_size, doc.layout.fragments_per_chunk());
    let chunk = doc.layout.chunk_size;
    let mut r = SoeReader::new(&doc, &k);
    r.read(chunk, 8).unwrap(); // builds chunk 1's tree
    r.read(0, 8).unwrap(); // builds chunk 0's tree, deciphers its digest
    let mut group = c.benchmark_group("crypto/mht-fragment");
    group.throughput(Throughput::Bytes(fs as u64));
    group.bench_function("warm-read-8", |b| {
        let mut f = 0;
        b.iter(|| {
            // A different fragment every time, so every read fetches.
            f = (f + 1) % fragments;
            r.read(f * fs, 8).unwrap()[0]
        })
    });
    group.throughput(Throughput::Bytes(chunk as u64));
    group.bench_function("sequential-chunk-scan", |b| {
        let mut base = 0;
        b.iter(|| {
            base = chunk - base;
            (0..fragments).map(|f| r.read(base + f * fs, 8).unwrap()[0]).fold(0u8, |a, x| a ^ x)
        })
    });
    group.finish();
}

criterion_group!(
    benches,
    bench_primitives,
    bench_sha1_sizes,
    bench_fast_vs_reference,
    bench_protected_reads,
    bench_mht_fragment
);
criterion_main!(benches);
