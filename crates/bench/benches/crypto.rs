//! Criterion: crypto primitive throughput (3DES, SHA-1, protected
//! reads), including the SP-table vs bit-by-bit reference comparison
//! that gates the fast path. Results land in `BENCH_crypto.json`.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use xsac_crypto::chunk::{ChunkLayout, ProtectedDoc};
use xsac_crypto::des::reference;
use xsac_crypto::modes::{posxor_decrypt, posxor_decrypt_in_place, posxor_encrypt};
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
    group.bench_function("3des-posxor-encrypt", |b| b.iter(|| posxor_encrypt(&k, &data, 0)));
    let enc = posxor_encrypt(&k, &data, 0);
    group.bench_function("3des-posxor-decrypt", |b| b.iter(|| posxor_decrypt(&k, &enc, 0)));
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

/// The acceptance gate of the SP-table rewrite: 3DES block decryption,
/// fast vs retained reference, same payload. The ratio of the two
/// `bytes_per_sec` entries in `BENCH_crypto.json` is the speedup.
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

/// One warm ECB-MHT fragment fetch: an 8-byte read that misses the
/// working buffer but finds the chunk's Merkle tree and digest cached —
/// hash the 128-byte fragment, recombine a log-size proof, decipher one
/// block. `ns_per_iter` is the per-fragment verify cost that the
/// perfbench trace's `crypto.hash_ms` is read against.
fn bench_mht_fragment(c: &mut Criterion) {
    let k = key();
    let data: Vec<u8> = (0..2048).map(|i| (i % 251) as u8).collect();
    let doc = ProtectedDoc::protect(&data, &k, IntegrityScheme::EcbMht, ChunkLayout::default());
    let (fs, fragments) = (doc.layout.fragment_size, doc.layout.fragments_per_chunk());
    let mut r = SoeReader::new(&doc, &k);
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
    group.finish();
}

criterion_group!(
    benches,
    bench_primitives,
    bench_fast_vs_reference,
    bench_protected_reads,
    bench_mht_fragment
);
criterion_main!(benches);
