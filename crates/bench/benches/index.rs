//! Criterion: skip-index encode/decode throughput and skipping gains.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use xsac_datagen::Dataset;
use xsac_index::decode::{CursorDecoder, SliceSource};
use xsac_index::encode::{encode_document, Encoding};
use xsac_xml::Event;

fn bench_encode(c: &mut Criterion) {
    let doc = Dataset::Hospital.generate(0.05, 42);
    let bytes = xsac_xml::writer::document_to_string(&doc).len() as u64;
    let mut group = c.benchmark_group("index/encode");
    group.throughput(Throughput::Bytes(bytes));
    for enc in [Encoding::TC, Encoding::TCS, Encoding::TCSB, Encoding::TCSBR] {
        group.bench_with_input(BenchmarkId::from_parameter(enc.name()), &enc, |b, &enc| {
            b.iter(|| encode_document(&doc, enc).bytes.len())
        });
    }
    group.finish();
}

fn bench_decode_full(c: &mut Criterion) {
    let doc = Dataset::Hospital.generate(0.05, 42);
    let enc = encode_document(&doc, Encoding::TCSBR);
    let mut group = c.benchmark_group("index/decode");
    group.throughput(Throughput::Bytes(enc.bytes.len() as u64));
    group.bench_function("full-scan", |b| {
        b.iter(|| {
            let mut d = CursorDecoder::new(SliceSource(&enc.bytes), doc.dict.len()).unwrap();
            let mut n = 0usize;
            while d.next().unwrap().is_some() {
                n += 1;
            }
            n
        })
    });
    group.bench_function("skip-folders", |b| {
        // Skip every depth-2 subtree: the decoder should fly through.
        b.iter(|| {
            let mut d = CursorDecoder::new(SliceSource(&enc.bytes), doc.dict.len()).unwrap();
            let mut n = 0usize;
            while let Some(event) = d.next().unwrap() {
                if matches!(event, Event::Open(_)) && d.depth() == 2 {
                    d.skip_current();
                    n += 1;
                }
            }
            n
        })
    });
    group.finish();
}

criterion_group!(benches, bench_encode, bench_decode_full);
criterion_main!(benches);
