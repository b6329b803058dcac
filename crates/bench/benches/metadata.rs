//! Criterion micro-benchmarks of metadata record encode/decode — the
//! fixed CPU overhead attached to every partial parity log and WAL entry.

use criterion::{criterion_group, criterion_main, Criterion};
use raizn::{MdPayloadRef, MdRecord, MdRecordRef};
use std::hint::black_box;

fn bench_encode(c: &mut Criterion) {
    let mut g = c.benchmark_group("md_record");
    g.sample_size(20);
    // Encoded the way the volume does: borrowed payload, pooled buffer.
    let mut bytes = Vec::new();
    let parity = vec![0x7Fu8; 16 * 4096];
    let pp = MdRecordRef::new(
        MdPayloadRef::PartialParity {
            first_row: 0,
            data: &parity,
        },
        false,
        1024,
        1040,
        3,
    );
    g.bench_function("encode_pp_64k", |b| {
        b.iter(|| {
            black_box(pp).encode_into(&mut bytes);
            black_box(bytes.len())
        });
    });
    let (h, p) = bytes.split_at(4096);
    g.bench_function("decode_pp_64k", |b| {
        b.iter(|| black_box(MdRecord::decode(h, p).expect("decode")));
    });
    let counters: Vec<u64> = (0..508).collect();
    let gens = MdRecordRef::new(
        MdPayloadRef::GenCounters {
            first_zone: 0,
            counters: &counters,
        },
        false,
        0,
        0,
        0,
    );
    let mut page = Vec::new();
    g.bench_function("encode_gen_page", |b| {
        b.iter(|| {
            black_box(gens).encode_into(&mut page);
            black_box(page.len())
        });
    });
    g.finish();
}

criterion_group!(benches, bench_encode);
criterion_main!(benches);
