//! Criterion view of the simulator-core microbenches (`bench core`
//! is the gated driver; this harness gives per-iteration timings).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use hpcc_bench::core_suite::CORE_BENCHES;

fn bench_core_suite(c: &mut Criterion) {
    let mut group = c.benchmark_group("sim_core");
    group.sample_size(10);
    for def in CORE_BENCHES {
        // Criterion re-runs each closure many times; scale the workload
        // down so one iteration stays in the low-millisecond range.
        let ops = (def.quick_ops / 10).max(1_000);
        group.bench_with_input(BenchmarkId::from_parameter(def.name), &ops, |b, &ops| {
            b.iter(|| std::hint::black_box((def.run)(ops)))
        });
    }
    group.finish();
}

criterion_group!(benches, bench_core_suite);
criterion_main!(benches);
