//! Criterion bench for Q4: simulation throughput of the §6 scenarios
//! (the `quant4` binary prints the logical-time comparison table).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use hpcc_core::scenarios::{self, common::ClusterConfig, common::MixedWorkload};

fn bench_scenarios(c: &mut Criterion) {
    let cfg = ClusterConfig { nodes: 8 };
    let wl = MixedWorkload::generate(1, 3, 8, &cfg);
    // Warm the measured-startup cache outside the timing loop.
    scenarios::common::measured_container_startup();

    let mut group = c.benchmark_group("scenario_sim");
    group.sample_size(10);
    let tracer = hpcc_sim::Tracer::disabled();
    for (name, run) in scenarios::ALL {
        group.bench_with_input(BenchmarkId::from_parameter(name), &run, |b, run| {
            b.iter(|| std::hint::black_box(run(&cfg, &wl, &tracer)))
        });
    }
    group.finish();
}

criterion_group!(benches, bench_scenarios);
criterion_main!(benches);
