//! Criterion bench: network inference and training-step cost — the
//! dominant term of MapZero's compile time ("most of the time overhead
//! lies in the network inference", §3.6.2).

use criterion::{criterion_group, criterion_main, Criterion};
use mapzero_core::embed::observe;
use mapzero_core::network::{MapZeroNet, NetConfig, TrainSample};
use mapzero_core::{MapEnv, Problem};

fn bench_nn(c: &mut Criterion) {
    let dfg = mapzero_dfg::suite::by_name("conv3").expect("kernel exists");
    let cgra = mapzero_arch::presets::hrea();
    let mii = Problem::mii(&dfg, &cgra).expect("mappable");
    let problem = Problem::new(&dfg, &cgra, mii).expect("schedulable");
    let env = MapEnv::new(&problem);
    let obs = observe(&env);

    let mut group = c.benchmark_group("network");
    group.sample_size(20);
    for (label, config) in [("tiny", NetConfig::tiny()), ("default", NetConfig::default())] {
        let net = MapZeroNet::new(cgra.pe_count(), config);
        group.bench_function(format!("predict_{label}"), |b| {
            b.iter(|| std::hint::black_box(net.predict(&obs)));
        });
    }
    let mut net = MapZeroNet::new(cgra.pe_count(), NetConfig::tiny());
    let sample = TrainSample {
        observation: obs,
        policy: vec![1.0 / 16.0; 16],
        value: 0.25,
    };
    let batch: Vec<TrainSample> = (0..8).map(|_| sample.clone()).collect();
    group.bench_function("train_batch8_tiny", |b| {
        b.iter(|| std::hint::black_box(net.train_batch(&batch, 1e-3, 5.0)));
    });
    group.finish();
}

criterion_group!(benches, bench_nn);
criterion_main!(benches);
