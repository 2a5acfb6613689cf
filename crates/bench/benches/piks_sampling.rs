//! E6 bench: spread-estimation cost — the influencer index (shared coins,
//! lazy materialization) vs Monte-Carlo and RR sampling from scratch.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use octopus_bench::workloads::{citation_small, prolific_users};
use octopus_cascade::{estimate_spread, RrCollection};
use octopus_core::piks::{InfluencerIndex, PiksWorldsView};

fn bench_estimation_methods(c: &mut Criterion) {
    let net = citation_small();
    let gamma = net.model.infer_str("data mining").expect("resolves");
    let probs = net.graph.materialize(gamma.as_slice()).expect("dims");
    let target = prolific_users(&net, 1)[0];
    let mut group = c.benchmark_group("e6_single_user_spread");
    group.sample_size(10);
    group.warm_up_time(std::time::Duration::from_millis(500));
    group.measurement_time(std::time::Duration::from_secs(2));

    group.bench_function("mc_2000_from_scratch", |b| {
        b.iter(|| estimate_spread(&net.graph, &probs, &[std::hint::black_box(target)], 2000, 7))
    });

    group.bench_function("rr_4000_from_scratch", |b| {
        b.iter(|| {
            let rr = RrCollection::generate(&net.graph, &probs, 4000, 11);
            rr.estimate_spread(&[std::hint::black_box(target)])
        })
    });

    for r in [512usize, 2048] {
        let raw = InfluencerIndex::build(&net.graph, r, 13).to_bytes();
        let index = PiksWorldsView::parse(&raw).expect("fresh encoding parses");
        group.bench_with_input(
            BenchmarkId::new("index_fresh_session", r),
            &index,
            |b, index| {
                b.iter(|| {
                    let mut s = index.session(&net.graph, &gamma);
                    s.spread_of(std::hint::black_box(target))
                })
            },
        );
    }
    group.finish();
}

fn bench_index_build(c: &mut Criterion) {
    let net = citation_small();
    let mut group = c.benchmark_group("e6_index_build");
    group.sample_size(10);
    group.warm_up_time(std::time::Duration::from_millis(500));
    group.measurement_time(std::time::Duration::from_secs(2));
    for r in [512usize, 2048] {
        group.bench_with_input(BenchmarkId::from_parameter(r), &r, |b, &r| {
            b.iter(|| InfluencerIndex::build(std::hint::black_box(&net.graph), r, 13))
        });
    }
    group.finish();
}

criterion_group!(benches, bench_estimation_methods, bench_index_build);
criterion_main!(benches);
