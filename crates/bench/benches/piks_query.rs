//! E2 bench: personalized keyword-suggestion latency vs `k` and candidate
//! pool size.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use octopus_bench::workloads::{citation_small, prolific_users, user_keywords};
use octopus_core::piks::{GreedyPiks, InfluencerIndex, PiksConfig, PiksWorldsView};
use octopus_topics::KeywordId;

fn bench_suggest_vs_k(c: &mut Criterion) {
    let net = citation_small();
    let raw = InfluencerIndex::build(&net.graph, 1024, 7).to_bytes();
    let index = PiksWorldsView::parse(&raw).expect("fresh encoding parses");
    let engine = GreedyPiks::new(&net.graph, &net.model, index, PiksConfig::default());
    let target = prolific_users(&net, 1)[0];
    let pool = user_keywords(&net)[&target].clone();
    let mut group = c.benchmark_group("e2_piks_vs_k");
    group.sample_size(10);
    group.warm_up_time(std::time::Duration::from_millis(500));
    group.measurement_time(std::time::Duration::from_secs(2));
    for k in [1usize, 2, 3] {
        group.bench_with_input(BenchmarkId::from_parameter(k), &k, |b, &k| {
            b.iter(|| {
                engine
                    .suggest(std::hint::black_box(target), &pool, k)
                    .unwrap()
            })
        });
    }
    group.finish();
}

fn bench_suggest_vs_pool(c: &mut Criterion) {
    let net = citation_small();
    let raw = InfluencerIndex::build(&net.graph, 1024, 7).to_bytes();
    let index = PiksWorldsView::parse(&raw).expect("fresh encoding parses");
    let engine = GreedyPiks::new(&net.graph, &net.model, index, PiksConfig::default());
    let target = prolific_users(&net, 1)[0];
    let full: Vec<KeywordId> = (0..net.model.vocab_size())
        .map(|i| KeywordId(i as u32))
        .collect();
    let mut group = c.benchmark_group("e2_piks_vs_pool");
    group.sample_size(10);
    group.warm_up_time(std::time::Duration::from_millis(500));
    group.measurement_time(std::time::Duration::from_secs(2));
    for pool_size in [8usize, 32, 128] {
        let pool: Vec<KeywordId> = full.iter().copied().take(pool_size).collect();
        group.bench_with_input(BenchmarkId::from_parameter(pool_size), &pool, |b, pool| {
            b.iter(|| {
                engine
                    .suggest(target, std::hint::black_box(pool), 2)
                    .unwrap()
            })
        });
    }
    group.finish();
}

criterion_group!(benches, bench_suggest_vs_k, bench_suggest_vs_pool);
criterion_main!(benches);
