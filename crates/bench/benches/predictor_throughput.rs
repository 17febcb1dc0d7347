//! Predictor throughput: time to simulate every predictor over a fixed
//! workload trace (lower = faster predictor implementation), plus the
//! whole zoo in one batch at 1 thread and at available parallelism.

use criterion::{criterion_group, criterion_main, Criterion};
use std::hint::black_box;

use bp_bench::bench_trace;
use bp_predictors::{
    default_zoo, simulate, simulate_batch_parallel, BlockPattern, Gas, Gshare,
    GshareInterferenceFree, Hybrid, KthAgo, LoopPredictor, Pas, PasInterferenceFree, PathBased,
    Perceptron, Predictor, Smith, StaticTaken, Tage,
};

fn bench_predictors(c: &mut Criterion) {
    let trace = bench_trace();
    let mut group = c.benchmark_group("predictor_throughput");
    group.sample_size(20);

    macro_rules! bench {
        ($name:expr, $make:expr) => {
            group.bench_function($name, |b| {
                b.iter(|| {
                    let mut p = $make;
                    black_box(simulate(&mut p, black_box(&trace)))
                })
            });
        };
    }

    bench!("static_taken", StaticTaken);
    bench!("smith", Smith::default());
    bench!("gshare", Gshare::default());
    bench!("if_gshare", GshareInterferenceFree::default());
    bench!("gas", Gas::default());
    bench!("pas", Pas::default());
    bench!("if_pas", PasInterferenceFree::default());
    bench!("path_based", PathBased::default());
    bench!("loop", LoopPredictor::new());
    bench!("kth_ago", KthAgo::new(8));
    bench!("block_pattern", BlockPattern::new());
    bench!(
        "hybrid_gshare_pas",
        Hybrid::new(Gshare::default(), Pas::default(), 12)
    );
    bench!("tage", Tage::default());
    bench!("perceptron", Perceptron::default());

    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    for (name, threads) in [("zoo_batch_1_thread", 1), ("zoo_batch_all_cores", cores)] {
        group.bench_function(name, |b| {
            b.iter(|| {
                let mut zoo = default_zoo();
                black_box(simulate_batch_parallel(
                    &mut zoo,
                    black_box(&trace),
                    threads,
                ))
            })
        });
    }

    // Sanity: the names stay distinct (catches copy-paste in the table).
    let names: Vec<String> = vec![
        StaticTaken.name(),
        Smith::default().name(),
        Gshare::default().name(),
    ];
    assert_eq!(
        names.len(),
        names.iter().collect::<std::collections::HashSet<_>>().len()
    );

    group.finish();
}

criterion_group!(benches, bench_predictors);
criterion_main!(benches);
