//! `quick-suite`: `repro --quick all` — every experiment through
//! `run_experiment` on a fresh `Engine` over the quick configuration.
//!
//! Set-up generates the eight quick traces into a shared `TraceSet`
//! (what `repro` does before its first experiment). Each timed suite
//! builds a fresh engine over that set, prewarms it as `repro` does for a
//! multi-experiment run, and renders all 17 experiments in `repro`'s
//! order. Every rendering is fingerprinted: at the default seed against
//! `tests/goldens/quick.fp`, at any seed against the run's first suite.

use std::sync::Arc;
use std::time::Instant;

use bp_experiments::goldens::{self, Goldens};
use bp_experiments::{
    run_experiment, CacheStats, Engine, ExperimentConfig, TraceSet, EXPERIMENT_IDS,
};
use bp_workloads::Benchmark;

use crate::{median, Ctx, Outcome, RssSampler, DEFAULT_SEED};

/// Set-ups before the window; one more follows every suite, so the
/// median of `setup_s` spans the whole run and not only its first
/// fraction of a second.
const SETUPS: usize = 3;
const MIN_SUITES: usize = 3;

/// One set-up: the quick traces generated into a fresh `TraceSet`.
fn set_up(ctx: &mut Ctx, cfg: &ExperimentConfig, setup_s: &mut Vec<f64>) -> Arc<TraceSet> {
    let jobs = ctx.jobs;
    let root = ctx.spans.begin("setup");
    let t0 = Instant::now();
    let traces = Arc::new(TraceSet::new(cfg.workload));
    ctx.spans
        .time("workloads.gen", || traces.generate_all(jobs));
    setup_s.push(t0.elapsed().as_secs_f64());
    ctx.spans.end(root);
    traces
}

pub fn run(ctx: &mut Ctx) -> Outcome {
    let mut out = Outcome {
        roots: vec!["suite"],
        ..Outcome::default()
    };
    let mut cfg = ExperimentConfig::quick();
    cfg.workload.seed = ctx.seed;
    let jobs = ctx.jobs;

    let mut setup_s = Vec::new();
    let mut traces = set_up(ctx, &cfg, &mut setup_s);
    for _ in 1..SETUPS {
        traces = set_up(ctx, &cfg, &mut setup_s);
    }
    let records: u64 = Benchmark::ALL
        .iter()
        .map(|&b| traces.trace(b).len() as u64)
        .sum();

    let committed = if ctx.seed == DEFAULT_SEED {
        match Goldens::load(&goldens::default_path()).and_then(|g| {
            g.check_config(&cfg)?;
            Ok(g)
        }) {
            Ok(g) => Some(g),
            Err(e) => {
                out.problem(format!("cannot use the committed goldens: {e}"));
                None
            }
        }
    } else {
        None
    };

    let span_names: Vec<String> = EXPERIMENT_IDS
        .iter()
        .map(|id| format!("experiments.{id}"))
        .collect();
    let mut suite_s = Vec::new();
    let mut first_fps: Option<Vec<u64>> = None;
    let mut first_cache: Option<CacheStats> = None;
    let rss = RssSampler::start();
    let mut rss_mib = Vec::new();
    ctx.start_window();
    while ctx.measuring(suite_s.len(), MIN_SUITES) {
        rss.take_mib();
        let engine = Engine::new(Arc::clone(&traces), jobs);
        let root = ctx.spans.begin("suite");
        let t0 = Instant::now();
        ctx.spans.time("engine.prewarm", || engine.prewarm(&cfg));
        let rendered: Vec<Option<String>> = EXPERIMENT_IDS
            .iter()
            .zip(&span_names)
            .map(|(id, name)| ctx.spans.time(name, || run_experiment(id, &cfg, &engine)))
            .collect();
        suite_s.push(t0.elapsed().as_secs_f64());
        ctx.spans.end(root);
        rss_mib.push(rss.take_mib());

        let fps: Vec<u64> = rendered
            .iter()
            .map(|r| r.as_deref().map_or(0, goldens::fingerprint))
            .collect();
        for (i, id) in EXPERIMENT_IDS.iter().enumerate() {
            let problem = match (&rendered[i], &committed, &first_fps) {
                (None, _, _) => Some(format!("{id}: run_experiment returned nothing")),
                (Some(r), Some(g), _) => g.verify(id, r).err().map(|m| m.to_string()),
                (Some(_), None, Some(first)) if first[i] != fps[i] => Some(format!(
                    "{id}: fingerprint {:016x} differs from the first suite's {:016x}",
                    fps[i], first[i]
                )),
                _ => None,
            };
            out.check(problem);
        }
        first_fps.get_or_insert(fps);
        let cache = engine.cache_stats();
        match first_cache {
            Some(first) if first != cache => out.problem(format!(
                "engine cache counts moved between suites: {first:?} then {cache:?}"
            )),
            _ => first_cache = Some(cache),
        }
        drop(engine);
        set_up(ctx, &cfg, &mut setup_s);
    }

    out.e2e("setup_s", median(&setup_s), "s");
    out.e2e("peak_rss_mib", median(&rss_mib), "MiB");
    let suite_ms: Vec<f64> = suite_s.iter().map(|s| s * 1e3).collect();
    out.latencies(&suite_ms);
    out.detail("suite_s", median(&suite_s), "s");

    if ctx.spans.on() {
        out.layer(
            "workloads.gen_s",
            median(&ctx.spans.per_root("setup", "workloads.gen")),
            "s",
        );
        out.layer("workloads.records", records as f64, "count");
        for (id, name) in EXPERIMENT_IDS.iter().zip(&span_names) {
            out.detail(
                &format!("experiments.{id}_s"),
                median(&ctx.spans.per_root("suite", name)),
                "s",
            );
        }
        let cache = first_cache.unwrap_or_default();
        out.detail("engine.cache_hits", cache.hits as f64, "count");
        out.detail("engine.cache_misses", cache.misses as f64, "count");
        let base = (cache.hits + cache.misses).max(1) as f64;
        out.detail("engine.hit_ratio", cache.hits as f64 / base, "ratio");
    }
    out
}
