//! `predictor-zoo`: every predictor of the zoo in one
//! `simulate_batch_source` pass over a BPT2 file of gcc.
//!
//! Set-up writes gcc once to a BPT2 file. Each timed batch runs all 16
//! predictors over the file source. The traced run adds a no-op scan of
//! the file and each predictor alone through `simulate_per_branch` over
//! the in-memory trace. Every batch's per-predictor totals must equal the
//! values recorded for the seed in `expected/zoo.tsv` (when recorded) and
//! the totals each predictor reaches alone over the in-memory trace.

use std::io::BufWriter;
use std::path::Path;
use std::time::Instant;

use bp_predictors::{
    simulate, simulate_batch_source, simulate_per_branch, BlockPattern, Gag, Gas, Gshare,
    GshareInterferenceFree, Gskew, Hybrid, KthAgo, LoopPredictor, Pag, Pas, PasInterferenceFree,
    PathBased, Perceptron, PredictionStats, Predictor, Smith, Tage,
};
use bp_trace::io::{ChunkWriter, FileTraceSource, TraceIoError};
use bp_trace::TraceSource;
use bp_workloads::{Benchmark, WorkloadConfig};

use crate::counted::Counted;
use crate::{median, Ctx, Outcome, RssSampler};

/// Conditional branches in the trace file.
const TARGET: usize = 1_000_000;
/// Set-ups before the window; one more, into a file of its own, follows
/// every batch, so the median of `setup_s` spans the whole run.
const SETUPS: usize = 3;
const MIN_BATCHES: usize = 5;
const BENCH: Benchmark = Benchmark::Gcc;

/// Per-seed totals recorded from earlier runs: `seed name correct predictions`.
const EXPECTED: &str = include_str!("../expected/zoo.tsv");

/// The zoo, by metric name: every member of the two-level family plus
/// the other designs the repository models.
fn zoo() -> Vec<(&'static str, Box<dyn Predictor>)> {
    vec![
        ("smith", Box::new(Smith::default())),
        ("gag", Box::new(Gag::default())),
        ("gas", Box::new(Gas::default())),
        ("gshare", Box::new(Gshare::default())),
        ("if_gshare", Box::new(GshareInterferenceFree::default())),
        ("pag", Box::new(Pag::default())),
        ("pas", Box::new(Pas::default())),
        ("if_pas", Box::new(PasInterferenceFree::default())),
        ("path", Box::new(PathBased::default())),
        ("gskew", Box::new(Gskew::default())),
        ("loop", Box::new(LoopPredictor::new())),
        ("kago", Box::new(KthAgo::new(8))),
        ("block", Box::new(BlockPattern::new())),
        (
            "hybrid",
            Box::new(Hybrid::new(Gshare::default(), Pas::default(), 12)),
        ),
        ("tage", Box::new(Tage::default())),
        ("perceptron", Box::new(Perceptron::default())),
    ]
}

fn write_trace(cfg: &WorkloadConfig, path: &Path) -> Result<u64, TraceIoError> {
    let file = std::fs::File::create(path)?;
    BENCH
        .generate_into(cfg, ChunkWriter::new(BufWriter::new(file))?)
        .finish()
}

/// One set-up: gcc written to a BPT2 file at `path` and opened.
fn set_up(
    ctx: &mut Ctx,
    cfg: &WorkloadConfig,
    path: &Path,
    setup_s: &mut Vec<f64>,
) -> Result<FileTraceSource, TraceIoError> {
    let root = ctx.spans.begin("setup");
    let t0 = Instant::now();
    let written = ctx.spans.time("workloads.gen", || write_trace(cfg, path));
    let source = written.and_then(|_| FileTraceSource::open(path));
    setup_s.push(t0.elapsed().as_secs_f64());
    ctx.spans.end(root);
    source
}

fn expected_for(seed: u64, name: &str) -> Option<(u64, u64)> {
    EXPECTED.lines().find_map(|line| {
        let f: Vec<&str> = line.split_whitespace().collect();
        match f[..] {
            [s, n, correct, predictions] if s.parse() == Ok(seed) && n == name => {
                Some((correct.parse().ok()?, predictions.parse().ok()?))
            }
            _ => None,
        }
    })
}

pub fn run(ctx: &mut Ctx) -> Outcome {
    let mut out = Outcome {
        roots: vec!["batch", "scan", "alone"],
        ..Outcome::default()
    };
    let cfg = WorkloadConfig::default()
        .with_seed(ctx.seed)
        .with_target(TARGET);
    let path = ctx.out_dir.join("gcc.bpt2");
    let spare_path = ctx.out_dir.join("gcc-setup.bpt2");

    let mut setup_s = Vec::new();
    let mut opened = set_up(ctx, &cfg, &path, &mut setup_s);
    for _ in 1..SETUPS {
        opened = set_up(ctx, &cfg, &path, &mut setup_s);
    }
    let source = match opened {
        Ok(s) => Counted::new(s),
        Err(e) => {
            out.problem(format!("cannot write or open {}: {e}", path.display()));
            return out;
        }
    };
    let records = source.len_hint().unwrap_or(0);

    // The independent reference: each predictor alone over the trace
    // generated in memory, with no BPT2 encode or decode in between.
    let trace = BENCH.generate(&cfg);
    let alone: Vec<PredictionStats> = zoo()
        .into_iter()
        .map(|(_, mut p)| simulate(&mut *p, &trace))
        .collect();
    let names: Vec<&str> = zoo().iter().map(|(n, _)| *n).collect();
    let conditionals = alone[0].predictions;
    for (name, stats) in names.iter().zip(&alone) {
        eprintln!(
            "zoo-total\t{}\t{name}\t{}\t{}",
            ctx.seed, stats.correct, stats.predictions
        );
        if let Some((correct, predictions)) = expected_for(ctx.seed, name) {
            out.check(
                ((correct, predictions) != (stats.correct, stats.predictions)).then(|| {
                    format!(
                        "{name} alone: {}/{} correct, recorded {correct}/{predictions}",
                        stats.correct, stats.predictions
                    )
                }),
            );
        }
    }

    let span_names: Vec<String> = names.iter().map(|n| format!("predictors.{n}")).collect();
    let mut batch_s = Vec::new();
    let mut passes = Vec::new();
    let rss = RssSampler::start();
    let mut rss_mib = Vec::new();
    ctx.start_window();
    while ctx.measuring(batch_s.len(), MIN_BATCHES) {
        let mut predictors: Vec<Box<dyn Predictor>> = zoo().into_iter().map(|(_, p)| p).collect();
        let before = source.counts();
        rss.take_mib();
        let root = ctx.spans.begin("batch");
        let t0 = Instant::now();
        let results = ctx.spans.time("predictors.batch", || {
            simulate_batch_source(&mut predictors, &source)
        });
        batch_s.push(t0.elapsed().as_secs_f64());
        ctx.spans.end(root);
        passes.push(source.counts().since(before));
        rss_mib.push(rss.take_mib());

        match results {
            Ok(results) => {
                for ((name, got), want) in names.iter().zip(&results).zip(&alone) {
                    let got = got.total();
                    out.check((got != *want).then(|| {
                        format!(
                            "{name} in the batch: {}/{} correct, alone {}/{}",
                            got.correct, got.predictions, want.correct, want.predictions
                        )
                    }));
                }
            }
            Err(e) => out.check(Some(format!("batch scan failed: {e}"))),
        }

        if ctx.spans.on() {
            let root = ctx.spans.begin("scan");
            let scanned = ctx.spans.time("trace.scan", || source.scan(&mut |_| {}));
            ctx.spans.end(root);
            if let Err(e) = scanned {
                out.problem(format!("no-op scan failed: {e}"));
            }
            let root = ctx.spans.begin("alone");
            for ((_, mut p), name) in zoo().into_iter().zip(&span_names) {
                ctx.spans
                    .time(name, || simulate_per_branch(&mut *p, &trace));
            }
            ctx.spans.end(root);
        }
        if let Err(e) = set_up(ctx, &cfg, &spare_path, &mut setup_s) {
            out.problem(format!(
                "cannot write or open {}: {e}",
                spare_path.display()
            ));
        }
    }
    let _ = std::fs::remove_file(&path);
    let _ = std::fs::remove_file(&spare_path);

    if passes.iter().any(|p| p.passes != 1 || p.records != records) {
        out.problem(format!(
            "a batch did not make exactly one pass over {records} records"
        ));
    }
    let per_branch = |secs: f64| secs * 1e9 / conditionals.max(1) as f64;
    out.e2e("setup_s", median(&setup_s), "s");
    out.e2e("peak_rss_mib", median(&rss_mib), "MiB");
    let batch_ms: Vec<f64> = batch_s.iter().map(|s| s * 1e3).collect();
    out.latencies(&batch_ms);
    out.detail("zoo_ns_per_branch", per_branch(median(&batch_s)), "ns");

    if ctx.spans.on() {
        out.layer(
            "workloads.gen_s",
            median(&ctx.spans.per_root("setup", "workloads.gen")),
            "s",
        );
        out.layer("workloads.records", records as f64, "count");
        out.detail(
            "trace.scan_s",
            median(&ctx.spans.per_root("scan", "trace.scan")),
            "s",
        );
        out.detail(
            "trace.passes",
            passes.first().map_or(0, |p| p.passes) as f64,
            "count",
        );
        out.detail(
            "trace.records_scanned",
            passes.first().map_or(0, |p| p.records) as f64,
            "count",
        );
        for (name, span) in names.iter().zip(&span_names) {
            out.detail(
                &format!("predictors.{name}.ns_per_branch"),
                per_branch(median(&ctx.spans.per_root("alone", span))),
                "ns",
            );
        }
    }
    out
}
