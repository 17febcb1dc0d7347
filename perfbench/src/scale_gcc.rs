//! `scale-gcc`: one streamed `scale` run of gcc, cold, then a warm rerun.
//!
//! The cold pass builds the branch streams, oracle candidates and
//! outcome matrix from a regenerating workload source into a fresh
//! `ArtifactStore`, then classifies and runs oracle select. The warm pass
//! re-opens both `.bps` files by mmap and runs only classify and select.
//! Both render the summary `scale` prints; the two must be byte-identical
//! to each other and to the stdout of the `scale` binary itself.

use std::collections::HashMap;
use std::fmt::Write as _;
use std::path::Path;
use std::time::Instant;

use bp_core::{
    Classifier, ClassifierConfig, OracleConfig, OracleSelector, OutcomeMatrix, PaClass,
    TagCandidates,
};
use bp_experiments::artifacts::{matrix_config_fp, streams_config_fp, ArtifactStore};
use bp_experiments::{TraceSet, TraceSetSource};
use bp_trace::{BranchStreams, CountingSink, TagScheme};
use bp_workloads::{Benchmark, WorkloadConfig};

use crate::counted::{Counted, ScanCounts};
use crate::{fresh_dir, median, Ctx, Outcome, RssSampler};

/// Conditional branches per run: 2M, the length ROADMAP item 2 profiles.
const TARGET: usize = 2_000_000;
/// Set-ups before the window; one more, in a directory of its own,
/// follows every pair, so the median of `setup_s` spans the whole run.
const SETUPS: usize = 3;
const MIN_PAIRS: usize = 3;
const BENCH: Benchmark = Benchmark::Gcc;

/// Deterministic work of one cold pass; must repeat exactly.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct ColdCounts {
    passes: u64,
    records_scanned: u64,
    candidates: u64,
    matrix_bytes: u64,
    artifact_bytes: u64,
    oracle_branches: u64,
}

struct Pipeline<'a> {
    cfg: WorkloadConfig,
    oracle: OracleConfig,
    classifier: ClassifierConfig,
    jobs: usize,
    store: &'a ArtifactStore,
    source: &'a Counted<TraceSetSource>,
}

impl Pipeline<'_> {
    fn streams_fp(&self) -> u64 {
        streams_config_fp(BENCH.name(), self.cfg.seed, self.cfg.target_branches)
    }

    fn matrix_fp(&self) -> u64 {
        matrix_config_fp(
            BENCH.name(),
            self.cfg.seed,
            self.cfg.target_branches,
            self.oracle.window,
            self.oracle.candidate_cap,
        )
    }

    fn header(&self) -> String {
        format!(
            "# scale run: bench={} seed={} target={}\n",
            BENCH.name(),
            self.cfg.seed,
            self.cfg.target_branches
        )
    }

    /// Classifies `streams` and appends the class lines `scale` prints.
    fn classify(&self, ctx: &mut Ctx, streams: &BranchStreams, summary: &mut String) {
        let (classification, _) = ctx.spans.time("classify", || {
            Classifier::classify_streams_parallel(streams, &self.classifier, self.jobs)
        });
        let _ = writeln!(summary, "conditionals: {}", streams.dynamic_count());
        let _ = writeln!(summary, "static branches: {}", streams.static_count());
        let dist = classification.dynamic_distribution();
        let mut static_counts: HashMap<PaClass, u64> = HashMap::new();
        for (_, scores) in classification.iter() {
            *static_counts.entry(scores.class()).or_insert(0) += 1;
        }
        for class in PaClass::ALL {
            let _ = writeln!(
                summary,
                "class {}: static={} dynamic={:.6}",
                class.label(),
                static_counts.get(&class).copied().unwrap_or(0),
                dist.get(&class).copied().unwrap_or(0.0)
            );
        }
    }

    /// Runs oracle select over `matrix` and appends its lines.
    fn select(&self, ctx: &mut Ctx, matrix: OutcomeMatrix, summary: &mut String) -> u64 {
        let oracle = ctx.spans.time("oracle.select", || {
            OracleSelector::analyze_matrix_parallel(&matrix, &self.oracle, self.jobs)
        });
        let _ = writeln!(summary, "oracle branches: {}", oracle.branch_count());
        for k in 1..=3 {
            let _ = writeln!(summary, "oracle accuracy k={k}: {:.6}", oracle.accuracy(k));
        }
        oracle.branch_count() as u64
    }

    fn cold(&self, ctx: &mut Ctx) -> Result<(String, ColdCounts), String> {
        let before = self.source.counts();
        let mut summary = self.header();
        let streams = ctx
            .spans
            .time("streams.build", || {
                BranchStreams::from_source_sharded(self.source, self.jobs)
            })
            .map_err(|e| format!("streams scan failed: {e}"))?;
        ctx.spans.time("artifacts.save", || {
            self.store
                .save_streams(BENCH.name(), &streams, self.streams_fp())
        });
        self.classify(ctx, &streams, &mut summary);
        drop(streams);
        let candidates = ctx
            .spans
            .time("candidates.collect", || {
                TagCandidates::collect_from_source_sharded(
                    self.source,
                    self.oracle.window,
                    self.oracle.candidate_cap,
                    &TagScheme::ALL,
                    self.jobs,
                )
            })
            .map_err(|e| format!("candidate scan failed: {e}"))?;
        let matrix = ctx
            .spans
            .time("matrix.build", || {
                OutcomeMatrix::build_from_source_sharded(
                    self.source,
                    &candidates,
                    self.oracle.window,
                    self.jobs,
                )
            })
            .map_err(|e| format!("matrix scan failed: {e}"))?;
        ctx.spans.time("artifacts.save", || {
            self.store.save_matrix(
                BENCH.name(),
                self.oracle.window,
                self.oracle.candidate_cap,
                &matrix,
                self.matrix_fp(),
            )
        });
        let candidate_count = candidates.iter().map(|(_, tags)| tags.len() as u64).sum();
        let matrix_bytes = matrix
            .iter()
            .map(|(_, b)| (b.words() * (1 + 2 * b.tags().len()) * 8) as u64)
            .sum();
        let oracle_branches = self.select(ctx, matrix, &mut summary);
        let scanned = self.source.counts().since(before);
        let artifact_bytes = [
            self.store.streams_path(BENCH.name()),
            self.store
                .matrix_path(BENCH.name(), self.oracle.window, self.oracle.candidate_cap),
        ]
        .iter()
        .map(|p| std::fs::metadata(p).map_or(0, |m| m.len()))
        .sum();
        Ok((
            summary,
            ColdCounts {
                passes: scanned.passes,
                records_scanned: scanned.records,
                candidates: candidate_count,
                matrix_bytes,
                artifact_bytes,
                oracle_branches,
            },
        ))
    }

    fn warm(&self, ctx: &mut Ctx) -> Result<String, String> {
        let mut summary = self.header();
        let (streams, mapped) = ctx
            .spans
            .time("artifacts.load", || {
                self.store.load_streams(BENCH.name(), self.streams_fp())
            })
            .ok_or("warm pass found no streams artifact")?;
        if !mapped {
            return Err("streams artifact was read, not mapped".to_owned());
        }
        self.classify(ctx, &streams, &mut summary);
        drop(streams);
        let (matrix, mapped) = ctx
            .spans
            .time("artifacts.load", || {
                self.store.load_matrix(
                    BENCH.name(),
                    self.oracle.window,
                    self.oracle.candidate_cap,
                    self.matrix_fp(),
                )
            })
            .ok_or("warm pass found no matrix artifact")?;
        if !mapped {
            return Err("matrix artifact was read, not mapped".to_owned());
        }
        self.select(ctx, matrix, &mut summary);
        Ok(summary)
    }
}

/// One set-up in `dir`: an empty artifact store, the streamed source
/// `scale` scans, and one counting generation pass that fixes the record
/// counts the cold passes must reproduce.
fn set_up(
    cfg: &WorkloadConfig,
    dir: &Path,
    setup_s: &mut Vec<f64>,
) -> (
    std::io::Result<ArtifactStore>,
    Counted<TraceSetSource>,
    CountingSink,
) {
    let t0 = Instant::now();
    let store = fresh_dir(dir).and_then(|()| ArtifactStore::open(dir));
    let source = Counted::new(TraceSet::new(*cfg).with_streaming().source(BENCH));
    let counted = BENCH.generate_into(cfg, CountingSink::default());
    setup_s.push(t0.elapsed().as_secs_f64());
    (store, source, counted)
}

/// The stdout of the repository's own `scale` binary for the same run.
fn reference_summary(cfg: &WorkloadConfig, jobs: usize) -> Result<String, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let scale = exe.with_file_name("scale");
    let output = std::process::Command::new(&scale)
        .args(["--bench", BENCH.name()])
        .args(["--target", &cfg.target_branches.to_string()])
        .args(["--seed", &cfg.seed.to_string()])
        .args(["--jobs", &jobs.to_string()])
        .stderr(std::process::Stdio::null())
        .output()
        .map_err(|e| format!("cannot run {}: {e}", scale.display()))?;
    if !output.status.success() {
        return Err(format!("{} exited with {}", scale.display(), output.status));
    }
    String::from_utf8(output.stdout).map_err(|e| e.to_string())
}

pub fn run(ctx: &mut Ctx) -> Outcome {
    let mut out = Outcome {
        roots: vec!["cold", "warm"],
        ..Outcome::default()
    };
    let cfg = WorkloadConfig::default()
        .with_seed(ctx.seed)
        .with_target(TARGET);
    let store_dir = ctx.out_dir.join("store");
    let spare_dir = ctx.out_dir.join("store-setup");

    let mut setup_s = Vec::new();
    let mut opened = set_up(&cfg, &store_dir, &mut setup_s);
    for _ in 1..SETUPS {
        opened = set_up(&cfg, &store_dir, &mut setup_s);
    }
    let (Ok(store), source, counted) = opened else {
        out.problem(format!(
            "cannot open an artifact store in {}",
            store_dir.display()
        ));
        return out;
    };
    let pipeline = Pipeline {
        cfg,
        oracle: OracleConfig::default(),
        classifier: ClassifierConfig::default(),
        jobs: ctx.jobs,
        store: &store,
        source: &source,
    };

    let mut cold_s = Vec::new();
    let mut warm_s = Vec::new();
    let mut gen_s = Vec::new();
    let mut first: Option<(String, ColdCounts)> = None;
    let rss = RssSampler::start();
    let mut rss_mib = Vec::new();
    ctx.start_window();
    while ctx.measuring(cold_s.len(), MIN_PAIRS) {
        if let Err(e) = fresh_dir(&store_dir) {
            out.problem(format!("cannot empty the artifact store: {e}"));
            break;
        }
        let before = source.counts();
        rss.take_mib();
        let root = ctx.spans.begin("cold");
        let t0 = Instant::now();
        let cold = pipeline.cold(ctx);
        cold_s.push(t0.elapsed().as_secs_f64());
        ctx.spans.end(root);
        // The warm pass would carry the cold pass's retained heap next to
        // its mapped files, which a separate warm `scale` process does not;
        // the cold pass is the run's memory high-water mark.
        rss_mib.push(rss.take_mib());
        gen_s.push(source.counts().since(before).producer_seconds());

        let mid = source.counts();
        let root = ctx.spans.begin("warm");
        let t0 = Instant::now();
        let warm = pipeline.warm(ctx);
        warm_s.push(t0.elapsed().as_secs_f64());
        ctx.spans.end(root);
        let warm_scans: ScanCounts = source.counts().since(mid);

        let (cold_summary, counts) = match cold {
            Ok(c) => c,
            Err(e) => {
                out.check(Some(format!("cold pass: {e}")));
                out.check(Some(
                    "warm pass skipped after a failed cold pass".to_owned(),
                ));
                continue;
            }
        };
        let expect_records = counts.passes * counted.records;
        out.check(if counts.records_scanned != expect_records {
            Some(format!(
                "cold pass scanned {} records in {} passes, expected {expect_records}",
                counts.records_scanned, counts.passes
            ))
        } else if !cold_summary.contains(&format!("conditionals: {}\n", counted.conditionals)) {
            Some("cold summary disagrees with the counted conditionals".to_owned())
        } else {
            None
        });
        out.check(match warm {
            Err(e) => Some(format!("warm pass: {e}")),
            Ok(w) if w != cold_summary => {
                Some("warm summary differs from the cold summary".to_owned())
            }
            Ok(_) if warm_scans.passes != 0 => Some(format!(
                "warm pass scanned the trace {} times",
                warm_scans.passes
            )),
            Ok(_) => None,
        });
        match &first {
            Some((s, c)) if *s != cold_summary || *c != counts => out.problem(format!(
                "cold pass output or counts moved between passes: {c:?} then {counts:?}"
            )),
            Some(_) => {}
            None => first = Some((cold_summary, counts)),
        }
        if let (Err(e), ..) = set_up(&cfg, &spare_dir, &mut setup_s) {
            out.problem(format!(
                "cannot open an artifact store in {}: {e}",
                spare_dir.display()
            ));
        }
    }

    match (&first, reference_summary(&cfg, ctx.jobs)) {
        (Some((summary, _)), Ok(reference)) => {
            out.check(
                (*summary != reference)
                    .then(|| "summary differs from the stdout of the scale binary".to_owned()),
            );
        }
        (_, Err(e)) => out.check(Some(format!("reference scale run: {e}"))),
        (None, _) => {}
    }
    // Leave no artifacts behind for the next run to stumble over.
    let _ = std::fs::remove_dir_all(&store_dir);
    let _ = std::fs::remove_dir_all(&spare_dir);

    out.e2e("setup_s", median(&setup_s), "s");
    out.e2e("peak_rss_mib", median(&rss_mib), "MiB");
    let pair_ms: Vec<f64> = cold_s
        .iter()
        .zip(&warm_s)
        .map(|(cold, warm)| (cold + warm) * 1e3)
        .collect();
    out.latencies(&pair_ms);
    out.detail("cold_s", median(&cold_s), "s");
    out.detail("warm_s", median(&warm_s), "s");

    if ctx.spans.on() {
        let both = |layer: &str| {
            let mut v = ctx.spans.per_root("cold", layer);
            v.extend(ctx.spans.per_root("warm", layer));
            median(&v)
        };
        out.layer("workloads.gen_s", median(&gen_s), "s");
        out.layer("workloads.records", counted.records as f64, "count");
        out.detail(
            "artifacts.save_s",
            median(&ctx.spans.per_root("cold", "artifacts.save")),
            "s",
        );
        out.detail(
            "artifacts.load_s",
            median(&ctx.spans.per_root("warm", "artifacts.load")),
            "s",
        );
        out.detail(
            "streams.build_s",
            median(&ctx.spans.per_root("cold", "streams.build")),
            "s",
        );
        out.detail(
            "candidates.collect_s",
            median(&ctx.spans.per_root("cold", "candidates.collect")),
            "s",
        );
        out.detail(
            "matrix.build_s",
            median(&ctx.spans.per_root("cold", "matrix.build")),
            "s",
        );
        out.detail("classify.s", both("classify"), "s");
        out.detail("oracle.select_s", both("oracle.select"), "s");
        if let Some((_, c)) = &first {
            out.detail("trace.passes", c.passes as f64, "count");
            out.detail("trace.records_scanned", c.records_scanned as f64, "count");
            out.detail("artifacts.bytes", c.artifact_bytes as f64, "bytes");
            out.detail("candidates.count", c.candidates as f64, "count");
            out.detail("matrix.bytes", c.matrix_bytes as f64, "bytes");
            out.detail("oracle.branches", c.oracle_branches as f64, "count");
        }
    }
    out
}
