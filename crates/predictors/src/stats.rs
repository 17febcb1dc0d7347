use bp_trace::fx::FxHashMap;

use serde::{Deserialize, Serialize};

use bp_trace::io::TraceIoError;
use bp_trace::{BranchRecord, Pc, Trace, TraceSource};

use crate::{BranchSite, Predictor};

/// Prediction accuracy bookkeeping: how many predictions were made and how
/// many were correct.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct PredictionStats {
    /// Total predictions made.
    pub predictions: u64,
    /// Predictions that matched the outcome.
    pub correct: u64,
}

impl PredictionStats {
    /// Records one prediction result.
    #[inline]
    pub fn record(&mut self, correct: bool) {
        self.predictions += 1;
        if correct {
            self.correct += 1;
        }
    }

    /// Accuracy in `[0, 1]`; zero when no predictions were made.
    pub fn accuracy(&self) -> f64 {
        if self.predictions == 0 {
            0.0
        } else {
            self.correct as f64 / self.predictions as f64
        }
    }

    /// Accuracy as a percentage, the unit the paper reports.
    pub fn accuracy_pct(&self) -> f64 {
        self.accuracy() * 100.0
    }

    /// Number of mispredictions.
    pub fn mispredictions(&self) -> u64 {
        self.predictions - self.correct
    }

    /// Accumulates another stats block into this one.
    pub fn merge(&mut self, other: PredictionStats) {
        self.predictions += other.predictions;
        self.correct += other.correct;
    }
}

/// Per-static-branch prediction statistics, plus the overall total.
///
/// This is the raw material of the paper's per-branch analyses: the
/// hypothetical combined predictors of Tables 2 and 3 and the "best
/// predictor" distributions of Figures 6–8 all compare predictors *per
/// branch* using exactly these counts.
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct PerBranchStats {
    per_branch: FxHashMap<Pc, PredictionStats>,
    total: PredictionStats,
}

impl PerBranchStats {
    /// Creates an empty stats table.
    pub fn new() -> Self {
        PerBranchStats::default()
    }

    /// Records one prediction result for the branch at `pc`.
    #[inline]
    pub fn record(&mut self, pc: Pc, correct: bool) {
        self.per_branch.entry(pc).or_default().record(correct);
        self.total.record(correct);
    }

    /// Overall statistics across all branches.
    pub fn total(&self) -> PredictionStats {
        self.total
    }

    /// Statistics for one branch, if it was predicted at least once.
    pub fn get(&self, pc: Pc) -> Option<&PredictionStats> {
        self.per_branch.get(&pc)
    }

    /// Iterates `(pc, stats)` pairs in unspecified order.
    pub fn iter(&self) -> impl Iterator<Item = (Pc, &PredictionStats)> {
        self.per_branch.iter().map(|(pc, s)| (*pc, s))
    }

    /// Number of distinct static branches seen.
    pub fn static_count(&self) -> usize {
        self.per_branch.len()
    }

    /// Inserts (or accumulates into) the stats block for one branch.
    ///
    /// Lets analyses that compute per-branch correct counts without running
    /// a [`Predictor`] (e.g. the oracle selective-history evaluation)
    /// present their results in the common per-branch form.
    pub fn insert(&mut self, pc: Pc, stats: PredictionStats) {
        self.per_branch.entry(pc).or_default().merge(stats);
        self.total.merge(stats);
    }
}

impl FromIterator<(Pc, PredictionStats)> for PerBranchStats {
    fn from_iter<I: IntoIterator<Item = (Pc, PredictionStats)>>(iter: I) -> Self {
        let mut out = PerBranchStats::new();
        for (pc, stats) in iter {
            out.insert(pc, stats);
        }
        out
    }
}

/// Runs a predictor over every conditional branch of a trace, in order,
/// predicting before training — the paper's trace-driven simulation loop.
pub fn simulate<P: Predictor + ?Sized>(predictor: &mut P, trace: &Trace) -> PredictionStats {
    let mut stats = PredictionStats::default();
    for rec in trace.conditionals() {
        let site = BranchSite::from(rec);
        let pred = predictor.predict(site);
        stats.record(pred == rec.taken);
        predictor.update(site, rec.taken);
    }
    stats
}

/// Like [`simulate`], additionally keeping per-static-branch accuracy.
pub fn simulate_per_branch<P: Predictor + ?Sized>(
    predictor: &mut P,
    trace: &Trace,
) -> PerBranchStats {
    let mut stats = PerBranchStats::new();
    for rec in trace.conditionals() {
        let site = BranchSite::from(rec);
        let pred = predictor.predict(site);
        stats.record(rec.pc, pred == rec.taken);
        predictor.update(site, rec.taken);
    }
    stats
}

/// Runs N predictors over one trace in a *single* pass, returning one
/// [`PerBranchStats`] per predictor (in input order).
///
/// Equivalent to calling [`simulate_per_branch`] once per predictor — each
/// predictor sees the identical record sequence and trains independently —
/// but the trace is iterated once instead of N times. A wrapper of
/// [`simulate_batch_source`] for in-memory traces.
pub fn simulate_batch(predictors: &mut [Box<dyn Predictor>], trace: &Trace) -> Vec<PerBranchStats> {
    simulate_batch_source(predictors, trace).expect("in-memory traces cannot fail to scan")
}

/// As [`simulate_batch`], but consuming any [`TraceSource`] chunk by chunk,
/// so a disk-resident or regenerated trace simulates without ever being
/// materialized in memory. Runs [`simulate_batch_parallel`] on one thread
/// per available core, at most one per predictor.
pub fn simulate_batch_source(
    predictors: &mut [Box<dyn Predictor>],
    source: &dyn TraceSource,
) -> Result<Vec<PerBranchStats>, TraceIoError> {
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    simulate_batch_parallel(predictors, source, cores.min(predictors.len()))
}

/// Chunks of fewer records than this run every predictor on the calling
/// thread: below it, starting a helper costs about what it saves.
pub const BATCH_SPLIT_MIN_RECORDS: usize = 2048;

/// The batch kernel: N predictors over one pass of `source`, split across
/// at most `threads` threads (the calling thread included).
///
/// Each chunk's conditional records get a dense branch id from one map
/// shared by all predictors (ids in first-seen order). Predictors run
/// chunk-major, each over the whole chunk before the next, counting into a
/// `Vec` indexed by id. Predictor `i` belongs to group `i % threads`; the
/// calling thread runs group 0 while scoped helpers run the others, and all
/// join before the next chunk. No predictor's training sequence depends on
/// the split, and the per-branch tables are built in id order — the order
/// in which a sequential run first meets each branch — so the result is
/// identical for every thread count and to [`simulate_per_branch`].
///
/// # Errors
///
/// Returns the source's [`TraceIoError`] when its scan fails.
pub fn simulate_batch_parallel(
    predictors: &mut [Box<dyn Predictor>],
    source: &dyn TraceSource,
    threads: usize,
) -> Result<Vec<PerBranchStats>, TraceIoError> {
    let threads = threads.clamp(1, predictors.len().max(1));
    let mut groups: Vec<Vec<Lane<'_>>> = (0..threads).map(|_| Vec::new()).collect();
    for (index, predictor) in predictors.iter_mut().enumerate() {
        groups[index % threads].push(Lane {
            index,
            predictor: predictor.as_mut(),
            counts: Vec::new(),
        });
    }
    let mut ids: FxHashMap<Pc, u32> = FxHashMap::default();
    let mut pcs: Vec<Pc> = Vec::new();
    let mut chunk_ids: Vec<u32> = Vec::new();
    source.scan(&mut |chunk| {
        chunk_ids.clear();
        for rec in chunk.iter().filter(|r| r.is_conditional()) {
            let id = *ids.entry(rec.pc).or_insert_with(|| {
                pcs.push(rec.pc);
                (pcs.len() - 1) as u32
            });
            chunk_ids.push(id);
        }
        let (chunk_ids, branches) = (&chunk_ids[..], pcs.len());
        if groups.len() == 1 || chunk.len() < BATCH_SPLIT_MIN_RECORDS {
            for lane in groups.iter_mut().flatten() {
                lane.run(chunk, chunk_ids, branches);
            }
            return;
        }
        let (own, helpers) = groups.split_first_mut().expect("at least one group");
        std::thread::scope(|s| {
            for group in helpers {
                s.spawn(move || {
                    for lane in group {
                        lane.run(chunk, chunk_ids, branches);
                    }
                });
            }
            for lane in own {
                lane.run(chunk, chunk_ids, branches);
            }
        });
    })?;
    let mut lanes: Vec<Lane<'_>> = groups.into_iter().flatten().collect();
    lanes.sort_unstable_by_key(|lane| lane.index);
    Ok(lanes
        .into_iter()
        .map(|lane| pcs.iter().copied().zip(lane.counts).collect())
        .collect())
}

/// One predictor of a batch and its counts, indexed by dense branch id.
struct Lane<'a> {
    index: usize,
    predictor: &'a mut dyn Predictor,
    counts: Vec<PredictionStats>,
}

impl Lane<'_> {
    /// Predicts and trains over one chunk; `ids` holds the dense id of each
    /// conditional record, `branches` the number of ids assigned so far.
    fn run(&mut self, chunk: &[BranchRecord], ids: &[u32], branches: usize) {
        self.counts.resize(branches, PredictionStats::default());
        for (rec, &id) in chunk.iter().filter(|r| r.is_conditional()).zip(ids) {
            let site = BranchSite::from(rec);
            self.counts[id as usize].record(self.predictor.predict(site) == rec.taken);
            self.predictor.update(site, rec.taken);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::statics::StaticTaken;
    use bp_trace::BranchKind;
    use std::cell::Cell;
    use std::sync::{Arc, Mutex};
    use std::thread::ThreadId;

    #[test]
    fn stats_math() {
        let mut s = PredictionStats::default();
        assert_eq!(s.accuracy(), 0.0);
        s.record(true);
        s.record(true);
        s.record(false);
        assert_eq!(s.predictions, 3);
        assert_eq!(s.correct, 2);
        assert_eq!(s.mispredictions(), 1);
        assert!((s.accuracy() - 2.0 / 3.0).abs() < 1e-12);
        assert!((s.accuracy_pct() - 66.666).abs() < 0.01);
    }

    #[test]
    fn merge_accumulates() {
        let mut a = PredictionStats {
            predictions: 10,
            correct: 7,
        };
        a.merge(PredictionStats {
            predictions: 5,
            correct: 5,
        });
        assert_eq!(a.predictions, 15);
        assert_eq!(a.correct, 12);
    }

    #[test]
    fn per_branch_totals_match() {
        let mut s = PerBranchStats::new();
        s.record(1, true);
        s.record(1, false);
        s.record(2, true);
        assert_eq!(s.total().predictions, 3);
        assert_eq!(s.total().correct, 2);
        assert_eq!(s.get(1).unwrap().predictions, 2);
        assert_eq!(s.get(2).unwrap().correct, 1);
        assert!(s.get(3).is_none());
        assert_eq!(s.static_count(), 2);
        let sum: u64 = s.iter().map(|(_, st)| st.predictions).sum();
        assert_eq!(sum, s.total().predictions);
    }

    #[test]
    fn simulate_static_taken() {
        let trace: Trace = [(1, true), (1, false), (2, true)]
            .iter()
            .map(|&(pc, t)| BranchRecord::conditional(pc, t))
            .collect();
        let mut p = StaticTaken;
        let s = simulate(&mut p, &trace);
        assert_eq!(s.predictions, 3);
        assert_eq!(s.correct, 2);
        let pb = simulate_per_branch(&mut StaticTaken, &trace);
        assert_eq!(pb.total(), s);
    }

    /// Chunks `records` at `chunk` records and counts passes and records.
    struct Counting<'a> {
        records: &'a [BranchRecord],
        chunk: usize,
        passes: Cell<u64>,
        scanned: Cell<u64>,
    }

    impl<'a> Counting<'a> {
        fn new(records: &'a [BranchRecord], chunk: usize) -> Self {
            Counting {
                records,
                chunk,
                passes: Cell::new(0),
                scanned: Cell::new(0),
            }
        }
    }

    impl TraceSource for Counting<'_> {
        fn scan(&self, visit: &mut dyn FnMut(&[BranchRecord])) -> Result<(), TraceIoError> {
            self.passes.set(self.passes.get() + 1);
            for chunk in self.records.chunks(self.chunk) {
                self.scanned.set(self.scanned.get() + chunk.len() as u64);
                visit(chunk);
            }
            Ok(())
        }
    }

    /// `n` records over a few dozen pcs, every fifth one a call.
    fn mixed_records(n: usize) -> Vec<BranchRecord> {
        let mut x = 11u64;
        (0..n)
            .map(|i| {
                x = x.wrapping_mul(6364136223846793005).wrapping_add(1);
                let rec = BranchRecord::conditional(0x40 + 4 * (x >> 59), x >> 58 & 1 == 1);
                if i % 5 == 4 {
                    BranchRecord {
                        kind: BranchKind::Call,
                        ..rec
                    }
                } else {
                    rec
                }
            })
            .collect()
    }

    fn small_zoo() -> Vec<Box<dyn Predictor>> {
        vec![
            Box::new(StaticTaken),
            Box::new(crate::Smith::new(4)),
            Box::new(crate::Gshare::new(6)),
            Box::new(crate::Pas::new(4, 3, 1)),
            Box::new(crate::PasInterferenceFree::new(6)),
        ]
    }

    #[test]
    fn batch_source_matches_per_trace_simulation() {
        let records = mixed_records(3 * BATCH_SPLIT_MIN_RECORDS + 17);
        let trace = Trace::from_records(records.clone());
        let direct: Vec<PerBranchStats> = small_zoo()
            .iter_mut()
            .map(|p| simulate_per_branch(p.as_mut(), &trace))
            .collect();
        let same = |got: Vec<PerBranchStats>, label: &str| {
            for (g, d) in got.iter().zip(&direct) {
                assert_eq!(g.total(), d.total(), "{label}");
                assert!(g.iter().eq(d.iter()), "{label}: per-branch tables differ");
            }
            assert_eq!(got.len(), direct.len(), "{label}");
        };
        same(simulate_batch(&mut small_zoo(), &trace), "in memory");
        let source = simulate_batch_source(&mut small_zoo(), &trace);
        same(source.unwrap(), "source");
        for threads in [1, 2, 3, 6] {
            for chunk in [
                BATCH_SPLIT_MIN_RECORDS - 1,
                BATCH_SPLIT_MIN_RECORDS,
                BATCH_SPLIT_MIN_RECORDS + 1,
                records.len(),
            ] {
                let got = simulate_batch_parallel(
                    &mut small_zoo(),
                    &Counting::new(&records, chunk),
                    threads,
                );
                same(got.unwrap(), &format!("{threads} threads, chunk {chunk}"));
            }
        }
    }

    #[test]
    fn a_batch_makes_one_pass_over_the_records() {
        let records = mixed_records(2 * BATCH_SPLIT_MIN_RECORDS + 3);
        for threads in [1, 2, 6] {
            let source = Counting::new(&records, BATCH_SPLIT_MIN_RECORDS);
            simulate_batch_parallel(&mut small_zoo(), &source, threads).unwrap();
            assert_eq!(source.passes.get(), 1, "{threads} threads");
            assert_eq!(
                source.scanned.get(),
                records.len() as u64,
                "{threads} threads"
            );
        }
    }

    /// Logs the thread that trains it on the first record of every chunk
    /// of `chunk` records (the trace is all conditionals).
    struct Witness {
        chunk: u64,
        seen: u64,
        log: Arc<Mutex<Vec<(u64, ThreadId)>>>,
    }

    impl Predictor for Witness {
        fn name(&self) -> String {
            "witness".to_owned()
        }

        fn predict(&self, _: BranchSite) -> bool {
            true
        }

        fn update(&mut self, _: BranchSite, _: bool) {
            if self.seen.is_multiple_of(self.chunk) {
                let entry = (self.seen / self.chunk, std::thread::current().id());
                self.log.lock().unwrap().push(entry);
            }
            self.seen += 1;
        }
    }

    #[test]
    fn a_batch_runs_on_at_most_threads_threads_per_chunk() {
        let chunk = BATCH_SPLIT_MIN_RECORDS;
        let records: Vec<BranchRecord> = (0..2 * chunk + 5)
            .map(|i| BranchRecord::conditional(0x40 + 4 * (i as u64 % 7), i % 3 == 0))
            .collect();
        for threads in [1, 2, 3, 8] {
            let log = Arc::new(Mutex::new(Vec::new()));
            let mut zoo: Vec<Box<dyn Predictor>> = (0..5)
                .map(|_| -> Box<dyn Predictor> {
                    Box::new(Witness {
                        chunk: chunk as u64,
                        seen: 0,
                        log: Arc::clone(&log),
                    })
                })
                .collect();
            simulate_batch_parallel(&mut zoo, &Counting::new(&records, chunk), threads).unwrap();
            let log = log.lock().unwrap();
            for c in 0..3 {
                let mut ids: Vec<ThreadId> = log
                    .iter()
                    .filter(|(i, _)| *i == c)
                    .map(|&(_, id)| id)
                    .collect();
                assert_eq!(ids.len(), 5, "every predictor trains on chunk {c}");
                assert!(ids.contains(&std::thread::current().id()));
                ids.sort_unstable_by_key(|id| format!("{id:?}"));
                ids.dedup();
                // The short tail chunk runs inline on the calling thread.
                let want = if c == 2 { 1 } else { threads.min(5) };
                assert_eq!(ids.len(), want, "{threads} threads, chunk {c}");
            }
        }
    }

    #[test]
    fn simulate_skips_non_conditionals() {
        let trace = Trace::from_records(vec![BranchRecord {
            pc: 1,
            target: 2,
            taken: true,
            kind: BranchKind::Call,
        }]);
        let s = simulate(&mut StaticTaken, &trace);
        assert_eq!(s.predictions, 0);
    }
}
