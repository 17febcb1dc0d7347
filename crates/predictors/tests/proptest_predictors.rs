//! Property-based tests for predictor components and whole predictors on
//! arbitrary traces.

use proptest::prelude::*;

use bp_predictors::{
    simulate, simulate_batch, simulate_batch_parallel, simulate_per_branch, BackwardTaken,
    BlockPattern, BranchSite, Gag, Gas, Gshare, GshareInterferenceFree, Gskew, Hybrid, IdealStatic,
    InterferenceGshare, KthAgo, LoopPredictor, Pag, Pas, PasInterferenceFree, PathBased,
    PatternHistoryTable, PerBranchStats, Perceptron, Predictor, SaturatingCounter, ShiftHistory,
    Smith, StaticNotTaken, StaticTaken, Tage,
};
use bp_trace::io::TraceIoError;
use bp_trace::{BranchKind, BranchProfile, BranchRecord, Trace, TraceSource};

/// This crate's historical generator parameters, over the shared
/// [`bp_trace::testgen`] strategy.
fn arb_trace(max: usize) -> impl Strategy<Value = Trace> {
    bp_trace::testgen::arb_trace(32, 0x1000, 0..max)
}

/// Every predictor under test, fresh.
fn all_predictors() -> Vec<Box<dyn Predictor>> {
    vec![
        Box::new(StaticTaken),
        Box::new(StaticNotTaken),
        Box::new(BackwardTaken),
        Box::new(Smith::new(6)),
        Box::new(Gshare::new(8)),
        Box::new(GshareInterferenceFree::new(8)),
        Box::new(Gas::new(6, 2)),
        Box::new(Pas::new(6, 4, 1)),
        Box::new(PasInterferenceFree::new(6)),
        Box::new(PathBased::new(4, 2)),
        Box::new(LoopPredictor::new()),
        Box::new(KthAgo::new(3)),
        Box::new(BlockPattern::new()),
        Box::new(Hybrid::new(Gshare::new(6), Pas::new(4, 3, 1), 6)),
        Box::new(Gag::new(6)),
        Box::new(Pag::new(6, 4)),
        Box::new(Gskew::new(6, 6)),
        Box::new(InterferenceGshare::new(6)),
    ]
}

/// The batch tests' zoo: every predictor under test plus the modern pair.
fn batch_zoo() -> Vec<Box<dyn Predictor>> {
    let mut zoo = all_predictors();
    zoo.push(Box::new(Tage::new(2, 6)));
    zoo.push(Box::new(Perceptron::new(8)));
    zoo
}

/// Every zoo predictor is `Send`, so a batch can run it on a helper thread.
const _: () = {
    const fn send<T: Send>() {}
    send::<StaticTaken>();
    send::<StaticNotTaken>();
    send::<BackwardTaken>();
    send::<IdealStatic>();
    send::<Smith>();
    send::<Gag>();
    send::<Gas>();
    send::<Gshare>();
    send::<GshareInterferenceFree>();
    send::<Pag>();
    send::<Pas>();
    send::<PasInterferenceFree>();
    send::<PathBased>();
    send::<Gskew>();
    send::<LoopPredictor>();
    send::<KthAgo>();
    send::<BlockPattern>();
    send::<Hybrid<Gshare, Pas>>();
    send::<InterferenceGshare>();
    send::<Tage>();
    send::<Perceptron>();
    send::<Box<dyn Predictor>>();
};

/// `arb_trace` with a call, return or jump record spliced in before some
/// conditionals; predictors must skip them wherever they fall.
fn arb_mixed_trace(max: usize) -> impl Strategy<Value = Trace> {
    (arb_trace(max), prop::collection::vec(0u8..8, 0..max)).prop_map(|(trace, kinds)| {
        let mut records = Vec::new();
        for (i, rec) in trace.records().iter().enumerate() {
            let kind = match kinds.get(i) {
                Some(1) => Some(BranchKind::Call),
                Some(2) => Some(BranchKind::Return),
                Some(3) => Some(BranchKind::Jump),
                _ => None,
            };
            if let Some(kind) = kind {
                records.push(BranchRecord { kind, ..*rec });
            }
            records.push(*rec);
        }
        Trace::from_records(records)
    })
}

/// A record slice re-framed into chunks of `chunk` records.
struct Rechunked<'a> {
    records: &'a [BranchRecord],
    chunk: usize,
}

impl TraceSource for Rechunked<'_> {
    fn scan(&self, visit: &mut dyn FnMut(&[BranchRecord])) -> Result<(), TraceIoError> {
        self.records.chunks(self.chunk).for_each(visit);
        Ok(())
    }
}

/// Asserts a batch equals the sequential runs branch by branch, in the
/// per-branch tables' iteration order too (rendered output follows it).
fn assert_same_batch(got: &[PerBranchStats], want: &[PerBranchStats], label: &str) {
    assert_eq!(got.len(), want.len(), "{label}");
    for (i, (g, w)) in got.iter().zip(want).enumerate() {
        assert_eq!(g.total(), w.total(), "{label}: predictor {i}");
        assert_eq!(
            g.iter().collect::<Vec<_>>(),
            w.iter().collect::<Vec<_>>(),
            "{label}: predictor {i}"
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn counters_stay_in_range(bits in 1u8..6, ops in prop::collection::vec(any::<bool>(), 0..64)) {
        let mut c = SaturatingCounter::weakly_taken(bits);
        for op in ops {
            c.train(op);
            prop_assert!(c.value() <= c.max_value());
        }
    }

    #[test]
    fn counter_saturates_to_outcome(bits in 1u8..6, taken in any::<bool>()) {
        let mut c = SaturatingCounter::weakly_not_taken(bits);
        for _ in 0..(1 << bits) {
            c.train(taken);
        }
        prop_assert_eq!(c.predict_taken(), taken);
        prop_assert!(c.is_saturated());
    }

    #[test]
    fn history_only_remembers_len(len in 1u32..32, ops in prop::collection::vec(any::<bool>(), 0..80)) {
        let mut h = ShiftHistory::new(len);
        for &op in &ops {
            h.push(op);
        }
        prop_assert!(h.value() < (1u64 << len) || len == 64);
        // The register equals the last `len` outcomes packed LSB-most-recent.
        let mut expect = 0u64;
        for &op in ops.iter().rev().take(len as usize).collect::<Vec<_>>().iter().rev() {
            expect = (expect << 1) | u64::from(*op);
        }
        prop_assert_eq!(h.value(), expect);
    }

    #[test]
    fn pht_only_touched_slot_changes(idx in 0u64..1024, other in 0u64..1024) {
        let mut pht = PatternHistoryTable::new(10, SaturatingCounter::two_bit());
        let before = pht.counter(other).value();
        pht.train(idx, false);
        if idx != other {
            prop_assert_eq!(pht.counter(other).value(), before);
        }
    }

    #[test]
    fn every_predictor_scores_every_branch(trace in arb_trace(300)) {
        let n = trace.conditional_count() as u64;
        for mut p in all_predictors() {
            let stats = simulate(p.as_mut(), &trace);
            prop_assert_eq!(stats.predictions, n, "{}", p.name());
            prop_assert!(stats.correct <= n);
        }
    }

    #[test]
    fn per_branch_decomposition_matches_total(trace in arb_trace(300)) {
        let total = simulate(&mut Gshare::new(8), &trace);
        let per_branch = simulate_per_branch(&mut Gshare::new(8), &trace);
        prop_assert_eq!(per_branch.total(), total);
        let sum: u64 = per_branch.iter().map(|(_, s)| s.correct).sum();
        prop_assert_eq!(sum, total.correct);
    }

    #[test]
    fn ideal_static_beats_both_constant_predictors(trace in arb_trace(300)) {
        let profile = BranchProfile::of(&trace);
        let ideal = simulate(&mut IdealStatic::from_profile(&profile), &trace);
        let taken = simulate(&mut StaticTaken, &trace);
        let not_taken = simulate(&mut StaticNotTaken, &trace);
        prop_assert!(ideal.correct >= taken.correct.max(not_taken.correct));
        // And it matches the analytic profile value exactly.
        prop_assert_eq!(ideal.correct, profile.ideal_static_correct());
    }

    #[test]
    fn predictors_are_deterministic(trace in arb_trace(200)) {
        for (mut a, mut b) in all_predictors().into_iter().zip(all_predictors()) {
            let ra = simulate(a.as_mut(), &trace);
            let rb = simulate(b.as_mut(), &trace);
            prop_assert_eq!(ra, rb, "{}", a.name());
        }
    }

    #[test]
    fn batch_simulation_matches_sequential(trace in arb_mixed_trace(300)) {
        // One single-pass batch over N predictors must equal N independent
        // sequential runs, predictor by predictor and branch by branch, for
        // any thread count and any chunking — the evaluation engine's
        // prewarm correctness rests on this.
        let sequential: Vec<PerBranchStats> = batch_zoo()
            .iter_mut()
            .map(|p| simulate_per_branch(p.as_mut(), &trace))
            .collect();
        let n = sequential.len();
        let records = trace.records();
        for threads in [1, 2, 3, n + 1] {
            let batched = simulate_batch_parallel(&mut batch_zoo(), &trace, threads).unwrap();
            assert_same_batch(&batched, &sequential, &format!("{threads} threads"));
            for chunk in [1, 63, 64, 65] {
                let source = Rechunked { records, chunk };
                let batched = simulate_batch_parallel(&mut batch_zoo(), &source, threads).unwrap();
                assert_same_batch(&batched, &sequential, &format!("{threads} threads, chunk {chunk}"));
            }
        }
        assert_same_batch(&simulate_batch(&mut batch_zoo(), &trace), &sequential, "default");
    }

    #[test]
    fn predict_does_not_mutate(trace in arb_trace(120), probe_pc in 0u64..32) {
        // Calling predict() repeatedly between updates must not change the
        // prediction (predict takes &self, but e.g. interior mutability
        // could sneak in — this pins the contract).
        let site = BranchSite::new(probe_pc * 4 + 0x1000, 0x2000);
        for mut p in all_predictors() {
            for rec in trace.conditionals() {
                let s = BranchSite::from(rec);
                let first = p.predict(s);
                prop_assert_eq!(p.predict(s), first);
                let probe = p.predict(site);
                prop_assert_eq!(p.predict(site), probe);
                p.update(s, rec.taken);
            }
        }
    }
}
