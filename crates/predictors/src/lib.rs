//! Branch predictor implementations for the correlation-and-predictability
//! study (Evers, Patel, Chappell & Patt, ISCA 1998).
//!
//! Every predictor the paper simulates or references is implemented here,
//! behind one [`Predictor`] trait:
//!
//! | Predictor | Paper role |
//! |---|---|
//! | [`StaticTaken`], [`StaticNotTaken`], [`BackwardTaken`] | simple static baselines |
//! | [`IdealStatic`] | "ideal static" — per-branch predominant direction (§4.1) |
//! | [`Smith`] | 2-bit counter table \[Smith '81\] |
//! | [`Gas`] | global two-level GAs \[Yeh & Patt\] |
//! | [`Gshare`], [`GshareInterferenceFree`] | §3.3/§3.6 |
//! | [`Pas`], [`PasInterferenceFree`] | per-address two-level (§4.1.3) |
//! | [`PathBased`] | Nair-style path-history predictor (§2.1) |
//! | [`LoopPredictor`] | loop-type class predictor (§4.1.1) |
//! | [`KthAgo`] | fixed-length-pattern class predictor (§4.1.2) |
//! | [`BlockPattern`] | block-pattern class predictor (§4.1.2) |
//! | [`Hybrid`] | McFarling chooser hybrid (§2.1) |
//! | [`Tage`] | tagged geometric-history predictor (modern-zoo extension) |
//! | [`Perceptron`] | per-PC perceptron over global history (modern-zoo extension) |
//!
//! The interference-free variants keep one logical pattern-history table per
//! static branch (implemented as unbounded keyed counter maps), exactly the
//! idealization Talcott et al. and Young et al. used and the paper adopts.
//!
//! Drive a predictor over a trace with [`simulate`] or
//! [`simulate_per_branch`]:
//!
//! ```
//! use bp_predictors::{simulate, Gshare};
//! use bp_trace::{BranchRecord, Trace};
//!
//! let trace: Trace = (0..1000)
//!     .map(|i| BranchRecord::conditional(0x40, i % 4 != 3))
//!     .collect();
//! let mut gshare = Gshare::new(12);
//! let stats = simulate(&mut gshare, &trace);
//! assert!(stats.accuracy() > 0.9); // the 4-periodic pattern is learnable
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod block;
mod class_hybrid;
mod counter;
mod gas;
mod gshare;
mod gskew;
mod history;
mod hybrid;
mod interference;
mod kth_ago;
mod loop_pred;
mod pas;
mod path;
mod perceptron;
mod pht;
mod site;
mod smith;
mod static_pht;
mod statics;
mod stats;
mod tage;
mod yeh_patt;

pub use block::BlockPattern;
pub use class_hybrid::ClassHybrid;
pub use counter::SaturatingCounter;
pub use gas::Gas;
pub use gshare::{Gshare, GshareInterferenceFree};
pub use gskew::Gskew;
pub use history::ShiftHistory;
pub use hybrid::Hybrid;
pub use interference::{InterferenceGshare, InterferenceStats};
pub use kth_ago::{KthAgo, MAX_PERIOD};
pub use loop_pred::{LoopPredictor, MAX_TRIP};
pub use pas::{Pas, PasInterferenceFree};
pub use path::PathBased;
pub use perceptron::Perceptron;
pub use pht::{KeyedCounters, PatternHistoryTable};
pub use site::BranchSite;
pub use smith::Smith;
pub use static_pht::{StaticPhtGshare, StaticPhtPas};
pub use statics::{BackwardTaken, IdealStatic, StaticNotTaken, StaticTaken};
pub use stats::{
    simulate, simulate_batch, simulate_batch_parallel, simulate_batch_source, simulate_per_branch,
    PerBranchStats, PredictionStats, BATCH_SPLIT_MIN_RECORDS,
};
pub use tage::Tage;
pub use yeh_patt::{global_family, per_address_family, Gag, Pag};

/// A dynamic branch direction predictor.
///
/// Predictors see the branch *site* (address and target) when predicting —
/// never the outcome — and are trained with the outcome afterwards, in trace
/// order, exactly like the paper's trace-driven simulator.
///
/// `Send` is a supertrait: every predictor is plain data, and
/// [`simulate_batch_parallel`] moves boxed predictors onto helper threads.
pub trait Predictor: Send {
    /// Human-readable name including salient configuration, e.g.
    /// `"gshare(16)"`. Used in experiment output.
    fn name(&self) -> String;

    /// Predicts the direction of the upcoming branch at `site`
    /// (`true` = taken).
    fn predict(&self, site: BranchSite) -> bool;

    /// Trains the predictor with the resolved outcome of `site`.
    fn update(&mut self, site: BranchSite, taken: bool);
}

/// One of every dynamic design the crate models, at its default geometry:
/// Smith, the two-level family (GAg, GAs, gshare, IF-gshare, PAg, PAs,
/// IF-PAs), path, gskew, loop, k-ago, block, the gshare/PAs hybrid, TAGE
/// and perceptron — the set a batch over "the zoo" runs.
pub fn default_zoo() -> Vec<Box<dyn Predictor>> {
    vec![
        Box::new(Smith::default()),
        Box::new(Gag::default()),
        Box::new(Gas::default()),
        Box::new(Gshare::default()),
        Box::new(GshareInterferenceFree::default()),
        Box::new(Pag::default()),
        Box::new(Pas::default()),
        Box::new(PasInterferenceFree::default()),
        Box::new(PathBased::default()),
        Box::new(Gskew::default()),
        Box::new(LoopPredictor::new()),
        Box::new(KthAgo::new(8)),
        Box::new(BlockPattern::new()),
        Box::new(Hybrid::new(Gshare::default(), Pas::default(), 12)),
        Box::new(Tage::default()),
        Box::new(Perceptron::default()),
    ]
}

impl<P: Predictor + ?Sized> Predictor for Box<P> {
    fn name(&self) -> String {
        (**self).name()
    }

    fn predict(&self, site: BranchSite) -> bool {
        (**self).predict(site)
    }

    fn update(&mut self, site: BranchSite, taken: bool) {
        (**self).update(site, taken)
    }
}
