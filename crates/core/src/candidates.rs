use std::collections::HashMap;

use bp_trace::fx::FxHashMap;
use bp_trace::io::TraceIoError;
use bp_trace::{
    scan_sharded, shard_of, BranchRecord, InstanceTag, PathWindow, Pc, TagScheme, Trace,
    TraceSource,
};

/// Dense per-prior-pc rows over one branch's view of the path: a row of
/// `2 × window` cells per prior pc, indexed `[scheme][index]`.
///
/// Every index a window of length W gives is below W, so one row covers
/// every tag of one prior pc and the pc → row lookup is the only hashing,
/// once per window entry. The candidate counts, the outcome matrix's
/// column lookup and both passes of the window sweep use this layout.
#[derive(Debug, Clone)]
pub(crate) struct SlotRows<T> {
    window: usize,
    fill: T,
    /// Start of each pc's row in `cells`.
    rows: FxHashMap<Pc, usize>,
    cells: Vec<T>,
}

impl SlotRows<u32> {
    /// Column lookup for candidate list `tags` under a window of `window`
    /// branches: tag `c`'s cell holds `c`, every other cell the spare
    /// column `tags.len()`. A tag whose index this window never gives
    /// (collected under a longer one) gets no cell, so its column is never
    /// in path.
    pub(crate) fn columns(tags: &[InstanceTag], window: usize) -> Self {
        let column = |c: usize| u32::try_from(c).expect("candidate columns fit in u32");
        let mut rows = SlotRows::new(window, column(tags.len()));
        for (c, &tag) in tags.iter().enumerate() {
            if usize::from(tag.index) < window {
                let cell = rows.cell(tag.scheme, tag.index);
                rows.row_mut(tag.pc)[cell] = column(c);
            }
        }
        rows
    }
}

impl<T: Copy> SlotRows<T> {
    /// Empty rows for a window of `window` branches; new cells hold `fill`.
    pub(crate) fn new(window: usize, fill: T) -> Self {
        SlotRows {
            window,
            fill,
            rows: FxHashMap::default(),
            cells: Vec::new(),
        }
    }

    /// The row of `pc`, added on first use.
    #[inline]
    pub(crate) fn row_mut(&mut self, pc: Pc) -> &mut [T] {
        let width = 2 * self.window;
        let start = match self.rows.get(&pc) {
            Some(&start) => start,
            None => {
                let start = self.cells.len();
                self.rows.insert(pc, start);
                self.cells.resize(start + width, self.fill);
                start
            }
        };
        &mut self.cells[start..start + width]
    }

    /// The row of `pc`, if it has one.
    #[inline]
    pub(crate) fn row(&self, pc: Pc) -> Option<&[T]> {
        let start = *self.rows.get(&pc)?;
        Some(&self.cells[start..start + 2 * self.window])
    }

    /// Position of the cell for instance `index` under `scheme` within a
    /// row.
    #[inline]
    pub(crate) fn cell(&self, scheme: TagScheme, index: u16) -> usize {
        let index = usize::from(index);
        debug_assert!(index < self.window, "tag index beyond the window");
        match scheme {
            TagScheme::Occurrence => index,
            TagScheme::Iteration => self.window + index,
        }
    }

    /// Every cell with the tag it stands for, row by row in no
    /// particular order.
    pub(crate) fn iter(&self) -> impl Iterator<Item = (InstanceTag, T)> + '_ {
        let w = self.window;
        self.rows.iter().flat_map(move |(&pc, &start)| {
            self.cells[start..start + 2 * w]
                .iter()
                .enumerate()
                .map(move |(i, &v)| {
                    let index = (i % w) as u16;
                    let tag = if i < w {
                        InstanceTag::occurrence(pc, index)
                    } else {
                        InstanceTag::iteration(pc, index)
                    };
                    (tag, v)
                })
        })
    }
}

/// The candidate correlated-branch instances considered for each static
/// branch.
///
/// For every dynamic execution of a branch *X*, the instances visible in the
/// path window (under both tagging schemes of §3.2) are potential correlated
/// branches. A tag can only carry information when it is actually in the
/// path, so candidates are ranked by how often they were visible across
/// *X*'s executions and the list is capped — the paper's oracle has
/// unspecified scope, and an explicit visibility-ranked cap keeps the search
/// tractable while retaining every frequently-available instance (see
/// DESIGN.md §2).
#[derive(Debug, Clone, Default)]
pub struct TagCandidates {
    per_branch: HashMap<Pc, Vec<InstanceTag>>,
}

impl TagCandidates {
    /// Scans `trace` with a path window of `window` branches and keeps, for
    /// each static branch, the `cap` most-often-visible candidate tags.
    ///
    /// Ties in visibility break deterministically (by tag order) so results
    /// are reproducible.
    ///
    /// # Panics
    ///
    /// Panics if `window` or `cap` is zero.
    pub fn collect(trace: &Trace, window: usize, cap: usize) -> Self {
        TagCandidates::collect_with_schemes(trace, window, cap, &TagScheme::ALL)
    }

    /// As [`TagCandidates::collect`], restricted to the given tagging
    /// schemes — the §3.2 ablation: the paper argues both schemes are
    /// needed because each fails to name some instances.
    ///
    /// # Panics
    ///
    /// Panics if `window` or `cap` is zero, or `schemes` is empty.
    pub fn collect_with_schemes(
        trace: &Trace,
        window: usize,
        cap: usize,
        schemes: &[TagScheme],
    ) -> Self {
        TagCandidates::collect_from_source(trace, window, cap, schemes)
            .expect("in-memory traces cannot fail to scan")
    }

    /// As [`TagCandidates::collect_with_schemes`], consuming any
    /// [`TraceSource`] in one streaming scan — identical output to the
    /// in-memory path on the same record sequence.
    ///
    /// # Errors
    ///
    /// Propagates the source's scan error.
    ///
    /// # Panics
    ///
    /// Panics if `window` or `cap` is zero, or `schemes` is empty.
    pub fn collect_from_source<T: TraceSource + ?Sized>(
        source: &T,
        window: usize,
        cap: usize,
        schemes: &[TagScheme],
    ) -> Result<Self, TraceIoError> {
        assert!(cap > 0, "candidate cap must be positive");
        assert!(!schemes.is_empty(), "need at least one tagging scheme");
        let mut counter = VisibilityCounter::new(window, 0, 1);
        source.scan(&mut |chunk| {
            counter.scan(chunk);
        })?;
        Ok(TagCandidates {
            per_branch: rank_counts(counter.counts, cap, schemes).collect(),
        })
    }

    /// As [`TagCandidates::collect_from_source`], built with the
    /// pipelined chunk executor: `shards` workers each replicate the
    /// [`PathWindow`] over the full record sequence but count visibility
    /// only for the branches their shard owns, and every partial count
    /// map is ranked by the one shared ranking function — so the merged
    /// result is identical to the serial build for every shard count.
    ///
    /// # Errors
    ///
    /// Propagates the source's scan error.
    ///
    /// # Panics
    ///
    /// Panics if `window` or `cap` is zero, or `schemes` is empty.
    pub fn collect_from_source_sharded<T: TraceSource + Sync + ?Sized>(
        source: &T,
        window: usize,
        cap: usize,
        schemes: &[TagScheme],
        shards: usize,
    ) -> Result<Self, TraceIoError> {
        assert!(cap > 0, "candidate cap must be positive");
        assert!(!schemes.is_empty(), "need at least one tagging scheme");
        let shards = shards.max(1);
        let parts = scan_sharded(source, shards, |shard, chunks| {
            let mut counter = VisibilityCounter::new(window, shard, shards);
            for chunk in chunks {
                counter.scan(&chunk);
            }
            counter.counts
        })?;
        let mut per_branch = HashMap::new();
        for counts in parts {
            per_branch.extend(rank_counts(counts, cap, schemes));
        }
        Ok(TagCandidates { per_branch })
    }

    /// Candidate tags for `pc`, most-visible first; empty if the branch
    /// never executed.
    pub fn tags(&self, pc: Pc) -> &[InstanceTag] {
        self.per_branch.get(&pc).map_or(&[], Vec::as_slice)
    }

    /// Number of static branches with candidate lists.
    pub fn branch_count(&self) -> usize {
        self.per_branch.len()
    }

    /// Iterates `(pc, candidate tags)` in unspecified order.
    pub fn iter(&self) -> impl Iterator<Item = (Pc, &[InstanceTag])> {
        self.per_branch.iter().map(|(pc, v)| (*pc, v.as_slice()))
    }
}

/// The per-record visibility-counting kernel behind both builders: a
/// path window over every record, counting the visible tags of each
/// conditional branch the shard owns.
struct VisibilityCounter {
    path: PathWindow,
    shard: usize,
    shards: usize,
    counts: FxHashMap<Pc, SlotRows<u64>>,
}

impl VisibilityCounter {
    fn new(window: usize, shard: usize, shards: usize) -> Self {
        VisibilityCounter {
            path: PathWindow::new(window),
            shard,
            shards,
            counts: FxHashMap::default(),
        }
    }

    fn scan(&mut self, records: &[BranchRecord]) {
        for rec in records {
            if rec.is_conditional() && shard_of(rec.pc, self.shards) == self.shard {
                let window = self.path.capacity();
                let rows = self
                    .counts
                    .entry(rec.pc)
                    .or_insert_with(|| SlotRows::new(window, 0));
                for e in self.path.entries() {
                    let occurrence = rows.cell(TagScheme::Occurrence, e.occurrence());
                    let iteration = e.iteration().map(|i| rows.cell(TagScheme::Iteration, i));
                    let row = rows.row_mut(e.pc);
                    row[occurrence] += 1;
                    if let Some(c) = iteration {
                        row[c] += 1;
                    }
                }
            }
            self.path.push(rec);
        }
    }
}

/// Orders `(tag, visibility count)` pairs most-visible first, ties by
/// tag, and keeps the first `cap` — the one candidate ranking rule, used
/// by [`TagCandidates`] and by every point of a window sweep. Tags are
/// distinct, so the order is total and the result does not depend on the
/// input order.
pub(crate) fn rank_by_visibility(list: &mut Vec<(InstanceTag, u64)>, cap: usize) {
    list.sort_unstable_by(|a, b| b.1.cmp(&a.1).then_with(|| a.0.cmp(&b.0)));
    list.truncate(cap);
}

/// Ranks raw visibility counts into capped candidate lists, applying the
/// scheme restriction; shared by the serial and sharded builders so their
/// outputs cannot drift.
fn rank_counts<'a>(
    counts: FxHashMap<Pc, SlotRows<u64>>,
    cap: usize,
    schemes: &'a [TagScheme],
) -> impl Iterator<Item = (Pc, Vec<InstanceTag>)> + 'a {
    counts.into_iter().map(move |(pc, rows)| {
        let mut ranked: Vec<(InstanceTag, u64)> = rows
            .iter()
            .filter(|(tag, count)| *count > 0 && schemes.contains(&tag.scheme))
            .collect();
        rank_by_visibility(&mut ranked, cap);
        (pc, ranked.into_iter().map(|(tag, _)| tag).collect())
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use bp_trace::{BranchRecord, TagScheme};

    fn pair_trace(n: usize) -> Trace {
        let mut recs = Vec::new();
        for i in 0..n {
            recs.push(BranchRecord::conditional(0x100, i % 2 == 0));
            recs.push(BranchRecord::conditional(0x200, i % 2 == 0));
        }
        Trace::from_records(recs)
    }

    #[test]
    fn first_branch_of_pair_sees_prior_instances() {
        let c = TagCandidates::collect(&pair_trace(50), 8, 16);
        assert_eq!(c.branch_count(), 2);
        // 0x200 always has the most recent 0x100 visible.
        let tags = c.tags(0x200);
        assert!(tags.contains(&InstanceTag::occurrence(0x100, 0)));
        // Both schemes are represented.
        assert!(tags.iter().any(|t| t.scheme == TagScheme::Iteration));
    }

    #[test]
    fn cap_limits_list_and_keeps_most_visible() {
        let full = TagCandidates::collect(&pair_trace(50), 8, 64);
        let capped = TagCandidates::collect(&pair_trace(50), 8, 2);
        assert!(full.tags(0x200).len() > 2);
        assert_eq!(capped.tags(0x200).len(), 2);
        // The capped list is a prefix of the full ranking.
        assert_eq!(&full.tags(0x200)[..2], capped.tags(0x200));
    }

    #[test]
    fn sharded_collection_is_identical_for_every_shard_count() {
        let trace = pair_trace(200);
        let serial = TagCandidates::collect(&trace, 8, 6);
        for shards in [1, 2, 7, 64] {
            let sharded =
                TagCandidates::collect_from_source_sharded(&trace, 8, 6, &TagScheme::ALL, shards)
                    .expect("in-memory scan");
            assert_eq!(
                sharded.branch_count(),
                serial.branch_count(),
                "{shards} shards"
            );
            for (pc, tags) in serial.iter() {
                assert_eq!(sharded.tags(pc), tags, "{shards} shards pc {pc:#x}");
            }
        }
    }

    #[test]
    fn unknown_branch_has_no_tags() {
        let c = TagCandidates::collect(&pair_trace(5), 8, 4);
        assert!(c.tags(0xdead).is_empty());
    }

    #[test]
    fn deterministic_across_runs() {
        let a = TagCandidates::collect(&pair_trace(40), 16, 8);
        let b = TagCandidates::collect(&pair_trace(40), 16, 8);
        assert_eq!(a.tags(0x100), b.tags(0x100));
        assert_eq!(a.tags(0x200), b.tags(0x200));
    }

    #[test]
    #[should_panic(expected = "cap")]
    fn zero_cap_rejected() {
        let _ = TagCandidates::collect(&Trace::new(), 8, 0);
    }

    #[test]
    #[should_panic(expected = "scheme")]
    fn empty_schemes_rejected() {
        let _ = TagCandidates::collect_with_schemes(&Trace::new(), 8, 4, &[]);
    }

    #[test]
    fn scheme_restriction_filters_tags() {
        let trace = pair_trace(30);
        let occ = TagCandidates::collect_with_schemes(&trace, 8, 32, &[TagScheme::Occurrence]);
        let iter = TagCandidates::collect_with_schemes(&trace, 8, 32, &[TagScheme::Iteration]);
        assert!(occ
            .tags(0x200)
            .iter()
            .all(|t| t.scheme == TagScheme::Occurrence));
        assert!(iter
            .tags(0x200)
            .iter()
            .all(|t| t.scheme == TagScheme::Iteration));
        assert!(!occ.tags(0x200).is_empty());
        assert!(!iter.tags(0x200).is_empty());
        // Both-schemes collection is the union, pre-cap.
        let both = TagCandidates::collect_with_schemes(&trace, 8, 64, &TagScheme::ALL);
        for t in occ.tags(0x200) {
            assert!(both.tags(0x200).contains(t));
        }
    }
}
