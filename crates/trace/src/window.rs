use crate::record::{BranchRecord, Pc};
use crate::tag::{InstanceTag, TagScheme};

/// One prior conditional branch held in a [`PathWindow`], with the names
/// the window currently gives it under both tagging schemes.
///
/// Both indices are kept up to date on every [`PathWindow::push`], so
/// naming an entry is a field read, never a scan of its neighbours.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WindowEntry {
    /// Static address of the branch.
    pub pc: Pc,
    /// Its outcome.
    pub taken: bool,
    /// More-recent entries with the same pc.
    occurrence: u16,
    /// Backward branches (loop back-edges) pushed after this entry.
    iteration: u16,
    /// A more-recent entry has the same pc and the same iteration index,
    /// so that one owns the iteration name.
    shadowed: bool,
}

impl WindowEntry {
    /// The [`TagScheme::Occurrence`] index: 0 for the most recent instance
    /// of this pc, 1 for the one before it, and so on.
    #[inline]
    pub fn occurrence(&self) -> u16 {
        self.occurrence
    }

    /// The [`TagScheme::Iteration`] index: backward branches executed
    /// since this instance. `None` when a more recent instance of the same
    /// pc has the same count (no back-edge between them): the most recent
    /// instance wins, so each tag names at most one entry.
    #[inline]
    pub fn iteration(&self) -> Option<u16> {
        (!self.shadowed).then_some(self.iteration)
    }

    /// This entry's index under `scheme`.
    #[inline]
    fn index(&self, scheme: TagScheme) -> Option<u16> {
        match scheme {
            TagScheme::Occurrence => Some(self.occurrence),
            TagScheme::Iteration => self.iteration(),
        }
    }
}

/// Largest supported [`PathWindow`] capacity: every index a window can
/// name is below its capacity, and indices are `u16`.
pub const MAX_WINDOW: usize = 1 << 16;

/// Sliding window over the last *n* conditional branches — the "path leading
/// up to the current branch" of paper §3.1/§3.2.
///
/// The window names every visible prior branch instance under both tagging
/// schemes ([`TagScheme::Occurrence`] and [`TagScheme::Iteration`]) so the
/// oracle correlation analysis can treat the two namings as distinct
/// candidate correlated branches, exactly as the paper does.
///
/// Only *conditional* branches enter the window: the first-level history of
/// a two-level predictor records conditional outcomes, and those are the
/// instances whose directions can correlate. (Calls/returns influence the
/// path only through the conditionals executed inside them.)
///
/// Names are maintained incrementally: each [`PathWindow::push`] makes one
/// branch-free pass over the held entries, bumping the occurrence index of
/// same-pc entries, the iteration index of all entries when the pushed
/// branch is a back-edge, and marking same-pc entries the new one shadows.
/// Reading the names ([`PathWindow::entries`], [`PathWindow::visible_tags`])
/// is then one walk with no allocation.
///
/// Usage order matters: query the window for the context of a branch
/// *before* pushing that branch's own record.
///
/// # Example
///
/// ```
/// use bp_trace::{BranchRecord, InstanceTag, PathWindow};
///
/// let mut w = PathWindow::new(16);
/// w.push(&BranchRecord::conditional(0x10, true));
/// w.push(&BranchRecord::conditional(0x10, false));
/// // Most recent instance of 0x10 was not taken:
/// assert_eq!(w.lookup(InstanceTag::occurrence(0x10, 0)), Some(false));
/// // The one before it was taken:
/// assert_eq!(w.lookup(InstanceTag::occurrence(0x10, 1)), Some(true));
/// // No third instance in the path:
/// assert_eq!(w.lookup(InstanceTag::occurrence(0x10, 2)), None);
/// ```
#[derive(Debug, Clone)]
pub struct PathWindow {
    capacity: usize,
    /// Ring of held entries. Until the window first fills (or after a
    /// [`PathWindow::clear`]) it is filled in push order from slot 0, so
    /// the held entries are always exactly `slots[..]`.
    slots: Vec<WindowEntry>,
    /// The slot the next push overwrites once full: the oldest entry.
    /// Zero while filling.
    next: usize,
}

impl PathWindow {
    /// Creates a window holding up to `capacity` prior conditional branches.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero or above [`MAX_WINDOW`] (indices are
    /// `u16`, and a longer window would alias distinct instances).
    pub fn new(capacity: usize) -> Self {
        assert!(capacity > 0, "path window capacity must be positive");
        assert!(
            capacity <= MAX_WINDOW,
            "path window capacity must be at most {MAX_WINDOW}"
        );
        PathWindow {
            capacity,
            slots: Vec::with_capacity(capacity),
            next: 0,
        }
    }

    /// Maximum number of prior branches examined (the paper's *n*).
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Number of prior branches currently visible (≤ capacity).
    pub fn len(&self) -> usize {
        self.slots.len()
    }

    /// `true` when no branch has been pushed yet.
    pub fn is_empty(&self) -> bool {
        self.slots.is_empty()
    }

    /// Forgets all history.
    pub fn clear(&mut self) {
        self.slots.clear();
        self.next = 0;
    }

    /// Pushes a record. Non-conditional records are ignored.
    pub fn push(&mut self, rec: &BranchRecord) {
        if !rec.is_conditional() {
            return;
        }
        let back = u16::from(rec.is_backward());
        // One branch-free pass renames every held entry. When full, the
        // oldest entry is renamed too and then overwritten; its indices may
        // wrap at the maximum capacity, harmlessly.
        for e in &mut self.slots {
            let same = e.pc == rec.pc;
            e.occurrence = e.occurrence.wrapping_add(u16::from(same));
            e.iteration = e.iteration.wrapping_add(back);
            e.shadowed |= same & (e.iteration == 0);
        }
        let entry = WindowEntry {
            pc: rec.pc,
            taken: rec.taken,
            occurrence: 0,
            iteration: 0,
            shadowed: false,
        };
        if self.slots.len() < self.capacity {
            self.slots.push(entry);
        } else {
            self.slots[self.next] = entry;
            self.next = (self.next + 1) % self.capacity;
        }
    }

    /// The held entries, most recent first — the order occurrence indices
    /// count in.
    #[inline]
    pub fn entries(&self) -> impl Iterator<Item = &WindowEntry> {
        let (older, newer) = self.slots.split_at(self.next);
        older.iter().rev().chain(newer.iter().rev())
    }

    /// Most-recent-first position and entry the tag names, if visible.
    fn find(&self, tag: InstanceTag) -> Option<(usize, &WindowEntry)> {
        self.entries()
            .enumerate()
            .find(|(_, e)| e.pc == tag.pc && e.index(tag.scheme) == Some(tag.index))
    }

    /// Looks up the outcome of a single tagged instance, or `None` when the
    /// instance is not in the path.
    ///
    /// For bulk queries prefer [`PathWindow::visible_tags`], which costs one
    /// window walk for all tags.
    pub fn lookup(&self, tag: InstanceTag) -> Option<bool> {
        self.find(tag).map(|(_, e)| e.taken)
    }

    /// The distance, in branches, from the present to the tagged instance:
    /// 1 for the most recently pushed branch, up to `capacity` for the
    /// oldest visible one. `None` when the instance is not in the path.
    ///
    /// This is the §3.6.2 quantity — how far back a correlated branch
    /// sits, and hence how much history a real predictor would need to
    /// reach it.
    pub fn distance(&self, tag: InstanceTag) -> Option<usize> {
        self.find(tag).map(|(back, _)| back + 1)
    }

    /// Appends every visible `(tag, outcome)` pair — both schemes — to
    /// `out`, clearing it first.
    ///
    /// Entries are listed most recent first, each with its occurrence tag
    /// and then, unless shadowed, its iteration tag. Under
    /// [`TagScheme::Iteration`] two instances of the same static branch can
    /// collide on the same backward-branch count (no back-edge executed
    /// between them); the **most recent** instance wins, so each tag
    /// appears at most once in `out`.
    pub fn visible_tags(&self, out: &mut Vec<(InstanceTag, bool)>) {
        out.clear();
        self.scan_visible(|tag, taken, _| out.push((tag, taken)));
    }

    /// As [`PathWindow::visible_tags`], but each entry also carries the
    /// instance's [`PathWindow::distance`] (1 = most recent).
    ///
    /// Because occurrence indices count only more-recent same-pc entries
    /// and iteration collisions resolve to the most recent instance, a tag
    /// visible here at distance *d* is visible — with the same outcome and
    /// distance — in every window of length ≥ *d*, and in no shorter one.
    /// That makes one max-window scan sufficient to derive the visible set
    /// of every sub-window (the incremental window-sweep machinery in
    /// `bp-core` relies on this).
    pub fn visible_tags_with_distance(&self, out: &mut Vec<(InstanceTag, bool, usize)>) {
        out.clear();
        self.scan_visible(|tag, taken, distance| out.push((tag, taken, distance)));
    }

    fn scan_visible(&self, mut emit: impl FnMut(InstanceTag, bool, usize)) {
        for (back, e) in self.entries().enumerate() {
            let distance = back + 1;
            emit(
                InstanceTag::occurrence(e.pc, e.occurrence),
                e.taken,
                distance,
            );
            if let Some(i) = e.iteration() {
                emit(InstanceTag::iteration(e.pc, i), e.taken, distance);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fwd(pc: Pc, taken: bool) -> BranchRecord {
        BranchRecord::conditional(pc, taken)
    }

    fn bwd(pc: Pc, taken: bool) -> BranchRecord {
        BranchRecord::conditional(pc, taken).with_target(pc.saturating_sub(32))
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_capacity_panics() {
        let _ = PathWindow::new(0);
    }

    #[test]
    #[should_panic(expected = "at most 65536")]
    fn capacity_beyond_the_index_range_panics() {
        let _ = PathWindow::new(MAX_WINDOW + 1);
    }

    #[test]
    fn capacity_evicts_oldest() {
        let mut w = PathWindow::new(2);
        w.push(&fwd(1, true));
        w.push(&fwd(2, true));
        w.push(&fwd(3, true));
        assert_eq!(w.len(), 2);
        assert_eq!(w.lookup(InstanceTag::occurrence(1, 0)), None);
        assert_eq!(w.lookup(InstanceTag::occurrence(3, 0)), Some(true));
    }

    #[test]
    fn non_conditionals_ignored() {
        let mut w = PathWindow::new(4);
        w.push(&BranchRecord {
            pc: 9,
            target: 100,
            taken: true,
            kind: crate::BranchKind::Call,
        });
        assert!(w.is_empty());
    }

    #[test]
    fn occurrence_indexing_counts_from_most_recent() {
        let mut w = PathWindow::new(8);
        w.push(&fwd(5, true)); // will be occurrence 2
        w.push(&fwd(5, false)); // occurrence 1
        w.push(&fwd(5, true)); // occurrence 0
        assert_eq!(w.lookup(InstanceTag::occurrence(5, 0)), Some(true));
        assert_eq!(w.lookup(InstanceTag::occurrence(5, 1)), Some(false));
        assert_eq!(w.lookup(InstanceTag::occurrence(5, 2)), Some(true));
        assert_eq!(w.lookup(InstanceTag::occurrence(5, 3)), None);
    }

    #[test]
    fn iteration_indexing_counts_back_edges() {
        let mut w = PathWindow::new(8);
        // Loop body branch at 10, back-edge at 20, two iterations.
        w.push(&fwd(10, true)); // iter 0: body
        w.push(&bwd(20, true)); // iter 0: back-edge
        w.push(&fwd(10, false)); // iter 1: body
        w.push(&bwd(20, true)); // iter 1: back-edge
                                // Body branch of the previous iteration: 2 back-edges since it
                                // (its own iteration's back-edge plus the next one)... count the
                                // back-edges executed after each instance:
                                //   pc=10 taken=true  -> back-edges after it: 2
                                //   pc=10 taken=false -> back-edges after it: 1
        assert_eq!(w.lookup(InstanceTag::iteration(10, 1)), Some(false));
        assert_eq!(w.lookup(InstanceTag::iteration(10, 2)), Some(true));
        assert_eq!(w.lookup(InstanceTag::iteration(10, 0)), None);
    }

    #[test]
    fn iteration_collision_keeps_most_recent() {
        let mut w = PathWindow::new(8);
        // Two instances of pc=7 with no back-edge between them: both have
        // zero backward branches since.
        w.push(&fwd(7, true));
        w.push(&fwd(7, false));
        let mut tags = Vec::new();
        w.visible_tags(&mut tags);
        let iter_hits: Vec<_> = tags
            .iter()
            .filter(|(t, _)| t.scheme == TagScheme::Iteration && t.pc == 7)
            .collect();
        assert_eq!(iter_hits.len(), 1);
        assert!(!iter_hits[0].1); // most recent outcome
        assert_eq!(w.lookup(InstanceTag::iteration(7, 0)), Some(false));
    }

    #[test]
    fn visible_tags_matches_lookup() {
        let mut w = PathWindow::new(6);
        for (i, rec) in [fwd(1, true), bwd(2, true), fwd(1, false), fwd(3, true)]
            .iter()
            .enumerate()
        {
            let _ = i;
            w.push(rec);
        }
        let mut tags = Vec::new();
        w.visible_tags(&mut tags);
        assert!(!tags.is_empty());
        for (tag, outcome) in &tags {
            assert_eq!(w.lookup(*tag), Some(*outcome), "tag {tag:?}");
        }
        // No duplicate tags.
        let mut seen = std::collections::HashSet::new();
        for (tag, _) in &tags {
            assert!(seen.insert(*tag), "duplicate tag {tag:?}");
        }
    }

    #[test]
    fn distance_counts_from_most_recent() {
        let mut w = PathWindow::new(8);
        w.push(&fwd(5, true)); // distance 3
        w.push(&bwd(6, true)); // distance 2
        w.push(&fwd(5, false)); // distance 1
        assert_eq!(w.distance(InstanceTag::occurrence(5, 0)), Some(1));
        assert_eq!(w.distance(InstanceTag::occurrence(5, 1)), Some(3));
        assert_eq!(w.distance(InstanceTag::occurrence(6, 0)), Some(2));
        assert_eq!(w.distance(InstanceTag::occurrence(5, 2)), None);
        // Iteration scheme: pc=5 oldest instance has 1 back-edge since it.
        assert_eq!(w.distance(InstanceTag::iteration(5, 1)), Some(3));
        assert_eq!(w.distance(InstanceTag::iteration(5, 0)), Some(1));
        // Distance agrees with lookup presence.
        let mut tags = Vec::new();
        w.visible_tags(&mut tags);
        for (tag, _) in tags {
            assert!(w.distance(tag).is_some(), "{tag:?}");
        }
    }

    #[test]
    fn visible_tags_with_distance_agrees_with_plain_scan() {
        let mut w = PathWindow::new(6);
        for rec in [fwd(1, true), bwd(2, true), fwd(1, false), fwd(3, true)] {
            w.push(&rec);
        }
        let mut plain = Vec::new();
        let mut with_d = Vec::new();
        w.visible_tags(&mut plain);
        w.visible_tags_with_distance(&mut with_d);
        // Same tags/outcomes in the same order, distances match distance().
        assert_eq!(plain.len(), with_d.len());
        for ((tag, taken), (dtag, dtaken, d)) in plain.iter().zip(&with_d) {
            assert_eq!((tag, taken), (dtag, dtaken));
            assert_eq!(w.distance(*tag), Some(*d), "{tag:?}");
        }
    }

    #[test]
    fn sub_window_visible_set_is_distance_filter_of_max_window() {
        // The property the incremental window sweep rests on: the visible
        // set of a short window equals the long window's set filtered to
        // distance <= short capacity.
        let recs = [
            fwd(1, true),
            bwd(2, true),
            fwd(1, false),
            fwd(3, true),
            bwd(2, false),
            fwd(1, true),
            fwd(4, false),
        ];
        for short_cap in 1..=recs.len() {
            let mut long = PathWindow::new(recs.len());
            let mut short = PathWindow::new(short_cap);
            for rec in &recs {
                long.push(rec);
                short.push(rec);
            }
            let mut long_tags = Vec::new();
            let mut short_tags = Vec::new();
            long.visible_tags_with_distance(&mut long_tags);
            short.visible_tags(&mut short_tags);
            let filtered: Vec<_> = long_tags
                .iter()
                .filter(|(_, _, d)| *d <= short_cap)
                .map(|(t, o, _)| (*t, *o))
                .collect();
            assert_eq!(filtered, short_tags, "cap {short_cap}");
        }
    }

    #[test]
    fn clear_keeps_backward_clock_monotonic() {
        let mut w = PathWindow::new(4);
        w.push(&bwd(2, true));
        w.clear();
        assert!(w.is_empty());
        w.push(&fwd(1, true));
        // Entry pushed after clear must still compute a sane iteration index.
        assert_eq!(w.lookup(InstanceTag::iteration(1, 0)), Some(true));
    }
}
