//! Incremental window sweeps: build the candidate + outcome-matrix
//! artifact once at the maximum window and derive every shorter window by
//! masking, instead of re-scanning the trace per sweep point.
//!
//! The figure 5 history-length sweep evaluates the §3.4 oracle at seven
//! window lengths. Naively that is seven candidate-collection passes and
//! seven matrix builds over the same trace. But window visibility nests:
//! an instance visible at distance *d* (see [`PathWindow::distance`]) is
//! visible in exactly the windows of length ≥ *d*, with the same tag,
//! outcome and distance — occurrence indices count only more-recent
//! same-pc entries, and iteration collisions resolve to the most recent
//! instance, so neither naming depends on how far back the window extends.
//! One max-window scan therefore determines every sub-window's candidate
//! counts, ranked candidate lists, and matrix digits; the derived matrices
//! are equal *by construction* to the ones [`OutcomeMatrix::build`] would
//! produce (the unit tests assert plane-level equality).
//!
//! [`SweepMatrix::build`] makes two passes, each driving one chunk-level
//! kernel. [`BucketCounter`] counts every visible tag into per-branch slot
//! rows, one count per bucket — the smallest window that sees the
//! instance — from which each window's ranking and cap follow.
//! [`BlockPacker`] then packs bit-planes for the union of every window's
//! capped candidate list, annotating each set in-path bit with its bucket
//! index in three side bit-planes, a 64-execution block at a time into one
//! block-major buffer per branch. [`SweepMatrix::materialize`] then
//! assembles any sweep point's [`OutcomeMatrix`] with a word-wise
//! bucket-threshold mask, no trace access needed.

use bp_trace::fx::FxHashMap;
use bp_trace::io::TraceIoError;
use bp_trace::{BranchRecord, InstanceTag, PathWindow, Pc, TagScheme, Trace, TraceSource};

use crate::candidates::{rank_by_visibility, SlotRows};
use crate::matrix::{BranchMatrix, OutcomeMatrix};

/// Most sweep points one artifact supports: bucket indices are packed into
/// [`BUCKET_BITS`] bit-planes.
pub const MAX_SWEEP_WINDOWS: usize = 8;
const BUCKET_BITS: usize = 3;
/// Words per union column in a block: in-path, direction, and the bucket
/// bit-planes.
const COLUMN_WORDS: usize = 2 + BUCKET_BITS;

/// Per-window visibility counts of one tag, indexed by bucket.
type Buckets = [u64; MAX_SWEEP_WINDOWS];

/// Per-branch piece of the sweep artifact: packed planes for the union of
/// every window's candidate columns, plus each window's ranked column list.
#[derive(Debug, Clone)]
struct SweepBranch {
    executions: usize,
    /// Union candidate tags, in tag order.
    tags: Vec<InstanceTag>,
    /// Per window: the capped visibility-ranked candidate list, as indices
    /// into `tags`.
    ranked: Vec<Vec<u32>>,
    /// Block-major planes: per 64-execution block, [`SweepBranch::stride`]
    /// words — the branch's outcome word, then per union column its
    /// in-path word at the maximum window, its direction word (a subset of
    /// in-path) and its [`BUCKET_BITS`] bucket words, which give every set
    /// in-path bit the index (in `windows`) of the smallest window
    /// containing the instance, one binary digit per word.
    planes: Vec<u64>,
}

/// The shared artifact of a multi-window oracle sweep over one trace.
#[derive(Debug, Clone)]
pub struct SweepMatrix {
    windows: Vec<usize>,
    branches: FxHashMap<Pc, SweepBranch>,
}

impl SweepMatrix {
    /// Scans `trace` once at the largest window in `windows` and records
    /// everything needed to materialize each sweep point's candidates and
    /// outcome matrix. `caps[i]` is the per-branch candidate cap for
    /// `windows[i]` (rank by visibility, truncate) — per-window caps let a
    /// sweep reproduce exactly the candidate lists a caller would have
    /// built point-by-point, while still packing one shared artifact for
    /// the union of every window's capped list.
    ///
    /// # Panics
    ///
    /// Panics if `windows` is empty, unsorted, non-unique, longer than
    /// [`MAX_SWEEP_WINDOWS`], or contains zero, or if `caps` has a
    /// different length than `windows` or contains zero.
    pub fn build(trace: &Trace, windows: &[usize], caps: &[usize]) -> Self {
        SweepMatrix::build_from_source(trace, windows, caps)
            .expect("in-memory traces cannot fail to scan")
    }

    /// As [`SweepMatrix::build`], consuming any [`TraceSource`] — two
    /// streaming scans (visibility bucketing, then plane packing) instead
    /// of two in-memory passes, with identical output.
    ///
    /// # Errors
    ///
    /// Propagates the source's scan error.
    ///
    /// # Panics
    ///
    /// As [`SweepMatrix::build`].
    pub fn build_from_source<T: TraceSource + ?Sized>(
        source: &T,
        windows: &[usize],
        caps: &[usize],
    ) -> Result<Self, TraceIoError> {
        assert!(!windows.is_empty(), "need at least one sweep window");
        assert!(
            windows.len() <= MAX_SWEEP_WINDOWS,
            "at most {MAX_SWEEP_WINDOWS} sweep windows per artifact"
        );
        assert!(
            windows.windows(2).all(|p| p[0] < p[1]),
            "sweep windows must be strictly ascending"
        );
        assert!(windows[0] > 0, "sweep windows must be positive");
        assert_eq!(
            caps.len(),
            windows.len(),
            "one candidate cap per sweep window"
        );
        assert!(
            caps.iter().all(|&c| c > 0),
            "candidate caps must be positive"
        );
        let mut counter = BucketCounter::new(windows);
        source.scan(&mut |chunk| {
            counter.scan(chunk);
        })?;
        let mut packer = BlockPacker::new(counter, caps);
        source.scan(&mut |chunk| {
            packer.scan(chunk);
        })?;
        Ok(SweepMatrix {
            windows: windows.to_vec(),
            branches: packer.finish(),
        })
    }

    /// The sweep's window lengths, ascending: sweep point `i` is
    /// `windows()[i]`.
    pub fn windows(&self) -> &[usize] {
        &self.windows
    }

    /// Assembles sweep point `idx`'s outcome matrix: per branch, the capped
    /// candidate columns ranked for `windows[idx]`, with planes masked to
    /// instances the sub-window sees. Equal to [`OutcomeMatrix::build`] on
    /// that window's [`crate::TagCandidates`].
    ///
    /// # Panics
    ///
    /// Panics if `idx` is out of range.
    pub fn materialize(&self, idx: usize) -> OutcomeMatrix {
        assert!(idx < self.windows.len(), "sweep point out of range");
        let branches = self
            .branches
            .iter()
            .map(|(pc, sb)| (*pc, sb.materialize(idx)))
            .collect();
        OutcomeMatrix::from_parts(branches, self.windows[idx])
    }

    /// As [`SweepMatrix::materialize`], assembling branch planes on up to
    /// `jobs` threads. The per-branch masking is pure and the merge is
    /// keyed by PC, so the matrix is identical to the serial replay for
    /// every `jobs` value.
    ///
    /// # Panics
    ///
    /// Panics if `idx` is out of range.
    pub fn materialize_parallel(&self, idx: usize, jobs: usize) -> OutcomeMatrix {
        assert!(idx < self.windows.len(), "sweep point out of range");
        let threads = jobs.max(1).min(self.branches.len().max(1));
        if threads <= 1 {
            return self.materialize(idx);
        }
        let mut branches: Vec<(Pc, &SweepBranch)> =
            self.branches.iter().map(|(pc, sb)| (*pc, sb)).collect();
        branches.sort_unstable_by_key(|&(pc, _)| pc);
        let chunk = branches.len().div_ceil(threads * 8).max(1);
        let next = std::sync::atomic::AtomicUsize::new(0);
        let collected: std::sync::Mutex<FxHashMap<Pc, BranchMatrix>> =
            std::sync::Mutex::new(FxHashMap::default());
        std::thread::scope(|scope| {
            for _ in 0..threads {
                scope.spawn(|| {
                    let mut local: Vec<(Pc, BranchMatrix)> = Vec::new();
                    loop {
                        let start = next.fetch_add(chunk, std::sync::atomic::Ordering::Relaxed);
                        if start >= branches.len() {
                            break;
                        }
                        let end = (start + chunk).min(branches.len());
                        for &(pc, sb) in &branches[start..end] {
                            local.push((pc, sb.materialize(idx)));
                        }
                    }
                    collected
                        .lock()
                        .expect("sweep worker poisoned")
                        .extend(local);
                });
            }
        });
        let branches = collected.into_inner().expect("sweep workers poisoned");
        OutcomeMatrix::from_parts(branches, self.windows[idx])
    }
}

impl SweepBranch {
    /// Words per 64-execution block of `planes`.
    fn stride(&self) -> usize {
        1 + COLUMN_WORDS * self.tags.len()
    }

    fn materialize(&self, idx: usize) -> BranchMatrix {
        let blocks = || self.planes.chunks_exact(self.stride());
        let cols = &self.ranked[idx];
        let mut inpath = Vec::with_capacity(cols.len());
        let mut dir = Vec::with_capacity(cols.len());
        for &c in cols {
            let base = 1 + COLUMN_WORDS * c as usize;
            let mut ip_plane = Vec::with_capacity(blocks().len());
            let mut d_plane = Vec::with_capacity(blocks().len());
            for block in blocks() {
                let col = &block[base..base + COLUMN_WORDS];
                let (ip, d, buckets) = (col[0], col[1], &col[2..]);
                // Word-wise bucket-index <= idx comparator over the three
                // bucket bit-planes: a bit survives when its instance is
                // seen by a window no longer than this sweep point's.
                let mut gt = 0u64;
                let mut eq = !0u64;
                for k in (0..BUCKET_BITS).rev() {
                    let bk = buckets[k];
                    let tk = if idx >> k & 1 == 1 { !0u64 } else { 0 };
                    gt |= eq & bk & !tk;
                    eq &= !(bk ^ tk);
                }
                let ip = ip & !gt;
                ip_plane.push(ip);
                d_plane.push(d & ip);
            }
            inpath.push(ip_plane);
            dir.push(d_plane);
        }
        let tags = cols.iter().map(|&c| self.tags[c as usize]).collect();
        let taken = blocks().map(|block| block[0]).collect();
        BranchMatrix::from_planes(tags, self.executions, inpath, dir, taken)
    }
}

/// Pass 1 kernel: a path window at the largest sweep window over every
/// record, counting each conditional branch's visible tags into slot rows,
/// one count per bucket.
struct BucketCounter {
    path: PathWindow,
    /// Bucket of each window position, most recent first: the index of
    /// the smallest sweep window at least as long as the position's
    /// distance (position + 1).
    buckets: Vec<u8>,
    /// Per branch: its executions and its bucketed counts.
    counts: FxHashMap<Pc, (usize, SlotRows<Buckets>)>,
}

impl BucketCounter {
    fn new(windows: &[usize]) -> Self {
        let max_window = *windows.last().expect("windows is non-empty");
        let mut buckets = Vec::with_capacity(max_window);
        let mut b = 0;
        for distance in 1..=max_window {
            b += usize::from(windows[b] < distance);
            buckets.push(b as u8);
        }
        BucketCounter {
            path: PathWindow::new(max_window),
            buckets,
            counts: FxHashMap::default(),
        }
    }

    fn scan(&mut self, records: &[BranchRecord]) {
        for rec in records {
            if rec.is_conditional() {
                let window = self.path.capacity();
                let (executions, rows) = self
                    .counts
                    .entry(rec.pc)
                    .or_insert_with(|| (0, SlotRows::new(window, [0; MAX_SWEEP_WINDOWS])));
                *executions += 1;
                for (e, &b) in self.path.entries().zip(&self.buckets) {
                    let b = usize::from(b);
                    let occurrence = rows.cell(TagScheme::Occurrence, e.occurrence());
                    let iteration = e.iteration().map(|i| rows.cell(TagScheme::Iteration, i));
                    let row = rows.row_mut(e.pc);
                    row[occurrence][b] += 1;
                    if let Some(c) = iteration {
                        row[c][b] += 1;
                    }
                }
            }
            self.path.push(rec);
        }
    }
}

/// Pass 2 kernel: the same path window again, packing each branch's
/// union-column planes.
struct BlockPacker {
    path: PathWindow,
    /// As [`BucketCounter::buckets`].
    buckets: Vec<u8>,
    branches: FxHashMap<Pc, BranchBlocks>,
}

impl BlockPacker {
    /// Ranks pass 1's counts per window and sets up every branch's packer.
    fn new(counter: BucketCounter, caps: &[usize]) -> Self {
        let BucketCounter {
            mut path,
            buckets,
            counts,
        } = counter;
        let window = path.capacity();
        path.clear();
        let branches = counts
            .into_iter()
            .map(|(pc, (executions, rows))| {
                (pc, BranchBlocks::new(&rows, executions, caps, window))
            })
            .collect();
        BlockPacker {
            path,
            buckets,
            branches,
        }
    }

    fn scan(&mut self, records: &[BranchRecord]) {
        for rec in records {
            if rec.is_conditional() {
                if let Some(branch) = self.branches.get_mut(&rec.pc) {
                    branch.push_execution(rec.taken, &self.path, &self.buckets);
                }
            }
            self.path.push(rec);
        }
    }

    fn finish(self) -> FxHashMap<Pc, SweepBranch> {
        self.branches
            .into_iter()
            .map(|(pc, branch)| (pc, branch.finish()))
            .collect()
    }
}

/// Packs one branch's planes a 64-execution block at a time: bits are set
/// in the block's words, and the whole block is appended to the planes
/// when it fills.
struct BranchBlocks {
    branch: SweepBranch,
    /// Union column of every candidate tag ([`SlotRows::columns`]); every
    /// other cell holds the spare column, whose block words are written
    /// and discarded.
    columns: SlotRows<u32>,
    /// The current block: [`SweepBranch::stride`] words plus the spare
    /// column's.
    block: Vec<u64>,
}

impl BranchBlocks {
    fn new(rows: &SlotRows<Buckets>, executions: usize, caps: &[usize], window: usize) -> Self {
        // Running sums turn bucket counts into per-window visibility.
        let seen: Vec<(InstanceTag, Buckets)> = rows
            .iter()
            .filter(|(_, counts)| counts.iter().any(|&n| n > 0))
            .map(|(tag, mut counts)| {
                for b in 1..MAX_SWEEP_WINDOWS {
                    counts[b] += counts[b - 1];
                }
                (tag, counts)
            })
            .collect();
        let mut list = Vec::with_capacity(seen.len());
        let lists: Vec<Vec<InstanceTag>> = caps
            .iter()
            .enumerate()
            .map(|(i, &cap)| {
                list.clear();
                list.extend(
                    seen.iter()
                        .filter(|(_, visible)| visible[i] > 0)
                        .map(|&(tag, visible)| (tag, visible[i])),
                );
                rank_by_visibility(&mut list, cap);
                list.iter().map(|&(tag, _)| tag).collect()
            })
            .collect();
        let mut tags = lists.concat();
        tags.sort_unstable();
        tags.dedup();
        let columns = SlotRows::columns(&tags, window);
        // Each ranked tag's union column, read back from the lookup.
        let ranked = lists
            .iter()
            .map(|list| {
                list.iter()
                    .map(|tag| {
                        let row = columns.row(tag.pc).expect("union tags have rows");
                        row[columns.cell(tag.scheme, tag.index)]
                    })
                    .collect()
            })
            .collect();
        let stride = 1 + COLUMN_WORDS * tags.len();
        BranchBlocks {
            branch: SweepBranch {
                executions: 0,
                tags,
                ranked,
                // Pass 1 counted the executions: one allocation, no growth.
                planes: Vec::with_capacity(executions.div_ceil(64) * stride),
            },
            columns,
            block: vec![0; stride + COLUMN_WORDS],
        }
    }

    fn push_execution(&mut self, taken: bool, path: &PathWindow, buckets: &[u8]) {
        let shift = self.branch.executions % 64;
        let bit = 1u64 << shift;
        for (e, &b) in path.entries().zip(buckets) {
            let Some(row) = self.columns.row(e.pc) else {
                continue;
            };
            let b = u64::from(b);
            let words: [u64; COLUMN_WORDS] = [
                bit,
                u64::from(e.taken) << shift,
                (b & 1) << shift,
                (b >> 1 & 1) << shift,
                (b >> 2 & 1) << shift,
            ];
            let mut set = |c: u32| {
                let base = 1 + COLUMN_WORDS * c as usize;
                for (word, w) in self.block[base..base + COLUMN_WORDS].iter_mut().zip(words) {
                    *word |= w;
                }
            };
            set(row[self.columns.cell(TagScheme::Occurrence, e.occurrence())]);
            if let Some(i) = e.iteration() {
                set(row[self.columns.cell(TagScheme::Iteration, i)]);
            }
        }
        self.block[0] |= u64::from(taken) << shift;
        self.branch.executions += 1;
        if shift == 63 {
            self.flush();
        }
    }

    fn flush(&mut self) {
        let stride = self.branch.stride();
        self.branch.planes.extend_from_slice(&self.block[..stride]);
        self.block.fill(0);
    }

    fn finish(mut self) -> SweepBranch {
        if !self.branch.executions.is_multiple_of(64) {
            self.flush();
        }
        self.branch
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::candidates::TagCandidates;
    use bp_trace::{BranchRecord, Recorder};

    /// A trace with loops, calls and correlated branches so all tag
    /// schemes, distances and collision cases occur.
    fn mixed_trace(n: usize) -> Trace {
        let mut rec = Recorder::new();
        let mut state = 0x9e3779b97f4a7c15u64;
        for _ in 0..n {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            let a = (state >> 33) & 1 == 1;
            let b = (state >> 34) & 1 == 1;
            let c = (state >> 35) & 1 == 1;
            rec.cond(0x100, a);
            if a {
                rec.call(0x110, 0x1000);
                rec.cond(0x1010, b);
                rec.ret(0x1020);
            }
            rec.cond(0x200, b);
            rec.cond(0x300, a && b);
            rec.cond(0x400, a ^ c);
            rec.loop_back(0x500, true);
        }
        rec.into_trace()
    }

    const WINDOWS: [usize; 4] = [4, 8, 12, 16];

    #[test]
    fn materialized_points_equal_direct_builds() {
        let trace = mixed_trace(300);
        let caps = [20; 4];
        let sweep = SweepMatrix::build(&trace, &WINDOWS, &caps);
        for (i, &n) in WINDOWS.iter().enumerate() {
            let derived = sweep.materialize(i);
            let cands = TagCandidates::collect(&trace, n, caps[i]);
            let direct = OutcomeMatrix::build(&trace, &cands, n);
            assert_eq!(derived.window(), direct.window());
            assert_eq!(derived.branch_count(), direct.branch_count());
            for (pc, want) in direct.iter() {
                let got = derived.branch(pc).expect("branch present");
                assert_eq!(got.tags(), want.tags(), "window {n} branch {pc:#x}");
                assert_eq!(got.executions(), want.executions());
                assert_eq!(got.taken_plane(), want.taken_plane());
                for c in 0..want.tags().len() {
                    assert_eq!(
                        got.inpath_plane(c),
                        want.inpath_plane(c),
                        "window {n} branch {pc:#x} col {c} in-path"
                    );
                    assert_eq!(
                        got.dir_plane(c),
                        want.dir_plane(c),
                        "window {n} branch {pc:#x} col {c} dir"
                    );
                }
            }
        }
    }

    #[test]
    fn parallel_materialization_is_identical_for_every_jobs_count() {
        let trace = mixed_trace(200);
        let sweep = SweepMatrix::build(&trace, &WINDOWS, &[12; 4]);
        for (i, _) in WINDOWS.iter().enumerate() {
            let serial = sweep.materialize(i);
            for jobs in [1, 2, 7, 64] {
                assert_eq!(
                    sweep.materialize_parallel(i, jobs),
                    serial,
                    "point {i} jobs {jobs}"
                );
            }
        }
    }

    #[test]
    fn single_window_sweep_degenerates_to_direct_build() {
        let trace = mixed_trace(100);
        let sweep = SweepMatrix::build(&trace, &[16], &[12]);
        let derived = sweep.materialize(0);
        let cands = TagCandidates::collect(&trace, 16, 12);
        let direct = OutcomeMatrix::build(&trace, &cands, 16);
        assert_eq!(derived.branch_count(), direct.branch_count());
        assert_eq!(derived.dynamic_count(), direct.dynamic_count());
    }

    #[test]
    fn per_window_caps_match_direct_collections() {
        // Tight, varying caps exercise both the per-window re-ranking
        // (short windows rank nearby instances highest, long windows may
        // promote others) and per-point truncation: each materialized
        // point must reproduce exactly the candidate list a direct build
        // at that window's own cap would produce.
        let trace = mixed_trace(200);
        let caps = [2, 3, 5, 8];
        let sweep = SweepMatrix::build(&trace, &WINDOWS, &caps);
        for (i, &n) in WINDOWS.iter().enumerate() {
            let derived = sweep.materialize(i);
            let cands = TagCandidates::collect(&trace, n, caps[i]);
            for (pc, tags) in cands.iter() {
                let got = derived.branch(pc).expect("branch present");
                assert_eq!(got.tags(), tags, "window {n} branch {pc:#x}");
            }
        }
    }

    #[test]
    fn branch_with_no_candidates_is_retained() {
        // A lone branch never has anything in its window... the sweep must
        // still carry it (zero columns) like the direct build does.
        let trace = Trace::from_records(vec![BranchRecord::conditional(0x42, true)]);
        let sweep = SweepMatrix::build(&trace, &[8, 16], &[4, 4]);
        let m = sweep.materialize(1);
        let bm = m.branch(0x42).expect("branch retained");
        assert_eq!(bm.tags().len(), 0);
        assert_eq!(bm.executions(), 1);
    }

    #[test]
    #[should_panic(expected = "ascending")]
    fn unsorted_windows_rejected() {
        let _ = SweepMatrix::build(&Trace::new(), &[16, 8], &[4, 4]);
    }

    #[test]
    #[should_panic(expected = "at most")]
    fn too_many_windows_rejected() {
        let _ = SweepMatrix::build(&Trace::new(), &[1, 2, 3, 4, 5, 6, 7, 8, 9], &[4; 9]);
    }

    #[test]
    #[should_panic(expected = "one candidate cap per sweep window")]
    fn mismatched_caps_rejected() {
        let _ = SweepMatrix::build(&Trace::new(), &[8, 16], &[4]);
    }
}
