//! Property-based tests for the trace substrate: the path window against a
//! naive reference model and against the original quadratic-scan window,
//! serialization round-trips, and profile/stats consistency on arbitrary
//! traces.

use std::collections::VecDeque;

use proptest::prelude::*;

use bp_trace::{
    io, BranchKind, BranchProfile, BranchRecord, InstanceTag, PathWindow, Pc, TagScheme, Trace,
    TraceStats,
};

fn arb_record() -> impl Strategy<Value = BranchRecord> {
    (
        0u64..64,      // small pc space to force instance collisions
        0u64..64,      // target
        any::<bool>(), // taken
        0u8..4,        // kind
    )
        .prop_map(|(pc, target, taken, kind)| BranchRecord {
            pc: pc * 4,
            target: target * 4,
            taken,
            kind: match kind {
                0 => BranchKind::Conditional,
                1 => BranchKind::Call,
                2 => BranchKind::Return,
                _ => BranchKind::Jump,
            },
        })
}

fn arb_trace(max: usize) -> impl Strategy<Value = Trace> {
    prop::collection::vec(arb_record(), 0..max).prop_map(Trace::from_records)
}

/// Reference implementation of the §3.2 tagging semantics: given the raw
/// list of conditional records in the window (oldest first) and the total
/// backward count, name every instance the slow way.
fn reference_tags(window: &[BranchRecord]) -> Vec<(InstanceTag, bool)> {
    let mut out = Vec::new();
    let mut occurrence_seen: Vec<(Pc, u16)> = Vec::new();
    let mut iteration_seen: Vec<(Pc, u64)> = Vec::new();
    // Walk most-recent first.
    for (i, rec) in window.iter().enumerate().rev() {
        let backwards_since = window[i + 1..].iter().filter(|r| r.is_backward()).count() as u64;
        let occ = occurrence_seen
            .iter()
            .filter(|(pc, _)| *pc == rec.pc)
            .count() as u16;
        occurrence_seen.push((rec.pc, occ));
        out.push((InstanceTag::occurrence(rec.pc, occ), rec.taken));
        if !iteration_seen
            .iter()
            .any(|&(pc, b)| pc == rec.pc && b == backwards_since)
        {
            iteration_seen.push((rec.pc, backwards_since));
            out.push((
                InstanceTag::iteration(rec.pc, backwards_since as u16),
                rec.taken,
            ));
        }
    }
    out
}

/// The path window as first written: entries carry a running backward
/// clock, and every query rescans the window, O(W²) per listing. The
/// incremental [`PathWindow`] must name every instance exactly as this
/// does, in the same order.
struct QuadraticWindow {
    capacity: usize,
    entries: VecDeque<(Pc, bool, u64)>,
    backward_total: u64,
}

impl QuadraticWindow {
    fn new(capacity: usize) -> Self {
        QuadraticWindow {
            capacity,
            entries: VecDeque::new(),
            backward_total: 0,
        }
    }

    fn clear(&mut self) {
        self.entries.clear();
    }

    fn push(&mut self, rec: &BranchRecord) {
        if !rec.is_conditional() {
            return;
        }
        if rec.is_backward() {
            self.backward_total += 1;
        }
        if self.entries.len() == self.capacity {
            self.entries.pop_front();
        }
        self.entries
            .push_back((rec.pc, rec.taken, self.backward_total));
    }

    fn since(&self, through: u64) -> u64 {
        self.backward_total - through
    }

    fn position(&self, tag: InstanceTag) -> Option<usize> {
        match tag.scheme {
            TagScheme::Occurrence => {
                let mut seen = 0u16;
                self.entries.iter().rev().position(|&(pc, _, _)| {
                    if pc == tag.pc {
                        let hit = seen == tag.index;
                        seen += 1;
                        hit
                    } else {
                        false
                    }
                })
            }
            TagScheme::Iteration => self.entries.iter().rev().position(|&(pc, _, through)| {
                pc == tag.pc && self.since(through) == u64::from(tag.index)
            }),
        }
    }

    fn lookup(&self, tag: InstanceTag) -> Option<bool> {
        self.position(tag)
            .map(|p| self.entries[self.entries.len() - 1 - p].1)
    }

    fn distance(&self, tag: InstanceTag) -> Option<usize> {
        self.position(tag).map(|p| p + 1)
    }

    fn visible_tags_with_distance(&self) -> Vec<(InstanceTag, bool, usize)> {
        let mut out = Vec::new();
        let mut seen_iteration: Vec<(Pc, u64)> = Vec::new();
        let mut occurrence_counts: Vec<(Pc, u16)> = Vec::new();
        for (back, &(pc, taken, through)) in self.entries.iter().rev().enumerate() {
            let occ = match occurrence_counts.iter_mut().find(|(p, _)| *p == pc) {
                Some((_, n)) => {
                    let k = *n;
                    *n += 1;
                    k
                }
                None => {
                    occurrence_counts.push((pc, 1));
                    0
                }
            };
            out.push((InstanceTag::occurrence(pc, occ), taken, back + 1));
            let since = self.since(through);
            if since <= u64::from(u16::MAX)
                && !seen_iteration.iter().any(|&(p, s)| p == pc && s == since)
            {
                seen_iteration.push((pc, since));
                out.push((InstanceTag::iteration(pc, since as u16), taken, back + 1));
            }
        }
        out
    }
}

/// A conditional-heavy record over a dozen pcs, half of them back-edges,
/// paired with an op selector (0 clears the window first).
fn arb_step() -> impl Strategy<Value = (BranchRecord, u8)> {
    (0u64..12, any::<bool>(), any::<bool>(), 0u8..8, 0u8..24).prop_map(
        |(pc, taken, backward, kind, op)| {
            let pc = 0x1000 + pc * 4;
            let rec = BranchRecord {
                pc,
                target: if backward { pc - 0x40 } else { pc + 0x40 },
                taken,
                kind: match kind {
                    0 => BranchKind::Call,
                    1 => BranchKind::Jump,
                    _ => BranchKind::Conditional,
                },
            };
            (rec, op)
        },
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn incremental_window_matches_quadratic_scan(
        steps in prop::collection::vec(arb_step(), 0..160),
        cap in 1usize..41,
    ) {
        let mut window = PathWindow::new(cap);
        let mut reference = QuadraticWindow::new(cap);
        let mut tags = Vec::new();
        let mut with_distance = Vec::new();
        for (rec, op) in &steps {
            if *op == 0 {
                window.clear();
                reference.clear();
            }
            window.visible_tags_with_distance(&mut with_distance);
            let expected = reference.visible_tags_with_distance();
            prop_assert_eq!(&with_distance, &expected);
            window.visible_tags(&mut tags);
            let plain: Vec<(InstanceTag, bool)> =
                expected.iter().map(|&(t, o, _)| (t, o)).collect();
            prop_assert_eq!(&tags, &plain);
            prop_assert_eq!(window.len(), reference.entries.len());

            // Every visible tag, its neighbours in index and its twin in
            // the other scheme (mostly absent): lookup and distance agree.
            for &(tag, _, _) in &expected {
                let other = match tag.scheme {
                    TagScheme::Occurrence => TagScheme::Iteration,
                    TagScheme::Iteration => TagScheme::Occurrence,
                };
                for probe in [
                    tag,
                    InstanceTag { index: tag.index + 1, ..tag },
                    InstanceTag { scheme: other, ..tag },
                    InstanceTag { pc: tag.pc + 2, ..tag },
                ] {
                    prop_assert_eq!(window.lookup(probe), reference.lookup(probe));
                    prop_assert_eq!(window.distance(probe), reference.distance(probe));
                }
            }

            window.push(rec);
            reference.push(rec);
        }
    }

    #[test]
    fn window_matches_reference_model(records in prop::collection::vec(arb_record(), 0..120), cap in 1usize..24) {
        let mut window = PathWindow::new(cap);
        let mut model: Vec<BranchRecord> = Vec::new();
        for rec in &records {
            // Query before push, like the analyses do.
            let mut tags = Vec::new();
            window.visible_tags(&mut tags);
            let expected = reference_tags(&model);
            let mut got = tags.clone();
            let mut want = expected.clone();
            got.sort();
            want.sort();
            prop_assert_eq!(got, want);

            // Single lookups agree with the bulk listing.
            for (tag, outcome) in &tags {
                prop_assert_eq!(window.lookup(*tag), Some(*outcome));
            }

            window.push(rec);
            if rec.is_conditional() {
                model.push(*rec);
                if model.len() > cap {
                    model.remove(0);
                }
            }
        }
    }

    #[test]
    fn io_roundtrip(trace in arb_trace(200)) {
        let mut buf = Vec::new();
        io::write_trace(&mut buf, &trace).expect("write never fails to a Vec");
        let back = io::read_trace(buf.as_slice()).expect("decode what we encoded");
        prop_assert_eq!(back, trace);
    }

    #[test]
    fn truncated_stream_never_panics(trace in arb_trace(60), cut in 0usize..40) {
        let mut buf = Vec::new();
        io::write_trace(&mut buf, &trace).unwrap();
        let cut = cut.min(buf.len());
        // Must error or succeed, never panic; success only for full stream.
        let _ = io::read_trace(&buf[..buf.len() - cut]);
    }

    #[test]
    fn arbitrary_bytes_never_panic_the_decoder(bytes in prop::collection::vec(any::<u8>(), 0..300)) {
        // Errors are fine; panics and unbounded allocation are not.
        let _ = io::read_trace(bytes.as_slice());
        if let Ok(reader) = io::TraceReader::new(bytes.as_slice()) {
            // Cap iteration: the header may claim an enormous count, but a
            // short buffer must error out almost immediately.
            for item in reader.take(1000) {
                if item.is_err() {
                    break;
                }
            }
        }
    }

    #[test]
    fn streaming_and_bulk_decoders_agree(trace in arb_trace(120)) {
        let mut buf = Vec::new();
        io::write_trace(&mut buf, &trace).unwrap();
        let bulk = io::read_trace(buf.as_slice()).unwrap();
        let streamed: Result<Vec<_>, _> = io::TraceReader::new(buf.as_slice()).unwrap().collect();
        prop_assert_eq!(streamed.unwrap(), bulk.records());
    }

    #[test]
    fn stats_and_profile_agree(trace in arb_trace(300)) {
        let stats = TraceStats::of(&trace);
        let profile = BranchProfile::of(&trace);
        prop_assert_eq!(stats.dynamic_conditional, profile.dynamic_count());
        prop_assert_eq!(stats.static_conditional as usize, profile.static_count());
        let taken_sum: u64 = profile.iter().map(|(_, e)| e.taken).sum();
        prop_assert_eq!(stats.taken, taken_sum);
        // Ideal static can never beat perfection nor lose to 50% per branch.
        let acc = profile.ideal_static_accuracy();
        if profile.dynamic_count() > 0 {
            prop_assert!((0.5..=1.0).contains(&acc));
        }
    }

    #[test]
    fn window_len_never_exceeds_capacity(records in prop::collection::vec(arb_record(), 0..150), cap in 1usize..16) {
        let mut window = PathWindow::new(cap);
        for rec in &records {
            window.push(rec);
            prop_assert!(window.len() <= cap);
        }
    }

    #[test]
    fn tags_have_consistent_schemes(records in prop::collection::vec(arb_record(), 0..80)) {
        let mut window = PathWindow::new(16);
        let mut tags = Vec::new();
        for rec in &records {
            window.push(rec);
        }
        window.visible_tags(&mut tags);
        // Occurrence tags of one pc form a contiguous 0..n index range.
        for (tag, _) in &tags {
            if tag.scheme == TagScheme::Occurrence && tag.index > 0 {
                let predecessor = InstanceTag::occurrence(tag.pc, tag.index - 1);
                prop_assert!(
                    tags.iter().any(|(t, _)| *t == predecessor),
                    "occurrence {} of {:#x} present without {}",
                    tag.index, tag.pc, tag.index - 1
                );
            }
        }
    }
}
