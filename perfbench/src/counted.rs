//! A counting [`TraceSource`] wrapper the benchmark owns: it counts the
//! passes a layer makes over the trace and the records it scans, and
//! times the producer (generation or decode) apart from the consumer.

use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, Instant};

use bp_trace::io::TraceIoError;
use bp_trace::{BranchRecord, TraceSource};

pub struct Counted<S> {
    inner: S,
    passes: AtomicU64,
    records: AtomicU64,
    producer_nanos: AtomicU64,
}

/// Totals so far; subtract two to get the work done in between.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ScanCounts {
    pub passes: u64,
    pub records: u64,
    pub producer_nanos: u64,
}

impl ScanCounts {
    pub fn since(self, earlier: ScanCounts) -> ScanCounts {
        ScanCounts {
            passes: self.passes - earlier.passes,
            records: self.records - earlier.records,
            producer_nanos: self.producer_nanos - earlier.producer_nanos,
        }
    }

    pub fn producer_seconds(self) -> f64 {
        self.producer_nanos as f64 * 1e-9
    }
}

impl<S> Counted<S> {
    pub fn new(inner: S) -> Self {
        Counted {
            inner,
            passes: AtomicU64::new(0),
            records: AtomicU64::new(0),
            producer_nanos: AtomicU64::new(0),
        }
    }

    pub fn counts(&self) -> ScanCounts {
        ScanCounts {
            passes: self.passes.load(Ordering::Relaxed),
            records: self.records.load(Ordering::Relaxed),
            producer_nanos: self.producer_nanos.load(Ordering::Relaxed),
        }
    }
}

impl<S: TraceSource> TraceSource for Counted<S> {
    fn scan(&self, visit: &mut dyn FnMut(&[BranchRecord])) -> Result<(), TraceIoError> {
        let started = Instant::now();
        let mut consumer = Duration::ZERO;
        let mut records = 0u64;
        let result = self.inner.scan(&mut |chunk| {
            records += chunk.len() as u64;
            let t = Instant::now();
            visit(chunk);
            consumer += t.elapsed();
        });
        let producer = started.elapsed().saturating_sub(consumer);
        self.passes.fetch_add(1, Ordering::Relaxed);
        self.records.fetch_add(records, Ordering::Relaxed);
        self.producer_nanos
            .fetch_add(producer.as_nanos() as u64, Ordering::Relaxed);
        result
    }

    fn len_hint(&self) -> Option<u64> {
        self.inner.len_hint()
    }
}
