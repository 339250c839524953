//! Name-keyed instrument registry.

use crate::histogram::Histogram;
use crate::metric::{Counter, Gauge};
use crate::snapshot::{MetricValue, MetricsSnapshot, SnapshotEntry};
use std::collections::BTreeMap;
use std::sync::{Arc, Mutex, MutexGuard};

#[derive(Debug, Clone)]
enum Instrument {
    Counter(Arc<Counter>),
    Gauge(Arc<Gauge>),
    Histogram(Arc<Histogram>),
}

/// A get-or-create map from static metric names to shared instruments.
///
/// Cloning a `Registry` clones the *handle*: all clones observe the same
/// instruments, so a pipeline can hand metric access to helpers without
/// lifetime plumbing. Lookup takes a mutex, so callers cache the
/// returned `Arc` handles instead of resolving names per event; a
/// poisoned lock is recovered (the map holds only atomics, which cannot
/// be left in a torn state), keeping every path panic-free.
///
/// Registering one name with two different instrument kinds is a caller
/// bug the registry survives: the first registration wins, and the
/// mismatched call gets a fresh *detached* instrument that records into
/// the void rather than corrupting the registered one.
#[derive(Debug, Clone, Default)]
pub struct Registry {
    inner: Arc<Mutex<BTreeMap<&'static str, Instrument>>>,
}

impl Registry {
    /// Creates an empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    fn map(&self) -> MutexGuard<'_, BTreeMap<&'static str, Instrument>> {
        // Instruments are bags of relaxed atomics; a panic mid-update
        // cannot tear them, so the poisoned state is safe to adopt.
        self.inner.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// Returns the counter registered under `name`, creating it on first
    /// use. See the type docs for the kind-mismatch policy.
    pub fn counter(&self, name: &'static str) -> Arc<Counter> {
        let mut map = self.map();
        match map
            .entry(name)
            .or_insert_with(|| Instrument::Counter(Arc::new(Counter::new())))
        {
            Instrument::Counter(c) => Arc::clone(c),
            _ => Arc::new(Counter::new()),
        }
    }

    /// Returns the gauge registered under `name`, creating it on first
    /// use. See the type docs for the kind-mismatch policy.
    pub fn gauge(&self, name: &'static str) -> Arc<Gauge> {
        let mut map = self.map();
        match map
            .entry(name)
            .or_insert_with(|| Instrument::Gauge(Arc::new(Gauge::new())))
        {
            Instrument::Gauge(g) => Arc::clone(g),
            _ => Arc::new(Gauge::new()),
        }
    }

    /// Returns the histogram registered under `name`, creating it on
    /// first use. See the type docs for the kind-mismatch policy.
    pub fn histogram(&self, name: &'static str) -> Arc<Histogram> {
        let mut map = self.map();
        match map
            .entry(name)
            .or_insert_with(|| Instrument::Histogram(Arc::new(Histogram::new())))
        {
            Instrument::Histogram(h) => Arc::clone(h),
            _ => Arc::new(Histogram::new()),
        }
    }

    /// A point-in-time copy of every registered instrument, in name
    /// order (the map is a `BTreeMap`, so order is deterministic).
    pub fn snapshot(&self) -> MetricsSnapshot {
        let entries = self
            .map()
            .iter()
            .map(|(&name, instrument)| SnapshotEntry {
                name,
                value: match instrument {
                    Instrument::Counter(c) => MetricValue::Counter(c.get()),
                    Instrument::Gauge(g) => MetricValue::Gauge(g.get()),
                    Instrument::Histogram(h) => MetricValue::Histogram(h.summary()),
                },
            })
            .collect();
        MetricsSnapshot::from_entries(entries)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn get_or_create_returns_the_same_instrument() {
        let r = Registry::new();
        r.counter("a").add(2);
        r.counter("a").add(3);
        assert_eq!(r.counter("a").get(), 5);
        // Clones share the underlying map.
        let r2 = r.clone();
        r2.counter("a").inc();
        assert_eq!(r.counter("a").get(), 6);
    }

    #[test]
    fn kind_mismatch_yields_detached_instrument() {
        let r = Registry::new();
        r.counter("x").add(9);
        // Asking for "x" as a histogram must not clobber the counter.
        let detached = r.histogram("x");
        detached.record(1);
        assert_eq!(r.counter("x").get(), 9);
        assert_eq!(r.snapshot().counter("x"), Some(9));
        assert!(r.snapshot().histogram("x").is_none());
    }

    #[test]
    fn snapshot_is_sorted_and_complete() {
        let r = Registry::new();
        r.counter("z_last").inc();
        r.gauge("m_mid").set(4);
        r.histogram("a_first").record(10);
        let snap = r.snapshot();
        let names: Vec<&str> = snap.iter().map(|e| e.name).collect();
        assert_eq!(names, ["a_first", "m_mid", "z_last"]);
        assert_eq!(snap.gauge("m_mid"), Some(4));
    }

    #[test]
    fn threads_share_one_instrument_per_name() {
        // Concurrent get-or-create must hand every thread the same
        // counter while other threads take snapshots.
        let r = Registry::new();
        std::thread::scope(|s| {
            for _ in 0..4 {
                s.spawn(|| {
                    for _ in 0..1_000 {
                        r.counter("shared").inc();
                    }
                    assert!(r.snapshot().counter("shared").is_some());
                });
            }
        });
        assert_eq!(r.counter("shared").get(), 4_000);
    }
}
