//! A small metric registry: named counters, gauges and log-bucketed
//! histograms any layer can register against. Registration returns a
//! typed handle; updates through a handle are a single indexed
//! store — no name lookup on the hot path.

use crate::histogram::LogHistogram;
use desim::Duration;
use std::fmt::Write as _;

/// Handle to a registered counter.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CounterId(usize);

/// Handle to a registered gauge.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct GaugeId(usize);

/// Handle to a registered histogram.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HistogramId(usize);

/// Named metrics of one run. Names are registered once (re-registering
/// a name returns the existing handle) and reported in registration
/// order, so summaries are deterministic.
#[derive(Debug, Clone, Default)]
pub struct Registry {
    counters: Vec<(String, u64)>,
    gauges: Vec<(String, f64)>,
    histograms: Vec<(String, LogHistogram)>,
}

impl Registry {
    pub fn new() -> Self {
        Registry::default()
    }

    pub fn counter(&mut self, name: &str) -> CounterId {
        if let Some(i) = self.counters.iter().position(|(n, _)| n == name) {
            return CounterId(i);
        }
        self.counters.push((name.to_string(), 0));
        CounterId(self.counters.len() - 1)
    }

    pub fn gauge(&mut self, name: &str) -> GaugeId {
        if let Some(i) = self.gauges.iter().position(|(n, _)| n == name) {
            return GaugeId(i);
        }
        self.gauges.push((name.to_string(), 0.0));
        GaugeId(self.gauges.len() - 1)
    }

    pub fn histogram(&mut self, name: &str) -> HistogramId {
        if let Some(i) = self.histograms.iter().position(|(n, _)| n == name) {
            return HistogramId(i);
        }
        self.histograms.push((name.to_string(), LogHistogram::new()));
        HistogramId(self.histograms.len() - 1)
    }

    pub fn inc(&mut self, id: CounterId) {
        self.add(id, 1);
    }

    pub fn add(&mut self, id: CounterId, n: u64) {
        self.counters[id.0].1 += n;
    }

    pub fn set(&mut self, id: GaugeId, v: f64) {
        self.gauges[id.0].1 = v;
    }

    pub fn observe(&mut self, id: HistogramId, d: Duration) {
        self.histograms[id.0].1.record(d);
    }

    pub fn counter_value(&self, name: &str) -> Option<u64> {
        self.counters.iter().find(|(n, _)| n == name).map(|(_, v)| *v)
    }

    pub fn gauge_value(&self, name: &str) -> Option<f64> {
        self.gauges.iter().find(|(n, _)| n == name).map(|(_, v)| *v)
    }

    pub fn histogram_of(&self, name: &str) -> Option<&LogHistogram> {
        self.histograms.iter().find(|(n, _)| n == name).map(|(_, h)| h)
    }

    /// Human-readable run summary: counters, gauges, then histogram
    /// percentile rows, in registration order.
    pub fn summary(&self) -> String {
        let mut out = String::new();
        for (name, v) in &self.counters {
            let _ = writeln!(out, "{name:<32} {v}");
        }
        for (name, v) in &self.gauges {
            let _ = writeln!(out, "{name:<32} {v:.3}");
        }
        if !self.histograms.is_empty() {
            let _ = writeln!(
                out,
                "{:<32} {:>8} {:>9} {:>9} {:>9} {:>9} {:>9}",
                "histogram (ms)", "count", "mean", "p50", "p95", "p99", "max"
            );
            for (name, h) in &self.histograms {
                let _ = writeln!(
                    out,
                    "{:<32} {:>8} {:>9.2} {:>9.2} {:>9.2} {:>9.2} {:>9.2}",
                    name,
                    h.len(),
                    h.mean().as_millis(),
                    h.quantile(0.50).as_millis(),
                    h.quantile(0.95).as_millis(),
                    h.quantile(0.99).as_millis(),
                    h.max().as_millis(),
                );
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn registration_is_idempotent_and_typed() {
        let mut r = Registry::new();
        let a = r.counter("requests");
        let b = r.counter("requests");
        assert_eq!(a, b);
        r.inc(a);
        r.add(b, 4);
        assert_eq!(r.counter_value("requests"), Some(5));
        assert_eq!(r.counter_value("missing"), None);
    }

    #[test]
    fn gauges_hold_last_value() {
        let mut r = Registry::new();
        let g = r.gauge("queue_depth");
        r.set(g, 3.0);
        r.set(g, 7.0);
        assert_eq!(r.gauge_value("queue_depth"), Some(7.0));
    }

    #[test]
    fn histograms_record_and_summarize() {
        let mut r = Registry::new();
        let h = r.histogram("latency");
        for ms in [1.0, 2.0, 100.0] {
            r.observe(h, Duration::from_millis(ms));
        }
        assert_eq!(r.histogram_of("latency").unwrap().len(), 3);
        let s = r.summary();
        assert!(s.contains("latency"), "{s}");
        assert!(s.contains("p99"), "{s}");
    }
}
