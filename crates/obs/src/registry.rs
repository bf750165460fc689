//! A run's metric table: named counters, gauges and log-bucketed
//! histograms. The table is append-only and written once, after the
//! run, from what the run returned (`ncsw-serve` folds its outcome
//! into it); rows are reported in append order, so summaries are
//! deterministic.

use crate::histogram::LogHistogram;
use std::fmt::Write as _;

/// Named metrics of one run, in append order.
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

    pub fn push_counter(&mut self, name: impl Into<String>, v: u64) {
        self.counters.push((name.into(), v));
    }

    pub fn push_gauge(&mut self, name: impl Into<String>, v: f64) {
        self.gauges.push((name.into(), v));
    }

    pub fn push_histogram(&mut self, name: impl Into<String>, h: LogHistogram) {
        self.histograms.push((name.into(), h));
    }

    pub fn counter_value(&self, name: &str) -> Option<u64> {
        self.counters.iter().find(|(n, _)| n == name).map(|(_, v)| *v)
    }

    pub fn histogram_of(&self, name: &str) -> Option<&LogHistogram> {
        self.histograms.iter().find(|(n, _)| n == name).map(|(_, h)| h)
    }

    /// Human-readable run summary: counters, gauges, then histogram
    /// percentile rows, each in append order.
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
    use desim::Duration;

    #[test]
    fn rows_are_looked_up_by_name_and_summarized_in_append_order() {
        let mut r = Registry::new();
        r.push_counter("requests", 5);
        r.push_gauge("queue_depth", 7.0);
        r.push_counter(format!("energy.w{}.pj", 0), 9);
        let h = [1.0, 2.0, 100.0].into_iter().map(Duration::from_millis).collect();
        r.push_histogram("latency", h);
        assert_eq!(r.counter_value("requests"), Some(5));
        assert_eq!(r.counter_value("energy.w0.pj"), Some(9));
        assert_eq!(r.counter_value("missing"), None);
        assert_eq!(r.histogram_of("latency").unwrap().len(), 3);
        let s = r.summary();
        let rows: Vec<&str> = s.lines().map(|l| l.split_whitespace().next().unwrap()).collect();
        assert_eq!(rows, ["requests", "energy.w0.pj", "queue_depth", "histogram", "latency"]);
        assert!(s.contains("p99"), "{s}");
    }
}
