//! Multi-window SLO burn-rate alerting over the sampled time series.
//!
//! The classic SRE pattern: page only when the error budget is burning
//! fast *right now* (short window — catches real incidents quickly) AND
//! has been burning for a while (long window — rejects single-sample
//! blips). Both conditions are evaluated per sample over trailing means
//! of the `slo_burn` column; consecutive alerting samples merge into
//! one [`AlertWindow`], which `repro serve` also exports as `SloAlert`
//! spans on the `alerts` lane of the Chrome trace.

use desim::SimTime;
use ncsw_obs::{Ctx, Event, Lane, Phase, TimeSeries};

/// Samples in the fast (short) trailing window.
pub const FAST_SAMPLES: usize = 3;
/// Samples in the slow (long) trailing window.
pub const SLOW_SAMPLES: usize = 12;
/// Minimum mean miss fraction over the fast window.
pub const FAST_BURN: f64 = 0.5;
/// Minimum mean miss fraction over the slow window.
pub const SLOW_BURN: f64 = 0.25;

/// One merged alert window.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AlertWindow {
    /// First alerting sample boundary.
    pub from: SimTime,
    /// Last alerting sample boundary.
    pub until: SimTime,
    /// Peak fast-window burn inside the window.
    pub peak_fast: f64,
    /// Peak slow-window burn inside the window.
    pub peak_slow: f64,
}

fn trailing_mean(v: &[f64], i: usize, n: usize) -> f64 {
    let lo = (i + 1).saturating_sub(n);
    let w = &v[lo..=i];
    w.iter().sum::<f64>() / w.len() as f64
}

/// Compute merged burn-rate alert windows from a sampled series: a
/// sample fires when the mean burn over the last [`FAST_SAMPLES`] is at
/// least [`FAST_BURN`] and over the last [`SLOW_SAMPLES`] at least
/// [`SLOW_BURN`].
pub fn burn_alerts(ts: &TimeSeries) -> Vec<AlertWindow> {
    let burns: Vec<f64> = ts.samples.iter().map(|s| s.slo_burn).collect();
    let mut out: Vec<AlertWindow> = Vec::new();
    let mut open = false;
    for i in 0..burns.len() {
        let fast = trailing_mean(&burns, i, FAST_SAMPLES);
        let slow = trailing_mean(&burns, i, SLOW_SAMPLES);
        // No verdict until the slower window has a full history — "has
        // been burning for a while" is meaningless two samples in.
        let firing = i + 1 >= SLOW_SAMPLES && fast >= FAST_BURN && slow >= SLOW_BURN;
        let t = ts.samples[i].t;
        if firing {
            if open {
                let w = out.last_mut().unwrap();
                w.until = t;
                w.peak_fast = w.peak_fast.max(fast);
                w.peak_slow = w.peak_slow.max(slow);
            } else {
                out.push(AlertWindow { from: t, until: t, peak_fast: fast, peak_slow: slow });
                open = true;
            }
        } else {
            open = false;
        }
    }
    out
}

/// Render alert windows as `SloAlert` spans on the `alerts` lane, ready
/// to append to an [`ncsw_obs::EventLog`] before export.
pub fn alert_events(alerts: &[AlertWindow]) -> Vec<Event> {
    alerts
        .iter()
        .map(|w| Event::span(Phase::SloAlert, Lane::Alerts, w.from, w.until, Ctx::NONE))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use desim::Duration;
    use ncsw_obs::{EnergyMeter, TimeSeriesBuilder};

    fn series(burns: &[f64]) -> TimeSeries {
        // Build a series with the given per-window burn values from one
        // completion per window (miss or hit).
        let iv = Duration::from_millis(10.0);
        let slo = Duration::from_millis(5.0);
        let b = TimeSeriesBuilder::new(vec![], SimTime::ZERO, iv, slo);
        let done = burns.iter().enumerate().map(|(k, &burn)| {
            let lat = if burn > 0.5 { Duration::from_millis(9.0) } else { Duration::ZERO };
            (SimTime::ZERO + iv * k as u64, lat)
        });
        let end = SimTime::ZERO + iv * burns.len() as u64;
        b.finish(end, done, [], [], &[], &EnergyMeter::new(vec![], SimTime::ZERO))
    }

    #[test]
    fn needs_both_windows_to_fire() {
        assert_eq!((FAST_SAMPLES, SLOW_SAMPLES), (3, 12));
        // A hot fast window amid cold history: the slow window (2/12 <
        // 0.25 burn) rejects the blip.
        let mut blip = vec![0.0; 12];
        blip.extend([1.0, 1.0, 0.0, 0.0]);
        assert!(burn_alerts(&series(&blip)).is_empty());
        // Sustained burn fires once the slow window has a full history
        // (the 12th sample, 120 ms) and stops when the fast window cools
        // (two cold samples: 1/3 < 0.5).
        let mut sustained = vec![1.0; 14];
        sustained.extend([0.0, 0.0, 0.0]);
        let alerts = burn_alerts(&series(&sustained));
        assert_eq!(alerts.len(), 1);
        assert_eq!(alerts[0].from, SimTime::ZERO + Duration::from_millis(120.0));
        assert_eq!(alerts[0].until, SimTime::ZERO + Duration::from_millis(150.0));
        assert!((alerts[0].peak_fast - 1.0).abs() < 1e-9);
        assert!((alerts[0].peak_slow - 1.0).abs() < 1e-9);
    }

    #[test]
    fn consecutive_samples_merge_and_gaps_split() {
        // Twelve hot samples, two cold ones (fast burn 1/3), two hot
        // ones (2/3 again): two windows.
        let mut burns = vec![1.0; 12];
        burns.extend([0.0, 0.0, 1.0, 1.0]);
        let alerts = burn_alerts(&series(&burns));
        assert_eq!(alerts.len(), 2);
        let evs = alert_events(&alerts);
        assert_eq!(evs.len(), 2);
        assert_eq!(evs[0].phase, Phase::SloAlert);
        assert_eq!(evs[0].lane, Lane::Alerts);
        assert_eq!(evs[0].start, alerts[0].from);
    }
}
