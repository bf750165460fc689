//! Experiment-shaped reports: throughput, accuracy, confidence deltas.

use desim::Duration;
use serde::{Deserialize, Serialize};
use vpu_num::stats::{OnlineStats, Summary};

/// Throughput of one target over one subset (a Fig. 6a bar).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ThroughputReport {
    pub target: String,
    pub images: usize,
    pub batch: usize,
    /// Total virtual wall time.
    pub wall: Duration,
    /// Per-window throughput samples (img/s) used for the error bar.
    pub samples: Summary,
}

impl ThroughputReport {
    pub fn from_window_times(
        target: impl Into<String>,
        batch: usize,
        window: usize,
        window_durations: &[Duration],
    ) -> Self {
        assert!(!window_durations.is_empty(), "need at least one window");
        let stats: OnlineStats =
            window_durations.iter().map(|d| window as f64 / d.as_secs()).collect();
        let wall: Duration = window_durations.iter().copied().sum();
        ThroughputReport {
            target: target.into(),
            images: window * window_durations.len(),
            batch,
            wall,
            samples: stats.summary(),
        }
    }

    /// Aggregate images per second.
    pub fn images_per_sec(&self) -> f64 {
        self.images as f64 / self.wall.as_secs()
    }

    /// Mean per-inference latency in milliseconds.
    pub fn per_image_ms(&self) -> f64 {
        self.wall.as_millis() / self.images as f64
    }

    /// Eq. (1): throughput normalized by TDP.
    pub fn images_per_watt(&self, tdp_w: f64) -> f64 {
        hostsim::power::throughput_per_watt(self.images_per_sec(), tdp_w)
    }
}

/// Top-1 error of one implementation over one subset (a Fig. 7a bar).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct AccuracyReport {
    pub target: String,
    pub images: usize,
    pub wrong: usize,
    /// Per-image top-1 confidences (of the predicted class).
    pub mean_top1_confidence: f64,
}

impl AccuracyReport {
    pub fn top1_error(&self) -> f64 {
        self.wrong as f64 / self.images as f64
    }
}

/// Per-image classification outcome, used to build the Fig. 7 reports.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Prediction {
    pub image: usize,
    pub label: usize,
    pub predicted: usize,
    /// Confidence of the predicted class.
    pub confidence: f32,
    /// Confidence assigned to the true label.
    pub label_confidence: f32,
    /// How many classes scored strictly above the true label (0 =
    /// top-1 correct; < 5 = top-5 correct, the other ILSVRC metric).
    pub label_rank: usize,
}

impl Prediction {
    pub fn correct(&self) -> bool {
        self.predicted == self.label
    }

    /// ILSVRC top-5 criterion: the truth ranks among the five highest
    /// confidences.
    pub fn top5_correct(&self) -> bool {
        self.label_rank < 5
    }
}

/// Rank of the true label within a probability vector (ties resolved in
/// the truth's favour, matching the ILSVRC evaluation script).
pub fn label_rank(probs: &[f32], label: usize) -> usize {
    let p = probs[label];
    probs.iter().filter(|&&x| x > p).count()
}

/// Build an [`AccuracyReport`] from per-image predictions.
pub fn accuracy_report(target: impl Into<String>, preds: &[Prediction]) -> AccuracyReport {
    assert!(!preds.is_empty(), "no predictions");
    let wrong = preds.iter().filter(|p| !p.correct()).count();
    let mean_conf = preds.iter().map(|p| p.confidence as f64).sum::<f64>() / preds.len() as f64;
    AccuracyReport {
        target: target.into(),
        images: preds.len(),
        wrong,
        mean_top1_confidence: mean_conf,
    }
}

/// FP32-vs-FP16 confidence agreement over one subset (a Fig. 7b bar):
/// mean |confidence difference| **after filtering the top-1
/// miss-predictions**, exactly as §IV-B defines it.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ConfidenceDiffReport {
    pub images_compared: usize,
    /// Mean absolute top-1 confidence difference over images both
    /// implementations classified correctly.
    pub mean_abs_diff: f64,
    pub max_abs_diff: f64,
    /// How often the two implementations picked different top-1 labels.
    pub disagreements: usize,
}

/// Compare two prediction sets image-by-image.
pub fn confidence_diff(a: &[Prediction], b: &[Prediction]) -> ConfidenceDiffReport {
    assert_eq!(a.len(), b.len(), "prediction sets must align");
    let mut stats = OnlineStats::new();
    let mut disagreements = 0usize;
    for (pa, pb) in a.iter().zip(b) {
        assert_eq!(pa.image, pb.image, "misaligned predictions");
        if pa.predicted != pb.predicted {
            disagreements += 1;
        }
        // Filter the top-1 miss-predictions: keep images both got right.
        if pa.correct() && pb.correct() {
            stats.push((pa.confidence - pb.confidence).abs() as f64);
        }
    }
    let s = stats.summary();
    ConfidenceDiffReport {
        images_compared: s.n as usize,
        mean_abs_diff: s.mean,
        max_abs_diff: s.max,
        disagreements,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pred(image: usize, label: usize, predicted: usize, conf: f32) -> Prediction {
        Prediction {
            image,
            label,
            predicted,
            confidence: conf,
            label_confidence: conf,
            label_rank: if label == predicted { 0 } else { 7 },
        }
    }

    #[test]
    fn throughput_from_windows() {
        // Two windows of 10 images, 100 ms each -> 100 img/s, zero spread.
        let r = ThroughputReport::from_window_times(
            "cpu",
            8,
            10,
            &[Duration::from_millis(100.0), Duration::from_millis(100.0)],
        );
        assert_eq!(r.images, 20);
        assert!((r.images_per_sec() - 100.0).abs() < 1e-9);
        assert!((r.per_image_ms() - 10.0).abs() < 1e-9);
        assert_eq!(r.samples.stddev, 0.0);
        assert!((r.samples.mean - 100.0).abs() < 1e-9);
    }

    #[test]
    fn throughput_error_bars_capture_spread() {
        let r = ThroughputReport::from_window_times(
            "vpu",
            8,
            10,
            &[Duration::from_millis(100.0), Duration::from_millis(125.0)],
        );
        assert!(r.samples.stddev > 0.0);
        assert!(r.samples.mean > 80.0 && r.samples.mean < 100.0);
    }

    #[test]
    fn images_per_watt_eq1() {
        let r = ThroughputReport::from_window_times("vpu", 1, 10, &[Duration::from_secs(1.0)]);
        assert!((r.images_per_watt(2.5) - 4.0).abs() < 1e-9);
    }

    #[test]
    fn accuracy_counts_misses() {
        let preds = vec![pred(0, 1, 1, 0.9), pred(1, 2, 3, 0.5), pred(2, 4, 4, 0.7)];
        let r = accuracy_report("cpu", &preds);
        assert_eq!(r.wrong, 1);
        assert!((r.top1_error() - 1.0 / 3.0).abs() < 1e-12);
        assert!((r.mean_top1_confidence - 0.7).abs() < 1e-6);
    }

    #[test]
    fn confidence_diff_filters_misses() {
        let a = vec![pred(0, 1, 1, 0.90), pred(1, 2, 2, 0.80), pred(2, 3, 9, 0.60)];
        let b = vec![pred(0, 1, 1, 0.88), pred(1, 2, 7, 0.75), pred(2, 3, 3, 0.55)];
        let r = confidence_diff(&a, &b);
        // Only image 0 is correct in both.
        assert_eq!(r.images_compared, 1);
        assert!((r.mean_abs_diff - 0.02).abs() < 1e-6);
        assert_eq!(r.disagreements, 2);
    }

    #[test]
    #[should_panic(expected = "must align")]
    fn misaligned_sets_rejected() {
        confidence_diff(&[pred(0, 1, 1, 0.9)], &[]);
    }

    #[test]
    fn label_rank_and_top5() {
        let probs = [0.05f32, 0.40, 0.20, 0.15, 0.10, 0.06, 0.04];
        assert_eq!(label_rank(&probs, 1), 0);
        assert_eq!(label_rank(&probs, 2), 1);
        assert_eq!(label_rank(&probs, 0), 5);
        assert_eq!(label_rank(&probs, 6), 6);
        // Ties favour the truth.
        let tied = [0.3f32, 0.3, 0.4];
        assert_eq!(label_rank(&tied, 0), 1);
        assert_eq!(label_rank(&tied, 1), 1);
        let mut p = pred(0, 1, 1, 0.4);
        p.label_rank = 4;
        assert!(p.top5_correct());
        p.label_rank = 5;
        assert!(!p.top5_correct());
    }
}
