//! The synthetic validation set and its ground-truth annotations.

use crate::image::{ImageGen, ImageGenConfig};
use crate::synset::SynsetTable;
use rand::seq::SliceRandom;
use vpu_num::rng;
use vpu_tensor::{Shape, Tensor};

/// Dataset parameters.
#[derive(Debug, Clone, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct DatasetConfig {
    pub classes: usize,
    /// Total validation images (the real set has 50 000).
    pub total_images: usize,
    /// Number of evaluation subsets (the paper uses 5 × 10 000).
    pub subsets: usize,
    pub image_shape: Shape,
    pub sigma: f64,
    pub distractor_mix: f32,
    pub seed: u64,
}

impl DatasetConfig {
    /// Paper-shaped config at an arbitrary scale: `total_images` spread
    /// over 5 subsets, labels balanced over `classes`.
    pub fn ilsvrc_like(classes: usize, total_images: usize, image_shape: Shape, seed: u64) -> Self {
        DatasetConfig {
            classes,
            total_images,
            subsets: 5,
            image_shape,
            sigma: 0.35,
            distractor_mix: 0.25,
            seed,
        }
    }

    /// The image generator this set draws from.
    pub fn image_gen(&self) -> ImageGenConfig {
        ImageGenConfig {
            classes: self.classes,
            shape: self.image_shape,
            sigma: self.sigma,
            distractor_mix: self.distractor_mix,
            seed: self.seed,
        }
    }

    pub fn images_per_subset(&self) -> usize {
        self.total_images / self.subsets
    }
}

/// One annotated validation image (the ground-truth label plays the role
/// of the ILSVRC *Validation Bounding Box Annotations* the paper extracts
/// labels from).
#[derive(Debug, Clone, PartialEq)]
pub struct LabeledImage {
    /// Global index in the validation set.
    pub index: usize,
    /// Ground-truth class.
    pub label: usize,
    /// Preprocessed input tensor (mean-centred f32 pixel data).
    pub pixels: Tensor<f32>,
}

/// The validation set: deterministic labels + on-demand image synthesis.
#[derive(Debug, Clone)]
pub struct ValidationSet {
    cfg: DatasetConfig,
    synsets: SynsetTable,
    generator: ImageGen,
    labels: Vec<usize>,
    /// Per-image sample index within its class.
    occurrence: Vec<u64>,
}

impl ValidationSet {
    pub fn new(cfg: DatasetConfig) -> Self {
        assert!(cfg.subsets > 0, "need at least one subset");
        assert!(
            cfg.total_images.is_multiple_of(cfg.subsets),
            "total_images must divide evenly into subsets"
        );
        let synsets = SynsetTable::generate(cfg.classes);
        let generator = ImageGen::new(cfg.image_gen());
        // Balanced labels, shuffled deterministically (validation order in
        // ILSVRC is not sorted by class).
        let mut labels: Vec<usize> = (0..cfg.total_images).map(|i| i % cfg.classes).collect();
        labels.shuffle(&mut rng::stream(cfg.seed, "label-order"));
        let mut seen = vec![0u64; cfg.classes];
        let occurrence = labels
            .iter()
            .map(|&c| {
                let o = seen[c];
                seen[c] += 1;
                o
            })
            .collect();
        ValidationSet { cfg, synsets, generator, labels, occurrence }
    }

    pub fn config(&self) -> &DatasetConfig {
        &self.cfg
    }

    pub fn synsets(&self) -> &SynsetTable {
        &self.synsets
    }

    pub fn generator(&self) -> &ImageGen {
        &self.generator
    }

    pub fn len(&self) -> usize {
        self.cfg.total_images
    }

    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Ground-truth label of image `index`.
    pub fn label(&self, index: usize) -> usize {
        self.labels[index]
    }

    /// Materialize one image.
    pub fn image(&self, index: usize) -> LabeledImage {
        let label = self.labels[index];
        let pixels = self.generator.sample(label, self.occurrence[index]);
        LabeledImage { index, label, pixels }
    }

    /// Global indices of one evaluation subset.
    pub fn subset_indices(&self, subset: usize) -> std::ops::Range<usize> {
        assert!(subset < self.cfg.subsets, "subset {subset} out of range");
        let n = self.cfg.images_per_subset();
        subset * n..(subset + 1) * n
    }

    /// Iterate one subset's images.
    pub fn subset(&self, subset: usize) -> impl Iterator<Item = LabeledImage> + '_ {
        self.subset_indices(subset).map(|i| self.image(i))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn set() -> ValidationSet {
        ValidationSet::new(DatasetConfig::ilsvrc_like(10, 100, Shape::chw(3, 16, 16), 3))
    }

    #[test]
    fn sizes_and_subsets() {
        let s = set();
        assert_eq!(s.len(), 100);
        assert_eq!(s.config().images_per_subset(), 20);
        assert_eq!(s.subset_indices(0), 0..20);
        assert_eq!(s.subset_indices(4), 80..100);
        assert_eq!(s.subset(2).count(), 20);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn subset_bounds() {
        set().subset_indices(5);
    }

    #[test]
    fn labels_are_balanced() {
        let s = set();
        let mut counts = vec![0usize; 10];
        for i in 0..s.len() {
            counts[s.label(i)] += 1;
        }
        assert!(counts.iter().all(|&c| c == 10), "{counts:?}");
    }

    #[test]
    fn labels_are_shuffled() {
        let s = set();
        let first: Vec<usize> = (0..10).map(|i| s.label(i)).collect();
        assert_ne!(first, (0..10).collect::<Vec<_>>(), "labels look unshuffled");
    }

    #[test]
    fn images_deterministic_and_distinct() {
        let a = set();
        let b = set();
        assert_eq!(a.image(7), b.image(7));
        // Two images of the same class still differ (occurrence index).
        let same_class: Vec<usize> =
            (0..a.len()).filter(|&i| a.label(i) == a.label(0)).take(2).collect();
        assert_ne!(a.image(same_class[0]).pixels, a.image(same_class[1]).pixels);
    }

    #[test]
    fn image_matches_label() {
        let s = set();
        for i in [0, 13, 57, 99] {
            let img = s.image(i);
            assert_eq!(img.label, s.label(i));
            assert_eq!(img.index, i);
            assert_eq!(img.pixels.shape(), Shape::chw(3, 16, 16));
        }
    }

    #[test]
    #[should_panic(expected = "divide evenly")]
    fn uneven_subsets_rejected() {
        ValidationSet::new(DatasetConfig {
            subsets: 3,
            ..DatasetConfig::ilsvrc_like(10, 100, Shape::chw(3, 8, 8), 1)
        });
    }

    #[test]
    fn synset_table_matches_classes() {
        let s = set();
        assert_eq!(s.synsets().len(), 10);
    }
}
