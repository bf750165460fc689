//! Input sources (paper Fig. 3, left side).

use desim::{Duration, SimTime};
use ilsvrc_sim::{LabeledImage, ValidationSet};
use std::sync::Arc;

/// Abstract image source — `SourceImage` in the paper's class diagram.
///
/// A source yields preprocessed f32 image tensors with ground truth and
/// an *availability time* (when the image could first be handed to a
/// target): an image folder has everything at t=0, a stream delivers over
/// time.
pub trait SourceImage: Send + Sync {
    fn len(&self) -> usize;

    fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Fetch image `i` (decoded and mean-centred).
    fn fetch(&self, i: usize) -> LabeledImage;

    /// Earliest virtual time image `i` exists on the host.
    fn available_at(&self, i: usize) -> SimTime {
        let _ = i;
        SimTime::ZERO
    }
}

/// A directory of decoded validation images (one subset of the paper's
/// 5 × 10 000 split). Decode time is excluded from measurements, matching
/// §IV ("we omit from our results the decoding time per image").
#[derive(Clone)]
pub struct ImageFolder {
    set: Arc<ValidationSet>,
    subset: usize,
}

impl ImageFolder {
    pub fn new(set: Arc<ValidationSet>, subset: usize) -> Self {
        assert!(subset < set.config().subsets, "subset {subset} out of range");
        ImageFolder { set, subset }
    }

    /// All subsets of a validation set as separate folders.
    pub fn all_subsets(set: Arc<ValidationSet>) -> Vec<ImageFolder> {
        (0..set.config().subsets).map(|s| ImageFolder::new(set.clone(), s)).collect()
    }
}

impl SourceImage for ImageFolder {
    fn len(&self) -> usize {
        self.set.config().images_per_subset()
    }

    fn fetch(&self, i: usize) -> LabeledImage {
        let range = self.set.subset_indices(self.subset);
        assert!(i < range.len(), "image {i} out of subset range");
        self.set.image(range.start + i)
    }
}

/// A streaming source (the paper's `MPIStream`): images arrive at a fixed
/// inter-arrival interval, as from an MPI data-streaming pipeline. Used
/// by the computation-offloading example to demonstrate load/get-result
/// overlap against a producer.
#[derive(Clone)]
pub struct MpiStream {
    set: Arc<ValidationSet>,
    interval: Duration,
    count: usize,
}

impl MpiStream {
    pub fn new(set: Arc<ValidationSet>, interval: Duration, count: usize) -> Self {
        assert!(count <= set.len(), "stream longer than backing dataset");
        MpiStream { set, interval, count }
    }
}

impl SourceImage for MpiStream {
    fn len(&self) -> usize {
        self.count
    }

    fn fetch(&self, i: usize) -> LabeledImage {
        assert!(i < self.count, "image {i} beyond stream length");
        self.set.image(i)
    }

    fn available_at(&self, i: usize) -> SimTime {
        SimTime::ZERO + self.interval * (i as u64 + 1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ilsvrc_sim::DatasetConfig;
    use vpu_tensor::Shape;

    fn set() -> Arc<ValidationSet> {
        Arc::new(ValidationSet::new(DatasetConfig::ilsvrc_like(10, 50, Shape::chw(3, 16, 16), 4)))
    }

    #[test]
    fn folder_covers_subset() {
        let s = set();
        let folder = ImageFolder::new(s.clone(), 1);
        assert_eq!(folder.len(), 10);
        // Image 0 of subset 1 is global image 10.
        assert_eq!(folder.fetch(0).index, 10);
        assert_eq!(folder.fetch(9).index, 19);
        assert_eq!(folder.available_at(5), SimTime::ZERO);
    }

    #[test]
    fn all_subsets_partition_the_set() {
        let s = set();
        let folders = ImageFolder::all_subsets(s);
        assert_eq!(folders.len(), 5);
        let mut seen = std::collections::HashSet::new();
        for f in &folders {
            for i in 0..f.len() {
                assert!(seen.insert(f.fetch(i).index));
            }
        }
        assert_eq!(seen.len(), 50);
    }

    #[test]
    #[should_panic(expected = "out of subset range")]
    fn folder_bounds_checked() {
        ImageFolder::new(set(), 0).fetch(10);
    }

    #[test]
    fn stream_arrival_times() {
        let s = MpiStream::new(set(), Duration::from_millis(10.0), 5);
        assert_eq!(s.len(), 5);
        assert_eq!(s.available_at(0), SimTime::ZERO + Duration::from_millis(10.0));
        assert_eq!(s.available_at(4), SimTime::ZERO + Duration::from_millis(50.0));
        assert_eq!(s.fetch(2).index, 2);
    }

    #[test]
    #[should_panic(expected = "longer than backing")]
    fn stream_length_checked() {
        MpiStream::new(set(), Duration::from_millis(1.0), 51);
    }

    #[test]
    fn labels_travel_with_images() {
        let s = set();
        let folder = ImageFolder::new(s.clone(), 0);
        for i in 0..folder.len() {
            let img = folder.fetch(i);
            assert_eq!(img.label, s.label(img.index));
        }
    }
}
