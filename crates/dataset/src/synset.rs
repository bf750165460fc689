//! WordNet-style synset table.
//!
//! ImageNet organizes classes as WordNet synsets (`n01440764` = "tench").
//! The table here is synthetic but structurally faithful: stable
//! eight-digit noun IDs, human-readable names, and a gloss — enough for
//! the NCSw result listings ("a list of labels with the correspondent
//! confidence") to look and behave like the real pipeline's.

use serde::{Deserialize, Serialize};

/// One synthetic synset.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct Synset {
    /// WordNet-style id, e.g. `n03000247`.
    pub wnid: String,
    /// Short label.
    pub name: String,
    /// One-line gloss.
    pub gloss: String,
}

/// The class table for one dataset.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct SynsetTable {
    synsets: Vec<Synset>,
}

/// Noun stems combined to produce deterministic readable names.
const STEMS: [&str; 20] = [
    "tench", "terrier", "beacon", "gondola", "abacus", "crane", "lynx", "bobsled", "minaret",
    "zeppelin", "parsnip", "quill", "sundial", "kayak", "lantern", "marmot", "obelisk", "pagoda",
    "sextant", "tripod",
];

const MODIFIERS: [&str; 10] = [
    "common", "lesser", "greater", "northern", "southern", "striped", "spotted", "dwarf", "giant",
    "alpine",
];

impl SynsetTable {
    /// Build a table of `classes` synthetic synsets.
    pub fn generate(classes: usize) -> Self {
        let synsets = (0..classes)
            .map(|i| {
                let stem = STEMS[i % STEMS.len()];
                let modifier = MODIFIERS[(i / STEMS.len()) % MODIFIERS.len()];
                let variant = i / (STEMS.len() * MODIFIERS.len());
                let name = if variant == 0 {
                    format!("{modifier} {stem}")
                } else {
                    format!("{modifier} {stem} {variant}")
                };
                Synset {
                    wnid: format!("n{:08}", 1_000_000 + i * 4241 % 89_999_999),
                    name: name.clone(),
                    gloss: format!("synthetic ILSVRC class {i}: {name}"),
                }
            })
            .collect();
        SynsetTable { synsets }
    }

    pub fn len(&self) -> usize {
        self.synsets.len()
    }

    pub fn is_empty(&self) -> bool {
        self.synsets.is_empty()
    }

    pub fn get(&self, class: usize) -> &Synset {
        &self.synsets[class]
    }

    pub fn iter(&self) -> impl Iterator<Item = &Synset> {
        self.synsets.iter()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generates_requested_count() {
        assert_eq!(SynsetTable::generate(1000).len(), 1000);
        assert_eq!(SynsetTable::generate(10).len(), 10);
        assert!(SynsetTable::generate(0).is_empty());
    }

    #[test]
    fn ids_are_wordnet_shaped_and_unique() {
        let t = SynsetTable::generate(1000);
        let mut seen = std::collections::HashSet::new();
        for s in t.iter() {
            assert!(s.wnid.starts_with('n'), "{}", s.wnid);
            assert_eq!(s.wnid.len(), 9, "{}", s.wnid);
            assert!(s.wnid[1..].chars().all(|c| c.is_ascii_digit()));
            assert!(seen.insert(s.wnid.clone()), "duplicate wnid {}", s.wnid);
        }
    }

    #[test]
    fn names_unique_within_1000() {
        let t = SynsetTable::generate(1000);
        let mut seen = std::collections::HashSet::new();
        for s in t.iter() {
            assert!(seen.insert(s.name.clone()), "duplicate name {}", s.name);
        }
    }

    #[test]
    fn deterministic() {
        assert_eq!(SynsetTable::generate(100), SynsetTable::generate(100));
    }
}
