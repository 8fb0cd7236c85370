//! Query-side category detection.
//!
//! Section 2.4: *"To search a picture, an item in the picture is detected
//! and the product category of the item is identified."* Category detection
//! narrows ranking and lets the blender attach category metadata to the
//! query. We model it as a nearest-centroid classifier over category
//! prototypes in feature space — which is also how coarse heads on CNN
//! backbones behave.

use jdvs_vector::distance::squared_l2;
use jdvs_vector::Vector;
use serde::{Deserialize, Serialize};

/// A product category label.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct CategoryId(pub u32);

impl std::fmt::Display for CategoryId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "cat-{}", self.0)
    }
}

/// Nearest-prototype category detector.
///
/// # Example
///
/// ```
/// use jdvs_features::category::{CategoryDetector, CategoryId};
/// use jdvs_vector::Vector;
///
/// let detector = CategoryDetector::new(vec![
///     (CategoryId(1), Vector::from(vec![0.0, 0.0])),
///     (CategoryId(2), Vector::from(vec![10.0, 10.0])),
/// ]);
/// assert_eq!(detector.detect(&[0.5, 0.5]), CategoryId(1));
/// assert_eq!(detector.detect(&[9.0, 9.5]), CategoryId(2));
/// ```
#[derive(Debug, Clone)]
pub struct CategoryDetector {
    prototypes: Vec<(CategoryId, Vector)>,
}

impl CategoryDetector {
    /// Creates a detector from `(category, prototype)` pairs.
    ///
    /// # Panics
    ///
    /// Panics if `prototypes` is empty or dimensions are inconsistent.
    pub fn new(prototypes: Vec<(CategoryId, Vector)>) -> Self {
        assert!(
            !prototypes.is_empty(),
            "at least one category prototype required"
        );
        let dim = prototypes[0].1.dim();
        for (_, p) in &prototypes {
            assert_eq!(p.dim(), dim, "prototypes must share a dimension");
        }
        Self { prototypes }
    }

    /// Number of known categories.
    pub fn num_categories(&self) -> usize {
        self.prototypes.len()
    }

    /// Dimension of the prototypes — the only feature length
    /// [`CategoryDetector::detect`] accepts.
    pub fn dim(&self) -> usize {
        self.prototypes[0].1.dim()
    }

    /// Classifies `features` to the nearest prototype's category.
    ///
    /// # Panics
    ///
    /// Panics if `features` has a different dimension than the prototypes.
    pub fn detect(&self, features: &[f32]) -> CategoryId {
        self.detect_with_distance(features).0
    }

    /// Classifies and also returns the squared distance to the winning
    /// prototype (a confidence proxy).
    ///
    /// # Panics
    ///
    /// Panics if `features` has a different dimension than the prototypes.
    pub fn detect_with_distance(&self, features: &[f32]) -> (CategoryId, f32) {
        let mut best = self.prototypes[0].0;
        let mut best_d = f32::INFINITY;
        for (cat, proto) in &self.prototypes {
            let d = squared_l2(proto.as_slice(), features);
            if d < best_d {
                best_d = d;
                best = *cat;
            }
        }
        (best, best_d)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn detector() -> CategoryDetector {
        CategoryDetector::new(vec![
            (CategoryId(10), Vector::from(vec![0.0, 0.0])),
            (CategoryId(20), Vector::from(vec![5.0, 0.0])),
            (CategoryId(30), Vector::from(vec![0.0, 5.0])),
        ])
    }

    #[test]
    fn detects_nearest_prototype() {
        let d = detector();
        assert_eq!(d.detect(&[0.1, 0.1]), CategoryId(10));
        assert_eq!(d.detect(&[4.0, 0.5]), CategoryId(20));
        assert_eq!(d.detect(&[0.5, 4.9]), CategoryId(30));
        assert_eq!(d.num_categories(), 3);
        assert_eq!(d.dim(), 2);
    }

    #[test]
    fn distance_is_reported() {
        let d = detector();
        let (cat, dist) = d.detect_with_distance(&[0.0, 0.0]);
        assert_eq!(cat, CategoryId(10));
        assert_eq!(dist, 0.0);
    }

    #[test]
    fn ties_resolve_to_first_prototype() {
        let d = CategoryDetector::new(vec![
            (CategoryId(1), Vector::from(vec![1.0])),
            (CategoryId(2), Vector::from(vec![-1.0])),
        ]);
        assert_eq!(d.detect(&[0.0]), CategoryId(1));
    }

    #[test]
    #[should_panic(expected = "at least one category")]
    fn empty_prototypes_panics() {
        CategoryDetector::new(vec![]);
    }

    #[test]
    fn display_format() {
        assert_eq!(CategoryId(4).to_string(), "cat-4");
    }
}
