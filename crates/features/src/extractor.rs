//! The synthetic CNN stand-in.
//!
//! Features are generated as `center(visual_seed) + jitter(content_hash)`:
//! every image whose blob carries the same `visual_seed` (same "visual
//! cluster": same product family, colourway, etc.) gets a feature vector
//! near a shared cluster center, displaced by a small deterministic jitter
//! derived from the exact bytes. Identical bytes ⇒ identical vector;
//! similar products ⇒ nearby vectors; unrelated products ⇒ far vectors.

use jdvs_storage::image_store::ImageBlob;
use jdvs_vector::rng::{SplitMix64, Xoshiro256};
use jdvs_vector::Vector;
use serde::{Deserialize, Serialize};

/// Configuration of the synthetic extractor.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ExtractorConfig {
    /// Feature dimensionality (production CNN embeddings are 128–4096-d;
    /// the default keeps experiments fast while staying "high-dimensional"
    /// in the curse-of-dimensionality sense).
    pub dim: usize,
    /// Standard deviation of per-image jitter around the cluster center.
    /// Cluster centers are unit-scale, so 0.05–0.3 gives well-separated
    /// but non-trivial clusters.
    pub jitter: f32,
    /// Master seed mixed into cluster-center derivation (a different model
    /// checkpoint, in production terms).
    pub model_seed: u64,
    /// L2-normalize output features (standard practice for CNN embeddings).
    pub normalize: bool,
}

impl Default for ExtractorConfig {
    fn default() -> Self {
        Self {
            dim: 64,
            jitter: 0.15,
            model_seed: 0xFEA7,
            normalize: true,
        }
    }
}

/// Deterministic feature extractor; see the module docs for the model.
///
/// # Example
///
/// ```
/// use jdvs_features::{FeatureExtractor, ExtractorConfig};
/// use jdvs_storage::ImageStore;
///
/// let store = ImageStore::with_blob_len(256);
/// let extractor = FeatureExtractor::new(ExtractorConfig::default());
/// let k1 = store.put_synthetic("sku1/a.jpg", 7);
/// let k2 = store.put_synthetic("sku1/b.jpg", 7);  // same visual cluster
/// let k3 = store.put_synthetic("sku9/a.jpg", 1234); // different cluster
/// let f1 = extractor.extract(&store.get(k1).unwrap());
/// let f2 = extractor.extract(&store.get(k2).unwrap());
/// let f3 = extractor.extract(&store.get(k3).unwrap());
/// let near = jdvs_vector::distance::squared_l2(f1.as_slice(), f2.as_slice());
/// let far = jdvs_vector::distance::squared_l2(f1.as_slice(), f3.as_slice());
/// assert!(near < far);
/// ```
#[derive(Debug, Clone)]
pub struct FeatureExtractor {
    config: ExtractorConfig,
}

impl FeatureExtractor {
    /// Creates an extractor.
    ///
    /// # Panics
    ///
    /// Panics if `config.dim == 0`.
    pub fn new(config: ExtractorConfig) -> Self {
        assert!(config.dim > 0, "feature dimension must be positive");
        Self { config }
    }

    /// The configured feature dimensionality.
    pub fn dim(&self) -> usize {
        self.config.dim
    }

    /// Borrow the configuration.
    pub fn config(&self) -> &ExtractorConfig {
        &self.config
    }

    /// Extracts features from an image blob.
    pub fn extract(&self, blob: &ImageBlob) -> Vector {
        let center = self.center_components(blob.visual_seed);
        let content = content_hash(&blob.bytes);
        let mut rng = Xoshiro256::seed_from(content ^ self.config.model_seed.rotate_left(17));
        // Jittered straight into the vector's own buffer: no finished
        // buffer is copied into it.
        let mut v: Vector = center
            .iter()
            .map(|&c| c + rng.next_gaussian() as f32 * self.config.jitter)
            .collect();
        if self.config.normalize {
            v.normalize();
        }
        v
    }

    /// The (unjittered, unnormalized) center of a visual cluster — exposed
    /// so workload generators can place query images inside a known cluster.
    pub fn cluster_center(&self, visual_seed: u64) -> Vector {
        Vector::from(self.center_components(visual_seed))
    }

    /// The components of [`Self::cluster_center`], which `extract`
    /// jitters.
    fn center_components(&self, visual_seed: u64) -> Vec<f32> {
        let mut sm = SplitMix64::new(visual_seed ^ self.config.model_seed);
        let mut rng = Xoshiro256::seed_from(sm.next_u64());
        let mut data = vec![0.0f32; self.config.dim];
        rng.fill_gaussian(&mut data);
        data
    }
}

/// FNV-1a over the blob contents: the deterministic "what the pixels say"
/// input to jitter.
fn content_hash(bytes: &[u8]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

#[cfg(test)]
mod tests {
    use super::*;
    use bytes::Bytes;
    use jdvs_storage::ImageStore;
    use jdvs_vector::distance::squared_l2;

    fn extractor() -> FeatureExtractor {
        FeatureExtractor::new(ExtractorConfig {
            dim: 32,
            ..Default::default()
        })
    }

    #[test]
    fn identical_bytes_give_identical_features() {
        let ex = extractor();
        let blob = ImageBlob {
            bytes: Bytes::from_static(b"pixels"),
            visual_seed: 3,
        };
        assert_eq!(ex.extract(&blob), ex.extract(&blob));
    }

    #[test]
    fn different_bytes_same_cluster_are_near_but_not_equal() {
        let ex = extractor();
        let a = ImageBlob {
            bytes: Bytes::from_static(b"pixels-a"),
            visual_seed: 3,
        };
        let b = ImageBlob {
            bytes: Bytes::from_static(b"pixels-b"),
            visual_seed: 3,
        };
        let fa = ex.extract(&a);
        let fb = ex.extract(&b);
        assert_ne!(fa, fb);
        // Same cluster: should be close relative to a random other cluster.
        let c = ImageBlob {
            bytes: Bytes::from_static(b"pixels-c"),
            visual_seed: 999,
        };
        let fc = ex.extract(&c);
        assert!(
            squared_l2(fa.as_slice(), fb.as_slice()) < squared_l2(fa.as_slice(), fc.as_slice())
        );
    }

    #[test]
    fn cluster_structure_survives_extraction() {
        // 5 clusters x 20 images: nearest neighbour of each image (other
        // than itself) should be in the same cluster almost always.
        let store = ImageStore::with_blob_len(128);
        let ex = extractor();
        let mut feats = Vec::new();
        for cluster in 0..5u64 {
            for i in 0..20 {
                let k = store.put_synthetic(&format!("c{cluster}/i{i}.jpg"), cluster * 100);
                feats.push((cluster, ex.extract(&store.get(k).unwrap())));
            }
        }
        let mut correct = 0;
        for (i, (ci, fi)) in feats.iter().enumerate() {
            let mut best = usize::MAX;
            let mut best_d = f32::INFINITY;
            for (j, (_, fj)) in feats.iter().enumerate() {
                if i == j {
                    continue;
                }
                let d = squared_l2(fi.as_slice(), fj.as_slice());
                if d < best_d {
                    best_d = d;
                    best = j;
                }
            }
            if feats[best].0 == *ci {
                correct += 1;
            }
        }
        assert!(
            correct >= 95,
            "nearest-neighbour cluster purity too low: {correct}/100"
        );
    }

    #[test]
    fn normalization_flag_controls_norm() {
        let blob = ImageBlob {
            bytes: Bytes::from_static(b"x"),
            visual_seed: 1,
        };
        let normed = FeatureExtractor::new(ExtractorConfig {
            dim: 16,
            normalize: true,
            ..Default::default()
        })
        .extract(&blob);
        assert!((normed.norm() - 1.0).abs() < 1e-5);
        let raw = FeatureExtractor::new(ExtractorConfig {
            dim: 16,
            normalize: false,
            ..Default::default()
        })
        .extract(&blob);
        assert!(
            (raw.norm() - 1.0).abs() > 1e-3,
            "unnormalized norm should differ from 1"
        );
    }

    #[test]
    fn model_seed_changes_embedding_space() {
        let blob = ImageBlob {
            bytes: Bytes::from_static(b"x"),
            visual_seed: 1,
        };
        let a = FeatureExtractor::new(ExtractorConfig {
            model_seed: 1,
            ..Default::default()
        })
        .extract(&blob);
        let b = FeatureExtractor::new(ExtractorConfig {
            model_seed: 2,
            ..Default::default()
        })
        .extract(&blob);
        assert_ne!(a, b);
    }

    #[test]
    fn dim_is_respected() {
        let ex = FeatureExtractor::new(ExtractorConfig {
            dim: 7,
            ..Default::default()
        });
        let blob = ImageBlob {
            bytes: Bytes::from_static(b"x"),
            visual_seed: 1,
        };
        assert_eq!(ex.extract(&blob).dim(), 7);
        assert_eq!(ex.dim(), 7);
    }

    #[test]
    #[should_panic(expected = "feature dimension must be positive")]
    fn zero_dim_panics() {
        FeatureExtractor::new(ExtractorConfig {
            dim: 0,
            ..Default::default()
        });
    }
}
