//! Index configuration.

use serde::{Deserialize, Serialize};

/// Configuration for a partition's [`crate::index::VisualIndex`].
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct IndexConfig {
    /// Feature vector dimensionality.
    pub dim: usize,
    /// Number of inverted lists (the paper's `N`, = k-means `k`).
    pub num_lists: usize,
    /// Pre-allocated slots per inverted list (Section 2.3's "the memory of
    /// an inverted list is pre-allocated"). Lists double from here.
    pub initial_list_capacity: usize,
    /// Default number of inverted lists probed per query.
    pub nprobe: usize,
    /// Copy old-slab contents on a background thread during expansion
    /// (Figure 9's design). `false` copies inline — the ablation baseline.
    pub background_expansion: bool,
    /// k-means training: maximum Lloyd iterations.
    pub kmeans_iters: usize,
    /// k-means training: sample size cap (training on every image would
    /// dominate full-index build time).
    pub train_sample: usize,
    /// Product-quantized scan mode: `Some(m)` additionally stores an
    /// `m`-nibble PQ code per image (16-centroid sub-codebooks, two codes
    /// per byte) and enables
    /// [`crate::index::VisualIndex::search_compressed`] (4-bit fast-scan
    /// with register-resident SIMD lookup tables + exact rerank). `m` must
    /// divide `dim`. `None` scans raw vectors only — the paper's baseline
    /// behaviour.
    pub pq_subspaces: Option<usize>,
    /// Bits per PQ sub-code. Only `4` is valid: the field is kept for
    /// existing struct literals and the snapshot byte, and is checked, not
    /// chosen.
    pub pq_bits: u8,
    /// Two-stage compressed search over-fetch: stage 1 shortlists
    /// `k · rerank_factor` candidates by (quantized) ADC distance, stage 2
    /// re-ranks them with exact f32 distances. Must be positive.
    pub rerank_factor: usize,
    /// Selectivity-aware probe escalation for **filtered** searches: when a
    /// filtered scan cannot fill its top-k from the base `nprobe` lists,
    /// probing widens (doubling each round, scanning only the newly added
    /// lists) until the top-k fills or this many lists have been probed.
    /// `0` disables escalation; unfiltered searches never escalate. The one
    /// serving-time knob: not persisted in snapshots —
    /// [`crate::persist::load`] adopts it from the config the snapshot is
    /// loaded for.
    pub nprobe_escalation: usize,
    /// Hierarchical coarse quantizer: beam width (`ef`) of the navigable
    /// small-world graph searched over the trained centroids instead of the
    /// flat `O(num_lists)` centroid scan. `0` disables the graph (flat scan,
    /// the exact baseline); positive values search with an effective beam of
    /// `max(coarse_beam_width, nprobe)`, and a beam at or above `num_lists`
    /// degenerates to the flat scan's exact output. Worth enabling from a
    /// few thousand lists up, where centroid assignment dominates pre-kernel
    /// query cost. Persisted in snapshots: assignment results shape the index
    /// contents, so a reloaded partition must probe identically.
    pub coarse_beam_width: usize,
    /// Imbalance-aware k-means training: when `> 0`, each Lloyd iteration
    /// splits clusters whose population exceeds `coarse_balance_factor ×`
    /// the mean count by reseating the smallest clusters' centroids onto
    /// their farthest members (hot inverted lists dominate tail latency at
    /// 10k+ lists). `0.0` keeps plain Lloyd. Persisted in snapshots for
    /// training provenance.
    pub coarse_balance_factor: f64,
    /// Master seed for quantizer training.
    pub seed: u64,
}

impl Default for IndexConfig {
    fn default() -> Self {
        Self {
            dim: 64,
            num_lists: 64,
            initial_list_capacity: 64,
            nprobe: 4,
            background_expansion: true,
            kmeans_iters: 15,
            train_sample: 10_000,
            pq_subspaces: None,
            pq_bits: 4,
            rerank_factor: 4,
            nprobe_escalation: 0,
            coarse_beam_width: 0,
            coarse_balance_factor: 0.0,
            seed: 0x1D05,
        }
    }
}

impl IndexConfig {
    /// The first violated invariant, as a message; `Ok` for a config an
    /// index can be built from.
    ///
    /// # Errors
    ///
    /// Returns why the config is invalid: a field that must be positive is
    /// zero, `pq_subspaces` does not divide `dim`, `pq_bits` is not 4, or
    /// `coarse_balance_factor` is negative or not finite.
    pub fn check(&self) -> Result<(), &'static str> {
        let checks = [
            (self.dim > 0, "dim must be positive"),
            (self.num_lists > 0, "num_lists must be positive"),
            (
                self.initial_list_capacity > 0,
                "initial_list_capacity must be positive",
            ),
            (self.nprobe > 0, "nprobe must be positive"),
            (self.train_sample > 0, "train_sample must be positive"),
            (self.pq_bits == 4, "pq_bits must be 4"),
            (self.rerank_factor > 0, "rerank_factor must be positive"),
            (
                self.pq_subspaces.is_none_or(|m| m > 0),
                "pq_subspaces must be positive",
            ),
            (
                self.pq_subspaces.is_none_or(|m| self.dim.is_multiple_of(m)),
                "pq_subspaces must divide dim",
            ),
            (
                self.coarse_balance_factor >= 0.0 && self.coarse_balance_factor.is_finite(),
                "coarse_balance_factor must be finite and non-negative",
            ),
        ];
        match checks.into_iter().find(|&(ok, _)| !ok) {
            Some((_, reason)) => Err(reason),
            None => Ok(()),
        }
    }

    /// Validates invariants; called by index constructors.
    ///
    /// # Panics
    ///
    /// Panics with [`Self::check`]'s message if the config is invalid.
    pub fn validate(&self) {
        if let Err(reason) = self.check() {
            panic!("{reason}");
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_is_valid() {
        IndexConfig::default().validate();
    }

    #[test]
    #[should_panic(expected = "dim must be positive")]
    fn zero_dim_rejected() {
        IndexConfig {
            dim: 0,
            ..Default::default()
        }
        .validate();
    }

    #[test]
    #[should_panic(expected = "num_lists must be positive")]
    fn zero_lists_rejected() {
        IndexConfig {
            num_lists: 0,
            ..Default::default()
        }
        .validate();
    }

    #[test]
    #[should_panic(expected = "nprobe must be positive")]
    fn zero_nprobe_rejected() {
        IndexConfig {
            nprobe: 0,
            ..Default::default()
        }
        .validate();
    }

    #[test]
    #[should_panic(expected = "must divide dim")]
    fn indivisible_pq_rejected() {
        IndexConfig {
            dim: 10,
            pq_subspaces: Some(3),
            ..Default::default()
        }
        .validate();
    }

    #[test]
    #[should_panic(expected = "pq_bits must be 4")]
    fn odd_pq_bits_rejected() {
        IndexConfig {
            pq_bits: 6,
            ..Default::default()
        }
        .validate();
    }

    #[test]
    #[should_panic(expected = "pq_bits must be 4")]
    fn eight_bit_pq_rejected() {
        IndexConfig {
            pq_bits: 8,
            ..Default::default()
        }
        .validate();
    }

    #[test]
    #[should_panic(expected = "rerank_factor must be positive")]
    fn zero_rerank_factor_rejected() {
        IndexConfig {
            rerank_factor: 0,
            ..Default::default()
        }
        .validate();
    }

    #[test]
    fn four_bit_pq_accepted() {
        IndexConfig {
            dim: 64,
            pq_subspaces: Some(16),
            pq_bits: 4,
            ..Default::default()
        }
        .validate();
    }

    #[test]
    #[should_panic(expected = "coarse_balance_factor must be finite")]
    fn negative_balance_factor_rejected() {
        IndexConfig {
            coarse_balance_factor: -1.0,
            ..Default::default()
        }
        .validate();
    }

    #[test]
    fn coarse_knobs_accepted() {
        IndexConfig {
            coarse_beam_width: 32,
            coarse_balance_factor: 2.0,
            ..Default::default()
        }
        .validate();
    }

    #[test]
    fn valid_pq_accepted() {
        IndexConfig {
            dim: 64,
            pq_subspaces: Some(8),
            ..Default::default()
        }
        .validate();
    }
}
