//! Product quantization (Jégou, Douze & Schmid 2011 — the paper's ref \[19\]).
//!
//! The production JD system scans inverted lists over raw features; at
//! 100 B images the memory footprint makes compressed codes attractive, and
//! the paper cites PQ as the established technique. We provide it as the
//! searcher's optional compressed-scan mode and as an ablation subject: a
//! `d`-dimensional vector is split into `m` subspaces, each quantized by its
//! own 16-entry codebook, so a vector costs `m` nibbles instead of `4·d`
//! bytes.
//!
//! Queries use asymmetric distance computation (ADC): a per-query lookup
//! table of squared distances from each query sub-vector to every codeword.
//! The scan never reads that `f32` table: it is quantized to u8
//! ([`QuantizedAdcTable`]) so a subspace's whole 16-entry row fits one SIMD
//! register and one shuffle scores 32 codes (the fast-scan kernels of
//! [`crate::simd`]).

use serde::{Deserialize, Serialize};

use crate::distance::squared_l2;
use crate::kmeans::{Kmeans, KmeansConfig};
use crate::vector::Vector;

/// Number of codewords per sub-quantizer: 4 bits per sub-code, so a whole
/// 16-entry LUT fits in one SIMD register.
pub const CODEBOOK_SIZE: usize = 16;

/// Codes per fast-scan block (mirrors
/// [`crate::simd::FASTSCAN_LANES`]): one AVX2/NEON table-lookup pass
/// computes this many quantized distances.
pub const FASTSCAN_BLOCK: usize = crate::simd::FASTSCAN_LANES;

/// Configuration for [`ProductQuantizer::train`].
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct PqConfig {
    /// Number of subspaces `m`; must divide the vector dimension.
    pub num_subspaces: usize,
    /// Lloyd iterations per sub-quantizer.
    pub max_iters: usize,
    /// Training seed.
    pub seed: u64,
}

impl Default for PqConfig {
    fn default() -> Self {
        Self {
            num_subspaces: 8,
            max_iters: 15,
            seed: 0xC0DE,
        }
    }
}

/// A trained product quantizer.
///
/// # Example
///
/// ```
/// use jdvs_vector::{Vector, pq::{ProductQuantizer, PqConfig}};
/// use jdvs_vector::rng::Xoshiro256;
///
/// let mut rng = Xoshiro256::seed_from(1);
/// let data: Vec<Vector> = (0..300)
///     .map(|_| (0..8).map(|_| rng.next_gaussian() as f32).collect())
///     .collect();
/// let pq = ProductQuantizer::train(&data, &PqConfig { num_subspaces: 4, ..Default::default() });
/// let code = pq.encode(data[0].as_slice());
/// assert_eq!(code.len(), 4);
/// let approx = pq.decode(&code);
/// assert_eq!(approx.dim(), 8);
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ProductQuantizer {
    dim: usize,
    sub_dim: usize,
    // One k-means model per subspace, each over `sub_dim`-dimensional data.
    codebooks: Vec<Kmeans>,
}

impl ProductQuantizer {
    /// Trains one [`CODEBOOK_SIZE`]-word codebook per subspace on `data`.
    ///
    /// # Panics
    ///
    /// Panics if `data` is empty, `config.num_subspaces` is zero or does not
    /// divide the vector dimension, or vectors have inconsistent dimensions.
    pub fn train(data: &[Vector], config: &PqConfig) -> Self {
        assert!(!data.is_empty(), "cannot train PQ on empty data");
        let dim = data[0].dim();
        let m = config.num_subspaces;
        assert!(m > 0, "num_subspaces must be positive");
        assert_eq!(
            dim % m,
            0,
            "num_subspaces ({m}) must divide dimension ({dim})"
        );
        let sub_dim = dim / m;
        let mut codebooks = Vec::with_capacity(m);
        for sub in 0..m {
            let slice_data: Vec<Vector> = data
                .iter()
                .map(|v| Vector::from(&v.as_slice()[sub * sub_dim..(sub + 1) * sub_dim]))
                .collect();
            let cfg = KmeansConfig {
                k: CODEBOOK_SIZE,
                max_iters: config.max_iters,
                tolerance: 1e-4,
                seed: config.seed.wrapping_add(sub as u64),
                balance_factor: 0.0,
            };
            codebooks.push(Kmeans::train(&slice_data, &cfg));
        }
        Self {
            dim,
            sub_dim,
            codebooks,
        }
    }

    /// Rebuilds the quantizer whose [`Self::codewords`] are `codewords`:
    /// per subspace, 16 words of `dim / num_subspaces` floats, the trained
    /// words first and `+∞` in every slot a sample smaller than 16 left
    /// unused.
    ///
    /// # Errors
    ///
    /// Returns why `codewords` is not such a table for `dim` and
    /// `num_subspaces`.
    pub fn from_codewords(
        dim: usize,
        num_subspaces: usize,
        codewords: &[f32],
    ) -> Result<Self, &'static str> {
        let m = num_subspaces;
        if dim == 0 || m == 0 || !dim.is_multiple_of(m) || codewords.len() != CODEBOOK_SIZE * dim {
            return Err("codebook shape does not match dim and num_subspaces");
        }
        let sub_dim = dim / m;
        let codebooks = codewords
            .chunks_exact(CODEBOOK_SIZE * sub_dim)
            .map(|table| {
                let words: Vec<&[f32]> = table.chunks_exact(sub_dim).collect();
                let k = words
                    .iter()
                    .take_while(|w| w.iter().all(|x| x.is_finite()))
                    .count();
                let mut unused = words[k..].iter().flat_map(|w| w.iter());
                if k == 0 || unused.any(|&x| x != f32::INFINITY) {
                    return Err("codewords must be finite, unused slots +inf and last");
                }
                let centroids = words[..k].iter().map(|&w| Vector::from(w)).collect();
                Ok(Kmeans::from_centroids(centroids))
            })
            .collect::<Result<_, _>>()?;
        Ok(Self {
            dim,
            sub_dim,
            codebooks,
        })
    }

    /// Every codeword, `16 × dim` floats in the layout
    /// [`Self::from_codewords`] reads.
    pub fn codewords(&self) -> Vec<f32> {
        let mut out = Vec::with_capacity(CODEBOOK_SIZE * self.dim);
        for cb in &self.codebooks {
            cb.centroids()
                .iter()
                .for_each(|c| out.extend_from_slice(c.as_slice()));
            out.resize(
                out.len() + (CODEBOOK_SIZE - cb.k()) * self.sub_dim,
                f32::INFINITY,
            );
        }
        out
    }

    /// Original vector dimensionality.
    pub fn dim(&self) -> usize {
        self.dim
    }

    /// Number of subspaces `m` (= sub-codes per encoded vector).
    pub fn num_subspaces(&self) -> usize {
        self.codebooks.len()
    }

    /// Encodes `v` into `m` sub-codes, one per byte, each below
    /// [`CODEBOOK_SIZE`].
    ///
    /// # Panics
    ///
    /// Panics if `v.len() != self.dim()`.
    pub fn encode(&self, v: &[f32]) -> Vec<u8> {
        assert_eq!(v.len(), self.dim, "encode dimension mismatch");
        self.codebooks
            .iter()
            .enumerate()
            .map(|(sub, cb)| cb.assign(&v[sub * self.sub_dim..(sub + 1) * self.sub_dim]) as u8)
            .collect()
    }

    /// Reconstructs the approximate vector for a code.
    ///
    /// # Panics
    ///
    /// Panics if `code.len() != self.num_subspaces()`.
    pub fn decode(&self, code: &[u8]) -> Vector {
        assert_eq!(
            code.len(),
            self.num_subspaces(),
            "decode code-length mismatch"
        );
        let mut out = Vec::with_capacity(self.dim);
        for (sub, &c) in code.iter().enumerate() {
            let centroid = &self.codebooks[sub].centroids()[c as usize % self.codebooks[sub].k()];
            out.extend_from_slice(centroid.as_slice());
        }
        Vector::from(out)
    }

    /// Builds the per-query f32 ADC table: entry `sub * 16 + word` is the
    /// squared distance between the query's `sub`-th sub-vector and codeword
    /// `word`.
    ///
    /// # Panics
    ///
    /// Panics if `query.len() != self.dim()`.
    pub fn adc_table(&self, query: &[f32]) -> AdcTable {
        assert_eq!(query.len(), self.dim, "query dimension mismatch");
        let m = self.num_subspaces();
        let mut flat = vec![f32::INFINITY; m * CODEBOOK_SIZE];
        for (sub, cb) in self.codebooks.iter().enumerate() {
            let q = &query[sub * self.sub_dim..(sub + 1) * self.sub_dim];
            let row = &mut flat[sub * CODEBOOK_SIZE..(sub + 1) * CODEBOOK_SIZE];
            for (w, centroid) in cb.centroids().iter().enumerate() {
                row[w] = squared_l2(q, centroid.as_slice());
            }
        }
        AdcTable { flat, m }
    }

    /// Builds the quantized u8 ADC table for the fast-scan kernels; see
    /// [`QuantizedAdcTable`].
    ///
    /// # Panics
    ///
    /// Panics if `query.len() != self.dim()`.
    pub fn quantized_adc_table(&self, query: &[f32]) -> QuantizedAdcTable {
        QuantizedAdcTable::from_table(&self.adc_table(query))
    }
}

/// The exact `f32` asymmetric-distance table of one query (see
/// [`ProductQuantizer::adc_table`]): what [`QuantizedAdcTable`] is built
/// from, and the reference its error bound is stated against.
#[derive(Debug, Clone)]
pub struct AdcTable {
    /// Row-major `m × 16` distance entries.
    flat: Vec<f32>,
    m: usize,
}

impl AdcTable {
    /// Approximate squared L2 distance between the query and the vector
    /// encoded as `code`: `m` table lookups and adds.
    ///
    /// # Panics
    ///
    /// Panics if `code.len()` differs from the number of subspaces.
    pub fn distance(&self, code: &[u8]) -> f32 {
        assert_eq!(code.len(), self.m, "code length mismatch");
        let rows = self.flat.chunks_exact(CODEBOOK_SIZE);
        rows.zip(code).map(|(row, &c)| row[usize::from(c)]).sum()
    }

    /// Number of subspaces `m`.
    pub fn num_subspaces(&self) -> usize {
        self.m
    }
}

/// Per-query u8 lookup tables for the 4-bit fast-scan kernels.
///
/// The f32 ADC rows are affinely rescaled so every entry fits a byte and a
/// whole distance fits a u16 accumulator:
///
/// - per subspace `s`, the finite row minimum `min_s` is subtracted and
///   folded into one query-global `bias = Σ_s min_s`;
/// - one global step `delta = max_s (max_s - min_s) / 255` scales every
///   row, so `lut[s][w] = round((t[s][w] - min_s) / delta)` is in
///   `0..=255` and `Σ_s lut[s][code_s] ≤ m · 255 ≤ 65535` for `m ≤ 257`
///   (no u16 saturation in practice; the kernels still saturate
///   defensively).
///
/// A quantized distance `q` maps back as `bias + delta · q`; the rounding
/// error is at most `delta / 2` per subspace, i.e. [`Self::error_bound`]
/// overall — which is why fast-scan results are re-ranked before serving.
#[derive(Debug, Clone)]
pub struct QuantizedAdcTable {
    /// Row-major `m × 16` u8 entries (row `s` is subspace `s`'s LUT).
    luts: Vec<u8>,
    bias: f32,
    delta: f32,
    m: usize,
}

impl QuantizedAdcTable {
    /// Quantizes every f32 row of `table`.
    ///
    /// Entries that are `INFINITY` (codewords beyond the trained codebook)
    /// clamp to 255; codes never reference them.
    pub fn from_table(table: &AdcTable) -> Self {
        let m = table.num_subspaces();
        let rows = || table.flat.chunks_exact(CODEBOOK_SIZE);
        let mut mins = Vec::with_capacity(m);
        let mut max_range = 0.0f32;
        for row in rows() {
            let mut min = f32::INFINITY;
            let mut max = f32::NEG_INFINITY;
            for &t in row {
                if t.is_finite() {
                    min = min.min(t);
                    max = max.max(t);
                }
            }
            // A row with no finite entry cannot be produced by a trained
            // quantizer (k-means always emits ≥ 1 centroid); guard anyway.
            if !min.is_finite() {
                min = 0.0;
                max = 0.0;
            }
            max_range = max_range.max(max - min);
            mins.push(min);
        }
        // delta == 0 means every LUT entry quantizes to 0 and distances
        // collapse to `bias` exactly; keep it positive so `to_f32` stays
        // finite and the error bound is 0-ish rather than NaN.
        let delta = if max_range > 0.0 {
            max_range / 255.0
        } else {
            1.0
        };
        let mut luts = vec![0u8; m * CODEBOOK_SIZE];
        let outs = luts.chunks_exact_mut(CODEBOOK_SIZE);
        for ((out, row), &min) in outs.zip(rows()).zip(&mins) {
            for (o, &t) in out.iter_mut().zip(row) {
                *o = if t.is_finite() {
                    (((t - min) / delta).round()).clamp(0.0, 255.0) as u8
                } else {
                    255
                };
            }
        }
        Self {
            luts,
            bias: mins.iter().sum(),
            delta,
            m,
        }
    }

    /// The flattened `m × 16` u8 LUTs (kernel input).
    pub fn luts(&self) -> &[u8] {
        &self.luts
    }

    /// Number of subspaces `m`.
    pub fn num_subspaces(&self) -> usize {
        self.m
    }

    /// Maps a kernel's u16 accumulator back to an approximate squared
    /// distance.
    #[inline]
    pub fn to_f32(&self, q: u16) -> f32 {
        self.bias + self.delta * f32::from(q)
    }

    /// Largest accumulator value whose [`Self::to_f32`] distance is still
    /// `<= threshold` — i.e. could pass a [`crate::topk::TopK::would_accept`]
    /// test — or `None` if no accumulator can. `to_f32` is monotone
    /// nondecreasing in the accumulator (`delta` is always positive), so a
    /// block scan may skip every lane above the bound without changing its
    /// candidate set: those lanes provably fail `would_accept`. Lanes at or
    /// below the bound still go through the exact `to_f32`/`would_accept`
    /// path, so pruning being conservative costs nothing but a compare.
    ///
    /// The closed-form estimate is corrected against `to_f32`'s actual f32
    /// rounding by walking to the exact edge (at most a couple of steps).
    pub fn prune_bound(&self, threshold: f32) -> Option<u16> {
        if threshold == f32::INFINITY {
            return Some(u16::MAX);
        }
        if threshold.is_nan() {
            // A NaN k-th distance rejects everything (`d <= NaN` is false).
            return None;
        }
        let est = (f64::from(threshold) - f64::from(self.bias)) / f64::from(self.delta);
        let mut q = est.clamp(0.0, f64::from(u16::MAX)) as u16;
        while q < u16::MAX && self.to_f32(q + 1) <= threshold {
            q += 1;
        }
        while self.to_f32(q) > threshold {
            if q == 0 {
                return None;
            }
            q -= 1;
        }
        Some(q)
    }

    /// Quantized distance of one unpacked code (sub-code values `0..16`) —
    /// the per-id scalar twin of the block kernels. Accumulates with
    /// saturating u16 adds in subspace order, exactly like
    /// [`crate::simd::KernelSet::fastscan16`], so per-id and block paths
    /// are bit-identical.
    ///
    /// # Panics
    ///
    /// Panics if `code.len() != self.num_subspaces()`.
    #[inline]
    pub fn distance(&self, code: &[u8]) -> f32 {
        assert_eq!(code.len(), self.m, "code length mismatch");
        let mut acc = 0u16;
        for (sub, &c) in code.iter().enumerate() {
            acc = acc.saturating_add(u16::from(
                self.luts[sub * CODEBOOK_SIZE + (c & 0x0f) as usize],
            ));
        }
        self.to_f32(acc)
    }

    /// Worst-case absolute error of a quantized distance vs the f32 ADC
    /// table it came from (`m · delta / 2` rounding slack).
    pub fn error_bound(&self) -> f32 {
        0.5 * self.m as f32 * self.delta
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::Xoshiro256;

    fn random_data(n: usize, dim: usize, seed: u64) -> Vec<Vector> {
        let mut rng = Xoshiro256::seed_from(seed);
        (0..n)
            .map(|_| (0..dim).map(|_| rng.next_gaussian() as f32).collect())
            .collect()
    }

    #[test]
    fn encode_decode_reduces_error_vs_random() {
        let data = random_data(400, 16, 5);
        let pq = ProductQuantizer::train(
            &data,
            &PqConfig {
                num_subspaces: 4,
                ..Default::default()
            },
        );
        let mut err = 0.0f64;
        let mut base = 0.0f64;
        for v in data.iter().take(100) {
            let approx = pq.decode(&pq.encode(v.as_slice()));
            err += squared_l2(v.as_slice(), approx.as_slice()) as f64;
            base += v.squared_norm() as f64; // error of quantizing to origin
        }
        assert!(
            err < base * 0.5,
            "PQ reconstruction ({err}) should beat origin baseline ({base})"
        );
    }

    #[test]
    fn adc_matches_decoded_distance() {
        let data = random_data(300, 8, 6);
        let pq = ProductQuantizer::train(
            &data,
            &PqConfig {
                num_subspaces: 2,
                ..Default::default()
            },
        );
        let query = &data[0];
        let table = pq.adc_table(query.as_slice());
        for v in data.iter().take(50) {
            let code = pq.encode(v.as_slice());
            let adc = table.distance(&code);
            let exact = squared_l2(query.as_slice(), pq.decode(&code).as_slice());
            assert!((adc - exact).abs() < 1e-3, "adc {adc} vs decoded {exact}");
        }
    }

    #[test]
    fn adc_preserves_neighbor_ordering_roughly() {
        // With well-separated clusters, ADC must rank the same-cluster point
        // closer than a far-cluster point.
        let mut data = Vec::new();
        let mut rng = Xoshiro256::seed_from(8);
        for c in [0.0f32, 50.0] {
            for _ in 0..200 {
                data.push(Vector::from(vec![
                    c + rng.next_gaussian() as f32,
                    c + rng.next_gaussian() as f32,
                    c + rng.next_gaussian() as f32,
                    c + rng.next_gaussian() as f32,
                ]));
            }
        }
        let pq = ProductQuantizer::train(
            &data,
            &PqConfig {
                num_subspaces: 2,
                ..Default::default()
            },
        );
        let table = pq.adc_table(data[0].as_slice());
        let near = table.distance(&pq.encode(data[1].as_slice()));
        let far = table.distance(&pq.encode(data[250].as_slice()));
        assert!(near < far);
    }

    #[test]
    fn code_length_equals_subspaces() {
        let data = random_data(300, 12, 7);
        let pq = ProductQuantizer::train(
            &data,
            &PqConfig {
                num_subspaces: 3,
                ..Default::default()
            },
        );
        assert_eq!(pq.encode(data[0].as_slice()).len(), 3);
        assert_eq!(pq.num_subspaces(), 3);
        assert_eq!(pq.dim(), 12);
    }

    #[test]
    #[should_panic(expected = "must divide dimension")]
    fn indivisible_subspaces_panic() {
        let data = random_data(10, 10, 1);
        ProductQuantizer::train(
            &data,
            &PqConfig {
                num_subspaces: 3,
                ..Default::default()
            },
        );
    }

    #[test]
    #[should_panic(expected = "encode dimension mismatch")]
    fn encode_wrong_dim_panics() {
        let data = random_data(50, 8, 2);
        let pq = ProductQuantizer::train(
            &data,
            &PqConfig {
                num_subspaces: 2,
                ..Default::default()
            },
        );
        pq.encode(&[0.0; 4]);
    }

    #[test]
    fn four_bit_codes_stay_in_nibble_range() {
        let data = random_data(300, 16, 11);
        let pq = ProductQuantizer::train(
            &data,
            &PqConfig {
                num_subspaces: 4,
                ..Default::default()
            },
        );
        for v in data.iter().take(50) {
            assert!(pq.encode(v.as_slice()).iter().all(|&c| c < 16));
        }
    }

    #[test]
    fn quantized_table_tracks_f32_table_within_bound() {
        let data = random_data(400, 16, 12);
        let pq = ProductQuantizer::train(
            &data,
            &PqConfig {
                num_subspaces: 8,
                ..Default::default()
            },
        );
        let query = &data[3];
        let exact = pq.adc_table(query.as_slice());
        let quant = pq.quantized_adc_table(query.as_slice());
        let bound = quant.error_bound() + 1e-3;
        for v in data.iter().take(100) {
            let code = pq.encode(v.as_slice());
            let d_exact = exact.distance(&code);
            let d_quant = quant.distance(&code);
            assert!(
                (d_exact - d_quant).abs() <= bound,
                "quantized {d_quant} vs exact {d_exact}, bound {bound}"
            );
        }
    }

    #[test]
    fn quantized_table_matches_block_kernel_bit_exactly() {
        // Pack 32 codes the fast-scan way and check the per-id scalar twin
        // against the dispatched block kernel.
        let data = random_data(300, 8, 13);
        let pq = ProductQuantizer::train(
            &data,
            &PqConfig {
                num_subspaces: 4,
                ..Default::default()
            },
        );
        let quant = pq.quantized_adc_table(data[0].as_slice());
        let m = pq.num_subspaces();
        let codes: Vec<Vec<u8>> = data
            .iter()
            .take(FASTSCAN_BLOCK)
            .map(|v| pq.encode(v.as_slice()))
            .collect();
        let mut block = vec![0u8; m * CODEBOOK_SIZE];
        for (lane, code) in codes.iter().enumerate() {
            for (sub, &c) in code.iter().enumerate() {
                let byte = &mut block[sub * CODEBOOK_SIZE + lane % CODEBOOK_SIZE];
                *byte |= if lane < CODEBOOK_SIZE { c } else { c << 4 };
            }
        }
        let mut acc = [0u16; FASTSCAN_BLOCK];
        crate::simd::active().fastscan16(&block, quant.luts(), &mut acc);
        for (lane, code) in codes.iter().enumerate() {
            assert_eq!(
                quant.to_f32(acc[lane]).to_bits(),
                quant.distance(code).to_bits(),
                "lane {lane}"
            );
        }
    }

    #[test]
    fn prune_bound_is_the_exact_would_accept_edge() {
        // The contract the block-scan prune relies on: for every possible
        // accumulator q, `to_f32(q) <= threshold` ⇔ `q <= prune_bound`.
        let data = random_data(400, 16, 21);
        let pq = ProductQuantizer::train(
            &data,
            &PqConfig {
                num_subspaces: 8,
                ..Default::default()
            },
        );
        let quant = pq.quantized_adc_table(data[7].as_slice());
        let mut thresholds: Vec<f32> = (0..40).map(|i| quant.to_f32((i * 1637) as u16)).collect();
        // Off-edge thresholds, the edges themselves, and the extremes.
        thresholds.extend((0..40).map(|i| quant.to_f32((i * 1637) as u16) + 1e-3));
        thresholds.extend([0.0, quant.to_f32(0), quant.to_f32(u16::MAX) + 1.0]);
        for thr in thresholds {
            let bound = quant.prune_bound(thr);
            // The edge itself: the bound passes, the next value fails.
            match bound {
                Some(b) => {
                    assert!(quant.to_f32(b) <= thr, "bound {b} fails at thr {thr}");
                    if b < u16::MAX {
                        assert!(quant.to_f32(b + 1) > thr, "bound {b} not maximal at {thr}");
                    }
                }
                None => assert!(quant.to_f32(0) > thr, "None but q=0 passes at {thr}"),
            }
            // Spot-check the equivalence across the whole range.
            for q in (0..=u16::MAX).step_by(251).chain([u16::MAX]) {
                let passes = quant.to_f32(q) <= thr;
                let kept = bound.is_some_and(|b| q <= b);
                assert_eq!(passes, kept, "thr {thr} q {q} bound {bound:?}");
            }
        }
        assert_eq!(quant.prune_bound(f32::INFINITY), Some(u16::MAX));
        assert_eq!(quant.prune_bound(f32::NAN), None);
        assert_eq!(quant.prune_bound(f32::NEG_INFINITY), None);
    }

    #[test]
    fn degenerate_identical_rows_quantize_to_bias() {
        // All codewords equidistant → delta clamps to 1.0 and every
        // quantized distance equals the bias exactly.
        let data: Vec<Vector> = (0..100).map(|_| Vector::from(vec![0.0f32; 8])).collect();
        let pq = ProductQuantizer::train(
            &data,
            &PqConfig {
                num_subspaces: 2,
                ..Default::default()
            },
        );
        let quant = pq.quantized_adc_table(&[1.0f32; 8]);
        let code = pq.encode(&[0.5f32; 8]);
        let exact = pq.adc_table(&[1.0f32; 8]).distance(&code);
        assert!((quant.distance(&code) - exact).abs() < 1e-4);
    }

    #[test]
    fn training_is_deterministic() {
        let data = random_data(200, 8, 3);
        let cfg = PqConfig {
            num_subspaces: 2,
            ..Default::default()
        };
        let a = ProductQuantizer::train(&data, &cfg);
        let b = ProductQuantizer::train(&data, &cfg);
        assert_eq!(a.encode(data[5].as_slice()), b.encode(data[5].as_slice()));
    }

    #[test]
    fn codewords_round_trip_bit_exact() {
        // 5 training points: every codebook has 5 trained words and 11
        // unused slots.
        for n in [400, 5] {
            let data = random_data(n, 8, 13);
            let pq = ProductQuantizer::train(
                &data,
                &PqConfig {
                    num_subspaces: 4,
                    ..Default::default()
                },
            );
            let words = pq.codewords();
            assert_eq!(words.len(), CODEBOOK_SIZE * 8);
            let back = ProductQuantizer::from_codewords(8, 4, &words).expect("valid table");
            assert_eq!(back, pq);
            assert_eq!(back.codewords(), words);
            let q = data[1].as_slice();
            assert_eq!(back.encode(q), pq.encode(q));
            assert_eq!(
                back.quantized_adc_table(q).luts(),
                pq.quantized_adc_table(q).luts()
            );
        }
    }

    #[test]
    fn from_codewords_rejects_tables_codewords_cannot_write() {
        let pq = ProductQuantizer::train(
            &random_data(5, 8, 17),
            &PqConfig {
                num_subspaces: 2,
                ..Default::default()
            },
        );
        let words = pq.codewords();
        let edited = |at: usize, v: f32| {
            let mut w = words.clone();
            w[at] = v;
            w
        };
        // Subspace 0 holds words 0..16 of 4 floats; 0..5 are trained.
        let cases: [(&str, usize, usize, Vec<f32>); 7] = [
            ("zero dim", 0, 2, words.clone()),
            ("zero subspaces", 8, 0, words.clone()),
            ("subspaces not dividing dim", 8, 3, words.clone()),
            ("short table", 8, 2, words[..words.len() - 1].to_vec()),
            ("NaN in a trained word", 8, 2, edited(1, f32::NAN)),
            ("untrained first word", 8, 2, edited(0, f32::INFINITY)),
            (
                "trained word after an unused slot",
                8,
                2,
                edited(4 * 9, 0.0),
            ),
        ];
        for (case, dim, m, table) in cases {
            assert!(
                ProductQuantizer::from_codewords(dim, m, &table).is_err(),
                "{case} must be refused"
            );
        }
    }
}
