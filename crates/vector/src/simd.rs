//! Runtime-dispatched SIMD distance kernels.
//!
//! The searcher's inner loop evaluates `squared_l2` (raw scans), `dot`
//! (cosine/MIPS modes) and the 4-bit PQ fast-scan (compressed scans)
//! millions of times per second; Section 2.4's sub-second latency target
//! makes these the hottest instructions in the system. This module provides
//! three implementations of each kernel behind one [`KernelSet`] of function
//! pointers:
//!
//! - **scalar** — the always-correct reference: 4-way manually unrolled,
//!   identical to the original hand-written loops. Used for differential
//!   testing and as the fallback on hardware without SIMD.
//! - **avx2-fma** (`x86_64`) — 8-lane `f32` FMA kernels with two
//!   independent accumulators; the fast-scan kernel does 32 LUT lookups
//!   per subspace with one `vpshufb`.
//! - **neon** (`aarch64`) — 4-lane `f32` FMA kernels and `vqtbl1q_u8`
//!   fast-scan (NEON is part of the baseline AArch64 ISA, so no runtime
//!   detection is needed).
//!
//! Selection happens **once**, on first use, via
//! `is_x86_feature_detected!`; every later call is an indirect call through
//! a cached function pointer. Setting the environment variable
//! `JDVS_FORCE_SCALAR` (to anything but `0`) before first use pins the
//! dispatcher to the scalar set — CI runs the whole test suite in that mode
//! so both code paths stay green.
//!
//! Floating-point caveat: SIMD kernels associate the reduction differently
//! from the scalar ones (and FMA skips an intermediate rounding), so results
//! may differ in the last bits. Property tests bound the relative error at
//! `1e-4`; orderings of well-separated candidates are unaffected.

use std::sync::OnceLock;

/// Codes per fast-scan block: one 4-bit fast-scan kernel call scores this
/// many candidates at once (mirrors `jdvs_core`'s interleaved block size).
pub const FASTSCAN_LANES: usize = 32;

/// Bytes per subspace row in a fast-scan block / quantized LUT: 16 packed
/// byte slots (two 4-bit codes each) and 16 u8 LUT entries respectively.
const FASTSCAN_ROW: usize = 16;

#[inline]
fn assert_same_len(a: &[f32], b: &[f32]) {
    assert_eq!(
        a.len(),
        b.len(),
        "distance between vectors of different dimension"
    );
}

/// One complete set of distance kernels (see the module docs).
#[derive(Clone, Copy)]
pub struct KernelSet {
    name: &'static str,
    squared_l2: fn(&[f32], &[f32]) -> f32,
    dot: fn(&[f32], &[f32]) -> f32,
    fastscan16: fn(&[u8], &[u8], &mut [u16; FASTSCAN_LANES]),
    fastscan16_le: fn(&[u8], &[u8], u16, &mut [u16; FASTSCAN_LANES]) -> u32,
}

impl std::fmt::Debug for KernelSet {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("KernelSet")
            .field("name", &self.name)
            .finish()
    }
}

impl KernelSet {
    /// Kernel family name: `"scalar"`, `"avx2-fma"` or `"neon"`.
    pub fn name(&self) -> &'static str {
        self.name
    }

    /// Squared Euclidean distance `Σ (aᵢ - bᵢ)²`.
    ///
    /// # Panics
    ///
    /// Panics if the slices have different lengths.
    #[inline]
    pub fn squared_l2(&self, a: &[f32], b: &[f32]) -> f32 {
        assert_same_len(a, b);
        (self.squared_l2)(a, b)
    }

    /// Inner product `Σ aᵢ·bᵢ`.
    ///
    /// # Panics
    ///
    /// Panics if the slices have different lengths.
    #[inline]
    pub fn dot(&self, a: &[f32], b: &[f32]) -> f32 {
        assert_same_len(a, b);
        (self.dot)(a, b)
    }

    /// 4-bit fast-scan over one interleaved 32-code block.
    ///
    /// `block` and `luts` are both `m` rows of 16 bytes, row `s` belonging
    /// to subspace `s`. In `block`, byte `t` of a row packs the sub-code of
    /// block lane `t` in its low nibble and of lane `t + 16` in its high
    /// nibble; in `luts`, byte `w` of a row is the quantized distance of
    /// codeword `w` (see [`crate::pq::QuantizedAdcTable`]). Writes the 32
    /// per-lane sums into `out` using **saturating** u16 adds in subspace
    /// order `0..m` — every implementation accumulates in this exact order,
    /// so scalar and SIMD results are bit-identical.
    ///
    /// # Panics
    ///
    /// Panics if `block` and `luts` differ in length or are not a whole
    /// number of 16-byte rows.
    #[inline]
    pub fn fastscan16(&self, block: &[u8], luts: &[u8], out: &mut [u16; FASTSCAN_LANES]) {
        assert_eq!(
            block.len(),
            luts.len(),
            "fast-scan block/LUT shape mismatch"
        );
        assert_eq!(
            block.len() % FASTSCAN_ROW,
            0,
            "fast-scan rows must be 16 bytes"
        );
        (self.fastscan16)(block, luts, out)
    }

    /// Fused score + prune over one interleaved 32-code block: the mask of
    /// [`scalar::lanes_le16`]`(acc, bound)` (bit `t` ⇔ `acc[t] <= bound`)
    /// over the sums [`Self::fastscan16`]`(block, luts)` would write,
    /// without the round trip through memory between the two. The scan
    /// uses it as a block-level top-k prune: with the current k-th distance
    /// mapped back to a quantized bound, a zero mask skips the block's
    /// candidate processing entirely. `out` receives the 32 sums only
    /// when the mask is non-zero — the common block, all of whose lanes lie
    /// above a warmed-up prune bound, never stores its accumulators.
    /// Accumulation is the same saturating add order as `fastscan16` and
    /// the compare is integral, so every implementation returns the
    /// identical mask and row.
    ///
    /// # Panics
    ///
    /// Panics if `block` and `luts` differ in length or are not a whole
    /// number of 16-byte rows.
    #[inline]
    pub fn fastscan16_le(
        &self,
        block: &[u8],
        luts: &[u8],
        bound: u16,
        out: &mut [u16; FASTSCAN_LANES],
    ) -> u32 {
        assert_eq!(
            block.len(),
            luts.len(),
            "fast-scan block/LUT shape mismatch"
        );
        assert_eq!(
            block.len() % FASTSCAN_ROW,
            0,
            "fast-scan rows must be 16 bytes"
        );
        (self.fastscan16_le)(block, luts, bound, out)
    }
}

/// [`KernelSet::fastscan16_le`] by its definition — `score`'s sums, then the
/// reference compare — for kernel sets without a fused implementation.
#[inline]
fn score_then_prune(
    score: fn(&[u8], &[u8], &mut [u16; FASTSCAN_LANES]),
    block: &[u8],
    luts: &[u8],
    bound: u16,
    out: &mut [u16; FASTSCAN_LANES],
) -> u32 {
    let mut row = [0u16; FASTSCAN_LANES];
    score(block, luts, &mut row);
    let mask = scalar::lanes_le16(&row, bound);
    if mask != 0 {
        *out = row;
    }
    mask
}

static SCALAR: KernelSet = KernelSet {
    name: "scalar",
    squared_l2: scalar::squared_l2,
    dot: scalar::dot,
    fastscan16: scalar::fastscan16,
    fastscan16_le: scalar::fastscan16_le,
};

#[cfg(target_arch = "x86_64")]
static AVX2: KernelSet = KernelSet {
    name: "avx2-fma",
    squared_l2: x86::squared_l2,
    dot: x86::dot,
    fastscan16: x86::fastscan16,
    fastscan16_le: x86::fastscan16_le,
};

#[cfg(target_arch = "aarch64")]
static NEON: KernelSet = KernelSet {
    name: "neon",
    squared_l2: neon::squared_l2,
    dot: neon::dot,
    fastscan16: neon::fastscan16,
    fastscan16_le: neon::fastscan16_le,
};

/// The scalar reference kernels (always correct, never dispatched away).
pub fn scalar() -> &'static KernelSet {
    &SCALAR
}

/// The best kernel set this CPU supports, ignoring `JDVS_FORCE_SCALAR`.
/// Differential tests use this to exercise the SIMD path explicitly.
pub fn detect_best() -> &'static KernelSet {
    #[cfg(target_arch = "x86_64")]
    {
        if is_x86_feature_detected!("avx2") && is_x86_feature_detected!("fma") {
            return &AVX2;
        }
    }
    #[cfg(target_arch = "aarch64")]
    {
        return &NEON;
    }
    #[allow(unreachable_code)]
    &SCALAR
}

/// The kernel set every hot path dispatches through: [`detect_best`] unless
/// `JDVS_FORCE_SCALAR` pins the scalar fallback. Selected once, cached for
/// the process lifetime.
pub fn active() -> &'static KernelSet {
    static ACTIVE: OnceLock<&'static KernelSet> = OnceLock::new();
    ACTIVE.get_or_init(|| {
        if std::env::var_os("JDVS_FORCE_SCALAR").is_some_and(|v| v != "0") {
            &SCALAR
        } else {
            detect_best()
        }
    })
}

/// The scalar reference implementations (4-way unrolled; the pre-SIMD hot
/// loops, kept verbatim as the correctness oracle).
pub mod scalar {
    /// Reference `Σ (aᵢ - bᵢ)²`; caller guarantees equal lengths.
    pub fn squared_l2(a: &[f32], b: &[f32]) -> f32 {
        let mut acc0 = 0.0f32;
        let mut acc1 = 0.0f32;
        let mut acc2 = 0.0f32;
        let mut acc3 = 0.0f32;
        let chunks = a.len() / 4;
        for i in 0..chunks {
            let j = i * 4;
            let d0 = a[j] - b[j];
            let d1 = a[j + 1] - b[j + 1];
            let d2 = a[j + 2] - b[j + 2];
            let d3 = a[j + 3] - b[j + 3];
            acc0 += d0 * d0;
            acc1 += d1 * d1;
            acc2 += d2 * d2;
            acc3 += d3 * d3;
        }
        let mut acc = acc0 + acc1 + acc2 + acc3;
        for j in chunks * 4..a.len() {
            let d = a[j] - b[j];
            acc += d * d;
        }
        acc
    }

    /// Reference `Σ aᵢ·bᵢ`; caller guarantees equal lengths.
    pub fn dot(a: &[f32], b: &[f32]) -> f32 {
        let mut acc0 = 0.0f32;
        let mut acc1 = 0.0f32;
        let mut acc2 = 0.0f32;
        let mut acc3 = 0.0f32;
        let chunks = a.len() / 4;
        for i in 0..chunks {
            let j = i * 4;
            acc0 += a[j] * b[j];
            acc1 += a[j + 1] * b[j + 1];
            acc2 += a[j + 2] * b[j + 2];
            acc3 += a[j + 3] * b[j + 3];
        }
        let mut acc = acc0 + acc1 + acc2 + acc3;
        for j in chunks * 4..a.len() {
            acc += a[j] * b[j];
        }
        acc
    }

    /// Reference fast-scan (see [`super::KernelSet::fastscan16`]); caller
    /// guarantees `block.len() == luts.len()` and 16-byte rows. Lane `t`
    /// reads the low nibble of byte `t % 16`, lane `t + 16` the high
    /// nibble; saturating adds run in subspace order so this is the
    /// bit-exact oracle for the SIMD kernels.
    pub fn fastscan16(block: &[u8], luts: &[u8], out: &mut [u16; super::FASTSCAN_LANES]) {
        let m = block.len() / super::FASTSCAN_ROW;
        for (lane, slot) in out.iter_mut().enumerate() {
            let byte = lane % super::FASTSCAN_ROW;
            let shift = if lane < super::FASTSCAN_ROW { 0 } else { 4 };
            let mut acc = 0u16;
            for sub in 0..m {
                let code = (block[sub * super::FASTSCAN_ROW + byte] >> shift) & 0x0f;
                acc =
                    acc.saturating_add(u16::from(luts[sub * super::FASTSCAN_ROW + code as usize]));
            }
            *slot = acc;
        }
    }

    /// Reference fused score + prune (see
    /// [`super::KernelSet::fastscan16_le`]): literally [`fastscan16`] then
    /// [`lanes_le16`], the definition the SIMD versions must reproduce.
    pub fn fastscan16_le(
        block: &[u8],
        luts: &[u8],
        bound: u16,
        out: &mut [u16; super::FASTSCAN_LANES],
    ) -> u32 {
        super::score_then_prune(fastscan16, block, luts, bound, out)
    }

    /// Reference lane-prune mask (the compare half of
    /// [`super::KernelSet::fastscan16_le`]): bit `t` ⇔ `accs[t] <= bound`.
    /// Integer compares only — the fused SIMD kernels must return this
    /// exact mask.
    pub fn lanes_le16(accs: &[u16; super::FASTSCAN_LANES], bound: u16) -> u32 {
        let mut mask = 0u32;
        for (lane, &acc) in accs.iter().enumerate() {
            mask |= u32::from(acc <= bound) << lane;
        }
        mask
    }
}

#[cfg(target_arch = "x86_64")]
mod x86 {
    use std::arch::x86_64::*;

    /// Horizontal sum of the 8 lanes of `v`.
    #[inline]
    #[target_feature(enable = "avx2")]
    unsafe fn hsum(v: __m256) -> f32 {
        let lo = _mm256_castps256_ps128(v);
        let hi = _mm256_extractf128_ps(v, 1);
        let s = _mm_add_ps(lo, hi);
        let s = _mm_add_ps(s, _mm_movehl_ps(s, s));
        let s = _mm_add_ss(s, _mm_shuffle_ps(s, s, 1));
        _mm_cvtss_f32(s)
    }

    pub(super) fn squared_l2(a: &[f32], b: &[f32]) -> f32 {
        // SAFETY: this function is only reachable through the AVX2 kernel
        // set, which `detect_best` installs after `is_x86_feature_detected!`
        // confirmed avx2+fma support.
        unsafe { squared_l2_avx2(a, b) }
    }

    pub(super) fn dot(a: &[f32], b: &[f32]) -> f32 {
        // SAFETY: as above — only selected on avx2+fma hardware.
        unsafe { dot_avx2(a, b) }
    }

    #[target_feature(enable = "avx2,fma")]
    unsafe fn squared_l2_avx2(a: &[f32], b: &[f32]) -> f32 {
        let n = a.len();
        let ap = a.as_ptr();
        let bp = b.as_ptr();
        let mut acc0 = _mm256_setzero_ps();
        let mut acc1 = _mm256_setzero_ps();
        let mut i = 0usize;
        while i + 16 <= n {
            let d0 = _mm256_sub_ps(_mm256_loadu_ps(ap.add(i)), _mm256_loadu_ps(bp.add(i)));
            acc0 = _mm256_fmadd_ps(d0, d0, acc0);
            let d1 = _mm256_sub_ps(
                _mm256_loadu_ps(ap.add(i + 8)),
                _mm256_loadu_ps(bp.add(i + 8)),
            );
            acc1 = _mm256_fmadd_ps(d1, d1, acc1);
            i += 16;
        }
        if i + 8 <= n {
            let d = _mm256_sub_ps(_mm256_loadu_ps(ap.add(i)), _mm256_loadu_ps(bp.add(i)));
            acc0 = _mm256_fmadd_ps(d, d, acc0);
            i += 8;
        }
        let mut total = hsum(_mm256_add_ps(acc0, acc1));
        while i < n {
            let d = *a.get_unchecked(i) - *b.get_unchecked(i);
            total += d * d;
            i += 1;
        }
        total
    }

    #[target_feature(enable = "avx2,fma")]
    unsafe fn dot_avx2(a: &[f32], b: &[f32]) -> f32 {
        let n = a.len();
        let ap = a.as_ptr();
        let bp = b.as_ptr();
        let mut acc0 = _mm256_setzero_ps();
        let mut acc1 = _mm256_setzero_ps();
        let mut i = 0usize;
        while i + 16 <= n {
            acc0 = _mm256_fmadd_ps(_mm256_loadu_ps(ap.add(i)), _mm256_loadu_ps(bp.add(i)), acc0);
            acc1 = _mm256_fmadd_ps(
                _mm256_loadu_ps(ap.add(i + 8)),
                _mm256_loadu_ps(bp.add(i + 8)),
                acc1,
            );
            i += 16;
        }
        if i + 8 <= n {
            acc0 = _mm256_fmadd_ps(_mm256_loadu_ps(ap.add(i)), _mm256_loadu_ps(bp.add(i)), acc0);
            i += 8;
        }
        let mut total = hsum(_mm256_add_ps(acc0, acc1));
        while i < n {
            total += *a.get_unchecked(i) * *b.get_unchecked(i);
            i += 1;
        }
        total
    }

    pub(super) fn fastscan16(block: &[u8], luts: &[u8], out: &mut [u16; super::FASTSCAN_LANES]) {
        // SAFETY: as above — only selected on avx2+fma hardware.
        unsafe { fastscan16_avx2(block, luts, out) }
    }

    /// 4-bit fast-scan sums: per subspace, one `_mm256_shuffle_epi8`
    /// performs all 32 LUT lookups with the 16-entry LUT broadcast into both
    /// register halves — the table never leaves registers. Accumulation is
    /// `_mm256_adds_epu16` (saturating), one subspace per iteration, which
    /// matches the scalar oracle's per-lane add order exactly.
    ///
    /// Returns `(acc_lo, acc_hi)`: `acc_lo` holds the u16 sums of block
    /// lanes 0..8 (128-bit half 0) and 16..24 (half 1), `acc_hi` those of
    /// lanes 8..16 and 24..32 — `unpacklo/hi` interleave within each half.
    #[inline]
    #[target_feature(enable = "avx2")]
    unsafe fn fastscan16_sums(block: &[u8], luts: &[u8]) -> (__m256i, __m256i) {
        let m = block.len() / super::FASTSCAN_ROW;
        let zero = _mm256_setzero_si256();
        let nib = _mm256_set1_epi8(0x0f);
        let mut acc_lo = zero;
        let mut acc_hi = zero;
        for sub in 0..m {
            let row = sub * super::FASTSCAN_ROW;
            let codes = _mm_loadu_si128(block.as_ptr().add(row) as *const __m128i);
            let lut = _mm256_broadcastsi128_si256(_mm_loadu_si128(
                luts.as_ptr().add(row) as *const __m128i
            ));
            // Half 0 indexes with the low nibbles (lanes 0..16), half 1
            // with the high nibbles (lanes 16..32).
            let idx = _mm256_and_si256(_mm256_set_m128i(_mm_srli_epi16::<4>(codes), codes), nib);
            let vals = _mm256_shuffle_epi8(lut, idx);
            acc_lo = _mm256_adds_epu16(acc_lo, _mm256_unpacklo_epi8(vals, zero));
            acc_hi = _mm256_adds_epu16(acc_hi, _mm256_unpackhi_epi8(vals, zero));
        }
        (acc_lo, acc_hi)
    }

    /// Stores [`fastscan16_sums`]' register pair in lane order: acc_lo half
    /// 0 → out[0..8], acc_hi half 0 → out[8..16], acc_lo half 1 →
    /// out[16..24], acc_hi half 1 → out[24..32].
    #[inline]
    #[target_feature(enable = "avx2")]
    unsafe fn store_sums(acc_lo: __m256i, acc_hi: __m256i, out: &mut [u16; super::FASTSCAN_LANES]) {
        let op = out.as_mut_ptr() as *mut __m128i;
        _mm_storeu_si128(op, _mm256_castsi256_si128(acc_lo));
        _mm_storeu_si128(op.add(1), _mm256_castsi256_si128(acc_hi));
        _mm_storeu_si128(op.add(2), _mm256_extracti128_si256::<1>(acc_lo));
        _mm_storeu_si128(op.add(3), _mm256_extracti128_si256::<1>(acc_hi));
    }

    #[target_feature(enable = "avx2")]
    unsafe fn fastscan16_avx2(block: &[u8], luts: &[u8], out: &mut [u16; super::FASTSCAN_LANES]) {
        let (acc_lo, acc_hi) = fastscan16_sums(block, luts);
        store_sums(acc_lo, acc_hi, out);
    }

    pub(super) fn fastscan16_le(
        block: &[u8],
        luts: &[u8],
        bound: u16,
        out: &mut [u16; super::FASTSCAN_LANES],
    ) -> u32 {
        // SAFETY: as above — only selected on avx2+fma hardware.
        unsafe { fastscan16_le_avx2(block, luts, bound, out) }
    }

    /// Fused score + prune: the sums never leave registers unless a lane
    /// survives. `acc <= bound` is `saturating_sub(acc, bound) == 0` (AVX2
    /// has no unsigned compare); `packs` of the two compare results puts
    /// lanes 0..8 | 8..16 in half 0 and 16..24 | 24..32 in half 1 — already
    /// lane order, so one `movemask` yields the mask with bit `t` = lane `t`.
    #[target_feature(enable = "avx2")]
    unsafe fn fastscan16_le_avx2(
        block: &[u8],
        luts: &[u8],
        bound: u16,
        out: &mut [u16; super::FASTSCAN_LANES],
    ) -> u32 {
        let (acc_lo, acc_hi) = fastscan16_sums(block, luts);
        let zero = _mm256_setzero_si256();
        let b = _mm256_set1_epi16(bound as i16);
        let le_lo = _mm256_cmpeq_epi16(_mm256_subs_epu16(acc_lo, b), zero);
        let le_hi = _mm256_cmpeq_epi16(_mm256_subs_epu16(acc_hi, b), zero);
        let mask = _mm256_movemask_epi8(_mm256_packs_epi16(le_lo, le_hi)) as u32;
        if mask != 0 {
            store_sums(acc_lo, acc_hi, out);
        }
        mask
    }
}

#[cfg(target_arch = "aarch64")]
mod neon {
    use std::arch::aarch64::*;

    pub(super) fn squared_l2(a: &[f32], b: &[f32]) -> f32 {
        // SAFETY: NEON is part of the baseline AArch64 ISA; the loads stay
        // inside the slices (equal lengths checked by the caller).
        unsafe {
            let n = a.len();
            let ap = a.as_ptr();
            let bp = b.as_ptr();
            let mut acc0 = vdupq_n_f32(0.0);
            let mut acc1 = vdupq_n_f32(0.0);
            let mut i = 0usize;
            while i + 8 <= n {
                let d0 = vsubq_f32(vld1q_f32(ap.add(i)), vld1q_f32(bp.add(i)));
                acc0 = vfmaq_f32(acc0, d0, d0);
                let d1 = vsubq_f32(vld1q_f32(ap.add(i + 4)), vld1q_f32(bp.add(i + 4)));
                acc1 = vfmaq_f32(acc1, d1, d1);
                i += 8;
            }
            if i + 4 <= n {
                let d = vsubq_f32(vld1q_f32(ap.add(i)), vld1q_f32(bp.add(i)));
                acc0 = vfmaq_f32(acc0, d, d);
                i += 4;
            }
            let mut total = vaddvq_f32(vaddq_f32(acc0, acc1));
            while i < n {
                let d = a[i] - b[i];
                total += d * d;
                i += 1;
            }
            total
        }
    }

    pub(super) fn dot(a: &[f32], b: &[f32]) -> f32 {
        // SAFETY: as above.
        unsafe {
            let n = a.len();
            let ap = a.as_ptr();
            let bp = b.as_ptr();
            let mut acc0 = vdupq_n_f32(0.0);
            let mut acc1 = vdupq_n_f32(0.0);
            let mut i = 0usize;
            while i + 8 <= n {
                acc0 = vfmaq_f32(acc0, vld1q_f32(ap.add(i)), vld1q_f32(bp.add(i)));
                acc1 = vfmaq_f32(acc1, vld1q_f32(ap.add(i + 4)), vld1q_f32(bp.add(i + 4)));
                i += 8;
            }
            if i + 4 <= n {
                acc0 = vfmaq_f32(acc0, vld1q_f32(ap.add(i)), vld1q_f32(bp.add(i)));
                i += 4;
            }
            let mut total = vaddvq_f32(vaddq_f32(acc0, acc1));
            while i < n {
                total += a[i] * b[i];
                i += 1;
            }
            total
        }
    }

    /// 4-bit fast-scan: `vqtbl1q_u8` does all 16 LUT lookups of one nibble
    /// set in a single instruction with the LUT register-resident;
    /// accumulation is `vqaddq_u16` (saturating) one subspace at a time,
    /// matching the scalar oracle's per-lane add order exactly.
    pub(super) fn fastscan16(block: &[u8], luts: &[u8], out: &mut [u16; super::FASTSCAN_LANES]) {
        // SAFETY: NEON is baseline AArch64; loads/stores stay inside the
        // slices (lengths validated by the `KernelSet` wrapper).
        unsafe {
            let m = block.len() / super::FASTSCAN_ROW;
            let nib = vdupq_n_u8(0x0f);
            // acc0..acc3 hold u16 sums for block lanes 0..8, 8..16,
            // 16..24 and 24..32 respectively.
            let mut acc0 = vdupq_n_u16(0);
            let mut acc1 = vdupq_n_u16(0);
            let mut acc2 = vdupq_n_u16(0);
            let mut acc3 = vdupq_n_u16(0);
            for sub in 0..m {
                let row = sub * super::FASTSCAN_ROW;
                let codes = vld1q_u8(block.as_ptr().add(row));
                let lut = vld1q_u8(luts.as_ptr().add(row));
                // Low nibbles → lanes 0..16, high nibbles → lanes 16..32.
                let vals_lo = vqtbl1q_u8(lut, vandq_u8(codes, nib));
                let vals_hi = vqtbl1q_u8(lut, vshrq_n_u8::<4>(codes));
                acc0 = vqaddq_u16(acc0, vmovl_u8(vget_low_u8(vals_lo)));
                acc1 = vqaddq_u16(acc1, vmovl_u8(vget_high_u8(vals_lo)));
                acc2 = vqaddq_u16(acc2, vmovl_u8(vget_low_u8(vals_hi)));
                acc3 = vqaddq_u16(acc3, vmovl_u8(vget_high_u8(vals_hi)));
            }
            let op = out.as_mut_ptr();
            vst1q_u16(op, acc0);
            vst1q_u16(op.add(8), acc1);
            vst1q_u16(op.add(16), acc2);
            vst1q_u16(op.add(24), acc3);
        }
    }

    /// Fused score + prune: the NEON sums, then the reference compare
    /// (32 u16 compares are branch-free and already cheap unrolled).
    pub(super) fn fastscan16_le(
        block: &[u8],
        luts: &[u8],
        bound: u16,
        out: &mut [u16; super::FASTSCAN_LANES],
    ) -> u32 {
        super::score_then_prune(fastscan16, block, luts, bound, out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::Xoshiro256;

    fn random_vec(dim: usize, seed: u64) -> Vec<f32> {
        let mut rng = Xoshiro256::seed_from(seed);
        (0..dim).map(|_| rng.next_gaussian() as f32).collect()
    }

    fn close(a: f32, b: f32) -> bool {
        let scale = a.abs().max(b.abs()).max(1.0);
        (a - b).abs() / scale < 1e-4
    }

    #[test]
    fn active_is_cached_and_named() {
        let k = active();
        assert_eq!(k.name(), active().name(), "selection is stable");
        assert!(["scalar", "avx2-fma", "neon"].contains(&k.name()));
    }

    #[test]
    fn best_matches_scalar_on_awkward_dims() {
        let best = detect_best();
        for dim in [
            1usize, 2, 3, 4, 5, 7, 8, 9, 15, 16, 17, 31, 63, 64, 100, 255, 1024,
        ] {
            let a = random_vec(dim, dim as u64);
            let b = random_vec(dim, dim as u64 + 1000);
            assert!(
                close(best.squared_l2(&a, &b), scalar().squared_l2(&a, &b)),
                "squared_l2 dim {dim}"
            );
            assert!(
                close(best.dot(&a, &b), scalar().dot(&a, &b)),
                "dot dim {dim}"
            );
        }
    }

    /// A pseudo-random fast-scan block + LUT pair for `m` subspaces.
    fn random_fastscan(m: usize, seed: u64, lut_max: u8) -> (Vec<u8>, Vec<u8>) {
        let mut rng = Xoshiro256::seed_from(seed);
        let block: Vec<u8> = (0..m * 16).map(|_| rng.next_index(256) as u8).collect();
        let luts: Vec<u8> = (0..m * 16)
            .map(|_| rng.next_index(lut_max as usize + 1) as u8)
            .collect();
        (block, luts)
    }

    #[test]
    fn fastscan_best_is_bit_exact_with_scalar() {
        let best = detect_best();
        for m in [1usize, 2, 3, 5, 8, 13, 16, 17, 32, 64] {
            let (block, luts) = random_fastscan(m, m as u64 * 31 + 5, 255);
            let mut want = [0u16; FASTSCAN_LANES];
            let mut got = [1u16; FASTSCAN_LANES];
            scalar().fastscan16(&block, &luts, &mut want);
            best.fastscan16(&block, &luts, &mut got);
            assert_eq!(want, got, "fastscan m {m}");
        }
    }

    #[test]
    fn fastscan_saturates_identically() {
        // m·255 > u16::MAX for m ≥ 258: every lane must clamp to 65535 in
        // both implementations rather than wrap.
        let best = detect_best();
        for m in [258usize, 300] {
            let (block, _) = random_fastscan(m, 99, 255);
            let luts = vec![255u8; m * 16];
            let mut want = [0u16; FASTSCAN_LANES];
            let mut got = [0u16; FASTSCAN_LANES];
            scalar().fastscan16(&block, &luts, &mut want);
            best.fastscan16(&block, &luts, &mut got);
            assert_eq!(want, got, "saturating fastscan m {m}");
            assert!(want.iter().all(|&v| v == u16::MAX));
        }
    }

    #[test]
    fn fastscan_matches_per_lane_recomputation() {
        // Independent oracle: unpack each lane's nibbles and sum by hand.
        let m = 12usize;
        let (block, luts) = random_fastscan(m, 4242, 200);
        let mut out = [0u16; FASTSCAN_LANES];
        active().fastscan16(&block, &luts, &mut out);
        for (lane, &got) in out.iter().enumerate() {
            let mut want = 0u16;
            for sub in 0..m {
                let byte = block[sub * 16 + lane % 16];
                let code = if lane < 16 { byte & 0x0f } else { byte >> 4 };
                want = want.saturating_add(u16::from(luts[sub * 16 + code as usize]));
            }
            assert_eq!(want, got, "lane {lane}");
        }
    }

    #[test]
    #[should_panic(expected = "block/LUT shape mismatch")]
    fn fastscan_shape_mismatch_panics() {
        let mut out = [0u16; FASTSCAN_LANES];
        active().fastscan16(&[0u8; 16], &[0u8; 32], &mut out);
    }

    /// The fused kernel's contract on the scalar and the best set: mask and
    /// row are exactly `fastscan16` then `lanes_le16`, the row is written
    /// only when a lane survives, at `bound` 0 and `u16::MAX` and under
    /// saturation (m ≥ 258 clamps every sum to `u16::MAX`).
    #[test]
    fn fastscan_le_equals_fastscan_then_lanes_le() {
        const UNTOUCHED: [u16; FASTSCAN_LANES] = [0xBEEF; FASTSCAN_LANES];
        for kernels in [scalar(), detect_best()] {
            for (m, lut_max) in [
                (1usize, 255u8),
                (8, 40),
                (16, 255),
                (17, 3),
                (64, 255),
                (300, 255),
            ] {
                let (block, mut luts) = random_fastscan(m, m as u64 * 13 + 1, lut_max);
                if m == 300 {
                    luts.fill(255);
                }
                let mut sums = [0u16; FASTSCAN_LANES];
                scalar().fastscan16(&block, &luts, &mut sums);
                let lo = *sums.iter().min().unwrap();
                let hi = *sums.iter().max().unwrap();
                for bound in [0, lo.saturating_sub(1), lo, lo / 2 + hi / 2, hi, u16::MAX] {
                    let want = scalar::lanes_le16(&sums, bound);
                    let mut row = UNTOUCHED;
                    let got = kernels.fastscan16_le(&block, &luts, bound, &mut row);
                    let name = kernels.name();
                    assert_eq!(got, want, "{name} m {m} bound {bound}");
                    let expect_row = if want == 0 { UNTOUCHED } else { sums };
                    assert_eq!(row, expect_row, "{name} m {m} bound {bound}");
                }
                assert!(m != 300 || lo == u16::MAX, "m = 300 must saturate");
            }
        }
    }

    #[test]
    #[should_panic(expected = "block/LUT shape mismatch")]
    fn fastscan_le_shape_mismatch_panics() {
        let mut out = [0u16; FASTSCAN_LANES];
        active().fastscan16_le(&[0u8; 32], &[0u8; 16], 0, &mut out);
    }

    /// The reference mask the fused kernels are held to.
    #[test]
    fn lanes_le16_boundaries() {
        let mut accs = [7u16; FASTSCAN_LANES];
        accs[0] = 0;
        accs[31] = u16::MAX;
        assert_eq!(scalar::lanes_le16(&accs, u16::MAX), u32::MAX);
        assert_eq!(scalar::lanes_le16(&accs, 0), 1);
        assert_eq!(scalar::lanes_le16(&accs, 7), u32::MAX >> 1);
        assert_eq!(scalar::lanes_le16(&accs, 6), 1);
    }

    #[test]
    fn empty_inputs_are_zero() {
        assert_eq!(active().squared_l2(&[], &[]), 0.0);
        assert_eq!(active().dot(&[], &[]), 0.0);
    }

    #[test]
    #[should_panic(expected = "different dimension")]
    fn kernel_length_mismatch_panics() {
        active().squared_l2(&[1.0], &[1.0, 2.0]);
    }
}
