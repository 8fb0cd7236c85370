//! Runtime-dispatched SIMD distance kernels.
//!
//! The searcher's inner loop evaluates `squared_l2` (raw scans), `dot`
//! (cosine/MIPS modes) and the 4-bit PQ fast-scan (compressed scans)
//! millions of times per second; Section 2.4's sub-second latency target
//! makes these the hottest instructions in the system. This module provides
//! four sets of kernels behind one [`KernelSet`] of function pointers:
//!
//! - **scalar** — the always-correct reference: 4-way manually unrolled,
//!   identical to the original hand-written loops. Used for differential
//!   testing and as the fallback on hardware without SIMD.
//! - **avx2-fma** (`x86_64`) — 8-lane `f32` FMA kernels with two
//!   independent accumulators; the fast-scan run kernel holds the LUTs of
//!   two subspaces per 256-bit register and scores 32 candidates of both
//!   with two `vpshufb`.
//! - **avx512bw** (`x86_64`) — the AVX2 `f32` kernels (raw scans do not
//!   change), plus a run kernel with four subspaces' LUTs per 512-bit
//!   register and the lane mask from one `vpcmpuw`.
//! - **neon** (`aarch64`) — 4-lane `f32` FMA kernels and `vqtbl1q_u8`
//!   fast-scan (NEON is part of the baseline AArch64 ISA, so no runtime
//!   detection is needed).
//!
//! The fast-scan entry point scores a **run** of consecutive 32-code
//! blocks in one call ([`KernelSet::fastscan16_run_le`]): the x86 sets
//! load the LUTs once per run, not once per block. Sums are saturating
//! `u16` adds of `u8` table entries — order-free, since a saturating sum
//! of non-negative terms is `min(Σ, u16::MAX)` however it is grouped — so
//! every set is bit-identical to [`scalar::fastscan16`].
//!
//! Selection happens **once**, on first use, via
//! `is_x86_feature_detected!`; every later call is an indirect call through
//! a cached function pointer. Setting the environment variable
//! `JDVS_FORCE_SCALAR` (to anything but `0`) before first use pins the
//! dispatcher to the scalar set — CI runs the whole test suite in that mode
//! so both code paths stay green. [`supported`] lists every set this CPU
//! can run, whatever the override, for tests that call each one directly.
//!
//! Floating-point caveat: SIMD kernels associate the reduction differently
//! from the scalar ones (and FMA skips an intermediate rounding), so results
//! may differ in the last bits. Property tests bound the relative error at
//! `1e-4`; orderings of well-separated candidates are unaffected.

use std::sync::OnceLock;

/// Codes per fast-scan block, the kernels' tile: a run kernel call scores
/// a whole number of blocks (mirrors `jdvs_core`'s interleaved block size).
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

/// The fast-scan run kernel's signature: see [`KernelSet::fastscan16_run_le`].
type RunKernel = fn(&[u8], &[u8], u16, &mut [u32], &mut [[u16; FASTSCAN_LANES]]);

/// One complete set of distance kernels (see the module docs).
#[derive(Clone, Copy)]
pub struct KernelSet {
    name: &'static str,
    squared_l2: fn(&[f32], &[f32]) -> f32,
    dot: fn(&[f32], &[f32]) -> f32,
    fastscan16_run_le: RunKernel,
}

impl std::fmt::Debug for KernelSet {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("KernelSet")
            .field("name", &self.name)
            .finish()
    }
}

impl KernelSet {
    /// Kernel family name: `"scalar"`, `"avx2-fma"`, `"avx512bw"` or
    /// `"neon"`.
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
    /// per-lane sums into `out`: saturating u16 adds, so every
    /// implementation writes exactly [`scalar::fastscan16`]'s sums. This is
    /// a one-block run at bound `u16::MAX`, where every lane survives.
    ///
    /// # Panics
    ///
    /// Panics if `block` and `luts` differ in length or are not a whole,
    /// non-zero number of 16-byte rows.
    #[inline]
    pub fn fastscan16(&self, block: &[u8], luts: &[u8], out: &mut [u16; FASTSCAN_LANES]) {
        self.fastscan16_run_le(block, luts, u16::MAX, &mut [0], std::slice::from_mut(out));
    }

    /// Fused score + prune over a **run** of interleaved 32-code blocks,
    /// laid out back to back in `tiles` (`masks.len()` tiles of
    /// `luts.len()` bytes each, the layout of [`Self::fastscan16`]'s
    /// `block`). For block `b`, `masks[b]` receives the mask of
    /// [`scalar::lanes_le16`]`(sums, bound)` (bit `t` ⇔ `sums[t] <= bound`)
    /// over the sums [`Self::fastscan16`] would write for it, and
    /// `sums[b]` receives those sums **only when `masks[b] != 0`** — a
    /// block all of whose lanes lie above a warmed-up prune bound never
    /// stores its accumulators. The LUTs are loaded once per call and the
    /// sums stay in registers until the compare, so the scan calls this
    /// once per run of sealed blocks rather than once per block. The
    /// compare is integral and the sums order-free, so every
    /// implementation writes the identical masks and rows.
    ///
    /// # Panics
    ///
    /// Panics if `luts` is not a whole, non-zero number of 16-byte rows,
    /// if `tiles` is not `masks.len()` tiles of `luts.len()` bytes, or if
    /// `sums` is shorter than `masks`.
    #[inline]
    pub fn fastscan16_run_le(
        &self,
        tiles: &[u8],
        luts: &[u8],
        bound: u16,
        masks: &mut [u32],
        sums: &mut [[u16; FASTSCAN_LANES]],
    ) {
        assert!(
            !luts.is_empty() && luts.len().is_multiple_of(FASTSCAN_ROW),
            "fast-scan rows must be 16 bytes"
        );
        assert_eq!(
            tiles.len(),
            masks.len() * luts.len(),
            "fast-scan block/LUT shape mismatch"
        );
        assert!(sums.len() >= masks.len(), "one sum row per block");
        (self.fastscan16_run_le)(tiles, luts, bound, masks, sums)
    }
}

/// [`KernelSet::fastscan16_run_le`] by its definition, one block at a time:
/// `score`'s sums, then the reference compare. The scalar set's kernel, and
/// the run kernel of sets without a wider one.
#[inline]
fn run_by_blocks(
    score: fn(&[u8], &[u8], &mut [u16; FASTSCAN_LANES]),
    tiles: &[u8],
    luts: &[u8],
    bound: u16,
    masks: &mut [u32],
    sums: &mut [[u16; FASTSCAN_LANES]],
) {
    let mut row = [0u16; FASTSCAN_LANES];
    for ((tile, mask), out) in tiles.chunks_exact(luts.len()).zip(masks).zip(sums) {
        score(tile, luts, &mut row);
        *mask = scalar::lanes_le16(&row, bound);
        if *mask != 0 {
            *out = row;
        }
    }
}

static SCALAR: KernelSet = KernelSet {
    name: "scalar",
    squared_l2: scalar::squared_l2,
    dot: scalar::dot,
    fastscan16_run_le: scalar::fastscan16_run_le,
};

#[cfg(target_arch = "x86_64")]
static AVX2: KernelSet = KernelSet {
    name: "avx2-fma",
    squared_l2: x86::squared_l2,
    dot: x86::dot,
    fastscan16_run_le: x86::fastscan16_run_le,
};

#[cfg(target_arch = "x86_64")]
static AVX512BW: KernelSet = KernelSet {
    name: "avx512bw",
    squared_l2: x86::squared_l2,
    dot: x86::dot,
    fastscan16_run_le: x86::fastscan16_run_le_512,
};

#[cfg(target_arch = "aarch64")]
static NEON: KernelSet = KernelSet {
    name: "neon",
    squared_l2: neon::squared_l2,
    dot: neon::dot,
    fastscan16_run_le: neon::fastscan16_run_le,
};

/// The scalar reference kernels (always correct, never dispatched away).
pub fn scalar() -> &'static KernelSet {
    &SCALAR
}

/// Every kernel set this CPU can run, reference first and best last,
/// ignoring `JDVS_FORCE_SCALAR`: `scalar`, then `avx2-fma` and
/// `avx512bw` as detected on `x86_64`, or `neon` on `aarch64`.
/// Differential tests call each one directly.
pub fn supported() -> Vec<&'static KernelSet> {
    #[allow(unused_mut)]
    let mut sets = vec![&SCALAR];
    #[cfg(target_arch = "x86_64")]
    {
        if is_x86_feature_detected!("avx2") && is_x86_feature_detected!("fma") {
            sets.push(&AVX2);
            if is_x86_feature_detected!("avx512bw") {
                sets.push(&AVX512BW);
            }
        }
    }
    #[cfg(target_arch = "aarch64")]
    sets.push(&NEON);
    sets
}

/// The best kernel set this CPU supports (the last of [`supported`]),
/// ignoring `JDVS_FORCE_SCALAR`.
pub fn detect_best() -> &'static KernelSet {
    supported()
        .pop()
        .expect("the scalar set is always supported")
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

/// Asks the CPU to start loading `data` into cache, one request per
/// 64-byte line: for memory a loop will read soon and whose address is
/// known early — the ids of the fast-scan's candidates, a shortlist's raw
/// vectors. A hint only: it never faults and changes no value; a no-op
/// off x86-64.
#[inline]
pub fn prefetch<T>(data: &[T]) {
    #[cfg(target_arch = "x86_64")]
    {
        use std::arch::x86_64::{_mm_prefetch, _MM_HINT_T0};
        let base = data.as_ptr().cast::<i8>();
        for offset in (0..std::mem::size_of_val(data)).step_by(64) {
            // SAFETY: `offset` is below the slice's size, so the pointer
            // stays inside its allocation; a prefetch reads nothing into
            // the program and cannot fault. SSE is part of x86-64.
            unsafe { _mm_prefetch::<_MM_HINT_T0>(base.add(offset)) }
        }
    }
    #[cfg(not(target_arch = "x86_64"))]
    let _ = data;
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

    /// Reference run kernel (see [`super::KernelSet::fastscan16_run_le`]):
    /// literally [`fastscan16`] then [`lanes_le16`] per block, the
    /// definition the SIMD versions must reproduce.
    pub fn fastscan16_run_le(
        tiles: &[u8],
        luts: &[u8],
        bound: u16,
        masks: &mut [u32],
        sums: &mut [[u16; super::FASTSCAN_LANES]],
    ) {
        super::run_by_blocks(fastscan16, tiles, luts, bound, masks, sums)
    }

    /// Reference lane-prune mask (the compare half of
    /// [`super::KernelSet::fastscan16_run_le`]): bit `t` ⇔
    /// `accs[t] <= bound`. Integer compares only — the fused SIMD kernels
    /// must return this exact mask.
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

    use super::{FASTSCAN_LANES, FASTSCAN_ROW};

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
        // SAFETY: this function is only reachable through the AVX2 and
        // AVX-512 kernel sets, which `supported` lists after
        // `is_x86_feature_detected!` confirmed avx2+fma support.
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

    pub(super) fn fastscan16_run_le(
        tiles: &[u8],
        luts: &[u8],
        bound: u16,
        masks: &mut [u32],
        sums: &mut [[u16; FASTSCAN_LANES]],
    ) {
        // SAFETY: as above — only selected on avx2+fma hardware; the
        // `KernelSet` wrapper checked the shapes the loads rely on, and
        // eight LUT row pairs are held only when there are 16 rows.
        unsafe {
            if luts.len() >= 16 * FASTSCAN_ROW {
                run_avx2::<8>(tiles, luts, bound, masks, sums)
            } else {
                run_avx2::<0>(tiles, luts, bound, masks, sums)
            }
        }
    }

    /// Scores two subspaces of one block. `codes` holds the block's rows
    /// `s` and `s + 1` (one per 128-bit half) and `lut` their LUT rows in
    /// the same halves, so each `vpshufb` performs 32 lookups: the low
    /// nibbles give lanes 0..16, the high nibbles lanes 16..32. The u8
    /// results are widened without a shuffle — even bytes by a mask, odd
    /// bytes by a shift — into `acc` = [even lanes 0..16, odd lanes 0..16,
    /// even lanes 16..32, odd lanes 16..32], each half still per subspace.
    #[inline]
    #[target_feature(enable = "avx2")]
    fn add_pair(codes: __m256i, lut: __m256i, acc: &mut [__m256i; 4]) {
        let nib = _mm256_set1_epi8(0x0f);
        let lo = _mm256_shuffle_epi8(lut, _mm256_and_si256(codes, nib));
        let hi = _mm256_shuffle_epi8(lut, _mm256_and_si256(_mm256_srli_epi16::<4>(codes), nib));
        let byte = _mm256_set1_epi16(0x00ff);
        acc[0] = _mm256_adds_epu16(acc[0], _mm256_and_si256(lo, byte));
        acc[1] = _mm256_adds_epu16(acc[1], _mm256_srli_epi16::<8>(lo));
        acc[2] = _mm256_adds_epu16(acc[2], _mm256_and_si256(hi, byte));
        acc[3] = _mm256_adds_epu16(acc[3], _mm256_srli_epi16::<8>(hi));
    }

    /// 32 bytes at `p`.
    ///
    /// # Safety
    ///
    /// The CPU supports AVX2, and `p..p + 32` is readable.
    #[inline]
    #[target_feature(enable = "avx2")]
    unsafe fn load256(p: *const u8) -> __m256i {
        _mm256_loadu_si256(p as *const __m256i)
    }

    /// 16 bytes at `p` in the low half, zeros in the high one.
    ///
    /// # Safety
    ///
    /// The CPU supports AVX2, and `p..p + 16` is readable.
    #[inline]
    #[target_feature(enable = "avx2")]
    unsafe fn load_half(p: *const u8) -> __m256i {
        _mm256_set_m128i(_mm_setzero_si128(), _mm_loadu_si128(p as *const __m128i))
    }

    /// Adds the two halves of an [`add_pair`] accumulator.
    #[inline]
    #[target_feature(enable = "avx2")]
    fn fold(v: __m256i) -> __m128i {
        _mm_adds_epu16(_mm256_castsi256_si128(v), _mm256_extracti128_si256::<1>(v))
    }

    /// Lane mask of `v <= bound` per u16 (AVX2 has no unsigned compare:
    /// `saturating_sub(v, bound) == 0`).
    #[inline]
    #[target_feature(enable = "avx2")]
    fn le(v: __m256i, bound: __m256i) -> __m256i {
        _mm256_cmpeq_epi16(_mm256_subs_epu16(v, bound), _mm256_setzero_si256())
    }

    /// The run kernel: the LUT rows of the first `2 · HELD` subspaces are
    /// loaded into registers once per call (`HELD` is a constant, so they
    /// stay there across the block loop), the rest — and an odd last
    /// subspace, in a half-width register beside a zero LUT half — per
    /// block. Per block, the four accumulators are folded and put in lane
    /// order, compared, and stored only if a lane survives.
    ///
    /// # Safety
    ///
    /// The CPU supports AVX2; `luts` is a whole, non-zero number of
    /// 16-byte rows, at least `2 · HELD` of them; `tiles` is whole tiles of
    /// `luts.len()` bytes (the [`super::KernelSet`] wrapper asserts all but
    /// the feature).
    #[target_feature(enable = "avx2")]
    unsafe fn run_avx2<const HELD: usize>(
        tiles: &[u8],
        luts: &[u8],
        bound: u16,
        masks: &mut [u32],
        sums: &mut [[u16; FASTSCAN_LANES]],
    ) {
        let tile_len = luts.len();
        let pairs = tile_len / (2 * FASTSCAN_ROW);
        let odd = !tile_len.is_multiple_of(2 * FASTSCAN_ROW);
        let lp = luts.as_ptr();
        let mut held = [_mm256_setzero_si256(); HELD];
        for (p, lut) in held.iter_mut().enumerate() {
            *lut = load256(lp.add(32 * p));
        }
        let last = if odd {
            load_half(lp.add(32 * pairs))
        } else {
            _mm256_setzero_si256()
        };
        let bound = _mm256_set1_epi16(bound as i16);
        for ((tile, mask), out) in tiles.chunks_exact(tile_len).zip(masks).zip(sums) {
            let tp = tile.as_ptr();
            let mut acc = [_mm256_setzero_si256(); 4];
            for (p, &lut) in held.iter().enumerate() {
                add_pair(load256(tp.add(32 * p)), lut, &mut acc);
            }
            for p in HELD..pairs {
                add_pair(load256(tp.add(32 * p)), load256(lp.add(32 * p)), &mut acc);
            }
            if odd {
                add_pair(load_half(tp.add(32 * pairs)), last, &mut acc);
            }
            let (even_lo, odd_lo) = (fold(acc[0]), fold(acc[1]));
            let (even_hi, odd_hi) = (fold(acc[2]), fold(acc[3]));
            // Lanes 0..8, 8..16, 16..24 and 24..32.
            let l0 = _mm_unpacklo_epi16(even_lo, odd_lo);
            let l1 = _mm_unpackhi_epi16(even_lo, odd_lo);
            let l2 = _mm_unpacklo_epi16(even_hi, odd_hi);
            let l3 = _mm_unpackhi_epi16(even_hi, odd_hi);
            // `packs` works per half: [l0 | l2] with [l1 | l3] packs to
            // lanes 0..16 | 16..32, so one `movemask` is the lane mask.
            let le_a = le(_mm256_set_m128i(l2, l0), bound);
            let le_b = le(_mm256_set_m128i(l3, l1), bound);
            *mask = _mm256_movemask_epi8(_mm256_packs_epi16(le_a, le_b)) as u32;
            if *mask != 0 {
                let op = out.as_mut_ptr() as *mut __m128i;
                _mm_storeu_si128(op, l0);
                _mm_storeu_si128(op.add(1), l1);
                _mm_storeu_si128(op.add(2), l2);
                _mm_storeu_si128(op.add(3), l3);
            }
        }
    }

    pub(super) fn fastscan16_run_le_512(
        tiles: &[u8],
        luts: &[u8],
        bound: u16,
        masks: &mut [u32],
        sums: &mut [[u16; FASTSCAN_LANES]],
    ) {
        // SAFETY: only reachable through the AVX-512 kernel set, which
        // `supported` lists after `is_x86_feature_detected!` confirmed
        // avx512bw; the `KernelSet` wrapper checked the shapes, and four
        // LUT row quads are held only when there are 16 rows.
        unsafe {
            if luts.len() >= 16 * FASTSCAN_ROW {
                run_avx512::<4>(tiles, luts, bound, masks, sums)
            } else {
                run_avx512::<0>(tiles, luts, bound, masks, sums)
            }
        }
    }

    /// [`add_pair`] four subspaces wide: `codes` and `lut` hold rows `s`
    /// to `s + 3`, one per 128-bit quarter (`vpshufb` looks up within each
    /// quarter).
    #[inline]
    #[target_feature(enable = "avx512f,avx512bw")]
    fn add_quad(codes: __m512i, lut: __m512i, acc: &mut [__m512i; 4]) {
        let nib = _mm512_set1_epi8(0x0f);
        let lo = _mm512_shuffle_epi8(lut, _mm512_and_si512(codes, nib));
        let hi = _mm512_shuffle_epi8(lut, _mm512_and_si512(_mm512_srli_epi16::<4>(codes), nib));
        let byte = _mm512_set1_epi16(0x00ff);
        acc[0] = _mm512_adds_epu16(acc[0], _mm512_and_si512(lo, byte));
        acc[1] = _mm512_adds_epu16(acc[1], _mm512_srli_epi16::<8>(lo));
        acc[2] = _mm512_adds_epu16(acc[2], _mm512_and_si512(hi, byte));
        acc[3] = _mm512_adds_epu16(acc[3], _mm512_srli_epi16::<8>(hi));
    }

    /// 64 bytes at `p`.
    ///
    /// # Safety
    ///
    /// The CPU supports AVX-512F, and `p..p + 64` is readable.
    #[inline]
    #[target_feature(enable = "avx512f")]
    unsafe fn load512(p: *const u8) -> __m512i {
        _mm512_loadu_si512(p as *const __m512i)
    }

    /// [`run_avx2`] four subspaces per register, `4 · HELD` LUT rows held;
    /// the last 1–3 subspaces load through a byte mask (masked-off bytes
    /// read as zero and are not touched), so their LUT quarters beyond `m`
    /// are zero and add nothing. The 32 lane sums end up in one register
    /// in lane order, and `vpcmpuw` yields the lane mask directly.
    ///
    /// # Safety
    ///
    /// The CPU supports AVX-512BW; `luts` is a whole, non-zero number of
    /// 16-byte rows, at least `4 · HELD` of them; `tiles` is whole tiles of
    /// `luts.len()` bytes (the [`super::KernelSet`] wrapper asserts all but
    /// the feature).
    #[target_feature(enable = "avx512f,avx512bw")]
    unsafe fn run_avx512<const HELD: usize>(
        tiles: &[u8],
        luts: &[u8],
        bound: u16,
        masks: &mut [u32],
        sums: &mut [[u16; FASTSCAN_LANES]],
    ) {
        let tile_len = luts.len();
        let quads = tile_len / (4 * FASTSCAN_ROW);
        let rest: __mmask64 = (1u64 << (tile_len % (4 * FASTSCAN_ROW))) - 1;
        let lp = luts.as_ptr();
        let mut held = [_mm512_setzero_si512(); HELD];
        for (q, lut) in held.iter_mut().enumerate() {
            *lut = load512(lp.add(64 * q));
        }
        let last = _mm512_maskz_loadu_epi8(rest, lp.add(64 * quads) as *const i8);
        let bound = _mm512_set1_epi16(bound as i16);
        for ((tile, mask), out) in tiles.chunks_exact(tile_len).zip(masks).zip(sums) {
            let tp = tile.as_ptr();
            let mut acc = [_mm512_setzero_si512(); 4];
            for (q, &lut) in held.iter().enumerate() {
                add_quad(load512(tp.add(64 * q)), lut, &mut acc);
            }
            for q in HELD..quads {
                add_quad(load512(tp.add(64 * q)), load512(lp.add(64 * q)), &mut acc);
            }
            if rest != 0 {
                let codes = _mm512_maskz_loadu_epi8(rest, tp.add(64 * quads) as *const i8);
                add_quad(codes, last, &mut acc);
            }
            // Quarter `q` of every accumulator holds the subspaces ≡ q
            // (mod 4): sum the quarters of all four at once, to
            // [even lanes 0..16, odd 0..16, even 16..32, odd 16..32].
            let [a, b, c, d] = acc;
            let ab = _mm512_adds_epu16(
                _mm512_shuffle_i64x2::<0x44>(a, b),
                _mm512_shuffle_i64x2::<0xEE>(a, b),
            );
            let cd = _mm512_adds_epu16(
                _mm512_shuffle_i64x2::<0x44>(c, d),
                _mm512_shuffle_i64x2::<0xEE>(c, d),
            );
            let total = _mm512_adds_epu16(
                _mm512_shuffle_i64x2::<0x88>(ab, cd),
                _mm512_shuffle_i64x2::<0xDD>(ab, cd),
            );
            // Interleave evens with odds: [l0, l0, l2, l2] and
            // [l1, l1, l3, l3], then blend to lanes 0..32 in order.
            let even = _mm512_shuffle_i64x2::<0xA0>(total, total);
            let odd = _mm512_shuffle_i64x2::<0xF5>(total, total);
            let lanes = _mm512_mask_blend_epi64(
                0xCC,
                _mm512_unpacklo_epi16(even, odd),
                _mm512_unpackhi_epi16(even, odd),
            );
            *mask = _mm512_cmple_epu16_mask(lanes, bound);
            if *mask != 0 {
                _mm512_storeu_si512(out.as_mut_ptr() as *mut _, lanes);
            }
        }
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

    pub(super) fn fastscan16_run_le(
        tiles: &[u8],
        luts: &[u8],
        bound: u16,
        masks: &mut [u32],
        sums: &mut [[u16; super::FASTSCAN_LANES]],
    ) {
        super::run_by_blocks(fastscan16, tiles, luts, bound, masks, sums)
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
        assert!(["scalar", "avx2-fma", "avx512bw", "neon"].contains(&k.name()));
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

    /// Each set's run kernel against its definition — [`scalar::fastscan16`]
    /// then [`scalar::lanes_le16`], block by block — over run lengths
    /// around one full run of the code store's (16 blocks) (1, 2, 15, 16, 17 blocks), subspace
    /// counts around every register width (odd `m` and `m` not a multiple
    /// of 4 leave a partial register), and bounds 0, 1, a random one and
    /// `u16::MAX`. A block's sum row is written only when its mask is not
    /// zero: rows of pruned blocks must come back untouched.
    #[test]
    fn fastscan_run_equals_fastscan_then_lanes_le() {
        const UNTOUCHED: [u16; FASTSCAN_LANES] = [0xBEEF; FASTSCAN_LANES];
        let sets = supported();
        let names: Vec<&str> = sets.iter().map(|k| k.name()).collect();
        eprintln!("fastscan_run: kernel sets covered: {}", names.join(", "));
        let mut rng = Xoshiro256::seed_from(0x5CA7);
        for (i, m) in [1usize, 2, 3, 4, 8, 16, 17, 32].into_iter().enumerate() {
            // Small tables make bounds 0 and 1 admit some lanes.
            let lut_max = [1usize, 255, 3, 40, 255, 255, 2, 255][i];
            let luts: Vec<u8> = (0..m * 16)
                .map(|_| rng.next_index(lut_max + 1) as u8)
                .collect();
            for blocks in [1usize, 2, 15, 16, 17] {
                let tiles: Vec<u8> = (0..blocks * m * 16)
                    .map(|_| rng.next_index(256) as u8)
                    .collect();
                let want: Vec<[u16; FASTSCAN_LANES]> = tiles
                    .chunks_exact(m * 16)
                    .map(|tile| {
                        let mut row = [0u16; FASTSCAN_LANES];
                        scalar::fastscan16(tile, &luts, &mut row);
                        row
                    })
                    .collect();
                let lo = want.iter().flatten().copied().min().unwrap();
                let hi = want.iter().flatten().copied().max().unwrap();
                let random = lo + rng.next_index(usize::from(hi - lo) + 1) as u16;
                for bound in [0, 1, random, u16::MAX] {
                    for kernels in &sets {
                        let mut masks = vec![0xDEAD_BEEF; blocks];
                        let mut sums = vec![UNTOUCHED; blocks];
                        kernels.fastscan16_run_le(&tiles, &luts, bound, &mut masks, &mut sums);
                        for (b, row) in want.iter().enumerate() {
                            let case = format!(
                                "{} m {m} blocks {blocks} bound {bound} block {b}",
                                kernels.name()
                            );
                            let mask = scalar::lanes_le16(row, bound);
                            assert_eq!(masks[b], mask, "{case}");
                            let expect = if mask == 0 { UNTOUCHED } else { *row };
                            assert_eq!(sums[b], expect, "{case}");
                        }
                    }
                }
            }
        }
    }

    /// m·255 > u16::MAX for m ≥ 258: every lane of every block clamps to
    /// 65535 on every set, so bound `u16::MAX` admits all lanes and
    /// `u16::MAX - 1` none (and stores no row).
    #[test]
    fn fastscan_run_saturates_on_every_set() {
        const UNTOUCHED: [u16; FASTSCAN_LANES] = [7; FASTSCAN_LANES];
        for kernels in supported() {
            for (m, blocks) in [(258usize, 1usize), (300, 3)] {
                let (tiles, _) = random_fastscan(m * blocks, 98, 255);
                let luts = vec![255u8; m * 16];
                let mut masks = vec![0; blocks];
                let mut sums = vec![UNTOUCHED; blocks];
                kernels.fastscan16_run_le(&tiles, &luts, u16::MAX - 1, &mut masks, &mut sums);
                assert!(
                    masks.iter().all(|&mask| mask == 0),
                    "{} m {m}",
                    kernels.name()
                );
                assert!(
                    sums.iter().all(|row| *row == UNTOUCHED),
                    "{} m {m}",
                    kernels.name()
                );
                kernels.fastscan16_run_le(&tiles, &luts, u16::MAX, &mut masks, &mut sums);
                assert!(
                    masks.iter().all(|&mask| mask == u32::MAX),
                    "{} m {m}",
                    kernels.name()
                );
                let saturated = [u16::MAX; FASTSCAN_LANES];
                assert!(
                    sums.iter().all(|row| *row == saturated),
                    "{} m {m}",
                    kernels.name()
                );
            }
        }
    }

    #[test]
    #[should_panic(expected = "block/LUT shape mismatch")]
    fn fastscan_run_shape_mismatch_panics() {
        let mut sums = [[0u16; FASTSCAN_LANES]; 2];
        active().fastscan16_run_le(&[0u8; 48], &[0u8; 16], 0, &mut [0; 2], &mut sums);
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
