//! Per-channel symmetric int8 quantization and the i8×i8→i32 kernels
//! behind the inference fast path.
//!
//! Weights are quantized offline, once, per output channel: each channel
//! stores `q[k] = round(w[k] / scale)` with `scale = max_abs / 127` as a
//! contiguous `i8` row, so the inner product over `k` is a straight run
//! of byte loads. Activations are quantized dynamically per row at the
//! same symmetric scale convention. The integer GEMM accumulates in
//! `i32` — exact integer arithmetic, so the AVX-512 VNNI kernels
//! (`vpdpwssd`, fused 16-lane multiply-accumulate), the AVX2 kernels
//! (`vpmaddwd` on sign-extended 16-bit lanes) and the portable fallback
//! all agree bit-for-bit, and results cannot depend on thread counts or
//! batch partitionings. Dispatch tiers through
//! [`crate::matrix::vnni512_available`] then
//! [`crate::matrix::fma_available`].
//!
//! Dequantization multiplies the `i32` dot by `x_scale * w_scale` in
//! f32 and adds the (never-quantized) f32 bias. With per-channel scales
//! the worst-case round-trip error of a single weight is `scale / 2`,
//! the bound the proptests pin.

use crate::matrix::{fma_available, vnni512_available, Matrix};

/// Quantized two-dimensional tensor: `rows × cols` of `i8` row-major
/// with one f32 scale per row.
///
/// For linear-layer weights the tensor is stored *transposed* relative
/// to [`crate::layers::Linear`]'s `in × out` layout — one row per
/// output channel — so [`qgemm_nt`] reads both operands contiguously.
/// For embedding tables the storage matches the table layout (one row
/// per vocabulary id) and rows are dequantized on gather.
#[derive(Debug, Clone)]
pub struct QuantizedMatrix {
    rows: usize,
    cols: usize,
    data: Vec<i8>,
    scales: Vec<f32>,
    /// GEMM weights additionally keep a pair-interleaved copy
    /// (`⌈cols/2⌉` rows of `2·rows` bytes) so [`qgemm_nt`] can sweep
    /// the *output* axis with [`gemv_i8_pairs`] instead of issuing one
    /// short dot per channel. Empty for row-layout tables.
    packed: Vec<i8>,
}

impl QuantizedMatrix {
    /// Quantize a `Linear` weight (`in_dim × out_dim`) per output
    /// channel, storing it transposed (`out_dim × in_dim`).
    pub fn from_weight(w: &Matrix) -> QuantizedMatrix {
        let (in_dim, out_dim) = (w.rows, w.cols);
        let mut col = vec![0.0f32; in_dim];
        let mut data = vec![0i8; in_dim * out_dim];
        let mut scales = vec![0.0f32; out_dim];
        for o in 0..out_dim {
            for (k, c) in col.iter_mut().enumerate() {
                *c = w.get(k, o);
            }
            scales[o] = quantize_row_i8(&col, &mut data[o * in_dim..(o + 1) * in_dim]);
        }
        let pairs = in_dim.div_ceil(2);
        let mut packed = vec![0i8; pairs * 2 * out_dim];
        for p in 0..pairs {
            let row = &mut packed[p * 2 * out_dim..(p + 1) * 2 * out_dim];
            for o in 0..out_dim {
                row[2 * o] = data[o * in_dim + 2 * p];
                row[2 * o + 1] = if 2 * p + 1 < in_dim {
                    data[o * in_dim + 2 * p + 1]
                } else {
                    0
                };
            }
        }
        QuantizedMatrix {
            rows: out_dim,
            cols: in_dim,
            data,
            scales,
            packed,
        }
    }

    /// Quantize a matrix row-by-row in its own layout (embedding
    /// tables: one row per id, dequantized on gather).
    pub fn from_rows(m: &Matrix) -> QuantizedMatrix {
        let mut data = vec![0i8; m.rows * m.cols];
        let mut scales = vec![0.0f32; m.rows];
        for r in 0..m.rows {
            scales[r] = quantize_row_i8(m.row(r), &mut data[r * m.cols..(r + 1) * m.cols]);
        }
        QuantizedMatrix {
            rows: m.rows,
            cols: m.cols,
            data,
            scales,
            packed: Vec::new(),
        }
    }

    /// Number of quantized rows (output channels / table entries).
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Row length (the contraction dimension `k`).
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Per-row scale.
    pub fn scale(&self, r: usize) -> f32 {
        self.scales[r]
    }

    /// One quantized row.
    pub fn row(&self, r: usize) -> &[i8] {
        &self.data[r * self.cols..(r + 1) * self.cols]
    }

    /// Dequantize row `r` into `out` (`out.len() == cols`).
    pub fn dequantize_row_into(&self, r: usize, out: &mut [f32]) {
        let s = self.scales[r];
        for (o, &q) in out.iter_mut().zip(self.row(r)) {
            *o = q as f32 * s;
        }
    }

    /// Full f32 reconstruction (tests and the round-trip proptest).
    pub fn dequantize(&self) -> Matrix {
        let mut m = Matrix::zeros(self.rows, self.cols);
        for r in 0..self.rows {
            let s = self.scales[r];
            for c in 0..self.cols {
                m.set(r, c, self.data[r * self.cols + c] as f32 * s);
            }
        }
        m
    }
}

/// Symmetric per-row quantization: `scale = max_abs / 127`,
/// `q = round(x / scale)` (ties to even, the hardware rounding mode)
/// clamped to `[-127, 127]`. An all-zero row gets scale 0 and all-zero
/// codes. Returns the scale. SIMD and portable agree bitwise: `max` is
/// order-independent and every remaining op is per-element IEEE.
#[inline]
pub fn quantize_row_i8(src: &[f32], dst: &mut [i8]) -> f32 {
    debug_assert_eq!(src.len(), dst.len());
    #[cfg(target_arch = "x86_64")]
    if fma_available() {
        // SAFETY: guarded by the runtime AVX2 check.
        return unsafe { quantize_row_i8_avx2(src, dst) };
    }
    quantize_row_i8_portable(src, dst)
}

/// Portable reference for [`quantize_row_i8`].
pub fn quantize_row_i8_portable(src: &[f32], dst: &mut [i8]) -> f32 {
    let mut max_abs = 0.0f32;
    for &x in src {
        max_abs = max_abs.max(x.abs());
    }
    if max_abs == 0.0 {
        dst.fill(0);
        return 0.0;
    }
    let inv = 127.0 / max_abs;
    for (d, &x) in dst.iter_mut().zip(src) {
        let q = (x * inv).round_ties_even();
        *d = q.clamp(-127.0, 127.0) as i8;
    }
    max_abs / 127.0
}

/// AVX2 [`quantize_row_i8`]: vectorized abs-max reduction, then
/// `cvtps→epi32` (round-to-nearest-even, matching the portable
/// `round_ties_even`), clamp, and a byte-gather shuffle to store 8
/// codes per iteration.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
unsafe fn quantize_row_i8_avx2(src: &[f32], dst: &mut [i8]) -> f32 {
    use std::arch::x86_64::*;
    let len = src.len();
    let sp = src.as_ptr();
    let abs_mask = _mm256_castsi256_ps(_mm256_set1_epi32(0x7fff_ffff));
    let mut vmax = _mm256_setzero_ps();
    let mut k = 0;
    while k + 8 <= len {
        let v = _mm256_and_ps(_mm256_loadu_ps(sp.add(k)), abs_mask);
        vmax = _mm256_max_ps(vmax, v);
        k += 8;
    }
    let hi = _mm256_extractf128_ps(vmax, 1);
    let mut m = _mm_max_ps(_mm256_castps256_ps128(vmax), hi);
    m = _mm_max_ps(m, _mm_shuffle_ps(m, m, 0b00_01_10_11));
    m = _mm_max_ps(m, _mm_shuffle_ps(m, m, 0b10_11_00_01));
    let mut max_abs = _mm_cvtss_f32(m);
    while k < len {
        max_abs = max_abs.max((*sp.add(k)).abs());
        k += 1;
    }
    if max_abs == 0.0 {
        dst.fill(0);
        return 0.0;
    }
    let inv = 127.0 / max_abs;
    let vinv = _mm256_set1_ps(inv);
    let lo_clamp = _mm256_set1_epi32(-127);
    let hi_clamp = _mm256_set1_epi32(127);
    // Byte 0 of each i32 lane, packed to the low u32 of each 128 half.
    let gather = _mm256_setr_epi8(
        0, 4, 8, 12, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, //
        0, 4, 8, 12, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    );
    let dp = dst.as_mut_ptr();
    k = 0;
    while k + 8 <= len {
        let q = _mm256_cvtps_epi32(_mm256_mul_ps(_mm256_loadu_ps(sp.add(k)), vinv));
        let q = _mm256_min_epi32(_mm256_max_epi32(q, lo_clamp), hi_clamp);
        let b = _mm256_shuffle_epi8(q, gather);
        let lo = _mm256_extract_epi32::<0>(b);
        let hi = _mm256_extract_epi32::<4>(b);
        (dp.add(k) as *mut i32).write_unaligned(lo);
        (dp.add(k + 4) as *mut i32).write_unaligned(hi);
        k += 8;
    }
    while k < len {
        let q = (*sp.add(k) * inv).round_ties_even();
        *dp.add(k) = q.clamp(-127.0, 127.0) as i8;
        k += 1;
    }
    max_abs / 127.0
}

/// Fused softmax → 7-bit attention quantization.
///
/// The softmax normalizer and the symmetric quantization scale cancel:
/// with `e_i = exp(x_i − max)` the max exponential is exactly 1, so the
/// quantized attention row is `q_i = round(127·e_i)` — no division, no
/// second max scan — and the dequantization scale is `1 / Σ q_i`.
/// Normalizing by the *quantized* mass keeps the attention weights
/// summing to exactly 1 in integer space, and because the only
/// cross-element operations are a `max` reduction and an integer sum,
/// SIMD and portable agree bitwise. Returns the dequant scale.
#[inline]
pub fn softmax_q7(row: &[f32], q: &mut [i8]) -> f32 {
    debug_assert_eq!(row.len(), q.len());
    #[cfg(target_arch = "x86_64")]
    if fma_available() {
        // SAFETY: guarded by the runtime AVX2 check.
        return unsafe { softmax_q7_avx2(row, q) };
    }
    softmax_q7_portable(row, q)
}

/// Portable reference for [`softmax_q7`].
pub fn softmax_q7_portable(row: &[f32], q: &mut [i8]) -> f32 {
    let max = row.iter().copied().fold(f32::NEG_INFINITY, f32::max);
    let mut sum = 0i32;
    for (d, &x) in q.iter_mut().zip(row) {
        let v = (127.0 * crate::infer::fast_exp(x - max)).round_ties_even() as i32;
        sum += v;
        *d = v as i8;
    }
    1.0 / sum as f32
}

/// AVX2 [`softmax_q7`]: the [`crate::infer::fast_exp`] range reduction
/// and Horner polynomial evaluated lane-wise with the exact scalar
/// operation order, so every lane is IEEE-identical to the portable
/// path.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
unsafe fn softmax_q7_avx2(row: &[f32], q: &mut [i8]) -> f32 {
    use std::arch::x86_64::*;
    let len = row.len();
    let sp = row.as_ptr();
    let mut vmax = _mm256_set1_ps(f32::NEG_INFINITY);
    let mut k = 0;
    while k + 8 <= len {
        vmax = _mm256_max_ps(vmax, _mm256_loadu_ps(sp.add(k)));
        k += 8;
    }
    let hi = _mm256_extractf128_ps(vmax, 1);
    let mut m = _mm_max_ps(_mm256_castps256_ps128(vmax), hi);
    m = _mm_max_ps(m, _mm_shuffle_ps(m, m, 0b00_01_10_11));
    m = _mm_max_ps(m, _mm_shuffle_ps(m, m, 0b10_11_00_01));
    let mut max = _mm_cvtss_f32(m);
    while k < len {
        max = max.max(*sp.add(k));
        k += 1;
    }

    let vmaxb = _mm256_set1_ps(max);
    let c127f = _mm256_set1_ps(127.0);
    let gather = _mm256_setr_epi8(
        0, 4, 8, 12, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, //
        0, 4, 8, 12, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    );
    let mut vsum = _mm256_setzero_si256();
    let dp = q.as_mut_ptr();
    k = 0;
    while k + 8 <= len {
        let x = _mm256_sub_ps(_mm256_loadu_ps(sp.add(k)), vmaxb);
        let e = crate::infer::fast_exp_lanes(x);
        let qi = _mm256_cvtps_epi32(_mm256_mul_ps(c127f, e));
        vsum = _mm256_add_epi32(vsum, qi);
        let b = _mm256_shuffle_epi8(qi, gather);
        (dp.add(k) as *mut i32).write_unaligned(_mm256_extract_epi32::<0>(b));
        (dp.add(k + 4) as *mut i32).write_unaligned(_mm256_extract_epi32::<4>(b));
        k += 8;
    }
    let shi = _mm256_extracti128_si256(vsum, 1);
    let mut s = _mm_add_epi32(_mm256_castsi256_si128(vsum), shi);
    s = _mm_add_epi32(s, _mm_shuffle_epi32(s, 0b00_01_10_11));
    s = _mm_add_epi32(s, _mm_shuffle_epi32(s, 0b10_11_00_01));
    let mut sum = _mm_cvtsi128_si32(s);
    while k < len {
        let v = (127.0 * crate::infer::fast_exp(*sp.add(k) - max)).round_ties_even() as i32;
        sum += v;
        *dp.add(k) = v as i8;
        k += 1;
    }
    1.0 / sum as f32
}

/// i8 dot product with `i32` accumulation; dispatches to the AVX2
/// `vpmaddwd` kernel when the host has it. Integer arithmetic is exact,
/// so both paths return the same value for every input.
#[inline]
pub fn dot_i8(a: &[i8], b: &[i8]) -> i32 {
    #[cfg(target_arch = "x86_64")]
    {
        if vnni512_available() {
            // SAFETY: guarded by the runtime AVX-512 VNNI check.
            return unsafe { dot_i8_vnni512(a, b) };
        }
        if fma_available() {
            // SAFETY: guarded by the runtime AVX2 check.
            return unsafe { dot_i8_avx2(a, b) };
        }
    }
    dot_i8_portable(a, b)
}

/// Portable scalar i8 dot product — the reference the SIMD kernel must
/// match exactly.
pub fn dot_i8_portable(a: &[i8], b: &[i8]) -> i32 {
    let len = a.len().min(b.len());
    let mut acc = 0i32;
    for k in 0..len {
        acc += a[k] as i32 * b[k] as i32;
    }
    acc
}

/// AVX2 i8 dot: sign-extend 16-byte halves to i16 lanes and fuse
/// multiply + pairwise-add with `vpmaddwd` (16 multiply-accumulates per
/// instruction). Products of two i8 values fit i16 pairs into i32
/// exactly, so this is the same integer sum as the scalar loop.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
unsafe fn dot_i8_avx2(a: &[i8], b: &[i8]) -> i32 {
    use std::arch::x86_64::*;
    let len = a.len().min(b.len());
    let (ap, bp) = (a.as_ptr(), b.as_ptr());
    let mut acc = _mm256_setzero_si256();
    let mut k = 0;
    while k + 32 <= len {
        let va = _mm256_loadu_si256(ap.add(k) as *const __m256i);
        let vb = _mm256_loadu_si256(bp.add(k) as *const __m256i);
        let a_lo = _mm256_cvtepi8_epi16(_mm256_castsi256_si128(va));
        let a_hi = _mm256_cvtepi8_epi16(_mm256_extracti128_si256(va, 1));
        let b_lo = _mm256_cvtepi8_epi16(_mm256_castsi256_si128(vb));
        let b_hi = _mm256_cvtepi8_epi16(_mm256_extracti128_si256(vb, 1));
        acc = _mm256_add_epi32(acc, _mm256_madd_epi16(a_lo, b_lo));
        acc = _mm256_add_epi32(acc, _mm256_madd_epi16(a_hi, b_hi));
        k += 32;
    }
    if k + 16 <= len {
        let va = _mm_loadu_si128(ap.add(k) as *const __m128i);
        let vb = _mm_loadu_si128(bp.add(k) as *const __m128i);
        let a16 = _mm256_cvtepi8_epi16(va);
        let b16 = _mm256_cvtepi8_epi16(vb);
        acc = _mm256_add_epi32(acc, _mm256_madd_epi16(a16, b16));
        k += 16;
    }
    let hi = _mm256_extracti128_si256(acc, 1);
    let mut q = _mm_add_epi32(_mm256_castsi256_si128(acc), hi);
    q = _mm_add_epi32(q, _mm_shuffle_epi32(q, 0b00_01_10_11));
    q = _mm_add_epi32(q, _mm_shuffle_epi32(q, 0b10_11_00_01));
    let mut sum = _mm_cvtsi128_si32(q);
    while k < len {
        sum += *ap.add(k) as i32 * *bp.add(k) as i32;
        k += 1;
    }
    sum
}

/// AVX-512 VNNI i8 dot: 32 elements per `vpdpwssd` (the fused
/// multiply-accumulate `vpmaddwd + vpaddd` in one instruction), with a
/// masked load covering the tail so the whole dot is branch-light.
/// Same exact integer sum as the scalar loop.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f,avx512bw,avx512vl,avx512vnni")]
unsafe fn dot_i8_vnni512(a: &[i8], b: &[i8]) -> i32 {
    use std::arch::x86_64::*;
    let len = a.len().min(b.len());
    let (ap, bp) = (a.as_ptr(), b.as_ptr());
    let mut acc = _mm512_setzero_si512();
    let mut k = 0;
    while k + 32 <= len {
        let va = _mm512_cvtepi8_epi16(_mm256_loadu_si256(ap.add(k) as *const __m256i));
        let vb = _mm512_cvtepi8_epi16(_mm256_loadu_si256(bp.add(k) as *const __m256i));
        acc = _mm512_dpwssd_epi32(acc, va, vb);
        k += 32;
    }
    if k < len {
        // rem < 32, so the mask shift cannot overflow; masked-out lanes
        // load as zero and contribute nothing.
        let m: __mmask32 = (1u32 << (len - k)) - 1;
        let va = _mm512_cvtepi8_epi16(_mm256_maskz_loadu_epi8(m, ap.add(k)));
        let vb = _mm512_cvtepi8_epi16(_mm256_maskz_loadu_epi8(m, bp.add(k)));
        acc = _mm512_dpwssd_epi32(acc, va, vb);
    }
    _mm512_reduce_add_epi32(acc)
}

/// Fused int8 GEMM against a pre-transposed quantized weight:
/// `out[r][o] = x_scales[r] * w.scale(o) * dot_i8(x_row_r, w_row_o)
/// (+ bias[o])` for `rows` quantized activation rows of length `k`.
///
/// Serial by design: callers batch at the window level on the rsd-par
/// pool (one window per task), which keeps results trivially
/// independent of thread count and partitioning.
pub fn qgemm_nt(
    x: &[i8],
    x_scales: &[f32],
    rows: usize,
    k: usize,
    w: &QuantizedMatrix,
    bias: Option<&[f32]>,
    out: &mut [f32],
) {
    assert_eq!(w.cols, k, "contraction dim mismatch");
    assert!(x.len() >= rows * k && out.len() >= rows * w.rows);
    if !w.packed.is_empty() {
        // Pair-packed route: gemv sweeps over the output axis, two
        // activation rows at a time so each weight load and
        // sign-extension is amortized across both. The integer
        // accumulators are exactly the per-channel dots, so this is
        // bit-identical to the dot route.
        let n = w.rows;
        let pairs = k.div_ceil(2);
        return QGEMM_SCRATCH.with(|cell| {
            let (pair_buf, acc) = &mut *cell.borrow_mut();
            if pair_buf.len() < 2 * pairs {
                pair_buf.resize(2 * pairs, 0);
            }
            if acc.len() < 2 * n {
                acc.resize(2 * n, 0);
            }
            let epilogue = |r: usize, acc: &[i32], out_row: &mut [f32]| {
                let sx = x_scales[r];
                match bias {
                    Some(b) => {
                        for o in 0..n {
                            out_row[o] = sx * w.scales[o] * acc[o] as f32 + b[o];
                        }
                    }
                    None => {
                        for o in 0..n {
                            out_row[o] = sx * w.scales[o] * acc[o] as f32;
                        }
                    }
                }
            };
            let pack_row = |r: usize, buf: &mut [i32]| {
                let x_row = &x[r * k..(r + 1) * k];
                for (p, slot) in buf.iter_mut().enumerate() {
                    let odd = if 2 * p + 1 < k { x_row[2 * p + 1] } else { 0 };
                    *slot = pack_pair(x_row[2 * p], odd);
                }
            };
            let mut r = 0;
            while r + 2 <= rows {
                let (p0, p1) = pair_buf.split_at_mut(pairs);
                pack_row(r, &mut p0[..pairs]);
                pack_row(r + 1, &mut p1[..pairs]);
                let (a0, a1) = acc.split_at_mut(n);
                gemv2_i8_pairs(&p0[..pairs], &p1[..pairs], &w.packed, n, a0, &mut a1[..n]);
                let (o0, rest) = out[r * n..].split_at_mut(n);
                epilogue(r, a0, o0);
                epilogue(r + 1, &a1[..n], &mut rest[..n]);
                r += 2;
            }
            if r < rows {
                pack_row(r, &mut pair_buf[..pairs]);
                gemv_i8_pairs(&pair_buf[..pairs], &w.packed, n, acc);
                epilogue(r, &acc[..n], &mut out[r * n..(r + 1) * n]);
            }
        });
    }
    for r in 0..rows {
        let x_row = &x[r * k..(r + 1) * k];
        let sx = x_scales[r];
        let out_row = &mut out[r * w.rows..(r + 1) * w.rows];
        for o in 0..w.rows {
            let acc = dot_i8(x_row, w.row(o));
            let mut v = sx * w.scales[o] * acc as f32;
            if let Some(b) = bias {
                v += b[o];
            }
            out_row[o] = v;
        }
    }
}

std::thread_local! {
    /// Reusable pack/accumulate buffers for the packed [`qgemm_nt`]
    /// route — keeps the public signature scratch-free while steady
    /// state allocates nothing (pool threads are long-lived).
    static QGEMM_SCRATCH: std::cell::RefCell<(Vec<i32>, Vec<i32>)> =
        const { std::cell::RefCell::new((Vec::new(), Vec::new())) };
}

/// Pack the low/high halves of a d-pair into the `i32` broadcast word
/// [`gemv_i8_pairs`] consumes: lane layout `[q_even, q_odd]` as two
/// `i16`s, matching `vpmaddwd` against byte-interleaved columns.
#[inline]
pub fn pack_pair(q_even: i8, q_odd: i8) -> i32 {
    ((q_odd as i32) << 16) | (q_even as i32 as u16 as i32)
}

/// Short-contraction int8 GEMV: `out[j] = Σ_p pair_p · col_j` where the
/// contraction axis is pre-packed into d-pairs.
///
/// `q_pairs[p]` holds `(q[2p], q[2p+1])` via [`pack_pair`] (zero-pad an
/// odd axis). `kt` holds the matrix column-major, byte-interleaved by
/// pair: row `p` is `[k[2p][0], k[2p+1][0], k[2p][1], k[2p+1][1], ...]`,
/// `2*n` bytes. This turns the attention-score shape — tiny head_dim
/// contraction, long `j` axis — into full-width `vpmaddwd` over `j`,
/// where a plain per-`j` dot of 12 elements would run scalar.
/// Integer accumulation is exact: SIMD and portable agree bitwise.
#[inline]
pub fn gemv_i8_pairs(q_pairs: &[i32], kt: &[i8], n: usize, out: &mut [i32]) {
    debug_assert!(kt.len() >= q_pairs.len() * 2 * n);
    debug_assert!(out.len() >= n);
    #[cfg(target_arch = "x86_64")]
    {
        if vnni512_available() {
            // SAFETY: guarded by the runtime AVX-512 VNNI check.
            unsafe { gemv_i8_pairs_vnni512(q_pairs, kt, n, out) };
            return;
        }
        if fma_available() {
            // SAFETY: guarded by the runtime AVX2 check.
            unsafe { gemv_i8_pairs_avx2(q_pairs, kt, n, out) };
            return;
        }
    }
    gemv_i8_pairs_portable(q_pairs, kt, n, out)
}

/// Portable reference for [`gemv_i8_pairs`].
pub fn gemv_i8_pairs_portable(q_pairs: &[i32], kt: &[i8], n: usize, out: &mut [i32]) {
    let stride = 2 * n;
    for (j, slot) in out[..n].iter_mut().enumerate() {
        let mut acc = 0i32;
        for (p, &qp) in q_pairs.iter().enumerate() {
            let q0 = (qp as i16) as i32;
            let q1 = qp >> 16;
            let k0 = kt[p * stride + 2 * j] as i32;
            let k1 = kt[p * stride + 2 * j + 1] as i32;
            acc += q0 * k0 + q1 * k1;
        }
        *slot = acc;
    }
}

/// AVX2 [`gemv_i8_pairs`]: per pair, broadcast the packed `(q0, q1)`
/// word, sign-extend 16 interleaved bytes (8 `j` columns) to i16, and
/// let `vpmaddwd` produce `q0*k0 + q1*k1` per i32 lane — 8 outputs per
/// instruction down the long axis.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
unsafe fn gemv_i8_pairs_avx2(q_pairs: &[i32], kt: &[i8], n: usize, out: &mut [i32]) {
    use std::arch::x86_64::*;
    let stride = 2 * n;
    let base = kt.as_ptr();
    let mut j = 0;
    while j + 8 <= n {
        let mut acc = _mm256_setzero_si256();
        for (p, &qp) in q_pairs.iter().enumerate() {
            let bytes = _mm_loadu_si128(base.add(p * stride + 2 * j) as *const __m128i);
            let k16 = _mm256_cvtepi8_epi16(bytes);
            acc = _mm256_add_epi32(acc, _mm256_madd_epi16(k16, _mm256_set1_epi32(qp)));
        }
        _mm256_storeu_si256(out.as_mut_ptr().add(j) as *mut __m256i, acc);
        j += 8;
    }
    while j < n {
        let mut acc = 0i32;
        for (p, &qp) in q_pairs.iter().enumerate() {
            let q0 = (qp as i16) as i32;
            let q1 = qp >> 16;
            acc += q0 * (*base.add(p * stride + 2 * j) as i32)
                + q1 * (*base.add(p * stride + 2 * j + 1) as i32);
        }
        out[j] = acc;
        j += 1;
    }
}

/// AVX-512 VNNI [`gemv_i8_pairs`]: 16 `j` columns per `vpdpwssd`
/// (32 interleaved bytes sign-extended to a zmm of i16), with masked
/// load/store covering the sub-16 tail. Twice the AVX2 width and one
/// fused instruction where AVX2 needs `vpmaddwd + vpaddd`.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f,avx512bw,avx512vl,avx512vnni")]
unsafe fn gemv_i8_pairs_vnni512(q_pairs: &[i32], kt: &[i8], n: usize, out: &mut [i32]) {
    use std::arch::x86_64::*;
    let stride = 2 * n;
    let base = kt.as_ptr();
    let mut j = 0;
    while j + 16 <= n {
        let mut acc = _mm512_setzero_si512();
        for (p, &qp) in q_pairs.iter().enumerate() {
            let bytes = _mm256_loadu_si256(base.add(p * stride + 2 * j) as *const __m256i);
            acc = _mm512_dpwssd_epi32(acc, _mm512_cvtepi8_epi16(bytes), _mm512_set1_epi32(qp));
        }
        _mm512_storeu_si512(out.as_mut_ptr().add(j) as *mut __m512i, acc);
        j += 16;
    }
    if j < n {
        // rem < 16: byte mask covers 2·rem interleaved bytes, lane mask
        // rem i32 outputs; masked lanes read/write nothing.
        let rem = n - j;
        let bm: __mmask32 = (1u32 << (2 * rem)) - 1;
        let sm: __mmask16 = (1u16 << rem) - 1;
        let mut acc = _mm512_setzero_si512();
        for (p, &qp) in q_pairs.iter().enumerate() {
            let bytes = _mm256_maskz_loadu_epi8(bm, base.add(p * stride + 2 * j));
            acc = _mm512_dpwssd_epi32(acc, _mm512_cvtepi8_epi16(bytes), _mm512_set1_epi32(qp));
        }
        _mm512_mask_storeu_epi32(out.as_mut_ptr().add(j), sm, acc);
    }
}

/// Two-row [`gemv_i8_pairs`]: both activation rows sweep the same
/// packed weight panel, so each 16-byte column load and sign-extension
/// feeds two `vpmaddwd`s. Bit-identical to two independent gemvs.
#[inline]
pub fn gemv2_i8_pairs(
    q0: &[i32],
    q1: &[i32],
    kt: &[i8],
    n: usize,
    out0: &mut [i32],
    out1: &mut [i32],
) {
    debug_assert_eq!(q0.len(), q1.len());
    #[cfg(target_arch = "x86_64")]
    {
        if vnni512_available() {
            // SAFETY: guarded by the runtime AVX-512 VNNI check.
            unsafe { gemv2_i8_pairs_vnni512(q0, q1, kt, n, out0, out1) };
            return;
        }
        if fma_available() {
            // SAFETY: guarded by the runtime AVX2 check.
            unsafe { gemv2_i8_pairs_avx2(q0, q1, kt, n, out0, out1) };
            return;
        }
    }
    gemv_i8_pairs_portable(q0, kt, n, out0);
    gemv_i8_pairs_portable(q1, kt, n, out1);
}

/// AVX2 [`gemv2_i8_pairs`].
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
unsafe fn gemv2_i8_pairs_avx2(
    q0: &[i32],
    q1: &[i32],
    kt: &[i8],
    n: usize,
    out0: &mut [i32],
    out1: &mut [i32],
) {
    use std::arch::x86_64::*;
    let stride = 2 * n;
    let base = kt.as_ptr();
    let pairs = q0.len();
    let mut j = 0;
    while j + 8 <= n {
        let mut a0 = _mm256_setzero_si256();
        let mut a1 = _mm256_setzero_si256();
        for p in 0..pairs {
            let bytes = _mm_loadu_si128(base.add(p * stride + 2 * j) as *const __m128i);
            let k16 = _mm256_cvtepi8_epi16(bytes);
            a0 = _mm256_add_epi32(a0, _mm256_madd_epi16(k16, _mm256_set1_epi32(q0[p])));
            a1 = _mm256_add_epi32(a1, _mm256_madd_epi16(k16, _mm256_set1_epi32(q1[p])));
        }
        _mm256_storeu_si256(out0.as_mut_ptr().add(j) as *mut __m256i, a0);
        _mm256_storeu_si256(out1.as_mut_ptr().add(j) as *mut __m256i, a1);
        j += 8;
    }
    while j < n {
        let mut a0 = 0i32;
        let mut a1 = 0i32;
        for p in 0..pairs {
            let k0 = *base.add(p * stride + 2 * j) as i32;
            let k1 = *base.add(p * stride + 2 * j + 1) as i32;
            a0 += ((q0[p] as i16) as i32) * k0 + (q0[p] >> 16) * k1;
            a1 += ((q1[p] as i16) as i32) * k0 + (q1[p] >> 16) * k1;
        }
        out0[j] = a0;
        out1[j] = a1;
        j += 1;
    }
}

/// AVX-512 VNNI [`gemv2_i8_pairs`]: one 32-byte column load and
/// sign-extension feeds two fused `vpdpwssd` accumulations, 16 outputs
/// per row per pair iteration.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f,avx512bw,avx512vl,avx512vnni")]
unsafe fn gemv2_i8_pairs_vnni512(
    q0: &[i32],
    q1: &[i32],
    kt: &[i8],
    n: usize,
    out0: &mut [i32],
    out1: &mut [i32],
) {
    use std::arch::x86_64::*;
    let stride = 2 * n;
    let base = kt.as_ptr();
    let pairs = q0.len();
    let mut j = 0;
    while j + 16 <= n {
        let mut a0 = _mm512_setzero_si512();
        let mut a1 = _mm512_setzero_si512();
        for p in 0..pairs {
            let bytes = _mm256_loadu_si256(base.add(p * stride + 2 * j) as *const __m256i);
            let k16 = _mm512_cvtepi8_epi16(bytes);
            a0 = _mm512_dpwssd_epi32(a0, k16, _mm512_set1_epi32(q0[p]));
            a1 = _mm512_dpwssd_epi32(a1, k16, _mm512_set1_epi32(q1[p]));
        }
        _mm512_storeu_si512(out0.as_mut_ptr().add(j) as *mut __m512i, a0);
        _mm512_storeu_si512(out1.as_mut_ptr().add(j) as *mut __m512i, a1);
        j += 16;
    }
    if j < n {
        let rem = n - j;
        let bm: __mmask32 = (1u32 << (2 * rem)) - 1;
        let sm: __mmask16 = (1u16 << rem) - 1;
        let mut a0 = _mm512_setzero_si512();
        let mut a1 = _mm512_setzero_si512();
        for p in 0..pairs {
            let bytes = _mm256_maskz_loadu_epi8(bm, base.add(p * stride + 2 * j));
            let k16 = _mm512_cvtepi8_epi16(bytes);
            a0 = _mm512_dpwssd_epi32(a0, k16, _mm512_set1_epi32(q0[p]));
            a1 = _mm512_dpwssd_epi32(a1, k16, _mm512_set1_epi32(q1[p]));
        }
        _mm512_mask_storeu_epi32(out0.as_mut_ptr().add(j), sm, a0);
        _mm512_mask_storeu_epi32(out1.as_mut_ptr().add(j), sm, a1);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn pseudo(rows: usize, cols: usize, seed: u64) -> Matrix {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut m = Matrix::zeros(rows, cols);
        for r in 0..rows {
            for c in 0..cols {
                m.set(r, c, rng.gen_range(-2.0f32..2.0));
            }
        }
        m
    }

    #[test]
    fn round_trip_error_within_per_channel_bound() {
        let w = pseudo(48, 32, 7);
        let q = QuantizedMatrix::from_weight(&w);
        let deq = q.dequantize();
        for o in 0..q.rows() {
            let s = q.scale(o);
            for k in 0..q.cols() {
                let err = (w.get(k, o) - deq.get(o, k)).abs();
                assert!(
                    err <= s * 0.5 + s * 1e-4,
                    "channel {o} k {k}: err {err} vs scale {s}"
                );
            }
        }
    }

    #[test]
    fn zero_row_quantizes_to_zero_scale() {
        let m = Matrix::zeros(3, 8);
        let q = QuantizedMatrix::from_rows(&m);
        for r in 0..3 {
            assert_eq!(q.scale(r), 0.0);
            assert!(q.row(r).iter().all(|&v| v == 0));
        }
    }

    #[test]
    fn simd_dot_matches_portable_on_awkward_lengths() {
        let mut rng = StdRng::seed_from_u64(11);
        for len in [0, 1, 7, 15, 16, 17, 31, 32, 33, 48, 96, 127, 257] {
            let a: Vec<i8> = (0..len)
                .map(|_| rng.gen_range(-127i32..=127) as i8)
                .collect();
            let b: Vec<i8> = (0..len)
                .map(|_| rng.gen_range(-127i32..=127) as i8)
                .collect();
            assert_eq!(dot_i8(&a, &b), dot_i8_portable(&a, &b), "len {len}");
        }
    }

    #[test]
    fn pair_gemv_matches_naive_dots_on_awkward_shapes() {
        let mut rng = StdRng::seed_from_u64(13);
        // (head_dim, n): even and odd contractions, n below/at/past the
        // 8-wide SIMD step — the attention-score and rel-table shapes.
        for (hd, n) in [
            (12usize, 96usize),
            (12, 17),
            (11, 17),
            (2, 8),
            (6, 5),
            (16, 33),
        ] {
            let q: Vec<i8> = (0..hd)
                .map(|_| rng.gen_range(-127i32..=127) as i8)
                .collect();
            let k: Vec<Vec<i8>> = (0..n)
                .map(|_| {
                    (0..hd)
                        .map(|_| rng.gen_range(-127i32..=127) as i8)
                        .collect()
                })
                .collect();
            let pairs = hd.div_ceil(2);
            let mut q_pairs = vec![0i32; pairs];
            let mut kt = vec![0i8; pairs * 2 * n];
            for p in 0..pairs {
                let odd = if 2 * p + 1 < hd { q[2 * p + 1] } else { 0 };
                q_pairs[p] = pack_pair(q[2 * p], odd);
                for (j, krow) in k.iter().enumerate() {
                    kt[p * 2 * n + 2 * j] = krow[2 * p];
                    kt[p * 2 * n + 2 * j + 1] = if 2 * p + 1 < hd { krow[2 * p + 1] } else { 0 };
                }
            }
            let mut out = vec![0i32; n];
            gemv_i8_pairs(&q_pairs, &kt, n, &mut out);
            let mut portable = vec![0i32; n];
            gemv_i8_pairs_portable(&q_pairs, &kt, n, &mut portable);
            assert_eq!(out, portable, "hd {hd} n {n}: SIMD vs portable");
            // The two-row kernel must match independent gemvs exactly.
            let q2: Vec<i32> = q_pairs.iter().map(|&w| w.wrapping_mul(-1)).collect();
            let mut two_a = vec![0i32; n];
            let mut two_b = vec![0i32; n];
            gemv2_i8_pairs(&q_pairs, &q2, &kt, n, &mut two_a, &mut two_b);
            assert_eq!(two_a, out, "hd {hd} n {n}: 2-row row0");
            let mut solo_b = vec![0i32; n];
            gemv_i8_pairs_portable(&q2, &kt, n, &mut solo_b);
            assert_eq!(two_b, solo_b, "hd {hd} n {n}: 2-row row1");
            for (j, krow) in k.iter().enumerate() {
                let naive: i32 = q.iter().zip(krow).map(|(&a, &b)| a as i32 * b as i32).sum();
                assert_eq!(out[j], naive, "hd {hd} n {n} j {j}");
            }
        }
    }

    #[test]
    fn simd_quantize_matches_portable_on_awkward_lengths() {
        let mut rng = StdRng::seed_from_u64(17);
        for len in [0usize, 1, 5, 8, 9, 15, 16, 17, 48, 96, 97] {
            let src: Vec<f32> = (0..len).map(|_| rng.gen_range(-3.0f32..3.0)).collect();
            let mut a = vec![0i8; len];
            let mut b = vec![0i8; len];
            let sa = quantize_row_i8(&src, &mut a);
            let sb = quantize_row_i8_portable(&src, &mut b);
            assert_eq!(sa.to_bits(), sb.to_bits(), "len {len}: scale");
            assert_eq!(a, b, "len {len}: codes");
        }
        // Ties land exactly between codes: .5 multiples must round even
        // identically on both paths.
        let src = [2.0f32, 1.0, 0.5, -0.5, 0.25, -2.0, 1.5, -1.5, 0.75];
        let mut a = vec![0i8; src.len()];
        let mut b = vec![0i8; src.len()];
        assert_eq!(
            quantize_row_i8(&src, &mut a).to_bits(),
            quantize_row_i8_portable(&src, &mut b).to_bits()
        );
        assert_eq!(a, b);
    }

    #[test]
    fn simd_softmax_q7_matches_portable_and_normalizes() {
        let mut rng = StdRng::seed_from_u64(19);
        for len in [1usize, 5, 8, 9, 17, 48, 96, 97] {
            let row: Vec<f32> = (0..len).map(|_| rng.gen_range(-8.0f32..8.0)).collect();
            let mut a = vec![0i8; len];
            let mut b = vec![0i8; len];
            let sa = softmax_q7(&row, &mut a);
            let sb = softmax_q7_portable(&row, &mut b);
            assert_eq!(sa.to_bits(), sb.to_bits(), "len {len}: scale");
            assert_eq!(a, b, "len {len}: codes");
            // The max element dequantizes to 127·scale and the row mass
            // is exactly 1 by construction.
            assert_eq!(*a.iter().max().unwrap(), 127, "len {len}");
            let mass: f32 = a.iter().map(|&q| q as f32 * sa).sum();
            assert!((mass - 1.0).abs() < 1e-5, "len {len}: mass {mass}");
            // Dequantized weights track the exact softmax within the
            // 7-bit step.
            let max = row.iter().copied().fold(f32::NEG_INFINITY, f32::max);
            let exact: Vec<f32> = row.iter().map(|&x| (x - max).exp()).collect();
            let denom: f32 = exact.iter().sum();
            for (j, &q) in a.iter().enumerate() {
                let err = (q as f32 * sa - exact[j] / denom).abs();
                assert!(err < 1.0 / 127.0, "len {len} j {j}: err {err}");
            }
        }
    }

    #[test]
    fn qgemm_matches_f32_reference_within_quant_error() {
        let x = pseudo(5, 48, 3);
        let w = pseudo(48, 12, 4); // in × out, Linear layout
        let bias: Vec<f32> = (0..12).map(|i| i as f32 * 0.01).collect();
        let q = QuantizedMatrix::from_weight(&w);

        let mut xq = vec![0i8; 5 * 48];
        let mut xs = vec![0.0f32; 5];
        for r in 0..5 {
            xs[r] = quantize_row_i8(x.row(r), &mut xq[r * 48..(r + 1) * 48]);
        }
        let mut out = vec![0.0f32; 5 * 12];
        qgemm_nt(&xq, &xs, 5, 48, &q, Some(&bias), &mut out);

        for r in 0..5 {
            for o in 0..12 {
                let mut exact = bias[o];
                for k in 0..48 {
                    exact += x.get(r, k) * w.get(k, o);
                }
                let got = out[r * 12 + o];
                // Worst case |err| <= sum_k (|x| * sw/2 + |w| * sx/2 + sx*sw/4);
                // a loose 0.2 envelope is plenty for these magnitudes.
                assert!(
                    (exact - got).abs() < 0.2,
                    "r{r} o{o}: exact {exact} got {got}"
                );
            }
        }
    }
}
