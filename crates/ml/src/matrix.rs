//! A minimal row-major `f32` matrix with exactly the operations the
//! network needs.
//!
//! `matmul` is cache-blocked with a packed-B inner kernel and splits
//! output row-blocks across the rayon pool for large products. Every
//! code path — small, blocked, blocked-parallel, and the sparse
//! zero-skip path's dense twin — accumulates each output element in
//! ascending-`k` order into a single accumulator, so results are
//! **bit-identical** across paths and thread counts (f32 addition is
//! deterministic for a fixed order; only the order could differ, and it
//! never does).
//!
//! The two transposed products backprop needs sit on the same footing:
//! `matmul_t` (`grad · Wᵀ`, the input gradient) transposes its small
//! right operand once and goes through the `matmul` dispatcher, and
//! `t_matmul` (`xᵀ · grad`, the weight gradient) is a zero-skipping axpy
//! over rows — both ascending `k` into one accumulator from `+0.0`, so
//! both equal the textbook dot product bit for bit.
//!
//! Every row kernel here and the fused forward in [`crate::infer`] run
//! through `wide`, which compiles them a second time with AVX2 and
//! picks that copy once the CPU reports it: eight lanes per
//! instruction instead of four, and the same bits, since each element
//! is still one ascending-`k` sum of separately rounded products.

use rayon::prelude::*;

/// Runs `f` compiled with AVX2 enabled when the CPU reports AVX2, and
/// as the baseline build compiled it otherwise. The kernels it wraps are
/// `#[inline(always)]`, and so is the closure at every call: LLVM keeps
/// a large closure out of line otherwise, and the AVX2 function would
/// only jump to its baseline copy. A body left out of line still
/// compiles four lanes wide.
///
/// Both copies give the same bits. Rust neither contracts `acc += a * b`
/// into a fused multiply-add nor reassociates float arithmetic, so each
/// element is the same ascending-`k` sum of separately rounded products
/// at any width. Only `avx2` is enabled, never `fma`, and the crate
/// calls no `mul_add`: a fused multiply-add rounds once where the
/// kernels round twice, and would move every fit. A NaN result may
/// carry another sign (Rust leaves it unspecified); every other bit is
/// equal. `is_x86_feature_detected!` caches its answer, so the choice
/// is one atomic load a call.
#[inline(always)]
pub(crate) fn wide<R>(f: impl FnOnce() -> R) -> R {
    #[cfg(target_arch = "x86_64")]
    {
        #[target_feature(enable = "avx2")]
        fn avx2<R>(f: impl FnOnce() -> R) -> R {
            f()
        }
        if is_x86_feature_detected!("avx2") {
            // SAFETY: `avx2` requires the AVX2 instructions and nothing
            // else, and the CPU has just reported them.
            return unsafe { avx2(f) };
        }
    }
    f()
}

/// Says, on a CPU without AVX2, that the tests of [`wide`] compare the
/// baseline build with itself there.
#[cfg(test)]
pub(crate) fn say_what_wide_runs() {
    #[cfg(target_arch = "x86_64")]
    if is_x86_feature_detected!("avx2") {
        return;
    }
    eprintln!("no AVX2 on this CPU: the baseline build is compared with itself");
}

/// Asserts that a kernel's output through [`wide`] (`got`) equals its
/// baseline compilation's (`base`): the same bits everywhere, except
/// that a NaN need only meet a NaN. Rust leaves the sign and payload of
/// a NaN result unspecified, and they do differ here: which operand an
/// addition of two NaNs returns depends on the order LLVM gives the
/// commutative `fadd`.
#[cfg(test)]
pub(crate) fn assert_wide_bits(base: &[f32], got: &[f32], what: &str) {
    let bits = |v: &[f32]| {
        v.iter()
            .map(|x| if x.is_nan() { None } else { Some(x.to_bits()) })
            .collect::<Vec<_>>()
    };
    assert_eq!(bits(base), bits(got), "{what}");
}

/// Swaps values the vector units could treat differently into `v`, a
/// row-major block with rows of `row_len`: signed zeros and subnormals
/// every seventh element, and infinities and NaN in the first row only,
/// so the other rows' sums stay finite.
#[cfg(test)]
pub(crate) fn sprinkle_specials(v: &mut [f32], row_len: usize) {
    const FINITE: [f32; 4] = [0.0, -0.0, 1.0e-40, -f32::MIN_POSITIVE / 4.0];
    const NONFINITE: [f32; 3] = [f32::INFINITY, f32::NEG_INFINITY, f32::NAN];
    for (n, x) in v.iter_mut().step_by(7).enumerate() {
        *x = FINITE[n % FINITE.len()];
    }
    let first = row_len.min(v.len());
    for (n, x) in v[..first].iter_mut().skip(2).step_by(5).enumerate() {
        *x = NONFINITE[n % NONFINITE.len()];
    }
}

/// Row-major matrix of `f32`.
#[derive(Clone, Debug, PartialEq)]
pub struct Matrix {
    rows: usize,
    cols: usize,
    data: Vec<f32>,
}

/// Work (`m·k·n` multiply-adds) below which matmul runs the plain
/// unblocked loop — for the tiny per-window inference products, packing
/// overhead would dominate.
const BLOCK_MIN_WORK: usize = 1 << 16;

/// Work at or above which output row-blocks are split across the rayon
/// pool. Re-tuned from the old row-count threshold (256 rows): with real
/// workers the crossover is ~1M multiply-adds (≈0.5 ms of arithmetic),
/// comfortably above the scoped-helper spawn cost.
const PAR_MIN_WORK: usize = 1 << 20;

/// Sampled zero fraction of the left matrix at or above which the
/// zero-skip kernel runs instead of the dense blocked one. Dense
/// activations never reach it, so the hot path carries no per-element
/// branch.
const SPARSE_SKIP_FRACTION: f32 = 0.75;

/// Columns per packed B panel (width of the contiguous inner axpy).
const PANEL_NC: usize = 128;

/// Depth (k) block: rows of a B panel streamed per pass over a row
/// block, sized so `PANEL_NC × PANEL_KC` floats stay L2-resident.
const PANEL_KC: usize = 128;

/// `B` repacked panel-major: panel `p` holds columns
/// `[p·PANEL_NC, …)` with each of its `k` rows contiguous, so the inner
/// kernel streams cache-line-aligned runs instead of striding across
/// the full row width of `B`.
struct PackedB {
    n: usize,
    /// Start of each panel in `data`.
    offsets: Vec<usize>,
    data: Vec<f32>,
}

impl PackedB {
    fn pack(b: &Matrix) -> PackedB {
        let (k, n) = (b.rows, b.cols);
        let mut data = Vec::with_capacity(k * n);
        let mut offsets = Vec::new();
        let mut c0 = 0;
        while c0 < n {
            let w = PANEL_NC.min(n - c0);
            offsets.push(data.len());
            for kk in 0..k {
                data.extend_from_slice(&b.data[kk * n + c0..kk * n + c0 + w]);
            }
            c0 += w;
        }
        PackedB { n, offsets, data }
    }
}

impl Matrix {
    /// Zero matrix.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        Matrix {
            rows,
            cols,
            data: vec![0.0; rows * cols],
        }
    }

    /// Matrix from a flat row-major vector.
    pub fn from_vec(rows: usize, cols: usize, data: Vec<f32>) -> Self {
        assert_eq!(data.len(), rows * cols, "shape/data mismatch");
        Matrix { rows, cols, data }
    }

    /// Number of rows.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Flat row-major data.
    pub fn data(&self) -> &[f32] {
        &self.data
    }

    /// Mutable flat data.
    pub fn data_mut(&mut self) -> &mut [f32] {
        &mut self.data
    }

    /// Element accessor.
    pub fn get(&self, r: usize, c: usize) -> f32 {
        debug_assert!(r < self.rows && c < self.cols);
        self.data[r * self.cols + c]
    }

    /// Element setter.
    pub fn set(&mut self, r: usize, c: usize, v: f32) {
        debug_assert!(r < self.rows && c < self.cols);
        self.data[r * self.cols + c] = v;
    }

    /// Row `r` as a slice.
    pub fn row(&self, r: usize) -> &[f32] {
        &self.data[r * self.cols..(r + 1) * self.cols]
    }

    /// Mutable row `r`.
    pub fn row_mut(&mut self, r: usize) -> &mut [f32] {
        &mut self.data[r * self.cols..(r + 1) * self.cols]
    }

    /// The same row-major data re-read under another shape of equal
    /// size (e.g. `(batch·S) × 1` as `batch × S`), without a copy.
    pub fn reshape(self, rows: usize, cols: usize) -> Matrix {
        Matrix::from_vec(rows, cols, self.data)
    }

    /// Build a matrix from a subset of rows of `self` (by index).
    pub fn gather_rows(&self, idx: &[usize]) -> Matrix {
        let mut out = Matrix::zeros(idx.len(), self.cols);
        for (i, &r) in idx.iter().enumerate() {
            out.row_mut(i).copy_from_slice(self.row(r));
        }
        out
    }

    /// `self · other` (standard matrix product).
    ///
    /// Dispatches on product size and left-matrix sparsity; all paths
    /// produce bit-identical results (ascending-`k` accumulation
    /// everywhere).
    pub fn matmul(&self, other: &Matrix) -> Matrix {
        assert_eq!(self.cols, other.rows, "matmul shape mismatch");
        let (m, k, n) = (self.rows, self.cols, other.cols);
        let mut out = Matrix::zeros(m, n);
        if m == 0 || k == 0 || n == 0 {
            return out;
        }
        let work = m * k * n;
        if work < BLOCK_MIN_WORK {
            wide(
                #[inline(always)]
                || self.matmul_rows_simple(other, 0, &mut out.data),
            );
            return out;
        }
        let sparse = self.sampled_zero_fraction() >= SPARSE_SKIP_FRACTION;
        let threads = rayon::current_num_threads();
        if work >= PAR_MIN_WORK && threads > 1 && m > 1 {
            let rows_per_job = m.div_ceil(threads * 4).max(1);
            let packed = (!sparse).then(|| PackedB::pack(other));
            out.data
                .par_chunks_mut(rows_per_job * n)
                .enumerate()
                .for_each(|(j, block)| {
                    let r0 = j * rows_per_job;
                    wide(
                        #[inline(always)]
                        || match &packed {
                            Some(p) => self.matmul_rows_blocked(p, r0, block),
                            None => self.matmul_rows_skip(other, r0, block),
                        },
                    )
                });
        } else if sparse {
            wide(
                #[inline(always)]
                || self.matmul_rows_skip(other, 0, &mut out.data),
            );
        } else {
            let packed = PackedB::pack(other);
            wide(
                #[inline(always)]
                || self.matmul_rows_blocked(&packed, 0, &mut out.data),
            );
        }
        out
    }

    /// Fraction of zeros in a ≤256-element sample of `self`. Sample
    /// positions come from a multiplicative hash, not a regular stride,
    /// so structured sparsity patterns (every k-th element) can't alias
    /// with the probe. Deterministic in the matrix length alone.
    fn sampled_zero_fraction(&self) -> f32 {
        let len = self.data.len();
        if len == 0 {
            return 0.0;
        }
        let samples = len.min(256);
        let zeros = (0..samples as u64)
            .filter(|&i| {
                let pos = (i.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 16) as usize % len;
                self.data[pos] == 0.0
            })
            .count();
        zeros as f32 / samples as f32
    }

    /// Plain row-major axpy kernel (no packing, no skip) for the rows
    /// starting at `r0` whose output occupies `out_block`.
    #[inline(always)]
    fn matmul_rows_simple(&self, other: &Matrix, r0: usize, out_block: &mut [f32]) {
        let n = other.cols;
        let rows = out_block.len() / n;
        for r in 0..rows {
            let a_row = self.row(r0 + r);
            let out_row = &mut out_block[r * n..(r + 1) * n];
            for (kk, &a) in a_row.iter().enumerate() {
                let b_row = &other.data[kk * n..(kk + 1) * n];
                for (o, &b) in out_row.iter_mut().zip(b_row) {
                    *o += a * b;
                }
            }
        }
    }

    /// Zero-skip axpy kernel for sparse left matrices (the branch only
    /// pays for itself when most `a` elements are zero).
    #[inline(always)]
    fn matmul_rows_skip(&self, other: &Matrix, r0: usize, out_block: &mut [f32]) {
        let n = other.cols;
        let rows = out_block.len() / n;
        for r in 0..rows {
            let a_row = self.row(r0 + r);
            let out_row = &mut out_block[r * n..(r + 1) * n];
            for (kk, &a) in a_row.iter().enumerate() {
                if a == 0.0 {
                    continue;
                }
                let b_row = &other.data[kk * n..(kk + 1) * n];
                for (o, &b) in out_row.iter_mut().zip(b_row) {
                    *o += a * b;
                }
            }
        }
    }

    /// Cache-blocked kernel over a packed `B`: for each column panel,
    /// stream `PANEL_KC`-deep slabs of the panel across the row block.
    /// Per output element the `k` loop still runs strictly ascending
    /// (panel blocks ascending, `kk` within each ascending), so the
    /// accumulation order — and therefore every bit of the result —
    /// matches [`Matrix::matmul_rows_simple`].
    #[inline(always)]
    fn matmul_rows_blocked(&self, packed: &PackedB, r0: usize, out_block: &mut [f32]) {
        let k = self.cols;
        let n = packed.n;
        let rows = out_block.len() / n;
        let mut c0 = 0;
        let mut panel = 0;
        while c0 < n {
            let w = PANEL_NC.min(n - c0);
            let poff = packed.offsets[panel];
            let mut k0 = 0;
            while k0 < k {
                let k1 = (k0 + PANEL_KC).min(k);
                for r in 0..rows {
                    let a_row = &self.data[(r0 + r) * k..(r0 + r) * k + k];
                    let out_row = &mut out_block[r * n + c0..r * n + c0 + w];
                    for (kk, &a) in a_row.iter().enumerate().take(k1).skip(k0) {
                        let b_row = &packed.data[poff + kk * w..poff + kk * w + w];
                        for (o, &b) in out_row.iter_mut().zip(b_row) {
                            *o += a * b;
                        }
                    }
                }
                k0 = k1;
            }
            c0 += w;
            panel += 1;
        }
    }

    /// `selfᵀ · other` without materialising the transpose.
    pub fn t_matmul(&self, other: &Matrix) -> Matrix {
        assert_eq!(self.rows, other.rows, "t_matmul shape mismatch");
        let mut out = Matrix::zeros(self.cols, other.cols);
        wide(
            #[inline(always)]
            || self.t_matmul_rows(other, &mut out.data),
        );
        out
    }

    /// The body of [`Matrix::t_matmul`] that [`wide`] compiles twice:
    /// row `r` of `other`, scaled by each nonzero `self[r][i]`, added
    /// into output row `i`.
    #[inline(always)]
    fn t_matmul_rows(&self, other: &Matrix, out: &mut [f32]) {
        for r in 0..self.rows {
            let a_row = self.row(r);
            let b_row = other.row(r);
            for (i, &a) in a_row.iter().enumerate() {
                if a == 0.0 {
                    continue;
                }
                let out_row = &mut out[i * other.cols..(i + 1) * other.cols];
                for (o, &b) in out_row.iter_mut().zip(b_row) {
                    *o += a * b;
                }
            }
        }
    }

    /// `self · otherᵀ`: transposes `other` once (it is the small
    /// operand everywhere this is called — a weight matrix, one sample's
    /// keys) and runs the [`Matrix::matmul`] dispatcher on the result, so
    /// the product gets the vectorisable axpy kernels instead of a
    /// strict-order scalar dot product. The bits are those of the
    /// textbook dot product: every `matmul` path adds an element's terms
    /// in ascending `k` into one accumulator that starts at `+0.0`.
    pub fn matmul_t(&self, other: &Matrix) -> Matrix {
        assert_eq!(self.cols, other.cols, "matmul_t shape mismatch");
        self.matmul(&other.transpose())
    }

    /// Transposed copy.
    pub fn transpose(&self) -> Matrix {
        let mut out = Matrix::zeros(self.cols, self.rows);
        for r in 0..self.rows {
            for c in 0..self.cols {
                out.data[c * self.rows + r] = self.data[r * self.cols + c];
            }
        }
        out
    }

    /// Add `v` to every row (broadcast bias).
    pub fn add_row_vec(&mut self, v: &[f32]) {
        assert_eq!(v.len(), self.cols);
        for r in 0..self.rows {
            for (x, &b) in self.data[r * self.cols..(r + 1) * self.cols]
                .iter_mut()
                .zip(v)
            {
                *x += b;
            }
        }
    }

    /// Column sums.
    pub fn col_sums(&self) -> Vec<f32> {
        let mut out = vec![0.0; self.cols];
        for r in 0..self.rows {
            for (o, &x) in out.iter_mut().zip(self.row(r)) {
                *o += x;
            }
        }
        out
    }

    /// Multiply every element by `s`.
    pub fn scale(&mut self, s: f32) {
        for x in &mut self.data {
            *x *= s;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn m(rows: usize, cols: usize, v: &[f32]) -> Matrix {
        Matrix::from_vec(rows, cols, v.to_vec())
    }

    #[test]
    fn matmul_matches_hand_example() {
        let a = m(2, 3, &[1.0, 2.0, 3.0, 4.0, 5.0, 6.0]);
        let b = m(3, 2, &[7.0, 8.0, 9.0, 10.0, 11.0, 12.0]);
        let c = a.matmul(&b);
        assert_eq!(c.data(), &[58.0, 64.0, 139.0, 154.0]);
    }

    #[test]
    fn t_matmul_equals_explicit_transpose() {
        let a = m(3, 2, &[1.0, 2.0, 3.0, 4.0, 5.0, 6.0]);
        let b = m(3, 2, &[0.5, -1.0, 2.0, 0.0, 1.0, 3.0]);
        let fast = a.t_matmul(&b);
        let slow = a.transpose().matmul(&b);
        assert_eq!(fast, slow);
    }

    #[test]
    fn matmul_t_equals_explicit_transpose() {
        let a = m(2, 3, &[1.0, 2.0, 3.0, 4.0, 5.0, 6.0]);
        let b = m(
            4,
            3,
            &[1.0, 0.0, 1.0, 0.0, 1.0, 0.0, 2.0, 2.0, 2.0, -1.0, 1.0, -1.0],
        );
        let fast = a.matmul_t(&b);
        let slow = a.matmul(&b.transpose());
        assert_eq!(fast, slow);
    }

    /// `matmul_t` against the scalar loop it replaced (`acc += a * b`
    /// over ascending `k`), bit for bit, in the simple tier, the blocked
    /// tier, and on a mostly-zero left matrix (the zero-skip kernel,
    /// where skipped `0 · b` terms and `-0.0` partial sums could differ
    /// if an accumulator ever started anywhere but `+0.0`).
    #[test]
    fn matmul_t_matches_scalar_dot_products_bitwise() {
        // Every fourth row all zero, the rest one value in eight, against
        // a negative right side: all-zero rows sum `-0.0` terms only.
        let mut sparse = filled(96, 64, 6);
        for (i, v) in sparse.data_mut().iter_mut().enumerate() {
            if i % 8 != 0 || (i / 64) % 4 == 3 {
                *v = 0.0;
            }
        }
        assert!(sparse.sampled_zero_fraction() >= SPARSE_SKIP_FRACTION);
        let mut negative = filled(48, 64, 7);
        negative.scale(-1.0);
        let cases = [
            (filled(5, 7, 1), filled(3, 7, 2)),
            (filled(80, 90, 1), filled(70, 90, 2)),
            (sparse, negative),
        ];
        for (a, b) in &cases {
            let fast = a.matmul_t(b);
            for r in 0..a.rows {
                for c in 0..b.rows {
                    let mut acc = 0.0f32;
                    for (&x, &y) in a.row(r).iter().zip(b.row(c)) {
                        acc += x * y;
                    }
                    assert_eq!(
                        fast.get(r, c).to_bits(),
                        acc.to_bits(),
                        "{}x{}x{} at ({r}, {c})",
                        a.rows,
                        a.cols,
                        b.rows
                    );
                }
            }
        }
    }

    #[test]
    fn reshape_rereads_the_same_data() {
        let a = m(4, 1, &[1.0, 2.0, 3.0, 4.0]);
        let b = a.reshape(2, 2);
        assert_eq!((b.rows(), b.cols()), (2, 2));
        assert_eq!(b.row(1), &[3.0, 4.0]);
    }

    #[test]
    fn transpose_is_involution() {
        let a = m(2, 3, &[1.0, 2.0, 3.0, 4.0, 5.0, 6.0]);
        assert_eq!(a.transpose().transpose(), a);
    }

    #[test]
    fn bias_and_sums() {
        let mut a = Matrix::zeros(2, 3);
        a.add_row_vec(&[1.0, 2.0, 3.0]);
        assert_eq!(a.col_sums(), vec![2.0, 4.0, 6.0]);
        a.scale(0.5);
        assert_eq!(a.get(1, 2), 1.5);
    }

    #[test]
    fn gather_rows_selects() {
        let a = m(3, 2, &[1.0, 2.0, 3.0, 4.0, 5.0, 6.0]);
        let g = a.gather_rows(&[2, 0]);
        assert_eq!(g.data(), &[5.0, 6.0, 1.0, 2.0]);
    }

    /// Reference product: the textbook triple loop with ascending-`k`
    /// accumulation — the order every optimised path must reproduce
    /// bit-for-bit.
    fn matmul_reference(a: &Matrix, b: &Matrix) -> Matrix {
        assert_eq!(a.cols, b.rows);
        let mut out = Matrix::zeros(a.rows, b.cols);
        for r in 0..a.rows {
            for c in 0..b.cols {
                let mut acc = 0.0f32;
                for kk in 0..a.cols {
                    acc += a.get(r, kk) * b.get(kk, c);
                }
                out.set(r, c, acc);
            }
        }
        out
    }

    fn filled(rows: usize, cols: usize, salt: u64) -> Matrix {
        Matrix::from_vec(
            rows,
            cols,
            (0..rows * cols)
                .map(|i| {
                    let h = (i as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ salt;
                    ((h >> 40) as f32 / 1024.0) - 8.0
                })
                .collect(),
        )
    }

    #[test]
    fn naive_blocked_and_parallel_are_bit_identical() {
        // Shapes chosen to land in each dispatch tier:
        //   8×8·8       → simple loop (work < BLOCK_MIN_WORK)
        //   80×90·70    → blocked serial (>= BLOCK_MIN_WORK)
        //   150×160·170 → blocked + row-parallel under a 4-thread pool
        // with ragged sizes so partial panels and ragged row-blocks are
        // exercised too.
        for (m, k, n) in [(8, 8, 8), (80, 90, 70), (150, 160, 170), (257, 129, 131)] {
            let a = filled(m, k, 1);
            let b = filled(k, n, 2);
            let reference = matmul_reference(&a, &b);
            let serial = rayon::ThreadPoolBuilder::new()
                .num_threads(1)
                .build()
                .unwrap()
                .install(|| a.matmul(&b));
            let parallel = rayon::ThreadPoolBuilder::new()
                .num_threads(4)
                .build()
                .unwrap()
                .install(|| a.matmul(&b));
            assert_eq!(
                serial.data(),
                reference.data(),
                "serial diverged at {m}x{k}x{n}"
            );
            assert_eq!(
                parallel.data(),
                reference.data(),
                "parallel diverged at {m}x{k}x{n}"
            );
        }
    }

    #[test]
    fn sparse_skip_path_matches_reference() {
        // ~94% zeros → the probe selects the zero-skip kernel; results
        // must still match the dense reference exactly.
        // Work >= PAR_MIN_WORK so the 4-thread run takes the parallel
        // zero-skip path; the plain call takes the serial one.
        let (m, k, n) = (160, 128, 128);
        let mut a = filled(m, k, 3);
        for (i, v) in a.data_mut().iter_mut().enumerate() {
            if i % 16 != 0 {
                *v = 0.0;
            }
        }
        assert!(a.sampled_zero_fraction() >= SPARSE_SKIP_FRACTION);
        let b = filled(k, n, 4);
        let reference = matmul_reference(&a, &b);
        let serial = rayon::ThreadPoolBuilder::new()
            .num_threads(1)
            .build()
            .unwrap()
            .install(|| a.matmul(&b));
        let parallel = rayon::ThreadPoolBuilder::new()
            .num_threads(4)
            .build()
            .unwrap()
            .install(|| a.matmul(&b));
        assert_eq!(serial.data(), reference.data());
        assert_eq!(parallel.data(), reference.data());
    }

    #[test]
    fn dense_probe_stays_on_dense_path() {
        let a = filled(64, 64, 5);
        assert!(a.sampled_zero_fraction() < SPARSE_SKIP_FRACTION);
    }

    /// `filled` with [`sprinkle_specials`] applied.
    fn with_specials(mut a: Matrix) -> Matrix {
        let cols = a.cols;
        sprinkle_specials(a.data_mut(), cols);
        a
    }

    /// `kernel` on a zeroed `len`-element output twice: as the baseline
    /// compiled it, and through [`wide`].
    fn both(len: usize, kernel: impl Fn(&mut [f32])) -> (Vec<f32>, Vec<f32>) {
        let (mut base, mut got) = (vec![0.0; len], vec![0.0; len]);
        kernel(&mut base);
        wide(
            #[inline(always)]
            || kernel(&mut got),
        );
        (base, got)
    }

    /// Each row kernel called directly (the baseline compilation) and
    /// through [`wide`] gives the same bits, on the simple, zero-skip,
    /// blocked and 4-thread parallel paths and in `t_matmul`. The vector
    /// code under test exists only in an optimised build
    /// (`cargo test --release`).
    #[test]
    fn wide_kernels_match_the_baseline_bitwise() {
        say_what_wide_runs();
        let mut sparse = filled(160, 128, 3);
        for (i, v) in sparse.data_mut().iter_mut().enumerate() {
            if i % 16 != 0 {
                *v = if i % 3 == 0 { -0.0 } else { 0.0 };
            }
        }
        let cases = [
            (with_specials(filled(8, 8, 1)), filled(8, 9, 2)),
            (filled(9, 5, 1), with_specials(filled(5, 7, 2))),
            (with_specials(filled(80, 90, 1)), filled(90, 70, 2)),
            (filled(150, 160, 1), with_specials(filled(160, 170, 2))),
            (sparse, with_specials(filled(128, 128, 4))),
            (with_specials(filled(257, 129, 1)), filled(129, 131, 2)),
        ];
        let pool = rayon::ThreadPoolBuilder::new()
            .num_threads(4)
            .build()
            .unwrap();
        for (a, b) in &cases {
            let what = format!("{}x{}x{}", a.rows, a.cols, b.cols);
            let len = a.rows * b.cols;
            let packed = PackedB::pack(b);
            let (simple, got) = both(
                len,
                #[inline(always)]
                |o| a.matmul_rows_simple(b, 0, o),
            );
            assert_wide_bits(&simple, &got, &format!("simple {what}"));
            let (skip, got) = both(
                len,
                #[inline(always)]
                |o| a.matmul_rows_skip(b, 0, o),
            );
            assert_wide_bits(&skip, &got, &format!("skip {what}"));
            let (blocked, got) = both(
                len,
                #[inline(always)]
                |o| a.matmul_rows_blocked(&packed, 0, o),
            );
            assert_wide_bits(&blocked, &got, &format!("blocked {what}"));
            // The dispatcher on four threads: the parallel path where the
            // product is big enough, every chunk through `wide`.
            let base = if len * a.cols < BLOCK_MIN_WORK {
                simple
            } else if a.sampled_zero_fraction() >= SPARSE_SKIP_FRACTION {
                skip
            } else {
                blocked
            };
            let got = pool.install(|| a.matmul(b));
            assert_wide_bits(&base, got.data(), &format!("matmul {what}"));

            let g = with_specials(filled(a.rows, 13, 5));
            let mut base = vec![0.0; a.cols * g.cols];
            a.t_matmul_rows(&g, &mut base);
            assert_wide_bits(&base, a.t_matmul(&g).data(), &format!("t_matmul {what}"));
        }
    }

    #[test]
    #[should_panic(expected = "matmul shape mismatch")]
    fn shape_mismatch_panics() {
        let a = Matrix::zeros(2, 3);
        let b = Matrix::zeros(2, 3);
        let _ = a.matmul(&b);
    }
}
