//! AVX lanes for the GEMM kernels of [`super`] — the only `unsafe` code in
//! the workspace.
//!
//! Every kernel here keeps the parent module's summation-order contract:
//! vector lanes map to output *columns*, each lane is one serial
//! accumulator over ascending `k` that starts at `+0.0`, products are
//! `_mm256_mul_ps` and sums `_mm256_add_ps` with the operands in the
//! reference order (`acc + a·b`, then `c + acc`). Never a fused
//! multiply-add: its single rounding would change bits.
//!
//! Safety structure: an [`Avx`] token can only be built by [`Avx::detect`],
//! so holding one proves the running CPU has AVX. Its safe methods bound
//! every offset a kernel forms — by the types of the packed panels, or by
//! a length check before any pointer use — and then make one call into a
//! `#[target_feature(enable = "avx")]` function.

use super::{MR, NR};
use std::arch::x86_64::{
    __m256, _mm256_add_ps, _mm256_broadcast_ss, _mm256_castps128_ps256, _mm256_insertf128_ps,
    _mm256_loadu_ps, _mm256_mul_ps, _mm256_setr_ps, _mm256_setzero_ps, _mm256_shuffle_ps,
    _mm256_storeu_ps, _mm256_unpackhi_ps, _mm256_unpacklo_ps, _mm_loadu_ps,
};

/// Lanes per `__m256`.
const W: usize = 8;

/// Proof that the running CPU executes AVX instructions.
#[derive(Clone, Copy, Debug)]
pub(super) struct Avx(());

impl Avx {
    /// The token, when the CPU has AVX.
    pub(super) fn detect() -> Option<Avx> {
        is_x86_feature_detected!("avx").then_some(Avx(()))
    }

    /// The `MR×NR` register tile `acc[r][l] = Σ_kk ap[kk][r] · bp[kk][l]`
    /// over `kk < min(ap.len(), bp.len())`: eight independent 256-bit
    /// accumulators (4 rows × 2 vectors), so consecutive adds do not wait
    /// on each other.
    pub(super) fn tile(self, ap: &[[f32; MR]], bp: &[[f32; NR]]) -> [[f32; NR]; MR] {
        let mut out = [[0.0f32; NR]; MR];
        // SAFETY: `self` proves AVX is present; `tile_avx` reads `ap` and
        // `bp` only below the shorter length and writes only `out`.
        unsafe { tile_avx(ap, bp, &mut out) };
        out
    }

    /// `c[j] += Σ_kk a[kk·a_stride] · b[kk·n + j]` (`b` is `k×n`
    /// row-major) for the leading multiple-of-8 columns; returns how many
    /// columns it covered. A call whose slices are too short for the
    /// shape does no work and returns 0.
    pub(super) fn row_b(
        self,
        a: &[f32],
        a_stride: usize,
        b: &[f32],
        (k, n): (usize, usize),
        c: &mut [f32],
    ) -> usize {
        if !fits(a, a_stride, b, (k, n)) || c.len() < n {
            return 0;
        }
        // SAFETY: `self` proves AVX is present; the check above bounds
        // every offset the kernel forms: `a` up to `(k-1)·a_stride`, `b`
        // below `k·n`, `c` below `n`.
        unsafe { row_b_avx(a.as_ptr(), a_stride, b.as_ptr(), (k, n), c.as_mut_ptr()) }
    }

    /// `c[j] += Σ_kk a[kk·a_stride] · b[j·k + kk]` (`b` stored `n×k`) for
    /// the leading multiple-of-8 columns, transposing 8×8 blocks of `b`
    /// in registers so lanes stay on columns; returns how many columns it
    /// covered. A call whose slices are too short for the shape does no
    /// work and returns 0.
    pub(super) fn row_bt(
        self,
        a: &[f32],
        a_stride: usize,
        b: &[f32],
        (k, n): (usize, usize),
        c: &mut [f32],
    ) -> usize {
        if !fits(a, a_stride, b, (k, n)) || c.len() < n {
            return 0;
        }
        // SAFETY: `self` proves AVX is present; the check above bounds
        // every offset the kernel forms: `a` up to `(k-1)·a_stride`, `b`
        // below `n·k`, `c` below `n`.
        unsafe { row_bt_avx(a.as_ptr(), a_stride, b.as_ptr(), (k, n), c.as_mut_ptr()) }
    }
}

/// `k ≥ 1`, `a[kk·a_stride]` is in bounds for every `kk < k`, and `b`
/// holds at least `k·n` values (no product overflows).
fn fits(a: &[f32], a_stride: usize, b: &[f32], (k, n): (usize, usize)) -> bool {
    let a_last = k.checked_sub(1).and_then(|k1| k1.checked_mul(a_stride));
    a_stride > 0
        && a_last.is_some_and(|last| last < a.len())
        && k.checked_mul(n).is_some_and(|kn| kn <= b.len())
}

/// The register tile behind [`Avx::tile`].
///
/// # Safety
///
/// Callers must guarantee AVX. Every read and write stays inside the
/// slice arguments.
#[target_feature(enable = "avx")]
unsafe fn tile_avx(ap: &[[f32; MR]], bp: &[[f32; NR]], out: &mut [[f32; NR]; MR]) {
    let mut acc = [[_mm256_setzero_ps(); 2]; MR];
    for (av, bv) in ap.iter().zip(bp) {
        let b0 = _mm256_loadu_ps(bv.as_ptr());
        let b1 = _mm256_loadu_ps(bv.as_ptr().add(W));
        for ([lo, hi], a) in acc.iter_mut().zip(av) {
            let a = _mm256_broadcast_ss(a);
            *lo = _mm256_add_ps(*lo, _mm256_mul_ps(a, b0));
            *hi = _mm256_add_ps(*hi, _mm256_mul_ps(a, b1));
        }
    }
    for (o, [lo, hi]) in out.iter_mut().zip(&acc) {
        _mm256_storeu_ps(o.as_mut_ptr(), *lo);
        _mm256_storeu_ps(o.as_mut_ptr().add(W), *hi);
    }
}

/// `*c.add(l) += acc[l]` for the 8 lanes.
///
/// # Safety
///
/// Callers must guarantee AVX and 8 writable floats at `c`.
#[target_feature(enable = "avx")]
unsafe fn add_store(c: *mut f32, acc: __m256) {
    _mm256_storeu_ps(c, _mm256_add_ps(_mm256_loadu_ps(c), acc));
}

/// The kernel behind [`Avx::row_b`]; returns the columns it covered.
///
/// # Safety
///
/// Callers must guarantee AVX, `a[kk·a_stride]` readable for `kk < k`,
/// `k·n` readable floats at `b` and `n` writable floats at `c`.
#[target_feature(enable = "avx")]
unsafe fn row_b_avx(
    a: *const f32,
    a_stride: usize,
    b: *const f32,
    (k, n): (usize, usize),
    c: *mut f32,
) -> usize {
    let mut j0 = 0;
    while j0 + 8 * W <= n {
        cols_b::<8>(a, a_stride, b.add(j0), (k, n), c.add(j0));
        j0 += 8 * W;
    }
    while j0 + W <= n {
        cols_b::<1>(a, a_stride, b.add(j0), (k, n), c.add(j0));
        j0 += W;
    }
    j0
}

/// `V` vectors of adjacent columns of a row-major `b` with leading
/// dimension `ldb`, one accumulator each.
///
/// # Safety
///
/// Callers must guarantee AVX, `a[kk·a_stride]` and
/// `b[kk·ldb .. kk·ldb + 8V]` readable for `kk < k`, and `8V` writable
/// floats at `c`.
#[target_feature(enable = "avx")]
unsafe fn cols_b<const V: usize>(
    a: *const f32,
    a_stride: usize,
    b: *const f32,
    (k, ldb): (usize, usize),
    c: *mut f32,
) {
    let mut acc = [_mm256_setzero_ps(); V];
    for kk in 0..k {
        let av = _mm256_broadcast_ss(&*a.add(kk * a_stride));
        let row = b.add(kk * ldb);
        for (v, acc_v) in acc.iter_mut().enumerate() {
            *acc_v = _mm256_add_ps(*acc_v, _mm256_mul_ps(av, _mm256_loadu_ps(row.add(v * W))));
        }
    }
    for (v, acc_v) in acc.iter().enumerate() {
        add_store(c.add(v * W), *acc_v);
    }
}

/// The kernel behind [`Avx::row_bt`]; returns the columns it covered.
///
/// # Safety
///
/// Callers must guarantee AVX, `a[kk·a_stride]` readable for `kk < k`,
/// `n·k` readable floats at `b` and `n` writable floats at `c`.
#[target_feature(enable = "avx")]
unsafe fn row_bt_avx(
    a: *const f32,
    a_stride: usize,
    b: *const f32,
    (k, n): (usize, usize),
    c: *mut f32,
) -> usize {
    let mut j0 = 0;
    // Two 8-column groups per pass: two independent accumulator chains.
    while j0 + 2 * W <= n {
        cols_bt::<2>(a, a_stride, b.add(j0 * k), k, c.add(j0));
        j0 += 2 * W;
    }
    if j0 + W <= n {
        cols_bt::<1>(a, a_stride, b.add(j0 * k), k, c.add(j0));
        j0 += W;
    }
    j0
}

/// `G` groups of 8 consecutive rows of an `n×k` `b` (8 output columns
/// each). Full 8-wide `kk` blocks are transposed in registers; the
/// `k % 8` tail is gathered lane by lane.
///
/// # Safety
///
/// Callers must guarantee AVX, `a[kk·a_stride]` readable for `kk < k`,
/// `8G·k` readable floats at `b` and `8G` writable floats at `c`.
#[target_feature(enable = "avx")]
unsafe fn cols_bt<const G: usize>(
    a: *const f32,
    a_stride: usize,
    b: *const f32,
    k: usize,
    c: *mut f32,
) {
    let mut acc = [_mm256_setzero_ps(); G];
    let k8 = k - k % W;
    let mut kk = 0;
    while kk < k8 {
        let mut avs = [_mm256_setzero_ps(); W];
        for (q, av) in avs.iter_mut().enumerate() {
            *av = _mm256_broadcast_ss(&*a.add((kk + q) * a_stride));
        }
        for (g, acc_g) in acc.iter_mut().enumerate() {
            let t = transpose8(b.add(g * W * k + kk), k);
            for (av, tq) in avs.iter().zip(&t) {
                *acc_g = _mm256_add_ps(*acc_g, _mm256_mul_ps(*av, *tq));
            }
        }
        kk += W;
    }
    while kk < k {
        let av = _mm256_broadcast_ss(&*a.add(kk * a_stride));
        for (g, acc_g) in acc.iter_mut().enumerate() {
            let p = b.add(g * W * k + kk);
            let col = _mm256_setr_ps(
                *p,
                *p.add(k),
                *p.add(2 * k),
                *p.add(3 * k),
                *p.add(4 * k),
                *p.add(5 * k),
                *p.add(6 * k),
                *p.add(7 * k),
            );
            *acc_g = _mm256_add_ps(*acc_g, _mm256_mul_ps(av, col));
        }
        kk += 1;
    }
    for (g, acc_g) in acc.iter().enumerate() {
        add_store(c.add(g * W), *acc_g);
    }
}

/// The 8×8 block at `p` (row `l` at `p + l·ld`, 8 floats each),
/// transposed: vector `q` holds element `q` of each of the 8 rows. Rows
/// `l` and `l + 4` share a register (low and high 128-bit half), so two
/// in-lane 4×4 transposes finish the job.
///
/// # Safety
///
/// Callers must guarantee AVX and 8 readable floats at `p + l·ld` for
/// every `l < 8`.
#[target_feature(enable = "avx")]
unsafe fn transpose8(p: *const f32, ld: usize) -> [__m256; W] {
    let [v0, v1, v2, v3] = transpose4(
        pair(p, ld, 0),
        pair(p, ld, 1),
        pair(p, ld, 2),
        pair(p, ld, 3),
    );
    let q = p.add(4);
    let [v4, v5, v6, v7] = transpose4(
        pair(q, ld, 0),
        pair(q, ld, 1),
        pair(q, ld, 2),
        pair(q, ld, 3),
    );
    [v0, v1, v2, v3, v4, v5, v6, v7]
}

/// Four floats of row `l` (low half) and of row `l + 4` (high half).
///
/// # Safety
///
/// Callers must guarantee AVX and 4 readable floats at `p + l·ld` and
/// at `p + (l+4)·ld`.
#[target_feature(enable = "avx")]
unsafe fn pair(p: *const f32, ld: usize, l: usize) -> __m256 {
    let lo = _mm256_castps128_ps256(_mm_loadu_ps(p.add(l * ld)));
    _mm256_insertf128_ps::<1>(lo, _mm_loadu_ps(p.add((l + 4) * ld)))
}

/// Transposes the 4×4 blocks held in the low and the high halves of
/// `r0..r3` independently.
#[target_feature(enable = "avx")]
fn transpose4(r0: __m256, r1: __m256, r2: __m256, r3: __m256) -> [__m256; 4] {
    let t0 = _mm256_unpacklo_ps(r0, r1);
    let t1 = _mm256_unpackhi_ps(r0, r1);
    let t2 = _mm256_unpacklo_ps(r2, r3);
    let t3 = _mm256_unpackhi_ps(r2, r3);
    [
        _mm256_shuffle_ps::<0x44>(t0, t2),
        _mm256_shuffle_ps::<0xEE>(t0, t2),
        _mm256_shuffle_ps::<0x44>(t1, t3),
        _mm256_shuffle_ps::<0xEE>(t1, t3),
    ]
}
