//! Packed, register-tiled single-precision matrix multiplication — the
//! compute kernel behind conv (im2col) and linear layers.
//!
//! # Summation-order contract
//!
//! Every kernel in this module computes each output element `c[i,j]` as a
//! **single f32 accumulator** over the products `a[i,kk] · b[kk,j]` in
//! **strictly ascending `kk`**, then adds the finished accumulator to the
//! caller's `c[i,j]` exactly once. No pairwise trees, no lane-interleaved
//! partial sums, no blocking over `k` that would flush intermediate totals
//! into `c` — and no fused multiply-add: every product is rounded to f32
//! before it is added, as in the scalar form, so the kernels use separate
//! multiply and add instructions (never FMA, never `mul_add`). Because
//! output elements are independent of each other, any tiling of the
//! `(i, j)` space — the production 4×16 register tile, the few-row path,
//! the runtime-sized tiles used by the proptests, and any disjoint row
//! partition a thread pool might apply — produces **bitwise identical**
//! results to the scalar [`reference`](mod@reference) kernels, on every ISA. The SIMD
//! speedup comes from mapping vector lanes across output *columns* (a
//! broadcast-saxpy form), which keeps each element's sum serial and
//! therefore order-exact.
//!
//! # Paths
//!
//! * **Tiled** (`m ≥ MR`): operands are packed into k-major panels first —
//!   `a` into `MR`-row panels (`ap[kk][r]`) and `b` into `NR`-column
//!   panels (`bp[kk][l]`) — so the microkernel streams both with unit
//!   stride and holds the whole `MR×NR` accumulator tile in registers
//!   across the `k` loop. The tile is 4×16: with AVX that is eight
//!   independent 256-bit accumulators (4 rows × 2 vectors), enough to keep
//!   the adds from waiting on each other. Edge tiles run the same kernel
//!   and add back only their live rows and columns.
//! * **Few rows** (`m < MR`, e.g. a batch-1 linear layer): nothing is
//!   packed; each output row streams `b` directly with independent
//!   per-column accumulators. A transposed `b` (a `Linear` weight) is
//!   transposed 8×8 at a time in registers, never in memory.
//! * Problems below `SMALL_FLOPS` multiply-adds go straight to
//!   [`reference`](mod@reference).
//!
//! # ISA dispatch
//!
//! Each GEMM call checks once whether the CPU has AVX (a cached feature
//! bit, see [`kernel_isa`]). With AVX the kernels of the `avx` submodule
//! run — the only `unsafe` code in the workspace; without it (and on
//! every non-x86 target) the portable kernels below do, written so the
//! compiler vectorizes them for the baseline ISA. Both share the packing
//! code and one thread-local scratch, and both are proptest-checked
//! against [`reference`](mod@reference) bit for bit.

use std::cell::RefCell;

#[cfg(target_arch = "x86_64")]
mod avx;

/// Rows per register tile.
const MR: usize = 4;
/// Columns per register tile: two 8-lane AVX vectors.
const NR: usize = 16;
/// Columns per accumulator block of the portable few-row kernel.
const LANES: usize = 8;

/// Problems with fewer multiply-adds than this go straight to the scalar
/// [`reference`](mod@reference) kernels: packing overhead dominates below it, and the
/// summation-order contract makes the dispatch invisible bitwise.
const SMALL_FLOPS: usize = 1024;

/// Scalar reference kernels implementing the module's summation-order
/// contract directly.
///
/// These are the semantics the tiled kernels are proptest-verified against
/// (bitwise), and the baseline the `bench compute` bin measures scalar
/// throughput with.
pub mod reference {
    /// `c += a · b` (`a` is `m×k`, `b` is `k×n`, `c` is `m×n`, row-major)
    /// in the documented summation order.
    ///
    /// # Panics
    ///
    /// Panics when the slice lengths do not match the dimensions.
    pub fn matmul(a: &[f32], b: &[f32], c: &mut [f32], m: usize, k: usize, n: usize) {
        assert_eq!(a.len(), m * k, "lhs size mismatch");
        assert_eq!(b.len(), k * n, "rhs size mismatch");
        assert_eq!(c.len(), m * n, "output size mismatch");
        for i in 0..m {
            let a_row = &a[i * k..(i + 1) * k];
            for j in 0..n {
                let mut acc = 0.0f32;
                for (kk, av) in a_row.iter().enumerate() {
                    acc += av * b[kk * n + j];
                }
                c[i * n + j] += acc;
            }
        }
    }

    /// `c += aᵀ · b` (`a` stored `k×m`, `b` is `k×n`, `c` is `m×n`) in the
    /// documented summation order.
    ///
    /// # Panics
    ///
    /// Panics when the slice lengths do not match the dimensions.
    pub fn matmul_at_b(a: &[f32], b: &[f32], c: &mut [f32], m: usize, k: usize, n: usize) {
        assert_eq!(a.len(), k * m, "lhs size mismatch");
        assert_eq!(b.len(), k * n, "rhs size mismatch");
        assert_eq!(c.len(), m * n, "output size mismatch");
        for i in 0..m {
            for j in 0..n {
                let mut acc = 0.0f32;
                for kk in 0..k {
                    acc += a[kk * m + i] * b[kk * n + j];
                }
                c[i * n + j] += acc;
            }
        }
    }

    /// `c += a · bᵀ` (`a` is `m×k`, `b` stored `n×k`, `c` is `m×n`) in the
    /// documented summation order.
    ///
    /// # Panics
    ///
    /// Panics when the slice lengths do not match the dimensions.
    pub fn matmul_a_bt(a: &[f32], b: &[f32], c: &mut [f32], m: usize, k: usize, n: usize) {
        assert_eq!(a.len(), m * k, "lhs size mismatch");
        assert_eq!(b.len(), n * k, "rhs size mismatch");
        assert_eq!(c.len(), m * n, "output size mismatch");
        for i in 0..m {
            let a_row = &a[i * k..(i + 1) * k];
            for j in 0..n {
                let b_row = &b[j * k..(j + 1) * k];
                let mut acc = 0.0f32;
                for (av, bv) in a_row.iter().zip(b_row) {
                    acc += av * bv;
                }
                c[i * n + j] += acc;
            }
        }
    }
}

/// The shared signature of every GEMM entry point in this module, so
/// layers can select a kernel kind with one fn-pointer assignment.
pub type Gemm = fn(&[f32], &[f32], &mut [f32], usize, usize, usize);

/// How the lhs operand is laid out in memory, telling the packer where
/// `a[i, kk]` lives.
#[derive(Clone, Copy, Debug)]
enum LhsLayout {
    /// `a[i, kk] = a[i·k + kk]` (`m×k` row-major).
    RowMajor,
    /// `a[i, kk] = a[kk·m + i]` (`k×m` row-major, i.e. a transposed use).
    Transposed,
}

/// How the rhs operand is laid out in memory, telling the packer where
/// `b[kk, j]` lives.
#[derive(Clone, Copy, Debug)]
enum RhsLayout {
    /// `b[kk, j] = b[kk·n + j]` (`k×n` row-major).
    RowMajor,
    /// `b[kk, j] = b[j·k + kk]` (`n×k` row-major, i.e. a transposed use).
    Transposed,
}

/// The instruction set the kernels run on, chosen once per GEMM call.
#[derive(Clone, Copy, Debug)]
enum Isa {
    /// 256-bit AVX lanes (the token proves the CPU has them).
    #[cfg(target_arch = "x86_64")]
    Avx(avx::Avx),
    /// The compiler-vectorized kernels of this file.
    Portable,
}

impl Isa {
    /// AVX when the CPU has it, the portable kernels otherwise.
    fn detect() -> Isa {
        #[cfg(target_arch = "x86_64")]
        if let Some(token) = avx::Avx::detect() {
            return Isa::Avx(token);
        }
        Isa::Portable
    }

    /// The `MR×NR` accumulator tile over the packed panels.
    fn tile(self, ap: &[[f32; MR]], bp: &[[f32; NR]]) -> [[f32; NR]; MR] {
        match self {
            #[cfg(target_arch = "x86_64")]
            Isa::Avx(token) => token.tile(ap, bp),
            Isa::Portable => tile_portable(ap, bp),
        }
    }

    /// One output row against a row-major `b`: `c[j] += Σ a[kk·a_stride]·b[kk·n + j]`.
    fn row_b(self, a: &[f32], a_stride: usize, b: &[f32], (k, n): (usize, usize), c: &mut [f32]) {
        let done = match self {
            #[cfg(target_arch = "x86_64")]
            Isa::Avx(token) => token.row_b(a, a_stride, b, (k, n), c),
            Isa::Portable => 0,
        };
        row_b_portable(a, a_stride, b, n, c, done);
    }

    /// One output row against a transposed `b`: `c[j] += Σ a[kk·a_stride]·b[j·k + kk]`.
    fn row_bt(self, a: &[f32], a_stride: usize, b: &[f32], (k, n): (usize, usize), c: &mut [f32]) {
        let done = match self {
            #[cfg(target_arch = "x86_64")]
            Isa::Avx(token) => token.row_bt(a, a_stride, b, (k, n), c),
            Isa::Portable => 0,
        };
        row_bt_portable(a, a_stride, b, k, c, done);
    }

    fn name(self) -> &'static str {
        match self {
            #[cfg(target_arch = "x86_64")]
            Isa::Avx(_) => "avx",
            Isa::Portable => "portable",
        }
    }
}

/// The kernel path GEMM calls take on this CPU: `"avx"` or `"portable"`.
pub fn kernel_isa() -> &'static str {
    Isa::detect().name()
}

/// Portable register tile: the same per-element ascending-`k` sums as the
/// AVX tile, left to the compiler's vectorizer.
fn tile_portable(ap: &[[f32; MR]], bp: &[[f32; NR]]) -> [[f32; NR]; MR] {
    let mut acc = [[0.0f32; NR]; MR];
    for (av, bv) in ap.iter().zip(bp) {
        for (acc_r, a) in acc.iter_mut().zip(av) {
            for (x, b) in acc_r.iter_mut().zip(bv) {
                *x += a * b;
            }
        }
    }
    acc
}

/// Columns `j_start..` of one few-row output row against a row-major `b`
/// (`k×n`), `LANES` independent column accumulators at a time.
fn row_b_portable(a: &[f32], a_stride: usize, b: &[f32], n: usize, c: &mut [f32], j_start: usize) {
    let Some(tail) = c.get_mut(j_start..) else {
        return;
    };
    for (blk, c_blk) in tail.chunks_mut(LANES).enumerate() {
        let j0 = j_start + blk * LANES;
        let mut acc = [0.0f32; LANES];
        for (av, b_row) in a.iter().step_by(a_stride).zip(b.chunks_exact(n)) {
            for (x, bv) in acc.iter_mut().zip(b_row.iter().skip(j0)) {
                *x += av * bv;
            }
        }
        for (cv, x) in c_blk.iter_mut().zip(&acc) {
            *cv += x;
        }
    }
}

/// Columns `j_start..` of one few-row output row against a transposed `b`
/// (`n×k`): one serial dot product per column.
fn row_bt_portable(a: &[f32], a_stride: usize, b: &[f32], k: usize, c: &mut [f32], j_start: usize) {
    let cols = b.chunks_exact(k).skip(j_start);
    for (cv, col) in c.iter_mut().skip(j_start).zip(cols) {
        let mut acc = 0.0f32;
        for (av, bv) in a.iter().step_by(a_stride).zip(col) {
            acc += av * bv;
        }
        *cv += acc;
    }
}

/// Per-thread packed panels, reused across calls so the hot inference
/// path performs no heap allocation after warm-up. Padded lanes of a
/// partial tile are never added to `c`, so stale contents cannot leak
/// into results.
struct PackScratch {
    a: Vec<[f32; MR]>,
    b: Vec<[f32; NR]>,
}

thread_local! {
    static SCRATCH: RefCell<PackScratch> = const {
        RefCell::new(PackScratch { a: Vec::new(), b: Vec::new() })
    };
}

/// Packs the `b` panel for the columns `j0..` (at most `NR`) into `bp` as
/// `bp[kk][l] = b[kk, j0+l]`; lanes past the last column are left
/// untouched.
fn pack_rhs(b: &[f32], bp: &mut [[f32; NR]], layout: RhsLayout, k: usize, n: usize, j0: usize) {
    match layout {
        RhsLayout::RowMajor => {
            for (lanes, src) in bp.iter_mut().zip(b.chunks_exact(n)) {
                for (lane, &v) in lanes.iter_mut().zip(src.iter().skip(j0)) {
                    *lane = v;
                }
            }
        }
        RhsLayout::Transposed => {
            for (l, col) in b.chunks_exact(k).skip(j0).take(NR).enumerate() {
                for (lanes, &v) in bp.iter_mut().zip(col) {
                    lanes[l] = v;
                }
            }
        }
    }
}

/// Packs the `a` panel for the rows `i0..i0+mr` into `ap` as
/// `ap[kk][r] = a[i0+r, kk]`; rows `r >= mr` are left untouched.
fn pack_lhs(
    a: &[f32],
    ap: &mut [[f32; MR]],
    layout: LhsLayout,
    (m, k): (usize, usize),
    i0: usize,
    mr: usize,
) {
    match layout {
        LhsLayout::RowMajor => {
            for (r, row) in a.chunks_exact(k).skip(i0).take(mr).enumerate() {
                for (lanes, &v) in ap.iter_mut().zip(row) {
                    lanes[r] = v;
                }
            }
        }
        LhsLayout::Transposed => {
            for (lanes, src) in ap.iter_mut().zip(a.chunks_exact(m)) {
                lanes[..mr].copy_from_slice(&src[i0..i0 + mr]);
            }
        }
    }
}

/// The GEMM every entry point lands on once small problems are routed to
/// [`reference`](mod@reference): `c += a·b` with `a`, `b` read through their layouts.
/// Requires `m, k, n ≥ 1` and slices of the documented lengths.
fn gemm(
    a: &[f32],
    b: &[f32],
    c: &mut [f32],
    (m, k, n): (usize, usize, usize),
    (lhs, rhs): (LhsLayout, RhsLayout),
    isa: Isa,
) {
    if m < MR {
        gemm_few_rows(a, b, c, (m, k, n), (lhs, rhs), isa);
    } else {
        gemm_tiled(a, b, c, (m, k, n), (lhs, rhs), isa);
    }
}

/// Few-row path: each output row streams `b` in place, no packing.
fn gemm_few_rows(
    a: &[f32],
    b: &[f32],
    c: &mut [f32],
    (m, k, n): (usize, usize, usize),
    (lhs, rhs): (LhsLayout, RhsLayout),
    isa: Isa,
) {
    for (i, c_row) in c.chunks_exact_mut(n).enumerate() {
        // Row `i` of `a` as a strided view: `a[i, kk] = a_row[kk·stride]`.
        let (a_row, a_stride) = match lhs {
            LhsLayout::RowMajor => (a.get(i * k..).unwrap_or_default(), 1),
            LhsLayout::Transposed => (a.get(i..).unwrap_or_default(), m),
        };
        match rhs {
            RhsLayout::RowMajor => isa.row_b(a_row, a_stride, b, (k, n), c_row),
            RhsLayout::Transposed => isa.row_bt(a_row, a_stride, b, (k, n), c_row),
        }
    }
}

/// Tiled path: packs `b` once into k-major `NR`-wide panels, then streams
/// `MR`-row packed panels of `a` through the register tile and adds each
/// tile's live part to `c`.
fn gemm_tiled(
    a: &[f32],
    b: &[f32],
    c: &mut [f32],
    (m, k, n): (usize, usize, usize),
    (lhs, rhs): (LhsLayout, RhsLayout),
    isa: Isa,
) {
    SCRATCH.with(|s| {
        let mut s = s.borrow_mut();
        let PackScratch { a: ap, b: bp } = &mut *s;
        ap.resize(k, [0.0; MR]);
        bp.resize(n.div_ceil(NR) * k, [0.0; NR]);
        for (jb, panel) in bp.chunks_exact_mut(k).enumerate() {
            pack_rhs(b, panel, rhs, k, n, jb * NR);
        }
        for (ib, c_rows) in c.chunks_mut(MR * n).enumerate() {
            pack_lhs(a, ap, lhs, (m, k), ib * MR, c_rows.len() / n);
            for (jb, panel) in bp.chunks_exact(k).enumerate() {
                let tile = isa.tile(ap, panel);
                for (c_row, t_row) in c_rows.chunks_exact_mut(n).zip(&tile) {
                    for (cv, t) in c_row.iter_mut().skip(jb * NR).zip(t_row) {
                        *cv += t;
                    }
                }
            }
        }
    });
}

/// `c += a · b` where `a` is `m×k`, `b` is `k×n`, `c` is `m×n`, all
/// row-major.
///
/// Packed 4×16 register-tiled kernel (few-row path below 4 rows);
/// bitwise identical to [`reference::matmul`] (see the module docs for
/// the summation-order contract). Small problems dispatch to the
/// reference kernel directly.
///
/// # Panics
///
/// Panics when the slice lengths do not match the dimensions.
pub fn matmul(a: &[f32], b: &[f32], c: &mut [f32], m: usize, k: usize, n: usize) {
    assert_eq!(a.len(), m * k, "lhs size mismatch");
    assert_eq!(b.len(), k * n, "rhs size mismatch");
    assert_eq!(c.len(), m * n, "output size mismatch");
    if m * k * n <= SMALL_FLOPS {
        reference::matmul(a, b, c, m, k, n);
        return;
    }
    let layout = (LhsLayout::RowMajor, RhsLayout::RowMajor);
    gemm(a, b, c, (m, k, n), layout, Isa::detect());
}

/// `c += aᵀ · b` where `a` is `k×m` (transposed use), `b` is `k×n`,
/// `c` is `m×n`.
///
/// Same kernels as [`matmul`] — only the `a` access differs — and
/// bitwise identical to [`reference::matmul_at_b`].
///
/// # Panics
///
/// Panics when the slice lengths do not match the dimensions.
pub fn matmul_at_b(a: &[f32], b: &[f32], c: &mut [f32], m: usize, k: usize, n: usize) {
    assert_eq!(a.len(), k * m, "lhs size mismatch");
    assert_eq!(b.len(), k * n, "rhs size mismatch");
    assert_eq!(c.len(), m * n, "output size mismatch");
    if m * k * n <= SMALL_FLOPS {
        reference::matmul_at_b(a, b, c, m, k, n);
        return;
    }
    let layout = (LhsLayout::Transposed, RhsLayout::RowMajor);
    gemm(a, b, c, (m, k, n), layout, Isa::detect());
}

/// `c += a · bᵀ` where `a` is `m×k`, `b` is `n×k`, `c` is `m×n`.
///
/// Packing `b`'s rows into k-major panels turns the per-output dot products
/// of the scalar form into the same broadcast-saxpy tile as [`matmul`];
/// below 4 rows (a batch-1 `Linear`) `b` is read in place instead.
/// Bitwise identical to [`reference::matmul_a_bt`].
///
/// # Panics
///
/// Panics when the slice lengths do not match the dimensions.
pub fn matmul_a_bt(a: &[f32], b: &[f32], c: &mut [f32], m: usize, k: usize, n: usize) {
    assert_eq!(a.len(), m * k, "lhs size mismatch");
    assert_eq!(b.len(), n * k, "rhs size mismatch");
    assert_eq!(c.len(), m * n, "output size mismatch");
    if m * k * n <= SMALL_FLOPS {
        reference::matmul_a_bt(a, b, c, m, k, n);
        return;
    }
    let layout = (LhsLayout::RowMajor, RhsLayout::Transposed);
    gemm(a, b, c, (m, k, n), layout, Isa::detect());
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// Independent high-precision oracle: accumulates in f64 to bound the
    /// f32 kernels' rounding error.
    fn naive_f64(a: &[f32], b: &[f32], m: usize, k: usize, n: usize) -> Vec<f64> {
        let mut c = vec![0.0f64; m * n];
        for i in 0..m {
            for j in 0..n {
                for kk in 0..k {
                    c[i * n + j] += f64::from(a[i * k + kk]) * f64::from(b[kk * n + j]);
                }
            }
        }
        c
    }

    /// Magnitude scale for error bounds: Σ|a[i,kk]·b[kk,j]| per element.
    fn abs_scale(a: &[f32], b: &[f32], m: usize, k: usize, n: usize) -> Vec<f32> {
        let mut c = vec![0.0f32; m * n];
        for i in 0..m {
            for j in 0..n {
                for kk in 0..k {
                    c[i * n + j] += (a[i * k + kk] * b[kk * n + j]).abs();
                }
            }
        }
        c
    }

    /// Runtime-tiled kernel with arbitrary `(mr, nr)` tile sizes and the
    /// same per-element ascending-k accumulation — used to prove the
    /// summation-order contract holds at *any* lane count, not just the
    /// production 4×16 tile.
    #[allow(clippy::too_many_arguments)] // the GEMM signature plus the two tile sizes under test
    fn gemm_any_tile(
        a: &[f32],
        b: &[f32],
        c: &mut [f32],
        m: usize,
        k: usize,
        n: usize,
        mr_tile: usize,
        nr_tile: usize,
    ) {
        let mut j0 = 0;
        while j0 < n {
            let nr = nr_tile.min(n - j0);
            // Pack b panel k-major at this tile width.
            let mut bp = vec![0.0f32; k * nr];
            for kk in 0..k {
                bp[kk * nr..(kk + 1) * nr].copy_from_slice(&b[kk * n + j0..kk * n + j0 + nr]);
            }
            let mut i0 = 0;
            while i0 < m {
                let mr = mr_tile.min(m - i0);
                let mut acc = vec![0.0f32; mr * nr];
                for kk in 0..k {
                    for r in 0..mr {
                        let ar = a[(i0 + r) * k + kk];
                        for l in 0..nr {
                            acc[r * nr + l] += ar * bp[kk * nr + l];
                        }
                    }
                }
                for r in 0..mr {
                    for l in 0..nr {
                        c[(i0 + r) * n + j0 + l] += acc[r * nr + l];
                    }
                }
                i0 += mr;
            }
            j0 += nr;
        }
    }

    fn lcg_data(seed: u64, len: usize) -> Vec<f32> {
        let mut state = seed;
        (0..len)
            .map(|_| {
                state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
                ((state >> 33) as f32 / (1u64 << 31) as f32) - 0.5
            })
            .collect()
    }

    #[test]
    fn small_known_product() {
        // [[1,2],[3,4]] * [[5,6],[7,8]] = [[19,22],[43,50]]
        let a = [1.0, 2.0, 3.0, 4.0];
        let b = [5.0, 6.0, 7.0, 8.0];
        let mut c = vec![0.0; 4];
        matmul(&a, &b, &mut c, 2, 2, 2);
        assert_eq!(c, vec![19.0, 22.0, 43.0, 50.0]);
    }

    #[test]
    fn accumulates_into_c() {
        let a = [1.0];
        let b = [2.0];
        let mut c = vec![10.0];
        matmul(&a, &b, &mut c, 1, 1, 1);
        assert_eq!(c, vec![12.0]);
    }

    #[test]
    #[should_panic(expected = "size mismatch")]
    fn dimension_check() {
        let mut c = vec![0.0; 4];
        matmul(&[0.0; 3], &[0.0; 4], &mut c, 2, 2, 2);
    }

    #[test]
    fn large_shapes_hit_the_tiled_path_and_match_reference_bitwise() {
        // Big enough to clear SMALL_FLOPS with full tiles and edges in
        // both dimensions (m % MR != 0, n % NR != 0).
        let (m, k, n) = (13, 67, 29);
        let a = lcg_data(1, m * k);
        let b = lcg_data(2, k * n);
        let mut c_ref = lcg_data(3, m * n);
        let mut c_tiled = c_ref.clone();
        reference::matmul(&a, &b, &mut c_ref, m, k, n);
        matmul(&a, &b, &mut c_tiled, m, k, n);
        for (x, y) in c_tiled.iter().zip(&c_ref) {
            assert_eq!(x.to_bits(), y.to_bits());
        }
    }

    /// The kernel paths under test: the one [`Isa::detect`] dispatches to
    /// and the portable kernels called directly (the two coincide on a
    /// CPU without AVX).
    fn isas() -> [Isa; 2] {
        [Isa::detect(), Isa::Portable]
    }

    /// Bit equality, except that any two NaNs match: IEEE 754 leaves the
    /// payload of a NaN-producing operation to the implementation, and
    /// the compiler may commute the operands of the scalar reference's
    /// adds. Every other result, signed zeros included, must match bit
    /// for bit.
    fn same_bits(x: f32, y: f32) -> bool {
        x.to_bits() == y.to_bits() || (x.is_nan() && y.is_nan())
    }

    /// Ordinary values with ±0.0, subnormals, ±∞ and NaN mixed in.
    fn special_data(seed: u64, len: usize) -> Vec<f32> {
        const SPECIAL: [f32; 8] = [
            0.0,
            -0.0,
            1.0e-40,
            -3.0e-39,
            f32::INFINITY,
            f32::NEG_INFINITY,
            f32::NAN,
            1.0e30,
        ];
        let pick = lcg_data(seed ^ 0x5eed, len);
        lcg_data(seed, len)
            .into_iter()
            .zip(pick)
            .enumerate()
            .map(|(i, (v, p))| {
                if p > 0.3 {
                    SPECIAL[i % SPECIAL.len()]
                } else {
                    v
                }
            })
            .collect()
    }

    /// `(a, b)` in all three layouts of one logical product `a·b` (`a` is
    /// `m×k`, `b` is `k×n`): row-major, `a` stored transposed, `b` stored
    /// transposed.
    fn layouts(
        a: &[f32],
        b: &[f32],
        m: usize,
        k: usize,
        n: usize,
    ) -> [(Vec<f32>, Vec<f32>, LhsLayout, RhsLayout); 3] {
        let mut at = vec![0.0; k * m];
        for i in 0..m {
            for kk in 0..k {
                at[kk * m + i] = a[i * k + kk];
            }
        }
        let mut bt = vec![0.0; n * k];
        for kk in 0..k {
            for j in 0..n {
                bt[j * k + kk] = b[kk * n + j];
            }
        }
        [
            (
                a.to_vec(),
                b.to_vec(),
                LhsLayout::RowMajor,
                RhsLayout::RowMajor,
            ),
            (at, b.to_vec(), LhsLayout::Transposed, RhsLayout::RowMajor),
            (a.to_vec(), bt, LhsLayout::RowMajor, RhsLayout::Transposed),
        ]
    }

    /// Runs every layout through every ISA path (bypassing the
    /// small-problem dispatch) and through the matching reference kernel;
    /// returns the first mismatch.
    fn isa_mismatch(
        a: &[f32],
        b: &[f32],
        c0: &[f32],
        m: usize,
        k: usize,
        n: usize,
    ) -> Option<String> {
        for (la, lb, lhs, rhs) in layouts(a, b, m, k, n) {
            let mut want = c0.to_vec();
            let reference: Gemm = match (lhs, rhs) {
                (LhsLayout::RowMajor, RhsLayout::RowMajor) => reference::matmul,
                (LhsLayout::Transposed, _) => reference::matmul_at_b,
                (_, RhsLayout::Transposed) => reference::matmul_a_bt,
            };
            reference(&la, &lb, &mut want, m, k, n);
            for isa in isas() {
                let mut got = c0.to_vec();
                gemm(&la, &lb, &mut got, (m, k, n), (lhs, rhs), isa);
                if let Some(e) = (0..m * n).find(|&e| !same_bits(got[e], want[e])) {
                    return Some(format!(
                        "{isa:?} {lhs:?}/{rhs:?} {m}x{k}x{n} element {e}: {} vs reference {}",
                        got[e], want[e]
                    ));
                }
            }
        }
        None
    }

    #[test]
    fn layer_shapes_match_reference_bitwise_on_both_isa_paths() {
        // The conv im2col GEMM and the batch-1 policy FC of the bench
        // preset, a two-filter head conv, and a batch-3 FC.
        for (m, k, n) in [(16, 144, 256), (1, 512, 256), (2, 16, 256), (3, 37, 41)] {
            let a = lcg_data(11, m * k);
            let b = lcg_data(12, k * n);
            let c0 = lcg_data(13, m * n);
            assert_eq!(isa_mismatch(&a, &b, &c0, m, k, n), None);
        }
    }

    #[test]
    fn edge_shapes_match_reference_bitwise_on_both_isa_paths() {
        // Every few-row count, k = 1 and the 8-wide transpose boundary,
        // and every column edge of the 16- and 8-lane kernels.
        for m in 1..=5 {
            for k in [1, 7, 8, 9, 17] {
                for n in [1, 7, 8, 9, 15, 16, 17, 24, 33] {
                    for (seed, data) in [
                        (1, lcg_data as fn(u64, usize) -> Vec<f32>),
                        (2, special_data),
                    ] {
                        let a = data(seed, m * k);
                        let b = data(seed + 10, k * n);
                        let c0 = data(seed + 20, m * n);
                        assert_eq!(isa_mismatch(&a, &b, &c0, m, k, n), None);
                    }
                }
            }
        }
    }

    #[test]
    fn dispatch_names_the_running_isa() {
        assert_eq!(kernel_isa(), Isa::detect().name());
        assert!(["avx", "portable"].contains(&kernel_isa()));
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]

        /// The tiled kernels are bitwise-identical to the scalar reference
        /// under the documented summation order, for all three operand
        /// layouts, including accumulation into a non-zero `c`.
        #[test]
        fn tiled_matches_reference_bitwise(
            m in 1usize..12, k in 1usize..70, n in 1usize..20,
            seed in 0u64..1000,
        ) {
            let a = lcg_data(seed, m * k);
            let b = lcg_data(seed ^ 0x9e3779b97f4a7c15, k * n);
            let c0 = lcg_data(seed ^ 0xdeadbeef, m * n);

            let mut want = c0.clone();
            reference::matmul(&a, &b, &mut want, m, k, n);
            let mut c = c0.clone();
            matmul(&a, &b, &mut c, m, k, n);
            for (x, y) in c.iter().zip(&want) {
                prop_assert_eq!(x.to_bits(), y.to_bits());
            }

            // aᵀ · b with a stored transposed.
            let mut at = vec![0.0; k * m];
            for i in 0..m { for kk in 0..k { at[kk * m + i] = a[i * k + kk]; } }
            let mut want2 = c0.clone();
            reference::matmul_at_b(&at, &b, &mut want2, m, k, n);
            let mut c2 = c0.clone();
            matmul_at_b(&at, &b, &mut c2, m, k, n);
            for (x, y) in want2.iter().zip(&want) {
                prop_assert_eq!(x.to_bits(), y.to_bits(), "reference layouts disagree");
            }
            for (x, y) in c2.iter().zip(&want2) {
                prop_assert_eq!(x.to_bits(), y.to_bits());
            }

            // a · bᵀ with b stored transposed.
            let mut bt = vec![0.0; n * k];
            for kk in 0..k { for j in 0..n { bt[j * k + kk] = b[kk * n + j]; } }
            let mut want3 = c0.clone();
            reference::matmul_a_bt(&a, &bt, &mut want3, m, k, n);
            let mut c3 = c0.clone();
            matmul_a_bt(&a, &bt, &mut c3, m, k, n);
            for (x, y) in want3.iter().zip(&want) {
                prop_assert_eq!(x.to_bits(), y.to_bits(), "reference layouts disagree");
            }
            for (x, y) in c3.iter().zip(&want3) {
                prop_assert_eq!(x.to_bits(), y.to_bits());
            }
        }

        /// Both ISA paths, called directly, equal the reference bit for
        /// bit in all three layouts: few-row (`m < 4`) and tiled shapes
        /// with row and column edges (`m % 4`, `n % 16`, `n % 8` ≠ 0),
        /// `k = 1`, a non-zero `c`, and operands holding ±0.0,
        /// subnormals, ±∞ and NaN.
        #[test]
        fn both_isa_paths_match_reference_bitwise(
            m in 1usize..14, k in 1usize..40, n in 1usize..50,
            special in 0u8..2,
            seed in 0u64..1000,
        ) {
            let data = if special == 1 { special_data } else { lcg_data };
            let a = data(seed, m * k);
            let b = data(seed ^ 0x9e3779b97f4a7c15, k * n);
            let c0 = data(seed ^ 0xdeadbeef, m * n);
            let mismatch = isa_mismatch(&a, &b, &c0, m, k, n);
            prop_assert!(mismatch.is_none(), "{}", mismatch.unwrap_or_default());
        }

        /// Any lane count / tile size yields the same bits: the contract is
        /// a property of the per-element summation order, not of the 4×16
        /// production tile.
        #[test]
        fn any_tile_size_is_bitwise_identical(
            m in 1usize..10, k in 1usize..50, n in 1usize..18,
            seed in 0u64..1000,
        ) {
            let a = lcg_data(seed, m * k);
            let b = lcg_data(seed ^ 0xabcdef, k * n);
            let mut want = vec![0.0f32; m * n];
            reference::matmul(&a, &b, &mut want, m, k, n);
            for &(mr, nr) in &[(1usize, 1usize), (1, 4), (2, 8), (4, 8), (8, 16), (3, 5)] {
                let mut c = vec![0.0f32; m * n];
                gemm_any_tile(&a, &b, &mut c, m, k, n, mr, nr);
                for (x, y) in c.iter().zip(&want) {
                    prop_assert_eq!(x.to_bits(), y.to_bits(), "tile {}x{}", mr, nr);
                }
            }
        }

        /// Cross-check against an independent f64 oracle with a tight
        /// magnitude-scaled (ulp-level) bound — per-element error of an
        /// ascending-k f32 sum is at most ~k ulps of the absolute-value
        /// scale, far tighter than the old fixed `1e-3` tolerance.
        #[test]
        fn reference_is_ulp_close_to_f64_oracle(
            m in 1usize..8, k in 1usize..70, n in 1usize..8,
            seed in 0u64..1000,
        ) {
            let a = lcg_data(seed, m * k);
            let b = lcg_data(seed ^ 0x5bd1e995, k * n);
            let oracle = naive_f64(&a, &b, m, k, n);
            let scale = abs_scale(&a, &b, m, k, n);
            let mut c = vec![0.0f32; m * n];
            reference::matmul(&a, &b, &mut c, m, k, n);
            for ((x, y), s) in c.iter().zip(&oracle).zip(&scale) {
                let bound = f64::from(k as f32 * f32::EPSILON * s.max(f32::MIN_POSITIVE));
                prop_assert!(
                    (f64::from(*x) - y).abs() <= bound,
                    "err {} > bound {}", (f64::from(*x) - y).abs(), bound
                );
            }
        }
    }
}
