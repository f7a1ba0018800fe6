//! 2-D convolution (stride 1, "same" padding) via im2col + GEMM.

use crate::infer::InferenceCtx;
use crate::layer::{Layer, Param};
use crate::matmul::{matmul, matmul_a_bt, matmul_at_b};
use crate::tensor::Tensor;
use mmp_pool::ThreadPool;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use serde::{Deserialize, Serialize};

/// Samples per parallel backward region. Each sample's dW/db partial sits
/// in one row of a `SAMPLE_BLOCK`-row buffer until it is folded, so even
/// the paper's 128-channel tower (147 584 floats per partial) holds a
/// bounded 8 rows, never one per sample of the minibatch.
const SAMPLE_BLOCK: usize = 8;

/// One worker's training workspace: the im2col columns of its current
/// sample and their gradient.
struct ConvScratch {
    cols: Vec<f32>,
    dcols: Vec<f32>,
}

/// A `Conv2d` layer: `in_channels → out_channels`, square odd kernel,
/// stride 1, same padding — the convolution used throughout Table I
/// (3×3 in the trunk, 1×1 in the heads).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Conv2d {
    in_channels: usize,
    out_channels: usize,
    kernel: usize,
    /// Weights shaped `[out_channels, in_channels·k·k]`.
    weight: Param,
    /// Bias shaped `[out_channels]`.
    bias: Param,
    #[serde(skip)]
    cached_input: Option<Tensor>,
}

impl Conv2d {
    /// Creates a convolution with He-normal initialised weights
    /// (deterministic in `seed`).
    ///
    /// # Panics
    ///
    /// Panics for an even kernel size (same padding needs odd kernels).
    pub fn new(in_channels: usize, out_channels: usize, kernel: usize, seed: u64) -> Self {
        assert!(kernel % 2 == 1, "same padding requires an odd kernel");
        let fan_in = in_channels * kernel * kernel;
        let std = (2.0 / fan_in as f32).sqrt();
        let mut rng = SmallRng::seed_from_u64(seed ^ 0xC04);
        let weight: Vec<f32> = (0..out_channels * fan_in)
            .map(|_| gaussian(&mut rng) * std)
            .collect();
        Conv2d {
            in_channels,
            out_channels,
            kernel,
            weight: Param::new(Tensor::from_vec(&[out_channels, fan_in], weight)),
            bias: Param::new(Tensor::zeros(&[out_channels])),
            cached_input: None,
        }
    }

    /// Output channel count.
    pub fn out_channels(&self) -> usize {
        self.out_channels
    }

    /// im2col for one sample into a caller-provided `[C·k·k, H·W]` buffer.
    ///
    /// Padding positions are never written, so the buffer must start
    /// zeroed; in-bounds positions are fully overwritten, so the same
    /// buffer can be reused across samples without re-zeroing.
    fn im2col_into(&self, sample: &[f32], h: usize, w: usize, cols: &mut [f32]) {
        let hw = h * w;
        let planes = sample.chunks_exact(hw).take(self.in_channels);
        for (rows, plane) in cols
            .chunks_exact_mut(self.kernel * self.kernel * hw)
            .zip(planes)
        {
            for (tap, out_row) in rows.chunks_exact_mut(hw).enumerate() {
                let span = TapSpan::new(self.kernel, tap, h, w);
                for y in span.ys.clone() {
                    let (dst, src) = span.row(y);
                    out_row[dst].copy_from_slice(&plane[src]);
                }
            }
        }
    }

    /// Scatter-add of column gradients back to an input-shaped buffer.
    fn col2im(&self, cols_grad: &[f32], h: usize, w: usize, out: &mut [f32]) {
        let hw = h * w;
        let planes = out.chunks_exact_mut(hw).take(self.in_channels);
        for (rows, plane) in cols_grad
            .chunks_exact(self.kernel * self.kernel * hw)
            .zip(planes)
        {
            for (tap, col_row) in rows.chunks_exact(hw).enumerate() {
                let span = TapSpan::new(self.kernel, tap, h, w);
                for y in span.ys.clone() {
                    let (src, dst) = span.row(y);
                    for (d, g) in plane[dst].iter_mut().zip(&col_row[src]) {
                        *d += g;
                    }
                }
            }
        }
    }
}

/// The in-bounds part of one kernel tap's im2col row under same padding:
/// output pixel `(y, x)` reads input pixel `(y + ky − pad, x + kx − pad)`,
/// which exists exactly for `y ∈ ys` and `x ∈ xs`.
struct TapSpan {
    ys: std::ops::Range<usize>,
    xs: std::ops::Range<usize>,
    /// Kernel row and column of the tap (offsets `ky − pad`, `kx − pad`
    /// are applied where they cannot underflow).
    ky: usize,
    kx: usize,
    pad: usize,
    w: usize,
}

impl TapSpan {
    fn new(kernel: usize, tap: usize, h: usize, w: usize) -> TapSpan {
        let pad = kernel / 2;
        let (ky, kx) = (tap / kernel, tap % kernel);
        let range = |k: usize, len: usize| {
            let lo = pad.saturating_sub(k);
            lo..(len + pad).saturating_sub(k).min(len).max(lo)
        };
        let xs = range(kx, w);
        // A tap that misses every column (kernel wider than the image)
        // copies nothing.
        let ys = if xs.is_empty() { 0..0 } else { range(ky, h) };
        TapSpan {
            ys,
            xs,
            ky,
            kx,
            pad,
            w,
        }
    }

    /// `(column-row range, input-plane range)` of output row `y ∈ ys`.
    fn row(&self, y: usize) -> (std::ops::Range<usize>, std::ops::Range<usize>) {
        let out = y * self.w + self.xs.start;
        let src = (y + self.ky - self.pad) * self.w + (self.xs.start + self.kx - self.pad);
        let len = self.xs.len();
        (out..out + len, src..src + len)
    }
}

impl Conv2d {
    /// Training-mode forward with the minibatch's samples split over
    /// `exec` (each worker im2cols into its own scratch and writes only its
    /// samples' output planes), caching the input for
    /// [`Conv2d::backward_pooled`]. Samples are independent, so the output
    /// is bitwise identical at every worker count.
    ///
    /// # Panics
    ///
    /// Panics when the input is not NCHW with this layer's channel count.
    pub fn forward_pooled(&mut self, input: &Tensor, exec: &ThreadPool) -> Tensor {
        // why: documented panic: a non-NCHW input is a network wiring bug.
        #[allow(clippy::expect_used)]
        let [n, c, h, w]: [usize; 4] = input.shape().try_into().expect("conv input is NCHW");
        assert_eq!(c, self.in_channels, "channel mismatch");
        let (hw, f) = (h * w, self.out_channels);
        let ckk = self.in_channels * self.kernel * self.kernel;
        let mut out = Tensor::zeros(&[n, f, h, w]);
        let mut samples: Vec<(&[f32], &mut [f32])> = input
            .as_slice()
            .chunks_exact(c * hw)
            .zip(out.as_mut_slice().chunks_exact_mut(f * hw))
            .collect();
        let mut cols = vec![vec![0.0f32; ckk * hw]; exec.workers()];
        let (weight, bias) = (self.weight.value.as_slice(), self.bias.value.as_slice());
        exec.for_each_chunk_mut_with_scratch(&mut samples, 1, &mut cols, |_, one, cols| {
            for (sample, out_s) in one.iter_mut() {
                self.im2col_into(sample, h, w, cols);
                matmul(weight, cols, out_s, f, ckk, hw);
                for (plane, &b) in out_s.chunks_exact_mut(hw).zip(bias) {
                    for v in plane {
                        *v += b;
                    }
                }
            }
        });
        self.cached_input = Some(input.clone());
        out
    }

    /// Backward pass for the cached [`Conv2d::forward_pooled`] input with
    /// the samples split over `exec`.
    ///
    /// Every sample's dW/db contribution is computed into its own partial
    /// row pre-filled with −0.0 (so the GEMM's `c += acc` leaves exactly
    /// `acc`, signed zeros included), then folded into the accumulated
    /// gradients on the caller in ascending sample order — the same
    /// `grad += acc₀; grad += acc₁; …` chain as a one-sample-at-a-time
    /// pass, so gradients are bitwise identical at every worker count.
    /// Samples run in blocks of `SAMPLE_BLOCK` to bound the partial rows.
    ///
    /// # Panics
    ///
    /// Panics without a preceding training forward.
    pub fn backward_pooled(&mut self, grad_out: &Tensor, exec: &ThreadPool) -> Tensor {
        // why: documented panic: backward must follow a training forward.
        #[allow(clippy::expect_used)]
        let input = self.cached_input.take().expect("backward without forward");
        // why: invariant, not input: forward_pooled only caches NCHW inputs.
        #[allow(clippy::expect_used)]
        let [n, c, h, w]: [usize; 4] = input.shape().try_into().expect("cached input is NCHW");
        let (hw, f) = (h * w, self.out_channels);
        let ckk = self.in_channels * self.kernel * self.kernel;
        let wlen = f * ckk;
        let mut grad_in = Tensor::zeros(&[n, c, h, w]);
        let mut samples: Vec<(&[f32], &[f32], &mut [f32])> = input
            .as_slice()
            .chunks_exact(c * hw)
            .zip(grad_out.as_slice().chunks_exact(f * hw))
            .zip(grad_in.as_mut_slice().chunks_exact_mut(c * hw))
            .map(|((x, g), gi)| (x, g, gi))
            .collect();
        let mut scratch: Vec<ConvScratch> = (0..exec.workers())
            .map(|_| ConvScratch {
                cols: vec![0.0; ckk * hw],
                dcols: vec![0.0; ckk * hw],
            })
            .collect();
        let mut partials = vec![0.0f32; SAMPLE_BLOCK.min(n) * (wlen + f)];
        let weight = self.weight.value.as_slice();
        for block in samples.chunks_mut(SAMPLE_BLOCK) {
            partials.fill(-0.0);
            let mut work: Vec<_> = block
                .iter_mut()
                .zip(partials.chunks_exact_mut(wlen + f))
                .collect();
            exec.for_each_chunk_mut_with_scratch(&mut work, 1, &mut scratch, |_, one, scr| {
                for ((sample, gout, gi), partial) in one.iter_mut() {
                    let (dw, db) = partial.split_at_mut(wlen);
                    self.im2col_into(sample, h, w, &mut scr.cols);
                    // dW = gout (F×HW) · colsᵀ (HW×CKK)
                    matmul_a_bt(gout, &scr.cols, dw, f, hw, ckk);
                    // db = row sums of gout
                    for (d, g) in db.iter_mut().zip(gout.chunks_exact(hw)) {
                        let sum: f32 = g.iter().sum();
                        *d += sum;
                    }
                    // dcols = Wᵀ (CKK×F) · gout (F×HW)
                    scr.dcols.fill(0.0);
                    matmul_at_b(weight, gout, &mut scr.dcols, ckk, f, hw);
                    self.col2im(&scr.dcols, h, w, gi);
                }
            });
            for partial in partials.chunks_exact(wlen + f).take(block.len()) {
                let (dw, db) = partial.split_at(wlen);
                for (g, p) in self.weight.grad.as_mut_slice().iter_mut().zip(dw) {
                    *g += p;
                }
                for (g, p) in self.bias.grad.as_mut_slice().iter_mut().zip(db) {
                    *g += p;
                }
            }
        }
        grad_in
    }
}

fn gaussian(rng: &mut SmallRng) -> f32 {
    // Box-Muller.
    let u1: f64 = rng.gen_range(1e-12..1.0);
    let u2: f64 = rng.gen::<f64>();
    ((-2.0 * u1.ln()).sqrt() * (2.0 * std::f64::consts::PI * u2).cos()) as f32
}

impl Layer for Conv2d {
    fn forward(&mut self, input: &Tensor, _train: bool) -> Tensor {
        self.forward_pooled(input, &ThreadPool::single())
    }

    fn backward(&mut self, grad_out: &Tensor) -> Tensor {
        self.backward_pooled(grad_out, &ThreadPool::single())
    }

    fn infer(&self, input: &Tensor, ctx: &mut InferenceCtx) -> Tensor {
        let [n, c, h, w]: [usize; 4] = input.shape().try_into().expect("conv input is NCHW");
        assert_eq!(c, self.in_channels, "channel mismatch");
        let hw = h * w;
        let ckk = self.in_channels * self.kernel * self.kernel;
        let mut out = ctx.take_tensor(&[n, self.out_channels, h, w]);
        // One pooled column buffer serves every sample: padding slots stay
        // zero across iterations, data slots are fully overwritten.
        let mut cols = ctx.take(ckk * hw);
        // Kernel kinds are bitwise identical; Reference is the benchmark
        // baseline (see `matmul`'s summation-order contract).
        let gemm: crate::matmul::Gemm = match ctx.kernel() {
            crate::KernelKind::Tiled => matmul,
            crate::KernelKind::Reference => crate::matmul::reference::matmul,
        };
        for s in 0..n {
            let sample = &input.as_slice()[s * c * hw..(s + 1) * c * hw];
            self.im2col_into(sample, h, w, &mut cols);
            let out_s = &mut out.as_mut_slice()
                [s * self.out_channels * hw..(s + 1) * self.out_channels * hw];
            gemm(
                self.weight.value.as_slice(),
                &cols,
                out_s,
                self.out_channels,
                ckk,
                hw,
            );
            for f in 0..self.out_channels {
                let b = self.bias.value.as_slice()[f];
                for v in &mut out_s[f * hw..(f + 1) * hw] {
                    *v += b;
                }
            }
        }
        ctx.recycle(cols);
        out
    }

    fn visit_params(&mut self, f: &mut dyn FnMut(&mut Param)) {
        f(&mut self.weight);
        f(&mut self.bias);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Identity 1×1 kernel reproduces the input.
    #[test]
    fn one_by_one_identity() {
        let mut conv = Conv2d::new(1, 1, 1, 0);
        conv.weight.value.as_mut_slice()[0] = 1.0;
        let input = Tensor::from_vec(&[1, 1, 2, 2], vec![1.0, 2.0, 3.0, 4.0]);
        let out = conv.forward(&input, true);
        assert_eq!(out.as_slice(), input.as_slice());
    }

    /// A 3×3 averaging kernel on a constant image keeps the interior value
    /// and attenuates the border (zero padding).
    #[test]
    fn same_padding_border_effect() {
        let mut conv = Conv2d::new(1, 1, 3, 0);
        for v in conv.weight.value.as_mut_slice() {
            *v = 1.0 / 9.0;
        }
        let input = Tensor::from_vec(&[1, 1, 3, 3], vec![9.0; 9]);
        let out = conv.forward(&input, true);
        // Center sees all 9 pixels; corners see 4.
        assert!((out.get(&[0, 0, 1, 1]) - 9.0).abs() < 1e-5);
        assert!((out.get(&[0, 0, 0, 0]) - 4.0).abs() < 1e-5);
    }

    #[test]
    fn bias_is_added() {
        let mut conv = Conv2d::new(1, 2, 1, 0);
        conv.weight.value.fill_zero();
        conv.bias.value.as_mut_slice()[0] = 1.5;
        conv.bias.value.as_mut_slice()[1] = -2.0;
        let out = conv.forward(&Tensor::zeros(&[1, 1, 2, 2]), true);
        assert_eq!(out.get(&[0, 0, 0, 0]), 1.5);
        assert_eq!(out.get(&[0, 1, 1, 1]), -2.0);
    }

    #[test]
    fn deterministic_in_seed() {
        let a = Conv2d::new(2, 3, 3, 9);
        let b = Conv2d::new(2, 3, 3, 9);
        assert_eq!(a, b);
        let c = Conv2d::new(2, 3, 3, 10);
        assert_ne!(a, c);
    }

    #[test]
    #[should_panic(expected = "odd kernel")]
    fn even_kernel_rejected() {
        let _ = Conv2d::new(1, 1, 2, 0);
    }

    /// Finite-difference gradient check on weights, bias and input.
    #[test]
    fn gradient_check() {
        let mut conv = Conv2d::new(2, 2, 3, 3);
        let input = {
            let mut rng = SmallRng::seed_from_u64(5);
            Tensor::from_vec(
                &[1, 2, 4, 4],
                (0..32).map(|_| rng.gen::<f32>() - 0.5).collect(),
            )
        };
        // Loss = Σ coef · out (fixed random coefficients).
        let coefs: Vec<f32> = {
            let mut rng = SmallRng::seed_from_u64(6);
            (0..32).map(|_| rng.gen::<f32>() - 0.5).collect()
        };
        let loss = |conv: &mut Conv2d, input: &Tensor| -> f32 {
            let out = conv.forward(input, true);
            out.as_slice().iter().zip(&coefs).map(|(o, c)| o * c).sum()
        };
        // Analytic gradients.
        conv.zero_grad();
        let out = conv.forward(&input, true);
        assert_eq!(out.len(), 32);
        let grad_out = Tensor::from_vec(&[1, 2, 4, 4], coefs.clone());
        let grad_in = conv.backward(&grad_out);
        // Weight gradient check (a few entries).
        let eps = 1e-3;
        for idx in [0usize, 7, 17, 35] {
            let analytic = conv.weight.grad.as_slice()[idx];
            let orig = conv.weight.value.as_slice()[idx];
            conv.weight.value.as_mut_slice()[idx] = orig + eps;
            let lp = loss(&mut conv, &input);
            conv.weight.value.as_mut_slice()[idx] = orig - eps;
            let lm = loss(&mut conv, &input);
            conv.weight.value.as_mut_slice()[idx] = orig;
            let numeric = (lp - lm) / (2.0 * eps);
            assert!(
                (analytic - numeric).abs() < 2e-2,
                "weight[{idx}]: analytic {analytic}, numeric {numeric}"
            );
        }
        // Input gradient check.
        for idx in [0usize, 9, 31] {
            let analytic = grad_in.as_slice()[idx];
            let mut ip = input.clone();
            ip.as_mut_slice()[idx] += eps;
            let lp = loss(&mut conv, &ip);
            let mut im = input.clone();
            im.as_mut_slice()[idx] -= eps;
            let lm = loss(&mut conv, &im);
            let numeric = (lp - lm) / (2.0 * eps);
            assert!(
                (analytic - numeric).abs() < 2e-2,
                "input[{idx}]: analytic {analytic}, numeric {numeric}"
            );
        }
        // Bias gradient: d loss / d b_f = Σ coefs over that channel.
        let expect_b0: f32 = coefs[0..16].iter().sum();
        assert!((conv.bias.grad.as_slice()[0] - expect_b0).abs() < 1e-4);
    }

    /// The one-sample-at-a-time training pass the pooled kernels must
    /// reproduce bit for bit: every sample's dW/db accumulator is added
    /// straight into the running gradients in ascending sample order.
    fn serial_forward_backward(conv: &mut Conv2d, input: &Tensor, gout: &Tensor) -> Tensor {
        let [n, c, h, w]: [usize; 4] = input.shape().try_into().unwrap();
        let (hw, f) = (h * w, conv.out_channels);
        let ckk = c * conv.kernel * conv.kernel;
        let mut grad_in = vec![0.0f32; n * c * hw];
        for s in 0..n {
            let mut cols = vec![0.0f32; ckk * hw];
            conv.im2col_into(
                &input.as_slice()[s * c * hw..(s + 1) * c * hw],
                h,
                w,
                &mut cols,
            );
            let g = &gout.as_slice()[s * f * hw..(s + 1) * f * hw];
            matmul_a_bt(g, &cols, conv.weight.grad.as_mut_slice(), f, hw, ckk);
            for ch in 0..f {
                let sum: f32 = g[ch * hw..(ch + 1) * hw].iter().sum();
                conv.bias.grad.as_mut_slice()[ch] += sum;
            }
            let mut dcols = vec![0.0f32; ckk * hw];
            matmul_at_b(conv.weight.value.as_slice(), g, &mut dcols, ckk, f, hw);
            conv.col2im(&dcols, h, w, &mut grad_in[s * c * hw..(s + 1) * c * hw]);
        }
        Tensor::from_vec(&[n, c, h, w], grad_in)
    }

    fn lcg(seed: u64, len: usize) -> Vec<f32> {
        let mut rng = SmallRng::seed_from_u64(seed);
        (0..len).map(|_| rng.gen::<f32>() - 0.5).collect()
    }

    fn bits(t: &Tensor) -> Vec<u32> {
        t.as_slice().iter().map(|v| v.to_bits()).collect()
    }

    /// Runs forward + backward on top of `prior` accumulated gradients and
    /// returns (output, input gradient, weight gradient, bias gradient)
    /// bit patterns.
    fn pooled_pass(
        proto: &Conv2d,
        prior: f32,
        input: &Tensor,
        gout: &Tensor,
        workers: usize,
    ) -> [Vec<u32>; 4] {
        let pool = ThreadPool::try_new(workers).unwrap();
        let mut conv = proto.clone();
        conv.visit_params(&mut |p| p.grad.as_mut_slice().fill(prior));
        let out = conv.forward_pooled(input, &pool);
        let gin = conv.backward_pooled(gout, &pool);
        [
            bits(&out),
            bits(&gin),
            bits(&conv.weight.grad),
            bits(&conv.bias.grad),
        ]
    }

    #[test]
    fn pooled_training_pass_is_bitwise_identical_at_any_worker_count() {
        // 19 samples: two full sample blocks plus a ragged third.
        let (n, c, f, z) = (19, 3, 5, 6);
        let proto = Conv2d::new(c, f, 3, 21);
        let input = Tensor::from_vec(&[n, c, z, z], lcg(1, n * c * z * z));
        let gout = Tensor::from_vec(&[n, f, z, z], lcg(2, n * f * z * z));
        let mut serial = proto.clone();
        serial.visit_params(&mut |p| p.grad.as_mut_slice().fill(0.25));
        let want_out = bits(&serial.clone().forward(&input, true));
        let want_gin = bits(&serial_forward_backward(&mut serial, &input, &gout));
        let want = [
            want_out,
            want_gin,
            bits(&serial.weight.grad),
            bits(&serial.bias.grad),
        ];
        for workers in [1, 2, 4] {
            assert_eq!(
                pooled_pass(&proto, 0.25, &input, &gout, workers),
                want,
                "{workers} workers"
            );
        }
    }

    #[test]
    fn signed_zero_gradients_survive_the_partial_fold() {
        // An all −0.0 upstream gradient on top of −0.0 accumulated
        // gradients: the serial chain keeps −0.0 wherever an accumulator
        // is −0.0 (the bias row sums), which a +0.0-initialised partial
        // would flip to +0.0.
        let (n, c, f, z) = (11, 2, 3, 4);
        let proto = Conv2d::new(c, f, 3, 5);
        let input = Tensor::from_vec(&[n, c, z, z], lcg(3, n * c * z * z));
        let gout = Tensor::from_vec(&[n, f, z, z], vec![-0.0; n * f * z * z]);
        let mut serial = proto.clone();
        serial.visit_params(&mut |p| p.grad.as_mut_slice().fill(-0.0));
        let _ = serial.clone().forward(&input, true);
        let want_gin = bits(&serial_forward_backward(&mut serial, &input, &gout));
        let neg_zero = (-0.0f32).to_bits();
        assert!(
            serial
                .bias
                .grad
                .as_slice()
                .iter()
                .all(|g| g.to_bits() == neg_zero),
            "the exact bias gradient is −0.0"
        );
        for workers in [1, 2, 4] {
            let [_, gin, dw, db] = pooled_pass(&proto, -0.0, &input, &gout, workers);
            assert_eq!(gin, want_gin, "{workers} workers");
            assert_eq!(dw, bits(&serial.weight.grad), "{workers} workers");
            assert_eq!(db, bits(&serial.bias.grad), "{workers} workers");
        }
    }

    #[test]
    fn im2col_and_col2im_match_the_per_pixel_definition() {
        // Kernels narrower than, equal to and wider than the image.
        for (c, k, h, w) in [
            (2, 3, 4, 5),
            (1, 1, 3, 3),
            (3, 5, 2, 3),
            (1, 5, 1, 1),
            (2, 3, 1, 4),
        ] {
            let conv = Conv2d::new(c, 1, k, 0);
            let pad = k / 2;
            let (hw, ckk) = (h * w, c * k * k);
            let sample = lcg(9, c * hw);
            let grads = lcg(10, ckk * hw);
            let mut want_cols = vec![0.0f32; ckk * hw];
            let mut want_img = vec![0.0f32; c * hw];
            for ch in 0..c {
                for ky in 0..k {
                    for kx in 0..k {
                        let row = (ch * k + ky) * k + kx;
                        for y in 0..h {
                            for x in 0..w {
                                let sy = (y + ky).checked_sub(pad).filter(|&v| v < h);
                                let sx = (x + kx).checked_sub(pad).filter(|&v| v < w);
                                if let (Some(sy), Some(sx)) = (sy, sx) {
                                    let src = ch * hw + sy * w + sx;
                                    want_cols[row * hw + y * w + x] = sample[src];
                                    want_img[src] += grads[row * hw + y * w + x];
                                }
                            }
                        }
                    }
                }
            }
            let mut cols = vec![0.0f32; ckk * hw];
            conv.im2col_into(&sample, h, w, &mut cols);
            let mut img = vec![0.0f32; c * hw];
            conv.col2im(&grads, h, w, &mut img);
            let bits = |v: &[f32]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
            assert_eq!(bits(&cols), bits(&want_cols), "im2col {c} {k} {h}x{w}");
            assert_eq!(bits(&img), bits(&want_img), "col2im {c} {k} {h}x{w}");
        }
    }

    #[test]
    #[should_panic(expected = "backward without forward")]
    fn backward_requires_forward() {
        let mut conv = Conv2d::new(1, 1, 1, 0);
        let _ = conv.backward(&Tensor::zeros(&[1, 1, 2, 2]));
    }
}
