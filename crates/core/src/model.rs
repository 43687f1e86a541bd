//! The end-to-end image classifier: reversible backbone + neck + head, with
//! a single switch selecting reversible or conventional training.

use crate::backbone::RevBiFPN;
use crate::config::RevBiFPNConfig;
use crate::head::{ClsHead, Neck};
use revbifpn_nn::{meter, Accounting, CacheMode, Cached, FrozenTree, Layer, Module, Param, Part, ShapeWalk};
use revbifpn_tensor::{Shape, Tensor};

/// How to run the classifier's forward pass.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum RunMode {
    /// Inference (running BN statistics, no caches).
    Eval,
    /// Training with reversible recomputation: only the output pyramid is
    /// retained; backbone activations are reconstructed during backward.
    TrainReversible,
    /// Conventional training: every layer caches for backward.
    TrainConventional,
}

impl RunMode {
    fn backbone_cache_mode(self) -> CacheMode {
        match self {
            RunMode::Eval => CacheMode::None,
            RunMode::TrainReversible => CacheMode::Stats,
            RunMode::TrainConventional => CacheMode::Full,
        }
    }

    fn head_cache_mode(self) -> CacheMode {
        match self {
            RunMode::Eval => CacheMode::None,
            _ => CacheMode::Full,
        }
    }
}

/// RevBiFPN classifier (backbone + neck + classification head).
#[derive(Debug)]
pub struct RevBiFPNClassifier {
    backbone: RevBiFPN,
    neck: Neck,
    head: ClsHead,
    saved_pyramid: Cached<Vec<Tensor>>,
    last_mode: Option<RunMode>,
}

impl RevBiFPNClassifier {
    /// Builds the classifier from a configuration.
    ///
    /// # Panics
    ///
    /// Panics if the configuration is invalid.
    pub fn new(cfg: RevBiFPNConfig) -> Self {
        let backbone = RevBiFPN::new(cfg.clone());
        let neck = Neck::from_config(&cfg);
        let head = ClsHead::from_config(&cfg);
        Self { backbone, neck, head, saved_pyramid: Cached::empty(), last_mode: None }
    }

    /// The configuration.
    pub fn cfg(&self) -> &RevBiFPNConfig {
        self.backbone.cfg()
    }

    /// The backbone (for pyramid access, inversion demos, analytics).
    pub fn backbone(&self) -> &RevBiFPN {
        &self.backbone
    }

    /// Mutable backbone access.
    pub fn backbone_mut(&mut self) -> &mut RevBiFPN {
        &mut self.backbone
    }

    /// Compiles the model into its frozen inference form: BN folded into the
    /// convs, activations fused into GEMM epilogues, and every conv's weight
    /// panels packed once. The returned [`crate::FrozenClassifier`] is ready
    /// to run; this model is untouched (parameters are cloned) and can keep
    /// training.
    ///
    /// # Errors
    ///
    /// Returns [`revbifpn_nn::FreezeError`] if any layer has no fused
    /// equivalent.
    pub fn freeze(&self) -> Result<crate::FrozenClassifier, revbifpn_nn::FreezeError> {
        let mut frozen = crate::FrozenClassifier {
            backbone: self.backbone.freeze()?,
            neck: self.neck.freeze()?,
            head: self.head.freeze()?,
        };
        frozen.compile();
        Ok(frozen)
    }

    /// Like [`RevBiFPNClassifier::freeze`], but additionally lowers every
    /// fused conv to per-output-channel int8 weights before compiling; the
    /// frozen forward runs the f32 kernels on them, activations unquantized.
    /// Squeeze-excite gates stay f32.
    ///
    /// # Errors
    ///
    /// Returns [`revbifpn_nn::FreezeError`] if any layer has no fused
    /// equivalent.
    pub fn freeze_int8(&self) -> Result<crate::FrozenClassifier, revbifpn_nn::FreezeError> {
        let mut frozen = crate::FrozenClassifier {
            backbone: self.backbone.freeze()?,
            neck: self.neck.freeze()?,
            head: self.head.freeze()?,
        };
        frozen.quantize();
        frozen.compile();
        Ok(frozen)
    }

    /// Forward pass: images `[n, 3, r, r]` to logits `[n, classes, 1, 1]`.
    ///
    /// In [`RunMode::TrainReversible`], the output pyramid is retained (the
    /// O(nchw) term of the paper's memory analysis) and registered with the
    /// memory meter; everything else in the backbone caches only statistics.
    pub fn forward(&mut self, x: &Tensor, mode: RunMode) -> Tensor {
        self.last_mode = Some(mode);
        let pyramid = self.backbone.forward(x, mode.backbone_cache_mode());
        let neck_out = self.neck.forward(&pyramid, mode.head_cache_mode());
        let logits = self.head.forward(&neck_out, mode.head_cache_mode());
        if mode == RunMode::TrainReversible {
            let bytes = pyramid.iter().map(|t| t.bytes()).sum();
            self.saved_pyramid.put(pyramid, bytes);
        }
        logits
    }

    /// Backward pass from the logits gradient; accumulates parameter
    /// gradients everywhere. Must follow a training-mode forward.
    ///
    /// # Panics
    ///
    /// Panics if the last forward was not a training mode.
    pub fn backward(&mut self, dlogits: &Tensor) {
        let mode = self.last_mode.expect("backward without forward");
        let dpyramid = self.neck_head_backward(dlogits);
        match mode {
            RunMode::TrainReversible => {
                let pyramid = self.saved_pyramid.take().expect("reversible backward needs the saved pyramid");
                let _dx = self.backbone.backward_rev(pyramid, dpyramid);
            }
            RunMode::TrainConventional => {
                let _dx = self.backbone.backward_cached(dpyramid);
            }
            RunMode::Eval => panic!("backward after Eval forward"),
        }
    }

    /// Backward through only the head + neck, consuming their caches;
    /// returns the gradient w.r.t. the pyramid. Timed as
    /// [`meter::Phase::Backward`] (neither runs a timer of its own).
    fn neck_head_backward(&mut self, dlogits: &Tensor) -> Vec<Tensor> {
        meter::time_phase(meter::Phase::Backward, || {
            let dneck = self.head.backward(dlogits);
            self.neck.backward(&dneck)
        })
    }

    /// The neck and the head, which follow the backbone in the walk.
    fn neck_head(&mut self) -> impl Module + '_ {
        Part::new(move |f| {
            self.neck.visit_layers(f);
            self.head.visit_layers(f);
        })
    }

    /// Visits the neck's and head's parameters only.
    pub fn visit_neck_head_params(&mut self, f: &mut dyn FnMut(&mut Param)) {
        self.neck_head().visit_params(f);
    }

    /// Visits the neck's and head's persistent buffers only.
    pub fn visit_neck_head_buffers(&mut self, f: &mut dyn FnMut(&mut Tensor)) {
        self.neck_head().visit_buffers(f);
    }

    /// Visits all parameters ([`Module::visit_params`]).
    pub fn visit_params(&mut self, f: &mut dyn FnMut(&mut Param)) {
        Module::visit_params(self, f)
    }

    /// Total scalar parameter count ([`Module::param_count`]).
    pub fn param_count(&mut self) -> u64 {
        Module::param_count(self)
    }

    /// Zeroes all parameter gradients ([`Module::zero_grads`]).
    pub fn zero_grads(&mut self) {
        Module::zero_grads(self)
    }

    /// Clears every cache, the saved pyramid included
    /// ([`Module::clear_cache`]).
    pub fn clear_cache(&mut self) {
        Module::clear_cache(self)
    }

    /// Total MACs of one forward pass at batch size `n`.
    pub fn macs(&self, n: usize) -> u64 {
        ShapeWalk::macs(self, &[self.backbone.image(n)])
    }

    /// Analytic activation-memory footprint of one training iteration at
    /// batch `n` under `acct` (see [`crate::stats`] for the full breakdown).
    /// Under [`Accounting::Layout`] it is the meter's peak.
    pub fn activation_bytes(&self, n: usize, mode: RunMode, acct: Accounting) -> u64 {
        let pyr = self.backbone.pyramid_shapes(n);
        let head_mode = mode.head_cache_mode();
        let head_neck = self.neck.cache_bytes(&pyr, head_mode, acct)
            + self.head.cache_bytes(&self.neck.out_shapes(&pyr), head_mode, acct);
        match mode {
            RunMode::Eval => 0,
            RunMode::TrainConventional => self.backbone.cache_bytes(n, CacheMode::Full, acct) + head_neck,
            RunMode::TrainReversible => {
                let pyramid_bytes: u64 = pyr.iter().map(|s| s.bytes() as u64).sum();
                let stats = self.backbone.cache_bytes(n, CacheMode::Stats, acct);
                // Two candidate peaks that never coexist: (a) end of forward,
                // with the neck/head caches resident; (b) mid-backward, with
                // the largest single transform's transient recompute cache
                // resident — on one thread one RevBlock F or G, or one silo
                // edge, is recomputed and transposed at a time (the head
                // caches are already consumed by then). On more threads a
                // stage's streams or edges overlap in real heap
                // (`ShapeWalk::transient_bytes`).
                stats + pyramid_bytes + head_neck.max(self.backbone.peak_transient_bytes(n, acct))
            }
        }
    }

    /// Measures (via the thread-local meter) the peak cached bytes of one
    /// full train step (forward + backward) on `x`. Returns
    /// `(peak_bytes, logits)`.
    pub fn measure_step(&mut self, x: &Tensor, mode: RunMode) -> (usize, Tensor) {
        meter::reset();
        let logits = self.forward(x, mode);
        let dl = Tensor::full(logits.shape(), 1.0 / logits.shape().numel() as f32);
        self.backward(&dl);
        let peak = meter::peak();
        self.clear_cache();
        (peak, logits)
    }

    /// Logit shape helper.
    pub fn logit_shape(&self, n: usize) -> Shape {
        Shape::new(n, self.cfg().num_classes, 1, 1)
    }
}

impl Module for RevBiFPNClassifier {
    fn visit_layers(&mut self, f: &mut dyn FnMut(&mut dyn Layer)) {
        self.backbone.visit_layers(f);
        self.neck_head().visit_layers(f);
    }

    fn clear_state(&mut self) {
        self.backbone.clear_state();
        self.saved_pyramid.clear();
        self.last_mode = None;
    }
}

impl ShapeWalk for RevBiFPNClassifier {
    fn visit_layers_at(&self, xs: &[Shape], f: &mut dyn FnMut(&dyn Layer, Shape)) -> Vec<Shape> {
        let pyramid = self.backbone.visit_layers_at(xs, f);
        let necked = self.neck.visit_layers_at(&pyramid, f);
        self.head.visit_layers_at(&necked, f)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use revbifpn_nn::loss::{one_hot, softmax_cross_entropy};

    fn tiny() -> RevBiFPNClassifier {
        RevBiFPNClassifier::new(RevBiFPNConfig::tiny(10))
    }

    #[test]
    fn forward_shapes() {
        let mut m = tiny();
        let mut rng = StdRng::seed_from_u64(0);
        let x = Tensor::randn(Shape::new(2, 3, 32, 32), 1.0, &mut rng);
        let logits = m.forward(&x, RunMode::Eval);
        assert_eq!(logits.shape(), m.logit_shape(2));
        assert!(logits.is_finite());
    }

    #[test]
    fn train_step_reversible_produces_grads() {
        let mut m = tiny();
        let mut rng = StdRng::seed_from_u64(1);
        let x = Tensor::randn(Shape::new(2, 3, 32, 32), 1.0, &mut rng);
        let logits = m.forward(&x, RunMode::TrainReversible);
        let t = one_hot(&[1, 7], 10);
        let (_, dl) = softmax_cross_entropy(&logits, &t);
        m.zero_grads();
        m.backward(&dl);
        let mut nonzero = 0;
        m.visit_params(&mut |p| {
            if p.grad.abs_max() > 0.0 {
                nonzero += 1;
            }
        });
        assert!(nonzero > 20, "only {nonzero} params with gradient");
        m.clear_cache();
    }

    #[test]
    fn reversible_matches_conventional_end_to_end() {
        let mut m1 = tiny();
        let mut m2 = tiny();
        let mut rng = StdRng::seed_from_u64(2);
        let x = Tensor::randn(Shape::new(2, 3, 32, 32), 1.0, &mut rng);
        let t = one_hot(&[3, 5], 10);

        let l1 = m1.forward(&x, RunMode::TrainConventional);
        let (_, d1) = softmax_cross_entropy(&l1, &t);
        m1.zero_grads();
        m1.backward(&d1);

        let l2 = m2.forward(&x, RunMode::TrainReversible);
        let (_, d2) = softmax_cross_entropy(&l2, &t);
        m2.zero_grads();
        m2.backward(&d2);

        assert!(l1.max_abs_diff(&l2) < 1e-5, "logits diff {}", l1.max_abs_diff(&l2));
        let mut g1 = Vec::new();
        m1.visit_params(&mut |p| g1.push(p.grad.clone()));
        let mut g2 = Vec::new();
        m2.visit_params(&mut |p| g2.push(p.grad.clone()));
        let mut worst = 0.0f32;
        for (a, b) in g1.iter().zip(&g2) {
            worst = worst.max(a.max_abs_diff(b) / (1.0 + a.abs_max()));
        }
        assert!(worst < 2e-3, "worst relative grad diff {worst}");
        m1.clear_cache();
        m2.clear_cache();
    }

    #[test]
    fn reversible_uses_less_measured_memory() {
        let mut rng = StdRng::seed_from_u64(3);
        let x = Tensor::randn(Shape::new(4, 3, 32, 32), 1.0, &mut rng);
        let mut m = RevBiFPNClassifier::new(RevBiFPNConfig::tiny(10).with_depth(3));
        let (peak_conv, _) = m.measure_step(&x, RunMode::TrainConventional);
        let (peak_rev, _) = m.measure_step(&x, RunMode::TrainReversible);
        assert!(
            (peak_rev as f64) < 0.7 * peak_conv as f64,
            "reversible {peak_rev} vs conventional {peak_conv}"
        );
    }

    #[test]
    fn frozen_classifier_matches_eval_forward() {
        let mut m = tiny();
        let mut rng = StdRng::seed_from_u64(40);
        m.visit_params(&mut |p| {
            if p.name == "bn.gamma" {
                p.value = Tensor::uniform(p.value.shape(), 0.5, 1.5, &mut rng);
            }
        });
        // Move BN running stats off their init so folding is non-trivial.
        for _ in 0..3 {
            let x = Tensor::randn(Shape::new(2, 3, 32, 32), 1.0, &mut rng);
            let _ = m.forward(&x, RunMode::TrainReversible);
            m.clear_cache();
        }

        let frozen = m.freeze().unwrap();
        assert!(frozen.packed_bytes() > 0);
        assert_eq!(frozen.packed_bytes(), revbifpn_nn::meter::packed_current());

        let x = Tensor::randn(Shape::new(2, 3, 32, 32), 1.0, &mut rng);
        let want = m.forward(&x, RunMode::Eval);
        let got = frozen.forward(&x);
        assert_eq!(got.shape(), frozen.logit_shape(2));
        let tol = 1e-4 * (1.0 + want.abs_max());
        assert!(got.max_abs_diff(&want) < tol, "logits diff {}", got.max_abs_diff(&want));

        let before = revbifpn_nn::meter::packed_current();
        drop(frozen);
        assert!(revbifpn_nn::meter::packed_current() < before, "drop must release packed bytes");
    }

    #[test]
    fn int8_frozen_classifier_tracks_the_f32_frozen_forward() {
        let mut m = tiny();
        let mut rng = StdRng::seed_from_u64(44);
        m.visit_params(&mut |p| {
            if p.name == "bn.gamma" {
                p.value = Tensor::uniform(p.value.shape(), 0.5, 1.5, &mut rng);
            }
        });
        for _ in 0..2 {
            let x = Tensor::randn(Shape::new(2, 3, 32, 32), 1.0, &mut rng);
            let _ = m.forward(&x, RunMode::TrainReversible);
            m.clear_cache();
        }

        let frozen = m.freeze().unwrap();
        let quant = m.freeze_int8().unwrap();
        assert!(quant.is_quantized());
        // Only the (deliberately f32) squeeze-excite gates still pack f32
        // panels; everything else moves to int8.
        assert!(
            quant.packed_bytes() < frozen.packed_bytes() / 4,
            "residual f32 panels {} vs f32 model {}",
            quant.packed_bytes(),
            frozen.packed_bytes()
        );
        assert!(quant.quant_packed_bytes() > 0);
        assert!(quant.quant_packed_bytes() < frozen.packed_bytes() / 2);
        assert_eq!(quant.quant_packed_bytes(), revbifpn_nn::meter::quant_packed_current());

        let x = Tensor::randn(Shape::new(2, 3, 32, 32), 1.0, &mut rng);
        let want = frozen.forward(&x);
        let got = quant.forward(&x);
        assert_eq!(got.shape(), quant.logit_shape(2));
        // End-to-end logits track the f32 frozen model within compounded
        // quantization noise; the serving accuracy gate is the hard bar.
        let tol = 0.25 * (1.0 + want.abs_max());
        assert!(got.max_abs_diff(&want) < tol, "logits diff {}", got.max_abs_diff(&want));

        let before = revbifpn_nn::meter::quant_packed_current();
        drop(quant);
        assert!(
            revbifpn_nn::meter::quant_packed_current() < before,
            "drop must release quantized panel bytes"
        );
    }

    #[test]
    fn frozen_conv_stem_classifier_matches_eval_forward() {
        let mut cfg = RevBiFPNConfig::tiny(10);
        cfg.stem = crate::config::StemKind::Convolutional;
        let mut m = RevBiFPNClassifier::new(cfg);
        let mut rng = StdRng::seed_from_u64(41);
        let x = Tensor::randn(Shape::new(1, 3, 32, 32), 1.0, &mut rng);
        let frozen = m.freeze().unwrap();
        let want = m.forward(&x, RunMode::Eval);
        let got = frozen.forward(&x);
        let tol = 1e-4 * (1.0 + want.abs_max());
        assert!(got.max_abs_diff(&want) < tol, "logits diff {}", got.max_abs_diff(&want));
    }

    #[test]
    fn macs_split_between_parts() {
        let m = tiny();
        assert!(m.macs(1) > m.backbone().macs(1));
    }

    #[test]
    fn activation_model_depth_scaling() {
        // Analytic model: conventional grows with depth, reversible stays flat.
        let m1 = RevBiFPNClassifier::new(RevBiFPNConfig::tiny(10).with_depth(1));
        let m5 = RevBiFPNClassifier::new(RevBiFPNConfig::tiny(10).with_depth(5));
        for acct in [Accounting::Autograd, Accounting::Layout] {
            let conv1 = m1.activation_bytes(8, RunMode::TrainConventional, acct);
            let conv5 = m5.activation_bytes(8, RunMode::TrainConventional, acct);
            let rev1 = m1.activation_bytes(8, RunMode::TrainReversible, acct);
            let rev5 = m5.activation_bytes(8, RunMode::TrainReversible, acct);
            assert!(conv5 as f64 > 2.0 * conv1 as f64, "{acct:?} {conv1} -> {conv5}");
            assert!((rev5 as f64) < 1.15 * rev1 as f64, "{acct:?} {rev1} -> {rev5}");
            assert!(rev5 < conv5 / 2, "{acct:?}");
        }
    }
}
