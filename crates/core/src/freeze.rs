//! The frozen (inference-only) RevBiFPN classifier: the whole model compiled
//! into fused kernels.
//!
//! [`RevBiFPNClassifier::freeze`](crate::RevBiFPNClassifier::freeze) walks
//! the trained model and produces a [`FrozenClassifier`] in which every
//! `conv -> BN -> activation` chain is folded into a single fused convolution
//! (BN folded into weights/bias, activation applied in the GEMM epilogue)
//! and every conv's GEMM weight panels are packed once, up front. The frozen
//! forward therefore performs no BN normalization, no separate activation
//! passes, and no per-call weight packing — only im2col scratch (arena-
//! recycled) is touched per call.
//!
//! Freezing clones the parameters it needs; the original model is untouched
//! and can keep training. Packed panel bytes are registered with
//! [`revbifpn_nn::meter`] (`packed_weight_bytes`, event
//! `"freeze.weights_packed"`) and released when the frozen model drops.

use crate::config::RevBiFPNConfig;
use revbifpn_nn::{FrozenLayer, FrozenTree};
use revbifpn_rev::FrozenSequence;
use revbifpn_tensor::{par, space_to_depth, Shape, Tensor};
use std::borrow::Cow;

/// Frozen form of the [`crate::Stem`].
#[derive(Debug)]
pub enum FrozenStem {
    /// Channel duplication + SpaceToDepth (pure data movement, no kernels).
    SpaceToDepth {
        /// Block size `b`.
        block: usize,
        /// Output channels `c0 = dup * b^2`.
        c0: usize,
        /// Expected image channels.
        image_channels: usize,
    },
    /// The conventional conv stem as one fused chain.
    Convolutional {
        /// The fused conv-BN-act chain.
        body: Box<FrozenLayer>,
        /// Output channels.
        c0: usize,
    },
}

impl FrozenStem {
    /// Forward pass (eval semantics).
    pub fn forward(&self, x: &Tensor) -> Tensor {
        match self {
            FrozenStem::SpaceToDepth { block, c0, image_channels } => {
                assert_eq!(
                    x.shape().c,
                    *image_channels,
                    "frozen stem expects {image_channels} image channels"
                );
                let dup = *c0 / (*block * *block);
                let xd = crate::stem::duplicate_channels(x, dup);
                space_to_depth(&xd, *block)
            }
            FrozenStem::Convolutional { body, .. } => body.forward(x),
        }
    }
}

impl FrozenTree for FrozenStem {
    fn visit_frozen(&self, f: &mut dyn FnMut(&FrozenLayer)) {
        if let FrozenStem::Convolutional { body, .. } = self {
            f(body);
        }
    }

    fn visit_frozen_mut(&mut self, f: &mut dyn FnMut(&mut FrozenLayer)) {
        if let FrozenStem::Convolutional { body, .. } = self {
            f(body);
        }
    }
}

/// Frozen classification head (downsample-aggregate chain + tail).
#[derive(Debug)]
pub struct FrozenClsHead {
    pub(crate) downs: Vec<FrozenLayer>,
    pub(crate) tail: FrozenLayer,
    pub(crate) num_streams: usize,
}

impl FrozenClsHead {
    /// Necked pyramid to class logits `[n, classes, 1, 1]`.
    pub fn forward(&self, neck: &[Tensor]) -> Tensor {
        assert_eq!(neck.len(), self.num_streams, "frozen head stream mismatch");
        let mut h = Cow::Borrowed(&neck[0]);
        for (d, n) in self.downs.iter().zip(&neck[1..]) {
            let mut down = d.forward(&h);
            down.add_assign(n);
            h = Cow::Owned(down);
        }
        self.tail.forward(&h)
    }
}

impl FrozenTree for FrozenClsHead {
    fn visit_frozen(&self, f: &mut dyn FnMut(&FrozenLayer)) {
        self.downs.iter().chain([&self.tail]).for_each(f);
    }

    fn visit_frozen_mut(&mut self, f: &mut dyn FnMut(&mut FrozenLayer)) {
        self.downs.iter_mut().chain([&mut self.tail]).for_each(f);
    }
}

/// The frozen RevBiFPN backbone: fused stem + fused reversible body.
#[derive(Debug)]
pub struct FrozenBackbone {
    pub(crate) cfg: RevBiFPNConfig,
    pub(crate) stem: FrozenStem,
    pub(crate) body: FrozenSequence,
}

impl FrozenBackbone {
    /// The configuration the source backbone was built from.
    pub fn cfg(&self) -> &RevBiFPNConfig {
        &self.cfg
    }

    /// Image `[n, 3, r, r]` to the N-stream feature pyramid.
    pub fn forward(&self, x: &Tensor) -> Vec<Tensor> {
        let s0 = self.stem.forward(x);
        self.body.forward(vec![s0])
    }
}

impl FrozenTree for FrozenBackbone {
    fn visit_frozen(&self, f: &mut dyn FnMut(&FrozenLayer)) {
        self.stem.visit_frozen(f);
        self.body.visit_frozen(f);
    }

    fn visit_frozen_mut(&mut self, f: &mut dyn FnMut(&mut FrozenLayer)) {
        self.stem.visit_frozen_mut(f);
        self.body.visit_frozen_mut(f);
    }
}

/// The frozen end-to-end classifier (backbone + neck + head), produced by
/// [`crate::RevBiFPNClassifier::freeze`]. Forward-only and `&self`: no
/// caches, no training state.
#[derive(Debug)]
pub struct FrozenClassifier {
    pub(crate) backbone: FrozenBackbone,
    pub(crate) neck: Vec<FrozenLayer>,
    pub(crate) head: FrozenClsHead,
}

impl FrozenClassifier {
    /// The configuration the source model was built from.
    pub fn cfg(&self) -> &RevBiFPNConfig {
        self.backbone.cfg()
    }

    /// Images `[n, 3, r, r]` to logits `[n, classes, 1, 1]` using only fused
    /// kernels. A batch runs sample by sample, in order, each a batch-1
    /// forward with its stream tasks: every row is its sample's forward run
    /// alone, bit for bit, and no layer's maps are wider than one sample's.
    pub fn forward(&self, x: &Tensor) -> Tensor {
        let xs = x.shape();
        if xs.n == 1 {
            return self.forward_sample(x);
        }
        let one = Shape::new(1, xs.c, xs.h, xs.w);
        let mut logits = Tensor::zeros(self.logit_shape(xs.n));
        let rows = logits.data_mut().chunks_exact_mut(self.cfg().num_classes);
        for (sample, row) in x.data().chunks_exact(xs.chw()).zip(rows) {
            row.copy_from_slice(self.forward_sample(&Tensor::from_vec_unchecked(one, sample.to_vec())).data());
        }
        logits
    }

    /// One image `[1, 3, r, r]` to its logits. Each stream's neck layer is
    /// one pool task.
    fn forward_sample(&self, x: &Tensor) -> Tensor {
        let pyramid = self.backbone.forward(x);
        let neck = par::join_map(pyramid.iter().zip(&self.neck), |(t, b)| b.forward(t));
        self.head.forward(&neck)
    }

    /// Logit shape for batch size `n`.
    pub fn logit_shape(&self, n: usize) -> Shape {
        Shape::new(n, self.cfg().num_classes, 1, 1)
    }
}

impl FrozenTree for FrozenClassifier {
    fn visit_frozen(&self, f: &mut dyn FnMut(&FrozenLayer)) {
        self.backbone.visit_frozen(f);
        self.neck.iter().for_each(&mut *f);
        self.head.visit_frozen(f);
    }

    fn visit_frozen_mut(&mut self, f: &mut dyn FnMut(&mut FrozenLayer)) {
        self.backbone.visit_frozen_mut(f);
        self.neck.iter_mut().for_each(&mut *f);
        self.head.visit_frozen_mut(f);
    }
}
