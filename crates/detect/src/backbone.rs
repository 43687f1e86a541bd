//! A common interface over the pyramid-producing backbones so the detection
//! head can be trained on RevBiFPN (reversibly or conventionally), HRNet,
//! and ResNet-FPN interchangeably — the Table 9/10 comparison setup.

use revbifpn::RevBiFPN;
use revbifpn_baselines::{HrNet, ResNetFpn};
use revbifpn_nn::{CacheMode, Layer, Module};
use revbifpn_tensor::Tensor;

/// A backbone producing a multi-level feature pyramid. Its walks come from
/// [`Module`].
pub trait Backbone: Module + std::fmt::Debug {
    /// Training forward (caches per its training regime).
    fn forward_train(&mut self, x: &Tensor) -> Vec<Tensor>;

    /// Inference forward.
    fn forward_eval(&mut self, x: &Tensor) -> Vec<Tensor>;

    /// Backward from pyramid gradients (after `forward_train`).
    fn backward(&mut self, dpyramid: Vec<Tensor>);

    /// Per-level channel counts.
    fn channels(&self) -> Vec<usize>;

    /// Per-level strides w.r.t. the input image.
    fn strides(&self) -> Vec<usize>;

    /// Human-readable name.
    fn name(&self) -> String;

    /// Inference-only frozen form of the wrapped pyramid network (see
    /// [`revbifpn::FrozenBackbone`]). The result is *uncompiled*. Backbones
    /// without fused kernels return [`FreezeError::Unsupported`].
    fn freeze(&self) -> Result<revbifpn::FrozenBackbone, revbifpn_nn::FreezeError> {
        Err(revbifpn_nn::FreezeError::unsupported("detection backbone", self.name()))
    }
}

/// RevBiFPN backbone wrapper; `reversible` selects the training regime.
#[derive(Debug)]
pub struct RevBackbone {
    net: RevBiFPN,
    reversible: bool,
    saved: Option<Vec<Tensor>>,
}

impl RevBackbone {
    /// Wraps a RevBiFPN backbone.
    pub fn new(net: RevBiFPN, reversible: bool) -> Self {
        Self { net, reversible, saved: None }
    }

    /// Immutable access to the wrapped network.
    pub fn net(&self) -> &RevBiFPN {
        &self.net
    }
}

impl Backbone for RevBackbone {
    fn forward_train(&mut self, x: &Tensor) -> Vec<Tensor> {
        let mode = if self.reversible { CacheMode::Stats } else { CacheMode::Full };
        let pyr = self.net.forward(x, mode);
        if self.reversible {
            self.saved = Some(pyr.clone());
        }
        pyr
    }

    fn forward_eval(&mut self, x: &Tensor) -> Vec<Tensor> {
        self.net.forward(x, CacheMode::None)
    }

    fn backward(&mut self, dpyramid: Vec<Tensor>) {
        if self.reversible {
            let pyr = self.saved.take().expect("reversible backward needs saved pyramid");
            let _ = self.net.backward_rev(pyr, dpyramid);
        } else {
            let _ = self.net.backward_cached(dpyramid);
        }
    }

    fn channels(&self) -> Vec<usize> {
        self.net.cfg().channels.clone()
    }

    fn strides(&self) -> Vec<usize> {
        let b = self.net.cfg().stem_block;
        (0..self.net.cfg().num_streams()).map(|i| b << i).collect()
    }

    fn name(&self) -> String {
        format!("{}{}", self.net.cfg().name, if self.reversible { " (rev)" } else { " (conv)" })
    }

    fn freeze(&self) -> Result<revbifpn::FrozenBackbone, revbifpn_nn::FreezeError> {
        self.net.freeze()
    }
}

impl Module for RevBackbone {
    fn visit_layers(&mut self, f: &mut dyn FnMut(&mut dyn Layer)) {
        self.net.visit_layers(f);
    }

    fn clear_state(&mut self) {
        self.net.clear_state();
        self.saved = None;
    }
}

/// HRNet backbone wrapper (always conventional).
#[derive(Debug)]
pub struct HrBackbone {
    net: HrNet,
}

impl HrBackbone {
    /// Wraps an HRNet.
    pub fn new(net: HrNet) -> Self {
        Self { net }
    }
}

impl Backbone for HrBackbone {
    fn forward_train(&mut self, x: &Tensor) -> Vec<Tensor> {
        self.net.forward(x, CacheMode::Full)
    }

    fn forward_eval(&mut self, x: &Tensor) -> Vec<Tensor> {
        self.net.forward(x, CacheMode::None)
    }

    fn backward(&mut self, dpyramid: Vec<Tensor>) {
        let _ = self.net.backward(dpyramid);
    }

    fn channels(&self) -> Vec<usize> {
        (0..self.net.cfg().num_streams).map(|i| self.net.cfg().stream_channels(i)).collect()
    }

    fn strides(&self) -> Vec<usize> {
        (0..self.net.cfg().num_streams).map(|i| 4 << i).collect()
    }

    fn name(&self) -> String {
        self.net.cfg().name.clone()
    }
}

impl Module for HrBackbone {
    fn visit_layers(&mut self, f: &mut dyn FnMut(&mut dyn Layer)) {
        self.net.visit_layers(f);
    }
}

/// ResNet-FPN backbone wrapper (always conventional). Backward through the
/// FPN top-down path is not wired for the miniature experiments, so this
/// wrapper is evaluation-only on the gradient side: `backward` panics.
#[derive(Debug)]
pub struct FpnBackbone {
    net: ResNetFpn,
}

impl FpnBackbone {
    /// Wraps a ResNet-FPN.
    pub fn new(net: ResNetFpn) -> Self {
        Self { net }
    }
}

impl Backbone for FpnBackbone {
    fn forward_train(&mut self, x: &Tensor) -> Vec<Tensor> {
        self.net.forward(x, CacheMode::Full)
    }

    fn forward_eval(&mut self, x: &Tensor) -> Vec<Tensor> {
        self.net.forward(x, CacheMode::None)
    }

    fn backward(&mut self, _dpyramid: Vec<Tensor>) {
        unimplemented!("FpnBackbone is used for analytic comparisons and head-only fine-tuning")
    }

    fn channels(&self) -> Vec<usize> {
        vec![self.net.cfg().fpn_channels; 4]
    }

    fn strides(&self) -> Vec<usize> {
        (0..4).map(|i| 4 << i).collect()
    }

    fn name(&self) -> String {
        self.net.cfg().name.clone()
    }
}

impl Module for FpnBackbone {
    fn visit_layers(&mut self, f: &mut dyn FnMut(&mut dyn Layer)) {
        self.net.visit_layers(f);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use revbifpn::RevBiFPNConfig;
    use revbifpn_baselines::{HrNetConfig, ResNetFpnConfig};
    use revbifpn_tensor::Shape;

    #[test]
    fn rev_backbone_strides_and_channels() {
        let b = RevBackbone::new(RevBiFPN::new(RevBiFPNConfig::tiny(4)), true);
        assert_eq!(b.strides(), vec![2, 4, 8]);
        assert_eq!(b.channels(), vec![16, 24, 32]);
    }

    #[test]
    fn all_backbones_produce_pyramids() {
        let mut rng = StdRng::seed_from_u64(0);
        let x = Tensor::randn(Shape::new(1, 3, 32, 32), 1.0, &mut rng);
        let mut backs: Vec<Box<dyn Backbone>> = vec![
            Box::new(RevBackbone::new(RevBiFPN::new(RevBiFPNConfig::tiny(4)), true)),
            Box::new(HrBackbone::new(HrNet::new(HrNetConfig::micro()))),
            Box::new(FpnBackbone::new(ResNetFpn::new(ResNetFpnConfig::micro()))),
        ];
        for b in &mut backs {
            let pyr = b.forward_eval(&x);
            assert_eq!(pyr.len(), b.channels().len(), "{}", b.name());
            for (p, (c, s)) in pyr.iter().zip(b.channels().iter().zip(b.strides())) {
                assert_eq!(p.shape().c, *c);
                assert_eq!(p.shape().h, 32 / s);
            }
        }
    }

    #[test]
    fn rev_backbone_train_roundtrip() {
        let mut rng = StdRng::seed_from_u64(1);
        let x = Tensor::randn(Shape::new(1, 3, 32, 32), 1.0, &mut rng);
        let mut b = RevBackbone::new(RevBiFPN::new(RevBiFPNConfig::tiny(4)), true);
        let pyr = b.forward_train(&x);
        let d: Vec<Tensor> = pyr.iter().map(|p| Tensor::ones(p.shape())).collect();
        b.backward(d);
        let mut nonzero = 0;
        b.visit_params(&mut |p| {
            if p.grad.abs_max() > 0.0 {
                nonzero += 1;
            }
        });
        assert!(nonzero > 10);
        b.clear_cache();
    }
}
