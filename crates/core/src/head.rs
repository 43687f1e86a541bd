//! Neck and classification head (paper Appendix C.5, Figure 13).
//!
//! The neck is a set of per-stream MBConv blocks widening the backbone's
//! pyramid channels. The classification head repeatedly downsamples the
//! finest stream with a stride-2 MBConv and adds it into the next stream
//! until all information is aggregated at the coarsest resolution, then
//! applies 1x1 conv -> GAP -> dropout -> dense. Neither part is reversible;
//! both cache conventionally (the paper reverse-checkpoints the neck; its
//! footprint is a small constant either way).

use crate::config::RevBiFPNConfig;
use rand::rngs::StdRng;
use rand::SeedableRng;
use revbifpn_nn::layers::{BatchNorm2d, Conv2d, Dropout, GlobalAvgPool, HardSwish, Linear, MBConv, MBConvCfg};
use revbifpn_nn::{CacheMode, Layer, Module, Param, Sequential, ShapeWalk};
use revbifpn_tensor::{Shape, Tensor};

/// Per-stream neck: widens pyramid channels for the task heads.
#[derive(Debug)]
pub struct Neck {
    blocks: Vec<MBConv>,
}

impl Neck {
    /// Builds the neck from a configuration.
    pub fn from_config(cfg: &RevBiFPNConfig) -> Self {
        let mut rng = StdRng::seed_from_u64(cfg.seed ^ 0x4E43);
        let n = cfg.num_streams();
        let blocks = (0..n)
            .map(|i| {
                let se = if cfg.se_placement.applies(i, n) { cfg.se_ratio } else { 0.0 };
                let mb = MBConvCfg::same(cfg.channels[i], 3, cfg.fusion_expansion)
                    .with_c_out(cfg.neck_channels[i])
                    .with_se(se)
                    .plain();
                MBConv::new(mb, &mut rng)
            })
            .collect();
        Self { blocks }
    }

    /// Inference-only frozen form: one fused chain per stream (uncompiled).
    pub fn freeze(&self) -> Result<Vec<revbifpn_nn::FrozenLayer>, revbifpn_nn::FreezeError> {
        self.blocks.iter().map(|b| b.freeze()).collect()
    }

    /// Forward over the pyramid.
    pub fn forward(&mut self, pyramid: &[Tensor], mode: CacheMode) -> Vec<Tensor> {
        assert_eq!(pyramid.len(), self.blocks.len(), "neck stream mismatch");
        pyramid.iter().zip(&mut self.blocks).map(|(x, b)| b.forward(x, mode)).collect()
    }

    /// Backward over the pyramid gradients.
    pub fn backward(&mut self, douts: &[Tensor]) -> Vec<Tensor> {
        douts.iter().zip(&mut self.blocks).map(|(d, b)| b.backward(d)).collect()
    }

    /// Output shapes ([`ShapeWalk::out_shapes`]).
    pub fn out_shapes(&self, pyramid: &[Shape]) -> Vec<Shape> {
        ShapeWalk::out_shapes(self, pyramid)
    }

    /// MAC count ([`ShapeWalk::macs`]).
    pub fn macs(&self, pyramid: &[Shape]) -> u64 {
        ShapeWalk::macs(self, pyramid)
    }

    /// Visits all parameters ([`Module::visit_params`]).
    pub fn visit_params(&mut self, f: &mut dyn FnMut(&mut Param)) {
        Module::visit_params(self, f)
    }

    /// Visits all persistent buffers ([`Module::visit_buffers`]).
    pub fn visit_buffers(&mut self, f: &mut dyn FnMut(&mut Tensor)) {
        Module::visit_buffers(self, f)
    }
}

impl Module for Neck {
    fn visit_layers(&mut self, f: &mut dyn FnMut(&mut dyn Layer)) {
        for b in &mut self.blocks {
            f(b);
        }
    }
}

impl ShapeWalk for Neck {
    /// One block per stream.
    fn visit_layers_at(&self, xs: &[Shape], f: &mut dyn FnMut(&dyn Layer, Shape)) -> Vec<Shape> {
        xs.iter()
            .zip(&self.blocks)
            .map(|(&x, b)| {
                f(b, x);
                b.out_shape(x)
            })
            .collect()
    }
}

/// Classification head over a (necked) feature pyramid (Figure 13).
#[derive(Debug)]
pub struct ClsHead {
    downs: Vec<MBConv>,
    tail: Sequential,
    num_streams: usize,
}

impl ClsHead {
    /// Builds the head from a configuration.
    pub fn from_config(cfg: &RevBiFPNConfig) -> Self {
        let mut rng = StdRng::seed_from_u64(cfg.seed ^ 0xC15);
        let n = cfg.num_streams();
        let downs = (0..n - 1)
            .map(|i| {
                let mb = MBConvCfg::down(cfg.neck_channels[i], cfg.neck_channels[i + 1], 1, cfg.fusion_expansion)
                    .plain();
                MBConv::new(mb, &mut rng)
            })
            .collect();
        let mut tail = Sequential::new();
        tail.add(Box::new(Conv2d::pointwise(cfg.neck_channels[n - 1], cfg.head_dim, false, &mut rng)));
        tail.add(Box::new(BatchNorm2d::new(cfg.head_dim)));
        tail.add(Box::new(HardSwish::new()));
        tail.add(Box::new(GlobalAvgPool::new()));
        if cfg.dropout > 0.0 {
            tail.add(Box::new(Dropout::new(cfg.dropout, cfg.seed ^ 0xD0)));
        }
        tail.add(Box::new(Linear::new(cfg.head_dim, cfg.num_classes, &mut rng)));
        Self { downs, tail, num_streams: n }
    }

    /// Inference-only frozen form (uncompiled; see [`crate::FrozenClsHead`]).
    pub fn freeze(&self) -> Result<crate::FrozenClsHead, revbifpn_nn::FreezeError> {
        Ok(crate::FrozenClsHead {
            downs: self.downs.iter().map(|d| d.freeze()).collect::<Result<Vec<_>, _>>()?,
            tail: self.tail.freeze()?,
            num_streams: self.num_streams,
        })
    }

    /// Forward pass: necked pyramid to class logits `[n, classes, 1, 1]`.
    pub fn forward(&mut self, neck: &[Tensor], mode: CacheMode) -> Tensor {
        assert_eq!(neck.len(), self.num_streams, "head stream mismatch");
        let mut h = neck[0].clone();
        for (i, d) in self.downs.iter_mut().enumerate() {
            let down = d.forward(&h, mode);
            h = &down + &neck[i + 1];
        }
        self.tail.forward(&h, mode)
    }

    /// Backward pass: logits gradient to per-stream neck gradients.
    pub fn backward(&mut self, dlogits: &Tensor) -> Vec<Tensor> {
        let mut dh = self.tail.backward(dlogits);
        let mut dneck: Vec<Option<Tensor>> = vec![None; self.num_streams];
        for i in (0..self.downs.len()).rev() {
            dneck[i + 1] = Some(dh.clone());
            dh = self.downs[i].backward(&dh);
        }
        dneck[0] = Some(dh);
        dneck.into_iter().map(|d| d.expect("all streams receive gradient")).collect()
    }

    /// MAC count for necked pyramid shapes ([`ShapeWalk::macs`]).
    pub fn macs(&self, neck: &[Shape]) -> u64 {
        ShapeWalk::macs(self, neck)
    }
}

impl Module for ClsHead {
    fn visit_layers(&mut self, f: &mut dyn FnMut(&mut dyn Layer)) {
        for d in &mut self.downs {
            f(d);
        }
        f(&mut self.tail);
    }
}

impl ShapeWalk for ClsHead {
    /// Down block `i` at the running sum, which has stream `i`'s shape, then
    /// the tail at the coarsest stream's; one logits stream out.
    fn visit_layers_at(&self, xs: &[Shape], f: &mut dyn FnMut(&dyn Layer, Shape)) -> Vec<Shape> {
        for (d, &h) in self.downs.iter().zip(xs) {
            f(d, h);
        }
        let h = xs[self.downs.len()];
        f(&self.tail, h);
        vec![self.tail.out_shape(h)]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use revbifpn_nn::Accounting;
    use rand::SeedableRng;

    fn tiny_pyramid(n: usize, seed: u64) -> (RevBiFPNConfig, Vec<Tensor>) {
        let cfg = RevBiFPNConfig::tiny(10);
        let mut rng = StdRng::seed_from_u64(seed);
        let pyr = (0..cfg.num_streams())
            .map(|i| Tensor::randn(Shape::new(n, cfg.channels[i], 16 >> i, 16 >> i), 1.0, &mut rng))
            .collect();
        (cfg, pyr)
    }

    #[test]
    fn neck_widens_channels() {
        let (cfg, pyr) = tiny_pyramid(2, 0);
        let mut neck = Neck::from_config(&cfg);
        let out = neck.forward(&pyr, CacheMode::None);
        for (i, o) in out.iter().enumerate() {
            assert_eq!(o.shape().c, cfg.neck_channels[i]);
            assert_eq!(o.shape().hw(), pyr[i].shape().hw());
        }
    }

    #[test]
    fn head_produces_logits() {
        let (cfg, pyr) = tiny_pyramid(2, 1);
        let mut neck = Neck::from_config(&cfg);
        let mut head = ClsHead::from_config(&cfg);
        let n_out = neck.forward(&pyr, CacheMode::None);
        let logits = head.forward(&n_out, CacheMode::None);
        assert_eq!(logits.shape(), Shape::new(2, 10, 1, 1));
    }

    #[test]
    fn head_backward_produces_stream_grads() {
        let (cfg, pyr) = tiny_pyramid(2, 2);
        let mut neck = Neck::from_config(&cfg);
        let mut head = ClsHead::from_config(&cfg);
        let n_out = neck.forward(&pyr, CacheMode::Full);
        let logits = head.forward(&n_out, CacheMode::Full);
        let dl = Tensor::ones(logits.shape());
        let dneck = head.backward(&dl);
        assert_eq!(dneck.len(), cfg.num_streams());
        for (d, o) in dneck.iter().zip(&n_out) {
            assert_eq!(d.shape(), o.shape());
        }
        let dpyr = neck.backward(&dneck);
        for (d, p) in dpyr.iter().zip(&pyr) {
            assert_eq!(d.shape(), p.shape());
        }
    }

    #[test]
    fn macs_and_cache_accounting() {
        let (cfg, pyr) = tiny_pyramid(1, 3);
        let shapes: Vec<Shape> = pyr.iter().map(|p| p.shape()).collect();
        let mut neck = Neck::from_config(&cfg);
        let head = ClsHead::from_config(&cfg);
        let n_shapes = neck.out_shapes(&shapes);
        assert!(neck.macs(&shapes) > 0);
        assert!(head.macs(&n_shapes) > 0);

        revbifpn_nn::meter::reset();
        let outs = neck.forward(&pyr, CacheMode::Full);
        assert_eq!(revbifpn_nn::meter::current() as u64, neck.cache_bytes(&shapes, CacheMode::Full, Accounting::Layout));
        let mut head = head;
        let _ = head.forward(&outs, CacheMode::Full);
        assert_eq!(
            revbifpn_nn::meter::current() as u64,
            neck.cache_bytes(&shapes, CacheMode::Full, Accounting::Layout)
                + head.cache_bytes(&n_shapes, CacheMode::Full, Accounting::Layout)
        );
        neck.clear_cache();
        head.clear_cache();
        assert_eq!(revbifpn_nn::meter::current(), 0);
    }
}
