//! HRNet (Sun et al. 2019; Wang et al. 2020): the paper's main detection /
//! segmentation baseline and its closest architectural relative — the same
//! bidirectional multi-stream topology, but **non-reversible**, so every
//! fusion module's activations must be cached for backward.
//!
//! This is a faithful miniature of HRNetV2: conv stem (/4), a bottleneck
//! stage, then stages of parallel basic-block branches joined by full
//! bidirectional fusion modules (strided 3x3 chains downward, 1x1 +
//! nearest-upsample upward). `HrNetConfig::w{18,32,48}` reproduce the paper
//! baselines' widths for the analytic comparisons; `micro` is runnable on
//! CPU for the detection experiments.

// The exchange-unit `(i, j)` range loops index the stream list and the
// `paths[i][j]` bank in lockstep (same convention as the RevSilo); iterator
// chains would obscure the stream topology.
#![allow(clippy::needless_range_loop)]

use rand::rngs::StdRng;
use rand::SeedableRng;
use revbifpn_nn::layers::{BatchNorm2d, Conv2d, Relu, Residual, Upsample};
use revbifpn_nn::{Accounting, CacheMode, Layer, Module, Sequential, ShapeWalk};
use revbifpn_tensor::{ConvSpec, ResizeMode, Shape, Tensor};

fn conv_bn(c_in: usize, c_out: usize, k: usize, stride: usize, rng: &mut StdRng) -> Sequential {
    let mut s = Sequential::new();
    s.add(Box::new(Conv2d::new(c_in, c_out, ConvSpec::kxk(k, stride), false, rng)));
    s.add(Box::new(BatchNorm2d::new(c_out)));
    s
}

fn conv_bn_relu(c_in: usize, c_out: usize, k: usize, stride: usize, rng: &mut StdRng) -> Sequential {
    let mut s = conv_bn(c_in, c_out, k, stride, rng);
    s.add(Box::new(Relu::new()));
    s
}

/// Basic residual block: two 3x3 convs with an identity skip.
fn basic_block(c: usize, rng: &mut StdRng) -> Box<dyn Layer> {
    let mut branch = Sequential::new();
    branch.add(Box::new(Conv2d::new(c, c, ConvSpec::kxk(3, 1), false, rng)));
    branch.add(Box::new(BatchNorm2d::new(c)));
    branch.add(Box::new(Relu::new()));
    branch.add(Box::new(Conv2d::new(c, c, ConvSpec::kxk(3, 1), false, rng)));
    branch.add(Box::new(BatchNorm2d::new(c).zero_init()));
    let mut s = Sequential::new();
    s.add(Box::new(Residual::new(Box::new(branch), 0.0, 0)));
    s.add(Box::new(Relu::new()));
    Box::new(s)
}

/// HRNet configuration.
#[derive(Clone, Debug, PartialEq)]
pub struct HrNetConfig {
    /// Variant name.
    pub name: String,
    /// Base width `W`; stream `i` has `W * 2^i` channels.
    pub width: usize,
    /// Number of streams in the final stage.
    pub num_streams: usize,
    /// Basic blocks per branch per module.
    pub blocks_per_branch: usize,
    /// Fusion modules per stage (stage `s` has `modules[s]` modules,
    /// `s = 0` being the 2-stream stage).
    pub modules: Vec<usize>,
    /// Input resolution.
    pub resolution: usize,
    /// Bottleneck-stage channel count (HRNet uses 64 -> 256).
    pub stage1_channels: usize,
    /// Init seed.
    pub seed: u64,
}

impl HrNetConfig {
    fn wx(name: &str, width: usize) -> Self {
        Self {
            name: name.into(),
            width,
            num_streams: 4,
            blocks_per_branch: 4,
            modules: vec![1, 4, 3],
            resolution: 224,
            stage1_channels: 64,
            seed: 0,
        }
    }

    /// HRNetV2-W18.
    pub fn w18() -> Self {
        Self::wx("HRNetV2-W18", 18)
    }

    /// HRNetV2-W32.
    pub fn w32() -> Self {
        Self::wx("HRNetV2-W32", 32)
    }

    /// HRNetV2-W48.
    pub fn w48() -> Self {
        Self::wx("HRNetV2-W48", 48)
    }

    /// Miniature runnable variant (3 streams, width 8, res 32).
    pub fn micro() -> Self {
        Self {
            name: "HRNet-micro".into(),
            width: 8,
            num_streams: 3,
            blocks_per_branch: 1,
            modules: vec![1, 1],
            resolution: 32,
            stage1_channels: 16,
            seed: 0,
        }
    }

    /// Channels of stream `i`.
    pub fn stream_channels(&self, i: usize) -> usize {
        self.width << i
    }
}

/// A full bidirectional fusion module (the non-reversible analogue of the
/// RevSilo): `out_i = relu(Σ_j path_ij(x_j))`.
#[derive(Debug)]
struct FuseModule {
    /// `paths[i][j]`: transform from stream `j` to stream `i` (`None` for
    /// the identity `i == j`).
    paths: Vec<Vec<Option<Box<dyn Layer>>>>,
    relus: Vec<Relu>,
    streams: usize,
}

impl FuseModule {
    fn new(cfg: &HrNetConfig, streams: usize, rng: &mut StdRng) -> Self {
        let mut paths = Vec::with_capacity(streams);
        for i in 0..streams {
            let mut row: Vec<Option<Box<dyn Layer>>> = Vec::with_capacity(streams);
            for j in 0..streams {
                let ci = cfg.stream_channels(i);
                let cj = cfg.stream_channels(j);
                if j == i {
                    row.push(None);
                } else if j < i {
                    // Downward: chain of stride-2 3x3 convs ("ld").
                    let mut s = Sequential::new();
                    let mut c = cj;
                    for t in j..i {
                        let c_out = if t + 1 == i { ci } else { cfg.stream_channels(t + 1) };
                        s.add(Box::new(Conv2d::new(c, c_out, ConvSpec::kxk(3, 2), false, rng)));
                        s.add(Box::new(BatchNorm2d::new(c_out)));
                        if t + 1 != i {
                            s.add(Box::new(Relu::new()));
                        }
                        c = c_out;
                    }
                    row.push(Some(Box::new(s)));
                } else {
                    // Upward: 1x1 conv + nearest upsample ("su").
                    let mut s = conv_bn(cj, ci, 1, 1, rng);
                    s.add(Box::new(Upsample::new(1 << (j - i), ResizeMode::Nearest)));
                    row.push(Some(Box::new(s)));
                }
            }
            paths.push(row);
        }
        Self { paths, relus: (0..streams).map(|_| Relu::new()).collect(), streams }
    }

    fn forward(&mut self, xs: &[Tensor], mode: CacheMode) -> Vec<Tensor> {
        let mut outs = Vec::with_capacity(self.streams);
        for i in 0..self.streams {
            let mut acc = xs[i].clone();
            for j in 0..self.streams {
                if let Some(p) = &mut self.paths[i][j] {
                    acc.add_assign(&p.forward(&xs[j], mode));
                }
            }
            outs.push(self.relus[i].forward(&acc, mode));
        }
        outs
    }

    fn backward(&mut self, dys: &[Tensor]) -> Vec<Tensor> {
        let dsums: Vec<Tensor> = dys.iter().zip(&mut self.relus).map(|(d, r)| r.backward(d)).collect();
        let mut dxs: Vec<Tensor> = dsums.clone();
        for i in 0..self.streams {
            for j in 0..self.streams {
                if let Some(p) = &mut self.paths[i][j] {
                    dxs[j].add_assign(&p.backward(&dsums[i]));
                }
            }
        }
        dxs
    }
}

impl Module for FuseModule {
    /// The paths row by row, then the output ReLUs.
    fn visit_layers(&mut self, f: &mut dyn FnMut(&mut dyn Layer)) {
        for p in self.paths.iter_mut().flatten().flatten() {
            f(p.as_mut());
        }
        for r in &mut self.relus {
            f(r);
        }
    }
}

impl ShapeWalk for FuseModule {
    /// Path `j -> i` at stream `j`'s shape, then ReLU `i` at stream `i`'s;
    /// every stream keeps its shape.
    fn visit_layers_at(&self, xs: &[Shape], f: &mut dyn FnMut(&dyn Layer, Shape)) -> Vec<Shape> {
        for row in &self.paths {
            for (p, &x) in row.iter().zip(xs) {
                if let Some(p) = p {
                    f(p.as_ref(), x);
                }
            }
        }
        for (r, &x) in self.relus.iter().zip(xs) {
            f(r, x);
        }
        xs.to_vec()
    }
}

/// One HRNet stage module: parallel basic-block branches + a fusion module.
#[derive(Debug)]
struct HrModule {
    branches: Vec<Sequential>,
    fuse: FuseModule,
}

impl HrModule {
    fn new(cfg: &HrNetConfig, streams: usize, rng: &mut StdRng) -> Self {
        let branches = (0..streams)
            .map(|i| {
                let mut s = Sequential::new();
                for _ in 0..cfg.blocks_per_branch {
                    s.add(basic_block(cfg.stream_channels(i), rng));
                }
                s
            })
            .collect();
        Self { branches, fuse: FuseModule::new(cfg, streams, rng) }
    }

    fn forward(&mut self, xs: &[Tensor], mode: CacheMode) -> Vec<Tensor> {
        let mids: Vec<Tensor> =
            xs.iter().zip(&mut self.branches).map(|(x, b)| b.forward(x, mode)).collect();
        self.fuse.forward(&mids, mode)
    }

    fn backward(&mut self, dys: &[Tensor]) -> Vec<Tensor> {
        let dmids = self.fuse.backward(dys);
        dmids.iter().zip(&mut self.branches).map(|(d, b)| b.backward(d)).collect()
    }
}

impl Module for HrModule {
    fn visit_layers(&mut self, f: &mut dyn FnMut(&mut dyn Layer)) {
        for b in &mut self.branches {
            f(b);
        }
        self.fuse.visit_layers(f);
    }
}

impl ShapeWalk for HrModule {
    /// The first `branches.len()` streams of `xs`: one branch each (a branch
    /// keeps its stream's shape), then the fusion.
    fn visit_layers_at(&self, xs: &[Shape], f: &mut dyn FnMut(&dyn Layer, Shape)) -> Vec<Shape> {
        for (b, &x) in self.branches.iter().zip(xs) {
            f(b, x);
        }
        self.fuse.visit_layers_at(&xs[..self.branches.len()], f)
    }
}

/// The HRNet backbone: image to an N-stream feature pyramid.
#[derive(Debug)]
pub struct HrNet {
    cfg: HrNetConfig,
    stem: Sequential,
    stage1: Sequential,
    /// `transitions[k]` creates stream `k+1` from stream `k`'s features (or
    /// adapts widths when entering a new stage).
    transitions: Vec<Box<dyn Layer>>,
    stages: Vec<Vec<HrModule>>,
}

impl HrNet {
    /// Builds the backbone.
    pub fn new(cfg: HrNetConfig) -> Self {
        let mut rng = StdRng::seed_from_u64(cfg.seed);
        // Stem: two stride-2 3x3 convs.
        let sc = cfg.stage1_channels;
        let mut stem = Sequential::new();
        stem.add(Box::new(Conv2d::new(3, sc, ConvSpec::kxk(3, 2), false, &mut rng)));
        stem.add(Box::new(BatchNorm2d::new(sc)));
        stem.add(Box::new(Relu::new()));
        stem.add(Box::new(Conv2d::new(sc, sc, ConvSpec::kxk(3, 2), false, &mut rng)));
        stem.add(Box::new(BatchNorm2d::new(sc)));
        stem.add(Box::new(Relu::new()));
        // Stage 1: basic blocks at stem width, then adapt to stream-0 width.
        let mut stage1 = Sequential::new();
        for _ in 0..cfg.blocks_per_branch {
            stage1.add(basic_block(sc, &mut rng));
        }
        stage1.add(Box::new(Sequential::from_layers(vec![
            Box::new(Conv2d::new(sc, cfg.stream_channels(0), ConvSpec::kxk(3, 1), false, &mut rng)),
            Box::new(BatchNorm2d::new(cfg.stream_channels(0))),
            Box::new(Relu::new()),
        ])));
        // Transitions: stream k -> stream k+1 via stride-2 conv.
        let mut transitions: Vec<Box<dyn Layer>> = Vec::new();
        for k in 0..cfg.num_streams - 1 {
            transitions.push(Box::new(conv_bn_relu(
                cfg.stream_channels(k),
                cfg.stream_channels(k + 1),
                3,
                2,
                &mut rng,
            )));
        }
        // Stages 2..: modules over a growing number of streams.
        let mut stages = Vec::new();
        for (s, &m) in cfg.modules.iter().enumerate() {
            let streams = (s + 2).min(cfg.num_streams);
            stages.push((0..m).map(|_| HrModule::new(&cfg, streams, &mut rng)).collect());
        }
        Self { cfg, stem, stage1, transitions, stages }
    }

    /// The configuration.
    pub fn cfg(&self) -> &HrNetConfig {
        &self.cfg
    }

    /// Forward pass to the final multi-stream pyramid.
    pub fn forward(&mut self, x: &Tensor, mode: CacheMode) -> Vec<Tensor> {
        let s = self.stem.forward(x, mode);
        let s = self.stage1.forward(&s, mode);
        let mut streams = vec![s];
        for (stage_idx, stage) in self.stages.iter_mut().enumerate() {
            // Grow a new stream entering this stage.
            let new_idx = stage_idx + 1;
            if new_idx < self.cfg.num_streams && streams.len() == new_idx {
                let last = streams.last().expect("streams never empty");
                let t = self.transitions[new_idx - 1].forward(last, mode);
                streams.push(t);
            }
            for module in stage {
                streams = module.forward(&streams, mode);
            }
        }
        streams
    }

    /// Backward pass from pyramid gradients (conventional training only).
    pub fn backward(&mut self, dpyramid: Vec<Tensor>) -> Tensor {
        let mut ds = dpyramid;
        for (stage_idx, stage) in self.stages.iter_mut().enumerate().rev() {
            for module in stage.iter_mut().rev() {
                ds = module.backward(&ds);
            }
            let new_idx = stage_idx + 1;
            if new_idx < self.cfg.num_streams && ds.len() == new_idx + 1 {
                let dnew = ds.pop().expect("stream gradient present");
                let dlast = self.transitions[new_idx - 1].backward(&dnew);
                ds.last_mut().expect("streams never empty").add_assign(&dlast);
            }
        }
        let d = self.stage1.backward(&ds[0]);
        self.stem.backward(&d)
    }

    /// Total MACs at batch `n`, resolution `res`.
    pub fn macs_at(&self, n: usize, res: usize) -> u64 {
        self.macs(&[Shape::new(n, 3, res, res)])
    }

    /// Analytic activation-cache bytes of a training forward. No layer of
    /// HRNet stores less than per-op autograd would, so both accountings
    /// agree.
    pub fn activation_bytes_at(&self, n: usize, res: usize) -> u64 {
        self.cache_bytes(&[Shape::new(n, 3, res, res)], CacheMode::Full, Accounting::Layout)
    }
}

impl Module for HrNet {
    fn visit_layers(&mut self, f: &mut dyn FnMut(&mut dyn Layer)) {
        f(&mut self.stem);
        f(&mut self.stage1);
        for t in &mut self.transitions {
            f(t.as_mut());
        }
        for m in self.stages.iter_mut().flatten() {
            m.visit_layers(f);
        }
    }
}

impl ShapeWalk for HrNet {
    /// Stem and stage 1 at the image, transition `k` at stream `k` (modules
    /// keep their streams' shapes, so each transition's input is its
    /// predecessor's output), then every module over its stage's streams.
    fn visit_layers_at(&self, xs: &[Shape], f: &mut dyn FnMut(&dyn Layer, Shape)) -> Vec<Shape> {
        let mut at = |l: &dyn Layer, x: Shape| {
            f(l, x);
            l.out_shape(x)
        };
        let s0 = at(&self.stem, xs[0]);
        let mut streams = vec![at(&self.stage1, s0)];
        for t in &self.transitions {
            let last = streams[streams.len() - 1];
            streams.push(at(t.as_ref(), last));
        }
        for m in self.stages.iter().flatten() {
            m.visit_layers_at(&streams, f);
        }
        streams
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn micro_forward_backward_shapes() {
        let mut net = HrNet::new(HrNetConfig::micro());
        let mut rng = StdRng::seed_from_u64(0);
        let x = Tensor::randn(Shape::new(2, 3, 32, 32), 1.0, &mut rng);
        let pyr = net.forward(&x, CacheMode::Full);
        let shapes = net.out_shapes(&[x.shape()]);
        assert_eq!(pyr.len(), 3);
        for (p, s) in pyr.iter().zip(shapes) {
            assert_eq!(p.shape(), s);
        }
        let _ = rng.random::<f32>();
        let dpyr: Vec<Tensor> = pyr.iter().map(|p| Tensor::ones(p.shape())).collect();
        let dx = net.backward(dpyr);
        assert_eq!(dx.shape(), x.shape());
        net.clear_cache();
    }

    #[test]
    fn w18_params_near_paper() {
        // HRNet-W18-C has 21.3M params (paper Table 11); the backbone alone
        // (no classification head) is somewhat smaller.
        let mut net = HrNet::new(HrNetConfig::w18());
        let p = net.param_count();
        assert!((8_000_000..=30_000_000).contains(&p), "params {p}");
    }

    #[test]
    fn widths_scale_params() {
        let mut w18 = HrNet::new(HrNetConfig::w18());
        let mut w32 = HrNet::new(HrNetConfig::w32());
        assert!(w32.param_count() > 2 * w18.param_count());
    }

    #[test]
    fn meter_matches_analytic_cache() {
        revbifpn_nn::meter::reset();
        let mut net = HrNet::new(HrNetConfig::micro());
        let mut rng = StdRng::seed_from_u64(1);
        let x = Tensor::randn(Shape::new(1, 3, 32, 32), 1.0, &mut rng);
        let _ = net.forward(&x, CacheMode::Full);
        assert_eq!(revbifpn_nn::meter::current() as u64, net.activation_bytes_at(1, 32));
        net.clear_cache();
        assert_eq!(revbifpn_nn::meter::current(), 0);
    }

    #[test]
    fn macs_grow_with_resolution() {
        let net = HrNet::new(HrNetConfig::micro());
        assert!(net.macs_at(1, 64) > 3 * net.macs_at(1, 32));
    }
}
