//! Frozen (inference-only) execution of the reversible backbone stages.
//!
//! The frozen forms run the eval-mode (`CacheMode::None`) stage math of
//! the training forms exactly — the same silo sweep, the same sum order —
//! but every transform is a fused [`FrozenLayer`]: BN folded into the convs,
//! activations in the GEMM epilogues, weight panels packed once. Frozen
//! stages are forward-only; reversibility is a training-time property and
//! the whole point of freezing is that inference does not pay for it.

use crate::silo::{halves, streams, sweep, tensors, Row, Stream, FED};
use revbifpn_nn::{FrozenLayer, FrozenTree};
use revbifpn_tensor::{par, Tensor};
use std::borrow::Cow;

/// Frozen form of a [`crate::RevBlock`]: the two-stream frozen silo over
/// `(x2, x1)`, `y1 = x1 + F(x2); y2 = x2 + G(y1)`.
#[derive(Debug)]
pub struct FrozenRevBlock {
    /// `down[1][0]` is F, `up[0][0]` is G.
    pub(crate) silo: FrozenSilo,
    pub(crate) c_split: usize,
}

impl FrozenRevBlock {
    pub(crate) fn new(c_split: usize, f: FrozenLayer, g: FrozenLayer) -> Self {
        let silo = FrozenSilo { n_in: 2, n_out: 2, down: vec![vec![], vec![f]], up: vec![vec![g], vec![]] };
        Self { silo, c_split }
    }

    /// Fused forward pass (additive coupling, eval semantics).
    pub fn forward(&self, x: &Tensor) -> Tensor {
        crate::revblock::coupled(x, self.c_split, |s| self.silo.forward_streams(s))
    }
}

impl FrozenTree for FrozenRevBlock {
    /// F, then G.
    fn visit_frozen(&self, f: &mut dyn FnMut(&FrozenLayer)) {
        self.silo.visit_frozen(f);
    }

    fn visit_frozen_mut(&mut self, f: &mut dyn FnMut(&mut FrozenLayer)) {
        self.silo.visit_frozen_mut(f);
    }
}

/// Frozen form of a [`crate::RevSilo`]: the bidirectional fusion math of
/// Equations 1–8 with fused transforms.
#[derive(Debug)]
pub struct FrozenSilo {
    pub(crate) n_in: usize,
    pub(crate) n_out: usize,
    /// `down[i][j]`, `j < min(i, n_in)`: transform stream `j` -> `i`.
    pub(crate) down: Vec<Vec<FrozenLayer>>,
    /// `up[i][j - i - 1]`, `j in i+1..n_out`: transform stream `j` -> `i`.
    pub(crate) up: Vec<Vec<FrozenLayer>>,
}

impl FrozenSilo {
    /// Number of input streams.
    pub fn n_in(&self) -> usize {
        self.n_in
    }

    /// Number of output streams.
    pub fn n_out(&self) -> usize {
        self.n_out
    }

    /// Fused forward pass over `xs` (length `n_in`), producing `n_out`
    /// streams: the sweep of [`crate::RevSilo::forward`] in eval mode.
    ///
    /// # Panics
    ///
    /// Panics if `xs.len() != n_in`.
    pub fn forward(&self, xs: &[Tensor]) -> Vec<Tensor> {
        assert_eq!(xs.len(), self.n_in, "FrozenSilo expects {} input streams", self.n_in);
        self.forward_streams(streams(xs, self.n_out))
    }

    fn forward_streams(&self, mut s: Vec<Stream<'_>>) -> Vec<Tensor> {
        let (down, up) = halves(self.n_in, self.down.iter(), self.up.iter());
        half(&mut s, down.rev());
        half(&mut s, up);
        tensors(s)
    }
}

/// One half of a frozen silo forward as one join. The in-place sweep order
/// is what makes this legal: every edge of a half reads only streams the
/// half never writes, so each edge is a task that leaves its term in its own
/// slot. The sweep then folds the slots row by row in edge order, the sums
/// of the serial sweep bit for bit.
fn half<'e>(s: &mut [Stream<'_>], rows: impl Iterator<Item = Row<&'e Vec<FrozenLayer>>>) {
    let rows: Vec<_> = rows.collect();
    let edges = rows.iter().flat_map(|(_, sources, edges)| edges.iter().zip(&s[sources.clone()]));
    let mut terms = par::join_map(edges, |(e, x)| e.forward(x.as_deref().expect(FED))).into_iter();
    sweep(s, rows.into_iter(), 1.0, |_, _, edges, _, fold| {
        edges.iter().for_each(|_| fold(terms.next().expect("one term per edge")));
    });
}

impl FrozenTree for FrozenSilo {
    /// All down rows, then all up rows.
    fn visit_frozen(&self, f: &mut dyn FnMut(&FrozenLayer)) {
        self.down.iter().chain(&self.up).flatten().for_each(f);
    }

    fn visit_frozen_mut(&mut self, f: &mut dyn FnMut(&mut FrozenLayer)) {
        self.down.iter_mut().chain(&mut self.up).flatten().for_each(f);
    }
}

/// One frozen stage of a reversible sequence.
#[derive(Debug)]
pub enum FrozenStage {
    /// A frozen fusion silo.
    Silo(FrozenSilo),
    /// Per-stream chains of frozen reversible residual blocks (streams do
    /// not interact).
    Blocks(Vec<Vec<FrozenRevBlock>>),
}

impl FrozenStage {
    /// Fused forward pass over the stream vector. A `Blocks` stage runs each
    /// stream's chain as one pool task.
    pub fn forward(&self, xs: &[Tensor]) -> Vec<Tensor> {
        match self {
            FrozenStage::Silo(s) => s.forward(xs),
            FrozenStage::Blocks(blocks) => {
                assert_eq!(xs.len(), blocks.len(), "FrozenStage stream count mismatch");
                par::join_map(xs.iter().zip(blocks), |(x, chain)| {
                    chain.iter().fold(Cow::Borrowed(x), |cur, b| Cow::Owned(b.forward(&cur))).into_owned()
                })
            }
        }
    }

    /// Packs all conv weight panels in this stage (idempotent).
    pub fn compile(&mut self) {
        FrozenTree::compile(self)
    }

    /// Lowers every fused conv in this stage to int8 (see
    /// [`FrozenLayer::quantize`]; idempotent).
    pub fn quantize(&mut self) {
        FrozenTree::quantize(self)
    }
}

impl FrozenTree for FrozenStage {
    fn visit_frozen(&self, f: &mut dyn FnMut(&FrozenLayer)) {
        match self {
            FrozenStage::Silo(s) => s.visit_frozen(f),
            FrozenStage::Blocks(blocks) => blocks.iter().flatten().for_each(|b| b.visit_frozen(f)),
        }
    }

    fn visit_frozen_mut(&mut self, f: &mut dyn FnMut(&mut FrozenLayer)) {
        match self {
            FrozenStage::Silo(s) => s.visit_frozen_mut(f),
            FrozenStage::Blocks(blocks) => blocks.iter_mut().flatten().for_each(|b| b.visit_frozen_mut(f)),
        }
    }
}

/// A frozen [`crate::ReversibleSequence`]: the backbone chain with every
/// stage in fused form.
#[derive(Debug)]
pub struct FrozenSequence {
    pub(crate) stages: Vec<FrozenStage>,
}

impl FrozenSequence {
    pub(crate) fn new(stages: Vec<FrozenStage>) -> Self {
        Self { stages }
    }

    /// Number of stages.
    pub fn len(&self) -> usize {
        self.stages.len()
    }

    /// `true` when the chain is empty.
    pub fn is_empty(&self) -> bool {
        self.stages.is_empty()
    }

    /// Fused forward through all stages.
    pub fn forward(&self, xs: Vec<Tensor>) -> Vec<Tensor> {
        let mut cur = xs;
        for s in &self.stages {
            cur = s.forward(&cur);
        }
        cur
    }
}

impl FrozenTree for FrozenSequence {
    fn visit_frozen(&self, f: &mut dyn FnMut(&FrozenLayer)) {
        self.stages.iter().for_each(|s| s.visit_frozen(f));
    }

    fn visit_frozen_mut(&mut self, f: &mut dyn FnMut(&mut FrozenLayer)) {
        self.stages.iter_mut().for_each(|s| s.visit_frozen_mut(f));
    }
}

#[cfg(test)]
mod tests {
    use crate::stage::tests_support::on_layer;
    use crate::stage::RevStage;
    use crate::{BlockStage, RevBlock, RevSilo, ReversibleSequence};
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use revbifpn_nn::layers::{MBConv, MBConvCfg};
    use revbifpn_nn::{CacheMode, FrozenLayer, FrozenTree, Layer, Module};
    use revbifpn_tensor::{Shape, Tensor};

    const C: [usize; 3] = [8, 12, 16];

    fn make_silo(n_in: usize, n_out: usize, seed: u64) -> RevSilo {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut down = |j: usize, i: usize| -> Box<dyn Layer> {
            Box::new(MBConv::new(MBConvCfg::down(C[j], C[i], (i - j) as u32, 1.5), &mut rng))
                as Box<dyn Layer>
        };
        let mut rng2 = StdRng::seed_from_u64(seed + 1);
        let mut up = |j: usize, i: usize| -> Box<dyn Layer> {
            Box::new(MBConv::new(MBConvCfg::up(C[j], C[i], (j - i) as u32, 1.5), &mut rng2))
                as Box<dyn Layer>
        };
        RevSilo::new(n_in, n_out, &mut down, &mut up)
    }

    fn make_blocks(streams: usize, seed: u64) -> BlockStage {
        let mut rng = StdRng::seed_from_u64(seed);
        let blocks = (0..streams)
            .map(|i| {
                let half = C[i] / 2;
                let f = MBConv::new(MBConvCfg::same(half, 3, 1.5).plain(), &mut rng);
                let g = MBConv::new(MBConvCfg::same(half, 3, 1.5).plain(), &mut rng);
                vec![RevBlock::new(C[i], Box::new(f), Box::new(g))]
            })
            .collect();
        BlockStage::new(blocks)
    }

    fn randomize_bn(m: &mut impl Module, seed: u64) {
        let mut rng = StdRng::seed_from_u64(seed);
        m.visit_params(&mut |p| {
            if p.name == "bn.gamma" {
                p.value = Tensor::uniform(p.value.shape(), 0.5, 1.5, &mut rng);
            }
        });
    }

    #[test]
    fn frozen_sequence_matches_eval_forward() {
        let mut seq = ReversibleSequence::new();
        seq.add(Box::new(make_silo(1, 2, 30)));
        seq.add(Box::new(make_blocks(2, 31)));
        seq.add(Box::new(make_silo(2, 3, 32)));
        randomize_bn(&mut seq, 33);

        let mut frozen = seq.freeze().unwrap();
        frozen.compile();
        assert_eq!(frozen.len(), 3);
        assert!(frozen.packed_bytes() > 0);

        let mut rng = StdRng::seed_from_u64(34);
        let x = Tensor::randn(Shape::new(2, 8, 16, 16), 1.0, &mut rng);
        let want = seq.forward(vec![x.clone()], CacheMode::None);
        let got = frozen.forward(vec![x]);
        assert_eq!(got.len(), want.len());
        for (i, (g, w)) in got.iter().zip(&want).enumerate() {
            assert_eq!(g.shape(), w.shape(), "stream {i}");
            let tol = 1e-4 * (1.0 + w.abs_max());
            assert!(g.max_abs_diff(w) < tol, "stream {i}: diff {}", g.max_abs_diff(w));
        }
    }

    #[test]
    fn quantized_sequence_tracks_the_frozen_forward() {
        let mut seq = ReversibleSequence::new();
        seq.add(Box::new(make_silo(1, 2, 50)));
        seq.add(Box::new(make_blocks(2, 51)));
        randomize_bn(&mut seq, 52);

        let mut frozen = seq.freeze().unwrap();
        frozen.compile();
        let mut quant = seq.freeze().unwrap();
        quant.quantize();
        quant.compile();
        assert_eq!(quant.packed_bytes(), 0, "quantized chain must not pack f32 panels");
        assert!(quant.quant_packed_bytes() > 0);
        assert!(quant.quant_packed_bytes() < frozen.packed_bytes());

        let mut rng = StdRng::seed_from_u64(53);
        let x = Tensor::randn(Shape::new(2, 8, 16, 16), 1.0, &mut rng);
        let want = frozen.forward(vec![x.clone()]);
        let got = quant.forward(vec![x]);
        assert_eq!(got.len(), want.len());
        for (i, (g, w)) in got.iter().zip(&want).enumerate() {
            assert_eq!(g.shape(), w.shape(), "stream {i}");
            // Weight quantization error compounds through every MBConv; the
            // silo + block chain routes stream 1 through three of them plus
            // additive couplings.
            let tol = 0.12 * (1.0 + w.abs_max());
            assert!(
                g.max_abs_diff(w) < tol,
                "stream {i}: diff {} absmax {} tol {}",
                g.max_abs_diff(w),
                w.abs_max(),
                tol
            );
        }
    }

    /// Runs `f` on layer `n` of a frozen walk (silo: down rows, then up
    /// rows; block: F, then G).
    fn on_frozen<R>(t: &impl FrozenTree, n: usize, f: impl FnOnce(&FrozenLayer) -> R) -> R {
        let (mut k, mut f, mut out) = (0, Some(f), None);
        t.visit_frozen(&mut |l| {
            if k == n {
                out = f.take().map(|f| f(l));
            }
            k += 1;
        });
        out.expect("the walk has no such layer")
    }

    #[test]
    fn frozen_stages_match_the_allocating_formulas_bit_for_bit() {
        // Every forward and inverse builds its sums in place; the values
        // must be those of the plain formulas, one fresh tensor per sum. A
        // (2, 3) silo's walk is D10, D20, D21, U01, U02, U12; a block's is
        // F, G, over the halves `x = (x1, x2)` split at `C[0] / 2`.
        let mut rng = StdRng::seed_from_u64(60);
        let x = Tensor::randn(Shape::new(2, C[0], 8, 8), 1.0, &mut rng);
        let xs = [x.clone(), Tensor::randn(Shape::new(2, C[1], 4, 4), 1.0, &mut rng)];
        let (x1, x2) = x.split_channels(C[0] / 2);

        let mut fb = RevStage::freeze(&make_blocks(1, 61)).unwrap();
        fb.compile();
        let y1 = &x1 + &on_frozen(&fb, 0, |f| f.forward(&x2));
        let y2 = &x2 + &on_frozen(&fb, 1, |g| g.forward(&y1));
        assert_eq!(fb.forward(std::slice::from_ref(&x))[0], Tensor::concat_channels(&[&y1, &y2]));

        let mut silo = make_silo(2, 3, 62).freeze().unwrap();
        silo.compile();
        let e = |n: usize, x: &Tensor| on_frozen(&silo, n, |l| l.forward(x));
        let m1 = &xs[1] + &e(0, &xs[0]);
        let m2 = &e(1, &xs[0]) + &e(2, &xs[1]);
        let o1 = &m1 + &e(5, &m2);
        let o0 = &(&xs[0] + &e(3, &m1)) + &e(4, &m2);
        assert_eq!(silo.forward(&xs), vec![o0, o1, m2]);

        // The training forms, in both forward modes, against a twin whose
        // edges run the formulas; then the inverse of the `None` forward.
        let twin = || {
            let mut s = make_silo(2, 3, 63);
            randomize_bn(&mut s, 64);
            s
        };
        let (mut silo, mut edges) = (twin(), twin());
        for mode in [CacheMode::None, CacheMode::Stats] {
            let mut e = |n: usize, x: &Tensor| on_layer(&mut edges, n, |l| l.forward(x, mode));
            let m1 = &xs[1] + &e(0, &xs[0]);
            let m2 = &e(1, &xs[0]) + &e(2, &xs[1]);
            let o1 = &m1 + &e(5, &m2);
            let o0 = &(&xs[0] + &e(3, &m1)) + &e(4, &m2);
            assert_eq!(silo.forward(&xs, mode), vec![o0, o1, m2], "silo forward in {mode:?}");
            silo.clear_cache();
            edges.clear_cache();
        }
        let ys = silo.forward(&xs, CacheMode::None);
        let mut e = |n: usize, x: &Tensor| on_layer(&mut edges, n, |l| l.forward(x, CacheMode::None));
        let m1 = &ys[1] - &e(5, &ys[2]);
        let m0 = &(&ys[0] - &e(3, &m1)) - &e(4, &ys[2]);
        let x1_rec = &m1 - &e(0, &m0);
        assert_eq!(silo.inverse(&ys), vec![m0, x1_rec], "silo inverse");

        let twin = || {
            let mut rng = StdRng::seed_from_u64(65);
            let body = |rng: &mut StdRng| Box::new(MBConv::new(MBConvCfg::same(C[0] / 2, 3, 1.5).plain(), rng));
            let mut b = RevBlock::new(C[0], body(&mut rng), body(&mut rng));
            randomize_bn(&mut b, 66);
            b
        };
        let (mut block, mut fg) = (twin(), twin());
        for mode in [CacheMode::None, CacheMode::Stats] {
            let y1 = &x1 + &on_layer(&mut fg, 0, |f| f.forward(&x2, mode));
            let y2 = &x2 + &on_layer(&mut fg, 1, |g| g.forward(&y1, mode));
            assert_eq!(block.forward(&x, mode), Tensor::concat_channels(&[&y1, &y2]), "block forward in {mode:?}");
            block.clear_cache();
            fg.clear_cache();
        }
        let y = block.forward(&x, CacheMode::None);
        let (y1, y2) = y.split_channels(C[0] / 2);
        let x2_rec = &y2 - &on_layer(&mut fg, 1, |g| g.forward(&y1, CacheMode::None));
        let x1_rec = &y1 - &on_layer(&mut fg, 0, |f| f.forward(&x2_rec, CacheMode::None));
        assert_eq!(block.inverse(&y), Tensor::concat_channels(&[&x1_rec, &x2_rec]), "block inverse");
    }

    #[test]
    fn frozen_stage_hooks_cover_both_stage_kinds() {
        let silo = make_silo(2, 2, 40);
        let blocks = make_blocks(2, 41);
        let mut fs = RevStage::freeze(&silo).unwrap();
        fs.compile();
        let mut fb = RevStage::freeze(&blocks).unwrap();
        fb.compile();

        let mut rng = StdRng::seed_from_u64(42);
        let xs = vec![
            Tensor::randn(Shape::new(1, C[0], 8, 8), 1.0, &mut rng),
            Tensor::randn(Shape::new(1, C[1], 4, 4), 1.0, &mut rng),
        ];
        let mut silo = silo;
        let mut blocks = blocks;
        for (stage, frozen) in
            [(&mut silo as &mut dyn RevStage, &fs), (&mut blocks as &mut dyn RevStage, &fb)]
        {
            let want = stage.forward(&xs, CacheMode::None);
            let got = frozen.forward(&xs);
            for (g, w) in got.iter().zip(&want) {
                let tol = 1e-4 * (1.0 + w.abs_max());
                assert!(g.max_abs_diff(w) < tol, "diff {}", g.max_abs_diff(w));
            }
        }
    }
}
