//! Frozen (inference-only) execution of the reversible backbone stages.
//!
//! The frozen forms replicate the eval-mode (`CacheMode::None`) stage math
//! exactly — same stream indexing, same accumulation order — but every
//! transform is a fused [`FrozenLayer`]: BN folded into the convs,
//! activations in the GEMM epilogues, weight panels packed once. Frozen
//! stages are forward-only; reversibility is a training-time property and
//! the whole point of freezing is that inference does not pay for it.

use revbifpn_nn::{FreezeError, FrozenLayer, FrozenTree};
use revbifpn_tensor::Tensor;

/// Frozen form of a [`crate::RevBlock`]:
/// `y1 = x1 + F(x2); y2 = x2 + G(y1)`.
#[derive(Debug)]
pub struct FrozenRevBlock {
    pub(crate) f: FrozenLayer,
    pub(crate) g: FrozenLayer,
    pub(crate) c_split: usize,
}

impl FrozenRevBlock {
    /// Fused forward pass (additive coupling, eval semantics).
    pub fn forward(&self, x: &Tensor) -> Tensor {
        // Only `x2` is copied out (F takes a tensor); `x1` is read where it
        // lies and both sums land in the transforms' own outputs. f32
        // addition commutes, so the bits match `x1 + F(x2)` / `x2 + G(y1)`.
        let x2 = x.channel_slice(self.c_split, x.shape().c);
        let mut y1 = self.f.forward(&x2);
        y1.add_channels_of(x, 0);
        let mut y2 = self.g.forward(&y1);
        y2.add_assign(&x2);
        Tensor::concat_channels(&[&y1, &y2])
    }
}

impl FrozenTree for FrozenRevBlock {
    fn visit_frozen(&self, f: &mut dyn FnMut(&FrozenLayer)) {
        f(&self.f);
        f(&self.g);
    }

    fn visit_frozen_mut(&mut self, f: &mut dyn FnMut(&mut FrozenLayer)) {
        f(&mut self.f);
        f(&mut self.g);
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
    /// streams. Mirrors [`crate::RevSilo::forward`] in eval mode.
    ///
    /// # Panics
    ///
    /// Panics if `xs.len() != n_in`.
    pub fn forward(&self, xs: &[Tensor]) -> Vec<Tensor> {
        assert_eq!(xs.len(), self.n_in, "FrozenSilo expects {} input streams", self.n_in);
        const FED: &str = "stream must receive at least one contribution";
        // No input or intermediate is copied: every sum starts from its
        // first transform's output and adds the identity term into it (f32
        // addition commutes, so the bits match `x_i + D_i0(x_0) + ..`).
        //
        // Down half: m_0 = x_0 (borrowed), m_i = x_i + sum_{j<i} D_ij(x_j).
        let mut mids: Vec<Tensor> = Vec::with_capacity(self.n_out - 1);
        for i in 1..self.n_out {
            let mut terms = self.down[i].iter().zip(xs).take(i).map(|(d, x)| d.forward(x));
            let mut acc = terms.next().expect(FED);
            if i < self.n_in {
                acc.add_assign(&xs[i]);
            }
            for t in terms {
                acc.add_assign(&t);
            }
            mids.push(acc);
        }
        let mid = |i: usize| if i == 0 { &xs[0] } else { &mids[i - 1] };
        // Up half, last stream first: o_i = m_i + sum_{j>i} U_ij(m_j).
        let mut outs: Vec<Tensor> = Vec::with_capacity(self.n_out);
        for i in (0..self.n_out - 1).rev() {
            let mut terms = self.up[i].iter().enumerate().map(|(k, u)| u.forward(mid(i + 1 + k)));
            let mut acc = terms.next().expect(FED);
            acc.add_assign(mid(i));
            for t in terms {
                acc.add_assign(&t);
            }
            outs.push(acc);
        }
        outs.reverse();
        // o_{N-1} = m_{N-1}, moved (a one-stream silo hands back its input).
        outs.push(mids.pop().unwrap_or_else(|| xs[0].clone()));
        outs
    }
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
    /// Fused forward pass over the stream vector.
    pub fn forward(&self, xs: &[Tensor]) -> Vec<Tensor> {
        match self {
            FrozenStage::Silo(s) => s.forward(xs),
            FrozenStage::Blocks(blocks) => {
                assert_eq!(xs.len(), blocks.len(), "FrozenStage stream count mismatch");
                xs.iter()
                    .zip(blocks)
                    .map(|(x, chain)| match chain.split_first() {
                        None => x.clone(),
                        Some((first, rest)) => {
                            rest.iter().fold(first.forward(x), |cur, b| b.forward(&cur))
                        }
                    })
                    .collect()
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

/// Convenience error type alias used by the freeze hooks in this crate.
pub type FreezeResult<T> = Result<T, FreezeError>;

#[cfg(test)]
mod tests {
    use crate::stage::RevStage;
    use crate::{BlockStage, RevBlock, RevSilo, ReversibleSequence};
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use revbifpn_nn::layers::{MBConv, MBConvCfg};
    use revbifpn_nn::{CacheMode, FrozenTree, Layer, Module};
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

    fn randomize_bn(seq: &mut ReversibleSequence, seed: u64) {
        let mut rng = StdRng::seed_from_u64(seed);
        seq.visit_params(&mut |p| {
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
            // Quantization error compounds at roughly 3% of dynamic range
            // per MBConv (7-bit activations); the silo + block chain routes
            // stream 1 through three of them plus additive couplings.
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

    #[test]
    fn frozen_stages_match_the_allocating_formulas_bit_for_bit() {
        // The forwards build every sum inside a transform's output instead
        // of cloning inputs; the values must be those of the plain formulas.
        let mut rng = StdRng::seed_from_u64(60);
        let mut fb = RevStage::freeze(&make_blocks(1, 61)).unwrap();
        fb.compile();
        let x = Tensor::randn(Shape::new(2, C[0], 8, 8), 1.0, &mut rng);
        let crate::FrozenStage::Blocks(chains) = &fb else { panic!("block stage") };
        let b = &chains[0][0];
        let (x1, x2) = x.split_channels(b.c_split);
        let y1 = &x1 + &b.f.forward(&x2);
        let y2 = &x2 + &b.g.forward(&y1);
        assert_eq!(fb.forward(std::slice::from_ref(&x))[0], Tensor::concat_channels(&[&y1, &y2]));

        let mut silo = make_silo(2, 3, 62).freeze().unwrap();
        silo.compile();
        let xs = [
            Tensor::randn(Shape::new(2, C[0], 8, 8), 1.0, &mut rng),
            Tensor::randn(Shape::new(2, C[1], 4, 4), 1.0, &mut rng),
        ];
        let m0 = xs[0].clone();
        let m1 = &xs[1] + &silo.down[1][0].forward(&xs[0]);
        let m2 = &silo.down[2][0].forward(&xs[0]) + &silo.down[2][1].forward(&xs[1]);
        let o1 = &m1 + &silo.up[1][0].forward(&m2);
        let o0 = &(&m0 + &silo.up[0][0].forward(&m1)) + &silo.up[0][1].forward(&m2);
        assert_eq!(silo.forward(&xs), vec![o0, o1, m2]);
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
