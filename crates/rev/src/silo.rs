//! The **RevSilo** (paper Section 2, Figure 2/11, Equations 1–16): the first
//! reversible module for bidirectional multi-scale feature fusion.
//!
//! For `N` resolution streams, the *down half* sends information down the
//! pyramid and the *up half* sends it back up, each with a residual
//! (additive-coupling) structure:
//!
//! ```text
//! down:  m_0 = x_0                      up:  o_{N-1} = m_{N-1}
//!        m_i = x_i + Σ_{j<i} D_ij(x_j)       o_i = m_i + Σ_{j>i} U_ij(m_j)
//! ```
//!
//! `D_ij` downsamples stream `j` to stream `i`'s resolution/width; `U_ij`
//! upsamples. Because each half is a unitriangular map, the module is
//! exactly invertible (Equations 9–16), and supports *expansion*: with only
//! `K < N` input streams the missing inputs are treated as absent (the paper
//! sets them to 0), growing a K-stream pyramid to N streams.
//!
//! Both halves, both directions, are one [`sweep`] over rows of edges, and
//! [`couple`] is the only place a transform's output enters or leaves a
//! stream. The training forward, the inverse, the reconstruction inside
//! [`RevSilo::backward_rev`], [`crate::FrozenSilo`] and both RevBlock forms
//! (the two-stream silo) run it. Both forwards run a half's edges as the
//! tasks of one join before its sweep folds their terms.

use revbifpn_nn::{meter, CacheMode, Layer, Module, ShapeWalk};
use revbifpn_tensor::{Shape, Tensor};
use std::borrow::Cow;
use std::ops::Range;

/// Factory signature for the silo's fusion transforms: `(from_stream,
/// to_stream) -> Layer` mapping stream `from`'s shape to stream `to`'s.
pub type TransformFactory<'a> = dyn FnMut(usize, usize) -> Box<dyn Layer> + 'a;

/// A residual stream during a [`sweep`]: absent (an expansion stream before
/// its first term, or one the backward has retired), borrowed where it
/// lies (the leading channels of that tensor, as many as the term folded
/// into it has; all of them when an edge reads it), or owned by the sweep,
/// which folds terms into it in place.
pub(crate) type Stream<'a> = Option<Cow<'a, Tensor>>;

pub(crate) const FED: &str = "stream must receive at least one contribution";

/// `n` streams over the borrowed inputs `xs`, the missing ones absent.
pub(crate) fn streams(xs: &[Tensor], n: usize) -> Vec<Stream<'_>> {
    xs.iter().map(|x| Some(Cow::Borrowed(x))).chain(std::iter::repeat(None)).take(n).collect()
}

/// The streams' tensors, each fed by the sweep.
pub(crate) fn tensors(s: Vec<Stream<'_>>) -> Vec<Tensor> {
    s.into_iter().map(|x| x.expect(FED).into_owned()).collect()
}

/// The one place a transform's output `term` enters (`sign = 1`) or leaves
/// (`sign = -1`) a residual stream. An absent stream takes its first term
/// as it is and loses a leaving one; a borrowed stream is added into the
/// term, so it is never copied. f32 addition commutes, so every case has
/// the bits of `x ± t`.
pub(crate) fn couple(stream: &mut Stream<'_>, mut term: Tensor, sign: f32) {
    *stream = Some(Cow::Owned(match stream.take() {
        None if sign < 0.0 => return,
        None => term,
        Some(Cow::Borrowed(x)) => {
            assert!(sign > 0.0, "a borrowed stream only gains terms");
            term.add_channels_of(x, 0);
            term
        }
        Some(Cow::Owned(mut x)) => {
            x.axpy(sign, &term);
            x
        }
    }));
}

/// Couples one term into the target stream of a [`sweep`]'s row.
pub(crate) type Fold<'f> = dyn FnMut(Tensor) + Send + 'f;

/// `(&mut s[i], &mut s[sources])`, for a range of sources without `i`.
fn split<T>(s: &mut [T], i: usize, sources: Range<usize>) -> (&mut T, &mut [T]) {
    if sources.start > i {
        let (lo, hi) = s.split_at_mut(sources.start);
        (&mut lo[i], &mut hi[..sources.len()])
    } else {
        let (lo, hi) = s.split_at_mut(i);
        (&mut hi[0], &mut lo[sources])
    }
}

/// A row of a [`sweep`]: `(i, sources, edges)`, where `edges[k]` maps
/// stream `sources.start + k` to stream `i`.
pub(crate) type Row<R> = (usize, Range<usize>, R);

/// A silo's down and up halves as rows: down row `i` holds `D_ij` for
/// `j < min(i, n_in)` (Eqs. 1–4), up row `i` holds `U_ij` for `j > i`
/// (Eqs. 5–8).
pub(crate) fn halves<R, I: DoubleEndedIterator<Item = R> + ExactSizeIterator>(
    n_in: usize,
    down: I,
    up: I,
) -> (impl DoubleEndedIterator<Item = Row<R>>, impl DoubleEndedIterator<Item = Row<R>>) {
    let n_out = up.len();
    (
        down.enumerate().map(move |(i, r)| (i, 0..i.min(n_in), r)),
        up.enumerate().map(move |(i, r)| (i, i + 1..n_out, r)),
    )
}

/// The one silo sweep: for each row `(i, sources, edges)` in order, `row`
/// runs the edges on their source streams and hands each term to the fold,
/// which [`couple`]s it into stream `i` with `sign`, as it is produced.
///
/// Rows run in place, so the order is what makes a sweep a forward or an
/// inverse. The forward walks the down half coarsest row first, then the up
/// half finest row first: each row reads only streams no row has written
/// yet (Eqs. 1–8). The inverse walks the same rows backwards: each row reads
/// only streams already restored (Eqs. 9–16).
pub(crate) fn sweep<'a, R>(
    s: &mut [Stream<'a>],
    rows: impl Iterator<Item = Row<R>>,
    sign: f32,
    mut row: impl FnMut(usize, Range<usize>, R, &[Stream<'a>], &mut Fold<'_>),
) {
    for (i, sources, edges) in rows {
        let (target, xs) = split(s, i, sources.clone());
        row(i, sources, edges, xs, &mut move |t| couple(target, t, sign));
    }
}

/// The edges of one training silo row.
type Edges<'e> = &'e mut Vec<Box<dyn Layer>>;

/// A row of the inverse, run edge by edge in eval mode on the calling thread.
fn serial<'a>() -> impl FnMut(usize, Range<usize>, Edges<'_>, &[Stream<'a>], &mut Fold<'_>) {
    |_, _, edges, xs, fold| {
        for (e, x) in edges.iter_mut().zip(xs) {
            fold(e.forward(x.as_deref().expect(FED), CacheMode::None));
        }
    }
}

/// One half of a training forward as one join, as [`crate::FrozenSilo`]'s
/// half: every edge of a half reads only streams the half never writes, so
/// each edge is a task that leaves its term in its own slot. The sweep then
/// folds the slots row by row in edge order, the sums of the serial sweep
/// bit for bit. Each edge owns its BatchNorms, and the join is
/// [`meter::join`]. Unlike the frozen half's, the tasks borrow scratch on
/// the thread that runs them.
fn half<'e>(s: &mut [Stream<'_>], rows: impl Iterator<Item = Row<Edges<'e>>>, mode: CacheMode) {
    let mut rows: Vec<_> = rows.collect();
    let edges = rows.iter_mut().flat_map(|(_, sources, edges)| edges.iter_mut().zip(&s[sources.clone()]));
    let mut terms = meter::join(edges, |(e, x)| e.forward(x.as_deref().expect(FED), mode)).into_iter();
    sweep(s, rows.into_iter(), 1.0, |_, _, edges, _, fold| {
        for _ in edges.iter() {
            fold(terms.next().expect("one term per edge"));
        }
    });
}

/// A reversible bidirectional multi-scale fusion module over `n_out` streams
/// fed by `n_in <= n_out` input streams.
#[derive(Debug)]
pub struct RevSilo {
    n_in: usize,
    n_out: usize,
    /// `down[i][j]`, `j < min(i, n_in)`: transform stream `j` -> `i`.
    down: Vec<Vec<Box<dyn Layer>>>,
    /// `up[i][j - i - 1]`, `j in i+1..n_out`: transform stream `j` -> `i`.
    up: Vec<Vec<Box<dyn Layer>>>,
}

impl RevSilo {
    /// Builds a silo from transform factories.
    ///
    /// `make_down(j, i)` must return a layer mapping stream `j`'s shape to
    /// stream `i`'s (downsampling, `j < i`); `make_up(j, i)` the reverse.
    ///
    /// # Panics
    ///
    /// Panics unless `1 <= n_in <= n_out` and `n_out >= 2`.
    pub fn new(n_in: usize, n_out: usize, make_down: &mut TransformFactory<'_>, make_up: &mut TransformFactory<'_>) -> Self {
        assert!(n_in >= 1 && n_in <= n_out, "need 1 <= n_in <= n_out");
        assert!(n_out >= 2, "a silo needs at least two streams");
        let down = (0..n_out).map(|i| (0..i.min(n_in)).map(|j| make_down(j, i)).collect()).collect();
        let up = (0..n_out).map(|i| (i + 1..n_out).map(|j| make_up(j, i)).collect()).collect();
        Self { n_in, n_out, down, up }
    }

    /// Number of input streams.
    pub fn n_in(&self) -> usize {
        self.n_in
    }

    /// Number of output streams.
    pub fn n_out(&self) -> usize {
        self.n_out
    }

    /// Inference-only frozen form: every `D_ij`/`U_ij` transform is frozen
    /// via [`Layer::freeze`] (BN folded, activations fused). The result is
    /// *uncompiled*; see [`crate::FrozenSilo`].
    pub fn freeze(&self) -> Result<crate::FrozenSilo, revbifpn_nn::FreezeError> {
        let freeze_row = |r: &Vec<Box<dyn Layer>>| r.iter().map(|l| l.freeze()).collect::<Result<Vec<_>, _>>();
        let rows = |rows: &[Vec<Box<dyn Layer>>]| rows.iter().map(freeze_row).collect::<Result<Vec<_>, _>>();
        Ok(crate::FrozenSilo { n_in: self.n_in, n_out: self.n_out, down: rows(&self.down)?, up: rows(&self.up)? })
    }

    /// Forward pass over `xs` (length `n_in`), producing `n_out` streams.
    ///
    /// # Panics
    ///
    /// Panics if `xs.len() != n_in`.
    pub fn forward(&mut self, xs: &[Tensor], mode: CacheMode) -> Vec<Tensor> {
        assert_eq!(xs.len(), self.n_in, "RevSilo expects {} input streams", self.n_in);
        self.forward_streams(streams(xs, self.n_out), mode)
    }

    /// [`RevSilo::forward`] over streams that may lie elsewhere. No input is
    /// copied: each sum lands in its first transform's output.
    ///
    /// Each half is one join of its edges (see [`half`]).
    pub(crate) fn forward_streams(&mut self, mut s: Vec<Stream<'_>>, mode: CacheMode) -> Vec<Tensor> {
        let (down, up) = halves(self.n_in, self.down.iter_mut(), self.up.iter_mut());
        half(&mut s, down.rev(), mode);
        half(&mut s, up, mode);
        tensors(s)
    }

    /// Exact inverse (evaluation semantics; see Equations 9–16). Returns the
    /// `n_in` input streams; virtual expansion streams reconstruct to ~0 and
    /// are dropped.
    pub fn inverse(&mut self, ys: &[Tensor]) -> Vec<Tensor> {
        assert_eq!(ys.len(), self.n_out, "RevSilo inverse expects {} streams", self.n_out);
        self.inverse_streams(ys.to_vec())
    }

    /// [`RevSilo::inverse`] turning the outputs into the inputs in place.
    pub(crate) fn inverse_streams(&mut self, ys: Vec<Tensor>) -> Vec<Tensor> {
        let mut s: Vec<Stream<'_>> = ys.into_iter().map(|y| Some(Cow::Owned(y))).collect();
        let (down, up) = halves(self.n_in, self.down.iter_mut(), self.up.iter_mut());
        sweep(&mut s, up.rev(), -1.0, serial());
        s.truncate(self.n_in);
        sweep(&mut s, down.take(self.n_in), -1.0, serial());
        tensors(s)
    }

    /// Reversible backward: consumes the outputs and their gradients,
    /// reconstructs the inputs while accumulating parameter gradients.
    /// Returns `(xs, dxs)`. Requires a [`CacheMode::Stats`] forward.
    ///
    /// No stream is copied. The inverse [`sweep`] turns each output into its
    /// input in place (virtual streams are retired after the up half), and
    /// the gradients turn over in place beside it: `dm_j = do_j + Σ_{i<j}
    /// U_ij^T do_i`, then `dx_j = dm_j + Σ_{i>j} D_ij^T dm_i`, each row
    /// reading its own gradient before any later row adds into it.
    ///
    /// Within a row the edges are independent tasks. Each runs its edge's
    /// `Full` recompute *and* transpose (the cache lives and dies inside the
    /// task) and adds the transpose into its own source's gradient. The
    /// first edge folds its term before its transpose runs (a RevBlock's
    /// `G(y1)` never outlives G's cache); the others fold after the row's
    /// [`meter::join`], in edge order.
    pub fn backward_rev(&mut self, ys: Vec<Tensor>, dys: Vec<Tensor>) -> (Vec<Tensor>, Vec<Tensor>) {
        assert_eq!(ys.len(), self.n_out);
        assert_eq!(dys.len(), self.n_out);
        let mut s: Vec<Stream<'_>> = ys.into_iter().map(|y| Some(Cow::Owned(y))).collect();
        let mut ds = dys;
        let mut row = |i, sources, edges: Edges<'_>, xs: &[Stream<'_>], fold: &mut Fold<'_>| {
            let (dy, dxs) = split(&mut ds, i, sources);
            let dy = &*dy;
            let first = std::iter::once(Some(&mut *fold)).chain(std::iter::repeat_with(|| None));
            let terms = meter::join(edges.iter_mut().zip(xs).zip(dxs).zip(first), |(((e, x), dx), first)| {
                let t = meter::time_phase(meter::Phase::Reconstruct, || {
                    e.forward(x.as_deref().expect(FED), CacheMode::Full)
                });
                let t = if let Some(fold) = first { fold(t); None } else { Some(t) };
                let g = meter::time_phase(meter::Phase::Backward, || e.backward(dy));
                dx.add_assign(&g);
                t
            });
            terms.into_iter().flatten().for_each(fold);
        };
        let (down, up) = halves(self.n_in, self.down.iter_mut(), self.up.iter_mut());
        sweep(&mut s, up.rev(), -1.0, &mut row);
        s[self.n_in..].iter_mut().for_each(|x| *x = None);
        sweep(&mut s, down, -1.0, &mut row);
        s.truncate(self.n_in);
        ds.truncate(self.n_in);
        (tensors(s), ds)
    }

    /// Conventional backward using caches of a `Full`-mode forward: the
    /// transposed rows in row order, `dm_j = do_j + Σ_{i<j} U_ij^T do_i`,
    /// then in place `dx_j = dm_j + Σ_{i>j} D_ij^T dm_i` (down row `i` reads
    /// `dm_i` before any later row adds into it).
    pub fn backward_cached(&mut self, dys: &[Tensor]) -> Vec<Tensor> {
        assert_eq!(dys.len(), self.n_out);
        let mut ds = dys.to_vec();
        for (i, row) in self.up.iter_mut().enumerate() {
            for (u, dm) in row.iter_mut().zip(&mut ds[i + 1..]) {
                dm.add_assign(&u.backward(&dys[i]));
            }
        }
        for (i, row) in self.down.iter_mut().enumerate() {
            let (dxs, dm) = ds.split_at_mut(i);
            for (d, dx) in row.iter_mut().zip(dxs) {
                dx.add_assign(&d.backward(&dm[0]));
            }
        }
        ds.truncate(self.n_in);
        ds
    }
}

impl Module for RevSilo {
    /// All down rows, then all up rows.
    fn visit_layers(&mut self, f: &mut dyn FnMut(&mut dyn Layer)) {
        for l in self.down.iter_mut().chain(&mut self.up).flatten() {
            f(l.as_mut());
        }
    }
}

impl ShapeWalk for RevSilo {
    /// Each down edge `D_ij` at input `x_j`, then each up edge `U_ij` at mid
    /// `m_j`. Mids, and so outputs, keep the input shapes; a virtual stream
    /// takes its first down edge's output shape. Each edge is one recompute
    /// unit of [`RevSilo::backward_rev`] (edge meters are absorbed one at a
    /// time, in edge order).
    fn visit_layers_at(&self, xs: &[Shape], f: &mut dyn FnMut(&dyn Layer, Shape)) -> Vec<Shape> {
        assert_eq!(xs.len(), self.n_in);
        let mut mids = xs.to_vec();
        mids.extend((self.n_in..self.n_out).map(|i| self.down[i][0].out_shape(xs[0])));
        for row in &self.down {
            for (j, d) in row.iter().enumerate() {
                f(d.as_ref(), xs[j]);
            }
        }
        for (i, row) in self.up.iter().enumerate() {
            for (k, u) in row.iter().enumerate() {
                f(u.as_ref(), mids[i + 1 + k]);
            }
        }
        mids
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stage::tests_support::on_layer;
    use revbifpn_nn::Accounting::Layout;
    use crate::RevBlock;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use revbifpn_nn::layers::{MBConv, MBConvCfg};

    const CHANNELS: [usize; 4] = [8, 12, 16, 24];

    fn make_silo(n_in: usize, n_out: usize, seed: u64) -> RevSilo {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut make_down = |j: usize, i: usize| -> Box<dyn Layer> {
            let k = (i - j) as u32;
            Box::new(MBConv::new(MBConvCfg::down(CHANNELS[j], CHANNELS[i], k, 1.5), &mut rng)) as Box<dyn Layer>
        };
        let mut rng2 = StdRng::seed_from_u64(seed.wrapping_add(1));
        let mut make_up = |j: usize, i: usize| -> Box<dyn Layer> {
            let k = (j - i) as u32;
            Box::new(MBConv::new(MBConvCfg::up(CHANNELS[j], CHANNELS[i], k, 1.5), &mut rng2)) as Box<dyn Layer>
        };
        RevSilo::new(n_in, n_out, &mut make_down, &mut make_up)
    }

    fn randomize_bn(s: &mut impl Module, seed: u64) {
        let mut rng = StdRng::seed_from_u64(seed);
        s.visit_params(&mut |p| {
            if p.name == "bn.gamma" {
                p.value = Tensor::uniform(p.value.shape(), 0.5, 1.5, &mut rng);
            }
        });
    }

    fn make_inputs(n: usize, res: usize, seed: u64) -> Vec<Tensor> {
        let mut rng = StdRng::seed_from_u64(seed);
        (0..n)
            .map(|i| Tensor::randn(Shape::new(2, CHANNELS[i], res >> i, res >> i), 1.0, &mut rng))
            .collect()
    }

    #[test]
    fn forward_shapes_full_silo() {
        let mut s = make_silo(4, 4, 0);
        let xs = make_inputs(4, 16, 1);
        let ys = s.forward(&xs, CacheMode::None);
        assert_eq!(ys.len(), 4);
        for (i, y) in ys.iter().enumerate() {
            assert_eq!(y.shape(), xs[i].shape(), "stream {i}");
        }
    }

    #[test]
    fn expansion_silo_grows_pyramid() {
        let mut s = make_silo(1, 2, 2);
        let xs = make_inputs(1, 16, 3);
        let ys = s.forward(&xs, CacheMode::None);
        assert_eq!(ys.len(), 2);
        assert_eq!(ys[0].shape(), Shape::new(2, 8, 16, 16));
        assert_eq!(ys[1].shape(), Shape::new(2, 12, 8, 8));
    }

    #[test]
    fn inverse_reconstructs_inputs_eval() {
        for (n_in, n_out) in [(4usize, 4usize), (2, 3), (1, 2), (3, 4)] {
            let mut s = make_silo(n_in, n_out, 4);
            randomize_bn(&mut s, 40);
            let xs = make_inputs(n_in, 16, 5);
            let ys = s.forward(&xs, CacheMode::None);
            let back = s.inverse(&ys);
            assert_eq!(back.len(), n_in);
            for (i, (a, b)) in back.iter().zip(&xs).enumerate() {
                assert!(a.max_abs_diff(b) < 1e-3, "{n_in}->{n_out} stream {i}: {}", a.max_abs_diff(b));
            }
        }
    }

    #[test]
    fn backward_rev_reconstructs_inputs_training() {
        let mut s = make_silo(4, 4, 6);
        randomize_bn(&mut s, 60);
        let xs = make_inputs(4, 16, 7);
        let ys = s.forward(&xs, CacheMode::Stats);
        let dys: Vec<Tensor> = ys.iter().map(|y| Tensor::ones(y.shape())).collect();
        let (xs_rec, dxs) = s.backward_rev(ys, dys);
        assert_eq!(xs_rec.len(), 4);
        assert_eq!(dxs.len(), 4);
        for (i, (a, b)) in xs_rec.iter().zip(&xs).enumerate() {
            assert!(a.max_abs_diff(b) < 1e-3, "stream {i}: {}", a.max_abs_diff(b));
        }
    }

    #[test]
    fn reversible_gradients_match_cached() {
        let mut s1 = make_silo(3, 4, 8);
        randomize_bn(&mut s1, 80);
        let mut s2 = make_silo(3, 4, 8);
        randomize_bn(&mut s2, 80);

        let xs = make_inputs(3, 16, 9);
        let mut rng = StdRng::seed_from_u64(10);
        let out_shapes = s1.out_shapes(&xs.iter().map(|x| x.shape()).collect::<Vec<_>>());
        let dys: Vec<Tensor> = out_shapes.iter().map(|&sh| Tensor::randn(sh, 1.0, &mut rng)).collect();

        let ys1 = s1.forward(&xs, CacheMode::Full);
        s1.visit_params(&mut |p| p.zero_grad());
        let dxs_cached = s1.backward_cached(&dys);

        let ys2 = s2.forward(&xs, CacheMode::Stats);
        s2.visit_params(&mut |p| p.zero_grad());
        let (_, dxs_rev) = s2.backward_rev(ys2.clone(), dys);

        for (a, b) in ys1.iter().zip(&ys2) {
            assert!(a.max_abs_diff(b) < 1e-5);
        }
        for (i, (a, b)) in dxs_cached.iter().zip(&dxs_rev).enumerate() {
            assert!(a.max_abs_diff(b) < 1e-3, "dx {i}: {}", a.max_abs_diff(b));
        }
        let mut g1 = Vec::new();
        s1.visit_params(&mut |p| g1.push(p.grad.clone()));
        let mut g2 = Vec::new();
        s2.visit_params(&mut |p| g2.push(p.grad.clone()));
        for (a, b) in g1.iter().zip(&g2) {
            assert!(a.max_abs_diff(b) < 1e-3, "param grad diff {}", a.max_abs_diff(b));
        }
    }

    #[test]
    fn finite_diff_through_silo() {
        // End-to-end finite difference on one weight coordinate through the
        // whole silo (eval mode for determinism).
        let mut s = make_silo(2, 2, 11);
        randomize_bn(&mut s, 110);
        let xs = make_inputs(2, 8, 12);
        let mut rng = StdRng::seed_from_u64(13);
        let shapes: Vec<Shape> = xs.iter().map(|x| x.shape()).collect();
        let masks: Vec<Tensor> =
            s.out_shapes(&shapes).iter().map(|&sh| Tensor::uniform(sh, -1.0, 1.0, &mut rng)).collect();

        // Probe in training mode (Full + clear) so batch statistics match
        // the analytic gradient's forward pass.
        let loss = |s: &mut RevSilo| -> f64 {
            let ys = s.forward(&xs, CacheMode::Full);
            s.clear_cache();
            ys.iter().zip(&masks).map(|(y, m)| (y * m).sum()).sum()
        };

        let _ = s.forward(&xs, CacheMode::Full);
        s.visit_params(&mut |p| p.zero_grad());
        let _ = s.backward_cached(&masks);
        let mut first_grad = None;
        s.visit_params(&mut |p| {
            if first_grad.is_none() && p.name == "conv.weight" {
                first_grad = Some(p.grad.data()[0]);
            }
        });
        let ana = first_grad.unwrap();

        let eps = 1e-2f32;
        let nudge = |s: &mut RevSilo, d: f32| {
            let mut done = false;
            s.visit_params(&mut |p| {
                if !done && p.name == "conv.weight" {
                    p.value.data_mut()[0] += d;
                    done = true;
                }
            });
        };
        nudge(&mut s, eps);
        let lp = loss(&mut s);
        nudge(&mut s, -2.0 * eps);
        let lm = loss(&mut s);
        nudge(&mut s, eps);
        let num = ((lp - lm) / (2.0 * eps as f64)) as f32;
        assert!((num - ana).abs() < 5e-2 * (1.0 + ana.abs()), "num {num} vs ana {ana}");
    }

    #[test]
    fn backward_rev_clone_count_is_linear_in_streams() {
        // The reversible backward clones no stream: every returned input and
        // input gradient is one of the consumed output or gradient buffers,
        // turned over in place. Counted here as returned tensors whose
        // buffer is not an input buffer; the count is 0 for any stream and
        // edge count.
        for (n_in, n_out) in [(4usize, 4usize), (2, 4), (1, 2)] {
            let mut s = make_silo(n_in, n_out, 30);
            randomize_bn(&mut s, 300);
            let xs = make_inputs(n_in, 16, 31);
            let ys = s.forward(&xs, CacheMode::Stats);
            let dys: Vec<Tensor> = ys.iter().map(|y| Tensor::ones(y.shape())).collect();
            let seeds: Vec<*const f32> = ys.iter().chain(&dys).map(|t| t.data().as_ptr()).collect();
            let (xs_rec, dxs) = s.backward_rev(ys, dys);
            assert_eq!((xs_rec.len(), dxs.len()), (n_in, n_in));
            let clones = xs_rec.iter().chain(&dxs).filter(|t| !seeds.contains(&t.data().as_ptr())).count();
            assert_eq!(clones, 0, "{n_in}->{n_out}");
        }
    }

    #[test]
    fn backward_rev_is_thread_count_invariant() {
        // Same silo, same inputs, 1 vs 4 worker threads: reconstructed
        // inputs, input gradients, and parameter gradients must be bitwise
        // identical (PR 1's determinism contract extended to task-level
        // parallelism).
        let run = |threads: usize| {
            revbifpn_tensor::par::set_max_threads(threads);
            let mut s = make_silo(3, 4, 32);
            randomize_bn(&mut s, 320);
            let xs = make_inputs(3, 16, 33);
            let ys = s.forward(&xs, CacheMode::Stats);
            let mut rng = StdRng::seed_from_u64(34);
            let dys: Vec<Tensor> = ys.iter().map(|y| Tensor::randn(y.shape(), 1.0, &mut rng)).collect();
            s.visit_params(&mut |p| p.zero_grad());
            let (xs_rec, dxs) = s.backward_rev(ys, dys);
            let mut grads = Vec::new();
            s.visit_params(&mut |p| grads.push(p.grad.clone()));
            revbifpn_tensor::par::set_max_threads(0);
            (xs_rec, dxs, grads)
        };
        let (xs1, dxs1, g1) = run(1);
        let (xs4, dxs4, g4) = run(4);
        for (a, b) in xs1.iter().zip(&xs4) {
            assert_eq!(a, b, "reconstructed inputs differ across thread counts");
        }
        for (a, b) in dxs1.iter().zip(&dxs4) {
            assert_eq!(a, b, "input gradients differ across thread counts");
        }
        for (a, b) in g1.iter().zip(&g4) {
            assert_eq!(a, b, "parameter gradients differ across thread counts");
        }
    }

    /// Walk index of edge `(i, j)` of an `n_in -> n_out` silo: every down
    /// row, then every up row (a RevBlock's walk is `D_10 = F`, `U_01 = G`).
    fn walk_index(n_in: usize, n_out: usize, i: usize, j: usize) -> usize {
        let down_before = |i: usize| (0..i).map(|r| r.min(n_in)).sum::<usize>();
        match j < i {
            true => down_before(i) + j,
            false => down_before(n_out) + (0..i).map(|r| n_out - 1 - r).sum::<usize>() + j - i - 1,
        }
    }

    /// Serial per-edge reference for `backward_rev` on an `n_in -> n_out`
    /// silo's streams: every reconstruction first, then every transpose,
    /// both in the backward's edge order (up rows coarsest first, then down
    /// rows finest first), every coupling a fresh tensor.
    fn backward_rev_reference(
        m: &mut impl Module,
        (n_in, n_out): (usize, usize),
        ys: &[Tensor],
        dys: &[Tensor],
    ) -> (Vec<Tensor>, Vec<Tensor>) {
        let edges: Vec<(usize, usize)> = (0..n_out - 1)
            .rev()
            .flat_map(|i| (i + 1..n_out).map(move |j| (i, j)))
            .chain((1..n_out).flat_map(|i| (0..i.min(n_in)).map(move |j| (i, j))))
            .collect();
        let mut s = ys.to_vec();
        for &(i, j) in &edges {
            let t = on_layer(m, walk_index(n_in, n_out, i, j), |l| l.forward(&s[j], CacheMode::Full));
            if i < n_in || j > i {
                s[i] = &s[i] - &t;
            }
        }
        let mut ds = dys.to_vec();
        for &(i, j) in &edges {
            let g = on_layer(m, walk_index(n_in, n_out, i, j), |l| l.backward(&ds[i]));
            ds[j] = &ds[j] + &g;
        }
        s.truncate(n_in);
        ds.truncate(n_in);
        (s, ds)
    }

    fn grads(m: &mut impl Module) -> Vec<Tensor> {
        let mut g = Vec::new();
        m.visit_params(&mut |p| g.push(p.grad.clone()));
        g
    }

    #[test]
    fn backward_rev_equals_the_two_reconstructions_first_oracle_bitwise() {
        // Expansion, virtual-stream and full silos.
        for (n_in, n_out) in [(1usize, 2usize), (3, 4), (4, 4)] {
            let build = || {
                let mut s = make_silo(n_in, n_out, 50);
                randomize_bn(&mut s, 500);
                s
            };
            let (mut got, mut want) = (build(), build());
            let xs = make_inputs(n_in, 16, 51);
            let ys = got.forward(&xs, CacheMode::Stats);
            assert_eq!(ys, want.forward(&xs, CacheMode::Stats));
            let mut rng = StdRng::seed_from_u64(52);
            let dys: Vec<Tensor> = ys.iter().map(|y| Tensor::randn(y.shape(), 1.0, &mut rng)).collect();
            got.visit_params(&mut |p| p.zero_grad());
            want.visit_params(&mut |p| p.zero_grad());
            let want_out = backward_rev_reference(&mut want, (n_in, n_out), &ys, &dys);
            assert_eq!(got.backward_rev(ys, dys), want_out, "{n_in}->{n_out}: inputs and input gradients");
            assert_eq!(grads(&mut got), grads(&mut want), "{n_in}->{n_out}: parameter gradients");
        }
        // The RevBlock is the (2, 2) silo over (x2, x1): plain MBConv bodies,
        // and residual bodies with drop-path whose seeds the Full recompute
        // must replay in either order.
        let plain = |rng: &mut StdRng| {
            let body = |rng: &mut StdRng| Box::new(MBConv::new(MBConvCfg::same(4, 3, 2.0).plain(), rng)) as Box<dyn Layer>;
            RevBlock::new(8, body(rng), body(rng))
        };
        let drop_path = |rng: &mut StdRng| {
            let cfg = MBConvCfg::same(6, 3, 2.0).with_drop_path(0.3);
            RevBlock::new(12, Box::new(MBConv::new(cfg, rng)), Box::new(MBConv::new(cfg, rng)))
        };
        let makers: [&dyn Fn(&mut StdRng) -> RevBlock; 2] = [&plain, &drop_path];
        for (k, make) in makers.iter().enumerate() {
            let build = || {
                let mut b = make(&mut StdRng::seed_from_u64(20 + k as u64));
                randomize_bn(&mut b, 30);
                b
            };
            let (mut got, mut want) = (build(), build());
            let mut rng = StdRng::seed_from_u64(40);
            let x = Tensor::randn(Shape::new(3, got.channels(), 7, 7), 1.0, &mut rng);
            let dy = Tensor::randn(x.shape(), 1.0, &mut rng);
            let y = got.forward(&x, CacheMode::Stats);
            assert_eq!(y, want.forward(&x, CacheMode::Stats));
            got.visit_params(&mut |p| p.zero_grad());
            want.visit_params(&mut |p| p.zero_grad());
            let c = got.channels() / 2;
            let ((y1, y2), (dy1, dy2)) = (y.split_channels(c), dy.split_channels(c));
            let (xs, dxs) = backward_rev_reference(&mut want, (2, 2), &[y2, y1], &[dy2, dy1]);
            let want_out = (Tensor::concat_channels(&[&xs[1], &xs[0]]), Tensor::concat_channels(&[&dxs[1], &dxs[0]]));
            assert_eq!(got.backward_rev(y, dy), want_out, "block {k}: input and input gradient");
            assert_eq!(grads(&mut got), grads(&mut want), "block {k}: parameter gradients");
        }
    }

    #[test]
    fn stats_cache_is_small() {
        revbifpn_nn::meter::reset();
        let mut s = make_silo(4, 4, 14);
        let xs = make_inputs(4, 16, 15);
        let shapes: Vec<Shape> = xs.iter().map(|x| x.shape()).collect();
        let _ = s.forward(&xs, CacheMode::Stats);
        assert_eq!(revbifpn_nn::meter::current() as u64, s.cache_bytes(&shapes, CacheMode::Stats, Layout));
        assert!(s.cache_bytes(&shapes, CacheMode::Stats, Layout) < s.cache_bytes(&shapes, CacheMode::Full, Layout) / 10);
        s.clear_cache();
        assert_eq!(revbifpn_nn::meter::current(), 0);
    }

    #[test]
    fn macs_positive_and_consistent() {
        let s = make_silo(4, 4, 16);
        let shapes: Vec<Shape> = (0..4).map(|i| Shape::new(1, CHANNELS[i], 32 >> i, 32 >> i)).collect();
        let m = s.macs(&shapes);
        assert!(m > 0);
        // More streams -> strictly more MACs than a 2-stream silo.
        let s2 = make_silo(2, 2, 17);
        assert!(m > s2.macs(&shapes[..2]));
    }
}
