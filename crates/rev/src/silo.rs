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

// The `(i, j)` range loops below deliberately mirror the paper's stream
// indices in Equations 1–16 and index several collections (`xs`, `mids`,
// `self.down[i][j]`, ...) in lockstep; iterator chains would obscure the
// correspondence with the math.
#![allow(clippy::needless_range_loop)]

use revbifpn_nn::{meter, CacheMode, Layer, Module, ShapeWalk};
use revbifpn_tensor::{par, Shape, Tensor};

/// Factory signature for the silo's fusion transforms: `(from_stream,
/// to_stream) -> Layer` mapping stream `from`'s shape to stream `to`'s.
pub type TransformFactory<'a> = dyn FnMut(usize, usize) -> Box<dyn Layer> + 'a;

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
        let mut down = Vec::with_capacity(n_out);
        for i in 0..n_out {
            let mut row = Vec::new();
            for j in 0..i.min(n_in) {
                row.push(make_down(j, i));
            }
            down.push(row);
        }
        let mut up = Vec::with_capacity(n_out);
        for i in 0..n_out {
            let mut row = Vec::new();
            for j in i + 1..n_out {
                row.push(make_up(j, i));
            }
            up.push(row);
        }
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

    fn up_mut(&mut self, i: usize, j: usize) -> &mut Box<dyn Layer> {
        &mut self.up[i][j - i - 1]
    }

    /// Inference-only frozen form: every `D_ij`/`U_ij` transform is frozen
    /// via [`Layer::freeze`] (BN folded, activations fused). The result is
    /// *uncompiled*; see [`crate::FrozenSilo`].
    pub fn freeze(&self) -> Result<crate::FrozenSilo, revbifpn_nn::FreezeError> {
        let freeze_rows = |rows: &[Vec<Box<dyn Layer>>]| {
            rows.iter()
                .map(|row| row.iter().map(|l| l.freeze()).collect::<Result<Vec<_>, _>>())
                .collect::<Result<Vec<_>, _>>()
        };
        Ok(crate::FrozenSilo {
            n_in: self.n_in,
            n_out: self.n_out,
            down: freeze_rows(&self.down)?,
            up: freeze_rows(&self.up)?,
        })
    }

    /// Down-half: mid-stream tensors from inputs.
    fn mids(&mut self, xs: &[Tensor], mode: CacheMode) -> Vec<Tensor> {
        let mut mids: Vec<Tensor> = Vec::with_capacity(self.n_out);
        mids.push(xs[0].clone());
        for i in 1..self.n_out {
            let mut acc: Option<Tensor> = if i < self.n_in { Some(xs[i].clone()) } else { None };
            for j in 0..i.min(self.n_in) {
                let t = self.down[i][j].forward(&xs[j], mode);
                match &mut acc {
                    Some(a) => a.add_assign(&t),
                    None => acc = Some(t),
                }
            }
            mids.push(acc.expect("stream must receive at least one contribution"));
        }
        mids
    }

    /// Forward pass over `xs` (length `n_in`), producing `n_out` streams.
    ///
    /// # Panics
    ///
    /// Panics if `xs.len() != n_in`.
    pub fn forward(&mut self, xs: &[Tensor], mode: CacheMode) -> Vec<Tensor> {
        assert_eq!(xs.len(), self.n_in, "RevSilo expects {} input streams", self.n_in);
        let mids = self.mids(xs, mode);
        let mut outs = vec![Tensor::zeros(Shape::new(1, 1, 1, 1)); self.n_out];
        outs[self.n_out - 1] = mids[self.n_out - 1].clone();
        for i in (0..self.n_out - 1).rev() {
            let mut acc = mids[i].clone();
            for j in i + 1..self.n_out {
                let t = self.up_mut(i, j).forward(&mids[j], mode);
                acc.add_assign(&t);
            }
            outs[i] = acc;
        }
        outs
    }

    /// Exact inverse (evaluation semantics; see Equations 9–16). Returns the
    /// `n_in` input streams; virtual expansion streams reconstruct to ~0 and
    /// are dropped.
    pub fn inverse(&mut self, ys: &[Tensor]) -> Vec<Tensor> {
        assert_eq!(ys.len(), self.n_out, "RevSilo inverse expects {} streams", self.n_out);
        // Invert the up half, top (coarsest) stream first. Reconstructed
        // mids are borrowed, not cloned, by the U_ij forwards; the only
        // allocations are the per-stream accumulators.
        let mut mids: Vec<Option<Tensor>> = vec![None; self.n_out];
        mids[self.n_out - 1] = Some(ys[self.n_out - 1].clone());
        for i in (0..self.n_out - 1).rev() {
            let mut acc = ys[i].clone();
            for j in i + 1..self.n_out {
                let t = {
                    let mj = mids[j].as_ref().expect("mid already reconstructed");
                    self.up[i][j - i - 1].forward(mj, CacheMode::None)
                };
                acc.sub_assign(&t);
            }
            mids[i] = Some(acc);
        }
        // Invert the down half, finest stream first. Each mid is consumed
        // exactly once, so move it into the accumulator instead of cloning.
        let mut xs: Vec<Tensor> = Vec::with_capacity(self.n_in);
        xs.push(mids[0].take().expect("mid 0"));
        for i in 1..self.n_in {
            let mut acc = mids[i].take().expect("mid");
            for j in 0..i.min(self.n_in) {
                let t = self.down[i][j].forward(&xs[j], CacheMode::None);
                acc.sub_assign(&t);
            }
            xs.push(acc);
        }
        xs
    }

    /// Reversible backward: consumes the outputs and their gradients,
    /// reconstructs the inputs while accumulating parameter gradients.
    /// Returns `(xs, dxs)`.
    ///
    /// Requires the forward pass to have run with [`CacheMode::Stats`].
    ///
    /// # Ownership
    ///
    /// No stream is copied. Output `o_i` becomes mid `m_i` in place once its
    /// up row is subtracted, and `m_i` becomes input `x_i` once its down row
    /// is. The gradients `do_j` accumulate the up transposes into `dm_j` in
    /// place — row `i` reads `do_i` before any row adds into it — and `dm_j`
    /// in turn becomes `dx_j` once row `j`, the last reader of `dm_j`, is
    /// done. Virtual streams' mids are dropped after the up half.
    ///
    /// # Parallelism and determinism
    ///
    /// Within a row (fixed target stream `i`), the edges `U_ij` / `D_ij` are
    /// independent: each task runs one edge's `Full` reconstruction forward
    /// *and* its transpose backward (so its transient cache lives and dies
    /// inside the task), producing `(t_ij, g_ij)`. Rows are processed
    /// sequentially (reconstruction is triangular); after each row joins,
    /// the accumulators are updated on the dispatching thread in fixed `j`
    /// order — the same edge order as the serial loops — so results are
    /// bitwise independent of the thread count. Edge tasks run under
    /// [`meter::isolated`] and their byte/event traces are absorbed in edge
    /// order, reproducing the serial activation-meter trace exactly.
    pub fn backward_rev(&mut self, ys: Vec<Tensor>, dys: Vec<Tensor>) -> (Vec<Tensor>, Vec<Tensor>) {
        assert_eq!(ys.len(), self.n_out);
        assert_eq!(dys.len(), self.n_out);
        type EdgeSlot = Option<((Tensor, Tensor), meter::TaskMeter)>;
        // ---- Invert + differentiate the up half, coarsest row first.
        // o_i = m_i + Σ_{j>i} U_ij(m_j)  =>  dm_j = do_j + Σ_{i<j} U_ij^T do_i.
        // `mids[i]` holds o_i until row i turns it into m_i; `dmids[i]`
        // holds do_i until the rows below add into it.
        let mut mids = ys;
        let mut dmids = dys;
        for i in (0..self.n_out - 1).rev() {
            let row = &mut self.up[i]; // row[k] transforms stream i+1+k -> i.
            let dyi = &dmids[i];
            let mids_ref = &mids;
            let mut slots: Vec<EdgeSlot> = (0..row.len()).map(|_| None).collect();
            let tasks: Vec<Box<dyn FnOnce() + Send + '_>> = row
                .iter_mut()
                .zip(slots.iter_mut())
                .enumerate()
                .map(|(k, (u, slot))| {
                    Box::new(move || {
                        let mj = &mids_ref[i + 1 + k];
                        *slot = Some(meter::isolated(|| {
                            let t = meter::time_phase(meter::Phase::Reconstruct, || u.forward(mj, CacheMode::Full));
                            let g = meter::time_phase(meter::Phase::Backward, || u.backward(dyi));
                            (t, g)
                        }));
                    }) as Box<dyn FnOnce() + Send + '_>
                })
                .collect();
            par::parallel_join(tasks);
            for (k, slot) in slots.into_iter().enumerate() {
                let ((t, g), tm) = slot.expect("edge task did not run");
                meter::absorb(&tm);
                mids[i].sub_assign(&t);
                dmids[i + 1 + k].add_assign(&g);
            }
        }

        // ---- Invert + differentiate the down half, finest row first.
        // m_i = x_i + Σ_{j<i} D_ij(x_j)  =>  dx_j = dm_j + Σ_{i>j} D_ij^T dm_i.
        // Virtual streams (i >= n_in) have no input to reconstruct but their
        // D transforms still contribute gradients, so their edges run too.
        // `xs[i]` holds m_i until row i turns it into x_i; `dmids[j]` is
        // read as dm_j by row j and then accumulates into dx_j.
        let mut xs = mids;
        xs.truncate(self.n_in);
        for i in 1..self.n_out {
            let row = &mut self.down[i]; // row[j] transforms stream j -> i.
            let dmi = &dmids[i];
            let xs_ref = &xs;
            let mut slots: Vec<EdgeSlot> = (0..row.len()).map(|_| None).collect();
            let tasks: Vec<Box<dyn FnOnce() + Send + '_>> = row
                .iter_mut()
                .zip(slots.iter_mut())
                .enumerate()
                .map(|(j, (d, slot))| {
                    Box::new(move || {
                        *slot = Some(meter::isolated(|| {
                            let t = meter::time_phase(meter::Phase::Reconstruct, || {
                                d.forward(&xs_ref[j], CacheMode::Full)
                            });
                            let g = meter::time_phase(meter::Phase::Backward, || d.backward(dmi));
                            (t, g)
                        }));
                    }) as Box<dyn FnOnce() + Send + '_>
                })
                .collect();
            par::parallel_join(tasks);
            for (j, slot) in slots.into_iter().enumerate() {
                let ((t, g), tm) = slot.expect("edge task did not run");
                meter::absorb(&tm);
                if i < self.n_in {
                    xs[i].sub_assign(&t);
                }
                dmids[j].add_assign(&g);
            }
        }
        let mut dxs = dmids;
        dxs.truncate(self.n_in);
        (xs, dxs)
    }

    /// Conventional backward using caches of a `Full`-mode forward.
    pub fn backward_cached(&mut self, dys: &[Tensor]) -> Vec<Tensor> {
        assert_eq!(dys.len(), self.n_out);
        let mut dmids: Vec<Tensor> = dys.to_vec();
        for i in 0..self.n_out - 1 {
            for j in i + 1..self.n_out {
                let g = self.up_mut(i, j).backward(&dys[i]);
                dmids[j].add_assign(&g);
            }
        }
        let mut dxs: Vec<Tensor> = (0..self.n_in).map(|j| dmids[j].clone()).collect();
        for i in 1..self.n_out {
            for j in 0..i.min(self.n_in) {
                let g = self.down[i][j].backward(&dmids[i]);
                dxs[j].add_assign(&g);
            }
        }
        dxs
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

    fn randomize_bn(s: &mut RevSilo, seed: u64) {
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

    #[test]
    fn stats_cache_is_small() {
        revbifpn_nn::meter::reset();
        let mut s = make_silo(4, 4, 14);
        let xs = make_inputs(4, 16, 15);
        let shapes: Vec<Shape> = xs.iter().map(|x| x.shape()).collect();
        let _ = s.forward(&xs, CacheMode::Stats);
        assert_eq!(revbifpn_nn::meter::current() as u64, s.cache_bytes(&shapes, CacheMode::Stats));
        assert!(s.cache_bytes(&shapes, CacheMode::Stats) < s.cache_bytes(&shapes, CacheMode::Full) / 10);
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
