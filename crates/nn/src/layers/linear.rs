//! Dense (fully connected) layer on `[n, c, 1, 1]` feature vectors.

use crate::freeze::{FreezeError, FrozenLayer};
use crate::init::kaiming_linear;
use crate::meter::Cached;
use crate::mode::CacheMode;
use crate::module::Layer;
use crate::param::Param;
use rand::Rng;
use revbifpn_tensor::par::{self, GradSink};
use revbifpn_tensor::{sgemm_a_bt, Shape, Tensor};

/// `y = x W^T + b` with `x: [n, in, 1, 1]`, `W: [out, in]`, `y: [n, out, 1, 1]`.
#[derive(Debug)]
pub struct Linear {
    weight: Param,
    bias: Param,
    in_features: usize,
    out_features: usize,
    cache_x: Cached<Tensor>,
}

impl Linear {
    /// Kaiming-uniform initialized dense layer.
    pub fn new<R: Rng + ?Sized>(in_features: usize, out_features: usize, rng: &mut R) -> Self {
        Self {
            weight: Param::new(kaiming_linear(out_features, in_features, rng), true, "linear.weight"),
            bias: Param::zeros(Shape::vector(out_features), false, "linear.bias"),
            in_features,
            out_features,
            cache_x: Cached::empty(),
        }
    }

    /// Input feature count.
    pub fn in_features(&self) -> usize {
        self.in_features
    }

    /// Output feature count.
    pub fn out_features(&self) -> usize {
        self.out_features
    }
}

impl Layer for Linear {
    fn forward(&mut self, x: &Tensor, mode: CacheMode) -> Tensor {
        let xs = x.shape();
        assert_eq!(
            (xs.c, xs.h, xs.w),
            (self.in_features, 1, 1),
            "Linear expects [n, {}, 1, 1], got {xs}",
            self.in_features
        );
        let mut y = Tensor::zeros(Shape::new(xs.n, self.out_features, 1, 1));
        // y [n, out] = x [n, in] @ W^T   (W stored [out, in])
        sgemm_a_bt(xs.n, self.in_features, self.out_features, 1.0, x.data(), self.weight.value.data(), 0.0, y.data_mut());
        for n in 0..xs.n {
            for o in 0..self.out_features {
                y.data_mut()[n * self.out_features + o] += self.bias.value.data()[o];
            }
        }
        if mode == CacheMode::Full {
            self.cache_x.put_tensor(x.clone());
        }
        y
    }

    fn backward(&mut self, dy: &Tensor) -> Tensor {
        let x = self.cache_x.take().expect("Linear::backward without Full forward");
        let n = x.shape().n;
        let (of, inf) = (self.out_features, self.in_features);
        // dW [out, in] = sum_n dy_n [out, 1] @ x_n [1, in]. A single GEMM
        // contracting over the batch would tie the f32 association to the
        // batch extent; per-sample outer products merged with the pairwise
        // sample tree keep dW bitwise invariant to micro-batch shard
        // boundaries (same contract as the conv weight gradients).
        let mut dw = Tensor::zeros(self.weight.value.shape());
        let dyd = dy.data();
        let xd = x.data();
        par::tree_reduce_with_slabs(n, of, inf, GradSink::Owned(dw.data_mut()), |i, rows, slab| {
            let dy_rows = &dyd[i * of + rows.start..i * of + rows.end];
            sgemm_a_bt(rows.len(), 1, inf, 1.0, dy_rows, &xd[i * inf..(i + 1) * inf], 1.0, slab);
        });
        self.weight.accumulate(&dw);
        // db: per-sample rows of dy reduced with the same tree.
        let mut db = Tensor::zeros(Shape::vector(of));
        par::tree_reduce_with_slabs(n, 1, of, GradSink::Owned(db.data_mut()), |i, _, slab| {
            slab.copy_from_slice(&dyd[i * of..(i + 1) * of]);
        });
        self.bias.accumulate(&db);
        // dx [n, in] = dy [n, out] @ W [out, in]
        let mut dx = Tensor::zeros(x.shape());
        revbifpn_tensor::sgemm(n, of, inf, 1.0, dyd, self.weight.value.data(), 0.0, dx.data_mut());
        dx
    }

    fn out_shape(&self, x: Shape) -> Shape {
        Shape::new(x.n, self.out_features, 1, 1)
    }

    fn macs(&self, x: Shape) -> u64 {
        (x.n * self.in_features * self.out_features) as u64
    }

    fn visit_params(&mut self, f: &mut dyn FnMut(&mut Param)) {
        f(&mut self.weight);
        f(&mut self.bias);
    }

    fn clear_cache(&mut self) {
        self.cache_x.clear();
    }

    fn cache_bytes(&self, x: Shape, mode: CacheMode) -> u64 {
        mode.full_only(x.bytes())
    }

    fn name(&self) -> &str {
        "linear"
    }

    fn freeze(&self) -> Result<FrozenLayer, FreezeError> {
        Ok(FrozenLayer::Linear { weight: self.weight.value.clone(), bias: self.bias.value.clone() })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gradcheck::check_layer;
    use crate::module::param_count;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn shapes_params_macs() {
        let mut rng = StdRng::seed_from_u64(0);
        let mut l = Linear::new(8, 3, &mut rng);
        assert_eq!(l.out_shape(Shape::new(5, 8, 1, 1)), Shape::new(5, 3, 1, 1));
        assert_eq!(param_count(&mut l), 8 * 3 + 3);
        assert_eq!(l.macs(Shape::new(5, 8, 1, 1)), 5 * 8 * 3);
    }

    #[test]
    fn known_values() {
        let mut rng = StdRng::seed_from_u64(1);
        let mut l = Linear::new(2, 1, &mut rng);
        l.weight.value = Tensor::from_vec(Shape::new(1, 2, 1, 1), vec![2.0, -1.0]).unwrap();
        l.bias.value = Tensor::from_vec(Shape::vector(1), vec![0.5]).unwrap();
        let x = Tensor::from_vec(Shape::new(1, 2, 1, 1), vec![3.0, 4.0]).unwrap();
        let y = l.forward(&x, CacheMode::None);
        assert_eq!(y.data(), &[2.0 * 3.0 - 4.0 + 0.5]);
    }

    #[test]
    fn gradients_pass_finite_diff() {
        let mut rng = StdRng::seed_from_u64(2);
        let mut l = Linear::new(6, 4, &mut rng);
        let x = Tensor::randn(Shape::new(3, 6, 1, 1), 1.0, &mut rng);
        check_layer(&mut l, &x, 2e-2);
    }

    #[test]
    fn weight_grads_are_shard_invariant() {
        // Per-shard backward + pairwise-tree merge must reproduce the
        // full-batch gradients bit for bit (dW used to be one GEMM
        // contracting over the batch, whose f32 association broke this).
        let mut rng = StdRng::seed_from_u64(3);
        let (n, inf, of) = (8usize, 6usize, 5usize);
        let mut l = Linear::new(inf, of, &mut rng);
        let x = Tensor::randn(Shape::new(n, inf, 1, 1), 1.0, &mut rng);
        let dy = Tensor::randn(Shape::new(n, of, 1, 1), 1.0, &mut rng);
        let _ = l.forward(&x, CacheMode::Full);
        let _ = l.backward(&dy);
        let dw_full = l.weight.grad.clone();
        let db_full = l.bias.grad.clone();
        for shards in [2usize, 4] {
            let m = n / shards;
            let mut dws: Vec<Vec<f32>> = Vec::new();
            let mut dbs: Vec<Vec<f32>> = Vec::new();
            for s in 0..shards {
                l.weight.zero_grad();
                l.bias.zero_grad();
                let xs = Tensor::from_vec(
                    Shape::new(m, inf, 1, 1),
                    x.data()[s * m * inf..(s + 1) * m * inf].to_vec(),
                )
                .unwrap();
                let dys = Tensor::from_vec(
                    Shape::new(m, of, 1, 1),
                    dy.data()[s * m * of..(s + 1) * m * of].to_vec(),
                )
                .unwrap();
                let _ = l.forward(&xs, CacheMode::Full);
                let _ = l.backward(&dys);
                dws.push(l.weight.grad.data().to_vec());
                dbs.push(l.bias.grad.data().to_vec());
            }
            par::tree_reduce_serial(shards, |d, s| {
                let (head, tail) = dws.split_at_mut(s);
                for (a, b) in head[d].iter_mut().zip(&tail[0]) {
                    *a += *b;
                }
                let (head, tail) = dbs.split_at_mut(s);
                for (a, b) in head[d].iter_mut().zip(&tail[0]) {
                    *a += *b;
                }
            });
            for (i, (a, b)) in dws[0].iter().zip(dw_full.data()).enumerate() {
                assert_eq!(a.to_bits(), b.to_bits(), "dW shards={shards} idx {i}");
            }
            for (i, (a, b)) in dbs[0].iter().zip(db_full.data()).enumerate() {
                assert_eq!(a.to_bits(), b.to_bits(), "db shards={shards} idx {i}");
            }
        }
    }
}
