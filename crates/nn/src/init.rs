//! Weight initialization (He/Kaiming, as used by the paper).

use rand::Rng;
use revbifpn_tensor::{Shape, Tensor};

/// Kaiming-normal initialization for a conv weight `[c_out, c_in/g, kh, kw]`:
/// `std = sqrt(2 / fan_in)` with `fan_in = c_in/g * kh * kw`.
pub fn kaiming_conv<R: Rng + ?Sized>(shape: Shape, rng: &mut R) -> Tensor {
    let fan_in = (shape.c * shape.h * shape.w).max(1);
    let std = (2.0 / fan_in as f32).sqrt();
    Tensor::randn(shape, std, rng)
}

/// Kaiming-uniform initialization for a dense weight `[out, in, 1, 1]`:
/// `bound = sqrt(6 / fan_in)`.
pub fn kaiming_linear<R: Rng + ?Sized>(out_features: usize, in_features: usize, rng: &mut R) -> Tensor {
    let bound = (6.0 / in_features.max(1) as f32).sqrt();
    Tensor::uniform(Shape::new(out_features, in_features, 1, 1), -bound, bound, rng)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn kaiming_conv_std_matches() {
        let mut rng = StdRng::seed_from_u64(0);
        let w = kaiming_conv(Shape::new(64, 32, 3, 3), &mut rng);
        let n = w.data().len() as f64;
        let var = w.sq_sum() / n;
        let expect = 2.0 / (32.0 * 9.0);
        assert!((var - expect).abs() < expect * 0.2, "var {var} vs {expect}");
    }

    #[test]
    fn kaiming_linear_bounds() {
        let mut rng = StdRng::seed_from_u64(1);
        let w = kaiming_linear(10, 24, &mut rng);
        let bound = (6.0f32 / 24.0).sqrt();
        assert!(w.data().iter().all(|&v| v.abs() <= bound + 1e-6));
    }
}
