//! Parameter initialization and stochastic masks.
//!
//! Every random draw goes through a caller-supplied [`rand::Rng`] so the
//! experiment binaries can reproduce tables bit-for-bit from a fixed
//! seed.

use rand::Rng;

use crate::matrix::Matrix;

/// Xavier/Glorot uniform initialization: `U(−a, a)` with
/// `a = sqrt(6 / (fan_in + fan_out))`. The right default for the
/// tanh/sigmoid gates of LSTM/GRU and the linear output layers.
pub fn xavier_uniform(rows: usize, cols: usize, rng: &mut impl Rng) -> Matrix {
    let a = (6.0 / (rows + cols) as f64).sqrt();
    random_uniform(rows, cols, -a, a, rng)
}

/// He/Kaiming uniform initialization: `U(−a, a)` with
/// `a = sqrt(6 / fan_in)`. The right default for ReLU layers (node
/// transform, GAT transforms, the slave-generator MLP).
pub fn he_uniform(rows: usize, cols: usize, rng: &mut impl Rng) -> Matrix {
    let a = (6.0 / rows.max(1) as f64).sqrt();
    random_uniform(rows, cols, -a, a, rng)
}

/// Uniform matrix in `[lo, hi)`.
pub fn random_uniform(rows: usize, cols: usize, lo: f64, hi: f64, rng: &mut impl Rng) -> Matrix {
    assert!(lo <= hi, "random_uniform: empty range");
    let data = (0..rows * cols).map(|_| rng.gen_range(lo..hi)).collect();
    Matrix::from_vec(rows, cols, data)
}

/// One standard-normal draw via Box–Muller (keeps us independent of
/// `rand_distr`, which is not in the approved dependency set).
pub fn standard_normal(rng: &mut impl Rng) -> f64 {
    // Avoid ln(0) by sampling u1 from the open interval.
    let u1: f64 = rng.gen_range(f64::MIN_POSITIVE..1.0);
    let u2: f64 = rng.gen::<f64>();
    (-2.0 * u1.ln()).sqrt() * (2.0 * std::f64::consts::PI * u2).cos()
}

/// Inverted-dropout mask: entries are `0` with probability `p` and
/// `1/(1−p)` otherwise, so the expected activation is unchanged and no
/// rescaling is needed at inference (Srivastava et al., as cited in
/// §IV-C).
///
/// # Panics
/// Panics unless `0 ≤ p < 1`.
pub fn dropout_mask(rows: usize, cols: usize, p: f64, rng: &mut impl Rng) -> Matrix {
    assert!((0.0..1.0).contains(&p), "dropout probability must be in [0,1), got {p}");
    let keep = 1.0 - p;
    let data =
        (0..rows * cols).map(|_| if rng.gen::<f64>() < p { 0.0 } else { 1.0 / keep }).collect();
    Matrix::from_vec(rows, cols, data)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn xavier_bounds() {
        let mut rng = StdRng::seed_from_u64(1);
        let m = xavier_uniform(40, 60, &mut rng);
        let a = (6.0 / 100.0f64).sqrt();
        assert!(m.as_slice().iter().all(|&x| x > -a && x < a));
    }

    #[test]
    fn he_bounds() {
        let mut rng = StdRng::seed_from_u64(2);
        let m = he_uniform(24, 8, &mut rng);
        let a = (6.0 / 24.0f64).sqrt();
        assert!(m.as_slice().iter().all(|&x| x > -a && x < a));
    }

    #[test]
    fn initialization_is_deterministic_per_seed() {
        let a = xavier_uniform(5, 5, &mut StdRng::seed_from_u64(7));
        let b = xavier_uniform(5, 5, &mut StdRng::seed_from_u64(7));
        let c = xavier_uniform(5, 5, &mut StdRng::seed_from_u64(8));
        assert_eq!(a, b);
        assert!(a.max_abs_diff(&c) > 0.0);
    }

    #[test]
    fn standard_normal_moments() {
        let mut rng = StdRng::seed_from_u64(3);
        let n = 20_000;
        let xs: Vec<f64> = (0..n).map(|_| standard_normal(&mut rng)).collect();
        let mean = xs.iter().sum::<f64>() / n as f64;
        let var = xs.iter().map(|x| (x - mean) * (x - mean)).sum::<f64>() / n as f64;
        assert!(mean.abs() < 0.03, "mean {mean} too far from 0");
        assert!((var - 1.0).abs() < 0.05, "variance {var} too far from 1");
    }

    #[test]
    fn dropout_mask_values_and_rate() {
        let mut rng = StdRng::seed_from_u64(4);
        let p = 0.3;
        let m = dropout_mask(100, 100, p, &mut rng);
        let keep_value = 1.0 / (1.0 - p);
        let mut zeros = 0usize;
        for &x in m.as_slice() {
            assert!(x == 0.0 || (x - keep_value).abs() < 1e-12);
            if x == 0.0 {
                zeros += 1;
            }
        }
        let rate = zeros as f64 / 10_000.0;
        assert!((rate - p).abs() < 0.02, "empirical drop rate {rate}");
    }

    #[test]
    fn dropout_mask_zero_p_is_identity() {
        let mut rng = StdRng::seed_from_u64(5);
        let m = dropout_mask(3, 3, 0.0, &mut rng);
        assert_eq!(m, Matrix::ones(3, 3));
    }

    #[test]
    #[should_panic(expected = "dropout probability")]
    fn dropout_mask_rejects_one() {
        let mut rng = StdRng::seed_from_u64(6);
        dropout_mask(2, 2, 1.0, &mut rng);
    }
}
