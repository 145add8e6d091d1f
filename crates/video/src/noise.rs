//! Deterministic value noise for terrain synthesis.

use vs_rng::mix64;

/// Hash a lattice point to a uniform value in `[0, 1)`.
#[inline]
fn lattice(seed: u64, xi: i64, yi: i64) -> f64 {
    let h = mix64(seed ^ (xi as u64).wrapping_mul(0x9e37_79b9) ^ (yi as u64).rotate_left(32));
    (h >> 11) as f64 / (1u64 << 53) as f64
}

/// Smoothstep interpolation weight.
#[inline]
fn smooth(t: f64) -> f64 {
    t * t * (3.0 - 2.0 * t)
}

/// Single-octave value noise at `(x, y)`, in `[0, 1)`.
pub fn value_noise_2d(seed: u64, x: f64, y: f64) -> f64 {
    let xi = x.floor() as i64;
    let yi = y.floor() as i64;
    let fx = smooth(x - xi as f64);
    let fy = smooth(y - yi as f64);
    let v00 = lattice(seed, xi, yi);
    let v10 = lattice(seed, xi + 1, yi);
    let v01 = lattice(seed, xi, yi + 1);
    let v11 = lattice(seed, xi + 1, yi + 1);
    let top = v00 + (v10 - v00) * fx;
    let bottom = v01 + (v11 - v01) * fx;
    top + (bottom - top) * fy
}

/// Multi-octave fractal value noise.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ValueNoise {
    /// Base seed.
    pub seed: u64,
    /// Number of octaves (≥ 1).
    pub octaves: u32,
    /// Base spatial frequency (cycles per unit).
    pub frequency: f64,
    /// Amplitude falloff per octave.
    pub persistence: f64,
}

impl ValueNoise {
    /// A fractal noise field.
    pub fn new(seed: u64, octaves: u32, frequency: f64, persistence: f64) -> Self {
        ValueNoise {
            seed,
            octaves: octaves.max(1),
            frequency,
            persistence,
        }
    }

    /// Sample the field at `(x, y)`; result in `[0, 1)` (approximately).
    pub fn sample(&self, x: f64, y: f64) -> f64 {
        let mut amp = 1.0;
        let mut freq = self.frequency;
        let mut total = 0.0;
        let mut norm = 0.0;
        for o in 0..self.octaves {
            total += amp * value_noise_2d(self.seed ^ (o as u64) << 17, x * freq, y * freq);
            norm += amp;
            amp *= self.persistence;
            freq *= 2.0;
        }
        total / norm
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn noise_is_deterministic() {
        assert_eq!(value_noise_2d(1, 3.7, 9.2), value_noise_2d(1, 3.7, 9.2));
        assert_ne!(value_noise_2d(1, 3.7, 9.2), value_noise_2d(2, 3.7, 9.2));
    }

    #[test]
    fn noise_is_in_unit_interval() {
        let n = ValueNoise::new(7, 4, 0.05, 0.5);
        for i in 0..500 {
            let v = n.sample(i as f64 * 1.7, i as f64 * 0.9);
            assert!((0.0..1.0).contains(&v), "sample {v} out of range");
        }
    }

    #[test]
    fn noise_is_continuous() {
        // Nearby points must have nearby values (no hash discontinuity).
        let n = ValueNoise::new(3, 3, 0.1, 0.5);
        for i in 0..100 {
            let x = i as f64 * 0.37;
            let a = n.sample(x, 5.0);
            let b = n.sample(x + 0.01, 5.0);
            assert!((a - b).abs() < 0.05, "jump at x={x}: {a} vs {b}");
        }
    }

    #[test]
    fn noise_varies_over_space() {
        let n = ValueNoise::new(11, 4, 0.08, 0.55);
        let samples: Vec<f64> = (0..200)
            .map(|i| n.sample((i % 20) as f64 * 3.1, (i / 20) as f64 * 2.7))
            .collect();
        let mean = samples.iter().sum::<f64>() / samples.len() as f64;
        let var = samples.iter().map(|v| (v - mean).powi(2)).sum::<f64>() / samples.len() as f64;
        assert!(var > 0.005, "noise field too flat: var={var}");
    }

    #[test]
    fn lattice_points_interpolate_exactly() {
        // At integer coordinates, noise equals the lattice hash.
        let v = value_noise_2d(5, 3.0, 4.0);
        assert_eq!(v, lattice(5, 3, 4));
    }
}
