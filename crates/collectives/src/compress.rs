//! Gradient compression — the paper's stated next step: "to reduce the
//! communication cost of gradient synchronization by exploiting
//! sparsification [22, 47] and quantization \[1\] ... is our next step" (§5).
//!
//! Two classic compressors are implemented:
//!
//! * **QSGD** stochastic quantization \[1\]: each value is rounded to one of
//!   `s` levels of `‖v‖∞` with probabilities that make the estimate
//!   unbiased; the wire format is one `f32` norm plus ⌈log2(2s+1)⌉ bits per
//!   value.
//! * **Top-k sparsification** [22, 47] with error feedback: only the `k`
//!   largest-magnitude coordinates are transmitted; the untransmitted
//!   residual is returned so the caller can fold it into the next step.

/// A QSGD-quantized vector.
#[derive(Debug, Clone, PartialEq)]
pub struct Quantized {
    /// The `‖v‖∞` scale.
    pub norm: f32,
    /// Number of quantization levels `s` (per sign).
    pub levels: u8,
    /// Signed level per value, in `[-s, s]`.
    pub codes: Vec<i8>,
}

impl Quantized {
    /// Length of the encoded vector.
    pub fn len(&self) -> usize {
        self.codes.len()
    }

    /// True when encoding an empty vector.
    pub fn is_empty(&self) -> bool {
        self.codes.is_empty()
    }

    /// Wire size in bytes: the norm plus the packed codes at
    /// ⌈log2(2s+1)⌉ bits each.
    pub fn wire_bytes(&self) -> usize {
        let bits_per_value = (2 * self.levels as u32 + 1)
            .next_power_of_two()
            .trailing_zeros();
        4 + (self.codes.len() * bits_per_value as usize).div_ceil(8)
    }

    /// Compression ratio vs dense f32.
    pub fn ratio(&self) -> f64 {
        if self.codes.is_empty() {
            return 1.0;
        }
        self.wire_bytes() as f64 / (4 * self.codes.len()) as f64
    }
}

/// Deterministic stream for the stochastic rounding (SplitMix64).
fn mix(state: &mut u64) -> f32 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    ((z ^ (z >> 31)) >> 40) as f32 / (1u64 << 24) as f32
}

/// Quantize `v` to `levels` levels per sign with stochastic (unbiased)
/// rounding driven by `seed`.
pub fn quantize(v: &[f32], levels: u8, seed: u64) -> Quantized {
    assert!(levels >= 1);
    let norm = v.iter().fold(0.0f32, |a, &x| a.max(x.abs()));
    let mut state = seed;
    let codes = if norm == 0.0 {
        vec![0; v.len()]
    } else {
        v.iter()
            .map(|&x| {
                let scaled = x.abs() / norm * levels as f32; // in [0, s]
                let low = scaled.floor();
                let p_up = scaled - low;
                let q = low + f32::from(mix(&mut state) < p_up);
                (q as i8).clamp(0, levels as i8) * if x < 0.0 { -1 } else { 1 }
            })
            .collect()
    };
    Quantized {
        norm,
        levels,
        codes,
    }
}

/// Reconstruct the (unbiased) estimate.
pub fn dequantize(q: &Quantized) -> Vec<f32> {
    let scale = q.norm / q.levels as f32;
    q.codes.iter().map(|&c| c as f32 * scale).collect()
}

/// A top-k sparsified vector.
#[derive(Debug, Clone, PartialEq)]
pub struct Sparse {
    /// Dense length.
    pub len: usize,
    /// Kept coordinates.
    pub indices: Vec<u32>,
    /// Kept values.
    pub values: Vec<f32>,
}

impl Sparse {
    /// Wire size in bytes (index + value per kept coordinate).
    pub fn wire_bytes(&self) -> usize {
        8 + self.indices.len() * 8
    }

    /// Compression ratio vs dense f32.
    pub fn ratio(&self) -> f64 {
        if self.len == 0 {
            return 1.0;
        }
        self.wire_bytes() as f64 / (4 * self.len) as f64
    }
}

/// Keep the `k` largest-magnitude coordinates of `v`; returns the sparse
/// message and the residual (`v` minus the message) for error feedback.
pub fn top_k(v: &[f32], k: usize) -> (Sparse, Vec<f32>) {
    let k = k.min(v.len());
    let mut order: Vec<usize> = (0..v.len()).collect();
    order.sort_by(|&a, &b| {
        v[b].abs()
            .partial_cmp(&v[a].abs())
            .unwrap_or(std::cmp::Ordering::Equal)
            .then(a.cmp(&b))
    });
    let mut kept: Vec<usize> = order[..k].to_vec();
    kept.sort_unstable();
    let sparse = Sparse {
        len: v.len(),
        indices: kept.iter().map(|&i| i as u32).collect(),
        values: kept.iter().map(|&i| v[i]).collect(),
    };
    let mut residual = v.to_vec();
    for &i in &kept {
        residual[i] = 0.0;
    }
    (sparse, residual)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantize_roundtrip_zero_and_extremes() {
        let v = vec![0.0f32, 1.0, -1.0, 0.5];
        let q = quantize(&v, 4, 1);
        let d = dequantize(&q);
        assert_eq!(d[0], 0.0);
        assert_eq!(d[1], 1.0); // extremes are exact
        assert_eq!(d[2], -1.0);
        assert!((d[3] - 0.5).abs() <= 0.25 + 1e-6); // within one level
    }

    #[test]
    fn quantization_is_unbiased() {
        let v = vec![0.37f32, -0.81, 0.12, 0.99];
        let mut sums = vec![0.0f64; v.len()];
        let trials = 20_000;
        for seed in 0..trials {
            let d = dequantize(&quantize(&v, 2, seed));
            for (s, x) in sums.iter_mut().zip(&d) {
                *s += *x as f64;
            }
        }
        for (s, &x) in sums.iter().zip(&v) {
            let mean = s / trials as f64;
            assert!((mean - x as f64).abs() < 0.02, "E[q] = {mean} vs {x}");
        }
    }

    #[test]
    fn wire_bytes_shrink() {
        let v = vec![1.0f32; 1000];
        let q = quantize(&v, 4, 0); // 9 levels -> 4 bits/value
        assert!(q.ratio() < 0.2, "ratio {}", q.ratio());
        assert_eq!(q.wire_bytes(), 4 + 500);
    }

    /// `s` back at its full length `s.len`.
    fn densify(s: &Sparse) -> Vec<f32> {
        let mut out = vec![0.0f32; s.len];
        for (&i, &v) in s.indices.iter().zip(&s.values) {
            out[i as usize] = v;
        }
        out
    }

    #[test]
    fn top_k_keeps_largest_and_residual_complements() {
        let v = vec![0.1f32, -5.0, 0.3, 2.0, -0.2];
        let (s, r) = top_k(&v, 2);
        assert_eq!(s.indices, vec![1, 3]);
        assert_eq!(s.values, vec![-5.0, 2.0]);
        // message + residual == original
        let dense = densify(&s);
        for i in 0..v.len() {
            assert_eq!(dense[i] + r[i], v[i]);
        }
        // Compression only pays off on long vectors (index overhead).
        let long = vec![1.0f32; 10_000];
        let (s_long, _) = top_k(&long, 100);
        assert!(s_long.ratio() < 0.05, "ratio {}", s_long.ratio());
    }

    #[test]
    fn top_k_degenerate_cases() {
        let v = vec![1.0f32, 2.0];
        let (s, r) = top_k(&v, 10);
        assert_eq!(densify(&s), v);
        assert!(r.iter().all(|&x| x == 0.0));
        let (s0, _) = top_k(&[], 3);
        assert_eq!(s0.len, 0);
        assert_eq!(s0.ratio(), 1.0);
    }

    #[test]
    fn error_feedback_converges() {
        // Accumulating residuals, the transmitted total approaches the true
        // gradient sum (the classic EF-SGD property).
        let g = vec![0.5f32, -0.25, 0.1, 0.05];
        let mut residual = vec![0.0f32; 4];
        let mut transmitted = [0.0f32; 4];
        for _ in 0..16 {
            let with_fb: Vec<f32> = g.iter().zip(&residual).map(|(a, b)| a + b).collect();
            let (s, r) = top_k(&with_fb, 1);
            for (t, d) in transmitted.iter_mut().zip(densify(&s)) {
                *t += d;
            }
            residual = r;
        }
        // Per-coordinate transmitted ≈ 16 · g within the final residual.
        for (t, &gi) in transmitted.iter().zip(&g) {
            assert!(
                (t - 16.0 * gi).abs() <= 16.0 * 0.5 / 16.0 + 0.6,
                "{t} vs {}",
                16.0 * gi
            );
        }
    }
}
