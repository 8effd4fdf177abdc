//! Closed-form scheme properties: Tables 2 and 3 of the paper.
//!
//! These analytic formulas are cross-checked against measured executions in
//! the integration tests (`tests/analytic_vs_simulated.rs`).

use crate::schedule::Scheme;

/// Analytic properties of a pipeline scheme for given `D` and `N`
/// (one row of Table 2 / Table 3).
#[derive(Debug, Clone, PartialEq)]
pub struct SchemeAnalysis {
    /// The scheme.
    pub scheme: Scheme,
    /// Pipeline pairs (only meaningful for Chimera; 1 otherwise).
    pub f: u32,
    /// Bubble ratio under the practical backward ≈ 2× forward workload
    /// (`≈ 0` for the asynchronous schemes).
    pub bubble_ratio: f64,
    /// Weights memory per worker in units of `Mθ` (one stage's weights):
    /// `(min, max)` across workers.
    pub weights_memory: (f64, f64),
    /// Activations memory per worker in units of `Ma` (one stage's
    /// activations for one micro-batch): `(min, max)` across workers.
    pub activations_memory: (f64, f64),
    /// Whether the scheme is algorithmically equivalent to mini-batch SGD.
    pub synchronous: bool,
}

/// Table 2 row for `scheme` at depth `d` with `n` micro-batches per worker.
pub fn table2(scheme: Scheme, d: u32, n: u32) -> SchemeAnalysis {
    let df = d as f64;
    let nf = n as f64;
    match scheme {
        Scheme::GPipe => SchemeAnalysis {
            scheme,
            f: 1,
            bubble_ratio: (df - 1.0) / (nf + df - 1.0),
            weights_memory: (1.0, 1.0),
            activations_memory: (nf, nf),
            synchronous: true,
        },
        Scheme::Dapple => SchemeAnalysis {
            scheme,
            f: 1,
            bubble_ratio: (df - 1.0) / (nf + df - 1.0),
            weights_memory: (1.0, 1.0),
            activations_memory: (1.0_f64.min(nf), df.min(nf)),
            synchronous: true,
        },
        Scheme::Gems => SchemeAnalysis {
            scheme,
            f: 1,
            bubble_ratio: (df - 1.0) / (df + 0.5),
            weights_memory: (2.0, 2.0),
            activations_memory: (1.0, 1.0),
            synchronous: true,
        },
        Scheme::Chimera => table3(d, n, 1),
        Scheme::PipeDream => SchemeAnalysis {
            scheme,
            f: 1,
            bubble_ratio: 0.0,
            weights_memory: (1.0, df),
            activations_memory: (1.0_f64.min(nf), df.min(nf)),
            synchronous: false,
        },
        Scheme::PipeDream2Bw => SchemeAnalysis {
            scheme,
            f: 1,
            bubble_ratio: 0.0,
            weights_memory: (2.0, 2.0),
            activations_memory: (1.0_f64.min(nf), df.min(nf)),
            synchronous: false,
        },
    }
}

/// Table 3 row: Chimera with `2f` pipelines.
///
/// * bubble ratio `(D - 2f) / (2fN + D - 2f)`;
/// * weights memory `2f · Mθ` on every worker;
/// * activations memory in `[(D - D/2f + 1) · Ma, D · Ma]`.
pub fn table3(d: u32, n: u32, f: u32) -> SchemeAnalysis {
    assert!(f >= 1 && d.is_multiple_of(2) && (d / 2).is_multiple_of(f));
    let df = d as f64;
    let nf = n as f64;
    let ff = f as f64;
    SchemeAnalysis {
        scheme: Scheme::Chimera,
        f,
        bubble_ratio: (df - 2.0 * ff) / (2.0 * ff * nf + df - 2.0 * ff),
        weights_memory: (2.0 * ff, 2.0 * ff),
        activations_memory: ((df - df / (2.0 * ff) + 1.0).min(nf), df.min(nf)),
        synchronous: true,
    }
}

/// Bubble ratio of the *practical* (backward = 2× forward) Chimera schedule
/// with direct concatenation, per the Fig. 2 caption:
/// `(D-2) / (3N/2 + D - 2)`.
pub fn chimera_practical_bubble_ratio(d: u32, n: u32) -> f64 {
    (d as f64 - 2.0) / (1.5 * n as f64 + d as f64 - 2.0)
}

/// Practical bubble ratio of GPipe/DAPPLE: `(D-1)/(N+D-1)` (Table 2 already
/// accounts for the 2× backward).
pub fn onedir_practical_bubble_ratio(d: u32, n: u32) -> f64 {
    (d as f64 - 1.0) / (n as f64 + d as f64 - 1.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn chimera_halves_dapple_bubbles() {
        // Headline claim: up to 50% bubble reduction vs DAPPLE/GPipe.
        for d in [4u32, 8, 16, 32] {
            let n = d;
            let chim = table2(Scheme::Chimera, d, n).bubble_ratio;
            let dapple = table2(Scheme::Dapple, d, n).bubble_ratio;
            assert!(chim < dapple, "D={d}");
            // Bubble *count* is halved: Chimera's D/f - 2 slots per worker
            // (§3.1/§3.6: 2(D/2f - 1)) at f = 1, vs 2(D-1).
            let chimera_bubble_slots = |d: u32, f: u32| d / f - 2;
            assert!(chimera_bubble_slots(d, 1) <= (2 * (d - 1)) / 2);
        }
    }

    #[test]
    fn table3_reduces_to_table2_for_f1() {
        let a = table2(Scheme::Chimera, 8, 8);
        let b = table3(8, 8, 1);
        assert_eq!(a, b);
    }

    #[test]
    fn more_pipelines_fewer_bubbles_more_weights() {
        let d = 16;
        let n = 16;
        let f1 = table3(d, n, 1);
        let f2 = table3(d, n, 2);
        let f4 = table3(d, n, 4);
        assert!(f2.bubble_ratio < f1.bubble_ratio);
        assert!(f4.bubble_ratio < f2.bubble_ratio);
        assert!(f2.weights_memory.1 > f1.weights_memory.1);
        assert!(f4.weights_memory.1 > f2.weights_memory.1);
        // Activation memory becomes more balanced (min rises toward max).
        assert!(f2.activations_memory.0 > f1.activations_memory.0);
    }

    #[test]
    fn f_max_is_data_parallel_zero_bubbles() {
        let d = 8;
        let a = table3(d, d, d / 2);
        assert_eq!(a.bubble_ratio, 0.0);
        assert_eq!(a.weights_memory, (d as f64, d as f64));
    }

    #[test]
    fn gems_ratio_independent_of_n() {
        let a = table2(Scheme::Gems, 8, 4).bubble_ratio;
        let b = table2(Scheme::Gems, 8, 64).bubble_ratio;
        assert_eq!(a, b);
    }

    #[test]
    fn async_schemes_marked() {
        assert!(!table2(Scheme::PipeDream, 4, 4).synchronous);
        assert!(!table2(Scheme::PipeDream2Bw, 4, 4).synchronous);
        assert_eq!(table2(Scheme::PipeDream, 4, 4).bubble_ratio, 0.0);
    }

    #[test]
    fn practical_ratios_are_larger_than_equal_ratios_for_chimera() {
        for d in [4u32, 8, 16] {
            let practical = chimera_practical_bubble_ratio(d, d);
            let equal = table2(Scheme::Chimera, d, d).bubble_ratio;
            assert!(practical > equal, "D={d}: {practical} vs {equal}");
        }
    }
}
