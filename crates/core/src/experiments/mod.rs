//! One driver per table/figure of the paper's evaluation.
//!
//! Each submodule exposes a `run`-style function returning structured,
//! serializable results; [`artifacts`] renders them as the paper's
//! rows/series (the `repro` binary of `inceptionn-bench` prints them or
//! writes `results/`) and `EXPERIMENTS.md` records the comparison.
//!
//! | paper artifact | module |
//! |---|---|
//! | Fig. 3 (sizes, comm share) | [`breakdown`] |
//! | Fig. 4 (truncation vs accuracy) | [`truncation`] |
//! | Fig. 5 (gradient distribution) | [`gradhist`] |
//! | Fig. 7 (software compression) | [`softcomp`] |
//! | Table I (hyper-parameters) | [`breakdown`] |
//! | Table II (time breakdown) | [`breakdown`] |
//! | Fig. 12 (system comparison) | [`speedup`] |
//! | Fig. 13 (speedup at accuracy parity) | [`speedup`] |
//! | Fig. 14 (ratio & accuracy per scheme) | [`ratios`] |
//! | Table III (bitwidth distribution) | [`ratios`] |
//! | Fig. 15 (scalability) | [`scaling`] |
//! | design-choice ablations | [`ablation`] |
//!
//! Extensions beyond the paper's evaluation:
//!
//! | study | module |
//! |---|---|
//! | error-bound sweep (ratio/accuracy knee) | [`boundsweep`] |
//! | accuracy-vs-wire-ratio frontier per codec family | [`frontier`] |
//! | Fig. 1 organizations on an oversubscribed fabric | [`hierarchy`] |
//! | vs 1-bit SGD / TernGrad / DGC top-k (Sec. IX) | [`related`] |
//! | 4→1024 topology-tree sweep + in-network reduction | [`toposcale`] |

pub mod ablation;
pub mod artifacts;
pub mod boundsweep;
pub mod breakdown;
pub mod frontier;
pub mod gradhist;
pub mod hierarchy;
pub mod ratios;
pub mod related;
pub mod scaling;
pub mod softcomp;
pub mod speedup;
pub mod toposcale;
pub mod truncation;

/// How much work an experiment run should invest.
///
/// `Quick` keeps unit tests fast (scaled-down models, fewer samples and
/// iterations); `Full` is what `repro` uses to regenerate the published
/// numbers in `results/` (`INCEPTIONN_QUICK` switches it to `Quick`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Fidelity {
    /// Seconds-scale runs for tests.
    Quick,
    /// The real experiment (release-build binaries).
    Full,
}

impl Fidelity {
    /// Scales a `Full`-fidelity count down for quick runs.
    pub fn scale(self, full: usize, quick: usize) -> usize {
        match self {
            Fidelity::Quick => quick,
            Fidelity::Full => full,
        }
    }
}
