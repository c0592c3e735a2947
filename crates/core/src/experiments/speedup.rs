//! Fig. 12 and Fig. 13: the end-to-end system comparison.

use inceptionn_dnn::profile::{ModelId, ModelProfile};
use serde::{Deserialize, Serialize};

use crate::cluster::{
    iteration_breakdown, iterations_per_epoch, ClusterConfig, IterationBreakdown, SystemKind,
};

/// One bar of Fig. 12: a (model, system) iteration profile.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Fig12Row {
    /// Model name.
    pub model: String,
    /// System variant.
    pub system: SystemKind,
    /// The simulated breakdown.
    pub breakdown: IterationBreakdown,
    /// Total normalized to the model's WA bar.
    pub normalized: f64,
}

/// Reproduces Fig. 12: per-iteration time of WA / WA+C / INC / INC+C
/// for every evaluated model, normalized per model to WA.
pub fn fig12(cfg: &ClusterConfig) -> Vec<Fig12Row> {
    let mut rows = Vec::new();
    for id in ModelId::EVALUATED {
        let profile = ModelProfile::of(id);
        let breakdowns = SystemKind::ALL.map(|system| iteration_breakdown(&profile, system, cfg));
        // `SystemKind::ALL` starts with the WA baseline.
        let wa_total = breakdowns[0].total_s();
        for (system, breakdown) in SystemKind::ALL.into_iter().zip(breakdowns) {
            rows.push(Fig12Row {
                model: profile.name().to_string(),
                system,
                normalized: breakdown.total_s() / wa_total,
                breakdown,
            });
        }
    }
    rows
}

/// One column of Fig. 13: training both systems to the *same accuracy*.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Fig13Row {
    /// Model name.
    pub model: String,
    /// Final top-1 accuracy both systems reach.
    pub final_accuracy: f64,
    /// Epochs the WA baseline trains.
    pub epochs_wa: u32,
    /// Epochs INC+C trains (1–2 more, Sec. VIII-B).
    pub epochs_inc_c: u32,
    /// Simulated WA training time, hours.
    pub hours_wa: f64,
    /// Simulated INC+C training time, hours.
    pub hours_inc_c: f64,
    /// End-to-end speedup at accuracy parity.
    pub speedup: f64,
}

/// Reproduces Fig. 13 using the paper's measured epoch counts and our
/// simulated per-iteration times.
pub fn fig13(cfg: &ClusterConfig) -> Vec<Fig13Row> {
    let mut rows = Vec::new();
    for id in ModelId::EVALUATED {
        let profile = ModelProfile::of(id);
        let conv = profile.convergence.expect("evaluated models converge");
        let ipe = iterations_per_epoch(&profile, cfg.workers) as f64;
        let wa_iter = iteration_breakdown(&profile, SystemKind::Wa, cfg).total_s();
        let inc_iter = iteration_breakdown(&profile, SystemKind::IncC, cfg).total_s();
        let hours_wa = wa_iter * ipe * conv.epochs_baseline as f64 / 3600.0;
        let hours_inc_c = inc_iter * ipe * conv.epochs_compressed as f64 / 3600.0;
        rows.push(Fig13Row {
            model: profile.name().to_string(),
            final_accuracy: conv.final_accuracy,
            epochs_wa: conv.epochs_baseline,
            epochs_inc_c: conv.epochs_compressed,
            hours_wa,
            hours_inc_c,
            speedup: hours_wa / hours_inc_c,
        });
    }
    rows
}

#[cfg(test)]
mod tests {
    use super::*;

    fn quick_cfg() -> ClusterConfig {
        ClusterConfig {
            ratio_samples: 3000,
            ..ClusterConfig::default()
        }
    }

    #[test]
    fn fig12_wa_bars_are_normalized_to_one() {
        let rows = fig12(&quick_cfg());
        assert_eq!(rows.len(), 16);
        for r in rows.iter().filter(|r| r.system == SystemKind::Wa) {
            assert!((r.normalized - 1.0).abs() < 1e-12, "{}", r.model);
        }
    }

    #[test]
    fn fig12_inc_c_lands_in_paper_speedup_band() {
        // Fig. 12: 2.2x (VGG-16) to 3.1x (AlexNet) over WA.
        let rows = fig12(&quick_cfg());
        for r in rows.iter().filter(|r| r.system == SystemKind::IncC) {
            let speedup = 1.0 / r.normalized;
            assert!(
                (1.8..4.5).contains(&speedup),
                "{}: INC+C speedup {speedup:.2}",
                r.model
            );
        }
    }

    #[test]
    fn fig12_inc_alone_cuts_training_time_30_to_55_percent() {
        // Sec. VIII-A: INC (no compression) trains 31-52% faster than WA.
        let rows = fig12(&quick_cfg());
        for r in rows.iter().filter(|r| r.system == SystemKind::Inc) {
            let cut = 1.0 - r.normalized;
            assert!((0.25..0.65).contains(&cut), "{}: INC cut {cut:.2}", r.model);
        }
    }

    #[test]
    fn fig13_reproduces_headline_speedups() {
        let rows = fig13(&quick_cfg());
        assert_eq!(rows.len(), 4);
        for r in &rows {
            assert!(
                (1.8..4.2).contains(&r.speedup),
                "{}: {:.2}x",
                r.model,
                r.speedup
            );
            // Accuracy parity costs at most 2 extra epochs.
            assert!(r.epochs_inc_c - r.epochs_wa <= 2);
        }
        // AlexNet's WA baseline: the paper reports 175 h.
        let alex = rows.iter().find(|r| r.model == "AlexNet").unwrap();
        assert!(
            (140.0..210.0).contains(&alex.hours_wa),
            "AlexNet WA {:.0} h",
            alex.hours_wa
        );
    }
}
