//! Per-step aggregate statistics and time-series analysis.
//!
//! SIMCoV logs aggregate quantities every step for time-series analysis of
//! infection dynamics (§3.3). The correctness evaluation (paper Fig. 5 /
//! Table 2) compares peak values and their spread across trials between the
//! CPU and GPU implementations; the helpers for that analysis live here.

use crate::exact::ExactSum;
use std::ops::AddAssign;

pgas::wire_cell! {
    /// Aggregate statistics for a single timestep; a checkpoint's history
    /// trailer is a sequence of these cells.
    #[derive(Default)]
    pub struct StepStats {
        pub step: u64,
        /// Total virion mass.
        pub virions: f64,
        /// Total inflammatory-signal mass.
        pub chemokine: f64,
        /// Circulating T cells in the vascular pool.
        pub tcells_vasculature: u64,
        /// T cells resident in tissue.
        pub tcells_tissue: u64,
        pub epi_healthy: u64,
        pub epi_incubating: u64,
        pub epi_expressing: u64,
        pub epi_apoptotic: u64,
        pub epi_dead: u64,
        /// T cells that extravasated during this step (also the pool drain).
        pub extravasated: u64,
    }
}

impl AddAssign for StepStats {
    /// Combine partial statistics from two ranks/devices (the reduction
    /// operator). `step` must agree.
    fn add_assign(&mut self, o: StepStats) {
        debug_assert!(self.step == o.step || self.step == 0 || o.step == 0);
        self.step = self.step.max(o.step);
        self.virions += o.virions;
        self.chemokine += o.chemokine;
        self.tcells_vasculature = self.tcells_vasculature.max(o.tcells_vasculature);
        self.tcells_tissue += o.tcells_tissue;
        self.epi_healthy += o.epi_healthy;
        self.epi_incubating += o.epi_incubating;
        self.epi_expressing += o.epi_expressing;
        self.epi_apoptotic += o.epi_apoptotic;
        self.epi_dead += o.epi_dead;
        self.extravasated += o.extravasated;
    }
}

impl StepStats {
    /// Integer fields exactly equal and float fields within relative
    /// tolerance `tol` (reduction association differs between executors).
    pub fn approx_eq(&self, o: &StepStats, tol: f64) -> bool {
        fn close(a: f64, b: f64, tol: f64) -> bool {
            (a - b).abs() <= tol * a.abs().max(b.abs()).max(1.0)
        }
        self.step == o.step
            && self.tcells_vasculature == o.tcells_vasculature
            && self.tcells_tissue == o.tcells_tissue
            && self.epi_healthy == o.epi_healthy
            && self.epi_incubating == o.epi_incubating
            && self.epi_expressing == o.epi_expressing
            && self.epi_apoptotic == o.epi_apoptotic
            && self.epi_dead == o.epi_dead
            && self.extravasated == o.extravasated
            && close(self.virions, o.virions, tol)
            && close(self.chemokine, o.chemokine, tol)
    }
}

/// The in-flight form of [`StepStats`] used during the statistics reduction:
/// float masses accumulate in [`ExactSum`] superaccumulators so the combined
/// total is *independent of partitioning and reduction order* — any rank
/// count, tree shape or post-recovery re-partition produces bit-identical
/// statistics. [`StatsPartial::finalize`] rounds to the `f64` fields of
/// [`StepStats`] once, after the reduction.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct StatsPartial {
    pub step: u64,
    pub virions: ExactSum,
    pub chemokine: ExactSum,
    pub tcells_vasculature: u64,
    pub tcells_tissue: u64,
    pub epi_healthy: u64,
    pub epi_incubating: u64,
    pub epi_expressing: u64,
    pub epi_apoptotic: u64,
    pub epi_dead: u64,
    pub extravasated: u64,
}

impl AddAssign for StatsPartial {
    /// Combine partial statistics from two ranks/devices (the reduction
    /// operator). Exactly associative and commutative.
    fn add_assign(&mut self, o: StatsPartial) {
        debug_assert!(self.step == o.step || self.step == 0 || o.step == 0);
        self.step = self.step.max(o.step);
        self.virions += o.virions;
        self.chemokine += o.chemokine;
        self.tcells_vasculature = self.tcells_vasculature.max(o.tcells_vasculature);
        self.tcells_tissue += o.tcells_tissue;
        self.epi_healthy += o.epi_healthy;
        self.epi_incubating += o.epi_incubating;
        self.epi_expressing += o.epi_expressing;
        self.epi_apoptotic += o.epi_apoptotic;
        self.epi_dead += o.epi_dead;
        self.extravasated += o.extravasated;
    }
}

impl StatsPartial {
    /// Round the exact totals into the reporting form. Deterministic for a
    /// given exact value, so the resulting [`StepStats`] carries the
    /// partition invariance through.
    pub fn finalize(&self) -> StepStats {
        StepStats {
            step: self.step,
            virions: self.virions.to_f64(),
            chemokine: self.chemokine.to_f64(),
            tcells_vasculature: self.tcells_vasculature,
            tcells_tissue: self.tcells_tissue,
            epi_healthy: self.epi_healthy,
            epi_incubating: self.epi_incubating,
            epi_expressing: self.epi_expressing,
            epi_apoptotic: self.epi_apoptotic,
            epi_dead: self.epi_dead,
            extravasated: self.extravasated,
        }
    }
}

/// A run's statistics trajectory.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct TimeSeries {
    pub steps: Vec<StepStats>,
}

/// Which statistic to extract from a [`StepStats`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Metric {
    Virions,
    Chemokine,
    TCellsTissue,
    TCellsVasculature,
    EpiHealthy,
    EpiIncubating,
    EpiExpressing,
    EpiApoptotic,
    EpiDead,
}

impl Metric {
    pub fn get(self, s: &StepStats) -> f64 {
        match self {
            Metric::Virions => s.virions,
            Metric::Chemokine => s.chemokine,
            Metric::TCellsTissue => s.tcells_tissue as f64,
            Metric::TCellsVasculature => s.tcells_vasculature as f64,
            Metric::EpiHealthy => s.epi_healthy as f64,
            Metric::EpiIncubating => s.epi_incubating as f64,
            Metric::EpiExpressing => s.epi_expressing as f64,
            Metric::EpiApoptotic => s.epi_apoptotic as f64,
            Metric::EpiDead => s.epi_dead as f64,
        }
    }

    pub const fn name(self) -> &'static str {
        match self {
            Metric::Virions => "virions",
            Metric::Chemokine => "chemokine",
            Metric::TCellsTissue => "tcells_tissue",
            Metric::TCellsVasculature => "tcells_vasculature",
            Metric::EpiHealthy => "epi_healthy",
            Metric::EpiIncubating => "epi_incubating",
            Metric::EpiExpressing => "epi_expressing",
            Metric::EpiApoptotic => "epi_apoptotic",
            Metric::EpiDead => "epi_dead",
        }
    }
}

impl TimeSeries {
    pub fn push(&mut self, s: StepStats) {
        self.steps.push(s);
    }

    pub fn len(&self) -> usize {
        self.steps.len()
    }

    pub fn is_empty(&self) -> bool {
        self.steps.is_empty()
    }

    /// Peak value of a metric over the run (paper Table 2 compares peaks).
    pub fn peak(&self, m: Metric) -> f64 {
        self.steps.iter().map(|s| m.get(s)).fold(0.0, f64::max)
    }

    /// Value of a metric at each step.
    pub fn series(&self, m: Metric) -> Vec<f64> {
        self.steps.iter().map(|s| m.get(s)).collect()
    }
}

/// Mean and (population) standard deviation of a sample.
pub fn mean_std(values: &[f64]) -> (f64, f64) {
    if values.is_empty() {
        return (0.0, 0.0);
    }
    let n = values.len() as f64;
    let mean = values.iter().sum::<f64>() / n;
    let var = values.iter().map(|v| (v - mean) * (v - mean)).sum::<f64>() / n;
    (mean, var.sqrt())
}

/// Percent agreement between two values, as reported in Table 2:
/// `100 · (1 − |a−b| / max(a,b))`. Two zeros agree fully.
pub fn percent_agreement(a: f64, b: f64) -> f64 {
    let m = a.abs().max(b.abs());
    if m == 0.0 {
        return 100.0;
    }
    100.0 * (1.0 - (a - b).abs() / m)
}

/// Per-trial min/max envelope across several runs (the shaded band in
/// paper Fig. 5). Returns `(min, mean, max)` per step for the metric;
/// all runs must have equal length.
pub fn envelope(runs: &[TimeSeries], m: Metric) -> Vec<(f64, f64, f64)> {
    if runs.is_empty() {
        return vec![];
    }
    let len = runs[0].len();
    assert!(
        runs.iter().all(|r| r.len() == len),
        "all runs must have equal length"
    );
    (0..len)
        .map(|i| {
            let vals: Vec<f64> = runs.iter().map(|r| m.get(&r.steps[i])).collect();
            let min = vals.iter().copied().fold(f64::INFINITY, f64::min);
            let max = vals.iter().copied().fold(f64::NEG_INFINITY, f64::max);
            let mean = vals.iter().sum::<f64>() / vals.len() as f64;
            (min, mean, max)
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn s(step: u64, virions: f64, tissue: u64) -> StepStats {
        StepStats {
            step,
            virions,
            tcells_tissue: tissue,
            ..Default::default()
        }
    }

    #[test]
    fn add_assign_combines_partials() {
        let mut a = s(3, 10.0, 2);
        a.tcells_vasculature = 100;
        let mut b = s(3, 5.0, 1);
        b.tcells_vasculature = 100; // replicated global value: max, not sum
        a += b;
        assert_eq!(a.virions, 15.0);
        assert_eq!(a.tcells_tissue, 3);
        assert_eq!(a.tcells_vasculature, 100);
        assert_eq!(a.step, 3);
    }

    #[test]
    fn approx_eq_tolerates_float_noise_only() {
        let a = s(1, 100.0, 5);
        let mut b = s(1, 100.0 + 1e-9, 5);
        assert!(a.approx_eq(&b, 1e-10));
        b.tcells_tissue = 6;
        assert!(!a.approx_eq(&b, 1e-10));
        let c = s(1, 101.0, 5);
        assert!(!a.approx_eq(&c, 1e-10));
    }

    #[test]
    fn peak_and_series() {
        let mut ts = TimeSeries::default();
        for (i, v) in [1.0, 5.0, 3.0].iter().enumerate() {
            ts.push(s(i as u64, *v, i as u64));
        }
        assert_eq!(ts.peak(Metric::Virions), 5.0);
        assert_eq!(ts.peak(Metric::TCellsTissue), 2.0);
        assert_eq!(ts.series(Metric::Virions), vec![1.0, 5.0, 3.0]);
        assert_eq!(ts.len(), 3);
    }

    #[test]
    fn mean_std_basic() {
        let (m, sd) = mean_std(&[2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0]);
        assert!((m - 5.0).abs() < 1e-12);
        assert!((sd - 2.0).abs() < 1e-12);
        assert_eq!(mean_std(&[]), (0.0, 0.0));
    }

    #[test]
    fn percent_agreement_examples() {
        assert_eq!(percent_agreement(0.0, 0.0), 100.0);
        assert!((percent_agreement(100.0, 99.0) - 99.0).abs() < 1e-9);
        assert!((percent_agreement(99.0, 100.0) - 99.0).abs() < 1e-9);
        assert_eq!(percent_agreement(1.0, 0.0), 0.0);
    }

    #[test]
    fn envelope_bands() {
        let mk = |vals: &[f64]| TimeSeries {
            steps: vals
                .iter()
                .enumerate()
                .map(|(i, &v)| s(i as u64, v, 0))
                .collect(),
        };
        let runs = vec![mk(&[1.0, 2.0]), mk(&[3.0, 0.0])];
        let env = envelope(&runs, Metric::Virions);
        assert_eq!(env.len(), 2);
        assert_eq!(env[0], (1.0, 2.0, 3.0));
        assert_eq!(env[1], (0.0, 1.0, 2.0));
    }

    #[test]
    #[should_panic]
    fn envelope_rejects_ragged_runs() {
        let a = TimeSeries {
            steps: vec![s(0, 1.0, 0)],
        };
        let b = TimeSeries { steps: vec![] };
        envelope(&[a, b], Metric::Virions);
    }
}
