//! # simcov-bench — the experiment harness
//!
//! Regenerates every table and figure of the SIMCoV-GPU paper's evaluation
//! (see the per-experiment index in DESIGN.md):
//!
//! | artifact | binary |
//! |---|---|
//! | Table 1 (configurations)      | `table1_configs` |
//! | Fig 4 (optimization breakdown)| `fig4_breakdown` |
//! | Fig 5 (correctness series)    | `fig5_correctness` |
//! | Table 2 (peak agreement)      | `table2_agreement` |
//! | Fig 6 (strong scaling)        | `fig6_strong` |
//! | Fig 7 (weak scaling)          | `fig7_weak` |
//! | Fig 8 (FOI scaling)           | `fig8_foi` |
//! | everything                    | `repro_all` |
//!
//! Runs execute at a reduced linear scale (default 32; `SIMCOV_SCALE=16`
//! for a closer but slower reproduction) and are extrapolated to the
//! paper's configuration through the scale-similarity rules in
//! `gpusim::counters` before the cost model converts measured work into
//! simulated seconds on the paper's hardware.

pub mod cli;
pub mod configs;
pub mod experiments;
pub mod json;
pub mod microbench;
pub mod report;
pub mod runner;

pub use cli::CommonFlags;
pub use configs::{paper, Experiment, MachineConfig, ScaledExperiment};
pub use runner::{run_cpu, run_gpu, RunOutput};
