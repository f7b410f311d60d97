//! # simcov-bench — the experiment harness
//!
//! Regenerates every table and figure of the SIMCoV-GPU paper's evaluation
//! (see the per-experiment index in DESIGN.md) through one binary:
//! `repro_all` runs them all, `repro_all SECTION...` the ones named — `table1`
//! (configurations), `fig4` (optimization breakdown), `fig5` (correctness
//! series), `table2` (peak agreement), `fig6` (strong scaling), `fig7` (weak
//! scaling), `fig8` (FOI scaling). Four more sections run only when named:
//! `fault_sweep`, `sdc_sweep`, `ablation_tiles` and `ablation_decomp` (see
//! [`sweeps`]).
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
pub mod sweeps;

pub use configs::{paper, Experiment, MachineConfig, ScaledExperiment};
pub use runner::{run_cpu, run_gpu, RunOutput};
