//! # simcov-core
//!
//! The SIMCoV model core: the single source of truth for the model *rules*
//! shared by every executor in this workspace (the serial reference, the
//! `simcov-cpu` active-list baseline and the `simcov-gpu` tiled multi-device
//! implementation).
//!
//! SIMCoV (Spatial Immune Model of Coronavirus, Moses et al. 2021) simulates
//! the spread of a viral infection through a 2D or 3D voxel grid of lung
//! epithelium together with the immune response: diffusing virion and
//! inflammatory-signal concentrations and mobile CD8 T-cell agents that bind
//! to and kill infected epithelial cells.
//!
//! ## Determinism
//!
//! Every stochastic draw in the model goes through the counter-based RNG in
//! [`rng`]: a hash of `(seed, stream, step, global voxel id / trial id,
//! draw#)`. This is the strong version of the determinism fix described in
//! §4.1 of the SIMCoV-GPU paper (staged T-cell movement): given a seed, the
//! trajectory is *bitwise identical* regardless of how the domain is
//! partitioned across ranks or devices. Cross-executor equality is enforced
//! by the integration tests at the workspace root.
//!
//! ## Timestep structure (paper Fig. 1C, with the §4.1 staging fix)
//!
//! 1. vascular T-cell pool update + extravasation trials ([`rules::extrav_succeeds`])
//! 2. T-cell stage: aging, bind intents, move intents with 64-bit bids
//! 3. conflict resolution: per-target `max (bid, source)` wins
//! 4. apply binds/moves
//! 5. epithelial FSM update (Poisson-drawn state periods)
//! 6. virion/chemokine production, Moore-stencil diffusion, decay
//! 7. statistics reduction

pub mod airways;
pub mod checkpoint;
pub mod config;
pub mod decomp;
pub mod diffusion;
pub mod epithelial;
pub mod exact;
pub mod extrav;
pub mod fields;
pub mod foi;
pub mod grid;
pub mod halo;
pub mod integrity;
pub mod json;
pub mod lanes;
pub mod params;
pub mod render;
pub mod rng;
pub mod rules;
pub mod serial;
pub mod soa;
pub mod stats;
pub mod tcell;
pub mod unit_grid;
pub mod world;

pub use checkpoint::{CheckpointError, CheckpointStore, RunCheckpoint};
pub use epithelial::{EpiCells, EpiState};
pub use exact::ExactSum;
pub use fields::Field;
pub use grid::{Coord, GridDims};
pub use integrity::{
    crc_run, crc_state, AuditReport, IntegrityMonitor, IntegrityViolation, DEFAULT_AUDIT_PERIOD,
};
pub use lanes::{KernelMode, LANES};
pub use params::SimParams;
pub use rng::CounterRng;
pub use serial::SerialSim;
pub use soa::{StencilDeltas, VoxelSoA};
pub use stats::{StatsPartial, StepStats, TimeSeries};
pub use tcell::{TCellSlot, VascularPool};
pub use unit_grid::UnitGrid;
pub use world::World;
