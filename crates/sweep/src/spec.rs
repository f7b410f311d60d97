//! [`RunSpec`]: the single validated, JSON-round-trippable description of
//! one simulation run.
//!
//! A `RunSpec` is the one schema all three executors construct from: it
//! resolves to the shared [`RunConfig`] through a single `to_config` path
//! (the serial driver takes the parameters alone) — and because it
//! round-trips through [`simcov_core::json`], it doubles as the
//! job-submission wire format of the sweep server: the CLI, the server and
//! in-process embedders share one parse/validate path returning typed
//! [`ConfigError`]s.

use pgas::fault::{FaultPlan, FaultRates};
use pgas::WorkPool;
use simcov_core::decomp::Strategy;
use simcov_core::foi::FoiPattern;
use simcov_core::grid::GridDims;
use simcov_core::json::Json;
use simcov_core::params::SimParams;
use simcov_cpu::CpuSim;
use simcov_driver::{ConfigError, RecoveryPolicy, RunConfig, SerialDriver, Simulation};
use simcov_gpu::{GpuKnobs, GpuSim, GpuVariant};
use std::sync::Arc;

/// Which executor runs the spec.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ExecutorKind {
    /// Single-threaded reference executor (no fault surface).
    Serial,
    /// BSP rank executor.
    #[default]
    Cpu,
    /// Simulated multi-device GPU executor.
    Gpu,
}

impl ExecutorKind {
    /// Stable lowercase name, matching `Simulation::name`.
    pub fn name(self) -> &'static str {
        match self {
            ExecutorKind::Serial => "serial",
            ExecutorKind::Cpu => "cpu",
            ExecutorKind::Gpu => "gpu",
        }
    }

    fn parse(s: &str) -> Result<Self, ConfigError> {
        match s {
            "serial" => Ok(ExecutorKind::Serial),
            "cpu" => Ok(ExecutorKind::Cpu),
            "gpu" => Ok(ExecutorKind::Gpu),
            other => Err(ConfigError::InvalidParams(format!(
                "unknown executor {other:?} (serial|cpu|gpu)"
            ))),
        }
    }

    /// BSP supersteps per simulation step — the factor converting a step
    /// count into the fault-plan horizon for this executor.
    pub fn supersteps_per_step(self) -> u64 {
        match self {
            ExecutorKind::Serial => 0,
            ExecutorKind::Cpu => 3,
            ExecutorKind::Gpu => 2,
        }
    }
}

/// How the model parameters are derived from the spec's scalar knobs.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ParamPreset {
    /// Paper defaults ([`SimParams::default`]) with dims/steps/foci/seed
    /// overridden.
    #[default]
    Paper,
    /// Fast-dynamics test calibration ([`SimParams::test_config`]) — what
    /// the benches and sweeps run on small grids.
    Test,
}

impl ParamPreset {
    fn name(self) -> &'static str {
        match self {
            ParamPreset::Paper => "paper",
            ParamPreset::Test => "test",
        }
    }

    fn parse(s: &str) -> Result<Self, ConfigError> {
        match s {
            "paper" => Ok(ParamPreset::Paper),
            "test" => Ok(ParamPreset::Test),
            other => Err(ConfigError::InvalidParams(format!(
                "unknown preset {other:?} (paper|test)"
            ))),
        }
    }
}

/// Seeded fault-injection rates for a run — the serializable face of
/// [`FaultPlan::seeded`]. The horizon is derived from the executor's
/// superstep count, never stored.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct FaultSpec {
    /// Seed of the fault sampler (independent of the model seed).
    pub seed: u64,
    pub rates: FaultRates,
}

/// One validated description of a simulation run, buildable on any executor
/// and round-trippable through JSON.
#[derive(Debug, Clone, PartialEq)]
pub struct RunSpec {
    pub executor: ExecutorKind,
    /// Execution units: ranks (cpu) or devices (gpu); ignored by serial.
    pub units: usize,
    pub dims: GridDims,
    pub steps: u64,
    /// Foci of infection seeded at t=0.
    pub num_foi: u32,
    /// Master model seed.
    pub seed: u64,
    pub preset: ParamPreset,
    pub strategy: Strategy,
    pub pattern: FoiPattern,
    /// GPU-only knobs (ignored elsewhere).
    pub gpu: GpuKnobs,
    // --- resilience ---
    pub fault: Option<FaultSpec>,
    pub recovery: Option<RecoveryPolicy>,
    pub audit_period: Option<u64>,
    pub retransmit_budget: Option<u64>,
}

impl RunSpec {
    /// A spec for `executor` on the test calibration — the shape every
    /// sweep cell uses.
    pub fn test(
        executor: ExecutorKind,
        dims: GridDims,
        steps: u64,
        num_foi: u32,
        seed: u64,
    ) -> Self {
        RunSpec {
            executor,
            units: 4,
            dims,
            steps,
            num_foi,
            seed,
            preset: ParamPreset::Test,
            strategy: Strategy::Blocks,
            pattern: FoiPattern::UniformLattice,
            gpu: GpuKnobs::default(),
            fault: None,
            recovery: None,
            audit_period: None,
            retransmit_budget: None,
        }
    }

    pub fn with_units(mut self, units: usize) -> Self {
        self.units = units;
        self
    }

    pub fn with_fault(mut self, fault: FaultSpec) -> Self {
        self.fault = Some(fault);
        self
    }

    pub fn with_recovery(mut self, recovery: RecoveryPolicy) -> Self {
        self.recovery = Some(recovery);
        self
    }

    /// The model parameters this spec resolves to.
    pub fn params(&self) -> SimParams {
        match self.preset {
            ParamPreset::Test => {
                SimParams::test_config(self.dims, self.steps, self.num_foi, self.seed)
            }
            ParamPreset::Paper => SimParams {
                dims: self.dims,
                steps: self.steps,
                num_foi: self.num_foi,
                seed: self.seed,
                ..SimParams::default()
            },
        }
    }

    /// The seeded fault plan this spec arms (empty when `fault` is unset).
    /// The horizon covers every superstep of the run on this executor.
    pub fn fault_plan(&self) -> FaultPlan {
        match &self.fault {
            None => FaultPlan::none(),
            Some(f) => FaultPlan::seeded(
                f.seed,
                &f.rates,
                self.units,
                self.steps * self.executor.supersteps_per_step(),
            ),
        }
    }

    /// Validate every knob without building anything, using the same typed
    /// errors construction would surface.
    pub fn validate(&self) -> Result<(), ConfigError> {
        self.params()
            .validate()
            .map_err(ConfigError::InvalidParams)?;
        if self.executor != ExecutorKind::Serial && self.units == 0 {
            return Err(ConfigError::ZeroUnits);
        }
        if self.executor == ExecutorKind::Gpu {
            self.gpu.validate()?;
        }
        Ok(())
    }

    /// The executor config for this spec — the single path from the
    /// submission schema to a [`RunConfig`]; `exec` is the executor's tail.
    pub fn to_config<X: Default>(&self, exec: X) -> RunConfig<X> {
        RunConfig {
            strategy: self.strategy,
            pattern: self.pattern,
            fault_plan: self.fault_plan(),
            recovery: self.recovery,
            audit_period: self.audit_period,
            retransmit_budget: self.retransmit_budget,
            exec,
            ..RunConfig::new(self.params(), self.units)
        }
    }

    /// Build the simulation behind the unified driver API.
    pub fn build(&self) -> Result<Box<dyn Simulation>, ConfigError> {
        match self.executor {
            ExecutorKind::Serial => Ok(Box::new(SerialDriver::with_pattern(
                self.params(),
                self.pattern,
            )?)),
            ExecutorKind::Cpu => Ok(Box::new(CpuSim::new(self.to_config(()))?)),
            ExecutorKind::Gpu => Ok(Box::new(GpuSim::new(self.to_config(self.gpu))?)),
        }
    }

    /// Build with intra-step parallelism pointed at a shared pool (the
    /// sweep server's path: many concurrent jobs, one pool).
    pub fn build_with_pool(&self, pool: Arc<WorkPool>) -> Result<Box<dyn Simulation>, ConfigError> {
        let mut sim = self.build()?;
        sim.share_pool(pool);
        Ok(sim)
    }

    /// Serialize to the submission schema. Optional knobs are omitted when
    /// unset, so documents stay minimal and defaults stay upgradeable.
    pub fn to_json(&self) -> Json {
        let mut doc = Json::Obj(Vec::new());
        doc.push("executor", self.executor.name());
        doc.push("units", self.units as u64);
        doc.push(
            "dims",
            vec![self.dims.x as u64, self.dims.y as u64, self.dims.z as u64],
        );
        doc.push("steps", self.steps);
        doc.push("num_foi", self.num_foi);
        doc.push("seed", self.seed);
        doc.push("preset", self.preset.name());
        doc.push(
            "strategy",
            match self.strategy {
                Strategy::Linear => "linear",
                Strategy::Blocks => "blocks",
            },
        );
        match self.pattern {
            FoiPattern::UniformLattice => doc.push("pattern", "uniform"),
            FoiPattern::Random => doc.push("pattern", "random"),
            FoiPattern::CtLesions { clusters, radius } => {
                let mut p = Json::Obj(Vec::new());
                p.push("clusters", clusters);
                p.push("radius", radius);
                doc.push("ct_lesions", p);
            }
        }
        if self.executor == ExecutorKind::Gpu {
            doc.push(
                "variant",
                match self.gpu.variant {
                    GpuVariant::Unoptimized => "unoptimized",
                    GpuVariant::FastReduction => "fast_reduction",
                    GpuVariant::MemoryTiling => "memory_tiling",
                    GpuVariant::Combined => "combined",
                },
            );
            doc.push("tile_side", self.gpu.tile_side as u64);
            if let Some(p) = self.gpu.check_period {
                doc.push("check_period", p);
            }
            doc.push("devices_per_node", self.gpu.devices_per_node as u64);
        }
        if let Some(f) = &self.fault {
            let mut fj = Json::Obj(Vec::new());
            fj.push("seed", f.seed);
            fj.push("death", f.rates.death);
            fj.push("drop", f.rates.drop);
            fj.push("duplicate", f.rates.duplicate);
            fj.push("stall", f.rates.stall);
            fj.push("stall_ns", f.rates.stall_ns);
            fj.push("payload_corruption", f.rates.payload_corruption);
            fj.push("state_corruption", f.rates.state_corruption);
            doc.push("fault", fj);
        }
        if let Some(r) = &self.recovery {
            let mut rj = Json::Obj(Vec::new());
            rj.push("checkpoint_period", r.checkpoint_period);
            rj.push("max_retries", r.max_retries);
            rj.push("backoff_base_ns", r.backoff_base_ns);
            doc.push("recovery", rj);
        }
        if let Some(p) = self.audit_period {
            doc.push("audit_period", p);
        }
        if let Some(b) = self.retransmit_budget {
            doc.push("retransmit_budget", b);
        }
        doc
    }

    /// Parse (and validate) a submission document. Every malformed field is
    /// a typed [`ConfigError`] naming the field.
    pub fn from_json(doc: &Json) -> Result<Self, ConfigError> {
        let str_field = |key: &str| -> Result<Option<&str>, ConfigError> {
            match doc.get(key) {
                None => Ok(None),
                Some(v) => v
                    .as_str()
                    .map(Some)
                    .ok_or_else(|| bad(&format!("field {key:?} must be a string"))),
            }
        };

        let executor = match str_field("executor")? {
            Some(s) => ExecutorKind::parse(s)?,
            None => ExecutorKind::default(),
        };
        let dim = |i: usize, v: &Json| int_value::<u32>(v, || format!("dims[{i}]"));
        let dims = match doc.get("dims").and_then(|d| d.as_arr()) {
            Some([x, y]) => GridDims::new2d(dim(0, x)?, dim(1, y)?),
            Some([x, y, z]) => GridDims {
                x: dim(0, x)?,
                y: dim(1, y)?,
                z: dim(2, z)?,
            },
            _ => return Err(bad("field \"dims\" must be [x, y] or [x, y, z]")),
        };
        let mut spec = RunSpec::test(
            executor,
            dims,
            required_int(doc, "", "steps")?,
            required_int(doc, "", "num_foi")?,
            int_field(doc, "", "seed")?.unwrap_or(0),
        );
        spec.units = int_field(doc, "", "units")?.unwrap_or(4);
        spec.preset = match str_field("preset")? {
            Some(s) => ParamPreset::parse(s)?,
            None => ParamPreset::Test,
        };
        spec.strategy = match str_field("strategy")? {
            None | Some("blocks") => Strategy::Blocks,
            Some("linear") => Strategy::Linear,
            Some(other) => return Err(bad(&format!("unknown strategy {other:?} (linear|blocks)"))),
        };
        spec.pattern = if let Some(ct) = doc.get("ct_lesions") {
            FoiPattern::CtLesions {
                clusters: required_int(ct, "ct_lesions.", "clusters")?,
                radius: required_int(ct, "ct_lesions.", "radius")?,
            }
        } else {
            match str_field("pattern")? {
                None | Some("uniform") => FoiPattern::UniformLattice,
                Some("random") => FoiPattern::Random,
                Some(other) => {
                    return Err(bad(&format!("unknown pattern {other:?} (uniform|random)")))
                }
            }
        };
        spec.gpu.variant = match str_field("variant")? {
            None | Some("combined") => GpuVariant::Combined,
            Some("unoptimized") => GpuVariant::Unoptimized,
            Some("fast_reduction") => GpuVariant::FastReduction,
            Some("memory_tiling") => GpuVariant::MemoryTiling,
            Some(other) => return Err(bad(&format!("unknown variant {other:?}"))),
        };
        if let Some(v) = int_field(doc, "", "tile_side")? {
            spec.gpu.tile_side = v;
        }
        spec.gpu.check_period = int_field(doc, "", "check_period")?;
        if let Some(v) = int_field(doc, "", "devices_per_node")? {
            spec.gpu.devices_per_node = v;
        }
        if let Some(f) = doc.get("fault") {
            let rate = |key: &str| -> Result<f64, ConfigError> {
                match f.get(key) {
                    None => Ok(0.0),
                    Some(v) => v
                        .as_f64()
                        .ok_or_else(|| bad(&format!("fault.{key} must be a number"))),
                }
            };
            spec.fault = Some(FaultSpec {
                seed: int_field(f, "fault.", "seed")?.unwrap_or(0),
                rates: FaultRates {
                    death: rate("death")?,
                    drop: rate("drop")?,
                    duplicate: rate("duplicate")?,
                    stall: rate("stall")?,
                    stall_ns: int_field(f, "fault.", "stall_ns")?.unwrap_or(0),
                    payload_corruption: rate("payload_corruption")?,
                    state_corruption: rate("state_corruption")?,
                },
            });
        }
        if let Some(r) = doc.get("recovery") {
            let d = RecoveryPolicy::default();
            spec.recovery = Some(RecoveryPolicy {
                checkpoint_period: int_field(r, "recovery.", "checkpoint_period")?
                    .unwrap_or(d.checkpoint_period),
                max_retries: int_field(r, "recovery.", "max_retries")?.unwrap_or(d.max_retries),
                backoff_base_ns: int_field(r, "recovery.", "backoff_base_ns")?
                    .unwrap_or(d.backoff_base_ns),
            });
        }
        spec.audit_period = int_field(doc, "", "audit_period")?;
        spec.retransmit_budget = int_field(doc, "", "retransmit_budget")?;
        spec.validate()?;
        Ok(spec)
    }
}

fn bad(what: &str) -> ConfigError {
    ConfigError::InvalidParams(format!("RunSpec: {what}"))
}

/// `v` as an integer of type `T`: an exact non-negative integer
/// ([`Json::as_u64`]) that fits `T`. Anything else — negative, fractional,
/// beyond 2^53, out of `T`'s range, not a number — is a typed error naming
/// the field (`what` is only called to build that error); nothing is
/// clamped.
fn int_value<T: TryFrom<u64>>(v: &Json, what: impl FnOnce() -> String) -> Result<T, ConfigError> {
    v.as_u64().and_then(|n| T::try_from(n).ok()).ok_or_else(|| {
        bad(&format!(
            "field {:?} must be a non-negative integer in range",
            what()
        ))
    })
}

/// Optional integer field `key` of `obj` (see [`int_value`]); `path` prefixes
/// the field name in the error (`"fault."`, `"recovery."`).
pub(crate) fn int_field<T: TryFrom<u64>>(
    obj: &Json,
    path: &str,
    key: &str,
) -> Result<Option<T>, ConfigError> {
    obj.get(key)
        .map(|v| int_value(v, || format!("{path}{key}")))
        .transpose()
}

fn required_int<T: TryFrom<u64>>(obj: &Json, path: &str, key: &str) -> Result<T, ConfigError> {
    int_field(obj, path, key)?
        .ok_or_else(|| bad(&format!("missing required field \"{path}{key}\"")))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn full_spec() -> RunSpec {
        let mut s = RunSpec::test(ExecutorKind::Gpu, GridDims::new2d(32, 32), 40, 4, 7)
            .with_units(3)
            .with_fault(FaultSpec {
                seed: 0xFA17,
                rates: FaultRates {
                    death: 0.002,
                    drop: 0.001,
                    ..FaultRates::default()
                },
            })
            .with_recovery(RecoveryPolicy {
                checkpoint_period: 8,
                ..RecoveryPolicy::default()
            });
        s.gpu.check_period = Some(4);
        s.audit_period = Some(8);
        s.retransmit_budget = Some(2);
        s
    }

    #[test]
    fn json_round_trips_exactly() {
        let spec = full_spec();
        let doc = spec.to_json();
        let text = doc.render();
        let back = RunSpec::from_json(&Json::parse(&text).expect("parse")).expect("from_json");
        assert_eq!(back, spec);
    }

    #[test]
    fn minimal_document_fills_defaults() {
        let doc = Json::parse(r#"{"dims": [24, 24], "steps": 10, "num_foi": 2}"#).unwrap();
        let spec = RunSpec::from_json(&doc).unwrap();
        assert_eq!(spec.executor, ExecutorKind::Cpu);
        assert_eq!(spec.units, 4);
        assert_eq!(spec.preset, ParamPreset::Test);
        assert!(spec.fault.is_none());
    }

    #[test]
    fn parse_errors_are_typed_and_name_the_field() {
        let cases = [
            (r#"{"steps": 10, "num_foi": 2}"#, "dims"),
            (r#"{"dims": [8, 8], "num_foi": 2}"#, "steps"),
            (
                r#"{"dims": [8, 8], "steps": 10, "num_foi": 2, "executor": "tpu"}"#,
                "tpu",
            ),
            (
                r#"{"dims": [8, 8], "steps": 10, "num_foi": 2, "strategy": 5}"#,
                "strategy",
            ),
        ];
        for (text, needle) in cases {
            let err = RunSpec::from_json(&Json::parse(text).unwrap()).unwrap_err();
            match &err {
                ConfigError::InvalidParams(msg) => {
                    assert!(msg.contains(needle), "{msg:?} should mention {needle:?}")
                }
                other => panic!("expected InvalidParams, got {other:?}"),
            }
        }
    }

    #[test]
    fn validation_surfaces_executor_specific_errors() {
        let mut spec = RunSpec::test(ExecutorKind::Gpu, GridDims::new2d(16, 16), 10, 2, 0);
        spec.gpu.tile_side = 0;
        assert!(matches!(spec.validate(), Err(ConfigError::ZeroTileSide)));
        let mut spec = RunSpec::test(ExecutorKind::Cpu, GridDims::new2d(16, 16), 10, 2, 0);
        spec.units = 0;
        assert!(matches!(spec.validate(), Err(ConfigError::ZeroUnits)));
        let mut spec = RunSpec::test(ExecutorKind::Gpu, GridDims::new2d(16, 16), 10, 2, 0);
        spec.gpu.check_period = Some(99);
        assert!(matches!(
            spec.validate(),
            Err(ConfigError::CheckPeriodOutOfRange { .. })
        ));
    }

    #[test]
    fn builds_on_every_executor() {
        for exec in [ExecutorKind::Serial, ExecutorKind::Cpu, ExecutorKind::Gpu] {
            let spec = RunSpec::test(exec, GridDims::new2d(16, 16), 5, 2, 1).with_units(2);
            let mut sim = spec.build().expect("build");
            sim.run().expect("run");
            assert_eq!(sim.name(), exec.name());
            assert_eq!(sim.step(), 5);
        }
    }

    #[test]
    fn spec_built_config_matches_hand_built_config() {
        let spec = full_spec();
        let cfg = spec.to_config(spec.gpu);
        assert_eq!(cfg.units, 3);
        assert_eq!(cfg.exec.check_period, Some(4));
        assert_eq!(cfg.audit_period, Some(8));
        assert_eq!(cfg.retransmit_budget, Some(2));
        assert_eq!(
            cfg.recovery.map(|r| r.checkpoint_period),
            Some(8),
            "recovery policy must carry through"
        );
        assert!(!cfg.fault_plan.is_exhausted());
    }
}
