//! ABFT-style integrity auditing: seals and invariant audits that detect
//! silent data corruption in rank-resident state.
//!
//! Batch CRCs (in `pgas::mailbox`) cover data *in flight*; this module
//! covers data *at rest*. Two detectors, ordered by cost and coverage:
//!
//! 1. **Seal scrub** — a CRC-64 over the canonical world + vascular pool,
//!    taken at the end of every step ([`IntegrityMonitor::reseal`]) and
//!    verified at the start of the next ([`IntegrityMonitor::scrub`])
//!    *before* compute consumes the state. Any bit flip between supersteps
//!    is caught with detection latency of exactly one step boundary.
//! 2. **Invariant audit** — algorithm-based fault tolerance in the SIMCoV
//!    model's own terms, run every [`IntegrityMonitor::audit_period`] steps:
//!    virion/chemokine fields must be finite and non-negative, chemokine
//!    saturates at 1.0 (production clamps and diffusion is a convex
//!    relaxation, so the bound is invariant), epithelial state bytes stay in
//!    the enum's range, and the vascular pool's cohorts must sum exactly to
//!    its cached total. The audit is independent of the seal: it also
//!    catches *logic* corruption the CRC would faithfully reseal.
//!
//! Mass balance is deliberately **not** audited: SIMCoV's diffusion is a
//! relaxation toward the neighbor mean, not a conservative flux form, so
//! total virion mass legitimately changes every step.
//!
//! Violations are typed ([`IntegrityViolation`]); the driver maps them into
//! the tiered recovery ladder (rollback to the last *verified* checkpoint).

use crate::checkpoint::write_state;
use crate::epithelial::EpiState;
use crate::exact::BinnedSum;
use crate::tcell::VascularPool;
use crate::world::World;
use pgas::Crc64;

/// Default audit cadence (steps between invariant audits). Scrubbing
/// happens every step regardless; the audit is the expensive sweep.
pub const DEFAULT_AUDIT_PERIOD: u64 = 16;

/// A detected integrity violation in rank-resident state.
#[derive(Debug, Clone, PartialEq)]
pub enum IntegrityViolation {
    /// The state CRC no longer matches the seal taken last step.
    SealMismatch { expected: u64, got: u64 },
    /// A field value is NaN or infinite.
    NonFinite { field: &'static str, index: usize },
    /// A concentration went negative.
    Negative { field: &'static str, index: usize },
    /// Chemokine escaped its saturation bound of 1.0.
    AboveSaturation { index: usize, value: f32 },
    /// An epithelial state byte outside the enum's range.
    BadEpiState { index: usize, byte: u8 },
    /// The vascular pool's cohorts do not sum to its cached total.
    CohortSumMismatch { claimed: u64, total: u64 },
    /// The vascular pool's fractional carry is not finite.
    BadCarry,
}

impl std::fmt::Display for IntegrityViolation {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            IntegrityViolation::SealMismatch { expected, got } => write!(
                f,
                "state seal mismatch: expected {expected:#018x}, got {got:#018x}"
            ),
            IntegrityViolation::NonFinite { field, index } => {
                write!(f, "non-finite {field} at voxel {index}")
            }
            IntegrityViolation::Negative { field, index } => {
                write!(f, "negative {field} at voxel {index}")
            }
            IntegrityViolation::AboveSaturation { index, value } => {
                write!(f, "chemokine {value} above saturation at voxel {index}")
            }
            IntegrityViolation::BadEpiState { index, byte } => {
                write!(f, "invalid epithelial state byte {byte} at voxel {index}")
            }
            IntegrityViolation::CohortSumMismatch { claimed, total } => write!(
                f,
                "vascular cohorts sum to {claimed}, cached total says {total}"
            ),
            IntegrityViolation::BadCarry => write!(f, "non-finite vascular carry"),
        }
    }
}

impl std::error::Error for IntegrityViolation {}

/// CRC-64 over the complete resumable state (world + pool), bit-exact:
/// the digest of exactly the bytes [`write_state`] puts into a checkpoint
/// blob after its step counter.
pub fn crc_state(world: &World, pool: &VascularPool) -> u64 {
    let mut crc = Crc64::new();
    write_state(&mut crc, world, pool);
    crc.finish()
}

/// CRC-64 sealing a run snapshot: the step counter plus [`crc_state`].
/// Used as the per-generation seal in the checkpoint store.
pub fn crc_run(step: u64, world: &World, pool: &VascularPool) -> u64 {
    let mut crc = Crc64::new();
    crc.write_u64(step);
    crc.write_u64(crc_state(world, pool));
    crc.finish()
}

/// Model-level totals computed by a passing audit — a free by-product of
/// the sweep, handy for cross-checking against step statistics.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct AuditReport {
    pub virions: f64,
    pub chemokine: f64,
    pub tcells_tissue: u64,
    pub circulating: u64,
}

/// Seal-and-audit state machine for one run's canonical state.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct IntegrityMonitor {
    /// Steps between invariant audits; 0 disables auditing (scrubs still
    /// run whenever a seal is present).
    pub audit_period: u64,
    seal: Option<u64>,
    /// Seal verifications performed.
    pub scrubs_run: u64,
    /// Invariant audits performed.
    pub audits_run: u64,
    /// Violations detected (scrub + audit).
    pub violations: u64,
}

impl IntegrityMonitor {
    pub fn new(audit_period: u64) -> Self {
        IntegrityMonitor {
            audit_period,
            ..Default::default()
        }
    }

    /// The current seal, if one has been taken.
    pub fn seal(&self) -> Option<u64> {
        self.seal
    }

    /// Take a fresh seal over the state as it stands.
    pub fn reseal(&mut self, world: &World, pool: &VascularPool) {
        self.seal = Some(crc_state(world, pool));
    }

    /// Verify the state against the last seal. A no-op until the first
    /// [`reseal`](Self::reseal).
    pub fn scrub(&mut self, world: &World, pool: &VascularPool) -> Result<(), IntegrityViolation> {
        let Some(expected) = self.seal else {
            return Ok(());
        };
        self.scrubs_run += 1;
        let got = crc_state(world, pool);
        if got != expected {
            self.violations += 1;
            return Err(IntegrityViolation::SealMismatch { expected, got });
        }
        Ok(())
    }

    /// Should the invariant audit run at this step?
    pub fn audit_due(&self, step: u64) -> bool {
        self.audit_period > 0 && step.is_multiple_of(self.audit_period)
    }

    /// Sweep the state for model-invariant violations. Values are verified
    /// *before* they feed the exact accumulators, so a corrupt NaN is
    /// reported as a violation rather than tripping internal assertions.
    pub fn audit(
        &mut self,
        world: &World,
        pool: &VascularPool,
    ) -> Result<AuditReport, IntegrityViolation> {
        self.audits_run += 1;
        let mut virions = BinnedSum::new();
        let mut chemokine = BinnedSum::new();
        let mut tcells_tissue = 0u64;
        for i in 0..world.nvoxels() {
            let v = world.virions.get(i);
            if !v.is_finite() {
                self.violations += 1;
                return Err(IntegrityViolation::NonFinite {
                    field: "virions",
                    index: i,
                });
            }
            if v < 0.0 {
                self.violations += 1;
                return Err(IntegrityViolation::Negative {
                    field: "virions",
                    index: i,
                });
            }
            let c = world.chemokine.get(i);
            if !c.is_finite() {
                self.violations += 1;
                return Err(IntegrityViolation::NonFinite {
                    field: "chemokine",
                    index: i,
                });
            }
            if c < 0.0 {
                self.violations += 1;
                return Err(IntegrityViolation::Negative {
                    field: "chemokine",
                    index: i,
                });
            }
            if c > 1.0 {
                self.violations += 1;
                return Err(IntegrityViolation::AboveSaturation { index: i, value: c });
            }
            let b = world.epi.state[i];
            if b > EpiState::Dead as u8 {
                self.violations += 1;
                return Err(IntegrityViolation::BadEpiState { index: i, byte: b });
            }
            virions.add(v);
            chemokine.add(c);
            if world.tcells[i].occupied() {
                tcells_tissue += 1;
            }
        }
        let (cohorts, carry, total) = pool.snapshot();
        if !carry.is_finite() {
            self.violations += 1;
            return Err(IntegrityViolation::BadCarry);
        }
        let claimed = cohorts
            .iter()
            .try_fold(0u64, |acc, c| acc.checked_add(c.count))
            .ok_or(IntegrityViolation::CohortSumMismatch {
                claimed: u64::MAX,
                total,
            })
            .inspect_err(|_| self.violations += 1)?;
        if claimed != total {
            self.violations += 1;
            return Err(IntegrityViolation::CohortSumMismatch { claimed, total });
        }
        Ok(AuditReport {
            virions: virions.sum().to_f64(),
            chemokine: chemokine.sum().to_f64(),
            tcells_tissue,
            circulating: total,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::grid::GridDims;
    use crate::params::SimParams;
    use crate::serial::SerialSim;

    fn sim() -> SerialSim {
        let p = SimParams::test_config(GridDims::new2d(24, 24), 60, 3, 17);
        SerialSim::new(p)
    }

    #[test]
    fn scrub_passes_on_sealed_state_and_catches_any_flip() {
        let mut s = sim();
        for _ in 0..10 {
            s.advance_step();
        }
        let mut mon = IntegrityMonitor::new(DEFAULT_AUDIT_PERIOD);
        // No seal yet: scrub is vacuous.
        assert!(mon.scrub(&s.world, &s.pool).is_ok());
        assert_eq!(mon.scrubs_run, 0);
        mon.reseal(&s.world, &s.pool);
        assert!(mon.scrub(&s.world, &s.pool).is_ok());

        // A single bit flip anywhere in any field must break the seal.
        let v = s.world.virions.get(7);
        s.world.virions.set(7, f32::from_bits(v.to_bits() ^ 1));
        let err = mon.scrub(&s.world, &s.pool).unwrap_err();
        assert!(matches!(err, IntegrityViolation::SealMismatch { .. }));
        assert_eq!(mon.violations, 1);

        // Healing the flip restores the seal.
        s.world.virions.set(7, v);
        assert!(mon.scrub(&s.world, &s.pool).is_ok());
    }

    #[test]
    fn audit_never_false_positives_on_a_live_run() {
        let mut s = sim();
        let mut mon = IntegrityMonitor::new(1);
        for step in 0..60 {
            assert!(mon.audit_due(step));
            let rep = mon
                .audit(&s.world, &s.pool)
                .unwrap_or_else(|e| panic!("false positive at step {step}: {e}"));
            assert!(rep.virions >= 0.0 && rep.chemokine >= 0.0);
            s.advance_step();
        }
        assert_eq!(mon.audits_run, 60);
        assert_eq!(mon.violations, 0);
    }

    fn advanced() -> SerialSim {
        let mut s = sim();
        for _ in 0..5 {
            s.advance_step();
        }
        s
    }

    #[test]
    fn audit_catches_each_invariant_violation() {
        let mut mon = IntegrityMonitor::new(1);

        let mut s = advanced();
        s.world.virions.set(3, f32::NAN);
        assert!(matches!(
            mon.audit(&s.world, &s.pool).unwrap_err(),
            IntegrityViolation::NonFinite {
                field: "virions",
                index: 3
            }
        ));

        let mut s = advanced();
        s.world.virions.set(4, -1.0);
        assert!(matches!(
            mon.audit(&s.world, &s.pool).unwrap_err(),
            IntegrityViolation::Negative {
                field: "virions",
                index: 4
            }
        ));

        let mut s = advanced();
        s.world.chemokine.set(5, 2.5);
        assert!(matches!(
            mon.audit(&s.world, &s.pool).unwrap_err(),
            IntegrityViolation::AboveSaturation { index: 5, .. }
        ));

        let mut s = advanced();
        s.world.epi.state[6] = 99;
        assert!(matches!(
            mon.audit(&s.world, &s.pool).unwrap_err(),
            IntegrityViolation::BadEpiState { index: 6, byte: 99 }
        ));

        // A DRAM flip in the cached total (fields are crate-visible so the
        // test can model post-construction corruption).
        let mut s = advanced();
        s.pool.total ^= 1 << 7;
        assert!(matches!(
            mon.audit(&s.world, &s.pool).unwrap_err(),
            IntegrityViolation::CohortSumMismatch { .. }
        ));

        let mut s = advanced();
        s.pool.carry = f64::NAN;
        assert!(matches!(
            mon.audit(&s.world, &s.pool).unwrap_err(),
            IntegrityViolation::BadCarry
        ));

        assert_eq!(mon.violations, 6);
    }

    #[test]
    fn crc_run_distinguishes_step_and_state() {
        let s = sim();
        let a = crc_run(0, &s.world, &s.pool);
        let b = crc_run(1, &s.world, &s.pool);
        assert_ne!(a, b, "seal must bind the step counter");
        assert_eq!(a, crc_run(0, &s.world, &s.pool), "seal is deterministic");
    }

    #[test]
    fn audit_cadence() {
        let mon = IntegrityMonitor::new(16);
        assert!(mon.audit_due(0));
        assert!(!mon.audit_due(1));
        assert!(mon.audit_due(16));
        assert!(mon.audit_due(32));
        let off = IntegrityMonitor::new(0);
        assert!(!off.audit_due(0));
        assert!(!off.audit_due(16));
    }
}
