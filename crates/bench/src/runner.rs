//! Run scaled experiments and convert measured work into simulated seconds
//! at paper scale.

use gpusim::{CostBreakdown, CostModel};
use pgas::CommCounters;
use simcov_core::params::SimParams;
use simcov_core::stats::TimeSeries;
use simcov_cpu::{CpuSim, CpuSimConfig};
use simcov_driver::Simulation;
use simcov_gpu::{max_device_link, GpuKnobs, GpuSim, GpuSimConfig, GpuVariant};

/// Result of one executor run, extrapolated to paper scale.
#[derive(Debug, Clone)]
pub struct RunOutput {
    pub label: String,
    /// Simulated runtime at paper scale (seconds).
    pub seconds: f64,
    /// Compute-side breakdown of the busiest device/rank.
    pub breakdown: CostBreakdown,
    /// Communication time (links + collectives).
    pub comm_seconds: f64,
    /// Per-step statistics of the scaled run.
    pub history: TimeSeries,
}

/// Scale extrapolation of runtime communication counters. Per-event RPCs
/// (T-cell boundary crossings) scale with the boundary per step (× s) over
/// × s more steps; bulk puts happen once per (neighbor, wave, step), so
/// their *count* scales only with steps while their *bytes* scale with the
/// boundary; collectives are once per step.
fn extrapolate_comm(cc: &CommCounters, s: f64) -> CommCounters {
    let f = |v: u64, k: f64| (v as f64 * k).round() as u64;
    CommCounters {
        supersteps: f(cc.supersteps, s),
        messages: f(cc.messages, s * s),
        bytes: f(cc.bytes, s * s),
        bulk_messages: f(cc.bulk_messages, s),
        bulk_bytes: f(cc.bulk_bytes, s * s),
        // Batches happen once per (src, dst, superstep) like bulk puts;
        // their bytes scale with the boundary.
        batches: f(cc.batches, s),
        batch_bytes: f(cc.batch_bytes, s * s),
        allreduces: f(cc.allreduces, s),
        allreduce_bytes: f(cc.allreduce_bytes, s),
        max_rank_messages: f(cc.max_rank_messages, s),
        max_rank_bytes: f(cc.max_rank_bytes, s),
        // Fault metering does not scale with the domain: injected events
        // fire a fixed schedule regardless of grid size.
        stalls: cc.stalls,
        stall_ns: cc.stall_ns,
        duplicates_suppressed: cc.duplicates_suppressed,
        dropped_messages: cc.dropped_messages,
        shuffled_inboxes: cc.shuffled_inboxes,
        // Integrity digests cover every batch byte, so checksum traffic
        // scales with the boundary like batch bytes; corruption events
        // fire a fixed schedule.
        integrity_bytes: f(cc.integrity_bytes, s * s),
        corruptions_landed: cc.corruptions_landed,
        corrupt_batches: cc.corrupt_batches,
        retransmits: cc.retransmits,
    }
}

/// Run SIMCoV-GPU on `n_devices` simulated devices and extrapolate by the
/// linear `scale`.
pub fn run_gpu(params: SimParams, n_devices: usize, variant: GpuVariant, scale: u32) -> RunOutput {
    let steps = params.steps;
    let knobs = GpuKnobs {
        variant,
        ..GpuKnobs::default()
    };
    let mut sim = GpuSim::new(GpuSimConfig::new(params, n_devices).with_exec(knobs))
        .expect("valid bench config");
    sim.run().expect("healthy bench run");
    let model = CostModel::default();
    let s = scale as f64;

    let maxdev = sim.max_unit_counters().extrapolate(s);
    let breakdown = model.device_breakdown(&model.gpu, &maxdev);
    let link = max_device_link(&sim.units).extrapolate(s);
    let link_t = model.link_time(
        link.intra_msgs,
        link.intra_bytes,
        link.inter_msgs,
        link.inter_bytes,
    );
    let paper_steps = (steps as f64 * s).round() as u64;
    let collective_t = model.gpu_collective_time(paper_steps, n_devices);
    let sync_t = model.gpu_multinode_sync_time(paper_steps, n_devices);
    let comm_seconds = link_t + collective_t + sync_t;
    RunOutput {
        label: format!("SIMCoV-GPU[{}] x{n_devices}", variant.name()),
        seconds: breakdown.total() + comm_seconds,
        breakdown,
        comm_seconds,
        history: sim.history().clone(),
    }
}

/// Run the SIMCoV-CPU baseline on `n_ranks` logical ranks and extrapolate.
pub fn run_cpu(params: SimParams, n_ranks: usize, scale: u32) -> RunOutput {
    let mut sim = CpuSim::new(CpuSimConfig::new(params, n_ranks)).expect("valid bench config");
    sim.run().expect("healthy bench run");
    let model = CostModel::default();
    let s = scale as f64;

    let maxrank = sim.max_unit_counters().extrapolate(s);
    let breakdown = model.device_breakdown(&model.cpu, &maxrank);
    let comm = extrapolate_comm(&sim.comm_counters(), s);
    let comm_seconds = model.rpc_comm_time(&comm, n_ranks);
    RunOutput {
        label: format!("SIMCoV-CPU x{n_ranks}"),
        seconds: breakdown.total() + comm_seconds,
        breakdown,
        comm_seconds,
        history: sim.history().clone(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::configs::{paper, ScaledExperiment};

    #[test]
    fn gpu_beats_cpu_at_base_config() {
        // A fast sanity check at heavy reduction scale: the strong-scaling
        // base case must favor the GPU by a healthy factor.
        let se = ScaledExperiment::new(paper::CORRECTNESS, 128, 1);
        let gpu = run_gpu(se.params.clone(), 4, GpuVariant::Combined, 128);
        let cpu = run_cpu(se.params, 128, 128);
        assert!(gpu.seconds > 0.0 && cpu.seconds > 0.0);
        let speedup = cpu.seconds / gpu.seconds;
        assert!(
            speedup > 1.5,
            "expected a clear GPU advantage at the base config, got {speedup:.2}x \
             (gpu {:.1}s vs cpu {:.1}s)",
            gpu.seconds,
            cpu.seconds
        );
    }

    #[test]
    fn combined_variant_is_fastest() {
        let se = ScaledExperiment::new(paper::CORRECTNESS, 128, 1);
        let mut totals = Vec::new();
        for v in GpuVariant::ALL {
            let out = run_gpu(se.params.clone(), 4, v, 128);
            totals.push((v, out.seconds));
        }
        let combined = totals
            .iter()
            .find(|(v, _)| *v == GpuVariant::Combined)
            .unwrap()
            .1;
        let unopt = totals
            .iter()
            .find(|(v, _)| *v == GpuVariant::Unoptimized)
            .unwrap()
            .1;
        assert!(
            combined < unopt,
            "combined ({combined:.2}s) must beat unoptimized ({unopt:.2}s)"
        );
    }
}
