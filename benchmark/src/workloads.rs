//! The seven workloads: what each one hands to the program.
//!
//! Every input is generated here from the benchmark's `--seed`; the program
//! only ever sees the resulting `SimParams` / `FaultPlan` / `JobSpec`s. The
//! reasons for each workload live in `BENCHMARK.json` (`why`) and at length
//! in `benchmark/README.md`.

use pgas::fault::{FaultEvent, FaultKind};
use pgas::{FaultPlan, ProcessTransportConfig, SplitMix64, TransportMode};
use simcov_core::decomp::Strategy;
use simcov_core::grid::GridDims;
use simcov_core::lanes::KernelMode;
use simcov_core::params::SimParams;
use simcov_core::serial::SerialSim;
use simcov_cpu::{CpuSim, CpuSimConfig};
use simcov_driver::{RecoveryPolicy, SerialDriver, Simulation};
use simcov_gpu::{GpuSim, GpuSimConfig};
use simcov_sweep::{ExecutorKind, JobSpec, RunSpec};

/// Which executor a single-simulation workload runs on.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Exec {
    Serial,
    Cpu,
    Gpu,
}

/// Seeded faults of `cpu_faulted` with the recovery machinery that answers
/// them.
#[derive(Debug, Clone)]
pub struct Faults {
    pub plan: FaultPlan,
    pub recovery: RecoveryPolicy,
    pub audit_period: u64,
}

/// One single-simulation workload.
#[derive(Debug, Clone)]
pub struct SimPlan {
    pub params: SimParams,
    /// Steps the timed run advances (`gpu_dense` stops before T cells enter).
    pub run_steps: u64,
    pub exec: Exec,
    /// Ranks or devices (ignored by the serial executor).
    pub units: usize,
    pub strategy: Strategy,
    /// Worker threads of the rank pool (0 = inline).
    pub threads: usize,
    /// One forked worker process per rank over localhost sockets.
    pub process_transport: bool,
    pub faults: Option<Faults>,
}

/// The `sweep_64` workload: a batch of short jobs for the sweep server.
#[derive(Debug, Clone)]
pub struct SweepPlan {
    pub jobs: Vec<JobSpec>,
    pub workers: usize,
    /// Threads of the server's shared intra-step pool (0 = inline: the job
    /// workers already fill this host).
    pub pool_threads: usize,
    /// Jobs per group; the jobs of one group run the same model on
    /// different executors, so their histories must agree bitwise.
    pub group: usize,
}

#[derive(Debug, Clone)]
pub enum Plan {
    Sim(SimPlan),
    Sweep(SweepPlan),
}

/// Grid side, configured steps, foci of infection and steps actually run.
struct Size {
    side: u32,
    steps: u64,
    foi: u32,
    run_steps: u64,
}

const fn size(side: u32, steps: u64, foi: u32, run_steps: u64) -> Size {
    Size {
        side,
        steps,
        foi,
        run_steps,
    }
}

/// Workloads that every full run measures and reports but `BENCHMARK.json`
/// does not list, so nothing is gated on their timings: `cpu_wire16`'s wall
/// follows the host's process-wakeup latency, which on the shared 2-vCPU
/// host this was written on moves by a factor of two to four for the same
/// seed, for minutes at a time (README, "How steady the numbers are"). Its counts
/// still have to repeat exactly and its outputs still have to be right.
pub const UNGATED: [&str; 1] = ["cpu_wire16"];

/// Fresh-process repetitions of `workload` that fit `seconds` of measuring:
/// `seconds` over the time one repetition takes on a quiet 2-core host. The
/// workloads are sized for several repetitions in a run: every reported
/// value is the best of them, and on a shared host a handful of 2 s
/// repetitions spread over a quarter of a minute find a quiet stretch where
/// one 10 s repetition does not (README, "How steady the numbers are").
pub fn reps(workload: &str, seconds: f64) -> usize {
    let rep_seconds = match workload {
        "sweep_64" => 0.9,
        "serial_arc" => 1.5,
        "cpu_wire16" => 4.5,
        "gpu_arc" => 2.8,
        _ => 2.3,
    };
    ((seconds / rep_seconds).round() as usize).max(1)
}

/// Generate the inputs of `workload` from `seed`. `quick` shrinks every
/// workload to a smoke size (64², 32 steps, 4 jobs) that still takes every
/// code path, for the harness's own tests.
pub fn plan(workload: &str, seed: u64, quick: bool) -> Result<Plan, String> {
    // The arc problem is the paper's FOI-scaling base point (20,000², 64
    // FOI, 33,120 steps) compressed to 518 steps: at 1/64 linear scale for
    // the serial baseline, and at 1/125 (with the foci thinned to 16) for
    // the executors, whose serial trial table makes the 312² run take 10 s.
    let arc = |side, foi| {
        if quick {
            size(64, 32, 4, 32)
        } else {
            size(side, 518, foi, 518)
        }
    };
    let sim = |s: Size, exec: Exec, units: usize, strategy: Strategy, threads: usize| SimPlan {
        params: SimParams::scaled_to(GridDims::new2d(s.side, s.side), s.steps, s.foi, seed),
        run_steps: s.run_steps,
        exec,
        units,
        strategy,
        threads,
        process_transport: false,
        faults: None,
    };
    let plan = match workload {
        "serial_arc" => sim(arc(312, 64), Exec::Serial, 1, Strategy::Blocks, 0),
        "cpu_arc" => sim(arc(160, 16), Exec::Cpu, 4, Strategy::Blocks, 2),
        "gpu_arc" => sim(arc(160, 16), Exec::Gpu, 4, Strategy::Blocks, 2),
        "gpu_dense" => {
            let s = if quick {
                size(64, 32, 16, 9)
            } else {
                size(1024, 518, 1024, 48)
            };
            let plan = sim(s, Exec::Gpu, 4, Strategy::Blocks, 2);
            assert!(
                plan.run_steps < plan.params.tcell_initial_delay,
                "gpu_dense must stop before T cells enter"
            );
            plan
        }
        "cpu_faulted" => {
            let s = if quick {
                size(64, 32, 4, 32)
            } else {
                size(112, 518, 8, 518)
            };
            let mut plan = sim(s, Exec::Cpu, 4, Strategy::Blocks, 2);
            let counts = if quick { (2, 2) } else { (8, 10) };
            plan.faults = Some(Faults {
                plan: fault_plan(seed, plan.units, plan.params.steps * 3, counts),
                recovery: RecoveryPolicy {
                    checkpoint_period: 16,
                    ..RecoveryPolicy::default()
                },
                audit_period: 8,
            });
            plan
        }
        "cpu_wire16" => {
            let mut plan = sim(arc(160, 16), Exec::Cpu, 16, Strategy::Linear, 0);
            plan.process_transport = true;
            plan
        }
        "sweep_64" => return Ok(Plan::Sweep(sweep_plan(seed, quick))),
        other => return Err(format!("unknown workload {other:?}")),
    };
    Ok(Plan::Sim(plan))
}

/// A fault schedule with a fixed number of events of each kind, placed by
/// `seed`: the run is cut into as many equal slices as there are events and
/// each event strikes a seeded rank at a seeded superstep inside its own
/// slice. The rank death takes the middle slice; the corruptions are shuffled
/// over the rest. Fixed counts and a mid-run death keep the run's cost and
/// peak memory the same from seed to seed (a rate-sampled plan moves the
/// recovery count, and with it `run_wall_s`, by tens of percent); seeded
/// placement still varies which rank dies, where each rollback starts and
/// what it replays.
fn fault_plan(
    seed: u64,
    n_ranks: usize,
    horizon: u64,
    (state, payload): (usize, usize),
) -> FaultPlan {
    let mut rng = SplitMix64::new(seed ^ 0xFA17_FA17_FA17_FA17);
    let mut kinds: Vec<FaultKind> = Vec::new();
    kinds.extend((0..state).map(|_| FaultKind::StateCorruption {
        seed: rng.next_u64(),
    }));
    kinds.extend((0..payload).map(|_| FaultKind::PayloadCorruption {
        seed: rng.next_u64(),
    }));
    for i in (1..kinds.len()).rev() {
        kinds.swap(i, (rng.next_u64() % (i as u64 + 1)) as usize);
    }
    kinds.insert(kinds.len() / 2, FaultKind::RankDeath);
    let slice = horizon / kinds.len() as u64;
    assert!(slice > 0, "more fault events than supersteps");
    let events = kinds
        .into_iter()
        .enumerate()
        .map(|(i, kind)| FaultEvent {
            superstep: i as u64 * slice + rng.next_u64() % slice,
            rank: (rng.next_u64() % n_ranks as u64) as usize,
            kind,
        })
        .collect();
    FaultPlan::from_events(events)
}

/// 16 groups of 4 jobs (4 jobs in all when `quick`): each group runs one
/// seeded model on serial, cpu×4, cpu×2 and gpu×4 — executors 1:2:1 — with a
/// durable checkpoint every 16 steps.
fn sweep_plan(seed: u64, quick: bool) -> SweepPlan {
    let (groups, side, steps) = if quick { (1, 32, 32) } else { (16, 48, 64) };
    let mut rng = SplitMix64::new(seed ^ 0x5EED_5EED_5EED_5EED);
    let mut jobs = Vec::new();
    for g in 0..groups {
        let model_seed = rng.next_u64() >> 16;
        let spec = |exec| RunSpec::test(exec, GridDims::new2d(side, side), steps, 4, model_seed);
        for (tag, run) in [
            ("serial", spec(ExecutorKind::Serial)),
            ("cpu4", spec(ExecutorKind::Cpu)),
            ("cpu2", spec(ExecutorKind::Cpu).with_units(2)),
            ("gpu4", spec(ExecutorKind::Gpu)),
        ] {
            jobs.push(JobSpec::new(format!("g{g:02}-{tag}"), run).with_persist_every(16));
        }
    }
    SweepPlan {
        jobs,
        workers: 2,
        pool_threads: 0,
        group: 4,
    }
}

impl SimPlan {
    /// Construct the simulation — the work `setup_s` times. `threads`
    /// overrides the plan's pool size (the traced runs are inline).
    pub fn build_with_threads(&self, threads: usize) -> Box<dyn Simulation> {
        let transport = if self.process_transport {
            TransportMode::Process(ProcessTransportConfig::forked())
        } else {
            TransportMode::InProcess
        };
        match self.exec {
            Exec::Serial => Box::new(
                SerialDriver::new(self.params.clone()).expect("generated params are valid"),
            ),
            Exec::Cpu => {
                let mut cfg = CpuSimConfig::new(self.params.clone(), self.units)
                    .with_strategy(self.strategy)
                    .with_threads(threads)
                    .with_transport(transport);
                if let Some(f) = &self.faults {
                    cfg = cfg
                        .with_fault_plan(f.plan.clone())
                        .with_recovery(f.recovery)
                        .with_audit_period(f.audit_period);
                }
                Box::new(CpuSim::new(cfg).expect("generated config is valid"))
            }
            Exec::Gpu => Box::new(
                GpuSim::new(
                    GpuSimConfig::new(self.params.clone(), self.units)
                        .with_strategy(self.strategy)
                        .with_threads(threads)
                        .with_transport(transport),
                )
                .expect("generated config is valid"),
            ),
        }
    }

    pub fn build(&self) -> Box<dyn Simulation> {
        self.build_with_threads(self.threads)
    }

    /// The same problem without faults and without the process transport:
    /// the twin `cpu_faulted` and `cpu_wire16` are checked and costed against.
    pub fn twin(&self) -> SimPlan {
        SimPlan {
            process_transport: false,
            faults: None,
            ..self.clone()
        }
    }

    /// The independent run this workload's output must equal bitwise: the
    /// serial executor on the same problem — or, for the serial workload
    /// itself, the serial simulator on the scalar reference kernel.
    pub fn oracle(&self) -> Box<dyn Simulation> {
        if self.exec == Exec::Serial {
            let mut d = SerialDriver::new(self.params.clone()).expect("generated params are valid");
            let scalar = SerialSim::new(self.params.clone()).with_kernel(KernelMode::Scalar);
            *d.inner_mut() = scalar;
            Box::new(d)
        } else {
            SimPlan {
                exec: Exec::Serial,
                ..self.twin()
            }
            .build()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_inputs_other_seed_other_inputs() {
        for w in crate::bench_json::workload_names() {
            let a = format!("{:?}", plan(&w, 7, true).unwrap());
            assert_eq!(a, format!("{:?}", plan(&w, 7, true).unwrap()), "{w}");
            assert_ne!(a, format!("{:?}", plan(&w, 8, true).unwrap()), "{w}");
        }
        assert!(plan("nope", 1, true).is_err());
    }

    #[test]
    fn fault_plan_has_fixed_counts_for_every_seed() {
        for seed in 0..20 {
            let p = fault_plan(seed, 4, 1554, (8, 10));
            let n = |f: fn(&FaultKind) -> bool| p.events().iter().filter(|e| f(&e.kind)).count();
            assert_eq!(n(|k| matches!(k, FaultKind::RankDeath)), 1);
            assert_eq!(n(|k| matches!(k, FaultKind::StateCorruption { .. })), 8);
            assert_eq!(n(|k| matches!(k, FaultKind::PayloadCorruption { .. })), 10);
            assert!(p.events().iter().all(|e| e.superstep < 1554 && e.rank < 4));
            // The death sits in the middle slice of 19.
            let death = p.events().iter().find(|e| e.kind == FaultKind::RankDeath);
            assert!((9 * 81..10 * 81).contains(&death.unwrap().superstep));
        }
    }

    #[test]
    fn sweep_groups_share_a_model_and_mix_executors() {
        let Plan::Sweep(s) = plan("sweep_64", 2024, false).unwrap() else {
            panic!("sweep_64 is a sweep");
        };
        assert_eq!(s.jobs.len(), 64);
        for g in s.jobs.chunks(s.group) {
            assert!(g.iter().all(|j| j.run.seed == g[0].run.seed));
            assert_eq!(g[0].run.executor, ExecutorKind::Serial);
            assert_eq!(g[3].run.executor, ExecutorKind::Gpu);
        }
    }
}
