//! The `Unit` seam, once per implementation: behind `BspSim` it matches the
//! serial oracle, corrupts state as a visible self-inverse, survives a
//! rebuild with telemetry intact, and builds from a `RunSpec` as by hand.

mod equivalence;
use equivalence::*;

fn conformance(exec: Exec) -> [Case; 3] {
    let base = Case::test([24, 24, 1], 80, 3, 42).on(exec, 4);
    let faulted = base.with(|c| (c.units, c.faults, c.audit) = (3, Some(Spec(0xFA17)), Some(4)));
    [
        base.with(|c| c.flips = 32),
        base.with(|c| c.rebuild = Some(2)),
        faulted,
    ]
}

equivalence_tests! {
    cpu_rank_conforms: conformance(Cpu);
    gpu_device_conforms: conformance(Gpu(Combined));
}
