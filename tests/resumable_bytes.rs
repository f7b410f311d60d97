//! Byte pins for every format resumable state is written in: the run blob,
//! the durable file that frames it, the per-step integrity seal and the
//! checkpoint-generation seal. The constants were taken from one fixed run
//! before the encoders were unified; any codec refactor must leave them
//! untouched, because durable files from an older build must still load and
//! `benchmark/golden/seed2024.json` pins `crc_run`.

use simcov_repro::pgas::crc::crc64;
use simcov_repro::simcov_core::checkpoint::{encode_run, RunCheckpoint};
use simcov_repro::simcov_core::grid::GridDims;
use simcov_repro::simcov_core::integrity::{crc_run, crc_state};
use simcov_repro::simcov_core::params::SimParams;
use simcov_repro::simcov_core::serial::SerialSim;
use simcov_repro::simcov_driver::persist_checkpoint;

const BLOB_LEN: usize = 12_600;
const BLOB_CRC: u64 = 0xd1c7_90e2_9164_dd48;
const FILE_LEN: usize = 12_636;
const FILE_CRC: u64 = 0x5734_075a_04d7_2bd6;
const STATE_CRC: u64 = 0x97bd_6d9e_ecce_3aa6;
const RUN_CRC: u64 = 0xf1bd_5deb_4dad_570d;

#[test]
fn resumable_state_bytes_are_pinned() {
    let params = SimParams::test_config(GridDims::new2d(24, 24), 160, 3, 13);
    let mut sim = SerialSim::new(params.clone());
    for _ in 0..30 {
        sim.advance_step();
    }
    let cp = RunCheckpoint {
        step: sim.step,
        world: sim.world.clone(),
        pool: sim.pool.clone(),
        history: sim.history.clone(),
    };

    let blob = encode_run(&params, &cp);
    let path =
        std::env::temp_dir().join(format!("simcov_resumable_bytes_{}.ck", std::process::id()));
    persist_checkpoint(&path, &params, &cp).expect("checkpoint persists");
    let file = std::fs::read(&path).expect("checkpoint reads back");
    let _ = std::fs::remove_file(&path);
    let state = crc_state(&cp.world, &cp.pool);
    let run = crc_run(cp.step, &cp.world, &cp.pool);

    assert_eq!((blob.len(), crc64(&blob)), (BLOB_LEN, BLOB_CRC), "run blob");
    assert_eq!(
        (file.len(), crc64(&file)),
        (FILE_LEN, FILE_CRC),
        "durable file"
    );
    assert_eq!(state, STATE_CRC, "crc_state");
    assert_eq!(run, RUN_CRC, "crc_run");
}
