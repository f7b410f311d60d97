//! Durable on-disk checkpoint persistence for crash restart.
//!
//! The file layout is a small header plus the version-2 run blob wrapped in
//! the hardened `pgas::mailbox::frame` codec:
//!
//! ```text
//! [file magic: 8][file version: u32 LE][frame(encode_run blob)]
//! ```
//!
//! The frame trailer CRC covers the whole blob, so a torn write, a
//! truncated copy or any at-rest bit flip is detected before a single byte
//! of simulation state is parsed; the inner blob then re-validates
//! structure, parameter fingerprint and model invariants. Writes are
//! atomic *and durable*: the file is staged under a `.tmp` sibling name,
//! fsynced, renamed into place, and the parent directory is fsynced — so a
//! crash mid-persist leaves the previous checkpoint intact, and a power
//! loss right after `persist_checkpoint` returns cannot lose the rename or
//! leave a rolled-back, partially-written stage as the live checkpoint.

use std::fs::{self, File};
use std::io::Write;
use std::path::{Path, PathBuf};

use pgas::mailbox::frame;
use pgas::wire::{WireReader, WireWrite};
use simcov_core::checkpoint::{encode_run, restore_run, RunCheckpoint};
use simcov_core::params::SimParams;

use crate::error::SimError;

const FILE_MAGIC: &[u8; 8] = b"SIMCOVDF";
const FILE_VERSION: u32 = 1;

fn tmp_sibling(path: &Path) -> PathBuf {
    let mut name = path
        .file_name()
        .map(|n| n.to_os_string())
        .unwrap_or_default();
    name.push(".tmp");
    path.with_file_name(name)
}

/// Write `cp` durably to `path` (atomic: staged to a `.tmp` sibling, then
/// renamed over the destination).
pub fn persist_checkpoint(
    path: &Path,
    params: &SimParams,
    cp: &RunCheckpoint,
) -> Result<(), SimError> {
    let framed = frame::encode(1, &encode_run(params, cp));
    let mut out = Vec::with_capacity(FILE_MAGIC.len() + 4 + framed.len());
    out.put_bytes(FILE_MAGIC);
    out.put_u32(FILE_VERSION);
    out.put_bytes(&framed);
    let tmp = tmp_sibling(path);
    // Stage through an explicit handle and fsync it before the rename:
    // `fs::write` alone leaves the data in the page cache, so a crash after
    // the rename could surface a truncated file under the *final* name —
    // exactly the torn state the staging protocol exists to prevent.
    {
        let mut f = File::create(&tmp)
            .map_err(|e| SimError::Persist(format!("create {}: {e}", tmp.display())))?;
        f.write_all(&out)
            .map_err(|e| SimError::Persist(format!("write {}: {e}", tmp.display())))?;
        f.sync_all()
            .map_err(|e| SimError::Persist(format!("fsync {}: {e}", tmp.display())))?;
    }
    fs::rename(&tmp, path)
        .map_err(|e| SimError::Persist(format!("rename to {}: {e}", path.display())))?;
    // The rename itself lives in the directory entry: fsync the parent so
    // the new name survives power loss too. Non-fatal where the platform
    // refuses directory handles — the data itself is already durable.
    if let Some(parent) = path.parent() {
        let dir = if parent.as_os_str().is_empty() {
            Path::new(".")
        } else {
            parent
        };
        if let Ok(d) = File::open(dir) {
            let _ = d.sync_all();
        }
    }
    Ok(())
}

/// Remove orphaned `.tmp` stage siblings of `path` left behind by a crash
/// mid-persist. Stage files are never sealed generations — they are either
/// fully renamed into place or garbage — so sweeping them on `--resume` is
/// always safe. Returns how many were removed.
pub fn sweep_stale_stages(path: &Path) -> u64 {
    let tmp = tmp_sibling(path);
    match fs::remove_file(&tmp) {
        Ok(()) => 1,
        Err(_) => 0,
    }
}

/// Read a checkpoint persisted by [`persist_checkpoint`], verifying the
/// frame CRC and the blob's own validation before returning it.
pub fn load_checkpoint(path: &Path, params: &SimParams) -> Result<RunCheckpoint, SimError> {
    let bytes =
        fs::read(path).map_err(|e| SimError::Persist(format!("read {}: {e}", path.display())))?;
    let mut r = WireReader::new(&bytes);
    let version = r
        .read_bytes(FILE_MAGIC.len())
        .filter(|magic| magic == FILE_MAGIC)
        .and_then(|_| r.read_u32())
        .ok_or_else(|| {
            SimError::Persist(format!(
                "{}: not a SIMCoV durable checkpoint",
                path.display()
            ))
        })?;
    if version != FILE_VERSION {
        return Err(SimError::Persist(format!(
            "{}: unsupported durable checkpoint file version {version}",
            path.display()
        )));
    }
    let (count, payload) = frame::decode(&bytes[r.position()..])
        .map_err(|e| SimError::Persist(format!("{}: {e}", path.display())))?;
    if count != 1 {
        return Err(SimError::Persist(format!(
            "{}: expected one checkpoint per file, found {count}",
            path.display()
        )));
    }
    restore_run(params, payload).map_err(SimError::Checkpoint)
}

#[cfg(test)]
mod tests {
    use super::*;
    use simcov_core::grid::GridDims;
    use simcov_core::serial::SerialSim;

    fn checkpointed_sim() -> (SimParams, RunCheckpoint) {
        let p = SimParams::test_config(GridDims::new2d(24, 24), 60, 3, 29);
        let mut s = SerialSim::new(p.clone());
        for _ in 0..25 {
            s.advance_step();
        }
        let cp = RunCheckpoint {
            step: s.step,
            world: s.world.clone(),
            pool: s.pool.clone(),
            history: s.history.clone(),
        };
        (p, cp)
    }

    fn tmp_path(tag: &str) -> PathBuf {
        std::env::temp_dir().join(format!("simcov_durable_{tag}_{}.ck", std::process::id()))
    }

    #[test]
    fn roundtrips_and_stages_atomically() {
        let (params, cp) = checkpointed_sim();
        let path = tmp_path("roundtrip");
        persist_checkpoint(&path, &params, &cp).unwrap();
        assert!(
            !tmp_sibling(&path).exists(),
            "stage file must be renamed away"
        );
        let back = load_checkpoint(&path, &params).unwrap();
        assert_eq!(back, cp, "durable roundtrip is bitwise");
        // Persisting again overwrites atomically.
        persist_checkpoint(&path, &params, &cp).unwrap();
        assert_eq!(load_checkpoint(&path, &params).unwrap(), cp);
        let _ = fs::remove_file(&path);
    }

    #[test]
    fn detects_damage_and_rejects_foreign_files() {
        let (params, cp) = checkpointed_sim();
        let path = tmp_path("damage");
        persist_checkpoint(&path, &params, &cp).unwrap();
        let clean = fs::read(&path).unwrap();

        // Any single bit flip in the framed region must be caught (sampled
        // stride keeps the test fast; the frame tests cover every bit).
        for bit in (0..clean.len() * 8).step_by(997) {
            let mut dam = clean.clone();
            dam[bit / 8] ^= 1 << (bit % 8);
            fs::write(&path, &dam).unwrap();
            assert!(
                load_checkpoint(&path, &params).is_err(),
                "bit flip at {bit} loaded successfully"
            );
        }

        // Truncation models a torn write that somehow got renamed.
        fs::write(&path, &clean[..clean.len() / 2]).unwrap();
        assert!(load_checkpoint(&path, &params).is_err());

        // A wrong parameter set is refused by the inner fingerprint.
        fs::write(&path, &clean).unwrap();
        let mut other = params.clone();
        other.infectivity *= 2.0;
        assert!(matches!(
            load_checkpoint(&path, &other),
            Err(SimError::Checkpoint(
                simcov_core::checkpoint::CheckpointError::FingerprintMismatch
            ))
        ));

        // Not a checkpoint file at all.
        fs::write(&path, b"definitely not a checkpoint").unwrap();
        assert!(matches!(
            load_checkpoint(&path, &params),
            Err(SimError::Persist(_))
        ));
        let _ = fs::remove_file(&path);
    }

    /// A crash between stage-write and rename leaves a truncated `.tmp`
    /// sibling. The restore chain must never accept it in place of the
    /// sealed checkpoint, and the resume-time sweep must clear it.
    #[test]
    fn truncated_stage_is_rejected_and_swept() {
        let (params, cp) = checkpointed_sim();
        let path = tmp_path("stale_stage");
        persist_checkpoint(&path, &params, &cp).unwrap();
        let clean = fs::read(&path).unwrap();

        // Model the crash: a half-written stage file next to a good seal.
        let stage = tmp_sibling(&path);
        fs::write(&stage, &clean[..clean.len() / 3]).unwrap();
        assert!(
            load_checkpoint(&stage, &params).is_err(),
            "truncated stage must never load"
        );
        // The sealed checkpoint is untouched by the orphan.
        assert_eq!(load_checkpoint(&path, &params).unwrap(), cp);

        assert_eq!(sweep_stale_stages(&path), 1);
        assert!(!stage.exists(), "sweep removes the orphaned stage");
        assert_eq!(sweep_stale_stages(&path), 0, "second sweep finds nothing");
        // The live checkpoint survives the sweep.
        assert_eq!(load_checkpoint(&path, &params).unwrap(), cp);
        let _ = fs::remove_file(&path);
    }
}
