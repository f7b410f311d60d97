//! Input the user got wrong — a missing config, a malformed one, a run
//! configuration the executor rejects, a fault flag the executor cannot
//! take or cannot parse — ends the `simcov` tool with a message
//! on stderr and status 2, never a panic.

use std::process::Command;

#[test]
fn bad_input_is_a_clean_exit_2_not_a_panic() {
    let dir = std::env::temp_dir().join(format!("simcov_cli_{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("scratch dir");
    let config = |name: &str, dim: &str| {
        let path = dir.join(name);
        let text = format!("dim = {dim}\ntimesteps = 4\nnum-infections = 1\n");
        std::fs::write(&path, text).expect("write config");
        path.to_str().expect("utf-8 temp path").to_string()
    };
    let missing = dir.join("no_such.config");
    let cases = [
        vec![missing.to_str().expect("utf-8 temp path").to_string()],
        vec![config("two_dims.config", "64 64")],
        vec![
            config("valid.config", "16 16 1"),
            "--units".into(),
            "0".into(),
        ],
        vec![
            config("valid.config", "16 16 1"),
            "--executor".into(),
            "serial".into(),
            "--wire-kill".into(),
            "3:1".into(),
        ],
        vec![
            config("valid.config", "16 16 1"),
            "--wire-kill".into(),
            "30".into(),
        ],
    ];
    for args in &cases {
        let out = Command::new(env!("CARGO_BIN_EXE_simcov"))
            .args(args)
            .output()
            .expect("simcov runs");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{args:?}: {stderr}");
        assert!(!stderr.trim().is_empty(), "{args:?}: silent failure");
        assert!(!stderr.contains("panicked at"), "{args:?}: {stderr}");
    }
    std::fs::remove_dir_all(&dir).expect("remove scratch dir");
}
