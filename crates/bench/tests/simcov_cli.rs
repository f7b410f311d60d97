//! Input the user got wrong — a missing config, a malformed one, a run
//! configuration the executor rejects, a fault flag the executor cannot
//! take or cannot parse, a flag the binary does not read — ends the bench
//! binaries with a message on stderr and status 2, never a panic.

use std::process::Command;

#[test]
fn bad_input_is_a_clean_exit_2_not_a_panic() {
    let dir = std::env::temp_dir().join(format!("simcov_cli_{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("scratch dir");
    let path = |name: &str| {
        let path = dir.join(name);
        path.to_str().expect("utf-8 temp path").to_string()
    };
    let config = |name: &str, dim: &str| {
        let text = format!("dim = {dim}\ntimesteps = 4\nnum-infections = 1\n");
        std::fs::write(dir.join(name), text).expect("write config");
        path(name)
    };
    let valid = config("valid.config", "16 16 1");
    let simcov = env!("CARGO_BIN_EXE_simcov");
    let cases: [(&str, Vec<String>); 8] = [
        (simcov, vec![path("no_such.config")]),
        (simcov, vec![config("two_dims.config", "64 64")]),
        (simcov, vec![valid.clone(), "--units".into(), "0".into()]),
        (
            simcov,
            vec![
                valid.clone(),
                "--executor".into(),
                "serial".into(),
                "--wire-kill".into(),
                "3:1".into(),
            ],
        ),
        (
            simcov,
            vec![valid.clone(), "--wire-kill".into(), "30".into()],
        ),
        (simcov, vec![valid.clone(), "--seed".into(), "5".into()]),
        (simcov, vec![valid.clone(), "--smoke".into()]),
        (
            env!("CARGO_BIN_EXE_sweep_server"),
            vec![
                "--demo".into(),
                "1".into(),
                "--out-dir".into(),
                path("sweep"),
                "--trace-out".into(),
                path("t.json"),
            ],
        ),
    ];
    for (bin, args) in &cases {
        let out = Command::new(bin).args(args).output().expect("binary runs");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{bin} {args:?}: {stderr}");
        assert!(!stderr.trim().is_empty(), "{bin} {args:?}: silent failure");
        assert!(!stderr.contains("panicked at"), "{bin} {args:?}: {stderr}");
    }
    std::fs::remove_dir_all(&dir).expect("remove scratch dir");
}
