//! Hostile inputs: the two text parsers that accept outside input —
//! `parse_config` (SIMCoV `key = value` files) and `RunSpec::from_json`
//! (sweep submissions) — must answer every malformed, truncated or
//! out-of-range document with `Ok` or a typed error, never a panic; and
//! `load_checkpoint` must answer every damaged durable file with a typed
//! `SimError`, never a panic or an allocation sized by a hostile field.
//!
//! Each parser starts from one valid document and is fed seeded
//! truncations, dropped and duplicated lines, and every numeric field set
//! in turn to each of a table of hostile numbers. The durable file is cut
//! at every length and has its count and length fields overwritten.

use simcov_repro::pgas::crc::crc64;
use simcov_repro::pgas::SplitMix64;
use simcov_repro::simcov_core::checkpoint::RunCheckpoint;
use simcov_repro::simcov_core::config::{parse_config, to_config};
use simcov_repro::simcov_core::foi::FoiPattern;
use simcov_repro::simcov_core::grid::GridDims;
use simcov_repro::simcov_core::json::Json;
use simcov_repro::simcov_core::params::SimParams;
use simcov_repro::simcov_core::serial::SerialSim;
use simcov_repro::simcov_driver::{
    load_checkpoint, persist_checkpoint, ConfigError, RecoveryPolicy, SimError,
};
use simcov_repro::simcov_sweep::{ExecutorKind, FaultSpec, RunSpec};

/// Every number a hostile field is set to: zero, negative, the u32 edge,
/// past u64, past f64, and the non-finite spellings.
const HOSTILE: [&str; 7] = [
    "0",
    "-1",
    "4294967295",
    "18446744073709551616",
    "1e309",
    "NaN",
    "inf",
];

const OVERFLOW_DIM: u32 = u32::MAX;

fn valid_config() -> String {
    to_config(&SimParams::test_config(
        GridDims::new3d(20, 16, 2),
        40,
        3,
        11,
    ))
}

fn valid_spec() -> String {
    let mut run = RunSpec::test(ExecutorKind::Gpu, GridDims::new2d(24, 20), 30, 3, 9)
        .with_fault(FaultSpec {
            seed: 5,
            ..FaultSpec::default()
        })
        .with_recovery(RecoveryPolicy::default());
    run.pattern = FoiPattern::CtLesions {
        clusters: 2,
        radius: 3,
    };
    run.gpu.check_period = Some(4);
    run.audit_period = Some(8);
    run.retransmit_budget = Some(2);
    run.to_json().render()
}

fn config_case(what: &str, text: &str) {
    let outcome = std::panic::catch_unwind(|| parse_config(text));
    match outcome {
        Ok(Ok(p)) => assert!(p.validate().is_ok(), "{what}: accepted invalid params"),
        Ok(Err(e)) => assert!(!e.is_empty(), "{what}: empty error"),
        Err(_) => panic!("{what}: parse_config panicked on\n{text}"),
    }
}

fn spec_case(what: &str, text: &str) {
    let outcome = std::panic::catch_unwind(|| {
        Json::parse(text)
            .map_err(ConfigError::InvalidParams)
            .and_then(|doc| RunSpec::from_json(&doc))
    });
    match outcome {
        Ok(Ok(spec)) => assert!(spec.validate().is_ok(), "{what}: accepted an invalid spec"),
        Ok(Err(e)) => assert!(!e.to_string().is_empty(), "{what}: empty error"),
        Err(_) => panic!("{what}: RunSpec::from_json panicked on\n{text}"),
    }
}

/// Seeded truncations plus every dropped and every duplicated line.
fn mangled(text: &str, seed: u64) -> Vec<(String, String)> {
    let mut out = Vec::new();
    let mut rng = SplitMix64::new(seed);
    for _ in 0..64 {
        let cut = (rng.next_u64() % (text.len() as u64 + 1)) as usize;
        out.push((format!("truncated at {cut}"), text[..cut].to_string()));
    }
    let lines: Vec<&str> = text.lines().collect();
    for i in 0..lines.len() {
        let mut dropped = lines.clone();
        dropped.remove(i);
        out.push((format!("line {i} dropped"), dropped.join("\n")));
        let mut doubled = lines.clone();
        doubled.insert(i, lines[i]);
        out.push((format!("line {i} duplicated"), doubled.join("\n")));
    }
    out
}

/// Byte ranges of the numeric literals in a document: a run of number
/// characters starting right after `=`, `:`, `[`, `,` or another number
/// separated by spaces (the `dim = x y z` triple).
fn number_spans(text: &str) -> Vec<(usize, usize)> {
    let bytes = text.as_bytes();
    let is_num = |b: u8| b.is_ascii_digit() || b"-+.eE".contains(&b);
    let mut spans = Vec::new();
    let mut prev = b'\n';
    let mut i = 0;
    while i < bytes.len() {
        let b = bytes[i];
        if (b.is_ascii_digit() || b == b'-') && b"=:[,".contains(&prev) {
            let start = i;
            while i < bytes.len() && is_num(bytes[i]) {
                i += 1;
            }
            spans.push((start, i));
            // Space-separated siblings (`dim = 20 16 2`) count as numbers.
            prev = b'=';
            continue;
        }
        if !b.is_ascii_whitespace() || b == b'\n' {
            prev = b;
        }
        i += 1;
    }
    spans
}

fn with_each_hostile_number(text: &str, mut check: impl FnMut(&str, &str)) -> usize {
    let spans = number_spans(text);
    for &(start, end) in &spans {
        for token in HOSTILE {
            let doc = format!("{}{token}{}", &text[..start], &text[end..]);
            check(&format!("{:?} -> {token}", &text[start..end]), &doc);
        }
    }
    spans.len()
}

#[test]
fn config_text_never_panics() {
    let base = valid_config();
    parse_config(&base).expect("the base config is valid");
    for (what, text) in mangled(&base, 0xC0F16) {
        config_case(&what, &text);
    }
    let fields = with_each_hostile_number(&base, config_case);
    assert!(
        fields >= 25,
        "every numeric config field is mutated ({fields})"
    );
}

#[test]
fn spec_json_never_panics() {
    let base = valid_spec();
    spec_case("base", &base);
    assert!(RunSpec::from_json(&Json::parse(&base).unwrap()).is_ok());
    for (what, text) in mangled(&base, 0x5BEC) {
        spec_case(&what, &text);
    }
    let fields = with_each_hostile_number(&base, spec_case);
    assert!(
        fields >= 20,
        "every numeric spec field is mutated ({fields})"
    );
}

/// The voxel count of these dims overflows 64 bits; validation must say so
/// instead of multiplying blindly.
#[test]
fn overflowing_dims_are_a_typed_error() {
    let text = format!("dim = {OVERFLOW_DIM} {OVERFLOW_DIM} {OVERFLOW_DIM}\n");
    let e = std::panic::catch_unwind(|| parse_config(&text))
        .expect("parse_config must not panic")
        .expect_err("overflowing dims rejected");
    assert!(e.contains("dims") && e.contains("overflow"), "{e}");

    let doc = Json::parse(&format!(
        r#"{{"dims": [{OVERFLOW_DIM}, {OVERFLOW_DIM}, {OVERFLOW_DIM}], "steps": 5, "num_foi": 1}}"#
    ))
    .unwrap();
    match std::panic::catch_unwind(|| RunSpec::from_json(&doc)).expect("from_json must not panic") {
        Err(ConfigError::InvalidParams(msg)) => {
            assert!(msg.contains("dims") && msg.contains("overflow"), "{msg}")
        }
        other => panic!("expected a typed dims error, got {other:?}"),
    }
}

/// Where the durable file's frame header sits: after the 8-byte file magic
/// and the 4-byte file version come the frame's message count and payload
/// length, then the payload (the run blob) and an 8-byte CRC trailer.
const FRAME_COUNT_AT: usize = 12;
const FRAME_LEN_AT: usize = 20;
const PAYLOAD_AT: usize = 28;

fn put_u64(bytes: &mut [u8], at: usize, v: u64) {
    bytes[at..at + 8].copy_from_slice(&v.to_le_bytes());
}

/// Recompute the frame's CRC trailer, so a damaged field gets past the
/// checksum and reaches the parser behind it.
fn resealed(mut bytes: Vec<u8>) -> Vec<u8> {
    let end = bytes.len() - 8;
    let crc = crc64(&bytes[FRAME_COUNT_AT..end]);
    put_u64(&mut bytes, end, crc);
    bytes
}

#[test]
fn damaged_durable_files_are_a_typed_error() {
    let params = SimParams::test_config(GridDims::new2d(5, 4), 12, 1, 3);
    let mut sim = SerialSim::new(params.clone());
    for _ in 0..4 {
        sim.advance_step();
    }
    let cp = RunCheckpoint {
        step: sim.step,
        world: sim.world.clone(),
        pool: sim.pool.clone(),
        history: sim.history.clone(),
    };
    let path =
        std::env::temp_dir().join(format!("simcov_hostile_durable_{}.ck", std::process::id()));
    persist_checkpoint(&path, &params, &cp).expect("checkpoint persists");
    let file = std::fs::read(&path).expect("checkpoint reads back");
    let restored = load_checkpoint(&path, &params).expect("the clean file loads");
    assert_eq!(restored.history, cp.history);

    let mut cases: Vec<(String, Vec<u8>)> = (0..file.len())
        .map(|cut| (format!("truncated at {cut}"), file[..cut].to_vec()))
        .collect();
    // The run blob ends with its history: a u64 count, then 88 bytes a step.
    let history_at = file.len() - 8 - cp.history.steps.len() * 88 - 8;
    assert!(history_at > PAYLOAD_AT);
    for (field, at, values) in [
        (
            "frame count",
            FRAME_COUNT_AT,
            &[2, u64::from(u32::MAX), u64::MAX][..],
        ),
        (
            "frame length",
            FRAME_LEN_AT,
            &[u64::from(u32::MAX), u64::MAX][..],
        ),
        (
            "history count",
            history_at,
            &[u64::from(u32::MAX), u64::MAX][..],
        ),
    ] {
        for &v in values {
            let mut bytes = file.clone();
            put_u64(&mut bytes, at, v);
            cases.push((format!("{field} {v}"), bytes.clone()));
            cases.push((format!("{field} {v}, resealed"), resealed(bytes)));
        }
    }
    for (what, bytes) in cases {
        std::fs::write(&path, &bytes).expect("case written");
        match std::panic::catch_unwind(|| load_checkpoint(&path, &params)) {
            Ok(Err(SimError::Persist(_) | SimError::Checkpoint(_))) => {}
            Ok(other) => panic!("{what}: expected a typed load error, got {other:?}"),
            Err(_) => panic!("{what}: load_checkpoint panicked"),
        }
    }
    let _ = std::fs::remove_file(&path);
}
