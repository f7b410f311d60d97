//! Shared command-line parsing for the bench binaries.
//!
//! The one place the shared surface is parsed and documented:
//!
//! | flag | value | meaning |
//! |---|---|---|
//! | `--json` | `PATH` | write the machine-readable result document |
//! | `--trace-out` | `PATH` | record the unified telemetry span stream |
//! | `--metrics-out` | `PATH` | export the process metric registry on exit |
//! | `--smoke` | — | reduced scale for CI gates |
//! | `--seed` | `N` | override the suite's default master seed |
//!
//! Binaries with extra flags call [`CommonFlags::extract`] and match the
//! leftover tokens themselves; binaries with no extra flags call
//! [`CommonFlags::parse`], which rejects anything unrecognized.

/// The flags shared by every bench binary.
#[derive(Debug, Clone, Default)]
pub struct CommonFlags {
    /// `--json PATH`: machine-readable result document.
    pub json: Option<String>,
    /// `--trace-out PATH`: unified telemetry span stream.
    pub trace_out: Option<String>,
    /// `--metrics-out PATH`: process metric registry export.
    pub metrics_out: Option<String>,
    /// `--smoke`: reduced scale for CI gates.
    pub smoke: bool,
    /// `--seed N`: master-seed override.
    pub seed: Option<u64>,
}

impl CommonFlags {
    /// Pull the common flags out of `argv`, returning the binary-specific
    /// leftovers in their original order.
    pub fn extract(args: impl IntoIterator<Item = String>) -> (Self, Vec<String>) {
        let mut flags = CommonFlags::default();
        let mut rest = Vec::new();
        let mut it = args.into_iter();
        while let Some(a) = it.next() {
            match a.as_str() {
                "--json" => flags.json = Some(expect_value(&a, it.next())),
                "--trace-out" => flags.trace_out = Some(expect_value(&a, it.next())),
                "--metrics-out" => flags.metrics_out = Some(expect_value(&a, it.next())),
                "--smoke" => flags.smoke = true,
                "--seed" => flags.seed = Some(parse_value(&a, it.next())),
                _ => rest.push(a),
            }
        }
        (flags, rest)
    }

    /// Parse the process arguments of a binary with no flags of its own;
    /// anything unrecognized prints `usage` and exits 2.
    pub fn parse(usage: &str) -> Self {
        let (flags, rest) = Self::extract(std::env::args().skip(1));
        if let Some(tok) = rest.first() {
            die_unknown(tok, usage);
        }
        flags
    }

    /// Parse the process arguments, handing back binary-specific leftovers.
    pub fn parse_with_rest() -> (Self, Vec<String>) {
        Self::extract(std::env::args().skip(1))
    }
}

/// The one exit for input the user got wrong (arguments, config, files):
/// the message on stderr, status 2, no backtrace.
pub fn die(msg: impl std::fmt::Display) -> ! {
    eprintln!("{msg}");
    std::process::exit(2);
}

/// The value of `r`, or [`die`] with `what` and the error.
pub fn or_die<T, E: std::fmt::Display>(r: Result<T, E>, what: impl std::fmt::Display) -> T {
    r.unwrap_or_else(|e| die(format_args!("{what}: {e}")))
}

/// Write an output file, or [`die`].
pub fn write_or_die(path: &str, contents: impl AsRef<[u8]>) {
    or_die(
        std::fs::write(path, contents),
        format_args!("cannot write {path}"),
    );
}

/// The value following a flag, or exit 2.
pub fn expect_value(flag: &str, v: Option<String>) -> String {
    v.unwrap_or_else(|| die(format_args!("{flag} requires a value")))
}

/// The parsed value following a flag, or exit 2.
pub fn parse_value<T: std::str::FromStr>(flag: &str, v: Option<String>) -> T {
    let what = std::any::type_name::<T>();
    let parsed = expect_value(flag, v).parse();
    parsed.unwrap_or_else(|_| die(format_args!("{flag} requires a {what}")))
}

/// Report an unknown argument with the binary's usage line and exit 2.
pub fn die_unknown(tok: &str, usage: &str) -> ! {
    die(format_args!("unknown argument: {tok}\n{usage}"))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(s: &[&str]) -> Vec<String> {
        s.iter().map(|a| a.to_string()).collect()
    }

    #[test]
    fn extracts_common_flags_and_preserves_rest_order() {
        let (flags, rest) = CommonFlags::extract(argv(&[
            "--jobs",
            "j.json",
            "--json",
            "out.json",
            "--smoke",
            "--seed",
            "42",
            "--workers",
            "3",
        ]));
        assert_eq!(flags.json.as_deref(), Some("out.json"));
        assert!(flags.smoke);
        assert_eq!(flags.seed, Some(42));
        assert_eq!(rest, argv(&["--jobs", "j.json", "--workers", "3"]));
    }

    #[test]
    fn absent_flags_default_off() {
        let (flags, rest) = CommonFlags::extract(argv(&[]));
        assert!(flags.json.is_none() && flags.trace_out.is_none() && flags.metrics_out.is_none());
        assert!(!flags.smoke);
        assert!(flags.seed.is_none());
        assert!(rest.is_empty());
    }
}
