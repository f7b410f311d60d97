//! The command-line error exits shared by the bench binaries.
//!
//! Each binary parses its own flags in one match loop over
//! `std::env::args()`; these helpers give every loop the same behaviour for
//! input the user got wrong: a message on stderr and status 2.

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
