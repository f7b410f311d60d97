//! Bench-side JSON artifact I/O over the workspace [`Json`] value type
//! (the tree type, serializer and parser live in [`simcov_core::json`]).

use simcov_core::json::Json;

/// Write a rendered document, reporting the destination on stderr. Exits
/// with status 2 on I/O failure (clean error, no panic — the artifact path
/// is only known to be bad after the experiment has already run).
pub fn write_json(path: &str, doc: &Json) {
    crate::cli::write_or_die(path, doc.render());
    eprintln!("json artifact -> {path}");
}
