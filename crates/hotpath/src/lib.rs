//! `#[moqo::hot_path]` — a zero-cost marker for serving-hot-path functions.
//!
//! The attribute expands to exactly its input: it generates no code, changes
//! no signatures, and costs nothing at runtime. Its value is as a *contract
//! marker*: `cargo run -p xtask -- lint` parses every function carrying the
//! annotation and rejects blocking or allocating constructs inside the body
//! (mutexes, `unwrap`, `vec!`/`Box::new`/`format!`, …). Annotate a function
//! when callers rely on it being lock-free and allocation-free; the lint gate
//! then keeps that promise honest across refactors.
//!
//! Consumers depend on this crate under the rename `moqo = { package =
//! "moqo_hotpath" }` so the attribute path reads as `#[moqo::hot_path]`.

use proc_macro::TokenStream;

/// Marks a function as serving-hot-path: lock-free and allocation-free.
///
/// Pure passthrough — the annotated item is returned verbatim. Enforcement
/// lives in `cargo run -p xtask -- lint`, which scans annotated bodies
/// textually so the check also runs without expanding macros.
#[proc_macro_attribute]
pub fn hot_path(_attr: TokenStream, item: TokenStream) -> TokenStream {
    item
}
