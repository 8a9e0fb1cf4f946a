//! `#[moqo::hot_path]`: a passthrough attribute that nothing uses.
//!
//! The attribute expands to exactly its input. No function carries it. The
//! crate stays only because `benchmark/Cargo.lock` lists it as a dependency
//! of `moqo_service`, and it leaves with the next change to the benchmark.

use proc_macro::TokenStream;

/// Returns the annotated item unchanged.
#[proc_macro_attribute]
pub fn hot_path(_attr: TokenStream, item: TokenStream) -> TokenStream {
    item
}
