//! Offline shim for `serde_derive`: `#[derive(Serialize, Deserialize)]`
//! expand to nothing. Nothing in this workspace serializes through serde's
//! trait machinery (the one JSON artifact, `BENCH_sweep.json`, is written by
//! hand); the derives on the model types exist so downstream users can swap
//! the real serde back in without touching the annotated code.

use proc_macro::TokenStream;

/// No-op `Serialize` derive.
#[proc_macro_derive(Serialize)]
pub fn derive_serialize(_item: TokenStream) -> TokenStream {
    TokenStream::new()
}

/// No-op `Deserialize` derive.
#[proc_macro_derive(Deserialize)]
pub fn derive_deserialize(_item: TokenStream) -> TokenStream {
    TokenStream::new()
}
