//! Offline shim for `serde`: only the derive-macro names are provided, and
//! they expand to nothing (see the `serde_derive` shim). The annotated
//! types keep their `#[derive(Serialize, Deserialize)]` attributes so the
//! real serde can be swapped back in when the build environment has
//! registry access.

#![warn(missing_docs)]

pub use serde_derive::{Deserialize, Serialize};
