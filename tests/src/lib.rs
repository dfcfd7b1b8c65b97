//! Integration test crate for AT-GIS (tests live in `tests/tests/`).
//!
//! See `ARCHITECTURE.md` at the repository root for how this crate
//! fits into the workspace as the integration-test crate of the four-layer design,
//! plus the ingest → seal → query lifecycle and the data flow of a
//! scheduled batch.

/// One-call sugar over the `run` entry points, shared with the
/// benchmark harness.
pub use atgis_bench::{RunExt, SchedRunExt, SessionRunExt, StreamRunExt};
