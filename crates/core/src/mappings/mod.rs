//! Enactment engines: `simple` and static `multi`, each with its own loop,
//! and the dynamic family (dynamic, auto-scaling, hybrid): one private
//! engine core behind the `dynamic` and `hybrid` front doors.

pub mod dynamic;
mod engine;
pub mod hybrid;
pub mod multi;
pub mod simple;

pub use dynamic::{DynAutoMulti, DynMulti};
pub use hybrid::{HybridMulti, QueueFactory};
pub use multi::Multi;
pub use simple::Simple;
