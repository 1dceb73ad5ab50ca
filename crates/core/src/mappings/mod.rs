//! Enactment engines: `simple`, with its own loop, and one private engine
//! core behind the `multi` (static), `dynamic` (dynamic, auto-scaling) and
//! `hybrid` front doors.

pub mod dynamic;
mod engine;
pub mod hybrid;
pub mod multi;
pub mod simple;

pub use dynamic::{DynAutoMulti, DynMulti};
pub use hybrid::{HybridMulti, QueueFactory};
pub use multi::Multi;
pub use simple::Simple;
