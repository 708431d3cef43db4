//! # bgp-sim — deterministic discrete-event simulation engine
//!
//! The substrate underneath the Blue Gene/P machine model. Everything in the
//! reproduction that cannot run on real hardware (the 3D torus, the collective
//! tree network, the DMA engine) is expressed as events scheduled on this
//! engine and as contention on [`Server`] resources.
//!
//! Design constraints, in order:
//!
//! 1. **Determinism.** Two runs with the same inputs produce byte-identical
//!    event orders. Ties in time are broken by a monotonically increasing
//!    sequence number, never by allocation order or hash iteration.
//! 2. **No global state.** The engine is generic over a user context `C`;
//!    every event is a closure receiving `(&mut C, &mut Engine<C>)`.
//! 3. **Cheap events.** The hot loop is a radix-[`Calendar`] pop and a
//!    boxed-closure call; no allocation beyond the one `Box` per event.
//!    Executors with a fixed event vocabulary drive a `Calendar` of plain
//!    enum values directly and allocate nothing per event.
//!
//! The resource model ([`Server`], [`ServerPool`], coupled finishes) is the
//! part that makes bandwidth contention honest: a serial FIFO server with a
//! `free_at` horizon reproduces processor-sharing behaviour when work is
//! submitted at chunk granularity, which is exactly how the paper's pipelined
//! collectives submit it (in `Pwidth`-sized chunks).

pub mod engine;
pub mod json;
pub mod probe;
pub mod rate;
pub mod rng;
pub mod server;
pub mod time;

pub use engine::{Calendar, Engine};
pub use probe::{Breakdown, PhaseSlice, Probe, Span, TRACE_SCHEMA};
pub use rate::Rate;
pub use rng::Rng;
pub use server::{Server, ServerId, ServerPool};
pub use time::SimTime;
