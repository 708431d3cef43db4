//! # bgp-dcmf — the messaging layer over the simulated machine
//!
//! Named for BG/P's Deep Computing Messaging Framework, the layer the paper
//! integrates its designs into. Where `bgp-machine` is the *static* hardware
//! model, this crate is the *dynamic* one: it instantiates one `bgp-sim`
//! server per finite hardware resource (every torus link direction, each
//! node's DMA engine, memory subsystem, four cores, and tree up/down
//! channels) and exposes the transfer primitives the collective algorithms
//! are built from:
//!
//! * [`ops::line_transfer`] — a deposit-bit line broadcast of one pipeline
//!   chunk over a line planned once by [`ops::plan_line`]: charges the
//!   source DMA+memory for injection, reserves each delivery link in hop
//!   order (wormhole-pipelined), and hands every destination's wire time to
//!   the caller without allocating; the destination charges its reception
//!   ([`ops::dma_recv`]) in its own event at that time.
//! * [`ops::dma_local_distribute`] — the DMA Direct-Put intra-node fan-out
//!   of quad mode (the baseline whose DMA exhaustion motivates the paper).
//! * [`ops::core_copy`] — a processor-core memcpy, coupled to the node
//!   memory server (with the shared-L2 read discount when the source was
//!   just produced on-node and the working set fits in L2).
//! * [`ops::tree_inject`] / [`ops::tree_down_transfer`] / [`ops::tree_recv`]
//!   — the collective network: per-packet core costs on inject/receive and
//!   the 850 MB/s tree channel, with no DMA anywhere.
//! * [`ops::memfifo_drain`], [`ops::descriptor_post`], counter and window
//!   cost helpers — the per-chunk software charges.
//!
//! Everything is *reservation math*: an op called at simulated time `now`
//! reserves its servers and returns completion times; the caller (the
//! executors in `bgp-ccmi` / algorithms in `bgp-mpi`) schedules follow-on
//! events at those times. Causal ordering is guaranteed because events fire
//! in time order and reservations are made when events fire.

pub mod machine;
pub mod ops;
pub mod pt2pt;

pub use machine::{Machine, Sim};
