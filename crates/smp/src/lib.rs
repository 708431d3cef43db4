//! # bgp-smp — a real four-rank SMP node, as threads
//!
//! The paper's intra-node techniques are ordinary cache-coherent algorithms,
//! so this crate runs them for real: a [`NodeRuntime`] spawns one OS thread
//! per MPI rank of a node (four in quad mode), gives each a [`RankCtx`], and
//! the intra-node collectives in [`collectives`] move actual bytes between
//! actual threads using the `bgp-shmem` primitives — the Bcast FIFO, message
//! counters, completion counters, and the window registry standing in for
//! CNK process windows.
//!
//! Scaling out, a [`Cluster`] runs M such nodes at once — still all real
//! threads — connected by a [`transport`] fabric of paced byte-chunk
//! channels (tree + ring links, mirroring the simulator's topology), and
//! [`cluster`] implements the paper's two *integrated* protocols end to
//! end: the §V-A/V-B core-specialized broadcast and the §V-C multi-color
//! ring allreduce. Both runtimes are persistent: rank threads park on job
//! queues between operations instead of being respawned per call. Their
//! network-core protocol is written once, in [`netcore`].
//!
//! This is the half of the reproduction that needs no simulation. It backs:
//!
//! * correctness/stress testing of the §IV data structures under genuine
//!   concurrency;
//! * the `intranode_real` criterion bench (staged-shmem vs Bcast-FIFO vs
//!   shared-address-counter broadcast on the host machine) and the
//!   `cluster_real` sustained-traffic bench;
//! * the quickstart example.

pub mod barrier;
pub mod cluster;
pub mod collectives;
pub mod kernels;
pub mod netcore;
pub mod runtime;
pub mod transport;

#[cfg(not(feature = "model"))]
pub mod proc;

pub use barrier::SenseBarrier;
pub use cluster::{
    Cluster, ClusterCtx, ClusterStats, PendingJob, TagError, TAG_CHUNK_LIMIT, TAG_COLOR_LIMIT,
};
pub use runtime::{
    run_node, NodeRuntime, NodeShared, RankCtx, SchedStash, StashEviction, StashStats,
    STASH_PER_OP_CAP, STASH_TOTAL_CAP,
};
