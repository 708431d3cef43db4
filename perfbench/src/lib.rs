//! # perfbench — the repository benchmark
//!
//! One command measures the real runtime stack end to end through its top
//! layer (`bgp-svc`), the simulator at the paper's scale, and — in a
//! separate traced run — the same operations at every layer's public entry
//! point (the layer ladder). Every delivered byte and reduced value is
//! checked against a reference this crate computes itself. See `README.md`
//! in this directory for the workloads, the metric map, and the measured
//! spread.

pub mod ladder;
pub mod oracle;
pub mod report;
pub mod sim;
pub mod stats;
pub mod svc;
pub mod trace;

/// Nodes of the real-stack cluster every `svc_*` workload and the ladder use.
pub const NODES: usize = 2;
/// Ranks per node of that cluster.
pub const RANKS: usize = 2;
/// Members of a world communicator on that cluster.
pub const MEMBERS: usize = NODES * RANKS;

/// Tally of checked operations: every attempted op either passes its
/// oracle or counts as failed (typed error, caught panic, or mismatch).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Tally {
    /// Operations attempted.
    pub attempted: u64,
    /// Operations that failed.
    pub failed: u64,
}

impl Tally {
    /// Record one attempted op and whether it passed.
    pub fn record(&mut self, ok: bool) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
        }
    }

    /// Fold another tally into this one.
    pub fn add(&mut self, other: Tally) {
        self.attempted += other.attempted;
        self.failed += other.failed;
    }
}

/// Peak resident set size of this process (`VmHWM`), in MiB. Linux only,
/// like the runtime's process backend.
pub fn peak_rss_mib() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").expect("read /proc/self/status");
    let kib: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .expect("VmHWM line in /proc/self/status");
    kib / 1024.0
}
