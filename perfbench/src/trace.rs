//! Benchmark-side spans: wall time around each call into a layer, kept in
//! memory and written once, at the end of a run, as a Chrome trace in the
//! format the figure binaries emit (a `"M"` schema record, then one `"X"`
//! event per span). Every span carries the benchmark's op id in `args`.

use std::time::Instant;

use bgp_sim::json::{escape, fmt_f64};

/// Schema tag of the trace this module writes.
pub const SCHEMA: &str = "perfbench-trace-v1";

/// One timed call.
#[derive(Debug, Clone, Copy)]
pub struct Span {
    /// Layer and operation, e.g. `sched.bcast_64K`.
    pub name: &'static str,
    /// Benchmark op id (unique within the run).
    pub op: u64,
    /// Thread track (client index; 0 for the ladder).
    pub tid: u32,
    /// Start, ns since the run's epoch.
    pub start_ns: u64,
    /// Duration, ns.
    pub dur_ns: u64,
}

/// Times calls and, when enabled, records each as a [`Span`].
pub struct Tracer {
    epoch: Instant,
    enabled: bool,
    tid: u32,
    next_op: u64,
    spans: Vec<Span>,
}

impl Tracer {
    /// A tracer on thread track `tid` whose op ids start at `first_op`.
    pub fn new(epoch: Instant, enabled: bool, tid: u32, first_op: u64) -> Self {
        Tracer {
            epoch,
            enabled,
            tid,
            next_op: first_op,
            spans: Vec::new(),
        }
    }

    /// The instant span starts are measured from.
    pub fn epoch(&self) -> Instant {
        self.epoch
    }

    /// Whether spans are being recorded.
    pub fn is_enabled(&self) -> bool {
        self.enabled
    }

    /// Turn span recording on or off; timing continues either way.
    pub fn set_enabled(&mut self, enabled: bool) {
        self.enabled = enabled;
    }

    /// Run `f`, returning its result and its wall time in ns; records a
    /// span named `name` when enabled.
    pub fn time<R>(&mut self, name: &'static str, f: impl FnOnce() -> R) -> (R, u64) {
        let start = Instant::now();
        let r = f();
        let dur_ns = start.elapsed().as_nanos() as u64;
        self.record(name, start, dur_ns);
        (r, dur_ns)
    }

    /// Record a span that started at `start` and lasted `dur_ns`.
    pub fn record(&mut self, name: &'static str, start: Instant, dur_ns: u64) {
        let op = self.next_op;
        self.next_op += 1;
        if self.enabled {
            self.spans.push(Span {
                name,
                op,
                tid: self.tid,
                start_ns: start.duration_since(self.epoch).as_nanos() as u64,
                dur_ns,
            });
        }
    }

    /// Recorded spans.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Move another tracer's spans into this one.
    pub fn absorb(&mut self, other: Tracer) {
        self.spans.extend(other.spans);
    }

    /// The spans as a Chrome-trace JSON array; `meta` is stamped into the
    /// schema record's `args` as string pairs.
    pub fn chrome_trace(&self, meta: &[(&str, String)]) -> String {
        let mut args = format!("\"version\": {}", escape(SCHEMA));
        for (k, v) in meta {
            args.push_str(&format!(", {}: {}", escape(k), escape(v)));
        }
        let mut out = format!(
            "[\n{{\"name\": \"schema\", \"ph\": \"M\", \"pid\": 0, \"tid\": 0, \"args\": {{{args}}}}}"
        );
        for s in &self.spans {
            let layer = s.name.split('.').next().unwrap_or(s.name);
            out.push_str(&format!(
                ",\n{{\"name\": {}, \"cat\": {}, \"ph\": \"X\", \"ts\": {}, \"dur\": {}, \"pid\": 0, \"tid\": {}, \"args\": {{\"op\": {}}}}}",
                escape(s.name),
                escape(layer),
                fmt_f64(s.start_ns as f64 / 1000.0),
                fmt_f64(s.dur_ns as f64 / 1000.0),
                s.tid,
                s.op,
            ));
        }
        out.push_str("\n]\n");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_tracer_times_but_records_nothing() {
        let mut t = Tracer::new(Instant::now(), false, 0, 0);
        let (v, ns) = t.time("kernels.x", || 7);
        assert_eq!(v, 7);
        assert!(ns < 1_000_000_000);
        assert!(t.spans().is_empty());
        t.set_enabled(true);
        t.time("kernels.x", || ());
        assert_eq!(t.spans().len(), 1);
        assert_eq!(t.spans()[0].op, 1, "op ids advance whether or not recorded");
    }

    #[test]
    fn chrome_trace_parses_and_keys_spans_by_op() {
        let epoch = Instant::now();
        let mut a = Tracer::new(epoch, true, 0, 0);
        let mut b = Tracer::new(epoch, true, 1, 100);
        a.time("svc.bcast_1K", || ());
        b.time("sched.bcast_1K", || ());
        a.absorb(b);
        let doc = bgp_sim::json::parse(&a.chrome_trace(&[("seed", "5".into())])).unwrap();
        let events = doc.as_arr().unwrap();
        assert_eq!(events.len(), 3);
        assert_eq!(events[0].get("ph").unwrap().as_str(), Some("M"));
        let args = events[0].get("args").unwrap();
        assert_eq!(args.get("version").unwrap().as_str(), Some(SCHEMA));
        assert_eq!(args.get("seed").unwrap().as_str(), Some("5"));
        let last = &events[2];
        assert_eq!(last.get("cat").unwrap().as_str(), Some("sched"));
        assert_eq!(
            last.get("args").unwrap().get("op").unwrap().as_f64(),
            Some(100.0)
        );
    }
}
