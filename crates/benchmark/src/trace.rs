//! In-memory spans recorded by the harness around its own calls into
//! each layer, written out when the workload ends.
//!
//! The root span of an op is the real request. Because reads are
//! idempotent, the children of a read are *replays* of the same request
//! through each layer's entry point, run after the root closed and
//! linked to it by `parent`; the children of a write are its real
//! steps. A span's self time is its duration minus its children's, so
//! self times over a whole op sum to the root's duration exactly and
//! the root's own self time is the part no layer accounts for.

use std::collections::BTreeMap;
use std::time::Instant;

pub const NO_PARENT: u32 = 0;

#[derive(Debug, Clone)]
pub struct Span {
    pub id: u32,
    pub parent: u32,
    pub op_seq: u32,
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
}

pub struct Tracer {
    origin: Instant,
    pub spans: Vec<Span>,
}

impl Default for Tracer {
    fn default() -> Tracer {
        Tracer {
            origin: Instant::now(),
            spans: Vec::new(),
        }
    }
}

impl Tracer {
    fn now(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    pub fn open(&mut self, parent: u32, op_seq: u32, name: &'static str) -> u32 {
        let id = self.spans.len() as u32 + 1;
        let start_ns = self.now();
        self.spans.push(Span {
            id,
            parent,
            op_seq,
            name,
            start_ns,
            end_ns: start_ns,
        });
        id
    }

    pub fn close(&mut self, id: u32) -> u64 {
        let end_ns = self.now();
        let span = &mut self.spans[id as usize - 1];
        span.end_ns = end_ns;
        end_ns - span.start_ns
    }

    pub fn span<T>(
        &mut self,
        parent: u32,
        op_seq: u32,
        name: &'static str,
        f: impl FnOnce() -> T,
    ) -> (u32, T) {
        let id = self.open(parent, op_seq, name);
        let out = f();
        self.close(id);
        (id, out)
    }

    /// Per span name: every duration and every self time, in ns.
    pub fn by_name(&self) -> BTreeMap<&'static str, LayerTimes> {
        let mut child_ns = vec![0u64; self.spans.len() + 1];
        for s in &self.spans {
            child_ns[s.parent as usize] += s.end_ns - s.start_ns;
        }
        let mut out: BTreeMap<&'static str, LayerTimes> = BTreeMap::new();
        for s in &self.spans {
            let dur = (s.end_ns - s.start_ns) as i64;
            let layer = out.entry(s.name).or_default();
            layer.dur_ns.push(dur);
            layer.self_ns.push(dur - child_ns[s.id as usize] as i64);
        }
        out
    }

    pub fn to_json(&self) -> String {
        let mut out = String::from("[\n");
        for (i, s) in self.spans.iter().enumerate() {
            let comma = if i + 1 < self.spans.len() { "," } else { "" };
            out.push_str(&format!(
                "{{\"id\":{},\"parent\":{},\"op_seq\":{},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{}}}{comma}\n",
                s.id, s.parent, s.op_seq, s.name, s.start_ns, s.end_ns
            ));
        }
        out.push_str("]\n");
        out
    }
}

/// Self times are signed: a warm replay can run a hair longer than the
/// span it re-enacts, and clamping would break the sum.
#[derive(Debug, Default, Clone)]
pub struct LayerTimes {
    pub dur_ns: Vec<i64>,
    pub self_ns: Vec<i64>,
}
