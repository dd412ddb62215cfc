//! In-memory span recording for the traced replay.
//!
//! A span has a name (`layer.op`), host start and end times, the span
//! that caused it, and the id of the packet or event it belongs to.
//! Simulated memory accesses are too frequent to keep one span each:
//! they are recorded as an aggregated leaf on the innermost open span
//! (count and summed duration), which is exactly the coverage a child
//! span would have contributed to that span's self time.

use std::cell::RefCell;
use std::collections::HashMap;
use std::io::Write;
use std::time::Instant;

use halo_tables::LookupTrace;

/// Parent id of a root span.
pub const NO_PARENT: u64 = u64::MAX;
/// Packet id of a span that belongs to no single packet or event.
pub const NO_PKT: u64 = u64::MAX;
/// Lookup traces kept for the program-build replay.
const TRACE_SAMPLE: usize = 2048;

/// One recorded span.
#[derive(Debug, Clone, Copy)]
pub struct Span {
    /// Unique id.
    pub id: u64,
    /// Id of the span that caused this one, or [`NO_PARENT`].
    pub parent: u64,
    /// Packet or event index this span belongs to, or [`NO_PKT`].
    pub pkt: u64,
    /// `layer.op`.
    pub name: &'static str,
    /// Host nanoseconds since the recording epoch.
    pub start_ns: u64,
    /// Host nanoseconds since the recording epoch.
    pub end_ns: u64,
    /// Simulated memory accesses made directly inside this span.
    pub leaf_count: u64,
    /// Their summed host duration.
    pub leaf_ns: u64,
}

impl Span {
    /// Host duration.
    pub fn dur(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// A single-threaded span recorder. Worker threads get their own and
/// are absorbed into the main one after they join.
#[derive(Debug)]
pub struct Recorder {
    epoch: Instant,
    tag: u64,
    next_tag: u64,
    base_parent: u64,
    spans: Vec<Span>,
    open: Vec<usize>,
    /// Packet or event the next spans belong to.
    pub pkt: u64,
    /// Simulated memory accesses timed.
    pub mem_count: u64,
    /// Their summed host duration.
    pub mem_ns: u64,
    /// Wildcard classifications observed.
    pub wc_calls: u64,
    /// Probes those classifications made.
    pub wc_probes: u64,
    /// Memory-touching steps of those probes.
    pub wc_probe_lines: u64,
    /// Sample of probe traces, for the program-build replay.
    pub traces: Vec<LookupTrace>,
}

impl Recorder {
    /// A main recorder whose root spans have no parent.
    pub fn new(epoch: Instant) -> Self {
        Self::child(epoch, 0, NO_PARENT)
    }

    /// A recorder whose ids carry `tag` and whose root spans hang off
    /// `base_parent` (a span of another recorder).
    pub fn child(epoch: Instant, tag: u64, base_parent: u64) -> Self {
        Recorder {
            epoch,
            tag,
            next_tag: tag + 1,
            base_parent,
            spans: Vec::new(),
            open: Vec::new(),
            pkt: NO_PKT,
            mem_count: 0,
            mem_ns: 0,
            wc_calls: 0,
            wc_probes: 0,
            wc_probe_lines: 0,
            traces: Vec::new(),
        }
    }

    /// A fresh tag for a worker recorder.
    pub fn new_tag(&mut self) -> u64 {
        self.next_tag += 1;
        self.next_tag
    }

    /// The recording epoch.
    pub fn epoch(&self) -> Instant {
        self.epoch
    }

    fn now(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Opens a span under the innermost open one; returns its id.
    pub fn open(&mut self, name: &'static str) -> u64 {
        let parent = self
            .open
            .last()
            .map_or(self.base_parent, |&i| self.spans[i].id);
        let id = (self.tag << 40) | self.spans.len() as u64;
        let start_ns = self.now();
        self.open.push(self.spans.len());
        self.spans.push(Span {
            id,
            parent,
            pkt: self.pkt,
            name,
            start_ns,
            end_ns: start_ns,
            leaf_count: 0,
            leaf_ns: 0,
        });
        id
    }

    /// Closes the innermost open span.
    pub fn close(&mut self) {
        let i = self.open.pop().expect("close without open span");
        self.spans[i].end_ns = self.now();
    }

    /// Records one timed memory access on the innermost open span.
    pub fn leaf(&mut self, ns: u64) {
        self.mem_count += 1;
        self.mem_ns += ns;
        if let Some(&i) = self.open.last() {
            self.spans[i].leaf_count += 1;
            self.spans[i].leaf_ns += ns;
        }
    }

    /// Records one wildcard classification's probes.
    pub fn probes(&mut self, probes: &[(usize, LookupTrace)]) {
        self.wc_calls += 1;
        self.wc_probes += probes.len() as u64;
        for (_, tr) in probes {
            self.wc_probe_lines += tr.memory_steps() as u64;
            if self.traces.len() < TRACE_SAMPLE {
                self.traces.push(tr.clone());
            }
        }
    }

    /// Moves a worker recorder's spans and counts into this one.
    pub fn absorb(&mut self, other: Recorder) {
        assert!(
            other.open.is_empty(),
            "absorbing a recorder with open spans"
        );
        self.spans.extend(other.spans);
        self.mem_count += other.mem_count;
        self.mem_ns += other.mem_ns;
        self.wc_calls += other.wc_calls;
        self.wc_probes += other.wc_probes;
        self.wc_probe_lines += other.wc_probe_lines;
        let room = TRACE_SAMPLE.saturating_sub(self.traces.len());
        self.traces.extend(other.traces.into_iter().take(room));
    }

    /// Every recorded span.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Writes every span as one CSV row.
    pub fn write_csv(&self, w: &mut impl Write) -> std::io::Result<()> {
        writeln!(w, "id,parent,pkt,name,start_ns,end_ns,mem_accesses,mem_ns")?;
        for s in &self.spans {
            let parent = if s.parent == NO_PARENT {
                String::new()
            } else {
                s.parent.to_string()
            };
            let pkt = if s.pkt == NO_PKT {
                String::new()
            } else {
                s.pkt.to_string()
            };
            writeln!(
                w,
                "{},{},{},{},{},{},{},{}",
                s.id, parent, pkt, s.name, s.start_ns, s.end_ns, s.leaf_count, s.leaf_ns
            )?;
        }
        Ok(())
    }
}

/// Runs `f` inside a span named `name`.
pub fn in_span<R>(rec: &RefCell<Recorder>, name: &'static str, f: impl FnOnce() -> R) -> R {
    rec.borrow_mut().open(name);
    let r = f();
    rec.borrow_mut().close();
    r
}

/// Totals of every span with one name.
#[derive(Debug, Clone, Copy, Default)]
pub struct NameTotals {
    /// Spans.
    pub count: u64,
    /// Summed duration.
    pub dur_ns: u64,
    /// Summed self time: duration minus the part covered by child
    /// spans and by timed memory accesses.
    pub self_ns: u64,
}

impl NameTotals {
    /// Mean duration in ns (0 when no span).
    pub fn mean_ns(&self) -> f64 {
        self.dur_ns as f64 / self.count.max(1) as f64
    }

    /// Mean self time in ns (0 when no span).
    pub fn mean_self_ns(&self) -> f64 {
        self.self_ns as f64 / self.count.max(1) as f64
    }
}

/// Per-name totals over `spans`. Child coverage is the union of the
/// children's intervals (parallel shards under one window overlap).
pub fn totals(spans: &[Span]) -> HashMap<&'static str, NameTotals> {
    let mut children: HashMap<u64, Vec<(u64, u64)>> = HashMap::new();
    for s in spans {
        if s.parent != NO_PARENT {
            children
                .entry(s.parent)
                .or_default()
                .push((s.start_ns, s.end_ns));
        }
    }
    let mut out: HashMap<&'static str, NameTotals> = HashMap::new();
    for s in spans {
        let covered = children.get_mut(&s.id).map_or(0, |iv| union_len(iv)) + s.leaf_ns;
        let t = out.entry(s.name).or_default();
        t.count += 1;
        t.dur_ns += s.dur();
        t.self_ns += s.dur().saturating_sub(covered);
    }
    out
}

/// Total length of the union of `intervals` (sorted in place).
fn union_len(intervals: &mut [(u64, u64)]) -> u64 {
    intervals.sort_unstable();
    let mut total = 0;
    let mut cur: Option<(u64, u64)> = None;
    for &(s, e) in intervals.iter() {
        match cur {
            Some((cs, ce)) if s <= ce => cur = Some((cs, ce.max(e))),
            Some((cs, ce)) => {
                total += ce - cs;
                cur = Some((s, e));
            }
            None => cur = Some((s, e)),
        }
    }
    total + cur.map_or(0, |(s, e)| e - s)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn union_merges_overlaps() {
        let mut iv = vec![(5, 10), (0, 3), (8, 12), (20, 21)];
        assert_eq!(union_len(&mut iv), 3 + 7 + 1);
    }

    #[test]
    fn self_time_subtracts_children_and_leaves() {
        let mk = |id, parent, s, e, leaf| Span {
            id,
            parent,
            pkt: 0,
            name: if parent == NO_PARENT { "a" } else { "b" },
            start_ns: s,
            end_ns: e,
            leaf_count: 0,
            leaf_ns: leaf,
        };
        let spans = [
            mk(1, NO_PARENT, 0, 100, 10),
            mk(2, 1, 10, 40, 0),
            mk(3, 1, 30, 50, 0),
        ];
        let t = totals(&spans);
        assert_eq!(t["a"].self_ns, 100 - 40 - 10);
        assert_eq!(t["b"].count, 2);
    }
}
