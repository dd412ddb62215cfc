//! Per-layer metrics of a traced replay, named `layer.metric` after the
//! repository module they measure (see `halobench/README.md`).

use crate::replay::{program_build, Replay};
use crate::spans::totals;
use crate::workloads::Pass;

/// One named metric with its unit.
#[derive(Debug, Clone, Copy)]
pub struct Metric {
    /// Metric name.
    pub name: &'static str,
    /// Measured value.
    pub value: f64,
    /// Unit.
    pub unit: &'static str,
}

impl Metric {
    /// A metric.
    pub fn new(name: &'static str, value: f64, unit: &'static str) -> Self {
        Metric { name, value, unit }
    }
}

fn ratio(n: f64, d: f64) -> f64 {
    if d == 0.0 {
        0.0
    } else {
        n / d
    }
}

/// The per-layer metrics of `r`, with its fidelity and tracing overhead
/// against `plain`, the untraced pass over the same inputs. The count of
/// diverged replays is added by the caller, over the whole run.
pub fn layer_metrics(r: &Replay, plain: &Pass, nproc: usize) -> Vec<Metric> {
    let t = totals(r.rec.spans());
    let span = |n: &str| t.get(n).copied().unwrap_or_default();
    let c = &r.counts;
    let pk = c.packets as f64;
    let rec = &r.rec;
    let (build_ns, uops_per_prog) = program_build(&rec.traces);
    let window = span("epoch.window");
    let replay_pps = ratio(pk, r.timed_s);
    vec![
        Metric::new(
            "nf.gen_ns_per_event",
            ratio(span("nf.gen").dur_ns as f64, c.generated as f64),
            "ns",
        ),
        Metric::new(
            "vswitch.ctrl_ns_per_event",
            span("vswitch.ctrl").mean_ns(),
            "ns",
        ),
        Metric::new("vswitch.rejected_installs", c.rejected as f64, "count"),
        Metric::new(
            "datapath.classify_ns_per_pkt",
            span("datapath.classify").mean_ns(),
            "ns",
        ),
        Metric::new(
            "datapath.self_ns_per_pkt",
            span("datapath.classify").mean_self_ns(),
            "ns",
        ),
        Metric::new(
            "datapath.emc_hit_pct",
            100.0 * ratio(c.emc_hits as f64, pk),
            "%",
        ),
        Metric::new(
            "datapath.megaflow_hit_pct",
            100.0 * ratio(c.megaflow_hits as f64, pk),
            "%",
        ),
        Metric::new(
            "wildcard.classify_ns_per_call",
            span("wildcard.classify").mean_ns(),
            "ns",
        ),
        Metric::new(
            "wildcard.probes_per_lookup",
            ratio(rec.wc_probes as f64, rec.wc_calls as f64),
            "probes",
        ),
        Metric::new(
            "wildcard.lines_per_probe",
            ratio(rec.wc_probe_lines as f64, rec.wc_probes as f64),
            "lines",
        ),
        Metric::new(
            "wildcard.insert_ns",
            span("wildcard.insert").mean_ns(),
            "ns",
        ),
        Metric::new(
            "wildcard.remove_ns",
            span("wildcard.remove").mean_ns(),
            "ns",
        ),
        Metric::new(
            "wildcard.insert_range_us",
            span("wildcard.insert_range").mean_ns() / 1000.0,
            "us",
        ),
        Metric::new("cpu.prog_build_ns_per_probe", build_ns, "ns"),
        Metric::new(
            "cpu.uops_per_pkt",
            ratio(
                c.sw_programs as f64 * uops_per_prog + c.phase_uops as f64,
                pk,
            ),
            "uops",
        ),
        Metric::new(
            "mem.access_ns",
            ratio(rec.mem_ns as f64, rec.mem_count as f64),
            "ns",
        ),
        Metric::new(
            "mem.accesses_per_pkt",
            ratio(r.mem.accesses as f64, pk),
            "acc",
        ),
        Metric::new("mem.l1_hit_pct", r.mem.pct(r.mem.l1), "%"),
        Metric::new("mem.l2_hit_pct", r.mem.pct(r.mem.l2), "%"),
        Metric::new("mem.llc_hit_pct", r.mem.pct(r.mem.llc), "%"),
        Metric::new("mem.dram_pct", r.mem.pct(r.mem.dram), "%"),
        Metric::new(
            "mem.dirty_transfers_per_kpkt",
            1000.0 * ratio(r.mem.dirty as f64, pk),
            "count",
        ),
        Metric::new(
            "epoch.split_ns_per_window",
            span("epoch.split").mean_ns(),
            "ns",
        ),
        Metric::new("epoch.run_ns_per_window", span("epoch.run").mean_ns(), "ns"),
        Metric::new(
            "epoch.merge_ns_per_window",
            span("epoch.merge").mean_ns(),
            "ns",
        ),
        Metric::new(
            "epoch.pkts_per_window",
            ratio(c.window_pkts as f64, c.windows as f64),
            "pkt",
        ),
        Metric::new(
            "epoch.overlap",
            ratio(
                span("epoch.shard").dur_ns as f64,
                r.threads as f64 * window.dur_ns as f64,
            ),
            "ratio",
        ),
        Metric::new(
            "accel.queries_per_pkt",
            ratio(r.engine_queries as f64, pk),
            "count",
        ),
        Metric::new(
            "accel.snapshot_reads_per_pkt",
            ratio(r.engine_snapshots as f64, pk),
            "count",
        ),
        Metric::new(
            "accel.llc_hit_pct",
            100.0 * ratio(r.accel_llc_hit as f64, r.accel_access as f64),
            "%",
        ),
        Metric::new("accel.ns_per_query", span("accel.dispatch").mean_ns(), "ns"),
        Metric::new(
            "trace.untraced_pkts_per_kcy",
            plain.sim.pkts_per_kcy,
            "pkt/kcy",
        ),
        Metric::new("trace.replay_pkts_per_kcy", r.sim.pkts_per_kcy, "pkt/kcy"),
        Metric::new("trace.untraced_misses", plain.sim.misses as f64, "count"),
        Metric::new("trace.replay_misses", r.sim.misses as f64, "count"),
        Metric::new(
            "trace.overhead_pct",
            100.0 * (1.0 - ratio(replay_pps, plain.pkts_per_s())),
            "%",
        ),
        Metric::new("host.nproc", nproc as f64, "count"),
        Metric::new("host.threads", r.threads as f64, "count"),
    ]
}
