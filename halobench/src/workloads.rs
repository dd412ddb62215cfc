//! The three benchmark workloads: input generation from a seed, set-up
//! of the simulated machine, the timed call through the public entry
//! point, the oracle check and the simulated-output digest.
//!
//! Every pass is self-contained: it builds a fresh machine from the
//! seed, so two passes with one seed must produce one digest.

use std::collections::HashSet;

use crate::clock::Stamp;
use halo_accel::{AcceleratorConfig, HaloEngine};
use halo_check::RangeOracle;
use halo_classify::{PacketHeader, RangeRule, MINIFLOW_LEN};
use halo_datapath::TrafficEvent;
use halo_mem::{MachineConfig, MemorySystem};
use halo_nf::{generate_ruleset, ruleset_traffic, RulesetShape, StreamConfig, StreamingTrafficGen};
use halo_sim::{Cycle, Stats};
use halo_tables::FlowKey;
use halo_vswitch::{
    LookupBackend, MultiCoreConfig, MultiCoreDatapath, StreamReport, SwitchConfig, VirtualSwitch,
    WildcardBackend,
};

/// PMD cores of the multi-core workloads.
pub const CORES: usize = 4;
/// Workers the epoch executor runs on when given `threads`: it splits
/// one job per PMD core into buckets of `ceil(CORES / threads)`, so at
/// most [`CORES`] threads ever run (and only 2 at `threads` = 3).
pub fn epoch_workers(threads: usize) -> usize {
    if threads <= 1 {
        1
    } else {
        CORES.div_ceil(CORES.div_ceil(threads))
    }
}

/// Shared MegaFlow tuples of the multi-core workloads.
pub const TUPLES: usize = 8;
/// Share of `acl_tss` packets sampled inside an installed rule.
pub const ACL_HIT_FRACTION: f64 = 0.7;
/// Rule capacity of each TSS tuple in `acl_tss` (prefix expansion puts
/// up to a few hundred entries in one tuple).
pub const ACL_TUPLE_CAPACITY: usize = 2048;

/// A named workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Zipf steady state through `MultiCoreDatapath::run_stream_parallel`.
    SteadyEpoch,
    /// Churn under HALO non-blocking lookups through `MultiCoreDatapath::run_stream`.
    ChurnHaloNb,
    /// Range-rule ACL through a single-core `VirtualSwitch::process_burst`.
    AclTss,
}

impl Workload {
    /// Every workload, in report order.
    pub const ALL: [Workload; 3] = [
        Workload::SteadyEpoch,
        Workload::ChurnHaloNb,
        Workload::AclTss,
    ];

    /// The workload's command-line name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::SteadyEpoch => "steady_epoch",
            Workload::ChurnHaloNb => "churn_halo_nb",
            Workload::AclTss => "acl_tss",
        }
    }

    /// Parses a command-line name.
    pub fn parse(s: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|w| w.name() == s)
    }

    /// Input sizes of one measured pass.
    pub fn sizes(self) -> Sizes {
        match self {
            Workload::SteadyEpoch => Sizes {
                flows: 131_072,
                events: 24_000,
            },
            Workload::ChurnHaloNb => Sizes {
                flows: 131_072,
                events: 32_000,
            },
            Workload::AclTss => Sizes {
                flows: 512,
                events: 600,
            },
        }
    }

    /// OS threads the timed call runs on when given `threads`: the epoch
    /// executor's workers for `steady_epoch`, the calling thread otherwise.
    pub fn timed_threads(self, threads: usize) -> usize {
        if self == Workload::SteadyEpoch {
            epoch_workers(threads)
        } else {
            1
        }
    }

    /// Input sizes of the tiny self-check.
    pub fn tiny_sizes(self) -> Sizes {
        match self {
            Workload::SteadyEpoch | Workload::ChurnHaloNb => Sizes {
                flows: 4_096,
                events: 3_000,
            },
            Workload::AclTss => Sizes {
                flows: 64,
                events: 200,
            },
        }
    }
}

/// Input sizes of one pass: installed flows (rules for `acl_tss`) and
/// stream events (packets for `acl_tss`).
#[derive(Debug, Clone, Copy)]
pub struct Sizes {
    /// Live flows installed up front (range rules for `acl_tss`).
    pub flows: usize,
    /// Stream events (packets for `acl_tss`).
    pub events: usize,
}

/// A workload's generated inputs: all the program receives.
#[derive(Debug)]
pub enum Inputs {
    /// A traffic-event stream over `flows` pre-installed flows.
    Stream {
        /// Flows `0..flows` are installed before the stream starts.
        flows: usize,
        /// The events, in order.
        events: Vec<TrafficEvent>,
    },
    /// A range-rule set and the packets classified against it.
    Acl {
        /// Rules installed through `install_range_rule`.
        rules: Vec<RangeRule>,
        /// Packet headers, rebuilt 1:1 from the sampled miniflow keys.
        headers: Vec<PacketHeader>,
    },
}

/// Generates a workload's inputs from `seed`.
pub fn generate(w: Workload, sizes: Sizes, seed: u64) -> Inputs {
    match w {
        Workload::SteadyEpoch | Workload::ChurnHaloNb => {
            let cfg = if w == Workload::SteadyEpoch {
                StreamConfig::steady(sizes.flows)
            } else {
                StreamConfig::churn(sizes.flows)
            };
            let mut gen = StreamingTrafficGen::new(cfg, seed);
            Inputs::Stream {
                flows: sizes.flows,
                events: (0..sizes.events).map(|_| gen.next_event()).collect(),
            }
        }
        Workload::AclTss => {
            let rules = generate_ruleset(RulesetShape::AclMix, sizes.flows, seed);
            let keys = ruleset_traffic(&rules, sizes.events, ACL_HIT_FRACTION, seed ^ 0x5ca1_ab1e);
            Inputs::Acl {
                headers: keys.iter().map(header_of).collect(),
                rules,
            }
        }
    }
}

/// The packet header whose miniflow is exactly `key`.
pub fn header_of(key: &FlowKey) -> PacketHeader {
    let b: [u8; MINIFLOW_LEN] = key.as_bytes().try_into().expect("miniflow-sized key");
    let h = PacketHeader {
        src_ip: u32::from_be_bytes([b[0], b[1], b[2], b[3]]),
        dst_ip: u32::from_be_bytes([b[4], b[5], b[6], b[7]]),
        src_port: u16::from_be_bytes([b[8], b[9]]),
        dst_port: u16::from_be_bytes([b[10], b[11]]),
        proto: b[12],
        in_port: b[13],
        vlan: u16::from_be_bytes([b[14], b[15]]),
    };
    debug_assert_eq!(h.miniflow(), *key);
    h
}

/// The single-core switch configuration of `acl_tss`: TSS MegaFlow with
/// no fixed masks (tuples come from prefix expansion), software lookups.
pub fn acl_switch_config() -> SwitchConfig {
    SwitchConfig {
        megaflow_masks: Vec::new(),
        megaflow_capacity: ACL_TUPLE_CAPACITY,
        wildcard_backend: WildcardBackend::Tss,
        ..SwitchConfig::typical(0, LookupBackend::Software)
    }
}

/// The multi-core configuration of the stream workloads.
pub fn multicore_config(w: Workload, flows: usize, seed: u64) -> MultiCoreConfig {
    let backend = if w == Workload::ChurnHaloNb {
        LookupBackend::HaloNonBlocking
    } else {
        LookupBackend::Software
    };
    MultiCoreConfig::new(CORES, TUPLES, flows, backend, seed)
}

/// Memory-system counters read around the timed call.
#[derive(Debug, Clone, Copy, Default)]
pub struct MemCounts {
    /// Core loads plus stores.
    pub accesses: u64,
    /// Accesses satisfied by L1.
    pub l1: u64,
    /// ... by L2.
    pub l2: u64,
    /// ... by the LLC.
    pub llc: u64,
    /// ... by DRAM.
    pub dram: u64,
    /// Remote-dirty core-to-core transfers.
    pub dirty: u64,
}

impl MemCounts {
    /// Reads the counters of `stats`.
    pub fn read(stats: &Stats) -> Self {
        MemCounts {
            accesses: stats.counter("mem.load") + stats.counter("mem.store"),
            l1: stats.counter("l1d.hit"),
            l2: stats.counter("l2.hit"),
            llc: stats.counter("llc.hit"),
            dram: stats.counter("dram.access"),
            dirty: stats.counter("llc.dirty_snoop"),
        }
    }

    /// Counter growth from `before` to `self`.
    pub fn since(self, before: MemCounts) -> Self {
        MemCounts {
            accesses: self.accesses - before.accesses,
            l1: self.l1 - before.l1,
            l2: self.l2 - before.l2,
            llc: self.llc - before.llc,
            dram: self.dram - before.dram,
            dirty: self.dirty - before.dirty,
        }
    }

    /// Adds `other`'s counts to these.
    pub fn add(&mut self, other: MemCounts) {
        self.accesses += other.accesses;
        self.l1 += other.l1;
        self.l2 += other.l2;
        self.llc += other.llc;
        self.dram += other.dram;
        self.dirty += other.dirty;
    }

    /// `n` as a percentage of all accesses.
    pub fn pct(&self, n: u64) -> f64 {
        100.0 * n as f64 / self.accesses.max(1) as f64
    }
}

/// What one pass simulated, as checked against the oracle.
#[derive(Debug, Clone, Copy)]
pub struct SimOutcome {
    /// Packets classified.
    pub packets: u64,
    /// Packets that matched nothing.
    pub misses: u64,
    /// Rule installs attempted (flow arrivals, or range rules).
    pub installs: u64,
    /// Simulated packets per kilocycle.
    pub pkts_per_kcy: f64,
    /// Outcomes that disagree with the oracle, plus refused installs.
    pub failed: u64,
    /// Digest of the report fields and the sorted simulator counters.
    pub digest: u64,
}

impl SimOutcome {
    /// Operations attempted: packets plus installs.
    pub fn attempted(&self) -> u64 {
        self.packets + self.installs
    }
}

/// One measured pass of a workload.
#[derive(Debug, Clone, Copy)]
pub struct Pass {
    /// Host seconds from the start of the pass to the first timed packet.
    pub setup_s: f64,
    /// Host seconds of the timed call, net of steal (see [`crate::clock`]).
    pub timed_s: f64,
    /// Wall-clock seconds of the timed call.
    pub wall_s: f64,
    /// Mean vCPU steal share during the timed call.
    pub steal: f64,
    /// One-thread regions of the pass in which other threads of the
    /// process worked too (see [`crate::clock::Elapsed::shared`]).
    pub shared_regions: u32,
    /// Memory counters of the timed call.
    pub mem: MemCounts,
    /// The simulated outcome.
    pub sim: SimOutcome,
}

impl Pass {
    /// Packets classified per host second of the timed call.
    pub fn pkts_per_s(&self) -> f64 {
        self.sim.packets as f64 / self.timed_s
    }

    /// Simulated memory accesses per host second of the timed call.
    pub fn accesses_per_s(&self) -> f64 {
        self.mem.accesses as f64 / self.timed_s
    }

    /// Packets classified per wall-clock second of the timed call.
    pub fn wall_pkts_per_s(&self) -> f64 {
        self.sim.packets as f64 / self.wall_s
    }
}

/// A workload's machine after set-up, ready for the timed call.
#[derive(Debug)]
#[allow(clippy::large_enum_variant)] // one per pass, built in place and never moved in a loop
pub enum Machine {
    /// Multi-core datapath (plus the HALO engine under churn).
    Multi {
        /// The memory system.
        sys: MemorySystem,
        /// The datapath.
        dp: MultiCoreDatapath,
        /// The engine, for the HALO backend.
        engine: Option<HaloEngine>,
    },
    /// Single-core virtual switch.
    Switch {
        /// The memory system.
        sys: MemorySystem,
        /// The switch.
        vs: VirtualSwitch,
        /// Range-rule installs the switch refused.
        rejected: u64,
    },
}

impl Machine {
    /// Builds the machine for `inputs`: memory system, datapath, rule
    /// install and LLC warm.
    pub fn build(w: Workload, inputs: &Inputs, seed: u64) -> Self {
        let mut sys = MemorySystem::new(MachineConfig::default());
        match inputs {
            Inputs::Stream { flows, .. } => {
                let dp =
                    MultiCoreDatapath::with_config(&mut sys, multicore_config(w, *flows, seed));
                let engine = (w == Workload::ChurnHaloNb)
                    .then(|| HaloEngine::new(&sys, AcceleratorConfig::default()));
                Machine::Multi { sys, dp, engine }
            }
            Inputs::Acl { rules, .. } => {
                let mut vs = VirtualSwitch::new(&mut sys, halo_mem::CoreId(0), acl_switch_config());
                let rejected = rules
                    .iter()
                    .filter(|r| vs.install_range_rule(&mut sys, r).is_err())
                    .count() as u64;
                vs.warm_tables(&mut sys);
                Machine::Switch { sys, vs, rejected }
            }
        }
    }

    /// The memory system.
    pub fn sys(&self) -> &MemorySystem {
        match self {
            Machine::Multi { sys, .. } | Machine::Switch { sys, .. } => sys,
        }
    }
}

/// The timed call's raw result, checked after the clock stops.
#[derive(Debug)]
pub enum RawResult {
    /// A stream report.
    Stream(StreamReport),
    /// Per-packet `(action, completion)` pairs and the final cycle.
    Burst(Vec<(Option<u64>, Cycle)>, Cycle),
}

/// The timed call: the workload's public entry point over its inputs.
pub fn timed_call(w: Workload, m: &mut Machine, inputs: &Inputs, threads: usize) -> RawResult {
    match (m, inputs) {
        (Machine::Multi { sys, dp, engine }, Inputs::Stream { events, .. }) => {
            let ev = events.iter().copied();
            RawResult::Stream(if w == Workload::SteadyEpoch {
                dp.run_stream_parallel(sys, ev, threads)
            } else {
                dp.run_stream(sys, engine.as_mut(), ev)
            })
        }
        (Machine::Switch { sys, vs, .. }, Inputs::Acl { headers, .. }) => {
            let mut out = Vec::with_capacity(headers.len());
            let end = vs.process_burst(sys, None, headers, Cycle(0), &mut out);
            RawResult::Burst(out, end)
        }
        _ => unreachable!("machine and inputs come from one workload"),
    }
}

/// FNV-1a over a sequence of words: the simulated-output digest.
#[derive(Debug, Clone, Copy)]
pub struct Digest(u64);

impl Digest {
    /// An empty digest.
    pub fn new() -> Self {
        Digest(0xcbf2_9ce4_8422_2325)
    }

    /// Mixes in one word.
    pub fn word(&mut self, v: u64) {
        for b in v.to_le_bytes() {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0100_0000_01b3);
        }
    }

    /// Mixes in a string.
    pub fn text(&mut self, s: &str) {
        self.word(s.len() as u64);
        for b in s.bytes() {
            self.word(u64::from(b));
        }
    }

    /// Mixes in every nonzero counter of `stats`, sorted by name.
    pub fn stats(&mut self, stats: &Stats) {
        let mut all: Vec<(&str, u64)> = stats.counters().collect();
        all.sort_unstable();
        for (k, v) in all {
            self.text(k);
            self.word(v);
        }
    }

    /// The digest value.
    pub fn value(self) -> u64 {
        self.0
    }
}

/// Misses the live-flow oracle expects for a stream over flows
/// `0..flows`: a packet misses exactly when its flow is not live.
pub fn expected_stream_misses(flows: usize, events: &[TrafficEvent]) -> u64 {
    let mut live: HashSet<u64> = (0..flows as u64).collect();
    let mut misses = 0;
    for ev in events {
        match *ev {
            TrafficEvent::Packet(f) => misses += u64::from(!live.contains(&f)),
            TrafficEvent::Arrival(f) => {
                live.insert(f);
            }
            TrafficEvent::Expiry(f) => {
                live.remove(&f);
            }
        }
    }
    misses
}

/// Counts `acl_tss` outcomes that disagree with the range oracle: a hit
/// must carry the action of an installed rule containing the key, and a
/// miss must match no rule.
pub fn acl_disagreements(
    rules: &[RangeRule],
    headers: &[PacketHeader],
    actions: impl Iterator<Item = Option<u64>>,
) -> u64 {
    let mut oracle = RangeOracle::new();
    for r in rules {
        oracle.insert(r);
    }
    headers
        .iter()
        .zip(actions)
        .filter(|(h, action)| {
            let key = h.miniflow();
            match action {
                Some(a) => !rules.iter().any(|r| r.action == *a && r.matches(&key)),
                None => oracle.classify(&key).is_some(),
            }
        })
        .count() as u64
}

/// Digest of a stream run: report fields, per-core packet counts and
/// the sorted memory-system and engine counters.
pub fn stream_digest(
    r: &StreamReport,
    per_core: &[u64],
    sys: &MemorySystem,
    engine: Option<&HaloEngine>,
) -> u64 {
    let mut d = Digest::new();
    for v in [
        r.cores as u64,
        r.packets,
        r.misses,
        r.arrivals,
        r.expiries,
        r.rejected_installs,
        r.cycles,
        r.throughput_per_kcy.to_bits(),
        r.dirty_transfers,
    ] {
        d.word(v);
    }
    for &p in per_core {
        d.word(p);
    }
    d.stats(sys.stats());
    if let Some(e) = engine {
        d.stats(e.stats());
    }
    d.value()
}

/// Checks a stream report against the oracle and digests it.
pub fn check_stream(
    r: &StreamReport,
    flows: usize,
    events: &[TrafficEvent],
    digest: u64,
) -> SimOutcome {
    let expected = expected_stream_misses(flows, events);
    SimOutcome {
        packets: r.packets,
        misses: r.misses,
        installs: r.arrivals,
        pkts_per_kcy: r.throughput_per_kcy,
        failed: expected.abs_diff(r.misses) + r.rejected_installs,
        digest,
    }
}

/// The switch counters and per-phase cycles a burst digest covers.
#[derive(Debug, Clone, Copy, Default)]
pub struct BurstSummary {
    /// Packets, EMC hits, MegaFlow hits, OpenFlow hits, misses.
    pub counters: [u64; 5],
    /// io, preproc, emc, megaflow, openflow, other cycles.
    pub breakdown: [u64; 6],
}

impl BurstSummary {
    /// The summary of `vs`.
    pub fn of(vs: &VirtualSwitch) -> Self {
        let c = vs.counters();
        let b = vs.breakdown();
        BurstSummary {
            counters: [
                c.packets,
                c.emc_hits,
                c.megaflow_hits,
                c.openflow_hits,
                c.misses,
            ],
            breakdown: [b.io, b.preproc, b.emc, b.megaflow, b.openflow, b.other].map(|c| c.0),
        }
    }

    /// Digest of a burst run: per-packet outcomes, the switch counters
    /// and breakdown, and the sorted memory-system counters.
    pub fn digest(&self, sys: &MemorySystem, out: &[(Option<u64>, Cycle)]) -> u64 {
        let mut d = Digest::new();
        for (a, t) in out {
            d.word(a.unwrap_or(u64::MAX));
            d.word(t.0);
        }
        for v in self.counters.into_iter().chain(self.breakdown) {
            d.word(v);
        }
        d.stats(sys.stats());
        d.value()
    }
}

/// Simulated packets per kilocycle of a burst that started at cycle 0.
pub fn burst_pkts_per_kcy(packets: usize, end: Cycle) -> f64 {
    1000.0 * packets as f64 / end.0.max(1) as f64
}

/// Runs one pass: set-up, timed call, oracle check and digest.
pub fn run_pass(w: Workload, sizes: Sizes, seed: u64, threads: usize) -> Pass {
    let t0 = Stamp::now();
    let inputs = generate(w, sizes, seed);
    let mut m = Machine::build(w, &inputs, seed);
    let setup = t0.elapsed(1);
    let before = MemCounts::read(m.sys().stats());
    let t1 = Stamp::now();
    let raw = timed_call(w, &mut m, &inputs, threads);
    let timed = t1.elapsed(w.timed_threads(threads));
    let mem = MemCounts::read(m.sys().stats()).since(before);
    let sim = match (&m, &inputs, &raw) {
        (
            Machine::Multi { sys, dp, engine },
            Inputs::Stream { flows, events },
            RawResult::Stream(r),
        ) => {
            let digest = stream_digest(r, &dp.per_core_packets(), sys, engine.as_ref());
            check_stream(r, *flows, events, digest)
        }
        (
            Machine::Switch { sys, vs, rejected },
            Inputs::Acl { rules, headers },
            RawResult::Burst(out, end),
        ) => {
            let wrong = acl_disagreements(rules, headers, out.iter().map(|o| o.0));
            SimOutcome {
                packets: out.len() as u64,
                misses: vs.counters().misses,
                installs: rules.len() as u64,
                pkts_per_kcy: burst_pkts_per_kcy(out.len(), *end),
                failed: wrong + rejected,
                digest: BurstSummary::of(vs).digest(sys, out),
            }
        }
        _ => unreachable!("machine and inputs come from one workload"),
    };
    Pass {
        setup_s: setup.secs,
        timed_s: timed.secs,
        wall_s: timed.wall,
        steal: timed.steal,
        shared_regions: u32::from(setup.shared) + u32::from(timed.shared),
        mem,
        sim,
    }
}
