//! The traced replay: each workload rebuilt from public constructors and
//! driven one layer below its entry point, with spans recorded around
//! the calls into each layer.
//!
//! * `steady_epoch` replays `run_stream_parallel`'s windows itself:
//!   `MemorySystem::epoch_split`, `DatapathCore::classify_epoch` per
//!   shard on worker threads, `MemorySystem::epoch_merge`.
//! * `churn_halo_nb` replays `run_stream`: the control plane on the
//!   `WildcardTable`, and each packet's EMC probe, MegaFlow search and
//!   `HaloEngine` dispatch (the parts `DatapathCore::classify` is made
//!   of, so the memory accesses of the core can be timed).
//! * `acl_tss` replays `VirtualSwitch::process_packet`: the packet-IO,
//!   pre-processing and action phases, with classification through
//!   `DatapathCore::classify_epoch` on the classic memory system (the
//!   software-only, `CoreMem`-generic form of `classify`).
//!
//! Memory accesses are timed by [`TimedMem`], a `CoreMem` around the
//! real memory system or epoch shard; classifications by
//! [`TimedTable`], a `WildcardTable` around the real matcher. The
//! replay's digest must equal the untraced run's: a divergence means
//! the replay no longer mirrors the program and is reported.

use std::cell::RefCell;
use std::time::Instant;

use halo_accel::{AcceleratorConfig, HaloEngine};
use halo_classify::{
    distinct_masks, Emc, PacketHeader, RangeRule, RuleMatch, SearchMode, WildcardMask,
};
use halo_cpu::{build_sw_lookup_into, ExecReport, Program, Scratch};
use halo_datapath::{
    DatapathCore, LookupBackend, LookupExecutor, NbRegion, TableBackend, TrafficEvent,
    WildcardError, WildcardMatcher, WildcardTable,
};
use halo_mem::{
    AccessKind, AccessOutcome, Addr, CoreId, CoreMem, EpochCore, MachineConfig, MemorySystem,
    SimMemory, WindowOutcome, CACHE_LINE,
};
use halo_sim::{Cycle, Cycles};
use halo_tables::{hash_key, FlowKey, LookupTrace, SEED_PRIMARY};
use halo_vswitch::StreamReport;

use crate::clock::Stamp;
use crate::spans::{in_span, Recorder, NO_PKT};
use crate::workloads::{
    acl_disagreements, acl_switch_config, burst_pkts_per_kcy, check_stream, generate,
    multicore_config, stream_digest, BurstSummary, Inputs, MemCounts, SimOutcome, Sizes, Workload,
};

/// Packets per epoch window when no control event closes it sooner (the
/// multi-core datapath's window bound).
const WINDOW_PKTS: usize = 1024;
/// EMC slots per PMD core in the multi-core datapath.
const PMD_EMC_ENTRIES: usize = 1024;
/// Packet-buffer ring slots of the virtual switch.
const RING_SLOTS: u64 = 64;
/// Micro-ops of the switch's packet-IO, pre-processing and action phases.
const IO_UOPS: usize = 440;
const PREPROC_UOPS: usize = 170;
const OTHER_UOPS: usize = 140;

/// A `CoreMem` that times every access of the context it wraps.
#[derive(Debug)]
pub struct TimedMem<'a, S: CoreMem> {
    inner: &'a mut S,
    rec: &'a RefCell<Recorder>,
}

impl<'a, S: CoreMem> TimedMem<'a, S> {
    /// Wraps `inner`, recording into `rec`.
    pub fn new(inner: &'a mut S, rec: &'a RefCell<Recorder>) -> Self {
        TimedMem { inner, rec }
    }
}

impl<S: CoreMem> CoreMem for TimedMem<'_, S> {
    type Data = S::Data;

    fn data_mut(&mut self) -> &mut S::Data {
        self.inner.data_mut()
    }
    fn base(&self) -> &SimMemory {
        self.inner.base()
    }
    fn config(&self) -> &MachineConfig {
        self.inner.config()
    }
    fn access(&mut self, core: CoreId, addr: Addr, kind: AccessKind, at: Cycle) -> AccessOutcome {
        let t0 = Instant::now();
        let out = self.inner.access(core, addr, kind, at);
        self.rec.borrow_mut().leaf(t0.elapsed().as_nanos() as u64);
        out
    }
    fn trace_enabled(&self) -> bool {
        self.inner.trace_enabled()
    }
    fn trace_span(&mut self, component: &'static str, op: &'static str, start: Cycle, end: Cycle) {
        self.inner.trace_span(component, op, start, end);
    }
}

/// A read-only `WildcardTable` view that times every classification of
/// the matcher it wraps. Rule changes go to the matcher itself.
#[derive(Debug)]
pub struct TimedTable<'a> {
    inner: &'a WildcardMatcher,
    rec: &'a RefCell<Recorder>,
}

impl<'a> TimedTable<'a> {
    /// Wraps `inner`, recording into `rec`.
    pub fn new(inner: &'a WildcardMatcher, rec: &'a RefCell<Recorder>) -> Self {
        TimedTable { inner, rec }
    }
}

const READ_ONLY: &str = "TimedTable is a classification view; change rules on the matcher";

impl WildcardTable for TimedTable<'_> {
    fn name(&self) -> &'static str {
        self.inner.name()
    }
    fn rules(&self) -> usize {
        self.inner.rules()
    }
    fn probes(&self) -> usize {
        self.inner.probes()
    }
    fn insert_masked(
        &mut self,
        _mem: &mut SimMemory,
        _mask: &WildcardMask,
        _key: &FlowKey,
        _priority: u16,
        _action: u64,
    ) -> Result<Option<(u16, u64)>, WildcardError> {
        unreachable!("{READ_ONLY}")
    }
    fn remove_masked(
        &mut self,
        _mem: &mut SimMemory,
        _mask: &WildcardMask,
        _key: &FlowKey,
    ) -> Option<(u16, u64)> {
        unreachable!("{READ_ONLY}")
    }
    fn insert_range(
        &mut self,
        _mem: &mut SimMemory,
        _rule: &RangeRule,
    ) -> Result<Option<(u16, u64)>, WildcardError> {
        unreachable!("{READ_ONLY}")
    }
    fn remove_range(&mut self, _mem: &mut SimMemory, _rule: &RangeRule) -> Option<(u16, u64)> {
        unreachable!("{READ_ONLY}")
    }
    fn classify_traced(
        &self,
        mem: &SimMemory,
        key: &FlowKey,
        software_locking: bool,
    ) -> (Option<RuleMatch>, Vec<(usize, LookupTrace)>) {
        let (m, probes) = in_span(self.rec, "wildcard.classify", || {
            self.inner.classify_traced(mem, key, software_locking)
        });
        self.rec.borrow_mut().probes(&probes);
        (m, probes)
    }
    fn probe_meta_addr(&self, probe: usize) -> Option<Addr> {
        self.inner.probe_meta_addr(probe)
    }
    fn probe_version_addr(&self, probe: usize) -> Option<Addr> {
        self.inner.probe_version_addr(probe)
    }
    fn memory_lines(&self) -> Vec<Addr> {
        self.inner.memory_lines()
    }
}

/// Counts the replay keeps beside its spans.
#[derive(Debug, Clone, Copy, Default)]
pub struct ReplayCounts {
    /// Packets classified.
    pub packets: u64,
    /// Packets that hit in an EMC.
    pub emc_hits: u64,
    /// Packets that hit in MegaFlow.
    pub megaflow_hits: u64,
    /// Software lookup programs run (EMC probes plus software probes).
    pub sw_programs: u64,
    /// Micro-ops of the switch's fixed pipeline phases.
    pub phase_uops: u64,
    /// Refused installs.
    pub rejected: u64,
    /// Epoch windows run.
    pub windows: u64,
    /// Packets run inside epoch windows.
    pub window_pkts: u64,
    /// Events generated.
    pub generated: u64,
}

/// What one traced replay produced.
#[derive(Debug)]
pub struct Replay {
    /// The simulated outcome, checked like the untraced run's.
    pub sim: SimOutcome,
    /// Host seconds of the replayed event loop (traced), net of steal.
    pub timed_s: f64,
    /// Memory-system counters of the event loop.
    pub mem: MemCounts,
    /// HALO engine queries in the event loop.
    pub engine_queries: u64,
    /// HALO snapshot reads in the event loop.
    pub engine_snapshots: u64,
    /// Accelerator memory accesses in the event loop.
    pub accel_access: u64,
    /// Accelerator accesses that hit the LLC.
    pub accel_llc_hit: u64,
    /// Counts kept beside the spans.
    pub counts: ReplayCounts,
    /// Every span, and the timed leaves.
    pub rec: Recorder,
    /// OS threads the timed loop ran on: the epoch workers that ran for
    /// `steady_epoch`, 1 otherwise.
    pub threads: usize,
}

/// One PMD core of the replayed multi-core datapath.
#[derive(Debug)]
struct Pmd {
    dp: DatapathCore,
    clock: Cycle,
    packets: u64,
}

/// The multi-core datapath rebuilt from its public parts, in the
/// allocation order of `MultiCoreDatapath::with_config`.
#[derive(Debug)]
struct Multi {
    pmds: Vec<Pmd>,
    megaflow: WildcardMatcher,
    masks: Vec<WildcardMask>,
}

impl Multi {
    fn build(sys: &mut MemorySystem, w: Workload, flows: usize, seed: u64) -> Self {
        let cfg = multicore_config(w, flows, seed);
        let entries_per_tuple = cfg.flows / cfg.tuples + 512;
        let masks = distinct_masks(cfg.tuples);
        let mut megaflow = cfg.wildcard_backend.build(
            sys.data_mut(),
            cfg.table_backend,
            &masks,
            entries_per_tuple,
            SearchMode::FirstMatch,
        );
        for f in 0..cfg.flows as u64 {
            let key = PacketHeader::synthetic(f).miniflow();
            megaflow
                .insert_masked(
                    sys.data_mut(),
                    &masks[(f % cfg.tuples as u64) as usize],
                    &key,
                    0,
                    f,
                )
                .expect("tuple sized for its share");
        }
        for a in megaflow.memory_lines() {
            sys.warm_llc(a);
        }
        let parts: Vec<(LookupExecutor, Emc)> = (0..cfg.cores)
            .map(|c| {
                let exec = LookupExecutor::new(sys, CoreId(c), cfg.backend);
                exec.warm_scratch(sys);
                (exec, Emc::new(sys.data_mut(), PMD_EMC_ENTRIES))
            })
            .collect();
        let lines_per_core = NbRegion::lines_for(megaflow.probes().max(cfg.tuples));
        let nb_base = sys
            .data_mut()
            .alloc_lines(lines_per_core * CACHE_LINE * cfg.cores as u64);
        let slots = lines_per_core as usize * NbRegion::SLOTS_PER_LINE;
        let pmds = parts
            .into_iter()
            .enumerate()
            .map(|(p, (exec, emc))| {
                let nb =
                    NbRegion::from_raw(nb_base + p as u64 * lines_per_core * CACHE_LINE, slots);
                Pmd {
                    dp: DatapathCore::new(
                        exec.with_nb_region(nb),
                        Some(emc),
                        LookupBackend::Software,
                        cfg.emc_promotion,
                    ),
                    clock: Cycle::ZERO,
                    packets: 0,
                }
            })
            .collect();
        Multi {
            pmds,
            megaflow,
            masks,
        }
    }

    fn rss(&self, flow: u64) -> usize {
        (hash_key(&PacketHeader::synthetic(flow).miniflow(), SEED_PRIMARY) % self.pmds.len() as u64)
            as usize
    }

    fn front(&self) -> Cycle {
        Cycle(self.pmds.iter().map(|p| p.clock.0).max().unwrap_or(0))
    }

    /// The revalidator's timed store to the version line serving tuple `ti`.
    fn revalidate(&self, sys: &mut TimedMem<'_, MemorySystem>, ti: usize, at: Cycle) {
        let wcore = CoreId(sys.config().cores - 1);
        let slot = ti % self.megaflow.probes().max(1);
        if let Some(va) = self.megaflow.probe_version_addr(slot) {
            sys.access(wcore, va, AccessKind::Store, at);
        }
    }

    /// Applies one arrival or expiry, as the stream runners do.
    fn control(
        &mut self,
        sys: &mut MemorySystem,
        ev: TrafficEvent,
        r: &mut StreamReport,
        rec: &RefCell<Recorder>,
    ) {
        let flow = ev.flow();
        let key = PacketHeader::synthetic(flow).miniflow();
        let ti = (flow % self.masks.len() as u64) as usize;
        let at = self.front();
        in_span(rec, "vswitch.ctrl", || match ev {
            TrafficEvent::Arrival(_) => {
                let ok = in_span(rec, "wildcard.insert", || {
                    self.megaflow
                        .insert_masked(sys.data_mut(), &self.masks[ti], &key, 0, flow)
                        .is_ok()
                });
                if !ok {
                    r.rejected_installs += 1;
                }
                self.revalidate(&mut TimedMem::new(sys, rec), ti, at);
                r.arrivals += 1;
            }
            TrafficEvent::Expiry(_) => {
                in_span(rec, "wildcard.remove", || {
                    self.megaflow
                        .remove_masked(sys.data_mut(), &self.masks[ti], &key)
                });
                in_span(rec, "datapath.invalidate", || {
                    for pmd in &mut self.pmds {
                        pmd.dp.invalidate(sys.data_mut(), &key);
                    }
                });
                self.revalidate(&mut TimedMem::new(sys, rec), ti, at);
                r.expiries += 1;
            }
            TrafficEvent::Packet(_) => unreachable!("packets are not control events"),
        });
    }

    fn finish(&self, r: &mut StreamReport, dirty: u64) {
        r.cycles = self.front().0.max(1);
        r.throughput_per_kcy = 1000.0 * r.packets as f64 / r.cycles as f64;
        r.dirty_transfers = dirty;
    }
}

/// One core's epoch-window job.
struct Job<'a> {
    shard: EpochCore<'a>,
    pmd: &'a mut Pmd,
    flows: Vec<(u64, u64)>,
}

/// Runs one core's window on the calling thread, recording spans under
/// `parent`. Returns the outcome to merge, the matches, the EMC hits and
/// the recorder.
fn exec_job(
    job: Job<'_>,
    megaflow: &WildcardMatcher,
    epoch: Instant,
    tag: u64,
    parent: u64,
) -> (WindowOutcome, u64, u64, Recorder) {
    let Job {
        mut shard,
        pmd,
        flows,
    } = job;
    let rec = RefCell::new(Recorder::child(epoch, tag, parent));
    let (mut matched, mut emc_hits) = (0, 0);
    in_span(&rec, "epoch.shard", || {
        let table = TimedTable::new(megaflow, &rec);
        for &(flow, pkt) in &flows {
            let key = PacketHeader::synthetic(flow).miniflow();
            pmd.packets += 1;
            rec.borrow_mut().pkt = pkt;
            let out = in_span(&rec, "datapath.classify", || {
                pmd.dp.classify_epoch(
                    &mut TimedMem::new(&mut shard, &rec),
                    &table,
                    &key,
                    None,
                    pmd.clock,
                )
            });
            pmd.clock = out.done;
            matched += u64::from(out.action.is_some());
            emc_hits += u64::from(out.emc_hit);
        }
    });
    (shard.finish(), matched, emc_hits, rec.into_inner())
}

/// Replays one epoch window: split, per-core shards on `threads` OS
/// threads, merge in core order.
fn run_window(
    m: &mut Multi,
    sys: &mut MemorySystem,
    batch: &[(u64, usize, u64)],
    threads: usize,
    rec: &RefCell<Recorder>,
    counts: &mut ReplayCounts,
) -> u64 {
    let cores = m.pmds.len();
    let mut per_core: Vec<Vec<(u64, u64)>> = vec![Vec::new(); cores];
    for &(flow, p, pkt) in batch {
        per_core[p].push((flow, pkt));
    }
    rec.borrow_mut().pkt = NO_PKT;
    rec.borrow_mut().open("epoch.window");
    rec.borrow_mut().open("epoch.split");
    let shards = sys.epoch_split(cores);
    rec.borrow_mut().close();
    let mut jobs: Vec<Job> = shards
        .into_iter()
        .zip(m.pmds.iter_mut())
        .zip(per_core)
        .map(|((shard, pmd), flows)| Job { shard, pmd, flows })
        .collect();
    let run_id = rec.borrow_mut().open("epoch.run");
    let epoch = rec.borrow().epoch();
    let megaflow = &m.megaflow;
    let mut results = Vec::with_capacity(cores);
    if threads <= 1 {
        for job in jobs {
            let tag = rec.borrow_mut().new_tag();
            results.push(exec_job(job, megaflow, epoch, tag, run_id));
        }
    } else {
        let per = jobs.len().div_ceil(threads);
        let mut buckets = Vec::new();
        while !jobs.is_empty() {
            let take = per.min(jobs.len());
            let tags: Vec<u64> = (0..take).map(|_| rec.borrow_mut().new_tag()).collect();
            buckets.push((jobs.drain(..take).collect::<Vec<Job>>(), tags));
        }
        std::thread::scope(|s| {
            let handles: Vec<_> = buckets
                .into_iter()
                .map(|(bucket, tags)| {
                    s.spawn(move || {
                        bucket
                            .into_iter()
                            .zip(tags)
                            .map(|(j, tag)| exec_job(j, megaflow, epoch, tag, run_id))
                            .collect::<Vec<_>>()
                    })
                })
                .collect();
            for h in handles {
                results.extend(h.join().expect("window worker panicked"));
            }
        });
    }
    rec.borrow_mut().close();
    let mut outcomes = Vec::with_capacity(cores);
    let mut matched = 0;
    for (o, mt, emc, r) in results {
        outcomes.push(o);
        matched += mt;
        counts.emc_hits += emc;
        rec.borrow_mut().absorb(r);
    }
    in_span(rec, "epoch.merge", || sys.epoch_merge(outcomes));
    rec.borrow_mut().close();
    counts.windows += 1;
    counts.window_pkts += batch.len() as u64;
    matched
}

/// The EMC probe, MegaFlow search and promotion of
/// `DatapathCore::classify` for a software-EMC core, with the core's
/// memory accesses timed and HALO dispatches in their own spans.
/// Returns the action, whether the EMC hit, and the completion cycle.
#[allow(clippy::too_many_arguments)] // the classify operands plus the recorder
fn classify_classic(
    dp: &mut DatapathCore,
    sys: &mut MemorySystem,
    engine: Option<&mut HaloEngine>,
    megaflow: &WildcardMatcher,
    key: &FlowKey,
    at: Cycle,
    rec: &RefCell<Recorder>,
    counts: &mut ReplayCounts,
) -> (Option<u64>, bool, Cycle) {
    let mut t = at;
    if let Some(emc) = dp.emc() {
        let trace = emc.lookup_traced(sys.data(), key);
        t = dp
            .exec_mut()
            .run_sw(&mut TimedMem::new(sys, rec), &trace, None, t);
        counts.sw_programs += 1;
        if let Some(v) = trace.result {
            return (Some(v), true, t);
        }
    }
    let backend = dp.exec().backend();
    let (m, probes) = TimedTable::new(megaflow, rec).classify_traced(
        sys.data(),
        key,
        backend == LookupBackend::Software,
    );
    let done = match backend {
        LookupBackend::Software => {
            for (_, tr) in &probes {
                t = dp
                    .exec_mut()
                    .run_sw(&mut TimedMem::new(sys, rec), tr, None, t);
            }
            counts.sw_programs += probes.len() as u64;
            t
        }
        LookupBackend::HaloNonBlocking => {
            let engine = engine.expect("HALO backend needs an engine");
            let nb = *dp
                .exec()
                .nb_region()
                .expect("non-blocking backend needs an NbRegion");
            let core = dp.exec().core_id();
            let mut finish = t;
            for (slot, (i, tr)) in probes.iter().enumerate() {
                let h = hash_key(key, SEED_PRIMARY) ^ (*i as u64);
                let table = megaflow.probe_meta_addr(*i).expect("in-memory table");
                let out = in_span(rec, "accel.dispatch", || {
                    engine.dispatch(
                        sys,
                        core,
                        table,
                        tr,
                        h,
                        None,
                        Some(nb.dest(slot)),
                        t + Cycles(slot as u64),
                    )
                });
                finish = finish.max(out.complete);
            }
            let lines = (probes.len() as u64).div_ceil(NbRegion::SLOTS_PER_LINE as u64);
            for l in 0..lines {
                let (_, snap) = in_span(rec, "accel.snapshot_read", || {
                    engine.snapshot_read(sys, core, nb.line(l), finish)
                });
                finish = snap;
            }
            finish
        }
        LookupBackend::HaloBlocking => unreachable!("no workload uses LOOKUP_B"),
    };
    if let Some(hit) = &m {
        dp.promote(sys.data_mut(), key, hit.action);
    }
    (m.map(|h| h.action), false, done)
}

/// Replays a stream workload; `epoch` selects the windowed parallel
/// executor (`steady_epoch`) over the classic one (`churn_halo_nb`).
fn replay_stream(w: Workload, sizes: Sizes, seed: u64, threads: usize) -> Replay {
    let rec = RefCell::new(Recorder::new(Instant::now()));
    let mut counts = ReplayCounts::default();
    let inputs = in_span(&rec, "nf.gen", || generate(w, sizes, seed));
    let Inputs::Stream { flows, events } = &inputs else {
        unreachable!("stream workload")
    };
    counts.generated = events.len() as u64;
    let mut sys = MemorySystem::new(MachineConfig::default());
    let mut m = in_span(&rec, "vswitch.build", || {
        Multi::build(&mut sys, w, *flows, seed)
    });
    let mut engine =
        (w == Workload::ChurnHaloNb).then(|| HaloEngine::new(&sys, AcceleratorConfig::default()));
    let before = MemCounts::read(sys.stats());
    let accel_before = (
        sys.stats().counter("accel.access"),
        sys.stats().counter("accel.llc_hit"),
    );
    let mut r = StreamReport {
        cores: m.pmds.len(),
        ..StreamReport::default()
    };
    let epoch_mode = w == Workload::SteadyEpoch;
    let t0 = Stamp::now();
    let mut batch: Vec<(u64, usize, u64)> = Vec::with_capacity(WINDOW_PKTS);
    let flush = |m: &mut Multi,
                 sys: &mut MemorySystem,
                 batch: &mut Vec<(u64, usize, u64)>,
                 r: &mut StreamReport,
                 counts: &mut ReplayCounts| {
        if batch.is_empty() {
            return;
        }
        let matched = run_window(m, sys, batch, threads, &rec, counts);
        r.packets += batch.len() as u64;
        r.misses += batch.len() as u64 - matched;
        batch.clear();
    };
    for (i, &ev) in events.iter().enumerate() {
        match ev {
            TrafficEvent::Packet(flow) => {
                let p = m.rss(flow);
                if epoch_mode {
                    batch.push((flow, p, i as u64));
                    if batch.len() >= WINDOW_PKTS {
                        flush(&mut m, &mut sys, &mut batch, &mut r, &mut counts);
                    }
                    continue;
                }
                rec.borrow_mut().pkt = i as u64;
                let key = PacketHeader::synthetic(flow).miniflow();
                let pmd = &mut m.pmds[p];
                pmd.packets += 1;
                let (action, emc_hit, done) = in_span(&rec, "datapath.classify", || {
                    classify_classic(
                        &mut pmd.dp,
                        &mut sys,
                        engine.as_mut(),
                        &m.megaflow,
                        &key,
                        pmd.clock,
                        &rec,
                        &mut counts,
                    )
                });
                pmd.clock = done;
                r.packets += 1;
                r.misses += u64::from(action.is_none());
                counts.emc_hits += u64::from(emc_hit);
            }
            TrafficEvent::Arrival(_) | TrafficEvent::Expiry(_) => {
                flush(&mut m, &mut sys, &mut batch, &mut r, &mut counts);
                rec.borrow_mut().pkt = i as u64;
                m.control(&mut sys, ev, &mut r, &rec);
            }
        }
    }
    flush(&mut m, &mut sys, &mut batch, &mut r, &mut counts);
    let timed_s = t0.elapsed(w.timed_threads(threads)).secs;
    let mem = MemCounts::read(sys.stats()).since(before);
    m.finish(&mut r, mem.dirty);
    counts.packets = r.packets;
    counts.megaflow_hits = r.packets - r.misses - counts.emc_hits;
    counts.rejected = r.rejected_installs;
    if epoch_mode {
        // Every packet's EMC probe and every probe of an EMC miss is one
        // software lookup program.
        counts.sw_programs = r.packets + rec.borrow().wc_probes;
    }
    let per_core: Vec<u64> = m.pmds.iter().map(|p| p.packets).collect();
    let digest = stream_digest(&r, &per_core, &sys, engine.as_ref());
    let (queries, snapshots) = engine.as_ref().map_or((0, 0), |e| {
        (
            e.stats().counter("engine.queries"),
            e.stats().counter("engine.snapshot_read"),
        )
    });
    Replay {
        sim: check_stream(&r, *flows, events, digest),
        timed_s,
        mem,
        engine_queries: queries,
        engine_snapshots: snapshots,
        accel_access: sys.stats().counter("accel.access") - accel_before.0,
        accel_llc_hit: sys.stats().counter("accel.llc_hit") - accel_before.1,
        counts,
        rec: rec.into_inner(),
        threads: w.timed_threads(threads),
    }
}

/// A filler program of the switch's fixed phases, as the switch builds
/// it: the given buffer loads, scratch loads up to a fifth of `uops`,
/// and single-cycle compute for the rest.
fn phase_program(dp: &mut DatapathCore, loads: &[Addr], uops: usize) -> Program {
    let mut p = Program::new();
    for &a in loads {
        p.load(a, &[]);
    }
    let scratch = dp.exec_mut().scratch_mut();
    for _ in 0..(uops / 5).saturating_sub(loads.len()) {
        p.load(scratch.next(), &[]);
    }
    for _ in 0..(uops - uops / 5 - loads.len().min(uops)) {
        p.compute(1, &[]);
    }
    p
}

/// Builds and times one fixed-phase program on the switch's core.
fn run_phase(
    dp: &mut DatapathCore,
    sys: &mut MemorySystem,
    rec: &RefCell<Recorder>,
    loads: &[Addr],
    uops: usize,
    at: Cycle,
    counts: &mut ReplayCounts,
) -> ExecReport {
    let prog = phase_program(dp, loads, uops);
    counts.phase_uops += prog.len() as u64;
    dp.exec_mut().run(&prog, &mut TimedMem::new(sys, rec), at)
}

/// Replays `acl_tss`: the virtual switch rebuilt from its parts in the
/// allocation order of `VirtualSwitch::new`, and every packet through
/// its packet-IO, pre-processing, classification and action phases.
fn replay_acl(sizes: Sizes, seed: u64) -> Replay {
    let rec = RefCell::new(Recorder::new(Instant::now()));
    let mut counts = ReplayCounts::default();
    let inputs = in_span(&rec, "nf.gen", || generate(Workload::AclTss, sizes, seed));
    let Inputs::Acl { rules, headers } = &inputs else {
        unreachable!("acl workload")
    };
    counts.generated = (rules.len() + headers.len()) as u64;
    let cfg = acl_switch_config();
    let mut sys = MemorySystem::new(MachineConfig::default());
    rec.borrow_mut().open("vswitch.build");
    let exec = LookupExecutor::new(&mut sys, CoreId(0), cfg.backend);
    exec.warm_scratch(&mut sys);
    let emc = Emc::new(sys.data_mut(), cfg.emc_entries);
    let mut megaflow = cfg.wildcard_backend.build(
        sys.data_mut(),
        TableBackend::Cuckoo,
        &cfg.megaflow_masks,
        cfg.megaflow_capacity,
        SearchMode::FirstMatch,
    );
    let ring = sys.data_mut().alloc_lines(RING_SLOTS * CACHE_LINE);
    let nb = NbRegion::allocate(
        sys.data_mut(),
        megaflow.probes().max(cfg.megaflow_masks.len()),
    );
    let mut dp = DatapathCore::new(
        exec.with_nb_region(nb),
        Some(emc),
        cfg.backend,
        cfg.emc_promotion,
    );
    for rule in rules {
        let ok = in_span(&rec, "wildcard.insert_range", || {
            megaflow.insert_range(sys.data_mut(), rule).is_ok()
        });
        counts.rejected += u64::from(!ok);
    }
    let emc_lines: Vec<Addr> = dp.emc().expect("EMC enabled").all_lines().collect();
    for a in emc_lines.into_iter().chain(megaflow.memory_lines()) {
        sys.warm_llc(a);
    }
    rec.borrow_mut().close();
    let before = MemCounts::read(sys.stats());
    let mut summary = BurstSummary::default();
    let mut out = Vec::with_capacity(headers.len());
    let t0 = Stamp::now();
    let mut t = Cycle(0);
    for (i, h) in headers.iter().enumerate() {
        rec.borrow_mut().pkt = i as u64;
        rec.borrow_mut().open("vswitch.packet");
        let key = h.miniflow();
        let buf = ring + (i as u64 % RING_SLOTS) * CACHE_LINE;
        let r = in_span(&rec, "vswitch.io", || {
            sys.data_mut().write_bytes(buf, key.as_bytes());
            sys.dma_write(buf);
            run_phase(&mut dp, &mut sys, &rec, &[buf], IO_UOPS, t, &mut counts)
        });
        summary.breakdown[0] += r.duration().0;
        let r = in_span(&rec, "vswitch.preproc", || {
            run_phase(
                &mut dp,
                &mut sys,
                &rec,
                &[buf],
                PREPROC_UOPS,
                r.finish,
                &mut counts,
            )
        });
        summary.breakdown[1] += r.duration().0;
        let at = r.finish;
        let c = in_span(&rec, "datapath.classify", || {
            dp.classify_epoch(
                &mut TimedMem::new(&mut sys, &rec),
                &TimedTable::new(&megaflow, &rec),
                &key,
                Some(buf),
                at,
            )
        });
        let emc_done = c.emc_done.expect("EMC enabled");
        summary.breakdown[2] += (emc_done - at).0;
        if c.emc_hit {
            summary.counters[1] += 1;
        } else {
            summary.breakdown[3] += (c.done - emc_done).0;
            if c.megaflow.is_some() {
                summary.counters[2] += 1;
            } else {
                summary.counters[4] += 1;
            }
        }
        let r = in_span(&rec, "vswitch.other", || {
            run_phase(
                &mut dp,
                &mut sys,
                &rec,
                &[],
                OTHER_UOPS,
                c.done,
                &mut counts,
            )
        });
        summary.breakdown[5] += r.duration().0;
        rec.borrow_mut().close();
        summary.counters[0] += 1;
        out.push((c.action, r.finish));
        t = r.finish;
    }
    let timed_s = t0.elapsed(1).secs;
    let mem = MemCounts::read(sys.stats()).since(before);
    counts.packets = summary.counters[0];
    counts.emc_hits = summary.counters[1];
    counts.megaflow_hits = summary.counters[2];
    // Every packet's EMC probe and every probe of an EMC miss is one
    // software lookup program.
    counts.sw_programs = counts.packets + rec.borrow().wc_probes;
    let wrong = acl_disagreements(rules, headers, out.iter().map(|o| o.0));
    let sim = SimOutcome {
        packets: counts.packets,
        misses: summary.counters[4],
        installs: rules.len() as u64,
        pkts_per_kcy: burst_pkts_per_kcy(out.len(), t),
        failed: wrong + counts.rejected,
        digest: summary.digest(&sys, &out),
    };
    Replay {
        sim,
        timed_s,
        mem,
        engine_queries: 0,
        engine_snapshots: 0,
        accel_access: 0,
        accel_llc_hit: 0,
        counts,
        rec: rec.into_inner(),
        threads: 1,
    }
}

/// Replays workload `w` with spans.
pub fn replay(w: Workload, sizes: Sizes, seed: u64, threads: usize) -> Replay {
    match w {
        Workload::SteadyEpoch | Workload::ChurnHaloNb => replay_stream(w, sizes, seed, threads),
        Workload::AclTss => replay_acl(sizes, seed),
    }
}

/// Host nanoseconds per `build_sw_lookup_into` call and mean micro-ops
/// per built program, replayed over `traces`.
pub fn program_build(traces: &[LookupTrace]) -> (f64, f64) {
    if traces.is_empty() {
        return (0.0, 0.0);
    }
    let mut sys = MemorySystem::new(MachineConfig::small());
    let mut scratch = Scratch::new(&mut sys);
    let mut prog = Program::new();
    let uops: usize = traces
        .iter()
        .map(|tr| {
            build_sw_lookup_into(tr, &mut scratch, None, &mut prog);
            prog.len()
        })
        .sum();
    let mut builds = 0u64;
    let t0 = Instant::now();
    while t0.elapsed().as_millis() < 50 {
        for tr in traces {
            build_sw_lookup_into(std::hint::black_box(tr), &mut scratch, None, &mut prog);
            std::hint::black_box(&prog);
        }
        builds += traces.len() as u64;
    }
    let ns = t0.elapsed().as_nanos() as f64 / builds as f64;
    (ns, uops as f64 / traces.len() as f64)
}
