//! Deterministic epoch/window parallel execution of the memory system.
//!
//! The classic [`MemorySystem`] interleaves all simulated cores on one
//! host thread. This module shards it so simulated cores can run on real
//! OS threads inside a bounded cycle window (an *epoch*) and still
//! produce output byte-identical to the single-threaded run of the same
//! epoch schedule (DESIGN.md §13):
//!
//! * [`MemorySystem::epoch_split`] hands each core an [`EpochCore`]: an
//!   exclusive `&mut` view of that core's private L1/L2 and ports, a
//!   frozen shared snapshot of the LLC directory ([`LlcView`]) and data
//!   store, and a line-granular copy-on-write overlay ([`CowMem`]) for
//!   its writes.
//! * Inside the window each core runs the same access body as the
//!   classic path; every effect on shared state (LLC/directory
//!   transitions, dirty writebacks) updates the window's view and is
//!   queued as an [`LlcEvent`] instead of applied to the master.
//! * At the barrier, [`MemorySystem::epoch_merge`] applies each core's
//!   queued events through the classic path's own `apply` and flushes
//!   each core's memory delta against the master state **in fixed core
//!   order**, single-threaded.
//!
//! A core's window is therefore a pure function of (frozen snapshot,
//! its own private state, its inputs); the thread pool only chooses
//! *which host thread* evaluates each pure function, so any thread count
//! yields the same bytes.
//!
//! The traits [`MemCtx`] (byte-addressed backing store: real
//! [`SimMemory`] or a [`CowMem`] overlay) and [`CoreMem`] (the surface
//! the simulated-core model needs: timed access + data + config) are the
//! seams that let `halo-cpu`/`halo-datapath` run unchanged against
//! either the classic system or an epoch shard.

use crate::addr::{Addr, CoreId, LineAddr, SliceId, CACHE_LINE};
use crate::cache::{CacheArray, LineMeta, LineState};
use crate::config::MachineConfig;
use crate::memory::SimMemory;
use crate::system::{
    core_access, holds_modified, slice_hash, AccessCtx, AccessKind, AccessOutcome, LlcEvent,
    MemStatIds, MemorySystem,
};
use halo_sim::{BankedResource, Cycle, Resource, StatId, Stats};
use std::collections::hash_map::Entry;
use std::collections::HashMap;

/// A byte-addressed backing store: the seam between table/EMC code and
/// whether it runs against the real [`SimMemory`] or a per-core
/// [`CowMem`] overlay inside an epoch window.
pub trait MemCtx {
    /// Reads `buf.len()` bytes starting at `addr`.
    fn read_bytes(&self, addr: Addr, buf: &mut [u8]);
    /// Writes `data` starting at `addr`.
    fn write_bytes(&mut self, addr: Addr, data: &[u8]);

    /// Reads a little-endian `u64`.
    fn read_u64(&self, addr: Addr) -> u64 {
        let mut b = [0u8; 8];
        self.read_bytes(addr, &mut b);
        u64::from_le_bytes(b)
    }
    /// Writes a little-endian `u64`.
    fn write_u64(&mut self, addr: Addr, v: u64) {
        self.write_bytes(addr, &v.to_le_bytes());
    }
    /// Reads a little-endian `u32`.
    fn read_u32(&self, addr: Addr) -> u32 {
        let mut b = [0u8; 4];
        self.read_bytes(addr, &mut b);
        u32::from_le_bytes(b)
    }
    /// Writes a little-endian `u32`.
    fn write_u32(&mut self, addr: Addr, v: u32) {
        self.write_bytes(addr, &v.to_le_bytes());
    }
    /// Reads a little-endian `u16`.
    fn read_u16(&self, addr: Addr) -> u16 {
        let mut b = [0u8; 2];
        self.read_bytes(addr, &mut b);
        u16::from_le_bytes(b)
    }
    /// Writes a little-endian `u16`.
    fn write_u16(&mut self, addr: Addr, v: u16) {
        self.write_bytes(addr, &v.to_le_bytes());
    }
    /// Reads one byte.
    fn read_u8(&self, addr: Addr) -> u8 {
        let mut b = [0u8; 1];
        self.read_bytes(addr, &mut b);
        b[0]
    }
    /// Writes one byte.
    fn write_u8(&mut self, addr: Addr, v: u8) {
        self.write_bytes(addr, &[v]);
    }
}

impl MemCtx for SimMemory {
    fn read_bytes(&self, addr: Addr, buf: &mut [u8]) {
        SimMemory::read_bytes(self, addr, buf);
    }
    fn write_bytes(&mut self, addr: Addr, data: &[u8]) {
        SimMemory::write_bytes(self, addr, data);
    }
}

/// A line-granular copy-on-write overlay over a frozen [`SimMemory`].
///
/// Reads fall through to the base for untouched lines; the first write
/// to a line copies it into the private delta. At the epoch barrier the
/// delta is flushed to the master store in sorted line order
/// ([`CowMem::into_sorted_delta`]), so the flush order is independent of
/// the order the core produced the writes in.
#[derive(Debug)]
pub struct CowMem<'a> {
    base: &'a SimMemory,
    delta: HashMap<u64, [u8; CACHE_LINE as usize]>,
}

impl<'a> CowMem<'a> {
    /// Creates an empty overlay over `base`.
    #[must_use]
    pub fn new(base: &'a SimMemory) -> Self {
        CowMem {
            base,
            delta: HashMap::new(),
        }
    }

    /// The frozen base store.
    #[must_use]
    pub fn base(&self) -> &'a SimMemory {
        self.base
    }

    /// Number of lines copied into the private delta.
    #[must_use]
    pub fn dirty_lines(&self) -> usize {
        self.delta.len()
    }

    /// Consumes the overlay, returning its dirty lines sorted by line
    /// index (deterministic flush order for the barrier merge).
    #[must_use]
    pub fn into_sorted_delta(self) -> Vec<(u64, [u8; CACHE_LINE as usize])> {
        let mut v: Vec<_> = self.delta.into_iter().collect();
        v.sort_unstable_by_key(|&(line, _)| line);
        v
    }
}

impl MemCtx for CowMem<'_> {
    fn read_bytes(&self, addr: Addr, buf: &mut [u8]) {
        let mut pos = addr.0;
        let mut done = 0usize;
        while done < buf.len() {
            let off = (pos % CACHE_LINE) as usize;
            let n = (CACHE_LINE as usize - off).min(buf.len() - done);
            match self.delta.get(&(pos / CACHE_LINE)) {
                Some(line) => buf[done..done + n].copy_from_slice(&line[off..off + n]),
                None => self.base.read_bytes(Addr(pos), &mut buf[done..done + n]),
            }
            pos += n as u64;
            done += n;
        }
    }

    fn write_bytes(&mut self, addr: Addr, data: &[u8]) {
        let base = self.base;
        let mut pos = addr.0;
        let mut done = 0usize;
        while done < data.len() {
            let off = (pos % CACHE_LINE) as usize;
            let n = (CACHE_LINE as usize - off).min(data.len() - done);
            let line = self.delta.entry(pos / CACHE_LINE).or_insert_with(|| {
                let mut b = [0u8; CACHE_LINE as usize];
                base.read_bytes(Addr((pos / CACHE_LINE) * CACHE_LINE), &mut b);
                b
            });
            line[off..off + n].copy_from_slice(&data[done..done + n]);
            pos += n as u64;
            done += n;
        }
    }
}

/// The memory-system surface the simulated core model executes against:
/// implemented by the classic [`MemorySystem`] and by a per-thread
/// [`EpochCore`] shard.
pub trait CoreMem {
    /// The byte store functional reads/writes go through.
    type Data: MemCtx;

    /// Mutable access to the byte store (untimed functional access).
    fn data_mut(&mut self) -> &mut Self::Data;
    /// The frozen master store (epoch mode) or the live store (classic):
    /// read-only structures shared across cores within a window.
    fn base(&self) -> &SimMemory;
    /// The machine configuration.
    fn config(&self) -> &MachineConfig;
    /// Performs a timed access from `core`.
    fn access(&mut self, core: CoreId, addr: Addr, kind: AccessKind, at: Cycle) -> AccessOutcome;
    /// Whether span tracing is on (always off inside epoch shards).
    fn trace_enabled(&self) -> bool;
    /// Records a span on behalf of a component (no-op when disabled).
    fn trace_span(&mut self, component: &'static str, op: &'static str, start: Cycle, end: Cycle);
    /// The classic memory system behind this context, for work that
    /// mutates state shared across cores (HALO engine dispatch). `None`
    /// by default: an epoch shard is software-only.
    fn memory_system(&mut self) -> Option<&mut MemorySystem> {
        None
    }
}

impl CoreMem for MemorySystem {
    type Data = SimMemory;

    fn data_mut(&mut self) -> &mut SimMemory {
        MemorySystem::data_mut(self)
    }
    fn base(&self) -> &SimMemory {
        self.data()
    }
    fn config(&self) -> &MachineConfig {
        MemorySystem::config(self)
    }
    fn access(&mut self, core: CoreId, addr: Addr, kind: AccessKind, at: Cycle) -> AccessOutcome {
        MemorySystem::access(self, core, addr, kind, at)
    }
    fn trace_enabled(&self) -> bool {
        MemorySystem::trace_enabled(self)
    }
    fn trace_span(&mut self, component: &'static str, op: &'static str, start: Cycle, end: Cycle) {
        MemorySystem::trace_span(self, component, op, start, end);
    }
    fn memory_system(&mut self) -> Option<&mut MemorySystem> {
        Some(self)
    }
}

/// A frozen snapshot of the LLC directory plus a window-local overlay.
///
/// Probes consult the overlay first, then `peek` the frozen base arrays
/// (no LRU perturbation). The overlay models no capacity or eviction —
/// within one window the LLC is treated as unbounded; real install and
/// eviction happen at the merge (a documented, deterministic deviation).
/// A line's owner is the frozen one as this core's own transitions
/// left it: a load that pulled it out of another core's Modified copy
/// leaves it unowned, so that core is charged once.
#[derive(Debug)]
struct LlcView<'a> {
    base: &'a [CacheArray],
    slices: usize,
    overlay: HashMap<u64, LineMeta>,
}

impl<'a> LlcView<'a> {
    fn new(base: &'a [CacheArray], slices: usize) -> Self {
        LlcView {
            base,
            slices,
            overlay: HashMap::new(),
        }
    }

    /// Current metadata of `line` as this window sees it.
    fn probe(&self, line: LineAddr) -> Option<&LineMeta> {
        self.overlay
            .get(&line.0)
            .or_else(|| self.base[slice_hash(line, self.slices).0].peek(line))
    }

    /// Mutable overlay entry for `line`, copied from the frozen base on
    /// first touch. A line resident nowhere is installed in state `fill`
    /// (an LLC miss's fill), or is `None` without one.
    fn entry(&mut self, line: LineAddr, fill: Option<LineState>) -> Option<&mut LineMeta> {
        match self.overlay.entry(line.0) {
            Entry::Occupied(e) => Some(e.into_mut()),
            Entry::Vacant(v) => {
                let m = match self.base[slice_hash(line, self.slices).0].peek(line) {
                    Some(m) => m.clone(),
                    None => LineMeta::new(line, fill?),
                };
                Some(v.insert(m))
            }
        }
    }
}

/// The per-core state handed to a worker thread for one epoch window:
/// exclusive private caches and ports, cloned contention-free uncore
/// ports, the frozen LLC view, a [`CowMem`] overlay, and the event log.
///
/// Produced by [`MemorySystem::epoch_split`]; turn into a
/// [`WindowOutcome`] with [`EpochCore::finish`] once the window's work
/// is done.
#[derive(Debug)]
pub struct EpochCore<'a> {
    core: CoreId,
    cfg: &'a MachineConfig,
    mem: CowMem<'a>,
    l1d: &'a mut CacheArray,
    l2: &'a mut CacheArray,
    l1_port: &'a mut BankedResource,
    l2_port: &'a mut Resource,
    /// Window-local clones: slice-port and DRAM contention from other
    /// cores is not modeled *within* a window (documented deviation; the
    /// clone is discarded at the barrier).
    slice_port: Vec<Resource>,
    dram: BankedResource,
    llc: LlcView<'a>,
    stats: Stats,
    ids: MemStatIds,
    events: Vec<LlcEvent>,
}

/// Everything a window produced, detached from the borrows of the
/// [`MemorySystem`]: the event log, the memory delta, and the stat
/// deltas. Collect these after the thread scope ends and feed them to
/// [`MemorySystem::epoch_merge`].
#[derive(Debug)]
pub struct WindowOutcome {
    core: CoreId,
    events: Vec<LlcEvent>,
    delta: Vec<(u64, [u8; CACHE_LINE as usize])>,
    stats: Stats,
}

impl WindowOutcome {
    /// The simulated core this outcome belongs to.
    #[must_use]
    pub fn core(&self) -> CoreId {
        self.core
    }
}

impl EpochCore<'_> {
    /// The simulated core this shard executes.
    #[must_use]
    pub fn core(&self) -> CoreId {
        self.core
    }

    /// Detaches the window's observable effects for the barrier merge.
    #[must_use]
    pub fn finish(self) -> WindowOutcome {
        WindowOutcome {
            core: self.core,
            events: self.events,
            delta: self.mem.into_sorted_delta(),
            stats: self.stats,
        }
    }
}

/// The shard side of the access body: this core's own private arrays
/// and ports, the frozen LLC view, and transitions applied to the view
/// and queued for [`MemorySystem::epoch_merge`].
impl AccessCtx for EpochCore<'_> {
    fn cfg(&self) -> &MachineConfig {
        self.cfg
    }
    fn ids(&self) -> &MemStatIds {
        &self.ids
    }
    fn inc(&mut self, id: StatId) {
        self.stats.inc(id);
    }
    fn l1(&mut self, _: CoreId) -> &mut CacheArray {
        self.l1d
    }
    fn l2(&mut self, _: CoreId) -> &mut CacheArray {
        self.l2
    }
    fn l1_port(&mut self, _: CoreId) -> &mut BankedResource {
        self.l1_port
    }
    fn l2_port(&mut self, _: CoreId) -> &mut Resource {
        self.l2_port
    }
    fn slice_port(&mut self, slice: SliceId) -> &mut Resource {
        &mut self.slice_port[slice.0]
    }
    fn dram(&mut self) -> &mut BankedResource {
        &mut self.dram
    }
    fn home(&self, line: LineAddr) -> Option<(u64, Option<CoreId>)> {
        self.llc.probe(line).map(|m| (m.sharers, m.owner()))
    }
    /// `epoch_split` asserts the lock table is empty, so no store waits.
    fn store_lock(&mut self, _: LineAddr, _: Cycle) -> Option<Cycle> {
        None
    }
    fn transition(&mut self, core: CoreId, ev: LlcEvent) {
        let fill = match ev {
            LlcEvent::Access(_, kind) => Some(kind.fill_state()),
            _ => None,
        };
        if let Some(meta) = self.llc.entry(ev.line(), fill) {
            ev.update(meta, core);
        }
        self.events.push(ev);
    }
}

impl<'a> CoreMem for EpochCore<'a> {
    type Data = CowMem<'a>;

    fn data_mut(&mut self) -> &mut CowMem<'a> {
        &mut self.mem
    }
    fn base(&self) -> &SimMemory {
        self.mem.base()
    }
    fn config(&self) -> &MachineConfig {
        self.cfg
    }
    fn access(&mut self, core: CoreId, addr: Addr, kind: AccessKind, at: Cycle) -> AccessOutcome {
        debug_assert_eq!(core, self.core, "epoch shard driven by a foreign core");
        core_access(self, core, addr, kind, at)
    }
    fn trace_enabled(&self) -> bool {
        false
    }
    fn trace_span(&mut self, _c: &'static str, _o: &'static str, _s: Cycle, _e: Cycle) {}
}

impl MemorySystem {
    /// Splits the system into one [`EpochCore`] shard per simulated core
    /// (the first `cores` of them) for one epoch window. Each shard
    /// borrows that core's private caches and ports exclusively and sees
    /// the LLC directory and data store frozen at this instant.
    ///
    /// Shards are [`Send`], so they can be moved into a
    /// [`std::thread::scope`]; while they live, the system itself is
    /// inaccessible (the borrow checker enforces the barrier).
    ///
    /// # Panics
    ///
    /// Panics if `cores` exceeds the configured core count, if tracing
    /// is enabled, or if hardware locks are held (epoch mode covers the
    /// software datapath only; callers fall back to the classic
    /// sequential path otherwise).
    pub fn epoch_split(&mut self, cores: usize) -> Vec<EpochCore<'_>> {
        assert!(cores <= self.cfg.cores, "core out of range");
        assert!(
            !self.tracer.is_enabled(),
            "epoch mode does not support span tracing"
        );
        assert!(
            self.locks.is_empty(),
            "epoch mode does not support in-flight hardware locks"
        );
        let cfg = &self.cfg;
        let mem = &self.mem;
        let llc = &self.llc[..];
        let ids = self.ids;
        let stats_proto = {
            let mut s = self.stats.clone();
            s.clear();
            s
        };
        let slice_port = self.slice_port.clone();
        let dram = self.dram.clone();
        self.l1d
            .iter_mut()
            .zip(self.l2.iter_mut())
            .zip(self.l1_port.iter_mut())
            .zip(self.l2_port.iter_mut())
            .take(cores)
            .enumerate()
            .map(|(i, (((l1d, l2), l1_port), l2_port))| EpochCore {
                core: CoreId(i),
                cfg,
                mem: CowMem::new(mem),
                l1d,
                l2,
                l1_port,
                l2_port,
                slice_port: slice_port.clone(),
                dram: dram.clone(),
                llc: LlcView::new(llc, cfg.slices),
                stats: stats_proto.clone(),
                ids,
                events: Vec::new(),
            })
            .collect()
    }

    /// Merges the outcomes of one epoch window back into the master
    /// state, applying each core's queued transitions (through the same
    /// `apply` the classic path uses) and flushing its
    /// memory delta **in ascending core order**, single-threaded.
    /// Outcomes may arrive in any order; they are sorted here, so the
    /// merge result is independent of thread scheduling. Request-level
    /// stats were counted inside the window; only the LLC-eviction
    /// effects `apply` discovers are counted here, in that fixed order.
    pub fn epoch_merge(&mut self, mut outcomes: Vec<WindowOutcome>) {
        outcomes.sort_by_key(|o| o.core.0);
        for out in outcomes {
            for &ev in &out.events {
                self.apply(out.core, ev);
            }
            // A store transition makes the core the owner, but an earlier
            // core's transition at this barrier may have invalidated or
            // downgraded the copy it stored to: that copy has left.
            for &ev in &out.events {
                if let LlcEvent::Upgrade(line) | LlcEvent::Access(line, AccessKind::Store) = ev {
                    if !holds_modified(self, out.core, line)
                        && self.home(line).is_some_and(|(_, o)| o == Some(out.core))
                    {
                        self.apply(out.core, LlcEvent::DirtyWb(line));
                    }
                }
            }
            for (line, bytes) in out.delta {
                self.mem.write_bytes(Addr(line * CACHE_LINE), &bytes);
            }
            self.stats.merge(&out.stats);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::HitLevel;

    fn sys() -> MemorySystem {
        MemorySystem::new(MachineConfig::small())
    }

    const fn assert_send<T: Send>() {}
    const _: () = assert_send::<EpochCore<'_>>();
    const _: () = assert_send::<WindowOutcome>();

    #[test]
    fn cow_mem_reads_through_and_overlays_writes() {
        let mut base = SimMemory::new();
        let a = base.alloc_lines(256);
        base.write_u64(a, 11);
        base.write_u64(a + 64, 22);
        let mut cow = CowMem::new(&base);
        assert_eq!(cow.read_u64(a), 11);
        cow.write_u64(a, 99);
        cow.write_u8(a + 70, 7);
        assert_eq!(cow.read_u64(a), 99, "write visible through overlay");
        assert_eq!(cow.read_u64(a + 64), 22 | (7 << 48), "partial-line CoW");
        assert_eq!(cow.dirty_lines(), 2);
        let delta = cow.into_sorted_delta();
        assert_eq!(delta.len(), 2);
        assert!(delta[0].0 < delta[1].0, "delta sorted by line");
        assert_eq!(base.read_u64(a), 11, "base untouched until merge");
    }

    #[test]
    fn cow_mem_crosses_line_boundaries() {
        let mut base = SimMemory::new();
        let a = base.alloc_lines(256);
        let mut cow = CowMem::new(&base);
        let data: Vec<u8> = (0..100u8).collect();
        cow.write_bytes(a + 30, &data);
        let mut back = vec![0u8; 100];
        cow.read_bytes(a + 30, &mut back);
        assert_eq!(back, data);
        assert_eq!(cow.dirty_lines(), 3, "spans three lines");
    }

    /// Everything observable after a single-core run: each op's
    /// `(complete, level)`, every counter sorted by name, and every
    /// resident `(line, state, sharers)` of core 0's L1 and L2 and of
    /// each LLC slice, in way order.
    type RunImage = (
        Vec<(Cycle, HitLevel)>,
        Vec<(String, u64)>,
        Vec<Vec<(LineAddr, LineState, u64)>>,
    );

    fn image(s: &MemorySystem, outcomes: Vec<(Cycle, HitLevel)>) -> RunImage {
        let mut counters: Vec<_> = s
            .stats()
            .counters()
            .map(|(k, v)| (k.to_string(), v))
            .collect();
        counters.sort();
        let lines = |it: &mut dyn Iterator<Item = &LineMeta>| {
            it.map(|m| (m.line, m.state, m.sharers)).collect::<Vec<_>>()
        };
        let mut arrays = vec![
            lines(&mut s.l1_lines(CoreId(0))),
            lines(&mut s.l2_lines(CoreId(0))),
        ];
        for slice in 0..s.config().slices {
            arrays.push(lines(&mut s.llc_slice_lines(SliceId(slice))));
        }
        (outcomes, counters, arrays)
    }

    /// A seeded core-0 stream over `lines` lines, one store in three.
    fn stream(lines: u64, n: usize) -> Vec<(u64, AccessKind)> {
        let mut rng = halo_sim::SplitMix64::new(0x5EED ^ lines);
        (0..n)
            .map(|_| {
                let line = rng.next_u64() % lines;
                let kind = if rng.next_u64().is_multiple_of(3) {
                    AccessKind::Store
                } else {
                    AccessKind::Load
                };
                (line, kind)
            })
            .collect()
    }

    /// Runs `ops` as a dependent chain on core 0, classically when
    /// `window` is `None`, else as epoch windows of `window` ops each.
    fn run_single_core(lines: u64, ops: &[(u64, AccessKind)], window: Option<usize>) -> RunImage {
        let mut s = sys();
        let base = s.data_mut().alloc_lines(64 * lines);
        let mut t = Cycle(0);
        let mut outcomes = Vec::with_capacity(ops.len());
        let mut record = |o: AccessOutcome, t: &mut Cycle| {
            *t = o.complete;
            outcomes.push((o.complete, o.level));
        };
        match window {
            None => {
                for &(line, kind) in ops {
                    record(s.access(CoreId(0), base + line * 64, kind, t), &mut t);
                }
            }
            Some(w) => {
                for chunk in ops.chunks(w) {
                    let mut fleet = s.epoch_split(1);
                    for &(line, kind) in chunk {
                        record(
                            fleet[0].access(CoreId(0), base + line * 64, kind, t),
                            &mut t,
                        );
                    }
                    let out: Vec<_> = fleet.into_iter().map(EpochCore::finish).collect();
                    s.epoch_merge(out);
                }
            }
        }
        image(&s, outcomes)
    }

    /// The invariant the whole scheme rests on: windows executed
    /// against a shard and merged equal the classic sequential
    /// execution for single-core traffic (where no cross-core
    /// interleaving exists to differ on). Working sets of 100 lines
    /// (L1-resident), 600 (past L1) and 3,000 (past L2, so private
    /// evictions and dirty writebacks happen inside windows), each in
    /// 500-op windows and in one window spanning the whole stream. All
    /// stay below LLC capacity: a window's LLC view has no capacity
    /// limit (DESIGN.md §13).
    #[test]
    fn single_core_window_matches_classic_run() {
        let n = 6_000;
        for lines in [100u64, 600, 3_000] {
            let ops = stream(lines, n);
            let classic = run_single_core(lines, &ops, None);
            let count = |key: &str| classic.1.iter().find(|(k, _)| k == key).map(|&(_, v)| v);
            if lines == 3_000 {
                assert!(
                    count("private.writeback") > Some(0),
                    "no dirty private eviction"
                );
            }
            for window in [500, n] {
                let epoch = run_single_core(lines, &ops, Some(window));
                for (i, (c, e)) in classic.0.iter().zip(&epoch.0).enumerate() {
                    assert_eq!(c, e, "{lines} lines, window {window}: op {i}");
                }
                assert_eq!(
                    classic.1, epoch.1,
                    "{lines} lines, window {window}: counters"
                );
                assert_eq!(classic.2, epoch.2, "{lines} lines, window {window}: lines");
            }
        }
    }

    /// A window's directory view is what the merge makes of the master:
    /// after each single-core window, every line reads the same home
    /// `(state, sharers, owner)` through the shard as through the merged
    /// system (below LLC capacity, where the merge evicts nothing). The
    /// identity test above cannot see the view, because one core's
    /// timing never consults other sharers.
    #[test]
    fn window_view_matches_merged_master() {
        for lines in [100u64, 600, 3_000] {
            let mut s = sys();
            let base = s.data_mut().alloc_lines(64 * lines);
            let homes = |ctx: &dyn Fn(LineAddr) -> Option<(LineState, u64, Option<CoreId>)>| {
                (0..lines)
                    .map(|i| ctx((base + i * 64).line()))
                    .collect::<Vec<_>>()
            };
            let key = |m: &LineMeta| (m.state, m.sharers, m.owner());
            let mut t = Cycle(0);
            for chunk in stream(lines, 2_000).chunks(500) {
                let mut fleet = s.epoch_split(1);
                for &(line, kind) in chunk {
                    t = fleet[0]
                        .access(CoreId(0), base + line * 64, kind, t)
                        .complete;
                }
                let view = homes(&|l| fleet[0].llc.probe(l).map(key));
                let out: Vec<_> = fleet.into_iter().map(EpochCore::finish).collect();
                s.epoch_merge(out);
                let master = homes(&|l| s.llc[s.home_slice(l).0].peek(l).map(key));
                assert_eq!(view, master, "{lines} lines");
            }
        }
    }

    /// One op of a cross-core scenario: `(window, core, line, kind)`.
    type Op = (usize, usize, u64, AccessKind);

    /// Runs `ops` on three cores as one dependent chain, classically, or
    /// with each run of equal window numbers as one epoch window over
    /// three shards. Returns every op's level and the dirty transfers.
    fn run_three_cores(ops: &[Op], windowed: bool) -> (Vec<HitLevel>, u64) {
        let mut s = sys();
        let mut t = Cycle(0);
        let mut levels = Vec::with_capacity(ops.len());
        let mut record = |o: AccessOutcome, t: &mut Cycle| {
            *t = o.complete;
            levels.push(o.level);
        };
        if windowed {
            for window in ops.chunk_by(|a, b| a.0 == b.0) {
                let mut fleet = s.epoch_split(3);
                for &(_, core, line, kind) in window {
                    record(
                        fleet[core].access(CoreId(core), Addr(line * 64), kind, t),
                        &mut t,
                    );
                }
                let out: Vec<_> = fleet.into_iter().map(EpochCore::finish).collect();
                s.epoch_merge(out);
            }
        } else {
            for &(_, core, line, kind) in ops {
                record(s.access(CoreId(core), Addr(line * 64), kind, t), &mut t);
            }
        }
        (levels, s.stats().counter("llc.dirty_snoop"))
    }

    /// Core 1 stores X and core 2 loads it, pulling it out of core 1's
    /// Modified copy; core 0's later load finds X owned by nobody and is
    /// served clean, in a window as classically.
    #[test]
    fn downgraded_line_is_clean_in_a_later_window() {
        const X: u64 = 1_024;
        let ops = [
            (0, 1, X, AccessKind::Store),
            (1, 2, X, AccessKind::Load),
            (2, 0, X, AccessKind::Load),
        ];
        let classic = run_three_cores(&ops, false);
        let levels = [HitLevel::Dram, HitLevel::LlcRemoteDirty, HitLevel::Llc];
        assert_eq!(classic, (levels.to_vec(), 1));
        assert_eq!(run_three_cores(&ops, true), classic);
    }

    /// Core 1 stores X and Y. Four loads that share X's L1 set but not
    /// its L2 set evict X's dirty L1 copy while L2 still holds it
    /// Modified, so core 2's load of X is a dirty transfer. Eight loads
    /// that share Y's L1 and L2 sets evict both of Y's Modified copies,
    /// so core 0's load of Y is served clean. Both hold in a window as
    /// classically (`MachineConfig::small`: 32 4-way L1 sets, 128 8-way
    /// L2 sets).
    #[test]
    fn dirty_evictions_clear_the_owner_with_the_last_modified_copy() {
        const X: u64 = 1_024;
        const Y: u64 = X + 1;
        let mut ops = vec![(0, 1, X, AccessKind::Store), (0, 1, Y, AccessKind::Store)];
        for k in [1, 2, 3, 5] {
            ops.push((0, 1, X + 32 * k, AccessKind::Load));
        }
        for k in 1..=8 {
            ops.push((0, 1, Y + 128 * k, AccessKind::Load));
        }
        ops.push((1, 2, X, AccessKind::Load));
        ops.push((1, 0, Y, AccessKind::Load));
        let classic = run_three_cores(&ops, false);
        assert_eq!(
            classic.0[ops.len() - 2..],
            [HitLevel::LlcRemoteDirty, HitLevel::Llc]
        );
        assert_eq!(classic.1, 1);
        assert_eq!(run_three_cores(&ops, true), classic);
    }

    /// Core 2 pulls X out of core 1's Modified copy, loses its own copy
    /// to eight loads sharing X's L1 and L2 sets, and loads X again in
    /// the same window: the load downgraded the owner in the window's
    /// view, so the reload is clean, as classically.
    #[test]
    fn a_window_charges_a_remote_owner_once() {
        const X: u64 = 1_024;
        let mut ops = vec![(0, 1, X, AccessKind::Store), (1, 2, X, AccessKind::Load)];
        for k in 1..=8 {
            ops.push((1, 2, X + 128 * k, AccessKind::Load));
        }
        ops.push((1, 2, X, AccessKind::Load));
        let classic = run_three_cores(&ops, false);
        assert_eq!(classic.0[ops.len() - 1], HitLevel::Llc);
        assert_eq!(classic.1, 1);
        assert_eq!(run_three_cores(&ops, true), classic);
    }

    /// Cores 0 and 1 both store X, which they share, in one window: at
    /// the merge each one's upgrade invalidates the other's copy, so no
    /// core holds X afterwards and core 2's next load is clean. (Run
    /// classically, core 1 would still own X; a window cannot see a
    /// store another core makes inside it.)
    #[test]
    fn same_window_stores_leave_the_line_unowned() {
        const X: u64 = 1_024;
        let ops = [
            (0, 0, X, AccessKind::Load),
            (0, 1, X, AccessKind::Load),
            (1, 0, X, AccessKind::Store),
            (1, 1, X, AccessKind::Store),
            (2, 2, X, AccessKind::Load),
        ];
        let (levels, dirty) = run_three_cores(&ops, true);
        assert_eq!(levels[2..], [HitLevel::L1, HitLevel::L1, HitLevel::Llc]);
        assert_eq!(dirty, 0);
    }

    /// Two cores, two threads vs. inline: the merged master state and
    /// stats must not depend on which host thread ran which shard.
    #[test]
    fn two_core_window_is_thread_invariant() {
        let run = |threaded: bool| -> (Vec<u64>, Vec<bool>) {
            let mut s = sys();
            let base = s.data_mut().alloc_lines(64 * 64);
            let mut fleet = s.epoch_split(2);
            let work = |shard: &mut EpochCore<'_>, salt: u64| {
                let core = shard.core();
                let mut t = Cycle(0);
                for i in 0..120u64 {
                    let kind = if (i + salt).is_multiple_of(4) {
                        AccessKind::Store
                    } else {
                        AccessKind::Load
                    };
                    t = shard
                        .access(core, base + ((i * 7 + salt) % 40) * 64, kind, t)
                        .complete;
                }
            };
            if threaded {
                std::thread::scope(|scope| {
                    for (i, shard) in fleet.iter_mut().enumerate() {
                        scope.spawn(move || work(shard, i as u64));
                    }
                });
            } else {
                // Reverse order on purpose: merge must not care.
                for (i, shard) in fleet.iter_mut().enumerate().rev() {
                    work(shard, i as u64);
                }
            }
            let out: Vec<_> = fleet.into_iter().map(EpochCore::finish).collect();
            s.epoch_merge(out);
            let counters = [
                "mem.load",
                "mem.store",
                "l1d.hit",
                "llc.hit",
                "llc.miss",
                "dram.access",
                "coherence.invalidation",
            ]
            .iter()
            .map(|k| s.stats().counter(k))
            .collect();
            let residency = (0..40u64)
                .flat_map(|i| {
                    let a = base + i * 64;
                    [s.in_llc(a), s.in_l1(CoreId(0), a), s.in_l1(CoreId(1), a)]
                })
                .collect();
            (counters, residency)
        };
        assert_eq!(run(false), run(true));
    }

    #[test]
    fn window_writes_reach_master_only_at_merge() {
        let mut s = sys();
        let a = s.data_mut().alloc_lines(64);
        s.data_mut().write_u64(a, 5);
        let mut fleet = s.epoch_split(1);
        fleet[0].data_mut().write_u64(a, 42);
        assert_eq!(fleet[0].data_mut().read_u64(a), 42);
        let out: Vec<_> = fleet.into_iter().map(EpochCore::finish).collect();
        s.epoch_merge(out);
        assert_eq!(s.data_mut().read_u64(a), 42);
    }
}
