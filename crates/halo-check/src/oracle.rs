//! The differential oracle: SplitMix64-seeded op streams replayed
//! against each target structure *and* a trivially-correct model map,
//! with agreement checked after every op.
//!
//! Each driver is a plain function from an op slice to an optional
//! divergence message, so the shrinker can re-run it on arbitrary
//! subsequences. Drivers build all state from scratch per call and are
//! fully deterministic.

use halo_accel::{AcceleratorConfig, HaloEngine};
use halo_datapath::ExactTable;
use halo_kvstore::KvStore;
use halo_mem::{CoreId, MachineConfig, MemorySystem, SimMemory};
use halo_sim::{Cycle, Cycles, SplitMix64};
use halo_tables::{
    bucket_pair, hash_key, signature, CuckooPlusPlusTable, CuckooTable, EmomaTable, FlowKey,
    FlowTable, SfhTable, TraceStep, ENTRIES_PER_BUCKET, SEED_PRIMARY,
};
use halo_tcam::TcamTable;
use std::collections::HashMap;
use std::fmt;

use crate::audit::{
    audit_cuckoo, audit_cuckoo_pp, audit_emoma, audit_system, audit_table_placement, Violation,
};
use crate::audit_enabled;

/// Key length (bytes) of every generated flow key.
pub const KEY_LEN: usize = 13;

/// Ops between invariant audits inside [`exact_driver`] when per-op
/// auditing is off. Final-state audits run unconditionally on top of
/// the cadence.
pub const AUDIT_EPOCH: usize = 64;

/// Values are generated below this bound so every value is encodable by
/// the `LOOKUP_NB` destination-word scheme (which reserves the all-ones
/// miss sentinel and the zero pending marker) and leaves headroom for
/// the TCAM driver's key-tagged action encoding.
const VALUE_BOUND: u64 = 1 << 40;

/// One operation of a differential test. The same stream drives every
/// target; structures without a native analogue degrade an op to a
/// lookup (e.g. `Move` on the SFH table).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Op {
    /// Insert or update `key -> value`.
    Insert(u16, u64),
    /// Remove the key (a lookup on remove-less targets).
    Remove(u16),
    /// Look the key up and compare with the oracle.
    Lookup(u16),
    /// Relocate the key's entry to its alternative bucket, then verify
    /// the lookup (cuckoo-backed targets; a plain lookup elsewhere).
    Move(u16),
}

impl Op {
    fn key_id(self) -> u16 {
        match self {
            Op::Insert(k, _) | Op::Remove(k) | Op::Lookup(k) | Op::Move(k) => k,
        }
    }
}

impl fmt::Display for Op {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Op::Insert(k, v) => write!(f, "Insert({k}, {v:#x})"),
            Op::Remove(k) => write!(f, "Remove({k})"),
            Op::Lookup(k) => write!(f, "Lookup({k})"),
            Op::Move(k) => write!(f, "Move({k})"),
        }
    }
}

/// Generates `n` ops over a `key_space`-sized key universe
/// (insert-biased so tables actually fill).
pub fn gen_ops(rng: &mut SplitMix64, n: usize, key_space: u16) -> Vec<Op> {
    (0..n)
        .map(|_| {
            let k = rng.below(u64::from(key_space.max(1))) as u16;
            match rng.below(8) {
                0..=2 => Op::Insert(k, rng.below(VALUE_BOUND)),
                3 => Op::Remove(k),
                4 => Op::Move(k),
                _ => Op::Lookup(k),
            }
        })
        .collect()
}

fn key(k: u16) -> FlowKey {
    FlowKey::synthetic(u64::from(k), KEY_LEN)
}

fn diverge(i: usize, op: Op, what: &str, got: impl fmt::Debug, want: impl fmt::Debug) -> String {
    format!("op {i} ({op}): {what} returned {got:?}, oracle says {want:?}")
}

/// Loaded buckets in a software lookup of `key`.
fn bucket_probes(t: &impl FlowTable, mem: &SimMemory, key: &FlowKey) -> (Option<u64>, usize) {
    let tr = t.lookup_traced(mem, key, false);
    let probes = tr
        .steps
        .iter()
        .filter(|s| matches!(s, TraceStep::LoadBucket(_)))
        .count();
    (tr.result, probes)
}

/// The per-backend hooks of [`exact_driver`]: what a table natively
/// does beyond the [`FlowTable`] trait, and which properties it
/// promises on top of agreeing with the oracle. Every default is the
/// trait-level behaviour, so a backend only states what it adds.
pub trait ExactTarget: FlowTable {
    /// Performs [`Op::Move`] natively (a cuckoo relocation or an EMOMA
    /// displacement, which may legitimately refuse). By default there
    /// is no native move and the op is a plain lookup.
    fn native_move(&mut self, _mem: &mut SimMemory, _key: &FlowKey) {}

    /// Whether an insert of an absent key may be refused (EMOMA's
    /// cascade budget, a full SFH bucket, a full TCAM). Updates of
    /// present keys must always succeed in place.
    fn may_refuse_fresh(&self) -> bool {
        true
    }

    /// Free entry slots, when the backend keeps a free list;
    /// `len + free == capacity` is then checked after every op.
    fn free_slot_count(&self) -> Option<usize> {
        None
    }

    /// The backend's own property, checked after every op once the
    /// oracle agrees; `before` is the op key's value before the op.
    fn check_op(&self, _mem: &SimMemory, _op: Op, _before: Option<u64>) -> Option<String> {
        None
    }

    /// The backend's structural invariant auditor (empty on success).
    fn audit(&self, _mem: &mut SimMemory) -> Vec<Violation> {
        Vec::new()
    }
}

impl ExactTarget for CuckooTable {
    fn native_move(&mut self, mem: &mut SimMemory, key: &FlowKey) {
        self.cuckoo_move(mem, key);
    }
    fn may_refuse_fresh(&self) -> bool {
        false
    }
    fn free_slot_count(&self) -> Option<usize> {
        Some(self.free_slots())
    }
    fn audit(&self, mem: &mut SimMemory) -> Vec<Violation> {
        audit_cuckoo(self, mem)
    }
}

impl ExactTarget for CuckooPlusPlusTable {
    fn native_move(&mut self, mem: &mut SimMemory, key: &FlowKey) {
        self.cuckoo_move(mem, key);
    }
    fn may_refuse_fresh(&self) -> bool {
        false
    }
    fn free_slot_count(&self) -> Option<usize> {
        Some(self.free_slots())
    }
    /// Once a key is removed its negative lookup costs one bucket
    /// probe: the presence filter's whole point.
    fn check_op(&self, mem: &SimMemory, op: Op, before: Option<u64>) -> Option<String> {
        let Op::Remove(k) = op else { return None };
        before?;
        let (result, probes) = bucket_probes(self, mem, &key(k));
        (result.is_some() || probes != 1)
            .then(|| format!("removed key still hot: result {result:?}, {probes} probes"))
    }
    fn audit(&self, mem: &mut SimMemory) -> Vec<Violation> {
        audit_cuckoo_pp(self, mem)
    }
}

impl ExactTarget for EmomaTable {
    fn native_move(&mut self, mem: &mut SimMemory, key: &FlowKey) {
        self.displace(mem, key);
    }
    fn free_slot_count(&self) -> Option<usize> {
        Some(self.free_slots())
    }
    /// Every lookup, hit or miss, touches exactly one bucket: the
    /// counting Bloom filter's steering.
    fn check_op(&self, mem: &SimMemory, op: Op, _before: Option<u64>) -> Option<String> {
        let (_, probes) = bucket_probes(self, mem, &key(op.key_id()));
        (probes != 1).then(|| format!("EMOMA lookup took {probes} bucket probes"))
    }
    fn audit(&self, mem: &mut SimMemory) -> Vec<Violation> {
        audit_emoma(self, mem)
    }
}

impl ExactTarget for SfhTable {}

impl ExactTarget for TcamTable {}

/// The runtime-selected table forwards every hook to its backend, so
/// a [`TableBackend`](halo_datapath::TableBackend) run gets exactly the
/// checks of the concrete table.
impl ExactTarget for ExactTable {
    fn native_move(&mut self, mem: &mut SimMemory, key: &FlowKey) {
        match self {
            ExactTable::Cuckoo(t) => t.native_move(mem, key),
            ExactTable::CuckooPlusPlus(t) => t.native_move(mem, key),
            ExactTable::Emoma(t) => t.native_move(mem, key),
        }
    }
    fn may_refuse_fresh(&self) -> bool {
        inner(self).may_refuse_fresh()
    }
    fn free_slot_count(&self) -> Option<usize> {
        inner(self).free_slot_count()
    }
    fn check_op(&self, mem: &SimMemory, op: Op, before: Option<u64>) -> Option<String> {
        inner(self).check_op(mem, op, before)
    }
    fn audit(&self, mem: &mut SimMemory) -> Vec<Violation> {
        inner(self).audit(mem)
    }
}

fn inner(t: &ExactTable) -> &dyn ExactTarget {
    match t {
        ExactTable::Cuckoo(t) => t,
        ExactTable::CuckooPlusPlus(t) => t,
        ExactTable::Emoma(t) => t,
    }
}

/// Replays `ops` against the table `build` makes in fresh memory and a
/// `HashMap` oracle — the one exact-match differential driver.
///
/// After every op it compares lookup and remove results and the
/// length with the oracle, then runs the backend's [`ExactTarget`]
/// hooks: free-slot accounting where tracked, the backend's own
/// property ([`ExactTarget::check_op`]), and its auditor — after every
/// op under [`audit_enabled`](crate::audit_enabled), otherwise every
/// [`AUDIT_EPOCH`] ops, and always at the end.
///
/// Ops degrade per capability: `Move` is the backend's
/// [`native_move`](ExactTarget::native_move) followed by a lookup, and
/// `Remove` is a lookup when [`FlowTable::supports_remove`] is false.
/// A refused insert of an absent key is skipped in the oracle when the
/// backend [may refuse](ExactTarget::may_refuse_fresh) one, and is a
/// divergence otherwise.
#[must_use]
pub fn exact_driver<T: ExactTarget>(
    build: impl FnOnce(&mut SimMemory) -> T,
    ops: &[Op],
) -> Option<String> {
    let mut mem = SimMemory::new();
    let mut t = build(&mut mem);
    let mut model: HashMap<u16, u64> = HashMap::new();
    for (i, &op) in ops.iter().enumerate() {
        let before = model.get(&op.key_id()).copied();
        match op {
            Op::Insert(k, v) => {
                if t.insert(&mut mem, &key(k), v).is_ok() {
                    model.insert(k, v);
                } else if before.is_some() || !t.may_refuse_fresh() {
                    return Some(format!(
                        "op {i} ({op}): insert rejected (key present: {})",
                        before.is_some()
                    ));
                }
            }
            Op::Remove(k) if t.supports_remove() => {
                let got = t.remove(&mut mem, &key(k));
                let want = model.remove(&k);
                if got != want {
                    return Some(diverge(i, op, "remove", got, want));
                }
            }
            Op::Remove(k) | Op::Lookup(k) | Op::Move(k) => {
                if matches!(op, Op::Move(_)) {
                    t.native_move(&mut mem, &key(k));
                }
                let got = t.lookup(&mem, &key(k));
                let want = model.get(&k).copied();
                if got != want {
                    return Some(diverge(i, op, "lookup", got, want));
                }
            }
        }
        if t.len() != model.len() {
            return Some(diverge(i, op, "len", t.len(), model.len()));
        }
        if let Some(free) = t.free_slot_count() {
            if t.len() + free != t.capacity() {
                return Some(format!(
                    "op {i} ({op}): occupancy accounting broken: len {} + free {free} != capacity {}",
                    t.len(),
                    t.capacity()
                ));
            }
        }
        if let Some(e) = t.check_op(&mem, op, before) {
            return Some(format!("op {i} ({op}): {e}"));
        }
        if audit_enabled() || (i + 1) % AUDIT_EPOCH == 0 {
            if let Some(v) = t.audit(&mut mem).into_iter().next() {
                return Some(format!("op {i} ({op}): audit violation: {v}"));
            }
        }
    }
    t.audit(&mut mem)
        .into_iter()
        .next()
        .map(|v| format!("final audit: {v}"))
}

/// Replays `ops` against a [`KvStore`] (cuckoo-indexed log store) with
/// 8-byte values derived from the op value.
#[must_use]
pub fn kvstore_driver(ops: &[Op]) -> Option<String> {
    let mut sys = MemorySystem::new(MachineConfig::small());
    let mut kv = KvStore::new(&mut sys, 4096);
    let mut model: HashMap<u16, u64> = HashMap::new();
    for (i, &op) in ops.iter().enumerate() {
        let kbytes = format!("k{}", op.key_id()).into_bytes();
        match op {
            Op::Insert(k, v) => {
                if let Err(e) = kv.set(&mut sys, &kbytes, &v.to_le_bytes()) {
                    return Some(format!("op {i} ({op}): set failed: {e:?}"));
                }
                model.insert(k, v);
            }
            Op::Remove(k) => {
                let got = kv.delete(&mut sys, &kbytes);
                let want = model.remove(&k).is_some();
                if got != want {
                    return Some(diverge(i, op, "delete", got, want));
                }
            }
            Op::Lookup(k) | Op::Move(k) => {
                let got = kv.get(&mut sys, &kbytes);
                let want = model.get(&k).map(|v| v.to_le_bytes().to_vec());
                if got != want {
                    return Some(diverge(i, op, "get", got, want));
                }
            }
        }
        if kv.len() != model.len() {
            return Some(diverge(i, op, "len", kv.len(), model.len()));
        }
    }
    None
}

/// Replays `ops` against the full [`HaloEngine`] stack over a
/// [`CuckooTable`] in a small simulated machine. After every op the
/// op's key is resolved four ways — plain software lookup, `LOOKUP_B`,
/// `LOOKUP_NB` (decoding the destination word), and `SNAPSHOT_READ` of
/// that word — and all four must agree with the oracle. A final
/// invariant audit always runs; with [`audit_enabled`](crate::audit_enabled)
/// the auditor also walks the machine after every op.
#[must_use]
pub fn engine_driver(ops: &[Op]) -> Option<String> {
    let mut sys = MemorySystem::new(MachineConfig::small());
    let mut engine = HaloEngine::new(&sys, AcceleratorConfig::default());
    let mut t = CuckooTable::create(sys.data_mut(), 1 << 9, KEY_LEN); // 4096 slots
    let dest = sys.data_mut().alloc_lines(64);
    let mut model: HashMap<u16, u64> = HashMap::new();
    let mut now = Cycle(0);
    for (i, &op) in ops.iter().enumerate() {
        match op {
            Op::Insert(k, v) => {
                if t.insert(sys.data_mut(), &key(k), v).is_err() {
                    return Some(format!("op {i} ({op}): insert rejected with headroom"));
                }
                model.insert(k, v);
            }
            Op::Remove(k) => {
                let got = t.remove(sys.data_mut(), &key(k));
                let want = model.remove(&k);
                if got != want {
                    return Some(diverge(i, op, "remove", got, want));
                }
            }
            Op::Move(k) => {
                t.cuckoo_move(sys.data_mut(), &key(k));
            }
            Op::Lookup(_) => {}
        }

        let k = op.key_id();
        let fk = key(k);
        let want = model.get(&k).copied();
        let core = CoreId(i % sys.config().cores);

        let sw = t.lookup(sys.data_mut(), &fk);
        if sw != want {
            return Some(diverge(i, op, "software lookup", sw, want));
        }
        let (b, done_b) = engine.lookup_b(&mut sys, core, &t, &fk, None, now);
        if b != want {
            return Some(diverge(i, op, "LOOKUP_B", b, want));
        }
        if done_b <= now {
            return Some(format!("op {i} ({op}): LOOKUP_B completed acausally"));
        }
        let h = engine.lookup_nb(&mut sys, core, &t, &fk, None, dest, done_b);
        if h.result != want {
            return Some(diverge(i, op, "LOOKUP_NB", h.result, want));
        }
        let (word, done_s) = engine.snapshot_read(&mut sys, core, dest, h.result_at);
        if HaloEngine::decode_nb(word) != Some(want) {
            return Some(diverge(
                i,
                op,
                "SNAPSHOT_READ decode",
                HaloEngine::decode_nb(word),
                Some(want),
            ));
        }
        now = done_s.max(h.result_at) + Cycles(16);
        sys.hw_unlock_expired(now);

        if audit_enabled() {
            if let Some(v) = audit_system(&sys, now)
                .into_iter()
                .chain(audit_cuckoo(&t, sys.data_mut()))
                .next()
            {
                return Some(format!("op {i} ({op}): audit violation: {v}"));
            }
        }
    }
    sys.hw_unlock_expired(now);
    if let Some(v) = audit_system(&sys, now)
        .into_iter()
        .chain(audit_cuckoo(&t, sys.data_mut()))
        .chain(audit_table_placement(&t, &sys))
        .next()
    {
        return Some(format!("final audit violation: {v}"));
    }
    None
}

/// A deliberately broken cuckoo "implementation" for the mutation smoke
/// check: `Remove` clears the bucket entry directly through the layout
/// (as a buggy implementation would) without releasing the key-value
/// slot or fixing the length bookkeeping — exactly the occupancy-leak
/// bug class the oracle must catch and shrink to a tiny trace.
#[must_use]
pub fn buggy_cuckoo_driver(ops: &[Op]) -> Option<String> {
    let mut mem = SimMemory::new();
    let mut t = CuckooTable::create(&mut mem, 1 << 10, KEY_LEN);
    let mut model: HashMap<u16, u64> = HashMap::new();
    for (i, &op) in ops.iter().enumerate() {
        match op {
            Op::Insert(k, v) => {
                if t.insert(&mut mem, &key(k), v).is_err() {
                    return Some(format!("op {i} ({op}): insert rejected with headroom"));
                }
                model.insert(k, v);
            }
            Op::Remove(k) => {
                // The bug: clear the entry, leak the slot and the length.
                let fk = key(k);
                let (b1, b2) = bucket_pair(&fk, t.meta().buckets);
                let sig = signature(hash_key(&fk, SEED_PRIMARY));
                'found: for b in [b1, b2] {
                    for e in 0..ENTRIES_PER_BUCKET {
                        let (s, idx) = t.meta().read_entry(&mem, b, e);
                        if s == sig && t.meta().read_kv_key(&mem, idx) == fk {
                            t.meta().clear_entry(&mut mem, b, e);
                            break 'found;
                        }
                    }
                }
                model.remove(&k);
            }
            Op::Lookup(k) | Op::Move(k) => {
                if matches!(op, Op::Move(_)) {
                    t.cuckoo_move(&mut mem, &key(k));
                }
                let got = t.lookup(&mem, &key(k));
                let want = model.get(&k).copied();
                if got != want {
                    return Some(diverge(i, op, "lookup", got, want));
                }
            }
        }
        if t.len() != model.len() {
            return Some(diverge(i, op, "len", t.len(), model.len()));
        }
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;
    use halo_sim::point_seed;

    #[test]
    fn generator_is_deterministic_per_seed() {
        let seed = point_seed("oracle.gen", 0);
        let a = gen_ops(&mut SplitMix64::new(seed), 50, 128);
        let b = gen_ops(&mut SplitMix64::new(seed), 50, 128);
        assert_eq!(a, b);
        let c = gen_ops(&mut SplitMix64::new(seed ^ 1), 50, 128);
        assert_ne!(a, c, "different seeds should differ");
    }

    fn cuckoo(mem: &mut SimMemory) -> CuckooTable {
        CuckooTable::create(mem, 1 << 10, KEY_LEN)
    }

    #[test]
    fn drivers_pass_a_quick_stream() {
        let mut rng = SplitMix64::new(point_seed("oracle.smoke", 0));
        let ops = gen_ops(&mut rng, 40, 64);
        assert_eq!(exact_driver(cuckoo, &ops), None);
        assert_eq!(
            exact_driver(|m| CuckooPlusPlusTable::create(m, 1 << 10, KEY_LEN), &ops),
            None
        );
        assert_eq!(
            exact_driver(|m| EmomaTable::create(m, 1 << 10, KEY_LEN), &ops),
            None
        );
        assert_eq!(
            exact_driver(|m| SfhTable::create(m, 1 << 12, KEY_LEN), &ops),
            None
        );
        assert_eq!(exact_driver(|_| TcamTable::new(1 << 16, 4), &ops), None);
    }

    /// The runtime-selected table carries its backend's hooks: only
    /// EMOMA may refuse a fresh insert, and every backend accounts
    /// free slots.
    #[test]
    fn exact_table_forwards_backend_hooks() {
        let mut mem = SimMemory::new();
        for backend in halo_datapath::TableBackend::all() {
            let t = backend.build(&mut mem, 64, 0.75, KEY_LEN);
            assert_eq!(
                t.may_refuse_fresh(),
                backend == halo_datapath::TableBackend::Emoma
            );
            assert!(t.free_slot_count().is_some());
        }
    }

    #[test]
    fn buggy_driver_diverges_on_insert_then_remove() {
        let ops = [Op::Insert(3, 7), Op::Remove(3)];
        assert!(buggy_cuckoo_driver(&ops).is_some(), "leak must be caught");
        assert_eq!(exact_driver(cuckoo, &ops), None, "real table must pass");
    }
}
