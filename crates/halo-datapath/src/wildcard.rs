//! Wildcard-table backend selection: the [`WildcardTable`] seam the
//! MegaFlow/OpenFlow layer sits behind, mirroring what
//! [`FlowTable`](halo_tables::FlowTable) did for exact match.
//!
//! Every wildcard backend answers the same questions — install/remove a
//! masked or range rule, classify a key, expose the traced probes and
//! the per-probe table addresses HALO dispatch needs — so the datapath
//! ([`crate::LookupExecutor::search`], [`crate::DatapathCore`]), the
//! vswitch, and the multicore PMD loop can select the wildcard
//! implementation at runtime exactly the way
//! [`TableBackend`](crate::TableBackend)/[`ExactTable`](crate::ExactTable)
//! selects exact-match backends:
//!
//! * [`WildcardBackend::Tss`] — tuple space search ([`TssRangeTable`]
//!   wrapping a [`TupleSpace`]): one hash probe per distinct mask;
//!   range rules are installed via prefix expansion
//!   ([`RangeRule::tss_expansion`]), so range-heavy rulesets multiply
//!   both the mask count and the entry count.
//! * [`WildcardBackend::Rvh`] — range-vector hashing ([`RvhTable`]):
//!   a constant [`RVH_VECTORS`](halo_classify::RVH_VECTORS) marker
//!   probes per classification regardless of ruleset shape.
//!
//! Adding a backend means implementing [`WildcardTable`] and adding a
//! [`WildcardBackend`] variant — see DESIGN.md §14.

use std::collections::HashMap;

use halo_classify::{
    FieldRange, PrefixRule, RangeRule, RuleError, RuleMatch, RvhTable, SearchMode, Tuple,
    TupleSpace, WildcardMask, MINIFLOW_LEN, NUM_FIELDS,
};
use halo_mem::{Addr, SimMemory};
use halo_tables::{FlowKey, FlowTable, LookupTrace, TableFullError};

use crate::backend::{ExactTable, TableBackend};

/// Why a wildcard-rule operation failed. The table is unchanged in
/// every case.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WildcardError {
    /// The action does not fit the 48-bit encodable range.
    ActionRange(halo_classify::ActionRangeError),
    /// A backing table cannot place the rule.
    Full(TableFullError),
    /// A masked insert named a mask no tuple carries (the tuple space
    /// fixes its masks at construction).
    UnknownMask,
    /// The backend cannot express this rule form (e.g. range rules on a
    /// plain tuple space without expansion support).
    UnsupportedRanges,
}

impl std::fmt::Display for WildcardError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            WildcardError::ActionRange(e) => write!(f, "{e}"),
            WildcardError::Full(_) => write!(f, "wildcard table full"),
            WildcardError::UnknownMask => write!(f, "no tuple carries this mask"),
            WildcardError::UnsupportedRanges => {
                write!(f, "backend cannot express range rules")
            }
        }
    }
}

impl std::error::Error for WildcardError {}

impl From<RuleError> for WildcardError {
    fn from(e: RuleError) -> Self {
        match e {
            RuleError::ActionRange(a) => WildcardError::ActionRange(a),
            RuleError::Full(t) => WildcardError::Full(t),
        }
    }
}

impl From<TableFullError> for WildcardError {
    fn from(e: TableFullError) -> Self {
        WildcardError::Full(e)
    }
}

/// An object-safe wildcard classification table: the MegaFlow/OpenFlow
/// slot every backend plugs into.
///
/// Rules arrive in two forms — `(mask, key)` pairs (the native tuple
/// space vocabulary) and [`RangeRule`]s (per-field intervals) — and a
/// backend may support either or both. Classification resolves on
/// (priority desc, then the backend's pinned deterministic tie-break);
/// differential drivers use unique priorities so backends cannot
/// legally diverge.
pub trait WildcardTable: std::fmt::Debug {
    /// Stable backend name (figure rows and JSON).
    fn name(&self) -> &'static str;

    /// Number of installed rules.
    fn rules(&self) -> usize;

    /// Hash probes a single classification performs (the tuple count
    /// for TSS, the vector count for RVH).
    fn probes(&self) -> usize;

    /// Installs a masked rule, returning the `(priority, action)` it
    /// replaced if the masked key was already installed.
    ///
    /// # Errors
    ///
    /// [`WildcardError::UnknownMask`] if no probe slot carries `mask`,
    /// [`WildcardError::ActionRange`] / [`WildcardError::Full`] from
    /// the backing table. The table is unchanged on error.
    fn insert_masked(
        &mut self,
        mem: &mut SimMemory,
        mask: &WildcardMask,
        key: &FlowKey,
        priority: u16,
        action: u64,
    ) -> Result<Option<(u16, u64)>, WildcardError>;

    /// Removes the masked rule, returning its `(priority, action)` if
    /// it was installed.
    fn remove_masked(
        &mut self,
        mem: &mut SimMemory,
        mask: &WildcardMask,
        key: &FlowKey,
    ) -> Option<(u16, u64)>;

    /// Installs a range rule, returning the `(priority, action)` of the
    /// identically-shaped rule it replaced, if any.
    ///
    /// # Errors
    ///
    /// [`WildcardError::UnsupportedRanges`] for backends without a
    /// range representation; otherwise as [`Self::insert_masked`].
    fn insert_range(
        &mut self,
        mem: &mut SimMemory,
        rule: &RangeRule,
    ) -> Result<Option<(u16, u64)>, WildcardError>;

    /// Removes the range rule with exactly these intervals, returning
    /// its `(priority, action)` if it was installed.
    fn remove_range(&mut self, mem: &mut SimMemory, rule: &RangeRule) -> Option<(u16, u64)>;

    /// Functional classification.
    fn classify(&self, mem: &SimMemory, key: &FlowKey) -> Option<RuleMatch> {
        self.classify_traced(mem, key, false).0
    }

    /// Classification returning the per-probe lookup traces actually
    /// performed, in probe order — the contract
    /// [`crate::LookupExecutor::search`] prices.
    fn classify_traced(
        &self,
        mem: &SimMemory,
        key: &FlowKey,
        software_locking: bool,
    ) -> (Option<RuleMatch>, Vec<(usize, LookupTrace)>);

    /// The dispatchable metadata-line address of probe slot `probe`
    /// (what HALO's `RAX` implicit operand holds). `None` when the slot
    /// has no in-memory table.
    fn probe_meta_addr(&self, probe: usize) -> Option<Addr>;

    /// The optimistic-lock version counter of probe slot `probe`, when
    /// the backing table models one.
    fn probe_version_addr(&self, probe: usize) -> Option<Addr>;

    /// Every simulated-memory line the table occupies (LLC warming and
    /// footprint accounting).
    fn memory_lines(&self) -> Vec<Addr>;
}

impl<T: FlowTable> WildcardTable for TupleSpace<T> {
    fn name(&self) -> &'static str {
        "tss"
    }

    fn rules(&self) -> usize {
        self.total_rules()
    }

    fn probes(&self) -> usize {
        self.tuples().len()
    }

    fn insert_masked(
        &mut self,
        mem: &mut SimMemory,
        mask: &WildcardMask,
        key: &FlowKey,
        priority: u16,
        action: u64,
    ) -> Result<Option<(u16, u64)>, WildcardError> {
        let idx = self
            .tuple_with_mask(mask)
            .ok_or(WildcardError::UnknownMask)?;
        Ok(self.insert_rule(mem, idx, key, priority, action)?)
    }

    fn remove_masked(
        &mut self,
        mem: &mut SimMemory,
        mask: &WildcardMask,
        key: &FlowKey,
    ) -> Option<(u16, u64)> {
        let idx = self.tuple_with_mask(mask)?;
        self.remove_rule(mem, idx, key)
    }

    fn insert_range(
        &mut self,
        _mem: &mut SimMemory,
        _rule: &RangeRule,
    ) -> Result<Option<(u16, u64)>, WildcardError> {
        Err(WildcardError::UnsupportedRanges)
    }

    fn remove_range(&mut self, _mem: &mut SimMemory, _rule: &RangeRule) -> Option<(u16, u64)> {
        None
    }

    fn classify_traced(
        &self,
        mem: &SimMemory,
        key: &FlowKey,
        software_locking: bool,
    ) -> (Option<RuleMatch>, Vec<(usize, LookupTrace)>) {
        TupleSpace::classify_traced(self, mem, key, software_locking)
    }

    fn probe_meta_addr(&self, probe: usize) -> Option<Addr> {
        self.tuples().get(probe).and_then(|t| t.table().meta_addr())
    }

    fn probe_version_addr(&self, probe: usize) -> Option<Addr> {
        self.tuples()
            .get(probe)
            .and_then(|t| t.table().version_addr())
    }

    fn memory_lines(&self) -> Vec<Addr> {
        self.tuples()
            .iter()
            .flat_map(|t| t.table().warm_lines())
            .collect()
    }
}

/// Tuple space search with range-rule support via prefix expansion.
///
/// Masked rules pass straight through to the wrapped [`TupleSpace`].
/// A [`RangeRule`] is decomposed into aligned prefixes per field and
/// cross-producted ([`RangeRule::tss_expansion`]); each expansion
/// element is installed in the tuple carrying its mask (created on
/// first use, the way OVS grows MegaFlow tuples).
///
/// Expansions of overlapping rules share elements, so the bookkeeping
/// keeps one invariant: an element's **owners** are the live rules
/// whose own expansion contains it, the element is installed iff it
/// has an owner, and its entry holds the best owner's
/// `(priority, action)` (ties to the earliest installed). That is
/// sound and complete under [`SearchMode::HighestPriority`]: every
/// rule matching a key owns an element containing that key, and every
/// owner of a matching element matches the key. Insert and remove add
/// or drop one owner per element and rewrite an entry only when its
/// best owner changes, so update cost is independent of how many
/// rules were ever installed.
///
/// Mixing masked-rule and range-rule APIs on one instance is not
/// supported (the owner bookkeeping only tracks range rules); the
/// drivers use one vocabulary per table, as the vswitch does.
#[derive(Debug)]
pub struct TssRangeTable {
    space: TupleSpace<ExactTable>,
    backend: TableBackend,
    entries_per_tuple: usize,
    /// Every live range rule by its intervals.
    rules: HashMap<[FieldRange; NUM_FIELDS], Owner>,
    /// Install counter: the tie-break among equal-priority owners.
    next_seq: u64,
    /// The owners of every installed expansion element.
    entries: HashMap<(WildcardMask, FlowKey), Vec<Owner>>,
}

/// A live range rule as its expansion elements see it. `seq` is fixed
/// at first install and kept across in-place replacement.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Owner {
    priority: u16,
    action: u64,
    seq: u64,
}

/// The owner whose `(priority, action)` an element's entry holds:
/// highest priority, then earliest installed.
fn best(owners: &[Owner]) -> Option<Owner> {
    owners
        .iter()
        .copied()
        .max_by_key(|o| (o.priority, std::cmp::Reverse(o.seq)))
}

impl TssRangeTable {
    /// Builds a range-capable tuple space with one tuple per mask in
    /// `masks` (each sized for `entries_per_tuple` rules of the chosen
    /// exact-match backend); further tuples grow on demand as range
    /// expansions introduce new masks.
    #[must_use]
    pub fn with_masks(
        mem: &mut SimMemory,
        backend: TableBackend,
        masks: &[WildcardMask],
        entries_per_tuple: usize,
        mode: SearchMode,
    ) -> Self {
        let tuples = masks
            .iter()
            .map(|mask| {
                Tuple::from_parts(
                    mask.clone(),
                    backend.build(mem, entries_per_tuple, 0.85, MINIFLOW_LEN),
                )
            })
            .collect();
        TssRangeTable {
            space: TupleSpace::from_tuples(tuples, mode),
            backend,
            entries_per_tuple,
            rules: HashMap::new(),
            next_seq: 0,
            entries: HashMap::new(),
        }
    }

    /// The wrapped tuple space, read-only.
    #[must_use]
    pub fn space(&self) -> &TupleSpace<ExactTable> {
        &self.space
    }

    /// The tuple carrying `mask`, created if absent.
    fn ensure_tuple(&mut self, mem: &mut SimMemory, mask: &WildcardMask) -> usize {
        if let Some(i) = self.space.tuple_with_mask(mask) {
            return i;
        }
        let table = self
            .backend
            .build(mem, self.entries_per_tuple, 0.85, MINIFLOW_LEN);
        self.space
            .push_tuple(Tuple::from_parts(mask.clone(), table))
    }

    /// Applies `edit` to element `p`'s owner list, then brings its
    /// table entry back in line with the invariant: rewritten when the
    /// best owner changed, removed when no owner is left.
    fn edit_owners(
        &mut self,
        mem: &mut SimMemory,
        p: &PrefixRule,
        edit: impl FnOnce(&mut Vec<Owner>),
    ) -> Result<(), WildcardError> {
        let idx = self.ensure_tuple(mem, &p.mask);
        let element = (p.mask.clone(), p.key);
        let owners = self.entries.entry(element.clone()).or_default();
        let before = best(owners);
        edit(owners);
        match best(owners) {
            None => {
                self.entries.remove(&element);
                self.space.remove_rule(mem, idx, &p.key);
            }
            Some(o) if Some(o) != before => {
                self.space
                    .insert_rule(mem, idx, &p.key, o.priority, o.action)?;
            }
            Some(_) => {}
        }
        Ok(())
    }
}

impl WildcardTable for TssRangeTable {
    fn name(&self) -> &'static str {
        "tss"
    }

    fn rules(&self) -> usize {
        if self.rules.is_empty() {
            self.space.total_rules()
        } else {
            self.rules.len()
        }
    }

    fn probes(&self) -> usize {
        self.space.tuples().len()
    }

    fn insert_masked(
        &mut self,
        mem: &mut SimMemory,
        mask: &WildcardMask,
        key: &FlowKey,
        priority: u16,
        action: u64,
    ) -> Result<Option<(u16, u64)>, WildcardError> {
        let idx = self
            .space
            .tuple_with_mask(mask)
            .ok_or(WildcardError::UnknownMask)?;
        Ok(self.space.insert_rule(mem, idx, key, priority, action)?)
    }

    fn remove_masked(
        &mut self,
        mem: &mut SimMemory,
        mask: &WildcardMask,
        key: &FlowKey,
    ) -> Option<(u16, u64)> {
        let idx = self.space.tuple_with_mask(mask)?;
        self.space.remove_rule(mem, idx, key)
    }

    fn insert_range(
        &mut self,
        mem: &mut SimMemory,
        rule: &RangeRule,
    ) -> Result<Option<(u16, u64)>, WildcardError> {
        halo_classify::try_encode_rule(rule.priority, rule.action)
            .map_err(RuleError::from)
            .map_err(WildcardError::from)?;
        let expansion = rule.tss_expansion();
        if let Some(owner) = self.rules.get_mut(&rule.ranges) {
            // Identical intervals: replace in place. Same expansion and
            // same seq, so only the entries this owner wins change, and
            // those overwrite existing slots.
            let old = *owner;
            let new = Owner {
                priority: rule.priority,
                action: rule.action,
                ..old
            };
            *owner = new;
            for p in &expansion {
                self.edit_owners(mem, p, |owners| {
                    for o in owners.iter_mut().filter(|o| o.seq == new.seq) {
                        *o = new;
                    }
                })?;
            }
            return Ok(Some((old.priority, old.action)));
        }
        let owner = Owner {
            priority: rule.priority,
            action: rule.action,
            seq: self.next_seq,
        };
        for (done, p) in expansion.iter().enumerate() {
            if let Err(e) = self.edit_owners(mem, p, |owners| owners.push(owner)) {
                // Unwind the ownerships already taken, so every entry
                // is back to its previous best owner.
                for q in &expansion[..=done] {
                    let _ =
                        self.edit_owners(mem, q, |owners| owners.retain(|o| o.seq != owner.seq));
                }
                return Err(e);
            }
        }
        self.next_seq += 1;
        self.rules.insert(rule.ranges, owner);
        Ok(None)
    }

    fn remove_range(&mut self, mem: &mut SimMemory, rule: &RangeRule) -> Option<(u16, u64)> {
        let owner = self.rules.remove(&rule.ranges)?;
        for p in rule.tss_expansion() {
            // Dropping an owner only removes or overwrites entries,
            // neither of which can fail.
            let _ = self.edit_owners(mem, &p, |owners| owners.retain(|o| o.seq != owner.seq));
        }
        Some((owner.priority, owner.action))
    }

    fn classify_traced(
        &self,
        mem: &SimMemory,
        key: &FlowKey,
        software_locking: bool,
    ) -> (Option<RuleMatch>, Vec<(usize, LookupTrace)>) {
        self.space.classify_traced(mem, key, software_locking)
    }

    fn probe_meta_addr(&self, probe: usize) -> Option<Addr> {
        self.space
            .tuples()
            .get(probe)
            .and_then(|t| t.table().meta_addr())
    }

    fn probe_version_addr(&self, probe: usize) -> Option<Addr> {
        self.space
            .tuples()
            .get(probe)
            .and_then(|t| FlowTable::version_addr(t.table()))
    }

    fn memory_lines(&self) -> Vec<Addr> {
        self.space
            .tuples()
            .iter()
            .flat_map(|t| t.table().warm_lines())
            .collect()
    }
}

impl WildcardTable for RvhTable {
    fn name(&self) -> &'static str {
        "rvh"
    }

    fn rules(&self) -> usize {
        self.len()
    }

    fn probes(&self) -> usize {
        RvhTable::probes(self)
    }

    fn insert_masked(
        &mut self,
        mem: &mut SimMemory,
        mask: &WildcardMask,
        key: &FlowKey,
        priority: u16,
        action: u64,
    ) -> Result<Option<(u16, u64)>, WildcardError> {
        // RVH has no mask vocabulary of its own: prefix masks convert
        // losslessly to ranges.
        let rule = RangeRule::from_masked_key(mask, key, priority, action)
            .ok_or(WildcardError::UnknownMask)?;
        Ok(RvhTable::insert(self, mem, &rule)?)
    }

    fn remove_masked(
        &mut self,
        mem: &mut SimMemory,
        mask: &WildcardMask,
        key: &FlowKey,
    ) -> Option<(u16, u64)> {
        let rule = RangeRule::from_masked_key(mask, key, 0, 0)?;
        RvhTable::remove(self, mem, &rule.ranges)
    }

    fn insert_range(
        &mut self,
        mem: &mut SimMemory,
        rule: &RangeRule,
    ) -> Result<Option<(u16, u64)>, WildcardError> {
        Ok(RvhTable::insert(self, mem, rule)?)
    }

    fn remove_range(&mut self, mem: &mut SimMemory, rule: &RangeRule) -> Option<(u16, u64)> {
        RvhTable::remove(self, mem, &rule.ranges)
    }

    fn classify_traced(
        &self,
        mem: &SimMemory,
        key: &FlowKey,
        software_locking: bool,
    ) -> (Option<RuleMatch>, Vec<(usize, LookupTrace)>) {
        RvhTable::classify_traced(self, mem, key, software_locking)
    }

    fn probe_meta_addr(&self, probe: usize) -> Option<Addr> {
        RvhTable::probe_meta_addr(self, probe)
    }

    fn probe_version_addr(&self, probe: usize) -> Option<Addr> {
        RvhTable::probe_version_addr(self, probe)
    }

    fn memory_lines(&self) -> Vec<Addr> {
        RvhTable::memory_lines(self)
    }
}

/// Which wildcard-table implementation backs the MegaFlow/OpenFlow
/// layer.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum WildcardBackend {
    /// Tuple space search (the OVS baseline; ranges via expansion).
    #[default]
    Tss,
    /// Range-vector hashing (constant marker probes).
    Rvh,
}

impl WildcardBackend {
    /// Every selectable backend, in ablation order.
    #[must_use]
    pub fn all() -> [WildcardBackend; 2] {
        [WildcardBackend::Tss, WildcardBackend::Rvh]
    }

    /// Stable display name (figure rows and JSON).
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            WildcardBackend::Tss => "tss",
            WildcardBackend::Rvh => "rvh",
        }
    }

    /// Builds a wildcard table of this backend: one tuple per mask of
    /// `entries_per_tuple` exact-backend entries for TSS, marker tables
    /// sized for the same total rule budget for RVH.
    #[must_use]
    pub fn build(
        self,
        mem: &mut SimMemory,
        exact: TableBackend,
        masks: &[WildcardMask],
        entries_per_tuple: usize,
        mode: SearchMode,
    ) -> WildcardMatcher {
        match self {
            WildcardBackend::Tss => WildcardMatcher::Tss(TssRangeTable::with_masks(
                mem,
                exact,
                masks,
                entries_per_tuple,
                mode,
            )),
            WildcardBackend::Rvh => WildcardMatcher::Rvh(Box::new(RvhTable::with_capacity(
                mem,
                entries_per_tuple * masks.len().max(1),
            ))),
        }
    }
}

/// A runtime-selected wildcard table: the concrete backend behind one
/// enum so configs carry a [`WildcardBackend`] instead of a type
/// parameter. Implements [`WildcardTable`] by delegation.
#[derive(Debug)]
pub enum WildcardMatcher {
    /// Tuple space search with range expansion.
    Tss(TssRangeTable),
    /// Range-vector hash (boxed: its fixed vector array dwarfs the
    /// TSS variant).
    Rvh(Box<RvhTable>),
}

impl WildcardMatcher {
    /// Which backend this matcher is.
    #[must_use]
    pub fn backend(&self) -> WildcardBackend {
        match self {
            WildcardMatcher::Tss(_) => WildcardBackend::Tss,
            WildcardMatcher::Rvh(_) => WildcardBackend::Rvh,
        }
    }
}

impl WildcardTable for WildcardMatcher {
    fn name(&self) -> &'static str {
        match self {
            WildcardMatcher::Tss(t) => t.name(),
            WildcardMatcher::Rvh(t) => WildcardTable::name(t.as_ref()),
        }
    }

    fn rules(&self) -> usize {
        match self {
            WildcardMatcher::Tss(t) => WildcardTable::rules(t),
            WildcardMatcher::Rvh(t) => WildcardTable::rules(t.as_ref()),
        }
    }

    fn probes(&self) -> usize {
        match self {
            WildcardMatcher::Tss(t) => WildcardTable::probes(t),
            WildcardMatcher::Rvh(t) => WildcardTable::probes(t.as_ref()),
        }
    }

    fn insert_masked(
        &mut self,
        mem: &mut SimMemory,
        mask: &WildcardMask,
        key: &FlowKey,
        priority: u16,
        action: u64,
    ) -> Result<Option<(u16, u64)>, WildcardError> {
        match self {
            WildcardMatcher::Tss(t) => t.insert_masked(mem, mask, key, priority, action),
            WildcardMatcher::Rvh(t) => t.insert_masked(mem, mask, key, priority, action),
        }
    }

    fn remove_masked(
        &mut self,
        mem: &mut SimMemory,
        mask: &WildcardMask,
        key: &FlowKey,
    ) -> Option<(u16, u64)> {
        match self {
            WildcardMatcher::Tss(t) => t.remove_masked(mem, mask, key),
            WildcardMatcher::Rvh(t) => t.remove_masked(mem, mask, key),
        }
    }

    fn insert_range(
        &mut self,
        mem: &mut SimMemory,
        rule: &RangeRule,
    ) -> Result<Option<(u16, u64)>, WildcardError> {
        match self {
            WildcardMatcher::Tss(t) => t.insert_range(mem, rule),
            WildcardMatcher::Rvh(t) => WildcardTable::insert_range(t.as_mut(), mem, rule),
        }
    }

    fn remove_range(&mut self, mem: &mut SimMemory, rule: &RangeRule) -> Option<(u16, u64)> {
        match self {
            WildcardMatcher::Tss(t) => t.remove_range(mem, rule),
            WildcardMatcher::Rvh(t) => WildcardTable::remove_range(t.as_mut(), mem, rule),
        }
    }

    fn classify_traced(
        &self,
        mem: &SimMemory,
        key: &FlowKey,
        software_locking: bool,
    ) -> (Option<RuleMatch>, Vec<(usize, LookupTrace)>) {
        match self {
            WildcardMatcher::Tss(t) => t.classify_traced(mem, key, software_locking),
            WildcardMatcher::Rvh(t) => {
                WildcardTable::classify_traced(t.as_ref(), mem, key, software_locking)
            }
        }
    }

    fn probe_meta_addr(&self, probe: usize) -> Option<Addr> {
        match self {
            WildcardMatcher::Tss(t) => WildcardTable::probe_meta_addr(t, probe),
            WildcardMatcher::Rvh(t) => WildcardTable::probe_meta_addr(t.as_ref(), probe),
        }
    }

    fn probe_version_addr(&self, probe: usize) -> Option<Addr> {
        match self {
            WildcardMatcher::Tss(t) => WildcardTable::probe_version_addr(t, probe),
            WildcardMatcher::Rvh(t) => WildcardTable::probe_version_addr(t.as_ref(), probe),
        }
    }

    fn memory_lines(&self) -> Vec<Addr> {
        match self {
            WildcardMatcher::Tss(t) => WildcardTable::memory_lines(t),
            WildcardMatcher::Rvh(t) => WildcardTable::memory_lines(t.as_ref()),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use halo_classify::{distinct_masks, PacketHeader, FIELDS};

    fn range_rule(id: u64, lo: u64, hi: u64, priority: u16, action: u64) -> RangeRule {
        let mut rule =
            RangeRule::exact_flow(&PacketHeader::synthetic(id).miniflow(), priority, action);
        rule.ranges[3] = FieldRange::span(lo, hi);
        rule
    }

    /// Both backends build through the selector, accept both rule
    /// vocabularies (prefix-mask rules convert for RVH), and classify
    /// identically on unique-priority rules.
    #[test]
    fn both_backends_serve_both_vocabularies() {
        for backend in WildcardBackend::all() {
            let mut mem = SimMemory::new();
            let masks = distinct_masks(4);
            let mut w = backend.build(
                &mut mem,
                TableBackend::Cuckoo,
                &masks,
                256,
                SearchMode::HighestPriority,
            );
            assert_eq!(w.backend(), backend);
            let pkt = PacketHeader::synthetic(5);
            let key = pkt.miniflow();
            assert_eq!(
                w.insert_masked(&mut mem, &masks[1], &key, 3, 30).unwrap(),
                None,
                "{}",
                backend.name()
            );
            let hit = w
                .classify(&mem, &key)
                .unwrap_or_else(|| panic!("{}: no match", backend.name()));
            assert_eq!((hit.priority, hit.action), (3, 30));
            // Masked replacement reports the incumbent.
            assert_eq!(
                w.insert_masked(&mut mem, &masks[1], &key, 4, 40).unwrap(),
                Some((3, 30))
            );
            assert_eq!(w.remove_masked(&mut mem, &masks[1], &key), Some((4, 40)));
            assert_eq!(w.classify(&mem, &key), None);
            // Range rules.
            let rule = range_rule(5, 1_000, 1_999, 7, 70);
            assert_eq!(w.insert_range(&mut mem, &rule).unwrap(), None);
            assert_eq!(
                w.classify(&mem, &rule.point_key()).map(|m| m.action),
                Some(70)
            );
            assert_eq!(w.remove_range(&mut mem, &rule), Some((7, 70)));
            assert_eq!(w.classify(&mem, &rule.point_key()), None);
            assert_eq!(WildcardTable::rules(&w), 0);
        }
    }

    /// Overlapping range rules resolve by priority on both backends —
    /// including after the higher-priority rule is removed (the TSS
    /// owner bookkeeping must re-expose the shadowed rule).
    #[test]
    fn overlap_resolution_survives_removal() {
        for backend in WildcardBackend::all() {
            let mut mem = SimMemory::new();
            let mut w = backend.build(
                &mut mem,
                TableBackend::Cuckoo,
                &distinct_masks(2),
                512,
                SearchMode::HighestPriority,
            );
            let wide = range_rule(9, 0, 65_535, 2, 200);
            let narrow = {
                let mut r = wide;
                r.ranges[3] = FieldRange::span(1_000, 1_099);
                r.priority = 8;
                r.action = 800;
                r
            };
            w.insert_range(&mut mem, &wide).unwrap();
            w.insert_range(&mut mem, &narrow).unwrap();
            let mut bytes = [0u8; MINIFLOW_LEN];
            bytes.copy_from_slice(wide.point_key().as_bytes());
            FIELDS[3].write(&mut bytes, 1_050);
            let key = FlowKey::from_bytes(&bytes);
            assert_eq!(
                w.classify(&mem, &key).map(|m| m.action),
                Some(800),
                "{}: narrow high-priority wins",
                backend.name()
            );
            assert_eq!(w.remove_range(&mut mem, &narrow), Some((8, 800)));
            assert_eq!(
                w.classify(&mem, &key).map(|m| m.action),
                Some(200),
                "{}: wide rule re-exposed after removal",
                backend.name()
            );
            // Removing the last covering rule must not leave stale
            // entries from the earlier overlap behind.
            assert_eq!(w.remove_range(&mut mem, &wide), Some((2, 200)));
            assert_eq!(
                w.classify(&mem, &key),
                None,
                "{}: no rule left, no match",
                backend.name()
            );
            assert_eq!(WildcardTable::rules(&w), 0);
        }
    }

    /// Sustained range-rule churn keeps the TSS bookkeeping flat: after
    /// every remove+insert pair the rule map holds exactly the live
    /// rules, and at the end the owner map holds exactly the installed
    /// entries — nothing grows with the number of rules ever inserted.
    #[test]
    fn range_churn_keeps_bookkeeping_flat() {
        let pairs = if cfg!(feature = "slow-tests") {
            100_000
        } else {
            10_000
        };
        let mut mem = SimMemory::new();
        let mut t = TssRangeTable::with_masks(
            &mut mem,
            TableBackend::Cuckoo,
            &[],
            512,
            SearchMode::HighestPriority,
        );
        // Overlapping unaligned port spans over four flows.
        let pool: Vec<RangeRule> = (0..64u64)
            .map(|i| range_rule(i % 4, 1_000 + i * 37, 1_300 + i * 53, i as u16, i))
            .collect();
        let (mut live, mut dead): (Vec<usize>, Vec<usize>) = (0..64).partition(|i| i % 2 == 0);
        for &i in &live {
            t.insert_range(&mut mem, &pool[i]).unwrap();
        }
        let mut rng = halo_sim::SplitMix64::new(7);
        for _ in 0..pairs {
            let gone = live.swap_remove(rng.below(live.len() as u64) as usize);
            assert!(t.remove_range(&mut mem, &pool[gone]).is_some());
            let back = dead.swap_remove(rng.below(dead.len() as u64) as usize);
            assert_eq!(t.insert_range(&mut mem, &pool[back]).unwrap(), None);
            live.push(back);
            dead.push(gone);
            assert_eq!(t.rules.len(), live.len());
        }
        assert_eq!(t.entries.len(), t.space().total_rules());
        let elements: std::collections::HashSet<_> = live
            .iter()
            .flat_map(|&i| pool[i].tss_expansion())
            .map(|p| (p.mask, p.key))
            .collect();
        assert_eq!(t.entries.len(), elements.len());
    }

    /// The trait impl for a plain `TupleSpace` is behaviorally identical
    /// to its inherent methods — the seam the datapath genericized over
    /// must not change what default-configured frontends observe.
    #[test]
    fn tuple_space_trait_impl_is_transparent() {
        let mut mem = SimMemory::new();
        let masks = distinct_masks(4);
        let mut tss = TupleSpace::new(&mut mem, masks.clone(), 256, SearchMode::FirstMatch);
        let key = PacketHeader::synthetic(2).miniflow();
        tss.insert_rule(&mut mem, 2, &key, 0, 11).unwrap();
        let (inherent, inherent_probes) = TupleSpace::classify_traced(&tss, &mem, &key, true);
        let dt: &dyn WildcardTable = &tss;
        let (via, via_probes) = dt.classify_traced(&mem, &key, true);
        assert_eq!(inherent, via);
        assert_eq!(inherent_probes.len(), via_probes.len());
        for ((i, a), (j, b)) in inherent_probes.iter().zip(&via_probes) {
            assert_eq!(i, j);
            assert_eq!(a.result, b.result);
            assert_eq!(a.steps, b.steps);
        }
        assert_eq!(
            dt.probe_meta_addr(2),
            FlowTable::meta_addr(tss.tuples()[2].table()),
            "dispatch address must match the legacy tuple_addr path"
        );
        assert_eq!(dt.probes(), 4);
        assert_eq!(
            tss.insert_range(&mut mem, &range_rule(1, 0, 9, 1, 1)),
            Err(WildcardError::UnsupportedRanges),
            "plain tuple spaces have no range vocabulary"
        );
    }

    /// Range-heavy rulesets need far fewer probes on RVH than on TSS:
    /// the headline claim the ablation figure quantifies.
    #[test]
    fn rvh_probes_fewer_buckets_on_ranges() {
        let mut mem = SimMemory::new();
        let mut tss = WildcardBackend::Tss.build(
            &mut mem,
            TableBackend::Cuckoo,
            &[],
            512,
            SearchMode::HighestPriority,
        );
        let mut rvh = WildcardBackend::Rvh.build(
            &mut mem,
            TableBackend::Cuckoo,
            &[],
            512,
            SearchMode::HighestPriority,
        );
        for id in 0..40u64 {
            let rule = range_rule(id, 1_000 + id * 13, 1_700 + id * 29, id as u16, id);
            tss.insert_range(&mut mem, &rule).unwrap();
            rvh.insert_range(&mut mem, &rule).unwrap();
        }
        assert!(
            WildcardTable::probes(&rvh) < WildcardTable::probes(&tss),
            "rvh {} probes vs tss {}",
            WildcardTable::probes(&rvh),
            WildcardTable::probes(&tss)
        );
        // And they agree functionally (unique priorities).
        for id in 0..40u64 {
            let key = range_rule(id, 1_000 + id * 13, 1_700 + id * 29, id as u16, id).point_key();
            assert_eq!(
                tss.classify(&mem, &key).map(|m| (m.priority, m.action)),
                rvh.classify(&mem, &key).map(|m| (m.priority, m.action)),
                "flow {id}"
            );
        }
    }

    /// A masked insert for a mask no tuple carries is a typed error on
    /// TSS and converts transparently on RVH.
    #[test]
    fn unknown_mask_behaviour_per_backend() {
        let mut mem = SimMemory::new();
        let masks = distinct_masks(2);
        let key = PacketHeader::synthetic(1).miniflow();
        let foreign = distinct_masks(8)[7].clone();
        let mut tss = WildcardBackend::Tss.build(
            &mut mem,
            TableBackend::Cuckoo,
            &masks,
            64,
            SearchMode::FirstMatch,
        );
        assert_eq!(
            tss.insert_masked(&mut mem, &foreign, &key, 1, 1),
            Err(WildcardError::UnknownMask)
        );
        let mut rvh = WildcardBackend::Rvh.build(
            &mut mem,
            TableBackend::Cuckoo,
            &masks,
            64,
            SearchMode::FirstMatch,
        );
        assert_eq!(
            rvh.insert_masked(&mut mem, &foreign, &key, 1, 1).unwrap(),
            None,
            "prefix masks always convert to ranges"
        );
        assert_eq!(rvh.classify(&mem, &key).map(|m| m.action), Some(1));
    }
}
