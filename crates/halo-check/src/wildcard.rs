//! Wildcard-backend differential: churn/flood streams of range rules
//! and classifications replayed against a linear-scan oracle on every
//! [`WildcardBackend`].
//!
//! The exact-match differentials validate one tuple's table; this
//! driver validates the whole wildcard seam — TSS prefix expansion
//! (each element resolved among the rules that own it) and RVH marker
//! tables (anchor-vector candidate lists) must both agree with a
//! priority-ordered linear scan on every insert, remove, and
//! classification. Backends are compared on `(priority, action)`, not
//! probe indices, since probe numbering is backend-private. Rule pools
//! come from [`halo_nf::generate_ruleset`] or [`nested_ruleset`], all
//! with unique priorities, so backends cannot legally diverge on
//! tie-breaks. [`audit_wildcard`] additionally recomputes every
//! installed TSS entry from the live rules.

use std::collections::hash_map::Entry;
use std::collections::HashMap;
use std::fmt;

use halo_classify::{decode_rule, FieldRange, RangeRule, NUM_FIELDS};
use halo_datapath::{TableBackend, TssRangeTable, WildcardBackend, WildcardMatcher, WildcardTable};
use halo_mem::SimMemory;
use halo_nf::sample_point;
use halo_sim::{point_seed, SplitMix64};
use halo_tables::{FlowKey, FlowTable};

use crate::audit_enabled;
use crate::oracle::AUDIT_EPOCH;
use crate::shrink::{shrink_ops, MinimalTrace};
use crate::Violation;

/// One operation of a wildcard differential stream.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum WildcardOp {
    /// Install (or replace) a range rule.
    Insert(RangeRule),
    /// Remove the rule with exactly these intervals.
    Remove(RangeRule),
    /// Classify a key and compare `(priority, action)` with the oracle.
    Classify(FlowKey),
}

impl fmt::Display for WildcardOp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            WildcardOp::Insert(r) => write!(f, "insert(prio {}, act {})", r.priority, r.action),
            WildcardOp::Remove(r) => write!(f, "remove(prio {}, act {})", r.priority, r.action),
            WildcardOp::Classify(k) => write!(f, "classify({:02x?})", &k.as_bytes()[..4]),
        }
    }
}

/// A linear-scan range-rule oracle: the slowest possible but obviously
/// correct wildcard classifier. Insertion order breaks priority ties
/// (first installed wins), matching the pinned backend tie-breaks —
/// though differential rulesets use unique priorities anyway.
#[derive(Debug, Default)]
pub struct RangeOracle {
    rules: Vec<RangeRule>,
}

impl RangeOracle {
    /// An empty oracle.
    #[must_use]
    pub fn new() -> Self {
        RangeOracle::default()
    }

    /// Live rules.
    #[must_use]
    pub fn len(&self) -> usize {
        self.rules.len()
    }

    /// The live rules in install order (a replaced rule keeps its
    /// place).
    #[must_use]
    pub fn rules(&self) -> &[RangeRule] {
        &self.rules
    }

    /// Whether no rules are installed.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.rules.is_empty()
    }

    /// Installs `rule`, replacing in place the rule with identical
    /// intervals if one exists; returns what it replaced.
    pub fn insert(&mut self, rule: &RangeRule) -> Option<(u16, u64)> {
        if let Some(old) = self.rules.iter_mut().find(|r| r.ranges == rule.ranges) {
            let prev = (old.priority, old.action);
            *old = *rule;
            return Some(prev);
        }
        self.rules.push(*rule);
        None
    }

    /// Removes the rule with exactly `ranges`, returning its
    /// `(priority, action)` if it was installed.
    pub fn remove(&mut self, ranges: &[FieldRange; NUM_FIELDS]) -> Option<(u16, u64)> {
        let i = self.rules.iter().position(|r| &r.ranges == ranges)?;
        let r = self.rules.remove(i);
        Some((r.priority, r.action))
    }

    /// The highest-priority matching rule's `(priority, action)`
    /// (earliest-installed on ties).
    #[must_use]
    pub fn classify(&self, key: &FlowKey) -> Option<(u16, u64)> {
        let mut best: Option<(u16, u64)> = None;
        for r in &self.rules {
            if r.matches(key) && best.is_none_or(|(p, _)| r.priority > p) {
                best = Some((r.priority, r.action));
            }
        }
        best
    }
}

/// An adversarial pool for TSS range expansion: `pairs` aligned
/// power-of-two destination-port blocks at high priority, each followed
/// by a low-priority unaligned span straddling one of the block's
/// edges. Inside the block the straddler decomposes into prefixes
/// strictly smaller than the block, so their elements differ from the
/// block's own; and the block comes first, so [`wildcard_ops`] installs
/// it first. Removing the block must then hand those elements back to
/// the straddler. Priorities are unique (every block above every
/// straddler); actions are the pool index.
#[must_use]
pub fn nested_ruleset(pairs: usize, seed: u64) -> Vec<RangeRule> {
    assert!(
        2 * pairs < usize::from(u16::MAX),
        "priority space is 16-bit"
    );
    let mut rng = SplitMix64::new(seed ^ 0x94d0_49bb_1331_11eb);
    let mut out = Vec::with_capacity(2 * pairs);
    for i in 0..pairs {
        // A 16..=1024-port block, with a block of room on each side
        // for the straddler's outer end.
        let size = 1u64 << (4 + rng.below(7));
        let lo = size * (1 + rng.below((1 << 16) / size - 2));
        let hi = lo + size - 1;
        let inner = 1 + rng.below(size - 2);
        let outer = 1 + rng.below(size / 2);
        let straddler = if rng.chance(0.5) {
            FieldRange::span(lo - outer, lo + inner)
        } else {
            FieldRange::span(lo + inner, hi + outer)
        };
        for (ports, priority) in [
            (FieldRange::span(lo, hi), 2 * pairs - i),
            (straddler, pairs - i),
        ] {
            let mut ranges: [FieldRange; NUM_FIELDS] = std::array::from_fn(FieldRange::any);
            ranges[3] = ports; // dst_port
            out.push(RangeRule {
                ranges,
                priority: priority as u16,
                action: out.len() as u64,
            });
        }
    }
    out
}

/// Converts a churn run over a rule `pool` into a replayable wildcard
/// op stream: the pool's first half installed up front, then `events`
/// steps mixing classifications of in-rule points and far-off keys
/// (flood misses) with paired install/teardown churn over the rest.
#[must_use]
pub fn wildcard_ops(pool: &[RangeRule], events: usize, seed: u64) -> Vec<WildcardOp> {
    let mut rng = SplitMix64::new(seed ^ 0xc2b2_ae3d_27d4_eb4f);
    let mut live: Vec<usize> = (0..pool.len() / 2).collect();
    let mut dead: Vec<usize> = (pool.len() / 2..pool.len()).collect();
    let mut ops: Vec<WildcardOp> = live.iter().map(|&i| WildcardOp::Insert(pool[i])).collect();
    for _ in 0..events {
        let roll = rng.below(100);
        if roll < 60 {
            // Classify: mostly points inside a live (or recently dead)
            // rule, sometimes a flood key far outside the ruleset.
            let key = if rng.chance(0.8) && !pool.is_empty() {
                let r = &pool[rng.below(pool.len() as u64) as usize];
                sample_point(r, &mut rng)
            } else {
                halo_classify::PacketHeader::synthetic(1 << 42 | rng.below(1 << 16)).miniflow()
            };
            ops.push(WildcardOp::Classify(key));
        } else if roll < 80 && !dead.is_empty() {
            let i = dead.swap_remove(rng.below(dead.len() as u64) as usize);
            ops.push(WildcardOp::Insert(pool[i]));
            live.push(i);
        } else if !live.is_empty() {
            let i = live.swap_remove(rng.below(live.len() as u64) as usize);
            ops.push(WildcardOp::Remove(pool[i]));
            dead.push(i);
        }
    }
    ops
}

/// Audits a [`TssRangeTable`] against its live range rules `rules`, in
/// install order (as [`RangeOracle::rules`] keeps them). Every
/// expansion element's expected `(priority, action)` is recomputed
/// from scratch: the highest-priority rule whose own expansion
/// contains the element, ties to the earliest installed. Checks:
///
/// * **element-value** — each expected element is installed, in the
///   tuple carrying its mask, with exactly that value (none stale);
/// * **element-census** — the tuple space holds exactly as many
///   entries as there are distinct live elements (none leaked).
#[must_use]
pub fn audit_wildcard(
    table: &TssRangeTable,
    mem: &SimMemory,
    rules: &[RangeRule],
) -> Vec<Violation> {
    let mut order = Vec::new();
    let mut expected = HashMap::new();
    for rule in rules {
        for p in rule.tss_expansion() {
            match expected.entry((p.mask, p.key)) {
                Entry::Vacant(v) => {
                    order.push(v.key().clone());
                    v.insert((rule.priority, rule.action));
                }
                Entry::Occupied(mut o) => {
                    if rule.priority > o.get().0 {
                        o.insert((rule.priority, rule.action));
                    }
                }
            }
        }
    }
    let space = table.space();
    let mut out = Vec::new();
    for element in &order {
        let (mask, key) = element;
        let want = expected[element];
        let got = space
            .tuple_with_mask(mask)
            .and_then(|i| space.tuples()[i].table().lookup(mem, &mask.apply(key)))
            .map(decode_rule);
        if got != Some(want) {
            out.push(Violation {
                invariant: "element-value",
                detail: format!("element {mask:?}/{key:?} holds {got:?}, live rules give {want:?}"),
            });
        }
    }
    if space.total_rules() != order.len() {
        out.push(Violation {
            invariant: "element-census",
            detail: format!(
                "{} installed entries for {} distinct live elements",
                space.total_rules(),
                order.len()
            ),
        });
    }
    out
}

/// The checks [`wildcard_driver`] runs at its audit cadence: the
/// live-rule census against the oracle and, on TSS, [`audit_wildcard`].
fn audit(table: &WildcardMatcher, mem: &SimMemory, oracle: &RangeOracle) -> Option<String> {
    if table.rules() != oracle.len() {
        return Some(format!(
            "{} live rules diverged from oracle {}",
            table.rules(),
            oracle.len()
        ));
    }
    match table {
        WildcardMatcher::Tss(t) => audit_wildcard(t, mem, oracle.rules())
            .into_iter()
            .next()
            .map(|v| v.to_string()),
        WildcardMatcher::Rvh(_) => None,
    }
}

/// Replays `ops` against a fresh `backend` wildcard table and the
/// [`RangeOracle`], comparing every insert's replacement, every
/// remove's return and every classification's `(priority, action)`.
/// The live-rule count and, on TSS, [`audit_wildcard`] are checked
/// every [`AUDIT_EPOCH`] ops (every op under
/// [`audit_enabled`](crate::audit_enabled)) and at the end.
#[must_use]
pub fn wildcard_driver(backend: WildcardBackend, ops: &[WildcardOp]) -> Option<String> {
    let mut mem = SimMemory::new();
    // No pre-declared masks: TSS grows tuples per expansion mask on
    // demand; RVH sizes its marker tables from the entry budget.
    let mut table = backend.build(
        &mut mem,
        TableBackend::Cuckoo,
        &[],
        4096,
        halo_classify::SearchMode::HighestPriority,
    );
    let mut oracle = RangeOracle::new();
    for (i, op) in ops.iter().enumerate() {
        match op {
            WildcardOp::Insert(r) => {
                let got = match table.insert_range(&mut mem, r) {
                    Ok(g) => g,
                    Err(e) => return Some(format!("op {i} ({op}): insert failed: {e}")),
                };
                let want = oracle.insert(r);
                if got != want {
                    return Some(format!(
                        "op {i} ({op}): insert replaced {got:?}, oracle says {want:?}"
                    ));
                }
            }
            WildcardOp::Remove(r) => {
                let got = table.remove_range(&mut mem, r);
                let want = oracle.remove(&r.ranges);
                if got != want {
                    return Some(format!(
                        "op {i} ({op}): remove returned {got:?}, oracle says {want:?}"
                    ));
                }
            }
            WildcardOp::Classify(key) => {
                let got = table.classify(&mem, key).map(|m| (m.priority, m.action));
                let want = oracle.classify(key);
                if got != want {
                    return Some(format!(
                        "op {i} ({op}): classified {got:?}, oracle says {want:?}"
                    ));
                }
            }
        }
        if (i + 1) % AUDIT_EPOCH == 0 || audit_enabled() {
            if let Some(v) = audit(&table, &mem, &oracle) {
                return Some(format!("op {i} ({op}): epoch audit: {v}"));
            }
        }
    }
    audit(&table, &mem, &oracle).map(|v| format!("final audit: {v}"))
}

/// Runs `cases` wildcard differential cases against every
/// [`WildcardBackend`]: case `i` seeds `point_seed(name, i)`, draws its
/// rule pool from `pool(seed)` and replays [`wildcard_ops`] with
/// `events` churn/classify steps. On the first divergence the sequence
/// is ddmin-shrunk and returned as a [`MinimalTrace`] over
/// [`WildcardOp`]s.
///
/// # Errors
///
/// Returns the shrunken counterexample if any case diverges.
pub fn run_wildcard_differential(
    name: &str,
    cases: u64,
    events: usize,
    pool: impl Fn(u64) -> Vec<RangeRule>,
) -> Result<(), MinimalTrace<WildcardOp>> {
    for backend in WildcardBackend::all() {
        for i in 0..cases {
            let seed = point_seed(&format!("{name}.{}", backend.name()), i);
            let ops = wildcard_ops(&pool(seed), events, seed);
            let mut driver = |ops: &[WildcardOp]| wildcard_driver(backend, ops);
            if driver(&ops).is_some() {
                let (min_ops, error) = shrink_ops(&ops, &mut driver);
                return Err(MinimalTrace {
                    seed,
                    ops: min_ops,
                    error,
                });
            }
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use halo_classify::{SearchMode, FIELDS, MINIFLOW_LEN};
    use halo_nf::{generate_ruleset, RulesetShape};

    fn rule(prio: u16, action: u64, port_lo: u64, port_hi: u64) -> RangeRule {
        let mut ranges: [FieldRange; NUM_FIELDS] = std::array::from_fn(FieldRange::any);
        ranges[3] = FieldRange::span(port_lo, port_hi);
        RangeRule {
            ranges,
            priority: prio,
            action,
        }
    }

    #[test]
    fn oracle_resolves_overlaps_by_priority() {
        let mut o = RangeOracle::new();
        assert_eq!(o.insert(&rule(1, 10, 0, 9000)), None);
        assert_eq!(o.insert(&rule(5, 20, 4000, 5000)), None);
        let key = sample_point(&rule(0, 0, 4500, 4500), &mut SplitMix64::new(1));
        assert_eq!(o.classify(&key), Some((5, 20)));
        assert_eq!(o.remove(&rule(5, 20, 4000, 5000).ranges), Some((5, 20)));
        assert_eq!(o.classify(&key), Some((1, 10)));
        assert_eq!(o.len(), 1);
    }

    #[test]
    fn oracle_replaces_in_place() {
        let mut o = RangeOracle::new();
        assert_eq!(o.insert(&rule(1, 10, 0, 100)), None);
        assert_eq!(o.insert(&rule(7, 11, 0, 100)), Some((1, 10)));
        assert_eq!(o.len(), 1);
    }

    #[test]
    fn wildcard_ops_are_deterministic_and_start_live() {
        let pool = generate_ruleset(RulesetShape::PortRange, 24, 5);
        let a = wildcard_ops(&pool, 200, 5);
        let b = wildcard_ops(&pool, 200, 5);
        assert_eq!(a, b);
        assert!(a[..12].iter().all(|op| matches!(op, WildcardOp::Insert(_))));
        assert!(a.iter().any(|op| matches!(op, WildcardOp::Classify(_))));
        assert!(a.iter().any(|op| matches!(op, WildcardOp::Remove(_))));
    }

    #[test]
    fn every_shape_survives_the_wildcard_suite() {
        for shape in RulesetShape::all() {
            run_wildcard_differential(&format!("wildcard.{}", shape.name()), 2, 160, |seed| {
                generate_ruleset(shape, 24, seed)
            })
            .unwrap_or_else(|t| panic!("{}: {t}", shape.name()));
        }
        run_wildcard_differential("wildcard.nested", 2, 160, |seed| nested_ruleset(12, seed))
            .unwrap_or_else(|t| panic!("nested: {t}"));
    }

    /// Every nested pair is a block followed by a lower-priority span
    /// that crosses exactly one of the block's edges and expands, inside
    /// the block, into strictly smaller prefixes.
    #[test]
    fn nested_pairs_straddle_their_blocks() {
        let pool = nested_ruleset(64, 3);
        assert_eq!(pool.len(), 128);
        for pair in pool.chunks(2) {
            let (block, span) = (pair[0].ranges[3], pair[1].ranges[3]);
            let size = block.hi - block.lo + 1;
            assert!(size.is_power_of_two() && block.lo % size == 0, "{block:?}");
            assert!(pair[0].priority > pair[1].priority);
            assert!(
                (span.lo < block.lo && block.lo < span.hi && span.hi < block.hi)
                    || (block.lo < span.lo && span.lo < block.hi && block.hi < span.hi),
                "{span:?} must straddle {block:?}"
            );
            let block_mask = pair[0].tss_expansion()[0].mask.clone();
            assert!(pair[1].tss_expansion().iter().all(|p| p.mask != block_mask));
        }
        let mut priorities: Vec<u16> = pool.iter().map(|r| r.priority).collect();
        priorities.sort_unstable();
        priorities.dedup();
        assert_eq!(priorities.len(), pool.len(), "priorities are unique");
    }

    /// The nested counterexample in its shortest form: remove the block
    /// a straddler was installed under, then classify inside the block.
    #[test]
    fn removing_a_block_hands_its_region_to_the_straddler() {
        let pool = nested_ruleset(1, 9);
        let (block, span) = (pool[0], pool[1]);
        let mut bytes = [0u8; MINIFLOW_LEN];
        bytes.copy_from_slice(span.point_key().as_bytes());
        let port = span.ranges[3].lo.max(block.ranges[3].lo);
        FIELDS[3].write(&mut bytes, port);
        let ops = [
            WildcardOp::Insert(block),
            WildcardOp::Insert(span),
            WildcardOp::Remove(block),
            WildcardOp::Classify(FlowKey::from_bytes(&bytes)),
        ];
        for backend in WildcardBackend::all() {
            assert_eq!(wildcard_driver(backend, &ops), None, "{}", backend.name());
        }
    }

    /// The auditor flags an overwritten element and a leaked one: both
    /// planted through the masked-rule pass-through, which writes the
    /// tuple space without touching the range bookkeeping.
    #[test]
    fn audit_wildcard_catches_stale_and_leaked_entries() {
        let pool = nested_ruleset(2, 4);
        let mut mem = SimMemory::new();
        let mut t = TssRangeTable::with_masks(
            &mut mem,
            TableBackend::Cuckoo,
            &[],
            256,
            SearchMode::HighestPriority,
        );
        for r in &pool {
            t.insert_range(&mut mem, r).unwrap();
        }
        assert_eq!(audit_wildcard(&t, &mem, &pool), vec![]);
        let p = pool[1].tss_expansion().swap_remove(0);
        t.insert_masked(&mut mem, &p.mask, &p.key, 999, 1).unwrap();
        let v = audit_wildcard(&t, &mem, &pool);
        assert_eq!(v.len(), 1, "{v:?}");
        assert_eq!(v[0].invariant, "element-value");
        t.insert_masked(&mut mem, &p.mask, &p.key, pool[1].priority, pool[1].action)
            .unwrap();
        // Port 0 lies below every nested rule.
        let outside = FlowKey::from_bytes(&[0u8; MINIFLOW_LEN]);
        t.insert_masked(&mut mem, &p.mask, &outside, 1, 1).unwrap();
        let v = audit_wildcard(&t, &mem, &pool);
        assert_eq!(v.len(), 1, "{v:?}");
        assert_eq!(v[0].invariant, "element-census");
    }

    /// A planted bug — a driver that drops every other remove — must be
    /// caught and shrink to a short wildcard trace.
    #[test]
    fn lossy_wildcard_removes_shrink_small() {
        let lossy = |ops: &[WildcardOp]| -> Option<String> {
            let mut oracle = RangeOracle::new();
            let mut lossy_oracle = RangeOracle::new();
            let mut toggle = false;
            for (i, op) in ops.iter().enumerate() {
                match op {
                    WildcardOp::Insert(r) => {
                        oracle.insert(r);
                        lossy_oracle.insert(r);
                    }
                    WildcardOp::Remove(r) => {
                        oracle.remove(&r.ranges);
                        if toggle {
                            lossy_oracle.remove(&r.ranges);
                        }
                        toggle = !toggle;
                    }
                    WildcardOp::Classify(k) => {
                        if oracle.classify(k) != lossy_oracle.classify(k) {
                            return Some(format!("op {i}: classify diverged"));
                        }
                    }
                }
            }
            None
        };
        let seed = point_seed("wildcard.lossy", 0);
        let ops = wildcard_ops(&generate_ruleset(RulesetShape::AclMix, 24, seed), 600, seed);
        assert!(lossy(&ops).is_some(), "the planted bug must trip");
        let (min_ops, err) = shrink_ops(&ops, lossy);
        assert!(err.contains("diverged"), "unexpected error: {err}");
        // The toggle's parity makes removal order-sensitive, so ddmin
        // lands on a small local minimum rather than the 3-op ideal.
        assert!(min_ops.len() <= 8, "not minimal: {} ops", min_ops.len());
    }
}
