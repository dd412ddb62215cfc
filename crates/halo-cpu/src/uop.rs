//! Micro-op programs: small dependency DAGs of compute and memory
//! operations, the unit of work the core model schedules.

use halo_mem::Addr;

/// Index of a micro-op within its [`Program`].
pub type UopId = u32;

/// The operation a micro-op performs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum UopKind {
    /// An ALU/branch/other non-memory operation with a fixed execution
    /// latency (1 for simple ALU, 3–5 for multiplies).
    Compute {
        /// Execution latency in cycles.
        latency: u64,
    },
    /// A load from simulated memory.
    Load {
        /// The byte address read.
        addr: Addr,
    },
    /// A store to simulated memory.
    Store {
        /// The byte address written.
        addr: Addr,
    },
}

/// One micro-op: an operation plus the set of earlier micro-ops whose
/// results it consumes (read through [`Program::deps`]).
#[derive(Debug, Clone)]
pub struct Uop {
    /// What the op does.
    pub kind: UopKind,
    /// This op's data dependencies: the range `[start, end)` of its
    /// program's flat dependency buffer.
    deps: (u32, u32),
}

/// A dependency DAG of micro-ops in program order.
///
/// # Examples
///
/// ```
/// use halo_cpu::Program;
/// use halo_mem::Addr;
///
/// let mut p = Program::new();
/// let k = p.load(Addr(64), &[]);
/// let h = p.compute(3, &[k]);     // hash depends on the key load
/// let b = p.load(Addr(128), &[h]); // bucket fetch depends on the hash
/// let _ = p.compute(1, &[b]);
/// assert_eq!(p.len(), 4);
/// ```
#[derive(Debug, Clone)]
pub struct Program {
    uops: Vec<Uop>,
    /// Every uop's dependencies, concatenated in program order; each
    /// [`Uop`] holds its own range. One flat buffer, so
    /// [`clear`](Self::clear) keeps all the capacity.
    deps: Vec<UopId>,
    /// The dependency frontier [`crate::build_sw_lookup_into`] carries
    /// between trace steps: working space for that function, not part
    /// of the program. It lives here so a rebuild into a warm program
    /// allocates nothing.
    pub(crate) frontier: Vec<UopId>,
    /// Trace label: the op-class name spans recorded for this program
    /// carry (static so the tracer can intern it without allocating).
    label: &'static str,
}

impl Default for Program {
    fn default() -> Self {
        Program::with_label("program")
    }
}

impl Program {
    /// Creates an empty program.
    #[must_use]
    pub fn new() -> Self {
        Program::default()
    }

    /// Creates an empty program with a trace label.
    #[must_use]
    pub fn with_label(label: &'static str) -> Self {
        Program {
            uops: Vec::new(),
            deps: Vec::new(),
            frontier: Vec::new(),
            label,
        }
    }

    /// Sets the trace label.
    pub fn set_label(&mut self, label: &'static str) {
        self.label = label;
    }

    /// Empties the program while keeping its uop and dependency
    /// allocations, so a caller can rebuild into the same buffer on every
    /// packet without touching the allocator. The label is preserved.
    pub fn clear(&mut self) {
        self.uops.clear();
        self.deps.clear();
    }

    /// The trace label spans for this program are recorded under.
    #[must_use]
    pub fn label(&self) -> &'static str {
        self.label
    }

    /// Appends a uop whose dependencies were just pushed onto `deps`
    /// from `start`.
    fn push_with_deps_from(&mut self, kind: UopKind, start: usize) -> UopId {
        let id = self.uops.len() as UopId;
        self.uops.push(Uop {
            kind,
            deps: (start as u32, self.deps.len() as u32),
        });
        id
    }

    fn push(&mut self, kind: UopKind, deps: &[UopId]) -> UopId {
        let id = self.uops.len() as UopId;
        for &d in deps {
            assert!(d < id, "dependency on a later uop");
        }
        let start = self.deps.len();
        self.deps.extend_from_slice(deps);
        self.push_with_deps_from(kind, start)
    }

    /// Appends a compute uop.
    pub fn compute(&mut self, latency: u64, deps: &[UopId]) -> UopId {
        self.push(UopKind::Compute { latency }, deps)
    }

    /// Appends a load uop.
    pub fn load(&mut self, addr: Addr, deps: &[UopId]) -> UopId {
        self.push(UopKind::Load { addr }, deps)
    }

    /// Appends a store uop.
    pub fn store(&mut self, addr: Addr, deps: &[UopId]) -> UopId {
        self.push(UopKind::Store { addr }, deps)
    }

    /// Appends every uop of `other`, shifting its dependencies, and makes
    /// its roots depend on `after` (sequencing two logical operations).
    /// Returns the id of `other`'s last uop (or `after`'s last element /
    /// 0-sized fallback if `other` is empty).
    pub fn append(&mut self, other: &Program, after: &[UopId]) -> Option<UopId> {
        let base = self.uops.len() as UopId;
        for (i, uop) in other.uops.iter().enumerate() {
            let start = self.deps.len();
            let deps = other.deps(i);
            if deps.is_empty() {
                self.deps.extend_from_slice(after);
            } else {
                self.deps.extend(deps.iter().map(|d| d + base));
            }
            self.push_with_deps_from(uop.kind, start);
        }
        if other.uops.is_empty() {
            None
        } else {
            Some(self.uops.len() as UopId - 1)
        }
    }

    /// The micro-ops in program order.
    #[must_use]
    pub fn uops(&self) -> &[Uop] {
        &self.uops
    }

    /// The data dependencies of uop `i` (indices of earlier uops).
    ///
    /// # Panics
    ///
    /// Panics if `i >= self.len()`.
    #[must_use]
    pub fn deps(&self, i: usize) -> &[UopId] {
        let (start, end) = self.uops[i].deps;
        &self.deps[start as usize..end as usize]
    }

    /// Number of micro-ops.
    #[must_use]
    pub fn len(&self) -> usize {
        self.uops.len()
    }

    /// Whether the program is empty.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.uops.is_empty()
    }

    /// Counts of (loads, stores, computes).
    #[must_use]
    pub fn mix(&self) -> (usize, usize, usize) {
        let mut l = 0;
        let mut s = 0;
        let mut c = 0;
        for u in &self.uops {
            match u.kind {
                UopKind::Load { .. } => l += 1,
                UopKind::Store { .. } => s += 1,
                UopKind::Compute { .. } => c += 1,
            }
        }
        (l, s, c)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn build_and_mix() {
        let mut p = Program::new();
        let a = p.load(Addr(64), &[]);
        let b = p.compute(1, &[a]);
        p.store(Addr(128), &[b]);
        assert_eq!(p.mix(), (1, 1, 1));
        assert_eq!(p.len(), 3);
        assert!(!p.is_empty());
    }

    #[test]
    #[should_panic(expected = "dependency on a later uop")]
    fn forward_dependency_rejected() {
        let mut p = Program::new();
        p.compute(1, &[5]);
    }

    #[test]
    fn append_rebases_dependencies() {
        let mut head = Program::new();
        let root = head.compute(1, &[]);
        let mut tail = Program::new();
        let t0 = tail.load(Addr(64), &[]);
        tail.compute(1, &[t0]);
        let last = head.append(&tail, &[root]).unwrap();
        assert_eq!(last, 2);
        // tail's root now depends on head's root.
        assert_eq!(head.deps(1), [root]);
        // tail's second op depends on the rebased first.
        assert_eq!(head.deps(2), [1]);
    }

    #[test]
    fn append_shifts_deps_and_roots_every_free_uop_on_after() {
        let mut head = Program::new();
        let h0 = head.load(Addr(64), &[]);
        let h1 = head.compute(1, &[h0]);
        let mut tail = Program::new();
        let t0 = tail.load(Addr(128), &[]);
        let t1 = tail.compute(3, &[]);
        let t2 = tail.compute(1, &[t0, t1]);
        tail.store(Addr(192), &[t2]);
        let last = head.append(&tail, &[h0, h1]).unwrap();
        assert_eq!(last, 5);
        // Both dependency-free tail uops are rooted on `after`...
        assert_eq!(head.deps(2), [h0, h1]);
        assert_eq!(head.deps(3), [h0, h1]);
        // ...and the rest keep their own dependencies, shifted by 2.
        assert_eq!(head.deps(4), [2, 3]);
        assert_eq!(head.deps(5), [4]);
        // The head's own uops are untouched.
        assert!(head.deps(0).is_empty());
        assert_eq!(head.deps(1), [h0]);
        assert_eq!(head.uops()[5].kind, UopKind::Store { addr: Addr(192) });
    }

    #[test]
    fn clear_then_rebuild_reads_only_the_new_deps() {
        let mut p = Program::new();
        let a = p.load(Addr(64), &[]);
        p.compute(1, &[a]);
        p.clear();
        assert!(p.is_empty());
        let x = p.compute(2, &[]);
        let y = p.compute(2, &[]);
        p.store(Addr(64), &[x, y]);
        assert!(p.deps(0).is_empty());
        assert!(p.deps(1).is_empty());
        assert_eq!(p.deps(2), [x, y]);
    }

    #[test]
    fn append_empty_returns_none() {
        let mut head = Program::new();
        head.compute(1, &[]);
        assert!(head.append(&Program::new(), &[0]).is_none());
    }
}
