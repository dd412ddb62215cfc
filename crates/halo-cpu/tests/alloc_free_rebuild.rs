//! Rebuilding a software-lookup program into a warmed [`Program`] must
//! not touch the heap: the per-packet hot path relies on it.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use halo_cpu::{build_sw_lookup_into, Program, Scratch};
use halo_mem::{MachineConfig, MemorySystem};
use halo_tables::{CuckooTable, FlowKey};

/// Counts allocations made by the current thread, so tests running on
/// other threads cannot disturb the count.
struct CountingAlloc;

thread_local! {
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
}

fn bump() {
    let _ = ALLOCS.try_with(|c| c.set(c.get() + 1));
}

// SAFETY: every call forwards to `System` with the caller's arguments
// unchanged; the counter is a const-initialised thread-local `Cell`,
// which neither allocates nor reenters the allocator.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        bump();
        // SAFETY: forwarded verbatim; the caller upholds `alloc`'s contract.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        bump();
        // SAFETY: forwarded verbatim; the caller upholds `alloc_zeroed`'s contract.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        bump();
        // SAFETY: forwarded verbatim; the caller upholds `realloc`'s contract.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: forwarded verbatim; the caller upholds `dealloc`'s contract.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

fn allocs() -> u64 {
    ALLOCS.with(Cell::get)
}

#[test]
fn rebuild_into_warm_program_allocates_nothing() {
    let mut sys = MemorySystem::new(MachineConfig::small());
    let mut table = CuckooTable::create(sys.data_mut(), 256, 13);
    for id in 0..150 {
        table
            .insert(sys.data_mut(), &FlowKey::synthetic(id, 13), id)
            .unwrap();
    }
    // Hits and misses, with and without optimistic locking, so the
    // traces (and the programs built from them) differ in shape.
    let traces: Vec<_> = (0..300u64)
        .map(|id| table.lookup_traced(sys.data_mut(), &FlowKey::synthetic(id, 13), id % 2 == 0))
        .collect();
    let mut scratch = Scratch::new(&mut sys);
    let key_addr = sys.data_mut().alloc_lines(64);

    let mut prog = Program::new();
    let mut rebuild_all = |prog: &mut Program| {
        let mut uops = 0;
        for (i, tr) in traces.iter().enumerate() {
            let key = (i % 3 == 0).then_some(key_addr);
            build_sw_lookup_into(tr, &mut scratch, key, prog);
            uops += prog.len();
        }
        uops
    };
    // Warm-up pass: grows the buffers to the largest program.
    let warm_uops = rebuild_all(&mut prog);

    let before = allocs();
    let uops = rebuild_all(&mut prog);
    let after = allocs();
    assert_eq!(uops, warm_uops, "rebuilds must reproduce the same programs");
    assert_eq!(
        after - before,
        0,
        "rebuilding {} programs into a warm buffer allocated",
        traces.len()
    );
    // The counter does see this thread's allocations.
    let v = std::hint::black_box(vec![0u8; 64]);
    assert!(allocs() > after);
    drop(v);
}
