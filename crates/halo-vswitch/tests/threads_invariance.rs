//! Threads-invariance of the epoch-parallel runners: `threads = 1` and
//! `threads = N` must produce byte-identical reports, per-core packet
//! counts, and master stats — the whole point of the deterministic
//! epoch/barrier scheme. At one simulated core the epoch executor must
//! also reproduce the classic one exactly, which guards the driver
//! loops both executors share. The quick checks here always run; the
//! full backend × stream matrix runs under the `slow-tests` feature
//! (the deep CI job).

use halo_datapath::{TableBackend, TrafficEvent};
use halo_mem::{MachineConfig, MemorySystem};
use halo_nf::{StreamConfig, StreamingTrafficGen};
use halo_vswitch::{LookupBackend, MultiCoreConfig, MultiCoreDatapath};

/// Every stats counter, sorted by name — a deterministic fingerprint of
/// the master system's observable counter state.
fn stats_fingerprint(sys: &MemorySystem) -> String {
    let mut rows: Vec<(String, u64)> = sys
        .stats()
        .counters()
        .map(|(k, v)| (k.to_string(), v))
        .collect();
    rows.sort();
    format!("{rows:?}")
}

fn datapath(table_backend: TableBackend, cores: usize) -> (MemorySystem, MultiCoreDatapath) {
    let mut sys = MemorySystem::new(MachineConfig::default());
    let mut cfg = MultiCoreConfig::new(cores, 5, 2_000, LookupBackend::Software, 42);
    cfg.table_backend = table_backend;
    let dp = MultiCoreDatapath::with_config(&mut sys, cfg);
    (sys, dp)
}

/// Every observable output of a finished run as one comparable string.
fn outcome(report: &impl std::fmt::Debug, sys: &MemorySystem, dp: &MultiCoreDatapath) -> String {
    format!(
        "{report:?} | {:?} | {}",
        dp.per_core_packets(),
        stats_fingerprint(sys)
    )
}

/// Runs the RSS/churn workload on `cores` PMDs; `threads = 0` selects
/// the classic executor, anything else the epoch one.
fn scaling_on(table_backend: TableBackend, cores: usize, threads: usize, churn: u64) -> String {
    let (mut sys, mut dp) = datapath(table_backend, cores);
    let r = if threads == 0 {
        dp.run(&mut sys, None, 600, churn)
    } else {
        dp.run_parallel(&mut sys, 600, churn, threads)
    };
    outcome(&r, &sys, &dp)
}

/// Runs `events` steps of a streaming workload on `cores` PMDs;
/// `threads = 0` selects the classic executor.
fn stream_on(
    table_backend: TableBackend,
    cores: usize,
    threads: usize,
    cfg: StreamConfig,
    events: usize,
) -> String {
    let (mut sys, mut dp) = datapath(table_backend, cores);
    let mut traffic = StreamingTrafficGen::new(cfg, 7);
    let events: Vec<TrafficEvent> = (0..events).map(|_| traffic.next_event()).collect();
    let r = if threads == 0 {
        dp.run_stream(&mut sys, None, events)
    } else {
        dp.run_stream_parallel(&mut sys, events, threads)
    };
    outcome(&r, &sys, &dp)
}

/// The epoch executor's 4-core outputs on the `datapath()` workload,
/// pinned by value as `(cycles, dirty_transfers)` per exact-match
/// backend: no golden digest covers multi-core epoch runs, so a change
/// to the memory protocol that shifts their timing or coherence
/// traffic fails here.
#[test]
fn four_core_epoch_outputs_are_pinned() {
    let fixed = [(123_166, 234), (121_260, 234), (129_301, 234)];
    let streamed = [(101_458, 167), (99_908, 167), (105_335, 167)];
    for ((backend, fixed), streamed) in TableBackend::all().into_iter().zip(fixed).zip(streamed) {
        let (mut sys, mut dp) = datapath(backend, 4);
        let r = dp.run_parallel(&mut sys, 600, 50, 2);
        assert_eq!(
            (r.cycles, r.dirty_transfers),
            fixed,
            "{} run_parallel",
            backend.name()
        );
        let (mut sys, mut dp) = datapath(backend, 4);
        let mut traffic = StreamingTrafficGen::new(StreamConfig::churn(2_000), 7);
        let events: Vec<TrafficEvent> = (0..800).map(|_| traffic.next_event()).collect();
        let r = dp.run_stream_parallel(&mut sys, events, 2);
        assert_eq!(
            (r.cycles, r.dirty_transfers),
            streamed,
            "{} run_stream_parallel",
            backend.name()
        );
    }
}

#[test]
fn scaling_run_is_threads_invariant() {
    let one = scaling_on(TableBackend::Cuckoo, 4, 1, 50);
    for threads in [2, 4] {
        assert_eq!(
            one,
            scaling_on(TableBackend::Cuckoo, 4, threads, 50),
            "threads=1 vs threads={threads} diverged"
        );
    }
}

#[test]
fn churn_stream_is_threads_invariant() {
    let one = stream_on(TableBackend::Cuckoo, 4, 1, StreamConfig::churn(2_000), 800);
    let four = stream_on(TableBackend::Cuckoo, 4, 4, StreamConfig::churn(2_000), 800);
    assert_eq!(one, four);
}

#[test]
fn flood_stream_is_threads_invariant() {
    let flood = StreamConfig::ddos_flood(2_000);
    let one = stream_on(TableBackend::Cuckoo, 4, 1, flood, 800);
    let four = stream_on(TableBackend::Cuckoo, 4, 4, flood, 800);
    assert_eq!(one, four);
}

/// With one PMD there is only one interleaving, so the epoch executor
/// (windows, shards, merges) must reproduce the classic executor's
/// report, per-core counts and stats exactly, on every backend.
#[test]
fn one_core_epoch_matches_classic() {
    for backend in TableBackend::all() {
        assert_eq!(
            scaling_on(backend, 1, 0, 50),
            scaling_on(backend, 1, 1, 50),
            "{} run vs run_parallel",
            backend.name()
        );
        let churn = StreamConfig::churn(2_000);
        assert_eq!(
            stream_on(backend, 1, 0, churn, 2_000),
            stream_on(backend, 1, 1, churn, 2_000),
            "{} run_stream vs run_stream_parallel",
            backend.name()
        );
    }
}

/// At every window barrier the master system must satisfy all of
/// halo-check's memory-system invariants (placement, inclusion,
/// directory, single-owner, lock hygiene) — the merged state is a real
/// coherent state, not just a matching byte pattern.
#[test]
fn barriers_leave_master_state_audit_clean() {
    use halo_sim::Cycle;
    let (mut sys, mut dp) = datapath(TableBackend::Cuckoo, 4);
    let mut barriers = 0u64;
    let mut hook = |s: &MemorySystem| {
        let violations = halo_check::audit_system(s, Cycle(0));
        assert!(
            violations.is_empty(),
            "barrier audit failed: {violations:?}"
        );
        barriers += 1;
    };
    dp.run_parallel_with(&mut sys, 600, 50, 4, &mut hook);
    assert!(barriers >= 12, "expected a barrier per churn window");
}

/// The full differential matrix: every exact-match backend, both churn
/// and flood streams plus the RSS/churn workload, threads 1 vs 2 vs 4.
#[cfg(feature = "slow-tests")]
#[test]
fn all_backends_and_streams_are_threads_invariant() {
    for backend in TableBackend::all() {
        let base = scaling_on(backend, 4, 1, 25);
        for threads in [2, 4] {
            assert_eq!(
                base,
                scaling_on(backend, 4, threads, 25),
                "{} scaling run diverged at threads={threads}",
                backend.name()
            );
        }
        for (label, cfg) in [
            ("churn", StreamConfig::churn(2_000)),
            ("flood", StreamConfig::ddos_flood(2_000)),
        ] {
            let one = stream_on(backend, 4, 1, cfg, 800);
            for threads in [2, 4] {
                assert_eq!(
                    one,
                    stream_on(backend, 4, threads, cfg, 800),
                    "{} {label} stream diverged at threads={threads}",
                    backend.name()
                );
            }
        }
    }
}
