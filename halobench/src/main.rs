//! The repository benchmark: packets per host second through the HALO
//! virtual switch on three workloads, and a traced replay that splits
//! host time across the simulator's layers.
//!
//! ```text
//! halobench --workload <steady_epoch|churn_halo_nb|acl_tss> --seed <n>
//!           --seconds <s> --trace <0|1>
//! halobench --self-check
//! ```
//!
//! The last line of standard output is one JSON object with the keys
//! `correct`, `attempted`, `failed` and `metrics`; the line before it
//! carries the run's labels (host parallelism, hit-level mix, digests).
//! See `halobench/README.md`.

mod clock;
mod layers;
mod replay;
mod spans;
mod workloads;

use std::collections::BTreeMap;
use std::process::ExitCode;
use std::time::Instant;

use layers::{layer_metrics, Metric};
use workloads::{run_pass, MemCounts, Pass, Workload};

/// Input sets a run cycles through: pass `i` uses input set `i % INPUT_SETS`,
/// so every run measures several rulesets or streams and repeats each.
const INPUT_SETS: u64 = 16;
/// Passes of an untraced run, at least: every input set once, and one
/// of them twice so the digest check always has a repeat.
const MIN_PASSES: usize = INPUT_SETS as usize + 1;
/// Where the traced run writes its spans, relative to the working directory.
const SPAN_DIR: &str = ".halobench_out";

/// Parsed command line.
#[derive(Debug)]
struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

enum Command {
    Run(Args),
    SelfCheck,
}

fn usage(err: &str) -> ExitCode {
    eprintln!("halobench: {err}");
    eprintln!(
        "usage: halobench --workload <steady_epoch|churn_halo_nb|acl_tss> --seed <n> \
         --seconds <s> --trace <0|1>\n       halobench --self-check"
    );
    ExitCode::from(2)
}

fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, usize::from)
}

fn parse_args() -> Result<Command, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    if argv == ["--self-check"] {
        return Ok(Command::SelfCheck);
    }
    let mut flags: BTreeMap<&str, &str> = BTreeMap::new();
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        if flags.insert(flag.as_str(), value.as_str()).is_some() {
            return Err(format!("{flag} given twice"));
        }
    }
    let get = |f: &str| flags.get(f).copied().ok_or(format!("missing {f}"));
    let num = |f: &str| -> Result<u64, String> {
        get(f)?
            .parse()
            .map_err(|_| format!("{f} must be a whole number"))
    };
    for f in flags.keys() {
        if !["--workload", "--seed", "--seconds", "--trace"].contains(f) {
            return Err(format!("unknown flag {f}"));
        }
    }
    let workload = Workload::parse(get("--workload")?).ok_or("unknown workload")?;
    let seconds = num("--seconds")?;
    if !(1..=3600).contains(&seconds) {
        return Err("--seconds must be in 1..=3600".into());
    }
    let trace = match get("--trace")? {
        "0" => false,
        "1" => true,
        _ => return Err("--trace must be 0 or 1".into()),
    };
    Ok(Command::Run(Args {
        workload,
        seed: num("--seed")?,
        seconds: seconds as f64,
        trace,
    }))
}

/// The seed of input set `k` of a run seeded with `seed`.
fn input_seed(seed: u64, k: u64) -> u64 {
    seed.wrapping_mul(INPUT_SETS).wrapping_add(k)
}

/// Median of `v` (the mean of the middle two for even lengths).
fn median(mut v: Vec<f64>) -> f64 {
    assert!(!v.is_empty(), "median of nothing");
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// Peak resident memory of this process in MiB (`VmHWM`).
fn peak_rss_mib() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status").map_err(|e| e.to_string())?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map(|kib| kib / 1024.0)
        .ok_or_else(|| "no VmHWM in /proc/self/status".to_string())
}

/// Checks that every input set gave one digest across its passes.
#[derive(Debug, Default)]
struct DigestBook {
    seen: BTreeMap<u64, u64>,
    mismatches: u64,
}

impl DigestBook {
    fn note(&mut self, set: u64, digest: u64, what: &str) {
        match self.seen.get(&set) {
            Some(&d) if d != digest => {
                eprintln!(
                    "halobench: {what}: digest {digest:016x} != {d:016x} for input set {set}"
                );
                self.mismatches += 1;
            }
            Some(_) => {}
            None => {
                self.seen.insert(set, digest);
            }
        }
    }
}

/// The result line: `correct`, `attempted`, `failed`, `metrics`.
fn result_line(correct: bool, attempted: u64, failed: u64, metrics: &[Metric]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|m| {
            format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name,
                json_num(m.value),
                m.unit
            )
        })
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        body.join(", ")
    )
}

/// A finite JSON number with every digit Rust's shortest round-trip
/// form gives.
fn json_num(v: f64) -> String {
    assert!(v.is_finite(), "metric is not finite: {v}");
    format!("{v}")
}

/// The labels printed beside every result: host parallelism, the
/// hit-level mix of the simulated memory accesses, and the digests.
fn labels_line(
    w: Workload,
    a: &Args,
    passes: &[Pass],
    mem: MemCounts,
    digests: &DigestBook,
) -> String {
    let d: Vec<String> = digests
        .seen
        .iter()
        .map(|(k, v)| format!("\"{}\": \"{v:016x}\"", input_seed(a.seed, *k)))
        .collect();
    format!(
        "{{\"labels\": {{\"workload\": \"{}\", \"trace\": {}, \"nproc\": {}, \"threads\": {}, \
         \"passes\": {}, \"wall_pkts_per_s\": {:.1}, \"steal_pct\": {:.2}, \
         \"shared_regions\": {}, \
         \"l1_pct\": {:.3}, \"l2_pct\": {:.3}, \"llc_pct\": {:.3}, \"dram_pct\": {:.3}, \
         \"digests\": {{{}}}}}}}",
        w.name(),
        u8::from(a.trace),
        nproc(),
        w.timed_threads(nproc()),
        passes.len(),
        median(passes.iter().map(Pass::wall_pkts_per_s).collect()),
        100.0 * passes.iter().map(|p| p.steal).sum::<f64>() / passes.len() as f64,
        passes.iter().map(|p| p.shared_regions).sum::<u32>(),
        mem.pct(mem.l1),
        mem.pct(mem.l2),
        mem.pct(mem.llc),
        mem.pct(mem.dram),
        d.join(", ")
    )
}

/// The untraced run: passes over the cycling input sets until the time
/// is up, end-to-end metrics as medians over passes.
fn measure(a: &Args) -> Result<(), String> {
    let w = a.workload;
    let sizes = w.sizes();
    let start = Instant::now();
    let mut passes: Vec<Pass> = Vec::new();
    let mut digests = DigestBook::default();
    let mut mem = MemCounts::default();
    let mut kcy_by_set = BTreeMap::new();
    let mut first_pass_rss = None;
    while passes.len() < MIN_PASSES || start.elapsed().as_secs_f64() < a.seconds {
        let k = passes.len() as u64 % INPUT_SETS;
        let p = run_pass(w, sizes, input_seed(a.seed, k), nproc());
        if first_pass_rss.is_none() {
            first_pass_rss = Some(peak_rss_mib()?);
        }
        digests.note(k, p.sim.digest, "repeat pass");
        kcy_by_set.insert(k, p.sim.pkts_per_kcy);
        mem.add(p.mem);
        passes.push(p);
    }
    let (mut attempted, mut failed): (u64, u64) = passes
        .iter()
        .map(|p| (p.sim.attempted(), p.sim.failed))
        .fold((0, 0), |s, x| (s.0 + x.0, s.1 + x.1));
    if w == Workload::SteadyEpoch && nproc() != 1 {
        // The epoch executor is deterministic at any thread count.
        let p = run_pass(w, sizes, input_seed(a.seed, 0), 1);
        digests.note(0, p.sim.digest, "threads=1 pass");
        attempted += p.sim.attempted();
        failed += p.sim.failed;
    }
    let med = |f: fn(&Pass) -> f64| median(passes.iter().map(f).collect());
    let ok_ratio = 1.0 - failed as f64 / attempted.max(1) as f64;
    // Host times are noisy: medians over passes. Simulated throughput is
    // exact per input set: its mean over the sets.
    let kcy = kcy_by_set.values().sum::<f64>() / kcy_by_set.len() as f64;
    let metrics = vec![
        Metric::new("sim_pkts_per_s", med(Pass::pkts_per_s), "pkt/s"),
        Metric::new("sim_accesses_per_s", med(Pass::accesses_per_s), "acc/s"),
        Metric::new("sim_pkts_per_kcy", kcy, "pkt/kcy"),
        Metric::new("setup_s", med(|p| p.setup_s), "s"),
        Metric::new(
            "peak_rss_mib",
            first_pass_rss.expect("at least one pass"),
            "MiB",
        ),
        Metric::new("ok_ratio", ok_ratio, "ratio"),
    ];
    let correct = failed == 0 && digests.mismatches == 0;
    let per_pass: Vec<String> = passes
        .iter()
        .map(|p| format!("{:.0}", p.pkts_per_s()))
        .collect();
    eprintln!(
        "halobench: {} passes={} pkts/s={:.0} [{}] setup={:.3}s pkts/kcy={:.4} failed={failed}/{attempted}",
        w.name(),
        passes.len(),
        metrics[0].value,
        per_pass.join(" "),
        metrics[3].value,
        metrics[2].value
    );
    println!("{}", labels_line(w, a, &passes, mem, &digests));
    println!("{}", result_line(correct, attempted, failed, &metrics));
    Ok(())
}

/// The traced run: pairs of an untraced pass and a traced replay of the
/// same inputs until the time is up; per-layer metrics as medians over
/// replays. The last replay's spans are written to [`SPAN_DIR`].
fn measure_traced(a: &Args) -> Result<(), String> {
    let w = a.workload;
    let sizes = w.sizes();
    let start = Instant::now();
    let mut rows: Vec<Vec<Metric>> = Vec::new();
    let mut digests = DigestBook::default();
    let (mut attempted, mut failed, mut diverged) = (0u64, 0u64, 0u64);
    let mut mem = MemCounts::default();
    let mut plains = Vec::new();
    let mut last = None;
    while rows.is_empty() || start.elapsed().as_secs_f64() < a.seconds {
        let k = rows.len() as u64 % INPUT_SETS;
        let seed = input_seed(a.seed, k);
        let plain = run_pass(w, sizes, seed, nproc());
        digests.note(k, plain.sim.digest, "repeat pass");
        let traced = replay::replay(w, sizes, seed, nproc());
        if traced.sim.digest != plain.sim.digest {
            eprintln!(
                "halobench: traced replay DIVERGED from the untraced run on input set {k}: \
                 {:016x} != {:016x}",
                traced.sim.digest, plain.sim.digest
            );
            diverged += 1;
        }
        attempted += plain.sim.attempted() + traced.sim.attempted();
        failed += plain.sim.failed + traced.sim.failed;
        mem.add(traced.mem);
        rows.push(layer_metrics(&traced, &plain, nproc()));
        plains.push(plain);
        last = Some(traced);
    }
    let mut metrics: Vec<Metric> = rows[0]
        .iter()
        .enumerate()
        .map(|(i, m)| {
            Metric::new(
                m.name,
                median(rows.iter().map(|r| r[i].value).collect()),
                m.unit,
            )
        })
        .collect();
    metrics.push(Metric::new(
        "trace.replay_diverged",
        diverged as f64,
        "count",
    ));
    if let Some(r) = last {
        let path = std::path::Path::new(SPAN_DIR).join(format!("{}.spans.csv", w.name()));
        let write = || -> std::io::Result<()> {
            std::fs::create_dir_all(SPAN_DIR)?;
            let mut f = std::io::BufWriter::new(std::fs::File::create(&path)?);
            r.rec.write_csv(&mut f)?;
            std::io::Write::flush(&mut f)
        };
        match write() {
            Ok(()) => eprintln!(
                "halobench: {} spans written to {}",
                r.rec.spans().len(),
                path.display()
            ),
            Err(e) => eprintln!("halobench: could not write {}: {e}", path.display()),
        }
    }
    let correct = failed == 0 && digests.mismatches == 0;
    for m in &metrics {
        eprintln!("halobench:   {:<34} {:>14.3} {}", m.name, m.value, m.unit);
    }
    println!("{}", labels_line(w, a, &plains, mem, &digests));
    println!("{}", result_line(correct, attempted, failed, &metrics));
    Ok(())
}

/// Tiny-input check of all three workloads: oracles agree, repeat passes
/// and thread counts give one digest, the traced replay reproduces the
/// untraced digest, and every span's parent exists.
fn self_check() -> ExitCode {
    let mut ok = true;
    let mut check = |what: String, pass: bool| {
        println!("{} {what}", if pass { "ok  " } else { "FAIL" });
        ok &= pass;
    };
    let threads = nproc();
    for w in Workload::ALL {
        let sizes = w.tiny_sizes();
        let a = run_pass(w, sizes, 7, threads);
        let b = run_pass(w, sizes, 7, threads);
        check(
            format!(
                "{}: oracle agrees ({} failed of {})",
                w.name(),
                a.sim.failed,
                a.sim.attempted()
            ),
            a.sim.failed == 0,
        );
        check(
            format!("{}: repeat pass gives one digest", w.name()),
            a.sim.digest == b.sim.digest,
        );
        if w == Workload::SteadyEpoch {
            let one = run_pass(w, sizes, 7, 1);
            check(
                format!("{}: threads 1 and {threads} give one digest", w.name()),
                one.sim.digest == a.sim.digest,
            );
        }
        let r = replay::replay(w, sizes, 7, threads);
        check(
            format!("{}: traced replay reproduces the digest", w.name()),
            r.sim.digest == a.sim.digest,
        );
        let ids: std::collections::HashSet<u64> = r.rec.spans().iter().map(|s| s.id).collect();
        let linked = r
            .rec
            .spans()
            .iter()
            .all(|s| s.parent == spans::NO_PARENT || ids.contains(&s.parent));
        check(
            format!("{}: {} spans, every parent recorded", w.name(), ids.len()),
            linked && !ids.is_empty(),
        );
        let layers = layer_metrics(&r, &a, threads);
        check(
            format!(
                "{}: {} per-layer metrics, all finite",
                w.name(),
                layers.len()
            ),
            layers.iter().all(|m| m.value.is_finite()),
        );
    }
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(Command::SelfCheck) => return self_check(),
        Ok(Command::Run(a)) => a,
        Err(e) => return usage(&e),
    };
    let run = if args.trace {
        measure_traced(&args)
    } else {
        measure(&args)
    };
    match run {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("halobench: {e}");
            ExitCode::FAILURE
        }
    }
}
