//! The repository benchmark.
//!
//! ```text
//! perfbench --workload <profile_chrono|kv_failover3|fleet_chrono>
//!           --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! `--trace 0` measures the end-to-end metrics: it sets the workload up
//! several times, then runs it from cold, again and again, for `--seconds`
//! seconds. `--trace 1` runs it untraced and traced in pairs and reports
//! the per-layer metrics. Both check every run's outputs,
//! print a human-readable report, and end with one JSON line; the exit code
//! is 1 if any check failed and 2 on bad arguments. README.md beside this
//! file explains the workloads and metrics.

mod reference;
mod report;
mod scenario;
mod trace;

use std::process::ExitCode;
use std::time::{Duration, Instant};

use reference::Reference;
use report::{median, metric, process_cpu_time, status_kb, Metric, Result};
use scenario::{build, run, Kind, Outcome, Size};
use trace::{instrument, Hooks, WindowProbe};

/// Extra set-ups timed before each run for `setup_s`, on top of the
/// run's own. Spreading them over the whole invocation samples the host's
/// quiet and busy phases alike, and each comes with a timing of the
/// reference loop. Once warm, a fleet set-up takes about 50 ms of CPU
/// time, a single system about 40 us; a fleet invocation holds only 2 or 3
/// runs.
const FLEET_EXTRA_SETUPS: usize = 7;
const SINGLE_EXTRA_SETUPS: usize = 4;

const USAGE: &str = "usage: perfbench --workload <profile_chrono|kv_failover3|fleet_chrono> \
                     --seed <n> --seconds <s> --trace <0|1>";

/// Parsed command line.
#[derive(Debug, Clone, Copy)]
struct Args {
    kind: Kind,
    seed: u64,
    seconds: Duration,
    trace: bool,
}

fn parse_args(mut args: impl Iterator<Item = String>) -> std::result::Result<Args, String> {
    let (mut kind, mut seed, mut seconds, mut trace) = (None, None, None, None);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or(format!("{flag} needs a value"))?;
        let bad = || format!("bad value for {flag}: {value}");
        match flag.as_str() {
            "--workload" => kind = Some(Kind::parse(&value).ok_or_else(bad)?),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|_| bad())?),
            "--seconds" => {
                let s = value.parse::<u64>().map_err(|_| bad())?;
                seconds = Some(Duration::from_secs(s.clamp(1, 600)));
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad()),
                })
            }
            _ => return Err(format!("unknown argument {flag}")),
        }
    }
    Ok(Args {
        kind: kind.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.unwrap_or(Duration::from_secs(10)),
        trace: trace.unwrap_or(false),
    })
}

fn main() -> ExitCode {
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    println!(
        "perfbench {} seed {} ({}, {} worker threads)",
        args.kind.name(),
        args.seed,
        if args.trace { "traced" } else { "timed" },
        scenario::worker_threads(),
    );
    let result = if args.trace {
        traced(args, Size::full())
    } else {
        timed(args, Size::full())
    };
    for m in &result.metrics {
        println!("  {:<44} {:>22} {}", m.name, m.value, m.unit);
    }
    println!(
        "  failed_frac {} ({} of {} accesses in failed runs)",
        result.failed as f64 / result.attempted.max(1) as f64,
        result.failed,
        result.attempted
    );
    println!("{}", result.json());
    if result.correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// Tallies runs and their output checks. A run fails when one of its
/// checks does, or when a simulated statistic differs from the first run of
/// the same seed.
#[derive(Default)]
struct Tally {
    attempted: u64,
    failed: u64,
    reference: Option<Vec<u64>>,
}

impl Tally {
    fn record(&mut self, what: &str, o: &Outcome) {
        self.attempted += o.accesses;
        let fp = o.fingerprint();
        let reference = self.reference.get_or_insert_with(|| fp.clone());
        let mut problems = o.violations.clone();
        if *reference != fp {
            problems.push(format!(
                "simulated statistics differ from the first run (digest {:016x})",
                o.digest
            ));
        }
        if !problems.is_empty() {
            self.failed += o.accesses;
            for p in problems {
                println!("  CHECK FAILED ({what}): {p}");
            }
        }
    }

    fn result(self, metrics: Vec<Metric>) -> Result {
        Result {
            correct: self.failed == 0 && self.attempted > 0,
            attempted: self.attempted.max(1),
            failed: self.failed,
            metrics,
        }
    }
}

/// The end-to-end run: cold runs, each after a few timed set-ups, until
/// the time is up.
///
/// Host speed and set-up are timed in CPU time of this process, so time
/// the process spent waiting for a CPU does not count. They are then scaled
/// to a host of nominal speed by the reference loop (see `reference.rs`),
/// timed as many times as there are set-ups and once at the end: each
/// result is a median over the invocation scaled by the median host speed.
/// Single runs still vary with cache contention, which comes in phases of
/// seconds, so the medians are over many runs.
fn timed(args: Args, size: Size) -> Result {
    let (extra_setups, threads) = match args.kind {
        Kind::FleetChrono => (FLEET_EXTRA_SETUPS, scenario::worker_threads()),
        _ => (SINGLE_EXTRA_SETUPS, 1),
    };
    let mut reference = Reference::new(threads);
    let mut speeds = Vec::new();
    // On the fleet, set-ups before the first run took 1.6-4x as long as the
    // ones after it, and varied more: they still faulted memory in from the
    // kernel (15-66 thousand page faults each, against none later). So
    // `setup_s` counts the later ones, unless there is only one run.
    let (mut cold_setups, mut setups) = (Vec::new(), Vec::new());
    let timed_build = || {
        let start = process_cpu_time();
        let built = build(args.kind, size, args.seed);
        (built, (process_cpu_time() - start).as_secs_f64())
    };
    let mut tally = Tally::default();
    let mut rates = Vec::new();
    let mut wall_rates = Vec::new();
    let mut first: Option<Outcome> = None;
    let start = Instant::now();
    loop {
        // As many timings of the reference loop as set-ups, all before
        // them: a loop run between one set-up and the next made the next one
        // about four times slower.
        for _ in 0..=extra_setups {
            speeds.push(reference.speed());
        }
        let counted = if first.is_some() {
            &mut setups
        } else {
            &mut cold_setups
        };
        for _ in 0..extra_setups {
            counted.push(timed_build().1);
        }
        let (built, setup_s) = timed_build();
        counted.push(setup_s);
        let o = run(built, &mut ());
        tally.record("run", &o);
        rates.push(o.accesses as f64 / o.cpu.as_secs_f64());
        wall_rates.push(o.accesses as f64 / o.host.as_secs_f64());
        // Stop when another run of the same length would overrun.
        let done = start.elapsed() + o.host >= args.seconds;
        first.get_or_insert(o);
        if done {
            break;
        }
    }
    if setups.is_empty() {
        setups = cold_setups;
    }
    speeds.push(reference.speed());
    let speed = median(&speeds);
    let o = first.expect("at least one run");
    let peak_kb = status_kb("VmHWM").unwrap_or(0);
    println!(
        "  {} runs of {} accesses, {} set-ups; digest {:016x}",
        rates.len(),
        o.accesses,
        setups.len(),
        o.digest
    );
    for (what, r, scale) in [
        ("M accesses per host CPU second", &rates, 1e6),
        ("M accesses per host wall-clock second", &wall_rates, 1e6),
        ("host speed / nominal", &speeds, 1.0),
        ("set-up ms", &setups, 1e-3),
    ] {
        let each: Vec<String> = r.iter().map(|r| format!("{:.3}", r / scale)).collect();
        println!(
            "  {what}, median {:.3}, each run: {}",
            median(r) / scale,
            each.join(" ")
        );
    }
    println!(
        "  simulated latency over {} samples: p50 {} ns, p99 {} ns, p99.9 {} ns, mean {} ns",
        o.latency.count(),
        o.latency.quantile(0.5).as_nanos(),
        o.latency.quantile(0.99).as_nanos(),
        o.latency.quantile(0.999).as_nanos(),
        o.latency.mean().as_nanos(),
    );
    tally.result(vec![
        metric("host_accesses_per_s", "1/s", median(&rates) / speed),
        metric("setup_s", "s", median(&setups) * speed),
        metric("peak_rss_mb", "MB", peak_kb as f64 / 1024.0),
        metric("sim_accesses_per_s", "1/s", o.sim_accesses_per_s()),
        metric("fmar", "ratio", o.fmar),
        metric("tenant_fmar_min", "ratio", o.tenant_fmar_min),
        metric("sim_slow_access_frac", "ratio", o.slow_access_frac()),
    ])
}

/// Host-time readings of one untraced/traced pair.
struct Pair {
    untraced_s: f64,
    traced_s: f64,
    hooks: Hooks,
    windows: Vec<f64>,
    finish_s: f64,
    setup_s: f64,
}

/// The traced run: untraced and traced runs in pairs until the time is up.
fn traced(args: Args, size: Size) -> Result {
    let mut tally = Tally::default();
    let mut pairs: Vec<Pair> = Vec::new();
    let mut first: Option<Outcome> = None;
    // Resident-set growth across the process's first set-up; later set-ups
    // reuse memory the allocator already holds.
    let mut setup_rss_kb: Option<f64> = None;
    let start = Instant::now();
    loop {
        let rss_before = status_kb("VmRSS").unwrap_or(0);
        let setup_start = Instant::now();
        let built = build(args.kind, size, args.seed);
        let setup_s = setup_start.elapsed().as_secs_f64();
        setup_rss_kb.get_or_insert_with(|| {
            status_kb("VmRSS").unwrap_or(0).saturating_sub(rss_before) as f64
        });
        let untraced = run(built, &mut ());
        tally.record("untraced", &untraced);

        let mut built = build(args.kind, size, args.seed);
        let cells = instrument(&mut built);
        let mut probe = WindowProbe::start();
        let traced = run(built, &mut probe);
        tally.record("traced", &traced);

        let pair = Pair {
            untraced_s: untraced.host.as_secs_f64(),
            traced_s: traced.host.as_secs_f64(),
            hooks: Hooks::sum(&cells),
            windows: probe.windows,
            finish_s: probe.finish_s,
            setup_s,
        };
        let elapsed = start.elapsed().as_secs_f64();
        let done = elapsed + pair.untraced_s + pair.traced_s >= args.seconds.as_secs_f64();
        pairs.push(pair);
        first.get_or_insert(untraced);
        if done {
            break;
        }
    }
    let o = first.expect("at least one pair");
    let (tenants, threads) = match args.kind {
        Kind::FleetChrono => (size.tenants as f64, scenario::worker_threads() as f64),
        _ => (1.0, 1.0),
    };
    let med = |f: &dyn Fn(&Pair) -> f64| median(&pairs.iter().map(f).collect::<Vec<_>>());
    let h = pairs[0].hooks;
    let c = &o.counters;
    let accesses = o.accesses as f64;
    // Hook times are summed over worker threads, so shares and self time
    // are taken against the CPU time the run had: wall time x threads.
    let cpu_s = |p: &Pair| p.untraced_s * threads;
    let workloads_s = |p: &Pair| p.hooks.next_access.total_s();
    let fleet = o.fleet.unwrap_or_default();

    println!(
        "  {} untraced/traced pairs; digest {:016x}; empty span {:.1} ns",
        pairs.len(),
        o.digest,
        h.next_access.empty_span_ns()
    );
    println!("  spans (first traced run):");
    for (name, t) in [
        ("workloads.next_access", h.next_access),
        ("chrono-core.on_access", h.on_access),
        ("chrono-core.on_event", h.on_event),
        ("chrono-core.on_hint_fault", h.on_hint_fault),
    ] {
        println!(
            "    {name:<28} {:>12} calls {:>10} timed {:>14.6} s",
            t.calls,
            t.timed,
            t.total_s()
        );
    }
    for (i, w) in pairs[0].windows.iter().enumerate() {
        println!("    tiering-policies.shard.window[{i}] {w:.6} s");
    }

    tally.result(vec![
        metric(
            "workloads.next_access_ns",
            "ns",
            med(&|p| p.hooks.next_access.ns_per_call()),
        ),
        metric(
            "workloads.host_share",
            "ratio",
            med(&|p| workloads_s(p) / cpu_s(p)),
        ),
        metric(
            "tiering-policies.driver.self_ns_per_access",
            "ns",
            med(&|p| (cpu_s(p) - workloads_s(p) - p.hooks.policy_s()) / accesses * 1e9),
        ),
        metric(
            "chrono-core.on_event_s",
            "s",
            med(&|p| p.hooks.on_event.total_s()),
        ),
        metric(
            "chrono-core.on_event_calls",
            "count",
            h.on_event.calls as f64,
        ),
        metric(
            "chrono-core.on_hint_fault_s",
            "s",
            med(&|p| p.hooks.on_hint_fault.total_s()),
        ),
        metric(
            "chrono-core.on_hint_fault_calls",
            "count",
            h.on_hint_fault.calls as f64,
        ),
        metric(
            "chrono-core.on_access_ns",
            "ns",
            med(&|p| p.hooks.on_access.ns_per_call()),
        ),
        metric(
            "chrono-core.host_share",
            "ratio",
            med(&|p| p.hooks.policy_s() / cpu_s(p)),
        ),
        metric(
            "chrono-core.promotions_per_hint_fault",
            "ratio",
            c.promoted_pages as f64 / h.on_hint_fault.calls.max(1) as f64,
        ),
        metric(
            "tiered-mem.promoted_pages",
            "count",
            c.promoted_pages as f64,
        ),
        metric("tiered-mem.demoted_pages", "count", c.demoted_pages as f64),
        metric(
            "tiered-mem.failed_migrations",
            "count",
            c.failed_migrations as f64,
        ),
        metric(
            "tiered-mem.aborted_migrations",
            "count",
            c.aborted_migrations as f64,
        ),
        metric(
            "tiered-mem.migration_success_ratio",
            "ratio",
            c.migration_success_ratio(),
        ),
        metric("tiered-mem.thrash_events", "count", c.thrash_events as f64),
        metric("tiered-mem.hint_faults", "count", c.hint_faults as f64),
        metric("tiered-mem.demand_faults", "count", c.demand_faults as f64),
        metric("tiered-mem.scanned_ptes", "count", c.scanned_ptes as f64),
        metric("tiered-mem.kernel_time_frac", "ratio", c.kernel_time_frac()),
        metric(
            "tiered-mem.evacuated_pages",
            "count",
            c.evacuated_pages as f64,
        ),
        metric(
            "tiered-mem.evac_faulted_pages",
            "count",
            c.evac_faulted_pages as f64,
        ),
        metric(
            "tiered-mem.swap_in_faults",
            "count",
            c.swap_in_faults as f64,
        ),
        metric("sim-clock.daemon_wakeups", "count", h.on_event.calls as f64),
        metric(
            "tiering-policies.shard.window_s_median",
            "s",
            med(&|p| {
                if p.windows.is_empty() {
                    0.0
                } else {
                    median(&p.windows)
                }
            }),
        ),
        metric(
            "tiering-policies.shard.window_s_max",
            "s",
            med(&|p| p.windows.iter().copied().fold(0.0, f64::max)),
        ),
        metric("tiering-policies.shard.finish_s", "s", med(&|p| p.finish_s)),
        metric(
            "tiering-policies.shard.barriers",
            "count",
            fleet.barriers as f64,
        ),
        metric(
            "tiering-policies.shard.admission_rejects",
            "count",
            fleet.admission_rejects as f64,
        ),
        metric(
            "tiering-policies.shard.slot_share_gini",
            "ratio",
            fleet.slot_share_gini,
        ),
        metric(
            "harness.rss_per_tenant_kb",
            "kB",
            setup_rss_kb.unwrap_or(0.0) / tenants,
        ),
        metric(
            "harness.tenant_setup_us",
            "us",
            med(&|p| p.setup_s) / tenants * 1e6,
        ),
        metric(
            "perfbench.trace_overhead_s",
            "s",
            med(&|p| p.traced_s - p.untraced_s),
        ),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny(kind: Kind, trace: bool) -> Result {
        let args = Args {
            kind,
            seed: 7,
            seconds: Duration::from_secs(1),
            trace,
        };
        if trace {
            traced(args, Size::tiny())
        } else {
            timed(args, Size::tiny())
        }
    }

    /// Every name this program prints appears in `BENCHMARK.json`, in the
    /// list its mode reports, and the counts agree.
    fn assert_listed(metrics: &[Metric], list: &str) {
        let spec =
            std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json"))
                .expect("BENCHMARK.json at the repository root");
        let section = spec
            .split(&format!("\"{list}\""))
            .nth(1)
            .and_then(|s| s.split(']').next())
            .expect("section present");
        assert_eq!(section.matches("\"name\"").count(), metrics.len(), "{list}");
        for m in metrics {
            assert!(report::valid_name(m.name), "{}", m.name);
            assert!(
                section.contains(&format!(
                    "\"name\": \"{}\", \"unit\": \"{}\"",
                    m.name, m.unit
                )),
                "{} [{}] not in {list}",
                m.name,
                m.unit
            );
        }
    }

    #[test]
    fn smoke_runs_pass_their_checks_and_report_every_metric() {
        for kind in Kind::ALL {
            let e2e = tiny(kind, false);
            assert!(e2e.correct && e2e.failed == 0, "{}", kind.name());
            assert_listed(&e2e.metrics, "end_to_end");
            for m in &e2e.metrics {
                assert!(m.value > 0.0, "{} {} = {}", kind.name(), m.name, m.value);
            }
            let layers = tiny(kind, true);
            assert!(layers.correct && layers.failed == 0, "{}", kind.name());
            assert_listed(&layers.metrics, "per_layer");
        }
    }

    #[test]
    fn traced_and_untraced_digests_are_equal() {
        for kind in Kind::ALL {
            let untraced = run(build(kind, Size::tiny(), 11), &mut ());
            let mut built = build(kind, Size::tiny(), 11);
            let cells = instrument(&mut built);
            let traced = run(built, &mut WindowProbe::start());
            assert_eq!(
                untraced.fingerprint(),
                traced.fingerprint(),
                "{}",
                kind.name()
            );
            let hooks = Hooks::sum(&cells);
            assert!(
                hooks.next_access.calls >= traced.accesses,
                "{}",
                kind.name()
            );
            assert!(hooks.on_event.calls > 0, "{}", kind.name());
        }
    }

    #[test]
    fn a_run_that_differs_from_the_first_fails() {
        let a = run(build(Kind::ProfileChrono, Size::tiny(), 1), &mut ());
        let b = run(build(Kind::ProfileChrono, Size::tiny(), 2), &mut ());
        let mut tally = Tally::default();
        tally.record("first", &a);
        tally.record("second", &b);
        let r = tally.result(Vec::new());
        assert!(!r.correct);
        assert_eq!(
            (r.attempted, r.failed),
            (a.accesses + b.accesses, b.accesses)
        );
    }

    #[test]
    fn seeds_change_the_inputs() {
        for kind in Kind::ALL {
            let a = run(build(kind, Size::tiny(), 1), &mut ());
            let b = run(build(kind, Size::tiny(), 2), &mut ());
            assert_ne!(a.digest, b.digest, "{}", kind.name());
        }
    }

    #[test]
    fn fleet_matches_harness_run() {
        let size = Size::tiny();
        let ours = run(build(Kind::FleetChrono, size, 5), &mut ());
        let theirs = harness::tenants::run_fleet(&scenario::fleet_config(size, 5));
        assert_eq!(ours.digest, theirs.combined_digest());
        assert_eq!(ours.accesses, theirs.total_accesses());
    }

    #[test]
    fn bad_arguments_are_refused() {
        let parse = |s: &str| parse_args(s.split_whitespace().map(String::from));
        assert!(parse("--workload profile_chrono --seed 3 --seconds 5 --trace 1").is_ok());
        assert!(parse("--workload nope --seed 3").is_err());
        assert!(parse("--workload fleet_chrono").is_err());
        assert!(parse("--workload fleet_chrono --seed x").is_err());
        assert!(parse("--workload fleet_chrono --seed 1 --trace 2").is_err());
        assert!(parse("--workload fleet_chrono --seed 1 --bogus 2").is_err());
    }
}
