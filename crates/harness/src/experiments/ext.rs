//! Extensions beyond the paper's plotted evaluation.
//!
//! - `ext-baselines`: Table 1 lists Telescope and FlexMem but the figures
//!   don't plot them; this experiment runs the full eight-policy field on
//!   the Fig 6(a) workload.
//! - `ext-adapt`: a phase-shifting workload probing the paper's claim that
//!   DCSC "adapts to changing workload patterns" — after the hot region
//!   jumps, how quickly does each policy recover its fast-tier hit rate?
//! - `ext-limits`: cgroup memory limits (Section 3.3.1): Chrono reclaims
//!   slow-tier pages of confined processes to swap while keeping hot pages
//!   in DRAM.

use sim_clock::Nanos;
use tiered_mem::{PageSize, SystemConfig, TierId, TieredSystem};
use tiering_metrics::Table;
use tiering_policies::{
    flexmem::FlexMemConfig, telescope::TelescopeConfig, DriverConfig, FlexMem, SimulationDriver,
    Telescope, TieringPolicy,
};
use workloads::{PhasedWorkload, PmbenchConfig, PmbenchWorkload, Workload};

use crate::runner::{quarter_system, PolicyKind, Scale, MEMTIS_SAMPLE_PERIOD};

/// Builds the two Table-1-only baselines at the given scale.
fn extended_policy(name: &str, scale: &Scale) -> Box<dyn TieringPolicy> {
    match name {
        "Telescope" => Box::new(Telescope::new(TelescopeConfig {
            // The paper quotes a fixed 200 ms window against 60 s scans;
            // keep the same 1:300 ratio to our scan period.
            window: Nanos(scale.scan_period.as_nanos() / 300).max(Nanos(100_000)),
            frontier_budget: 1024,
            hot_windows: 2,
            demote_interval: scale.scan_period / 4,
        })),
        "FlexMem" => Box::new(FlexMem::new(FlexMemConfig {
            sample_period: MEMTIS_SAMPLE_PERIOD,
            scan_period: scale.scan_period,
            scan_step_pages: scale.scan_step,
            migrate_interval: scale.scan_period / 10,
            cooling_interval: scale.scan_period * 8,
            // At the hardware-capped sampling rate each page collects well
            // under one sample per cooling period; FlexMem's point is that
            // the *combination* of sparse samples and fault recency
            // suffices, so the counter gate stays low.
            hot_counter: 2,
            demote_interval: scale.scan_period / 4,
            seed: 0xF7,
        })),
        other => unreachable!("unknown extended baseline {other}"),
    }
}

/// Extended baseline comparison: all eight policies, Fig 6(a) workload.
pub fn run_baselines(scale: &Scale) -> String {
    let procs = 8usize;
    let pages = 2048u32;
    let total = procs as u32 * pages;
    let mut rows: Vec<(String, f64, f64)> = Vec::new();

    let run_one = |policy: &mut dyn TieringPolicy, page_size: PageSize| -> (f64, f64) {
        let mut sys = quarter_system(scale, total + total / 4);
        let mut wls: Vec<Box<dyn Workload>> = (0..procs)
            .map(|i| {
                Box::new(PmbenchWorkload::new(PmbenchConfig::paper_skewed(
                    pages,
                    0.70,
                    1500 + i as u64,
                ))) as Box<dyn Workload>
            })
            .collect();
        for w in &wls {
            sys.add_process(w.address_space_pages(), page_size);
        }
        let r = SimulationDriver::new(DriverConfig {
            run_for: scale.run_for,
            ..Default::default()
        })
        .run(&mut sys, &mut wls, policy);
        (r.throughput(), sys.stats.fmar())
    };

    for kind in PolicyKind::MAIN {
        let page_size = if kind == PolicyKind::Memtis {
            PageSize::Huge2M
        } else {
            PageSize::Base
        };
        let mut p = kind.build(scale);
        let (thpt, fmar) = run_one(&mut *p, page_size);
        rows.push((kind.name().to_string(), thpt, fmar));
    }
    for name in ["Telescope", "FlexMem"] {
        let mut p = extended_policy(name, scale);
        let (thpt, fmar) = run_one(&mut *p, PageSize::Base);
        rows.push((name.to_string(), thpt, fmar));
    }

    let base = rows[0].1; // Linux-NB
    let mut t = Table::new(
        "Extension: all eight surveyed policies (Fig 6a workload)",
        &["Policy", "Normalized throughput", "FMAR"],
    );
    for (name, thpt, fmar) in rows {
        t.row(&[
            name,
            format!("{:.2}", thpt / base),
            format!("{:.1}%", fmar * 100.0),
        ]);
    }
    t.render()
}

/// Adaptation experiment: FMAR per quarter of a run whose hot region jumps
/// at the midpoint.
pub fn run_adapt(scale: &Scale) -> String {
    let pages = 8192u32;
    let run_for = scale.run_for * 2;
    let mut t = Table::new(
        "Extension: adaptation to a phase shift (FMAR per eighth of the run; hot region jumps near the midpoint)",
        &["Policy", "I1", "I2", "I3", "I4", "I5", "I6", "I7", "I8", "dip", "recovered"],
    );
    for kind in [PolicyKind::Tpp, PolicyKind::Chrono] {
        let mut sys = quarter_system(scale, pages + pages / 4);
        let w = PhasedWorkload::new(
            pages,
            vec![0.25, 0.75],
            // One phase per half of the run, in accesses: approximate from
            // the default-scale throughput (~6 M accesses per sim-second).
            (run_for.as_secs_f64() * 6.0e6 / 2.0) as u64,
            0.7,
            1600,
        );
        sys.add_process(w.address_space_pages(), PageSize::Base);
        let wls: Vec<Box<dyn Workload>> = vec![Box::new(w)];
        let mut policy = kind.build(scale);

        // Sample FMAR per eighth via interval snapshots of the counters.
        let mut interval_fmar = Vec::new();
        let mut prev = sys.stats.clone();
        let mut carried_sys = sys;
        let mut carried_wls = wls;
        policy.init(&mut carried_sys);
        for q in 1..=8u64 {
            run_until(
                &mut carried_sys,
                &mut carried_wls,
                &mut *policy,
                run_for / 8 * q,
            );
            let delta = carried_sys.stats.delta_since(&prev);
            prev = carried_sys.stats.clone();
            interval_fmar.push(delta.fmar());
        }
        // The dip is the post-shift minimum; recovery is how much of the
        // pre-shift level the final interval regains.
        let pre = interval_fmar[..4].iter().cloned().fold(0.0f64, f64::max);
        let dip = interval_fmar[4..].iter().cloned().fold(1.0f64, f64::min);
        let last = *interval_fmar.last().expect("eight intervals");
        let mut cells = vec![kind.name().to_string()];
        cells.extend(interval_fmar.iter().map(|f| format!("{:.1}%", f * 100.0)));
        cells.push(format!("-{:.1} pts", (pre - dip) * 100.0));
        cells.push(format!("{:+.1} pts", (last - dip) * 100.0));
        t.row(&cells);
    }
    t.render()
}

/// Minimal driver loop without policy re-initialization (quarter-by-quarter
/// driving for the adaptation experiment).
fn run_until(
    sys: &mut TieredSystem,
    workloads: &mut [Box<dyn Workload>],
    policy: &mut dyn TieringPolicy,
    until: Nanos,
) {
    while let Some(pid) = sys.min_vtime_process() {
        let t = sys.process(pid).vtime;
        while let Some(deadline) = sys.events.next_deadline() {
            if deadline > t {
                break;
            }
            let fire_at = deadline.max(sys.clock.now());
            sys.clock.advance_to(fire_at);
            let (_, token) = sys.events.pop_due(deadline).expect("peeked");
            sys.count_daemon_wakeup();
            policy.on_event(sys, token);
        }
        if t > sys.clock.now() {
            sys.clock.advance_to(t);
        }
        if t >= until {
            break;
        }
        let Some(req) = workloads[pid.0 as usize].next_access() else {
            sys.process_mut(pid).running = false;
            continue;
        };
        if req.think > Nanos::ZERO {
            sys.process_mut(pid).vtime += req.think;
            sys.stats.user_time += req.think;
        }
        let res = sys.access(pid, req.vpn, req.write);
        if res.hint_fault {
            policy.on_hint_fault(sys, pid, req.vpn, req.write, &res);
        }
        policy.on_access(sys, pid, req.vpn, req.write);
    }
}

/// cgroup memory-limit experiment: a confined Chrono process keeps its hot
/// pages fast while the overflow is reclaimed to swap.
pub fn run_limits(scale: &Scale) -> String {
    let pages = 6144u32;
    let mut sys = TieredSystem::new(SystemConfig::quarter_fast(pages + pages / 4));
    let w = PmbenchWorkload::new(PmbenchConfig::paper_skewed(pages, 0.7, 1700));
    let pid = sys.add_process(w.address_space_pages(), PageSize::Base);
    // Confine to 70 % of the working set: overflow must go to swap.
    let limit = (pages as f64 * 0.7) as u32;
    sys.set_memory_limit(pid, Some(limit));
    let mut wls: Vec<Box<dyn Workload>> = vec![Box::new(w)];
    let mut policy = PolicyKind::Chrono.build(scale);
    let r = SimulationDriver::new(DriverConfig {
        run_for: scale.run_for,
        ..Default::default()
    })
    .run(&mut sys, &mut wls, &mut *policy);

    let mut t = Table::new(
        "Extension: cgroup memory limit under Chrono",
        &["Metric", "Value"],
    );
    t.row(&["memory limit (frames)".into(), format!("{}", limit)]);
    t.row(&[
        "resident at end (frames)".into(),
        format!("{}", sys.process(pid).resident_frames),
    ]);
    t.row(&[
        "over-limit at end (frames)".into(),
        format!("{}", sys.over_limit_frames(pid)),
    ]);
    t.row(&[
        "pages swapped out".into(),
        format!("{}", sys.stats.swapped_out_pages),
    ]);
    t.row(&[
        "swap-in major faults".into(),
        format!("{}", sys.stats.swap_in_faults),
    ]);
    t.row(&[
        "fast tier still used (frames)".into(),
        format!("{}", sys.used_frames(TierId::FAST)),
    ]);
    t.row(&["FMAR".into(), format!("{:.1}%", sys.stats.fmar() * 100.0)]);
    t.row(&["accesses completed".into(), format!("{}", r.accesses)]);
    t.render()
}
