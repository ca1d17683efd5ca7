//! The three benchmark workloads: how each is built from the simulator's
//! public API, run, and checked.
//!
//! Every workload starts cold: the generators' first-touch initialization
//! pass runs inside the timed region, as it does under `harness`.

use std::time::{Duration, Instant};

use harness::tenants::{build_fleet, FleetConfig};
use harness::{FaultPlanKind, PolicyKind, Scale, Topology};
use sim_clock::{DetRng, Nanos};
use tiered_mem::{PageSize, SystemStats, TierHealth, TierId, TieredSystem};
use tiering_metrics::LatencyHistogram;
use tiering_policies::{
    AdmissionConfig, DriverConfig, ShardedConfig, ShardedSim, SimulationDriver, TenantShard,
    TieringPolicy,
};
use tiering_verify::{InvariantOracle, PolicyUnderTest};
use workloads::{
    KvFlavor, KvStoreConfig, KvStoreWorkload, PmbenchConfig, PmbenchWorkload, Workload,
};

use crate::report::process_cpu_time;

/// Event-ring capacity of the single-tenant tracers. The digest folds the
/// ring, so it must be enabled for the digest to say anything.
const TRACE_EVENT_CAP: usize = 1 << 16;
/// Stream the fault-plan seed is split from the workload seed on.
const FAULT_STREAM: u64 = 0xFA17_0003;
/// `MigrateError::index` slot of backpressure (admission) rejects.
const BACKPRESSURE_IDX: usize = 3;

/// Simulated latency limit of [`Outcome::slow_access_frac`]: above every
/// uncontended load or store (465 ns at most), below a demand or hint
/// fault (1.2 µs and up). Contended or degraded tiers can also cross it.
const SLOW_ACCESS: Nanos = Nanos(1000);

/// A named benchmark workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// One pmbench process on DRAM+PMem under Chrono-DCSC (Fig 10 profile).
    ProfileChrono,
    /// A write-heavy Redis-style store on DRAM+CXL+PMem under cascaded
    /// Chrono while the CXL tier degrades, goes offline and rejoins.
    KvFailover3,
    /// A fleet of Chrono-DCSC tenants under barrier admission.
    FleetChrono,
}

impl Kind {
    /// Every workload, in the order `BENCHMARK.json` lists them.
    pub const ALL: [Kind; 3] = [Kind::ProfileChrono, Kind::KvFailover3, Kind::FleetChrono];

    /// Parses a workload name.
    pub fn parse(name: &str) -> Option<Kind> {
        Kind::ALL.into_iter().find(|k| k.name() == name)
    }

    /// The workload's name.
    pub fn name(self) -> &'static str {
        match self {
            Kind::ProfileChrono => "profile_chrono",
            Kind::KvFailover3 => "kv_failover3",
            Kind::FleetChrono => "fleet_chrono",
        }
    }
}

/// How big one run of a workload is.
#[derive(Debug, Clone, Copy)]
pub struct Size {
    /// Address-space pages of the single-tenant workloads.
    pub pages: u32,
    /// Simulated horizon of the single-tenant workloads.
    pub single_for: Nanos,
    /// Fleet tenants.
    pub tenants: usize,
    /// Simulated horizon of the fleet.
    pub fleet_millis: u64,
}

impl Size {
    /// The benchmark's size.
    pub fn full() -> Size {
        Size {
            pages: 16384,
            single_for: Nanos::from_millis(1500),
            tenants: 4096,
            fleet_millis: 15,
        }
    }

    /// A smoke-test size that runs in well under a second.
    #[cfg(test)]
    pub fn tiny() -> Size {
        Size {
            pages: 1024,
            single_for: Nanos::from_millis(200),
            tenants: 8,
            fleet_millis: 15,
        }
    }
}

/// A workload ready to run: everything constructed, no access issued yet.
pub enum Built {
    /// One system driven by [`SimulationDriver`].
    Single {
        /// The tiered system.
        sys: Box<TieredSystem>,
        /// One workload per process.
        wls: Vec<Box<dyn Workload>>,
        /// The tiering policy.
        policy: Box<dyn TieringPolicy>,
        /// Simulated horizon.
        run_for: Nanos,
        /// Whether the run carries the `canonical3` failure arc.
        failover: bool,
    },
    /// A sharded multi-tenant fleet.
    Fleet {
        /// One shard per tenant.
        shards: Vec<TenantShard>,
        /// The sharded-run configuration.
        cfg: ShardedConfig,
    },
}

/// Simulated outcome of one run, plus the output checks it failed.
#[derive(Debug)]
pub struct Outcome {
    /// Host time of the run, from its first access to its end.
    pub host: Duration,
    /// Process CPU time of the run, over all its threads.
    pub cpu: Duration,
    /// Accesses executed.
    pub accesses: u64,
    /// Simulated makespan.
    pub makespan: Nanos,
    /// Per-access simulated latency, all tenants merged.
    pub latency: LatencyHistogram,
    /// Fast-tier access ratio over all tenants.
    pub fmar: f64,
    /// The worst tenant's FMAR.
    pub tenant_fmar_min: f64,
    /// Trace digest (the fleet's combined digest).
    pub digest: u64,
    /// Substrate counters summed over tenants.
    pub counters: Counters,
    /// Fleet-only facts; `None` on single-tenant workloads.
    pub fleet: Option<FleetFacts>,
    /// Output checks that failed; empty means the run is correct.
    pub violations: Vec<String>,
}

impl Outcome {
    /// Accesses per simulated second.
    pub fn sim_accesses_per_s(&self) -> f64 {
        self.accesses as f64 / self.makespan.as_secs_f64().max(1e-12)
    }

    /// Share of accesses whose simulated latency exceeds [`SLOW_ACCESS`].
    pub fn slow_access_frac(&self) -> f64 {
        1.0 - self.latency.cdf_at(&[SLOW_ACCESS])[0]
    }

    /// Every simulated statistic the benchmark reports, bit-exact, for
    /// comparing two runs that must agree.
    pub fn fingerprint(&self) -> Vec<u64> {
        let mut v = vec![
            self.accesses,
            self.makespan.as_nanos(),
            self.fmar.to_bits(),
            self.tenant_fmar_min.to_bits(),
            self.digest,
            self.latency.count(),
            self.latency.mean().as_nanos(),
            self.slow_access_frac().to_bits(),
        ];
        v.extend([0.5, 0.99, 0.999].map(|q| self.latency.quantile(q).as_nanos()));
        v.extend(self.counters.fields());
        if let Some(f) = &self.fleet {
            v.extend([f.barriers, f.admission_rejects, f.slot_share_gini.to_bits()]);
        }
        v
    }
}

/// Substrate (`tiered-mem`) counters of one run, summed over tenants.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct Counters {
    pub promoted_pages: u64,
    pub demoted_pages: u64,
    pub failed_migrations: u64,
    pub aborted_migrations: u64,
    pub begun_migrations: u64,
    pub completed_migrations: u64,
    pub thrash_events: u64,
    pub hint_faults: u64,
    pub demand_faults: u64,
    pub scanned_ptes: u64,
    pub kernel_ns: u64,
    pub user_ns: u64,
    pub evacuated_pages: u64,
    pub evac_faulted_pages: u64,
    pub swap_in_faults: u64,
}

impl Counters {
    fn add(&mut self, s: &SystemStats) {
        self.promoted_pages += s.promoted_pages;
        self.demoted_pages += s.demoted_pages;
        self.failed_migrations += s.failed_fast_migrations.iter().sum::<u64>() + s.failed_demotions;
        self.aborted_migrations += s.aborted_migrations;
        self.begun_migrations += s.begun_migrations;
        self.completed_migrations += s.completed_migrations;
        self.thrash_events += s.thrash_events;
        self.hint_faults += s.hint_faults;
        self.demand_faults += s.demand_faults;
        self.scanned_ptes += s.scanned_ptes;
        self.kernel_ns += s.kernel_time.as_nanos();
        self.user_ns += s.user_time.as_nanos();
        self.evacuated_pages += s.evacuated_pages;
        self.evac_faulted_pages += s.evac_faulted_pages;
        self.swap_in_faults += s.swap_in_faults;
    }

    fn fields(&self) -> [u64; 15] {
        [
            self.promoted_pages,
            self.demoted_pages,
            self.failed_migrations,
            self.aborted_migrations,
            self.begun_migrations,
            self.completed_migrations,
            self.thrash_events,
            self.hint_faults,
            self.demand_faults,
            self.scanned_ptes,
            self.kernel_ns,
            self.user_ns,
            self.evacuated_pages,
            self.evac_faulted_pages,
            self.swap_in_faults,
        ]
    }

    /// Migrations retired over migrations begun.
    pub fn migration_success_ratio(&self) -> f64 {
        self.completed_migrations as f64 / self.begun_migrations.max(1) as f64
    }

    /// Share of simulated execution time spent in kernel work.
    pub fn kernel_time_frac(&self) -> f64 {
        self.kernel_ns as f64 / (self.kernel_ns + self.user_ns).max(1) as f64
    }
}

/// Facts only a sharded fleet has; all zero on single-tenant workloads.
#[derive(Debug, Clone, Copy, Default)]
pub struct FleetFacts {
    /// Barriers executed.
    pub barriers: u64,
    /// Promotions refused by the admission hook (backpressure rejects).
    pub admission_rejects: u64,
    /// Gini coefficient of per-tenant cumulative slot grants.
    pub slot_share_gini: f64,
}

/// The fleet configuration of a size and seed: the `harness run` tenant mix
/// (Chrono-DCSC, DRAM+PMem, admission on) on every available CPU.
pub fn fleet_config(size: Size, seed: u64) -> FleetConfig {
    FleetConfig {
        tenants: size.tenants,
        threads: worker_threads(),
        policy: PolicyUnderTest::ChronoDcsc,
        millis: size.fleet_millis,
        seed,
        slots: None,
        topology: Topology::DramPmem,
    }
}

/// Fleet worker threads: one per available CPU.
pub fn worker_threads() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// The harness scale of a single-tenant workload.
fn single_scale(kind: Kind, size: Size, seed: u64) -> Scale {
    let failover = kind == Kind::KvFailover3;
    Scale {
        run_for: size.single_for,
        topology: if failover {
            Topology::ThreeTier
        } else {
            Topology::DramPmem
        },
        fault: failover.then_some(FaultPlanKind::Canonical3),
        fault_seed: DetRng::split(seed, FAULT_STREAM).next_u64(),
        ..Scale::default_scale()
    }
}

/// Constructs a workload from `seed`, the way `harness::runner::run_policy`
/// does, but keeping the parts apart so the traced run can wrap them.
pub fn build(kind: Kind, size: Size, seed: u64) -> Built {
    let workload: Box<dyn Workload> = match kind {
        Kind::ProfileChrono => Box::new(PmbenchWorkload::new(PmbenchConfig::paper_skewed(
            size.pages, 0.95, seed,
        ))),
        Kind::KvFailover3 => Box::new(KvStoreWorkload::new(
            KvStoreConfig::sized_to_pages(size.pages, KvFlavor::Redis, 0.5, seed).with_zipf(0.99),
        )),
        Kind::FleetChrono => {
            let fleet = fleet_config(size, seed);
            let mut cfg = ShardedConfig::new(Nanos::from_millis(fleet.millis));
            cfg.threads = fleet.threads;
            cfg.admission = AdmissionConfig {
                enabled: true,
                total_slots: 2 * fleet.tenants,
            };
            return Built::Fleet {
                shards: build_fleet(&fleet),
                cfg,
            };
        }
    };
    let scale = single_scale(kind, size, seed);
    let pages = workload.address_space_pages();
    let mut sys_cfg = scale.topology.system_config(pages + pages / 4);
    sys_cfg.fault_plan = scale
        .fault
        .map(|f| f.materialize(scale.fault_seed, scale.run_for));
    let mut sys = TieredSystem::new(sys_cfg);
    sys.enable_tracing(TRACE_EVENT_CAP);
    sys.add_process(pages, PageSize::Base);
    Built::Single {
        sys: Box::new(sys),
        wls: vec![workload],
        policy: PolicyKind::Chrono.build(&scale),
        run_for: scale.run_for,
        failover: scale.fault.is_some(),
    }
}

/// Hooks the traced run attaches to a fleet's barriers. The untraced run
/// passes no-ops.
pub trait BarrierProbe {
    /// Called for every shard at every barrier.
    fn shard(&mut self, shard: &TenantShard);
    /// Called once the sharded run has returned.
    fn finish(&mut self);
}

impl BarrierProbe for () {
    fn shard(&mut self, _: &TenantShard) {}
    fn finish(&mut self) {}
}

/// Runs a built workload to its horizon and checks its outputs.
pub fn run(built: Built, probe: &mut dyn BarrierProbe) -> Outcome {
    match built {
        Built::Single {
            mut sys,
            mut wls,
            mut policy,
            run_for,
            failover,
        } => {
            let start = Instant::now();
            let cpu_start = process_cpu_time();
            let r = SimulationDriver::new(DriverConfig {
                run_for,
                ..Default::default()
            })
            .run(&mut sys, &mut wls, policy.as_mut());
            let host = start.elapsed();
            let cpu = process_cpu_time() - cpu_start;
            let mut counters = Counters::default();
            counters.add(&sys.stats);
            let mut violations = check_system(&sys, "system");
            if r.makespan < run_for {
                violations.push(format!("run stopped at {} before {run_for}", r.makespan));
            }
            if failover {
                violations.extend(check_failover(&sys));
            }
            let fmar = sys.stats.fmar();
            Outcome {
                host,
                cpu,
                accesses: r.accesses,
                makespan: r.makespan,
                latency: r.latency,
                fmar,
                tenant_fmar_min: fmar,
                digest: sys.trace.digest(),
                counters,
                fleet: None,
                violations,
            }
        }
        Built::Fleet { shards, cfg } => {
            let run_for = cfg.run_for;
            let start = Instant::now();
            let cpu_start = process_cpu_time();
            let r = ShardedSim::new(cfg, shards).run_with(|s| probe.shard(s));
            let host = start.elapsed();
            let cpu = process_cpu_time() - cpu_start;
            probe.finish();
            let mut counters = Counters::default();
            let mut latency = LatencyHistogram::new();
            let mut violations = Vec::new();
            let (mut fast, mut total) = (0u64, 0u64);
            for (s, o) in r.shards.iter().zip(&r.outcomes) {
                counters.add(&s.sys.stats);
                latency.merge(&o.result.latency);
                fast += s.sys.stats.tier_accesses(TierId::FAST);
                total += s.sys.stats.total_accesses();
                violations.extend(check_system(&s.sys, &format!("tenant {}", s.id)));
            }
            if r.makespan() < run_for {
                violations.push(format!(
                    "fleet stopped at {} before {run_for}",
                    r.makespan()
                ));
            }
            let admission_rejects = r
                .shards
                .iter()
                .map(|s| s.sys.stats.failed_fast_migrations[BACKPRESSURE_IDX])
                .sum();
            Outcome {
                host,
                cpu,
                accesses: r.total_accesses(),
                makespan: r.makespan(),
                latency,
                fmar: fast as f64 / total.max(1) as f64,
                tenant_fmar_min: r.fmar_spread().0,
                digest: r.combined_digest(),
                counters,
                fleet: Some(FleetFacts {
                    barriers: r.barriers,
                    admission_rejects,
                    slot_share_gini: r.slot_share_gini(),
                }),
                violations,
            }
        }
    }
}

/// The invariant oracle over a final system, plus a non-empty run.
fn check_system(sys: &TieredSystem, what: &str) -> Vec<String> {
    let mut out: Vec<String> = InvariantOracle::new()
        .check(sys)
        .into_iter()
        .map(|v| format!("{what}: {v}"))
        .collect();
    if sys.stats.total_accesses() == 0 {
        out.push(format!("{what}: no access was served"));
    }
    out
}

/// The `canonical3` failure arc happened and healed: the evacuation flow
/// balances, the CXL tier went through its lifecycle and is back online.
fn check_failover(sys: &TieredSystem) -> Vec<String> {
    let s = &sys.stats;
    let mut out = Vec::new();
    let drained = s.evac_rehomed_pages
        + s.evac_swapped_pages
        + s.evac_faulted_pages
        + sys.in_flight_evac_pages();
    if s.evacuated_pages != drained {
        out.push(format!(
            "evacuation flow: {} evacuated != {drained} rehomed + swapped + faulted + in flight",
            s.evacuated_pages
        ));
    }
    if s.evacuated_pages == 0 {
        out.push("the CXL tier went offline without evacuating a page".into());
    }
    if s.tier_health_transitions < 5 {
        out.push(format!(
            "only {} tier-health transitions (want >= 5)",
            s.tier_health_transitions
        ));
    }
    if sys.tier_health(TierId(1)) != TierHealth::Online {
        out.push(format!(
            "CXL tier ends {:?}, not Online",
            sys.tier_health(TierId(1))
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use harness::runner::run_policy;

    #[test]
    fn single_tenant_runs_match_run_policy() {
        let size = Size::tiny();
        for kind in [Kind::ProfileChrono, Kind::KvFailover3] {
            let ours = run(build(kind, size, 3), &mut ());
            let Built::Single { wls, .. } = build(kind, size, 3) else {
                unreachable!("single-tenant workload")
            };
            let pages = wls[0].address_space_pages();
            let scale = single_scale(kind, size, 3);
            let theirs = run_policy(
                PolicyKind::Chrono,
                &scale,
                pages + pages / 4,
                PageSize::Base,
                None,
                move || wls,
            );
            let mut counters = Counters::default();
            counters.add(&theirs.sys.stats);
            assert_eq!(ours.accesses, theirs.result.accesses, "{}", kind.name());
            assert_eq!(ours.makespan, theirs.result.makespan, "{}", kind.name());
            assert_eq!(ours.fmar, theirs.sys.stats.fmar(), "{}", kind.name());
            assert_eq!(ours.counters, counters, "{}", kind.name());
        }
    }

    #[test]
    fn failover_check_catches_a_missing_or_unbalanced_arc() {
        let mut sys = TieredSystem::new(Topology::ThreeTier.system_config(2048));
        let problems = check_failover(&sys);
        assert!(problems.iter().any(|p| p.contains("without evacuating")));
        assert!(problems
            .iter()
            .any(|p| p.contains("tier-health transitions")));
        sys.stats.evacuated_pages = 5;
        assert!(check_failover(&sys)
            .iter()
            .any(|p| p.starts_with("evacuation flow")));
    }
}
