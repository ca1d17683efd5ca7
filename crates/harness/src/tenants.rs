//! `harness run`: the multi-tenant fleet experiment.
//!
//! ```text
//! harness run --tenants N [--threads T] [--policy NAME] [--millis MS]
//!             [--seed X] [--slots N] [--topology dram-pmem|dram-cxl|three-tier]
//! ```
//!
//! Builds `N` tenant shards with skewed popularity (zipf-0.7 working sets on
//! per-tenant RNG streams split from the run seed) and skewed admission
//! weights over a weighted partition of a shared frame pool, runs them on
//! `T` worker threads under the TierBPF-style admission hook, and reports
//! fairness (per-tenant FMAR spread, slot-share Gini, starvation) and
//! aggregate-throughput metrics. The trace digest is printed so two
//! invocations with different `--threads` can be diffed by eye: same seed ⇒
//! same digest, regardless of thread count.

use crate::runner::Topology;
use sim_clock::{DetRng, Nanos};
use tiered_mem::{PageSize, PartitionPlan, TierId, TieredSystem};
use tiering_policies::{
    AdmissionConfig, DriverConfig, ShardedConfig, ShardedRunResult, ShardedSim, TenantShard,
};
use tiering_verify::{tenant_weights, PolicyUnderTest, ALL_POLICIES};
use workloads::{PmbenchConfig, PmbenchWorkload, Workload};

/// Stream id per-tenant workload seeds are split on (xored with tenant id).
const WORKLOAD_STREAM: u64 = 0xF1EE_7000;

/// Mean frames per tenant in each tier. The weighted partition skews around
/// these (respecting the per-partition floors), and per-tenant working sets
/// are sized past the fast share so every tenant has promotion demand.
const FAST_PER_TENANT: u32 = 24;
const SLOW_PER_TENANT: u32 = 72;
/// Three-tier split of the same 96-frame per-tenant mean: the fast share is
/// unchanged and the classic slow share splits evenly into a CXL middle tier
/// and a PMem backstop (each above the [`tiered_mem::MIN_SLOW_FRAMES`]
/// partition floor), so total capacity per tenant is identical across
/// topologies and fleet runs stay comparable.
const THREE_TIER_PER_TENANT: [u32; 3] = [FAST_PER_TENANT, 36, 36];

/// Parameters of one fleet run.
#[derive(Debug, Clone)]
pub struct FleetConfig {
    /// Tenant count.
    pub tenants: usize,
    /// Worker threads stepping shards between barriers.
    pub threads: usize,
    /// Policy every tenant runs.
    pub policy: PolicyUnderTest,
    /// Simulated horizon in milliseconds.
    pub millis: u64,
    /// Run seed (weights, per-tenant workload streams).
    pub seed: u64,
    /// Global admission-slot pool (None = `2 × tenants`, the weighted-regime
    /// boundary, so contention is visible without starving the fleet).
    pub slots: Option<usize>,
    /// Tier chain every tenant's system is built on.
    pub topology: Topology,
}

impl Default for FleetConfig {
    fn default() -> FleetConfig {
        FleetConfig {
            tenants: 1000,
            threads: 4,
            policy: PolicyUnderTest::ChronoDcsc,
            millis: 10,
            seed: 0xF1EE_7001,
            slots: None,
            topology: Topology::DramPmem,
        }
    }
}

/// Builds the fleet's shards over a weighted partition of the shared pool.
pub fn build_fleet(cfg: &FleetConfig) -> Vec<TenantShard> {
    let weights = tenant_weights(cfg.seed, cfg.tenants);
    let per_tenant: &[u32] = match cfg.topology {
        Topology::ThreeTier => &THREE_TIER_PER_TENANT,
        _ => &[FAST_PER_TENANT, SLOW_PER_TENANT],
    };
    let totals: Vec<u32> = per_tenant.iter().map(|&t| t * cfg.tenants as u32).collect();
    let plan = PartitionPlan::split_weighted_tiers(&totals, &weights);
    let tiers = cfg.topology.num_tiers();
    let scan_period = Nanos::from_millis(5);
    let driver = DriverConfig {
        run_for: Nanos::from_millis(cfg.millis),
        ..Default::default()
    };
    (0..cfg.tenants)
        .map(|i| {
            let part = plan.part(i);
            let tenant_frames: u32 = (0..tiers).map(|t| part.frames(TierId(t as u8))).sum();
            let mut sys = TieredSystem::new(cfg.topology.partition_config(part));
            sys.enable_tracing(1 << 8);
            // Working set at half the tenant's partition — comfortably
            // resident, but larger than the fast share, so every tenant
            // wants more fast memory than it has and the fleet question is
            // whose promotions win the bounded slots.
            let pages = (tenant_frames / 2).max(16);
            let tenant_seed = DetRng::split(cfg.seed, WORKLOAD_STREAM ^ i as u64).next_u64();
            let w = PmbenchWorkload::new(PmbenchConfig::paper_skewed(pages, 0.7, tenant_seed));
            sys.add_process(w.address_space_pages(), PageSize::Base);
            TenantShard::new(
                i as u32,
                weights[i],
                sys,
                vec![Box::new(w) as Box<dyn Workload>],
                cfg.policy.build(scan_period, 512, tiers).into_dyn(),
                driver.clone(),
            )
        })
        .collect()
}

/// Runs the fleet and returns the sharded result.
pub fn run_fleet(cfg: &FleetConfig) -> ShardedRunResult {
    let shards = build_fleet(cfg);
    let mut scfg = ShardedConfig::new(Nanos::from_millis(cfg.millis));
    scfg.threads = cfg.threads;
    scfg.admission = AdmissionConfig {
        enabled: true,
        total_slots: cfg.slots.unwrap_or(2 * cfg.tenants),
    };
    ShardedSim::new(scfg, shards).run()
}

/// `harness run --tenants N [--threads T] [--policy NAME] [--millis MS]
/// [--seed X] [--slots N] [--topology NAME]`. Returns the process exit code.
pub fn run_tenants(mut args: Vec<String>) -> i32 {
    let mut cfg = FleetConfig::default();
    let mut take = |flag: &str| -> Option<String> {
        let pos = args.iter().position(|a| a == flag)?;
        let Some(v) = args.get(pos + 1).cloned() else {
            eprintln!("{flag} requires an argument");
            std::process::exit(2);
        };
        args.drain(pos..=pos + 1);
        Some(v)
    };
    let parse_u64 = |flag: &str, v: String| -> u64 {
        let parsed = match v.strip_prefix("0x") {
            Some(hex) => u64::from_str_radix(hex, 16).ok(),
            None => v.parse().ok(),
        };
        parsed.unwrap_or_else(|| {
            eprintln!("{flag} requires an integer argument");
            std::process::exit(2);
        })
    };
    if let Some(v) = take("--tenants") {
        cfg.tenants = parse_u64("--tenants", v).max(1) as usize;
    }
    if let Some(v) = take("--threads") {
        cfg.threads = parse_u64("--threads", v).max(1) as usize;
    }
    if let Some(v) = take("--millis") {
        cfg.millis = parse_u64("--millis", v).max(1);
    }
    if let Some(v) = take("--seed") {
        cfg.seed = parse_u64("--seed", v);
    }
    if let Some(v) = take("--slots") {
        cfg.slots = Some(parse_u64("--slots", v).max(1) as usize);
    }
    if let Some(v) = take("--policy") {
        let Some(p) = ALL_POLICIES.into_iter().find(|p| p.name() == v) else {
            eprintln!(
                "unknown policy '{v}'; one of: {}",
                ALL_POLICIES.map(|p| p.name()).join(", ")
            );
            return 2;
        };
        cfg.policy = p;
    }
    if let Some(v) = take("--topology") {
        let Some(t) = Topology::parse(&v) else {
            eprintln!("unknown topology '{v}'; one of: dram-pmem, dram-cxl, three-tier");
            return 2;
        };
        cfg.topology = t;
    }
    if let Some(unknown) = args.first() {
        eprintln!("run: unknown argument '{unknown}'");
        return 2;
    }

    println!(
        "fleet: {} tenants x {} ms of {} on {} threads (seed {:#x}, {} slots, {})",
        cfg.tenants,
        cfg.millis,
        cfg.policy.name(),
        cfg.threads,
        cfg.seed,
        cfg.slots.unwrap_or(2 * cfg.tenants),
        cfg.topology.name(),
    );
    // lint:allow(wall-clock) CLI-only wall throughput metric; never feeds the sim
    let wall = std::time::Instant::now();
    let result = run_fleet(&cfg);
    let elapsed = wall.elapsed();

    let accesses = result.total_accesses();
    let (fmar_lo, fmar_hi) = result.fmar_spread();
    let starved_now = result
        .outcomes
        .iter()
        .filter(|o| o.max_starvation > 0)
        .count();
    let rejects: u64 = result
        .shards
        .iter()
        .map(|s| s.sys.stats.failed_fast_migrations[3])
        .sum();
    println!(
        "  aggregate: {accesses} accesses in {elapsed:.1?} ({:.0} accesses/sec wall), \
         {} barriers",
        accesses as f64 / elapsed.as_secs_f64().max(1e-9),
        result.barriers,
    );
    println!(
        "  fairness:  fmar spread [{fmar_lo:.3}, {fmar_hi:.3}], slot-share gini {:.3}, \
         {starved_now}/{} tenants ever starved a barrier, {rejects} admission rejects",
        result.slot_share_gini(),
        result.outcomes.len(),
    );
    println!("  digest:    {:016x}", result.combined_digest());
    0
}
