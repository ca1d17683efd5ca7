//! Sharded (multi-tenant) policy runs with cross-shard invariant checking.
//!
//! This is the verification face of the `tiering_policies::shard` runner:
//! it derives a deterministic multi-tenant case from a seed (partitioned
//! frame pools, skewed tenant weights, per-tenant workload streams split
//! from the run seed), runs it at any worker-thread count, and checks three
//! new cross-shard invariants on top of the per-shard oracle sweep:
//!
//! - **global frame conservation across shards** — every shard's tier
//!   capacities still sum to the partition plan's global pools (no frames
//!   created, destroyed, or silently shared);
//! - **PFN exclusivity across tenants** — the partition plan is contiguous,
//!   disjoint, and exhaustive, and every shard's tables are sized to its
//!   partition (two tenants can never address the same global frame);
//! - **per-tenant slot-flow conservation** — opened migration transactions
//!   balance against their outcomes:
//!   `begun == completed + aborted + transient + poisoned + in_flight`;
//! - **canonical admission grants** — every barrier's applied slot grants
//!   are replayed through the chrono-race model's independently implemented
//!   `tiering_analysis::canonical_grants` (N-version programming: same
//!   spec, deliberately different structure) and must agree exactly.
//!
//! [`run_sharded_case_permuted`] additionally shuffles the shard step order
//! inside every barrier window (seeded Fisher–Yates) — the dynamic
//! counterpart of the chrono-race interleaving model: since shards share
//! nothing between barriers, every digest must survive any step order.
//!
//! A single-tenant case with the admission hook off is built through the
//! exact classic-case constructor, so its digest reproduces today's golden
//! tables byte for byte — the compat surface the thread-invariance suite
//! pins.

use sim_clock::{DetRng, Nanos};
use tiered_mem::{
    FaultPlan, PageSize, PartitionPlan, SystemConfig, TierEvent, TierId, TieredSystem,
};
use tiering_analysis::{canonical_grants, RaceClaim};
use tiering_policies::{
    AdmissionConfig, BarrierAudit, DriverConfig, ShardedConfig, ShardedSim, TenantShard,
};
use workloads::{PmbenchConfig, PmbenchWorkload, Workload};

use crate::oracle::{InvariantOracle, Violation};
use crate::policy_fuzz::{case_shape, PolicyUnderTest, ALL_POLICIES};

/// Stream id the per-tenant weight RNG is split on.
const WEIGHT_STREAM: u64 = 0x57A5_0001;
/// Stream id per-tenant workload seeds are split on (xored with tenant id).
const WORKLOAD_STREAM: u64 = 0x3AD3_0000;
/// Stream id per-tenant fault plans are split on (tenant-storm only).
const FAULT_STREAM: u64 = 0xFA57_0000;

/// Scan period (and barrier interval) of every sharded fuzz case — matches
/// the classic fuzz scale so single-tenant runs reproduce classic digests.
const SCAN_PERIOD_MS: u64 = 5;

/// Tenant count of the committed shard golden (see `golden::compute_shard_golden`).
pub const SHARD_GOLDEN_TENANTS: usize = 3;

/// Outcome of one sharded policy case.
#[derive(Debug, Clone)]
pub struct ShardedCaseReport {
    /// The policy every tenant ran (or a label naming a per-tenant mix).
    pub policy: &'static str,
    /// Case seed.
    pub seed: u64,
    /// Tenants simulated.
    pub tenants: usize,
    /// Worker threads used (must not affect any other field).
    pub threads: usize,
    /// Combined digest (single tenant: that tenant's classic digest).
    pub combined_digest: u64,
    /// Per-tenant trace digests, tenant order.
    pub tenant_digests: Vec<u64>,
    /// Total accesses across tenants.
    pub accesses: u64,
    /// Admission (backpressure) rejections summed across tenants.
    pub backpressure_rejects: u64,
    /// Cumulative slot grants per tenant (zero when the hook is off).
    pub granted_slots: Vec<u64>,
    /// Gini coefficient of the slot grants.
    pub slot_gini: f64,
    /// `(min, max)` per-tenant FMAR.
    pub fmar_spread: (f64, f64),
    /// Tier health-state transitions summed across tenants (zero unless the
    /// case schedules tier failure-domain events).
    pub tier_health_transitions: u64,
    /// Emergency evacuation-lane pages summed across tenants.
    pub evacuated_pages: u64,
    /// All violations found (per-shard oracle + cross-shard invariants).
    pub violations: Vec<Violation>,
}

impl ShardedCaseReport {
    /// Whether the run satisfied every invariant.
    pub fn clean(&self) -> bool {
        self.violations.is_empty()
    }
}

/// Skewed per-tenant admission weights for a case seed (1..=8, one RNG
/// stream independent of workload content, so weights are stable across
/// tenant/thread counts of the same seed).
pub fn tenant_weights(seed: u64, tenants: usize) -> Vec<u64> {
    let mut rng = DetRng::split(seed, WEIGHT_STREAM);
    (0..tenants).map(|_| 1 + rng.below(8)).collect()
}

/// Builds the shards for a seeded multi-tenant case: the global fuzz-shape
/// frame pool split by weighted partition, per-tenant skewed workloads on
/// split RNG streams, one policy instance per tenant. `fault_plan_for`
/// attaches an optional plan per tenant (id-keyed, so plans are stable
/// across thread counts).
fn build_shards(
    policy_for: &dyn Fn(u32) -> PolicyUnderTest,
    seed: u64,
    tenants: usize,
    run_millis: u64,
    fault_plan_for: &dyn Fn(u32) -> Option<FaultPlan>,
) -> (Vec<TenantShard>, PartitionPlan) {
    let (total_frames, pages, wl_seed) = case_shape(seed);
    let scan_period = Nanos::from_millis(SCAN_PERIOD_MS);
    let driver = DriverConfig {
        run_for: Nanos::from_millis(run_millis),
        ..Default::default()
    };

    if tenants == 1 {
        // The classic constructor, verbatim — single-tenant sharded runs
        // must reproduce `run_policy_case` digests byte for byte.
        let mut cfg = SystemConfig::quarter_fast(total_frames);
        cfg.fault_plan = fault_plan_for(0);
        let mut sys = TieredSystem::new(cfg);
        sys.enable_tracing(1 << 12);
        let w = PmbenchWorkload::new(PmbenchConfig::paper_skewed(pages, 0.7, wl_seed));
        sys.add_process(w.address_space_pages(), PageSize::Base);
        let shard = TenantShard::new(
            0,
            1,
            sys,
            vec![Box::new(w)],
            policy_for(0).build(scan_period, 512, 2).into_dyn(),
            driver,
        );
        let plan = PartitionPlan::split_even(total_frames / 4, total_frames - total_frames / 4, 1);
        return (vec![shard], plan);
    }

    let weights = tenant_weights(seed, tenants);
    let fast_total = total_frames / 4;
    let slow_total = total_frames - fast_total;
    let plan = PartitionPlan::split_weighted(fast_total, slow_total, &weights);
    let shards = (0..tenants)
        .map(|i| {
            let part = plan.part(i);
            let mut cfg = SystemConfig::dram_pmem(part.fast_frames(), part.slow_frames());
            cfg.fault_plan = fault_plan_for(i as u32);
            let mut sys = TieredSystem::new(cfg);
            sys.enable_tracing(1 << 10);
            // Working set scales with the tenant's partition so every shard
            // is under comparable pressure; the access stream itself comes
            // from a tenant-id-keyed split of the workload seed.
            let tenant_pages =
                ((pages as u64 * part.fast_frames() as u64 / fast_total as u64) as u32).max(64);
            let tenant_seed = DetRng::split(wl_seed, WORKLOAD_STREAM ^ i as u64).next_u64();
            let w =
                PmbenchWorkload::new(PmbenchConfig::paper_skewed(tenant_pages, 0.7, tenant_seed));
            sys.add_process(w.address_space_pages(), PageSize::Base);
            TenantShard::new(
                i as u32,
                weights[i],
                sys,
                vec![Box::new(w) as Box<dyn Workload>],
                policy_for(i as u32).build(scan_period, 512, 2).into_dyn(),
                driver.clone(),
            )
        })
        .collect();
    (shards, plan)
}

/// Per-tenant slot-flow conservation: every opened migration transaction is
/// accounted for by exactly one outcome.
fn check_slot_flow(shard: &TenantShard) -> Option<Violation> {
    let s = &shard.sys.stats;
    let accounted = s.completed_migrations
        + s.aborted_migrations
        + s.transient_copy_faults
        + s.poisoned_copy_faults
        + shard.sys.migration_in_flight_count() as u64;
    if s.begun_migrations != accounted {
        return Some(Violation {
            invariant: "tenant-slot-flow",
            detail: format!(
                "tenant {}: begun {} != completed {} + aborted {} + transient {} \
                 + poisoned {} + in_flight {}",
                shard.id,
                s.begun_migrations,
                s.completed_migrations,
                s.aborted_migrations,
                s.transient_copy_faults,
                s.poisoned_copy_faults,
                shard.sys.migration_in_flight_count(),
            ),
        });
    }
    None
}

/// N-version admission oracle: replays one barrier's decision through the
/// chrono-race model's independently implemented
/// [`tiering_analysis::canonical_grants`] (closed-form round-robin, u128
/// arithmetic — deliberately structured nothing like the shipped
/// `admission_grants`) and flags any disagreement with what the runner
/// actually applied.
fn check_admission_audit(audit: &BarrierAudit, tenants: usize, out: &mut Vec<Violation>) {
    let claims: Vec<RaceClaim> = audit
        .claims
        .iter()
        .map(|c| RaceClaim {
            weight: c.weight,
            starvation: c.starvation,
        })
        .collect();
    let canonical = canonical_grants(audit.total_slots, &claims);
    let mut expected = vec![0u64; tenants];
    for (k, &id) in audit.active.iter().enumerate() {
        expected[id as usize] = canonical[k];
    }
    if audit.grants != expected {
        out.push(Violation {
            invariant: "admission-grants-canonical",
            detail: format!(
                "barrier {}: applied grants {:?} != canonical {:?} \
                 (active {:?}, {} slots)",
                audit.barrier, audit.grants, expected, audit.active, audit.total_slots
            ),
        });
    }
}

/// Cross-shard invariants over the post-run shards: global frame
/// conservation against the partition plan and PFN exclusivity.
fn check_cross_shard(shards: &[TenantShard], plan: &PartitionPlan, out: &mut Vec<Violation>) {
    if !plan.covers_exactly() {
        out.push(Violation {
            invariant: "pfn-exclusivity-across-tenants",
            detail: "partition plan is not contiguous/disjoint/exhaustive".to_string(),
        });
    }
    let mut fast_sum = 0u64;
    let mut slow_sum = 0u64;
    for s in shards {
        let part = plan.part(s.id as usize);
        // Capacity per shard must still equal its partition: usable plus
        // quarantined/offlined frames (faults take frames out of service
        // but never out of the partition).
        let fast_cap = s.sys.total_frames(TierId::FAST) as u64
            + s.sys.quarantined_frames(TierId::FAST) as u64
            + s.sys.offlined_frames(TierId::FAST) as u64;
        let slow_cap = s.sys.total_frames(TierId::SLOW) as u64
            + s.sys.quarantined_frames(TierId::SLOW) as u64
            + s.sys.offlined_frames(TierId::SLOW) as u64;
        if fast_cap != part.fast_frames() as u64 || slow_cap != part.slow_frames() as u64 {
            out.push(Violation {
                invariant: "global-frame-conservation",
                detail: format!(
                    "tenant {}: capacity ({fast_cap}, {slow_cap}) drifted from partition \
                     ({}, {})",
                    s.id,
                    part.fast_frames(),
                    part.slow_frames()
                ),
            });
        }
        fast_sum += fast_cap;
        slow_sum += slow_cap;
    }
    if fast_sum != plan.total_fast() as u64 || slow_sum != plan.total_slow() as u64 {
        out.push(Violation {
            invariant: "global-frame-conservation",
            detail: format!(
                "shard capacities sum to ({fast_sum}, {slow_sum}), plan holds ({}, {})",
                plan.total_fast(),
                plan.total_slow()
            ),
        });
    }
}

/// Runs one sharded policy case: `tenants` shards of `policy` over the
/// seed-derived partitioned pool, stepped by `threads` workers, with the
/// admission hook optionally enabled (its slot pool spans the global
/// `MigrationSpec` default). Violations never panic — callers decide.
pub fn run_sharded_case(
    policy: PolicyUnderTest,
    seed: u64,
    run_millis: u64,
    tenants: usize,
    threads: usize,
    admission: bool,
) -> ShardedCaseReport {
    let slots = admission.then(|| AdmissionConfig::default().total_slots);
    run_sharded_case_with_plans(policy, seed, run_millis, tenants, threads, slots, &|_| None)
}

/// [`run_sharded_case`] with an explicit admission slot pool (`None` = hook
/// off) and a per-tenant fault-plan selector (tenant-id keyed so the same
/// plans attach regardless of thread count).
pub fn run_sharded_case_with_plans(
    policy: PolicyUnderTest,
    seed: u64,
    run_millis: u64,
    tenants: usize,
    threads: usize,
    admission_slots: Option<usize>,
    fault_plan_for: &dyn Fn(u32) -> Option<FaultPlan>,
) -> ShardedCaseReport {
    run_sharded_case_mixed(
        policy.name(),
        &|_| policy,
        seed,
        run_millis,
        tenants,
        threads,
        admission_slots,
        fault_plan_for,
    )
}

/// The fully general sharded case: a per-tenant policy selector (tenant-id
/// keyed, so assignments are stable across thread counts) instead of one
/// policy for every tenant. `label` names the mix in the report.
#[allow(clippy::too_many_arguments)]
pub fn run_sharded_case_mixed(
    label: &'static str,
    policy_for: &dyn Fn(u32) -> PolicyUnderTest,
    seed: u64,
    run_millis: u64,
    tenants: usize,
    threads: usize,
    admission_slots: Option<usize>,
    fault_plan_for: &dyn Fn(u32) -> Option<FaultPlan>,
) -> ShardedCaseReport {
    run_sharded_case_full(
        label,
        policy_for,
        seed,
        run_millis,
        tenants,
        threads,
        admission_slots,
        fault_plan_for,
        None,
        Vec::new(),
    )
}

/// [`run_sharded_case`] with the per-window shard step order permuted by a
/// seeded Fisher–Yates shuffle (`ShardedConfig::permute_seed`). Shards
/// share nothing between barriers, so every field of the report must match
/// the unpermuted run bit for bit — the dynamic face of the chrono-race
/// barrier-discipline claim the static rules and the interleaving model
/// check check structurally.
pub fn run_sharded_case_permuted(
    policy: PolicyUnderTest,
    seed: u64,
    run_millis: u64,
    tenants: usize,
    threads: usize,
    admission: bool,
    permute_seed: u64,
) -> ShardedCaseReport {
    let slots = admission.then(|| AdmissionConfig::default().total_slots);
    run_sharded_case_full(
        policy.name(),
        &|_| policy,
        seed,
        run_millis,
        tenants,
        threads,
        slots,
        &|_| None,
        Some(permute_seed),
        Vec::new(),
    )
}

/// The barrier-scheduled failure-domain arc of the tier-chaos shard cases:
/// every tenant's slow tier goes offline at 40 % of the run (evacuation
/// deadline at the halfway mark — a live drain window) and rejoins at
/// 70 %. Event times are absolute, so the arc lands on the same barriers
/// at every worker-thread count.
pub fn shard_tier_chaos_events(run_millis: u64) -> Vec<TierEvent> {
    let t = Nanos::from_millis(run_millis).as_nanos();
    vec![
        TierEvent {
            at: Nanos(t * 2 / 5),
            tier: TierId(1),
            kind: tiered_mem::TierEventKind::Offline {
                deadline: Nanos(t / 2),
            },
        },
        TierEvent {
            at: Nanos(t * 7 / 10),
            tier: TierId(1),
            kind: tiered_mem::TierEventKind::Online,
        },
    ]
}

/// The satellite determinism case of the failure-domain work: a mid-run
/// `TierOffline` (then rejoin) applied to every tenant at barriers via
/// [`tiering_policies::ShardedConfig::tier_events`], run at any worker
/// thread count. The committed chaos shard golden snapshots this
/// single-threaded; the thread-invariance suite replays it at 2 and 8
/// workers and must reproduce the table bit for bit.
pub fn run_sharded_tier_chaos_case(
    policy: PolicyUnderTest,
    seed: u64,
    run_millis: u64,
    threads: usize,
) -> ShardedCaseReport {
    run_sharded_case_full(
        policy.name(),
        &|_| policy,
        seed,
        run_millis,
        SHARD_GOLDEN_TENANTS,
        threads,
        Some(AdmissionConfig::default().total_slots),
        &|_| None,
        None,
        shard_tier_chaos_events(run_millis),
    )
}

#[allow(clippy::too_many_arguments)]
fn run_sharded_case_full(
    label: &'static str,
    policy_for: &dyn Fn(u32) -> PolicyUnderTest,
    seed: u64,
    run_millis: u64,
    tenants: usize,
    threads: usize,
    admission_slots: Option<usize>,
    fault_plan_for: &dyn Fn(u32) -> Option<FaultPlan>,
    permute_seed: Option<u64>,
    tier_events: Vec<TierEvent>,
) -> ShardedCaseReport {
    const MAX_KEPT: usize = 8;
    let (shards, plan) = build_shards(policy_for, seed, tenants, run_millis, fault_plan_for);
    let mut cfg = ShardedConfig::new(Nanos::from_millis(run_millis));
    cfg.barrier_interval = Nanos::from_millis(SCAN_PERIOD_MS);
    cfg.threads = threads;
    cfg.permute_seed = permute_seed;
    cfg.tier_events = tier_events;
    cfg.admission = AdmissionConfig {
        enabled: admission_slots.is_some(),
        total_slots: admission_slots.unwrap_or_else(|| AdmissionConfig::default().total_slots),
    };
    let sim = ShardedSim::new(cfg, shards);

    // Per-shard oracle sweep at every barrier (the hook runs on the main
    // thread in tenant-id order, so `violations` needs no synchronisation),
    // plus the barrier-time admission audits for the post-run replay
    // through the canonical-grants oracle.
    let mut oracle = InvariantOracle::new();
    let mut violations: Vec<Violation> = Vec::new();
    let mut audits: Vec<BarrierAudit> = Vec::new();
    let result = sim.run_with_audit(
        |shard| {
            if violations.len() < MAX_KEPT {
                violations.extend(oracle.check(&shard.sys));
                if let Some(v) = check_slot_flow(shard) {
                    violations.push(v);
                }
                violations.truncate(MAX_KEPT);
            }
        },
        |audit| audits.push(audit.clone()),
    );

    for audit in &audits {
        if violations.len() < MAX_KEPT {
            check_admission_audit(audit, tenants, &mut violations);
        }
    }
    check_cross_shard(&result.shards, &plan, &mut violations);
    for s in &result.shards {
        if let Some(v) = check_slot_flow(s) {
            violations.push(v);
        }
    }
    violations.truncate(MAX_KEPT);

    let backpressure_rejects = result
        .shards
        .iter()
        .map(|s| s.sys.stats.failed_fast_migrations[3])
        .sum();
    ShardedCaseReport {
        policy: label,
        seed,
        tenants,
        threads,
        combined_digest: result.combined_digest(),
        tenant_digests: result.outcomes.iter().map(|o| o.digest).collect(),
        accesses: result.total_accesses(),
        backpressure_rejects,
        granted_slots: result.outcomes.iter().map(|o| o.granted_slots).collect(),
        slot_gini: result.slot_share_gini(),
        fmar_spread: result.fmar_spread(),
        tier_health_transitions: result
            .shards
            .iter()
            .map(|s| s.sys.stats.tier_health_transitions)
            .sum(),
        evacuated_pages: result
            .shards
            .iter()
            .map(|s| s.sys.stats.evacuated_pages)
            .sum(),
        violations,
    }
}

/// One tenant-storm fuzz case: 4–8 tenants with mixed policies (rotated
/// through [`ALL_POLICIES`] from a seed-derived offset), skewed weights, the
/// admission hook on, and a canonical fault plan (capacity shrink, copy
/// faults, degradation) attached to one seed-chosen tenant — cross-tenant
/// allocation pressure, concurrent promotion drains, and mid-barrier
/// capacity shrink in one schedule.
pub fn fuzz_one_tenant_storm(seed: u64, run_millis: u64) -> ShardedCaseReport {
    let mut rng = DetRng::split(seed, FAULT_STREAM);
    let tenants = 4 + rng.below(5) as usize; // 4..=8
    let threads = 1 + rng.below(4) as usize; // 1..=4
    let offset = rng.below(ALL_POLICIES.len() as u64) as usize;
    // At least one tenant always runs a Chrono mode: its two-phase
    // migrations hold in-flight slots across the copy window, so a tight
    // cap actually binds (baselines complete instantly and rarely queue).
    let chrono_tenant = rng.below(tenants as u64) as u32;
    let faulty_tenant = rng.below(tenants as u64) as u32;
    // A deliberately tight slot pool (right at the weighted-regime
    // boundary) so cross-tenant contention — and the admission-reject
    // path — actually gets exercised.
    let slots = 2 * tenants + rng.below(4) as usize;
    let horizon = Nanos::from_millis(run_millis);
    run_sharded_case_mixed(
        "storm-mixed",
        &move |id| {
            if id == chrono_tenant {
                PolicyUnderTest::ChronoDcsc
            } else {
                ALL_POLICIES[(offset + id as usize) % ALL_POLICIES.len()]
            }
        },
        seed,
        run_millis,
        tenants,
        threads,
        Some(slots),
        &move |id| {
            if id == faulty_tenant {
                Some(FaultPlan::canonical(seed ^ id as u64, horizon))
            } else {
                None
            }
        },
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::policy_fuzz::run_policy_case;

    #[test]
    fn single_tenant_sharded_run_reproduces_classic_digest() {
        // The compat path: one tenant, hook off ⇒ byte-identical to the
        // classic driver for a Chrono mode and a baseline.
        for p in [PolicyUnderTest::ChronoDcsc, PolicyUnderTest::Tpp] {
            let classic = run_policy_case(p, 0x5EED, 10);
            for threads in [1usize, 4] {
                let sharded = run_sharded_case(p, 0x5EED, 10, 1, threads, false);
                assert_eq!(
                    sharded.combined_digest, classic.digest,
                    "{} single-tenant sharded digest diverged from classic",
                    classic.policy
                );
                assert_eq!(sharded.accesses, classic.accesses);
                assert!(sharded.clean(), "violations: {:?}", sharded.violations);
            }
        }
    }

    #[test]
    fn multi_tenant_case_is_thread_invariant_and_clean() {
        let p = PolicyUnderTest::ChronoDcsc;
        let one = run_sharded_case(p, 0xABCD, 10, 4, 1, true);
        let eight = run_sharded_case(p, 0xABCD, 10, 4, 8, true);
        assert_eq!(one.combined_digest, eight.combined_digest);
        assert_eq!(one.tenant_digests, eight.tenant_digests);
        assert_eq!(one.granted_slots, eight.granted_slots);
        assert!(one.clean(), "violations: {:?}", one.violations);
        assert!(one.accesses > 0);
    }

    #[test]
    fn mid_run_tier_offline_is_thread_invariant_and_actually_evacuates() {
        // The failure-domain determinism satellite: the slow tier of every
        // tenant dies mid-run and rejoins, applied at barriers — 1-, 2-,
        // and 8-worker replays must produce the same tables bit for bit,
        // and the arc must genuinely fire (evacuations, health churn).
        let p = PolicyUnderTest::ChronoDcsc;
        let one = run_sharded_tier_chaos_case(p, 0xABCD, 10, 1);
        assert!(one.clean(), "violations: {:?}", one.violations);
        assert!(one.tier_health_transitions > 0, "no tier ever failed");
        assert!(one.evacuated_pages > 0, "offline window never evacuated");
        for threads in [2usize, 8] {
            let multi = run_sharded_tier_chaos_case(p, 0xABCD, 10, threads);
            assert_eq!(
                multi.combined_digest, one.combined_digest,
                "{threads}-thread chaos replay diverged"
            );
            assert_eq!(multi.tenant_digests, one.tenant_digests);
            assert_eq!(multi.granted_slots, one.granted_slots);
            assert_eq!(multi.tier_health_transitions, one.tier_health_transitions);
            assert_eq!(multi.evacuated_pages, one.evacuated_pages);
        }
        // The arc must also perturb the run relative to the fault-free case
        // — otherwise the golden snapshots nothing new.
        let clean = run_sharded_case(p, 0xABCD, 10, SHARD_GOLDEN_TENANTS, 1, true);
        assert_ne!(one.combined_digest, clean.combined_digest);
    }

    #[test]
    fn tenant_storm_case_is_deterministic_and_clean() {
        let a = fuzz_one_tenant_storm(0x5701, 10);
        let b = fuzz_one_tenant_storm(0x5701, 10);
        assert_eq!(a.combined_digest, b.combined_digest);
        assert_eq!(a.tenant_digests, b.tenant_digests);
        assert!(a.clean(), "violations: {:?}", a.violations);
    }

    #[test]
    fn admission_reject_path_fires_under_storm() {
        // Effectiveness self-test: across a handful of storm seeds the
        // backpressure-reject path must actually fire — otherwise the
        // admission hook (and the invariants above it) test nothing.
        let mut rejects = 0u64;
        for seed in 0..6u64 {
            rejects += fuzz_one_tenant_storm(0x5702 + seed, 10).backpressure_rejects;
        }
        assert!(
            rejects > 0,
            "admission hook never rejected a migration across storm seeds"
        );
    }

    #[test]
    fn permuted_step_order_reproduces_every_digest() {
        // The dynamic chrono-race property: a seeded per-window shuffle of
        // the shard step order (sequential and threaded) must leave the
        // whole report identical to the unpermuted run.
        let p = PolicyUnderTest::ChronoDcsc;
        let base = run_sharded_case(p, 0xABCD, 10, 4, 1, true);
        for permute in [0x0101u64, 0xDEAD_BEEF] {
            for threads in [1usize, 4] {
                let perm = run_sharded_case_permuted(p, 0xABCD, 10, 4, threads, true, permute);
                assert_eq!(
                    perm.combined_digest, base.combined_digest,
                    "permute {permute:#x} at {threads} threads: combined digest diverged"
                );
                assert_eq!(perm.tenant_digests, base.tenant_digests);
                assert_eq!(perm.granted_slots, base.granted_slots);
                assert!(perm.clean(), "violations: {:?}", perm.violations);
            }
        }
    }

    #[test]
    fn admission_grants_match_canonical_on_random_claims() {
        // 256-seed differential check of the two grant implementations:
        // `tiering_policies::admission_grants` (shipped) against
        // `tiering_analysis::canonical_grants` (model), over random claim
        // vectors spanning both regimes (weighted and scarce), empty claim
        // sets, zero weights, and zero slot pools.
        use tiering_policies::{admission_grants, SlotClaim};
        for seed in 0..256u64 {
            let mut rng = DetRng::split(0x6A_47, seed);
            let n = rng.below(9) as usize; // 0..=8 claimants
            let total = rng.below(33); // 0..=32 slots
            let claims: Vec<SlotClaim> = (0..n)
                .map(|_| SlotClaim {
                    weight: rng.below(9), // 0 behaves as 1
                    starvation: rng.below(6) as u32,
                })
                .collect();
            let model: Vec<RaceClaim> = claims
                .iter()
                .map(|c| RaceClaim {
                    weight: c.weight,
                    starvation: c.starvation,
                })
                .collect();
            assert_eq!(
                admission_grants(total, &claims),
                canonical_grants(total, &model),
                "seed {seed}: implementations disagree on {total} slots, {claims:?}"
            );
        }
    }

    #[test]
    fn canonical_grant_oracle_flags_a_tampered_audit() {
        // Effectiveness self-test: the N-version oracle must actually fire
        // on a decision that disagrees with the canonical computation.
        use tiering_policies::SlotClaim;
        let claims = vec![
            SlotClaim {
                weight: 2,
                starvation: 0,
            },
            SlotClaim {
                weight: 1,
                starvation: 3,
            },
        ];
        let honest = canonical_grants(
            8,
            &[
                RaceClaim {
                    weight: 2,
                    starvation: 0,
                },
                RaceClaim {
                    weight: 1,
                    starvation: 3,
                },
            ],
        );
        let mut grants = vec![0u64; 3];
        grants[0] = honest[0];
        grants[2] = honest[1];
        let mut audit = BarrierAudit {
            barrier: 7,
            first: false,
            total_slots: 8,
            active: vec![0, 2],
            claims,
            grants,
        };
        let mut out = Vec::new();
        check_admission_audit(&audit, 3, &mut out);
        assert!(out.is_empty(), "honest audit flagged: {out:?}");
        // Tamper: shift one slot between the two demanding tenants.
        audit.grants[0] += 1;
        audit.grants[2] -= 1;
        check_admission_audit(&audit, 3, &mut out);
        assert_eq!(out.len(), 1, "tampered audit not flagged");
        assert_eq!(out[0].invariant, "admission-grants-canonical");
    }

    #[test]
    fn weights_are_skewed_and_stable() {
        let a = tenant_weights(7, 16);
        let b = tenant_weights(7, 16);
        assert_eq!(a, b);
        assert!(a.iter().any(|&w| w != a[0]), "weights must be skewed");
        assert!(a.iter().all(|&w| (1..=8).contains(&w)));
    }
}
