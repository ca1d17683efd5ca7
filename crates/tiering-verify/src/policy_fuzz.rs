//! Policy-level fuzzing: every tiering policy driven over seeded workloads
//! with the invariant oracle attached to the driver's inspect hook, plus the
//! differential determinism check (same seed ⇒ byte-identical trace digest).

use chrono_core::{CascadeChrono, ChronoConfig};
use sim_clock::Nanos;
use tiered_mem::{FaultPlan, PageSize, SystemConfig, TieredSystem};
use tiering_policies::{
    autotiering::AutoTieringConfig, linux_nb::LinuxNbConfig, multiclock::MultiClockConfig,
    tpp::TppConfig, AutoTiering, DriverConfig, FlexMem, FlexMemConfig, LinuxNumaBalancing, Memtis,
    MemtisConfig, MultiClock, NullPolicy, SimulationDriver, Telescope, TelescopeConfig,
    TieringPolicy, Tpp,
};
use workloads::{PmbenchConfig, PmbenchWorkload, Workload};

use crate::oracle::{InvariantOracle, Violation};

/// The policy catalogue: the paper's baselines, the two related-work
/// policies, and the Chrono tuning modes and Fig 13 ablations. The fuzz
/// roster ([`ALL_POLICIES`]) is a subset; `Static`, `ChronoBasic` and
/// `ChronoThrice` serve only the harness experiments.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PolicyUnderTest {
    /// First-touch placement, no migration (control).
    Static,
    /// Linux NUMA balancing in tiering mode.
    LinuxNb,
    /// Auto-Tiering (LAP vectors).
    AutoTiering,
    /// Multi-Clock.
    MultiClock,
    /// TPP.
    Tpp,
    /// Memtis (PEBS + histogram, huge-page splitting).
    Memtis,
    /// FlexMem (PEBS + timeliness hint faults).
    FlexMem,
    /// Telescope (tree-structured region profiling).
    Telescope,
    /// Chrono with full DCSC tuning.
    ChronoDcsc,
    /// Chrono with semi-automatic tuning (fixed rate limit).
    ChronoSemiAuto,
    /// Chrono with a fully manual threshold and rate limit.
    ChronoManual,
    /// One-round filtering, semi-auto tuning (Fig 13 "Chrono-basic").
    ChronoBasic,
    /// Three-round filtering, semi-auto tuning (Fig 13 "Chrono-thrice").
    ChronoThrice,
}

/// All fuzzed policies, in a stable order (reports and goldens rely on it).
pub const ALL_POLICIES: [PolicyUnderTest; 10] = [
    PolicyUnderTest::LinuxNb,
    PolicyUnderTest::AutoTiering,
    PolicyUnderTest::MultiClock,
    PolicyUnderTest::Tpp,
    PolicyUnderTest::Memtis,
    PolicyUnderTest::FlexMem,
    PolicyUnderTest::Telescope,
    PolicyUnderTest::ChronoDcsc,
    PolicyUnderTest::ChronoSemiAuto,
    PolicyUnderTest::ChronoManual,
];

/// Memtis PEBS sample period (accesses per sample) of the fuzz-scale runs
/// and of `harness run` fleets, which reuse the fuzz-scale tenants.
pub const FUZZ_MEMTIS_SAMPLE_PERIOD: u64 = 512;

impl PolicyUnderTest {
    /// Stable display name.
    pub fn name(&self) -> &'static str {
        match self {
            PolicyUnderTest::Static => "static",
            PolicyUnderTest::LinuxNb => "linux-nb",
            PolicyUnderTest::AutoTiering => "autotiering",
            PolicyUnderTest::MultiClock => "multiclock",
            PolicyUnderTest::Tpp => "tpp",
            PolicyUnderTest::Memtis => "memtis",
            PolicyUnderTest::FlexMem => "flexmem",
            PolicyUnderTest::Telescope => "telescope",
            PolicyUnderTest::ChronoDcsc => "chrono-dcsc",
            PolicyUnderTest::ChronoSemiAuto => "chrono-semiauto",
            PolicyUnderTest::ChronoManual => "chrono-manual",
            PolicyUnderTest::ChronoBasic => "chrono-basic",
            PolicyUnderTest::ChronoThrice => "chrono-thrice",
        }
    }

    /// Builds the policy with scan period `scan_period`, `step` pages per
    /// scan chunk, and Memtis taking one sample per `memtis_sample_period`
    /// accesses ([`FUZZ_MEMTIS_SAMPLE_PERIOD`] for fuzz runs, 8192 for the
    /// harness experiments), over a chain of `tiers` managed tiers. This is
    /// the one place the policy configs are written down. Every Chrono mode comes back as a [`CascadeChrono`]
    /// with one pair per edge (a two-tier chain is one pair), held
    /// concretely so its per-pair queue and retry flows can be
    /// conservation-checked after the run; TPP and Multi-Clock come back as
    /// their hop-wise N-tier generalizations. Policies without a
    /// chain-aware variant run their classic logic against the top edge.
    pub fn build(
        &self,
        scan_period: Nanos,
        step: u32,
        tiers: usize,
        memtis_sample_period: u64,
    ) -> BuiltPolicy {
        let chrono =
            |cfg: ChronoConfig| BuiltPolicy::Chrono(Box::new(CascadeChrono::new(cfg, tiers)));
        // Denser probing than the paper's 0.003 % because the scaled
        // systems have ~10^4–10^5 pages rather than 6×10^7; the probe
        // *count per DCSC round* (a few thousand on the testbed) is the
        // quantity preserved.
        let base = || ChronoConfig {
            p_victim: 0.002,
            ..ChronoConfig::scaled(scan_period, step)
        };
        match self {
            PolicyUnderTest::Static => BuiltPolicy::Other(Box::new(NullPolicy)),
            PolicyUnderTest::LinuxNb => {
                BuiltPolicy::Other(Box::new(LinuxNumaBalancing::new(LinuxNbConfig {
                    scan_period,
                    scan_step_pages: step,
                    promote_tier_frac_per_period: 0.23,
                })))
            }
            PolicyUnderTest::AutoTiering => {
                BuiltPolicy::Other(Box::new(AutoTiering::new(AutoTieringConfig {
                    scan_period,
                    scan_step_pages: step,
                    hot_lap_bits: 2,
                    demote_interval: scan_period / 4,
                })))
            }
            PolicyUnderTest::MultiClock => BuiltPolicy::Other(Box::new(MultiClock::for_tiers(
                MultiClockConfig {
                    sweep_period: scan_period,
                    sweep_step_pages: step,
                    levels: 4,
                    promote_level: 3,
                    demote_interval: scan_period / 4,
                },
                tiers,
            ))),
            PolicyUnderTest::Tpp => BuiltPolicy::Other(Box::new(Tpp::for_tiers(
                TppConfig {
                    scan_period,
                    scan_step_pages: step,
                    demote_interval: scan_period / 4,
                },
                tiers,
            ))),
            PolicyUnderTest::Memtis => BuiltPolicy::Other(Box::new(Memtis::new(MemtisConfig {
                sample_period: memtis_sample_period,
                migrate_interval: scan_period / 10,
                cooling_interval: scan_period * 4,
                adjust_interval: scan_period / 2,
                fast_fill_ratio: 0.95,
                split_enabled: true,
                seed: 0x4D454D,
            }))),
            PolicyUnderTest::FlexMem => BuiltPolicy::Other(Box::new(FlexMem::new(FlexMemConfig {
                sample_period: 509,
                scan_period,
                scan_step_pages: step,
                migrate_interval: scan_period / 10,
                cooling_interval: scan_period * 4,
                hot_counter: 4,
                demote_interval: scan_period / 4,
                seed: 0xF1E4,
            }))),
            PolicyUnderTest::Telescope => {
                BuiltPolicy::Other(Box::new(Telescope::new(TelescopeConfig {
                    window: scan_period / 8,
                    frontier_budget: 512,
                    hot_windows: 2,
                    demote_interval: scan_period / 2,
                })))
            }
            PolicyUnderTest::ChronoDcsc => chrono(base().variant_full()),
            PolicyUnderTest::ChronoSemiAuto => chrono(base().variant_twice()),
            // The paper configures Chrono-manual with the per-minute
            // averages of the adaptive tuning results (~120 MB/s stable).
            PolicyUnderTest::ChronoManual => chrono(base().variant_manual(120 * 1024 * 1024)),
            PolicyUnderTest::ChronoBasic => chrono(base().variant_basic()),
            PolicyUnderTest::ChronoThrice => chrono(base().variant_thrice()),
        }
    }

    /// Whether this policy embeds Chrono's promotion queue (and therefore
    /// must satisfy queue-flow conservation).
    pub fn is_chrono(&self) -> bool {
        matches!(
            self,
            PolicyUnderTest::ChronoDcsc
                | PolicyUnderTest::ChronoSemiAuto
                | PolicyUnderTest::ChronoManual
                | PolicyUnderTest::ChronoBasic
                | PolicyUnderTest::ChronoThrice
        )
    }
}

/// A built policy: Chrono held concretely as its cascade (the per-pair flow
/// counters are checked after the run), everything else behind the trait
/// object.
pub enum BuiltPolicy {
    /// One of the Chrono tuning modes.
    Chrono(Box<CascadeChrono>),
    /// Any other policy.
    Other(Box<dyn TieringPolicy>),
}

impl BuiltPolicy {
    fn as_dyn(&mut self) -> &mut dyn TieringPolicy {
        match self {
            BuiltPolicy::Chrono(c) => &mut **c,
            BuiltPolicy::Other(b) => &mut **b,
        }
    }

    /// The policy as a plain trait object — the form tenant shards hold
    /// their policy instances in.
    pub fn into_dyn(self) -> Box<dyn TieringPolicy> {
        match self {
            BuiltPolicy::Chrono(c) => c,
            BuiltPolicy::Other(b) => b,
        }
    }
}

/// Outcome of one seeded policy run.
#[derive(Debug, Clone)]
pub struct PolicyRunReport {
    /// The policy that ran.
    pub policy: &'static str,
    /// The seed the workload and system shape were derived from.
    pub seed: u64,
    /// Stable digest of the recorded trace (determinism/golden checks).
    pub digest: u64,
    /// Accesses executed.
    pub accesses: u64,
    /// Oracle snapshots taken during the run.
    pub oracle_checks: u64,
    /// Tier health-state transitions the run recorded (zero on fault-free
    /// runs; the tier-chaos effectiveness self-test keys on it).
    pub tier_health_transitions: u64,
    /// Pages the emergency evacuation lane issued (zero unless a tier went
    /// offline mid-run).
    pub evacuated_pages: u64,
    /// Violations found (first few, deduplicated by invariant).
    pub violations: Vec<Violation>,
}

impl PolicyRunReport {
    /// Whether the run satisfied every invariant.
    pub fn clean(&self) -> bool {
        self.violations.is_empty()
    }
}

/// Derives the fuzz-scale system + workload shape for a seed:
/// `(total_frames, workload_pages, workload_seed)`. Shared with the sharded
/// runner so single-tenant sharded runs reproduce the classic shapes.
pub(crate) fn case_shape(seed: u64) -> (u32, u32, u64) {
    let mut rng = sim_clock::DetRng::seed(seed ^ 0x9017_CEA5_E5EE_D000);
    let total_frames = 2048u32 << rng.below(2); // 2048 or 4096
    let pages = total_frames / 2 + rng.below(total_frames as u64 / 4) as u32;
    let wl_seed = rng.next_u64();
    (total_frames, pages, wl_seed)
}

/// Runs one policy over one seeded workload on the classic two-tier shape,
/// with the oracle attached to the driver's inspect hook (checked every
/// `ORACLE_STRIDE` steps and once at the end). Returns the report; never
/// panics on violations — callers decide.
pub fn run_policy_case(policy: PolicyUnderTest, seed: u64, run_millis: u64) -> PolicyRunReport {
    run_policy_case_with_plan(policy, seed, run_millis, 2, None)
}

/// [`run_policy_case`] on a chain of `tiers` managed tiers, with an optional
/// fault plan attached to the system. Two tiers build the classic
/// quarter-fast DRAM+PMem shape; three split the same capacity into a
/// DRAM+CXL+PMem chain (1/8 : 1/4 : the rest). The faulty, three-tier and
/// tier-chaos goldens and fuzz profiles all run through here; `None`
/// reproduces the fault-free path bit for bit.
pub fn run_policy_case_with_plan(
    policy: PolicyUnderTest,
    seed: u64,
    run_millis: u64,
    tiers: usize,
    fault_plan: Option<FaultPlan>,
) -> PolicyRunReport {
    run_case(policy, seed, run_millis, tiers, fault_plan).0
}

/// [`run_policy_case_with_plan`], also handing back the system and policy
/// so tests can inspect their state after the run.
fn run_case(
    policy: PolicyUnderTest,
    seed: u64,
    run_millis: u64,
    tiers: usize,
    fault_plan: Option<FaultPlan>,
) -> (PolicyRunReport, TieredSystem, BuiltPolicy) {
    const ORACLE_STRIDE: u64 = 128;
    const MAX_KEPT: usize = 8;

    let (total_frames, pages, wl_seed) = case_shape(seed);
    let mut cfg = match tiers {
        2 => SystemConfig::quarter_fast(total_frames),
        // Same total capacity split into a chain: a small top, a mid twice
        // its size, and the remainder at the bottom.
        3 => {
            let fast = total_frames / 8;
            let mid = total_frames / 4;
            SystemConfig::three_tier(fast, mid, total_frames - fast - mid)
        }
        _ => panic!("the fuzz runner builds two- or three-tier chains, got {tiers}"),
    };
    if let Some(plan) = &fault_plan {
        if let Err(e) = plan.validate_for(tiers) {
            panic!("fault plan does not fit a {tiers}-tier chain: {e}");
        }
    }
    cfg.fault_plan = fault_plan;
    let mut sys = TieredSystem::new(cfg);
    sys.enable_tracing(1 << 12);
    let w = PmbenchWorkload::new(PmbenchConfig::paper_skewed(pages, 0.7, wl_seed));
    sys.add_process(w.address_space_pages(), PageSize::Base);
    let mut wls: Vec<Box<dyn Workload>> = vec![Box::new(w)];

    let scan_period = Nanos::from_millis(5);
    let mut built = policy.build(scan_period, 512, tiers, FUZZ_MEMTIS_SAMPLE_PERIOD);

    let mut oracle = InvariantOracle::new();
    let mut violations: Vec<Violation> = Vec::new();
    let mut steps = 0u64;
    let driver = SimulationDriver::new(DriverConfig {
        run_for: Nanos::from_millis(run_millis),
        ..Default::default()
    });
    let result = driver.run_inspected(
        &mut sys,
        &mut wls,
        built.as_dyn(),
        |_, _, _, _| {},
        |s| {
            steps += 1;
            if steps.is_multiple_of(ORACLE_STRIDE) && violations.len() < MAX_KEPT {
                violations.extend(oracle.check(s));
                violations.truncate(MAX_KEPT);
            }
        },
    );
    if violations.len() < MAX_KEPT {
        violations.extend(oracle.check(&sys));
        violations.truncate(MAX_KEPT);
    }

    // Chrono modes additionally expose per-pair promotion-queue and
    // retry-pool flow counters; check conservation on every edge.
    if let BuiltPolicy::Chrono(c) = &built {
        for f in c.queue_flows() {
            violations.extend(InvariantOracle::check_queue_flow(&f));
        }
        for f in c.retry_flows() {
            violations.extend(InvariantOracle::check_retry_flow(&f));
        }
    }

    let report = PolicyRunReport {
        policy: policy.name(),
        seed,
        digest: sys.trace.digest(),
        accesses: result.accesses,
        oracle_checks: oracle.checks,
        tier_health_transitions: sys.stats.tier_health_transitions,
        evacuated_pages: sys.stats.evacuated_pages,
        violations,
    };
    (report, sys, built)
}

/// Differential determinism check: runs the policy twice on the same seed
/// and returns the two digests (equal iff the pipeline is deterministic).
pub fn determinism_digests(policy: PolicyUnderTest, seed: u64, run_millis: u64) -> (u64, u64) {
    let a = run_policy_case(policy, seed, run_millis);
    let b = run_policy_case(policy, seed, run_millis);
    (a.digest, b.digest)
}

/// One tier-chaos fuzz case: a three-tier cascade run under a seed-chosen
/// failure-domain plan — half the seeds get the canonical arc
/// ([`FaultPlan::canonical3`]: degrade, mid-tier offline with a live
/// evacuation window, rejoin), the other half the storm
/// ([`FaultPlan::storm3`]: staggered offline/online cycles on both lower
/// tiers plus capacity wobble) — with the policy alternating between the
/// cascaded Chrono and the hop-wise TPP generalization.
pub fn fuzz_one_tier_chaos(seed: u64, run_millis: u64) -> PolicyRunReport {
    let horizon = Nanos::from_millis(run_millis);
    let plan = if seed & 1 == 0 {
        FaultPlan::canonical3(seed, horizon)
    } else {
        FaultPlan::storm3(seed, horizon)
    };
    let policies = [PolicyUnderTest::ChronoDcsc, PolicyUnderTest::Tpp];
    let policy = policies[(seed >> 1) as usize % policies.len()];
    run_policy_case_with_plan(policy, seed, run_millis, 3, Some(plan))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_policy_runs_clean_on_one_seed() {
        for p in ALL_POLICIES {
            let r = run_policy_case(p, 0x5EED, 20);
            assert!(r.accesses > 0, "{} did nothing", r.policy);
            assert!(r.oracle_checks > 0, "{} was never checked", r.policy);
            assert!(
                r.clean(),
                "{} violated invariants: {:?}",
                r.policy,
                r.violations
            );
        }
    }

    #[test]
    fn chrono_modes_run_clean_and_deterministic_under_canonical_faults() {
        let plan = FaultPlan::canonical(7, Nanos::from_millis(20));
        for p in ALL_POLICIES.into_iter().filter(|p| p.is_chrono()) {
            let a = run_policy_case_with_plan(p, 0x5EED, 20, 2, Some(plan.clone()));
            let b = run_policy_case_with_plan(p, 0x5EED, 20, 2, Some(plan.clone()));
            assert!(a.clean(), "{} violated: {:?}", a.policy, a.violations);
            assert_eq!(
                a.digest, b.digest,
                "{} faulty run nondeterministic",
                a.policy
            );
            // The plan must actually perturb the run (the capacity event
            // alone guarantees a trace divergence).
            let clean = run_policy_case(p, 0x5EED, 20);
            assert_ne!(a.digest, clean.digest, "{} plan had no effect", a.policy);
        }
    }

    #[test]
    fn three_tier_policies_run_clean_and_deterministic() {
        for p in [PolicyUnderTest::ChronoDcsc, PolicyUnderTest::Tpp] {
            let a = run_policy_case_with_plan(p, 0x5EED, 20, 3, None);
            let b = run_policy_case_with_plan(p, 0x5EED, 20, 3, None);
            assert!(a.accesses > 0, "{} did nothing", a.policy);
            assert!(a.clean(), "{} violated: {:?}", a.policy, a.violations);
            assert_eq!(a.digest, b.digest, "{} nondeterministic", a.policy);
        }
    }

    #[test]
    fn tier_chaos_cases_run_clean_deterministic_and_actually_fail_tiers() {
        // Both plan flavours (even seed: canonical3, odd seed: storm3) must
        // run invariant-clean, replay bit for bit, and genuinely exercise
        // the failure-domain machinery — a chaos profile whose tiers never
        // fail tests nothing.
        let mut transitions = 0u64;
        let mut evacuated = 0u64;
        for seed in 0x7C_0000..0x7C_0004u64 {
            let a = fuzz_one_tier_chaos(seed, 20);
            let b = fuzz_one_tier_chaos(seed, 20);
            assert!(a.accesses > 0, "{} did nothing", a.policy);
            assert!(a.clean(), "{} violated: {:?}", a.policy, a.violations);
            assert_eq!(
                a.digest, b.digest,
                "{} chaos run nondeterministic",
                a.policy
            );
            transitions += a.tier_health_transitions;
            evacuated += a.evacuated_pages;
        }
        assert!(transitions > 0, "no tier ever changed health state");
        assert!(
            evacuated > 0,
            "no evacuation lane traffic across chaos seeds"
        );
    }

    #[test]
    fn two_tier_slow_tier_offline_evacuates_and_rejoins() {
        // The two-tier sibling of the cascade's mid-tier outage test: the
        // slow tier of a DRAM+PMem chain goes offline (live evacuation
        // window) and rejoins, under the factory-built one-pair cascade.
        let run_millis = 25;
        let plan = FaultPlan {
            tier_events: crate::sharded::shard_tier_chaos_events(run_millis),
            ..FaultPlan::inert(0x5EED)
        };
        let (r, sys, built) = run_case(
            PolicyUnderTest::ChronoDcsc,
            0x5EED,
            run_millis,
            2,
            Some(plan),
        );
        assert!(r.clean(), "violations: {:?}", r.violations);
        let s = &sys.stats;
        assert!(s.tier_health_transitions > 0);
        assert!(s.evacuated_pages > 0, "no evacuation happened");
        assert_eq!(
            s.evacuated_pages,
            s.evac_rehomed_pages
                + s.evac_swapped_pages
                + s.evac_faulted_pages
                + sys.in_flight_evac_pages(),
            "evacuation flow not conserved: {s:?}"
        );
        let BuiltPolicy::Chrono(c) = built else {
            panic!("Chrono must build as a cascade");
        };
        assert_eq!(c.pairs().len(), 1);
        assert!(c.pairs()[0].breaker_trips() > 0, "pair 0 never tripped");
        assert!(
            c.suspended_pairs().iter().all(|s| !s),
            "a pair is still suspended after the rejoin"
        );
        for (i, f) in c.queue_flows().iter().enumerate() {
            assert!(f.conserved(), "pair {i} queue flow: {f:?}");
        }
        for (i, f) in c.retry_flows().iter().enumerate() {
            assert!(f.conserved(), "pair {i} retry flow: {f:?}");
        }
    }

    #[test]
    fn chrono_digest_differs_across_seeds() {
        let a = run_policy_case(PolicyUnderTest::ChronoDcsc, 1, 20);
        let b = run_policy_case(PolicyUnderTest::ChronoDcsc, 2, 20);
        assert_ne!(a.digest, b.digest, "different seeds must diverge");
    }
}
