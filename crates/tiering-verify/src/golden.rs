//! Golden-trace snapshots for canonical seeds.
//!
//! A golden is a text file recording, for one canonical seed, the trace
//! digest and access count of every policy in [`ALL_POLICIES`]. `harness
//! verify` recomputes the table and diffs it against the checked-in file; a
//! mismatch means either a real behaviour change (re-bless deliberately with
//! `harness verify --bless`) or a lost determinism guarantee (investigate).
//!
//! Goldens are compared both by the harness binary (`harness verify`, the
//! release-mode CI gate) and by the `committed_goldens_match_recomputation`
//! integration test in `tests/determinism.rs` — the simulation is pure
//! integer and IEEE-754 arithmetic, so debug and release digests agree.

use std::fmt;
use std::path::{Path, PathBuf};

use sim_clock::Nanos;
use tiered_mem::{FaultPlan, TierHealth};

use crate::policy_fuzz::{
    run_policy_case, run_policy_case_with_plan, PolicyUnderTest, ALL_POLICIES,
};
use crate::sharded::{run_sharded_case, run_sharded_tier_chaos_case, SHARD_GOLDEN_TENANTS};

/// The two canonical seeds snapshotted in the repository.
pub const GOLDEN_SEEDS: [u64; 2] = [0xC4A0_0001, 0xC4A0_0002];

/// Simulated run length for golden snapshots (milliseconds of virtual time).
pub const GOLDEN_MILLIS: u64 = 25;

/// Simulated run length for the multi-tenant shard goldens — shorter than
/// [`GOLDEN_MILLIS`] because the thread-invariance suite recomputes each
/// table at three worker-thread counts.
pub const SHARD_GOLDEN_MILLIS: u64 = 10;

/// The canonical seed for the faulty-run snapshot (both the workload shape
/// and the fault plan's RNG derive from it).
pub const FAULT_GOLDEN_SEED: u64 = 0xFA_0001;

/// Directory holding the checked-in snapshots.
pub fn golden_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("goldens")
}

/// Path of the snapshot for one seed.
pub fn golden_path(seed: u64) -> PathBuf {
    golden_dir().join(format!("seed_{seed:08x}.txt"))
}

/// Path of the faulty-run snapshot.
pub fn fault_golden_path() -> PathBuf {
    golden_dir().join(format!("fault_seed_{FAULT_GOLDEN_SEED:08x}.txt"))
}

/// Path of the multi-tenant shard snapshot for one seed.
pub fn shard_golden_path(seed: u64) -> PathBuf {
    golden_dir().join(format!("shard_seed_{seed:08x}.txt"))
}

/// Path of the three-tier snapshot for one seed.
pub fn three_tier_golden_path(seed: u64) -> PathBuf {
    golden_dir().join(format!("threetier_seed_{seed:08x}.txt"))
}

/// Path of the tier-chaos shard snapshot for one seed (multi-tenant run
/// with a mid-run `TierOffline`/rejoin arc in every tenant's fault plan).
pub fn tier_chaos_golden_path(seed: u64) -> PathBuf {
    golden_dir().join(format!("tierchaos_seed_{seed:08x}.txt"))
}

/// Recomputes the snapshot table for a seed: one `<policy> <digest-hex>
/// <accesses>` line per policy, in [`ALL_POLICIES`] order.
pub fn compute_golden(seed: u64) -> String {
    let mut out = String::new();
    out.push_str(&format!(
        "# tiering-verify golden: seed {seed:#010x}, {GOLDEN_MILLIS} ms per policy\n"
    ));
    for p in ALL_POLICIES {
        let r = run_policy_case(p, seed, GOLDEN_MILLIS);
        out.push_str(&format!(
            "{:<16} {:016x} {}\n",
            r.policy, r.digest, r.accesses
        ));
    }
    out
}

/// Recomputes the faulty-run snapshot: every Chrono tuning mode under the
/// canonical fault plan, one `<policy> <digest-hex> <accesses>` line each.
/// Same seed ⇒ byte-identical table — faulty runs are exactly as replayable
/// as clean ones.
pub fn compute_fault_golden() -> String {
    let plan = FaultPlan::canonical(FAULT_GOLDEN_SEED, Nanos::from_millis(GOLDEN_MILLIS));
    let mut out = String::new();
    out.push_str(&format!(
        "# tiering-verify faulty golden: seed {FAULT_GOLDEN_SEED:#010x}, canonical fault plan, \
         {GOLDEN_MILLIS} ms per tuning mode\n"
    ));
    for p in ALL_POLICIES.into_iter().filter(|p| p.is_chrono()) {
        let r =
            run_policy_case_with_plan(p, FAULT_GOLDEN_SEED, GOLDEN_MILLIS, 2, Some(plan.clone()));
        out.push_str(&format!(
            "{:<16} {:016x} {}\n",
            r.policy, r.digest, r.accesses
        ));
    }
    out
}

/// Recomputes the multi-tenant shard snapshot for a seed: every policy run
/// over [`SHARD_GOLDEN_TENANTS`] weighted shards with the admission hook on,
/// single-threaded (the thread-invariance suite proves 2- and 8-thread runs
/// reproduce the same table). One line per policy: `<policy> <combined>
/// <accesses> <per-tenant digests...>`.
pub fn compute_shard_golden(seed: u64) -> String {
    let mut out = String::new();
    out.push_str(&format!(
        "# tiering-verify shard golden: seed {seed:#010x}, {SHARD_GOLDEN_TENANTS} tenants, \
         admission on, {SHARD_GOLDEN_MILLIS} ms per policy\n"
    ));
    for p in ALL_POLICIES {
        let r = run_sharded_case(p, seed, SHARD_GOLDEN_MILLIS, SHARD_GOLDEN_TENANTS, 1, true);
        assert!(
            r.clean(),
            "shard golden case {p:?}/{seed:#x} broke invariants: {:?}",
            r.violations
        );
        out.push_str(&format!(
            "{:<16} {:016x} {}",
            r.policy, r.combined_digest, r.accesses
        ));
        for d in &r.tenant_digests {
            out.push_str(&format!(" {d:016x}"));
        }
        out.push('\n');
    }
    out
}

/// Recomputes the three-tier snapshot for a seed: cascaded Chrono-DCSC and
/// the hop-wise TPP generalization, run by the shared runner on the
/// DRAM+CXL+PMem chain, one `<policy>3 <digest-hex> <accesses>` line each
/// (`chrono-dcsc3`, `tpp3`). Runs are invariant-checked while they execute,
/// so a golden that drifts because the oracle now rejects the run fails
/// loudly here instead of silently re-blessing.
pub fn compute_three_tier_golden(seed: u64) -> String {
    let mut out = String::new();
    out.push_str(&format!(
        "# tiering-verify three-tier golden: seed {seed:#010x}, DRAM+CXL+PMem, \
         {GOLDEN_MILLIS} ms per policy\n"
    ));
    for p in [PolicyUnderTest::ChronoDcsc, PolicyUnderTest::Tpp] {
        let r = run_policy_case_with_plan(p, seed, GOLDEN_MILLIS, 3, None);
        assert!(
            r.clean(),
            "three-tier golden case {p:?}/{seed:#x} broke invariants: {:?}",
            r.violations
        );
        let label = format!("{}3", r.policy);
        out.push_str(&format!("{label:<16} {:016x} {}\n", r.digest, r.accesses));
    }
    out
}

/// Policies snapshotted in the tier-chaos shard golden: the three Chrono
/// tuning modes plus a representative baseline.
const TIER_CHAOS_POLICIES: [PolicyUnderTest; 4] = [
    PolicyUnderTest::Tpp,
    PolicyUnderTest::ChronoDcsc,
    PolicyUnderTest::ChronoSemiAuto,
    PolicyUnderTest::ChronoManual,
];

/// Recomputes the tier-chaos shard snapshot for a seed: the multi-tenant
/// case with every tenant's slow tier going offline mid-run (live
/// evacuation window) and rejoining, single-threaded — the thread-invariance
/// suite proves 2- and 8-worker replays reproduce the same table. One line
/// per policy: `<policy> <combined> <accesses> <per-tenant digests...>`.
/// The arc must actually fire and complete — four health transitions per
/// tenant, every slow tier back Online — or the golden pins a run whose
/// tiers never failed or never came back.
pub fn compute_tier_chaos_golden(seed: u64) -> String {
    let mut out = String::new();
    out.push_str(&format!(
        "# tiering-verify tier-chaos shard golden: seed {seed:#010x}, \
         {SHARD_GOLDEN_TENANTS} tenants, slow tier offline/rejoin mid-run, \
         {SHARD_GOLDEN_MILLIS} ms per policy\n"
    ));
    for p in TIER_CHAOS_POLICIES {
        let r = run_sharded_tier_chaos_case(p, seed, SHARD_GOLDEN_MILLIS, 1);
        assert!(
            r.clean(),
            "tier-chaos golden case {p:?}/{seed:#x} broke invariants: {:?}",
            r.violations
        );
        assert!(
            r.tier_health_transitions == 4 * SHARD_GOLDEN_TENANTS as u64
                && r.slow_tier_health.iter().all(|&h| h == TierHealth::Online),
            "tier-chaos golden case {p:?}/{seed:#x} did not complete the arc: \
             {} transitions, final health {:?}",
            r.tier_health_transitions,
            r.slow_tier_health
        );
        out.push_str(&format!(
            "{:<16} {:016x} {}",
            r.policy, r.combined_digest, r.accesses
        ));
        for d in &r.tenant_digests {
            out.push_str(&format!(" {d:016x}"));
        }
        out.push('\n');
    }
    out
}

/// Outcome of checking one seed's snapshot.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum GoldenStatus {
    /// Recorded and recomputed tables are identical.
    Match,
    /// No snapshot file exists yet (run `harness verify --bless`).
    Missing,
    /// Recorded and recomputed tables differ.
    Mismatch {
        /// Contents of the checked-in file.
        expected: String,
        /// Freshly recomputed table.
        actual: String,
    },
}

/// Result of checking one canonical seed.
#[derive(Debug, Clone)]
pub struct GoldenResult {
    /// The canonical seed.
    pub seed: u64,
    /// Snapshot file location.
    pub path: PathBuf,
    /// Comparison outcome.
    pub status: GoldenStatus,
}

impl GoldenResult {
    /// Whether this snapshot passed.
    pub fn ok(&self) -> bool {
        self.status == GoldenStatus::Match
    }
}

impl fmt::Display for GoldenResult {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match &self.status {
            GoldenStatus::Match => {
                let name = self.path.file_name().unwrap_or_default().to_string_lossy();
                write!(f, "golden {name} (seed {:#010x}): ok", self.seed)
            }
            GoldenStatus::Missing => write!(
                f,
                "golden seed {:#010x}: missing snapshot {} (run `harness verify --bless`)",
                self.seed,
                self.path.display()
            ),
            GoldenStatus::Mismatch { expected, actual } => {
                writeln!(
                    f,
                    "golden seed {:#010x}: MISMATCH against {}",
                    self.seed,
                    self.path.display()
                )?;
                for (e, a) in expected.lines().zip(actual.lines()) {
                    if e != a {
                        writeln!(f, "  - {e}")?;
                        writeln!(f, "  + {a}")?;
                    }
                }
                Ok(())
            }
        }
    }
}

fn diff_status(path: &Path, actual: String) -> GoldenStatus {
    match std::fs::read_to_string(path) {
        Err(_) => GoldenStatus::Missing,
        Ok(expected) if expected == actual => GoldenStatus::Match,
        Ok(expected) => GoldenStatus::Mismatch { expected, actual },
    }
}

/// Checks every canonical seed — clean snapshots plus the faulty-run
/// snapshot — against its checked-in file.
pub fn check_goldens() -> Vec<GoldenResult> {
    let mut results: Vec<GoldenResult> = GOLDEN_SEEDS
        .iter()
        .map(|&seed| {
            let path = golden_path(seed);
            let status = diff_status(&path, compute_golden(seed));
            GoldenResult { seed, path, status }
        })
        .collect();
    let path = fault_golden_path();
    let status = diff_status(&path, compute_fault_golden());
    results.push(GoldenResult {
        seed: FAULT_GOLDEN_SEED,
        path,
        status,
    });
    for &seed in &GOLDEN_SEEDS {
        let path = shard_golden_path(seed);
        let status = diff_status(&path, compute_shard_golden(seed));
        results.push(GoldenResult { seed, path, status });
    }
    for &seed in &GOLDEN_SEEDS {
        let path = three_tier_golden_path(seed);
        let status = diff_status(&path, compute_three_tier_golden(seed));
        results.push(GoldenResult { seed, path, status });
    }
    for &seed in &GOLDEN_SEEDS {
        let path = tier_chaos_golden_path(seed);
        let status = diff_status(&path, compute_tier_chaos_golden(seed));
        results.push(GoldenResult { seed, path, status });
    }
    results
}

/// Recomputes and writes every canonical snapshot (clean and faulty);
/// returns the paths written.
pub fn bless_goldens() -> std::io::Result<Vec<PathBuf>> {
    std::fs::create_dir_all(golden_dir())?;
    let mut written = Vec::new();
    for &seed in &GOLDEN_SEEDS {
        let path = golden_path(seed);
        std::fs::write(&path, compute_golden(seed))?;
        written.push(path);
    }
    let path = fault_golden_path();
    std::fs::write(&path, compute_fault_golden())?;
    written.push(path);
    for &seed in &GOLDEN_SEEDS {
        let path = shard_golden_path(seed);
        std::fs::write(&path, compute_shard_golden(seed))?;
        written.push(path);
    }
    for &seed in &GOLDEN_SEEDS {
        let path = three_tier_golden_path(seed);
        std::fs::write(&path, compute_three_tier_golden(seed))?;
        written.push(path);
    }
    for &seed in &GOLDEN_SEEDS {
        let path = tier_chaos_golden_path(seed);
        std::fs::write(&path, compute_tier_chaos_golden(seed))?;
        written.push(path);
    }
    Ok(written)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn golden_table_is_deterministic() {
        // One policy per call keeps this fast enough for the debug-mode
        // suite; full-table comparisons run in the release-mode harness.
        let a = run_policy_case(ALL_POLICIES[0], GOLDEN_SEEDS[0], 5);
        let b = run_policy_case(ALL_POLICIES[0], GOLDEN_SEEDS[0], 5);
        assert_eq!(a.digest, b.digest);
        assert_eq!(a.accesses, b.accesses);
    }

    #[test]
    fn golden_paths_are_stable() {
        assert!(golden_path(0xC4A0_0001)
            .to_string_lossy()
            .ends_with("goldens/seed_c4a00001.txt"));
        assert!(fault_golden_path()
            .to_string_lossy()
            .ends_with("goldens/fault_seed_00fa0001.txt"));
    }

    #[test]
    #[ignore = "writes goldens; run explicitly to (re)bless only the tier-chaos snapshots"]
    fn bless_tier_chaos_goldens_only() {
        // Narrow bless: regenerates the tier-chaos shard snapshots without
        // touching any pre-existing golden file.
        std::fs::create_dir_all(golden_dir()).unwrap();
        for &seed in &GOLDEN_SEEDS {
            std::fs::write(
                tier_chaos_golden_path(seed),
                compute_tier_chaos_golden(seed),
            )
            .unwrap();
        }
    }

    #[test]
    fn fault_golden_is_deterministic() {
        // One tuning mode, short run: byte-identical across recomputations.
        let plan = FaultPlan::canonical(FAULT_GOLDEN_SEED, Nanos::from_millis(5));
        let one = |_: ()| {
            run_policy_case_with_plan(
                crate::policy_fuzz::PolicyUnderTest::ChronoDcsc,
                FAULT_GOLDEN_SEED,
                5,
                2,
                Some(plan.clone()),
            )
        };
        let (a, b) = (one(()), one(()));
        assert_eq!(a.digest, b.digest);
        assert_eq!(a.accesses, b.accesses);
    }
}
