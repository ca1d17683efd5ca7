//! Differential determinism regression: every policy, run twice on the same
//! seed, must produce byte-identical trace digests. Any nondeterminism in
//! the substrate, the workload generators, or a policy's internal state
//! (hash-map iteration order, wall-clock leakage, uninitialized reads)
//! changes the digest and fails here with the offending policy named.

use chrono_repro::sim_clock::Nanos;
use chrono_repro::tiered_mem::FaultPlan;
use chrono_repro::tiering_verify::{
    determinism_digests, golden, run_policy_case, run_policy_case_with_plan, run_sharded_case,
    run_sharded_case_permuted, run_sharded_case_with_plans, PolicyUnderTest, ALL_POLICIES,
    SHARD_GOLDEN_TENANTS,
};

/// Parses one golden table line: `<policy> <digest-hex> <accesses> [tenant
/// digests...]`.
fn parse_golden_line(line: &str) -> (&str, u64, u64, Vec<u64>) {
    let mut f = line.split_whitespace();
    let name = f.next().expect("policy name");
    let digest = u64::from_str_radix(f.next().expect("digest"), 16).expect("digest hex");
    let accesses: u64 = f.next().expect("accesses").parse().expect("accesses int");
    let tenants = f
        .map(|d| u64::from_str_radix(d, 16).expect("tenant digest hex"))
        .collect();
    (name, digest, accesses, tenants)
}

const SEED: u64 = 0xD7_0001;
const RUN_MILLIS: u64 = 10;

#[test]
fn every_policy_is_deterministic() {
    for p in ALL_POLICIES {
        let (a, b) = determinism_digests(p, SEED, RUN_MILLIS);
        assert_eq!(
            a,
            b,
            "{}: same seed produced different trace digests ({a:016x} vs {b:016x})",
            p.name()
        );
    }
}

/// Digest-stability regression: every committed golden — all policies on
/// both canonical seeds, plus the faulty-run golden — must match a fresh
/// recomputation byte for byte. This is the explicit proof that hot-path
/// refactors (flat tables, batched scans, memoised deadlines) change no
/// observable behaviour: any drift fails here with the diverging lines
/// printed, and fixing it by re-blessing is a deliberate, reviewed act.
#[test]
fn committed_goldens_match_recomputation() {
    for result in golden::check_goldens() {
        assert!(
            result.ok(),
            "golden digest drifted — the change is not behaviour-neutral:\n{result}"
        );
    }
}

/// Compat pin: a single-tenant run through the sharded barrier runner (hook
/// off) reproduces the committed classic goldens byte for byte, for every
/// policy on both canonical seeds. One shard always steps sequentially, so
/// the worker-thread count is irrelevant here by construction — we run at
/// `threads = 2` to prove the parameter really is inert; the multi-tenant
/// suite below is where thread counts genuinely fan out.
#[test]
fn sharded_compat_reproduces_committed_goldens() {
    for &seed in &golden::GOLDEN_SEEDS {
        let table = std::fs::read_to_string(golden::golden_path(seed))
            .expect("committed golden missing — run `harness verify --bless`");
        for (i, line) in table.lines().filter(|l| !l.starts_with('#')).enumerate() {
            let (name, digest, accesses, _) = parse_golden_line(line);
            let p = ALL_POLICIES[i];
            assert_eq!(p.name(), name, "golden table order drifted");
            let r = run_sharded_case(p, seed, golden::GOLDEN_MILLIS, 1, 2, false);
            assert_eq!(
                r.combined_digest, digest,
                "{name}/{seed:#x}: sharded compat digest diverged from committed golden"
            );
            assert_eq!(
                r.accesses, accesses,
                "{name}/{seed:#x}: access count diverged"
            );
            assert!(r.clean(), "{name}/{seed:#x}: violations {:?}", r.violations);
        }
    }
}

/// Thread-invariance pin: for both canonical seeds and all 10 policies, the
/// 3-tenant shard golden (admission hook on) is reproduced byte for byte at
/// 1, 2, and 8 worker threads — combined digest, per-tenant digests, and
/// access counts. Any cross-shard effect applied off-barrier or out of
/// tenant-id order diverges here with the policy and thread count named.
#[test]
fn shard_goldens_are_thread_invariant() {
    for &seed in &golden::GOLDEN_SEEDS {
        let table = std::fs::read_to_string(golden::shard_golden_path(seed))
            .expect("committed shard golden missing — run `harness verify --bless`");
        for (i, line) in table.lines().filter(|l| !l.starts_with('#')).enumerate() {
            let (name, digest, accesses, tenant_digests) = parse_golden_line(line);
            let p = ALL_POLICIES[i];
            assert_eq!(p.name(), name, "shard golden table order drifted");
            for threads in [1usize, 2, 8] {
                let r = run_sharded_case(
                    p,
                    seed,
                    golden::SHARD_GOLDEN_MILLIS,
                    SHARD_GOLDEN_TENANTS,
                    threads,
                    true,
                );
                assert_eq!(
                    r.combined_digest, digest,
                    "{name}/{seed:#x} at {threads} threads: combined digest diverged"
                );
                assert_eq!(
                    r.tenant_digests, tenant_digests,
                    "{name}/{seed:#x} at {threads} threads: per-tenant digests diverged"
                );
                assert_eq!(r.accesses, accesses);
                assert!(r.clean(), "{name}/{seed:#x}: violations {:?}", r.violations);
            }
        }
    }
}

/// Dynamic chrono-race property: randomly permuting the shard step order
/// inside every barrier window (seeded Fisher–Yates over
/// `DetRng::split(permute_seed, barrier)`) must reproduce the committed
/// shard goldens byte for byte — shards share nothing between barriers, so
/// no step order can be observable. This is the runtime face of the claim
/// the chrono-race interleaving model proves exhaustively at small scope;
/// a shard mutating cross-shard state off-barrier diverges here with the
/// policy and permute seed named.
#[test]
fn shard_goldens_survive_permuted_step_order() {
    for &seed in &golden::GOLDEN_SEEDS {
        let table = std::fs::read_to_string(golden::shard_golden_path(seed))
            .expect("committed shard golden missing — run `harness verify --bless`");
        for (i, line) in table.lines().filter(|l| !l.starts_with('#')).enumerate() {
            let (name, digest, accesses, tenant_digests) = parse_golden_line(line);
            let p = ALL_POLICIES[i];
            assert_eq!(p.name(), name, "shard golden table order drifted");
            for (permute, threads) in [(0x9E_0001u64, 1usize), (0x9E_0002, 2)] {
                let r = run_sharded_case_permuted(
                    p,
                    seed,
                    golden::SHARD_GOLDEN_MILLIS,
                    SHARD_GOLDEN_TENANTS,
                    threads,
                    true,
                    permute,
                );
                assert_eq!(
                    r.combined_digest, digest,
                    "{name}/{seed:#x} permuted by {permute:#x} at {threads} threads: \
                     combined digest diverged"
                );
                assert_eq!(
                    r.tenant_digests, tenant_digests,
                    "{name}/{seed:#x} permuted by {permute:#x}: per-tenant digests diverged"
                );
                assert_eq!(r.accesses, accesses);
                assert!(r.clean(), "{name}/{seed:#x}: violations {:?}", r.violations);
            }
        }
    }
}

/// Three-tier golden pin: cascaded Chrono-DCSC and TPP-3 on the
/// DRAM+CXL+PMem chain reproduce the committed snapshot byte for byte, for
/// both canonical seeds. Any change to the cascade's routing, the per-edge
/// migration engine, or the chain's cost model diverges here with the
/// policy named.
#[test]
fn three_tier_goldens_match_recomputation() {
    for &seed in &golden::GOLDEN_SEEDS {
        let table = std::fs::read_to_string(golden::three_tier_golden_path(seed))
            .expect("committed three-tier golden missing — run `harness verify --bless`");
        for line in table.lines().filter(|l| !l.starts_with('#')) {
            let (name, digest, accesses, _) = parse_golden_line(line);
            // Rows are labelled `<policy>3`.
            let p = ALL_POLICIES
                .into_iter()
                .find(|p| name.strip_suffix('3') == Some(p.name()))
                .unwrap_or_else(|| panic!("three-tier golden names unknown policy {name}"));
            let r = run_policy_case_with_plan(p, seed, golden::GOLDEN_MILLIS, 3, None);
            assert_eq!(
                r.digest, digest,
                "{name}/{seed:#x}: three-tier digest diverged from committed golden"
            );
            assert_eq!(
                r.accesses, accesses,
                "{name}/{seed:#x}: access count diverged"
            );
            assert!(r.clean(), "{name}/{seed:#x}: violations {:?}", r.violations);
        }
    }
}

/// Faulty-plan multi-tenant replay: a canonical fault plan pinned to one
/// tenant replays byte-identically across runs and across worker-thread
/// counts — fault injection stays deterministic under sharded parallelism.
#[test]
fn faulty_multi_tenant_replay_is_thread_invariant() {
    let horizon = Nanos::from_millis(RUN_MILLIS);
    let plan_for =
        move |id: u32| (id == 1).then(|| FaultPlan::canonical(0xFA_0002 ^ id as u64, horizon));
    let run = |threads: usize| {
        run_sharded_case_with_plans(
            PolicyUnderTest::ChronoDcsc,
            0xFA_0002,
            RUN_MILLIS,
            4,
            threads,
            Some(32),
            &plan_for,
        )
    };
    let (one, eight, replay) = (run(1), run(8), run(8));
    assert_eq!(one.combined_digest, eight.combined_digest);
    assert_eq!(one.tenant_digests, eight.tenant_digests);
    assert_eq!(eight.combined_digest, replay.combined_digest);
    assert_eq!(eight.granted_slots, replay.granted_slots);
    assert!(one.clean(), "violations: {:?}", one.violations);
}

#[test]
fn digests_depend_on_the_seed() {
    // Guard against a degenerate digest (e.g. hashing nothing): different
    // seeds must diverge for at least the trace-rich policies.
    for p in ALL_POLICIES {
        let a = run_policy_case(p, 0xA11CE, RUN_MILLIS);
        let b = run_policy_case(p, 0xB0B, RUN_MILLIS);
        assert_ne!(
            a.digest,
            b.digest,
            "{}: different seeds collided — digest is not capturing the run",
            p.name()
        );
    }
}
