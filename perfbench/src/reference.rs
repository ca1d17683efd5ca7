//! A fixed reference computation that measures how fast the host is right
//! now, so that host times can be scaled to a host of fixed speed.
//!
//! On a shared host, the speed of a CPU changes with what the rest of the
//! machine runs: clock rate, hyper-thread siblings and caches shared with
//! other work. The same `kv_failover3` runs went 2x faster for several
//! minutes and then back, so no number of repetitions within one
//! invocation could hide it. The reference loop is timed before every
//! run throughout an invocation; a change in host speed moves it and the
//! simulator alike. The loop does the kind of work the simulator's access
//! path does (generator arithmetic, a data-dependent branch, and a
//! read-modify-write at a random slot of a table) and shares no code with
//! the simulator, so a change to the simulator leaves it alone. It runs on
//! as many threads at once as the workload does, so that it meets the same
//! CPUs, and the same contention between them, as the workload.

use std::hint::black_box;

use crate::report::thread_cpu_time;

/// Table slots as a power of two: 1 MiB of `u64` per thread.
const SLOT_BITS: u32 = 17;
/// Steps in one timing, about 10 ms of CPU time.
const STEPS: u64 = 1 << 21;
/// Steps in the untimed pass before it, which brings the table back into
/// the caches the simulator just used.
const WARM_STEPS: u64 = STEPS / 4;
/// CPU time of one step on the nominal host: about what a 2-CPU KVM VM on
/// a 2.1 GHz Xeon gave in its usual phase.
const NOMINAL_STEP_S: f64 = 5e-9;

/// The reference loop, one lane per thread.
pub struct Reference {
    lanes: Vec<Lane>,
}

/// One thread's table and generator state.
struct Lane {
    table: Vec<u64>,
    state: u64,
}

impl Reference {
    /// Allocates and fills one table per thread.
    pub fn new(threads: usize) -> Reference {
        Reference {
            lanes: (0..threads.max(1) as u64)
                .map(|t| Lane {
                    table: (0..1u64 << SLOT_BITS)
                        .map(|i| i.wrapping_mul(0x9E37_79B9_7F4A_7C15))
                        .collect(),
                    state: 0x2545_F491_4F6C_DD1D ^ t,
                })
                .collect(),
        }
    }

    /// This host's speed relative to the nominal one, above 1 when it is
    /// faster right now.
    pub fn speed(&mut self) -> f64 {
        let cpu_s: f64 = match self.lanes.as_mut_slice() {
            // The calling thread is the one a single-threaded workload runs on.
            [lane] => lane.timed_pass(),
            lanes => Self::parallel(lanes),
        };
        let step_s = cpu_s / (STEPS * self.lanes.len() as u64) as f64;
        NOMINAL_STEP_S / step_s
    }

    /// Times every lane at once, one thread each; returns the summed CPU
    /// seconds.
    fn parallel(lanes: &mut [Lane]) -> f64 {
        std::thread::scope(|scope| {
            let timings: Vec<_> = lanes
                .iter_mut()
                .map(|lane| scope.spawn(|| lane.timed_pass()))
                .collect();
            timings
                .into_iter()
                .map(|t| t.join().expect("reference lane panicked"))
                .sum()
        })
    }
}

impl Lane {
    /// A warm-up pass, then a timed one; returns the timed pass's CPU
    /// seconds.
    fn timed_pass(&mut self) -> f64 {
        self.pass(WARM_STEPS);
        let start = thread_cpu_time();
        self.pass(STEPS);
        (thread_cpu_time() - start).as_secs_f64()
    }

    /// Runs `steps` steps of the loop.
    fn pass(&mut self, steps: u64) {
        let mut x = self.state;
        let mut sum = 0u64;
        for _ in 0..steps {
            // xorshift64*
            x ^= x >> 12;
            x ^= x << 25;
            x ^= x >> 27;
            let r = x.wrapping_mul(0x2545_F491_4F6C_DD1D);
            let slot = &mut self.table[(r >> (64 - SLOT_BITS)) as usize];
            let v = *slot;
            *slot = if v & 1 == 0 {
                v.wrapping_add(r)
            } else {
                v ^ (r >> 7)
            };
            sum = sum.wrapping_add(v >> 3);
        }
        self.state = black_box(x ^ sum);
    }
}
