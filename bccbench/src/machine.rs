//! Machine facts recorded with every result: the advertised core count, the
//! CPU model, and the parallelism the machine actually delivers.

use std::hint::black_box;
use std::time::{Duration, Instant};

/// Facts about the machine a run measured on.
#[derive(Clone, Debug)]
pub struct Machine {
    /// `available_parallelism()` — what the OS advertises.
    pub nproc: usize,
    /// `model name` from `/proc/cpuinfo`.
    pub cpu_model: String,
    /// Spin-loop throughput at `nproc` threads ÷ at 1 thread. About 1.0
    /// means one effective core however many are advertised.
    pub effective_parallelism: f64,
    /// Spin-loop throughput of one thread, millions of iterations per
    /// second: the single-core speed the run saw (it drifts on shared
    /// hosts).
    pub single_thread_mips: f64,
}

impl Machine {
    /// Probes the machine (about 0.4 s).
    pub fn probe() -> Machine {
        let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
        let cpu_model = std::fs::read_to_string("/proc/cpuinfo")
            .ok()
            .and_then(|info| {
                info.lines()
                    .find_map(|l| l.strip_prefix("model name"))
                    .map(|rest| rest.trim_start_matches([' ', '\t', ':']).trim().to_string())
            })
            .unwrap_or_else(|| "unknown".into());
        let window = Duration::from_millis(200);
        let one = spin_rate(1, window);
        let all = spin_rate(nproc, window);
        Machine {
            nproc,
            cpu_model,
            effective_parallelism: all / one,
            single_thread_mips: one / 1e6,
        }
    }

    /// One JSON object with every fact.
    pub fn to_json(&self) -> String {
        format!(
            "{{\"nproc\":{},\"cpu_model\":\"{}\",\"effective_parallelism\":{:.3},\"single_thread_mips\":{:.1}}}",
            self.nproc,
            self.cpu_model.replace(['"', '\\'], "'"),
            self.effective_parallelism,
            self.single_thread_mips,
        )
    }
}

/// Spin-loop iterations per second summed over `threads` threads running
/// for `window` each.
fn spin_rate(threads: usize, window: Duration) -> f64 {
    let total: u64 = std::thread::scope(|s| {
        let handles: Vec<_> = (0..threads)
            .map(|_| {
                s.spawn(move || {
                    let start = Instant::now();
                    let mut iters = 0u64;
                    let mut x = 0x2545_F491_4F6C_DD1Du64;
                    while start.elapsed() < window {
                        for _ in 0..4096 {
                            x ^= x << 13;
                            x ^= x >> 7;
                            x ^= x << 17;
                        }
                        iters += 4096;
                    }
                    black_box(x);
                    iters
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("spin thread panicked"))
            .sum()
    });
    total as f64 / window.as_secs_f64()
}
