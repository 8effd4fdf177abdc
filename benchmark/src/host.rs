//! What the machine looked like while a number was taken: committed
//! results carry the CPU model and its parallelism beside them, and every
//! traced run times a fixed scalar loop so a slow host shows as such.

use std::time::Instant;

use serde_json::Value;

/// First `model name` line of `/proc/cpuinfo`, or `"unknown"`.
pub fn cpu_model() -> String {
    std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split(':').nth(1))
                .map(|m| m.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".to_string())
}

/// Peak resident set of this process (`VmHWM`), MiB; 0 where `/proc` has
/// no such line.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Start a new peak for [`peak_rss_mb`] at the current resident set, so
/// that the peak of one operation can be read after it. False where the
/// kernel does not offer that (`/proc/self/clear_refs`), in which case the
/// peak stays the whole process's.
pub fn reset_peak_rss() -> bool {
    std::fs::write("/proc/self/clear_refs", "5").is_ok()
}

/// Give the allocator's free memory back to the kernel, so that the next
/// operation's peak does not depend on what earlier ones left behind.
/// Nothing to do where the C library has no `malloc_trim`.
pub fn trim_heap() {
    #[cfg(all(target_os = "linux", target_env = "gnu"))]
    {
        extern "C" {
            fn malloc_trim(pad: usize) -> i32;
        }
        // SAFETY: `malloc_trim` may be called at any time from any thread;
        // it only releases memory the allocator holds free.
        unsafe { malloc_trim(0) };
    }
}

/// `(steal, total)` jiffies summed over all CPUs since boot.
fn cpu_jiffies() -> Option<(u64, u64)> {
    let stat = std::fs::read_to_string("/proc/stat").ok()?;
    let fields: Vec<u64> = stat
        .lines()
        .next()?
        .split_whitespace()
        .skip(1)
        .filter_map(|f| f.parse().ok())
        .collect();
    // user nice system idle iowait irq softirq steal ...
    Some((*fields.get(7)?, fields.iter().take(8).sum()))
}

/// Share of CPU time the hypervisor gave to someone else between `new` and
/// [`StealMeter::pct`].
pub struct StealMeter(Option<(u64, u64)>);

impl StealMeter {
    /// Start measuring now.
    pub fn new() -> Self {
        StealMeter(cpu_jiffies())
    }

    /// Percent of all CPU time stolen since `new`; 0 when `/proc/stat` has
    /// no steal column.
    pub fn pct(&self) -> f64 {
        match (self.0, cpu_jiffies()) {
            (Some((s0, t0)), Some((s1, t1))) if t1 > t0 => {
                100.0 * (s1 - s0) as f64 / (t1 - t0) as f64
            }
            _ => 0.0,
        }
    }
}

/// Side of the square matrices the pacing probe multiplies: three of them
/// are 192 KiB, resident in L2 as the program's packed panels are.
const PACE_N: usize = 128;
/// Products per probe: about 1.9 ms on the baseline machine when it is
/// quiet, a fortieth of a sequential training step.
const PACE_REPS: usize = 24;
/// Seconds a probe on `threads` threads takes on the baseline machine in a
/// quiet stretch (index 0: one thread, 1: two). A time is normalised to a
/// host on which the probe takes exactly this long.
pub const PACE_NOMINAL_S: [f64; 2] = [1.86e-3, 2.20e-3];
/// How much harder the program's work is hit than the probe when the host
/// slows, by thread count as [`PACE_NOMINAL_S`]: the slope of `ln(operation
/// time)` on `ln(probe time)` over runs spanning quiet and disturbed
/// stretches. Two busy threads slow as the two-thread probe does (what
/// changes is whether the two vCPUs share a core); one thread's real work
/// leans on the memory system more than the L2-resident probe and slows
/// more (fitted 1.2 to 1.7 on `seq_gemm`, `seq_attn`, `plan_cold`; see the
/// README). A wrong exponent costs steadiness, never correctness of a
/// comparison: parent and change are scaled alike.
pub const PACE_EXPONENT: [f64; 2] = [1.3, 1.0];

/// `c += a · b`, naive i-k-j order: the inner loop is a vectorisable
/// multiply-add over a row. The benchmark's own code, so no change to the
/// program can change what it costs.
#[inline(always)]
fn pace_product<const FMA: bool>(a: &[f32], b: &[f32], c: &mut [f32]) {
    const N: usize = PACE_N;
    for i in 0..N {
        for k in 0..N {
            let aik = a[i * N + k];
            let (brow, crow) = (&b[k * N..(k + 1) * N], &mut c[i * N..(i + 1) * N]);
            for j in 0..N {
                crow[j] = if FMA {
                    aik.mul_add(brow[j], crow[j])
                } else {
                    aik * brow[j] + crow[j]
                };
            }
        }
    }
}

/// [`pace_product`] compiled for the FMA units the program's kernels use.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2,fma")]
unsafe fn pace_product_fma(a: &[f32], b: &[f32], c: &mut [f32]) {
    pace_product::<true>(a, b, c);
}

#[cfg(target_arch = "x86_64")]
fn pace_once(fma: bool, a: &[f32], b: &[f32], c: &mut [f32]) {
    if fma {
        // SAFETY: `fma` is true only when the CPU reports both features.
        unsafe { pace_product_fma(a, b, c) }
    } else {
        pace_product::<false>(a, b, c)
    }
}

#[cfg(not(target_arch = "x86_64"))]
fn pace_once(_fma: bool, a: &[f32], b: &[f32], c: &mut [f32]) {
    pace_product::<false>(a, b, c)
}

/// Floats between the probe's matrices beyond their own size: 1 KiB, the
/// spacing that measured fastest (2.65 ms for 32 products against 3.0 ms
/// with the matrices back to back).
const PACE_PAD: usize = 256;
/// Floats in a page, to which the probe's operands are aligned. What
/// matters is that the layout is the same in every process: three separate
/// allocations, wherever the allocator happened to put them, changed the
/// probe's speed by a third from one process to the next.
const PAGE_FLOATS: usize = 1024;

/// One thread's operands of the pacing probe, in one allocation.
struct PaceBufs {
    buf: Vec<f32>,
    /// Floats to skip to the first page boundary.
    skip: usize,
}

impl PaceBufs {
    fn new() -> Self {
        let nn = PACE_N * PACE_N;
        let mut buf = vec![0.0f32; 3 * nn + 2 * PACE_PAD + PAGE_FLOATS];
        let misaligned = (buf.as_ptr() as usize / 4) % PAGE_FLOATS;
        let skip = (PAGE_FLOATS - misaligned) % PAGE_FLOATS;
        buf[skip..skip + nn].fill(0.5);
        buf[skip + nn + PACE_PAD..skip + 2 * nn + PACE_PAD].fill(0.25);
        PaceBufs { buf, skip }
    }

    /// The probe's work on one thread.
    fn work(&mut self, fma: bool) {
        let nn = PACE_N * PACE_N;
        let (a, rest) = self.buf[self.skip..].split_at_mut(nn + PACE_PAD);
        let (b, rest) = rest.split_at_mut(nn + PACE_PAD);
        let (a, b, c) = (&a[..nn], &b[..nn], &mut rest[..nn]);
        c.fill(0.0);
        for _ in 0..PACE_REPS {
            pace_once(fma, a, b, c);
            std::hint::black_box(&mut *c);
        }
    }
}

/// Whether the probe may use AVX2 and FMA.
fn pace_fma() -> bool {
    #[cfg(target_arch = "x86_64")]
    {
        std::arch::is_x86_feature_detected!("avx2") && std::arch::is_x86_feature_detected!("fma")
    }
    #[cfg(not(target_arch = "x86_64"))]
    {
        false
    }
}

/// The pacing probe: a fixed amount of multiply-add work of the
/// benchmark's own, on as many threads at once as the workload keeps busy.
/// Its work never changes, so its time is the host's speed.
pub struct Pacer {
    fma: bool,
    bufs: Vec<PaceBufs>,
}

impl Pacer {
    /// A probe on `threads` threads, run once untimed (page faults).
    pub fn new(threads: usize) -> Self {
        let mut pacer = Pacer {
            fma: pace_fma(),
            bufs: (0..threads.max(1)).map(|_| PaceBufs::new()).collect(),
        };
        pacer.probe();
        pacer
    }

    /// Run the probe; seconds until its last thread is done.
    pub fn probe(&mut self) -> f64 {
        let fma = self.fma;
        let start = Instant::now();
        if let [one] = self.bufs.as_mut_slice() {
            one.work(fma);
        } else {
            std::thread::scope(|s| {
                for bufs in &mut self.bufs {
                    s.spawn(move || bufs.work(fma));
                }
            });
        }
        start.elapsed().as_secs_f64()
    }

    /// Seconds a probe takes on the baseline machine in a quiet stretch.
    pub fn nominal_s(&self) -> f64 {
        PACE_NOMINAL_S[self.bufs.len().min(2) - 1]
    }

    /// By how much an operation slows when this probe takes `probe_s`.
    pub fn host_factor(&self, probe_s: f64) -> f64 {
        (probe_s / self.nominal_s()).powf(PACE_EXPONENT[self.bufs.len().min(2) - 1])
    }
}

/// Times operations with a pacing probe between them, so that each time
/// can be normalised by how fast the host was around it.
pub struct Paced {
    pacer: Pacer,
    /// A probe is skipped while less than this much operation time has
    /// passed since the last one (0: probe after every operation).
    min_gap_s: f64,
    since_probe_s: f64,
    probes: Vec<f64>,
    /// Seconds of each operation and the probe that preceded it.
    ops: Vec<(f64, usize)>,
}

impl Paced {
    /// Start pacing a workload that keeps `threads` threads busy: one
    /// untimed probe (page faults, feature detection), then the first.
    pub fn new(threads: usize, min_gap_s: f64) -> Self {
        let mut pacer = Pacer::new(threads);
        let first = pacer.probe();
        Paced {
            pacer,
            min_gap_s,
            since_probe_s: 0.0,
            probes: vec![first],
            ops: Vec::new(),
        }
    }

    /// Run and time `f`, then probe the host.
    pub fn time<T>(&mut self, f: impl FnOnce() -> T) -> T {
        let start = Instant::now();
        let out = f();
        let elapsed = start.elapsed().as_secs_f64();
        self.ops.push((elapsed, self.probes.len() - 1));
        self.since_probe_s += elapsed;
        if self.since_probe_s >= self.min_gap_s {
            self.probes.push(self.pacer.probe());
            self.since_probe_s = 0.0;
        }
        out
    }

    /// Whether nothing has been timed yet.
    pub fn is_empty(&self) -> bool {
        self.ops.is_empty()
    }

    /// Seconds of each operation as measured.
    pub fn raw(&self) -> Vec<f64> {
        self.ops.iter().map(|&(s, _)| s).collect()
    }

    /// The probe's seconds around each operation.
    fn pace(&self) -> Vec<f64> {
        let before: Vec<usize> = self.ops.iter().map(|&(_, p)| p).collect();
        crate::stats::local_pace(&before, &self.probes)
    }

    /// Seconds of each operation on a host at nominal speed.
    pub fn normalised(&self) -> Vec<f64> {
        self.pace()
            .into_iter()
            .zip(self.raw())
            .map(|(pace, raw)| raw / self.pacer.host_factor(pace))
            .collect()
    }

    /// `[seconds as measured, the probe's seconds around it, seconds
    /// normalised]` of each operation, for `--series-out`.
    pub fn series(&self) -> Vec<[f64; 3]> {
        let (raw, pace, normalised) = (self.raw(), self.pace(), self.normalised());
        (0..raw.len())
            .map(|i| [raw[i], pace[i], normalised[i]])
            .collect()
    }

    /// What the host did to this run, in one line.
    pub fn note(&self) -> String {
        let nominal = self.pacer.nominal_s();
        let probe = crate::stats::median(&self.probes);
        format!(
            "times are normalised to the nominal host: the {}-thread pacing probe read {:.3} ms \
             (median of {}) against {:.3} nominal, a host factor of {:.3}",
            self.pacer.bufs.len(),
            probe * 1e3,
            self.probes.len(),
            nominal * 1e3,
            self.pacer.host_factor(probe)
        )
    }
}

/// The `host.*` metrics of a traced run (all but the probe, which is timed
/// between its rounds) and the run's own peak RSS.
pub fn set_metrics(m: &mut crate::report::Metrics, steal: &StealMeter) {
    m.set(
        "host.parallelism",
        chimera::tensor::kernels::hw_parallelism() as f64,
    );
    m.set("host.steal_pct", steal.pct());
    m.set("traced.peak_rss_mb", peak_rss_mb());
}

/// The host block stored beside committed results.
pub fn describe() -> Value {
    serde_json::json!({
        "cpu_model": cpu_model(),
        // What `nproc` prints: threads the machine runs at once.
        "parallelism": chimera::tensor::kernels::hw_parallelism(),
        "os": std::env::consts::OS,
        "arch": std::env::consts::ARCH,
    })
}
