//! Shared benchmark plumbing: seeded inputs, timing statistics, the span
//! recorder, operand census, host fingerprint and the metric table.

use redmule::{cast, stage_gemm_workspace_in, Engine, Format, FunctionalGemm, RunReport};
use redmule_fp16::vector::GemmShape;
use redmule_fp16::F16;
use std::collections::BTreeMap;
use std::time::Instant;

/// SplitMix64: the workload generator. Same seed, same inputs.
#[derive(Debug)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Rng {
        Rng(seed ^ 0x005E_ED0F_BE4C_4A11)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Uniform in `[lo, hi)`.
    pub fn uniform(&mut self, lo: f64, hi: f64) -> f64 {
        lo + (hi - lo) * self.unit()
    }

    /// Uniform integer in `[lo, hi]`.
    pub fn range(&mut self, lo: usize, hi: usize) -> usize {
        lo + (self.next_u64() % (hi - lo + 1) as u64) as usize
    }
}

/// A normal FP16 value with random sign, exponent in `[lo_exp, hi_exp]`
/// and random mantissa.
pub fn normal_f16(rng: &mut Rng, lo_exp: i32, hi_exp: i32) -> F16 {
    let e = rng.range(0, (hi_exp - lo_exp) as usize) as i32 + lo_exp;
    let sign = (rng.next_u64() & 1) as u16;
    let mant = (rng.next_u64() & 0x3FF) as u16;
    F16::from_bits(sign << 15 | ((e + 15) as u16) << 10 | mant)
}

/// A non-zero FP16 subnormal with random sign.
pub fn subnormal_f16(rng: &mut Rng) -> F16 {
    let sign = (rng.next_u64() & 1) as u16;
    let mant = (rng.next_u64() % 0x3FF) as u16 + 1;
    F16::from_bits(sign << 15 | mant)
}

/// Counts of element classes over GEMM operands.
#[derive(Debug, Clone, Copy, Default)]
pub struct Census {
    total: u64,
    subnormal: u64,
    zero: u64,
    nonfinite: u64,
}

impl Census {
    pub fn add(&mut self, v: &[F16]) {
        for e in v {
            self.total += 1;
            if e.is_subnormal() {
                self.subnormal += 1;
            } else if e.is_zero() {
                self.zero += 1;
            } else if !e.is_finite() {
                self.nonfinite += 1;
            }
        }
    }

    fn share(&self, n: u64) -> f64 {
        if self.total == 0 {
            0.0
        } else {
            n as f64 / self.total as f64
        }
    }

    pub fn subnormal_frac(&self) -> f64 {
        self.share(self.subnormal)
    }

    pub fn zero_frac(&self) -> f64 {
        self.share(self.zero)
    }

    pub fn nonfinite_frac(&self) -> f64 {
        self.share(self.nonfinite)
    }

    /// Reports the workload-property metrics and a summary line.
    pub fn report(&self, m: &mut Metrics) {
        m.set("workload.subnormal_frac", self.subnormal_frac());
        m.set("workload.zero_frac", self.zero_frac());
        m.set("workload.nonfinite_frac", self.nonfinite_frac());
        println!(
            "operands: {} elements, subnormal {:.4}, zero {:.4}, inf/nan {:.4}",
            self.total,
            self.subnormal_frac(),
            self.zero_frac(),
            self.nonfinite_frac()
        );
    }
}

pub fn median(v: &[f64]) -> f64 {
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    let n = s.len();
    if n == 0 {
        return 0.0;
    }
    if n % 2 == 1 {
        s[n / 2]
    } else {
        0.5 * (s[n / 2 - 1] + s[n / 2])
    }
}

/// Runs `f` `reps` times and returns the median wall time in seconds
/// together with the last result.
pub fn time_median<T>(reps: usize, mut f: impl FnMut() -> T) -> (f64, T) {
    let mut times = Vec::with_capacity(reps);
    let mut last = None;
    for _ in 0..reps.max(1) {
        let t = Instant::now();
        let out = std::hint::black_box(f());
        times.push(t.elapsed().as_secs_f64());
        last = Some(out);
    }
    (median(&times), last.expect("at least one repetition"))
}

/// One timed closed-loop operation.
#[derive(Debug, Clone, Copy)]
pub struct OpSample {
    pub seconds: f64,
    pub macs: u64,
    pub sim_cycles: u64,
}

/// The closed-loop latency/throughput record of one run.
#[derive(Debug, Default)]
pub struct OpLog {
    pub samples: Vec<OpSample>,
}

impl OpLog {
    pub fn push(&mut self, seconds: f64, macs: u64, sim_cycles: u64) {
        self.samples.push(OpSample {
            seconds,
            macs,
            sim_cycles,
        });
    }

    pub fn p50_ms(&self) -> f64 {
        let ms: Vec<f64> = self.samples.iter().map(|s| s.seconds * 1e3).collect();
        median(&ms)
    }

    /// The tail: the highest percentile with at least ten samples beyond
    /// it, taken in each of up to twenty windows of consecutive ops (at
    /// least 50 ops per window; one window below 100 ops), and the median
    /// over windows, so a burst of host noise moves one window only.
    /// Returns `(value_ms, percentile, samples per window, windows)`. A
    /// window of fewer than eleven samples gives its maximum.
    pub fn tail_ms(&self) -> (f64, f64, usize, usize) {
        let n = self.samples.len();
        let windows = (n / 50).clamp(1, 20);
        let mut pct = 0.0;
        let tails: Vec<f64> = (0..windows)
            .map(|w| {
                let mut v: Vec<f64> = self.samples[w * n / windows..(w + 1) * n / windows]
                    .iter()
                    .map(|s| s.seconds * 1e3)
                    .collect();
                v.sort_by(f64::total_cmp);
                let k = v.len().saturating_sub(11).min(v.len() - 1);
                pct = 100.0 * (k + 1) as f64 / v.len() as f64;
                v[k]
            })
            .collect();
        (median(&tails), pct, n / windows, windows)
    }

    /// Median over ops of one op's work per second.
    fn median_rate(&self, work: impl Fn(&OpSample) -> u64) -> f64 {
        let rates: Vec<f64> = self
            .samples
            .iter()
            .map(|s| work(s) as f64 / s.seconds)
            .collect();
        median(&rates)
    }

    pub fn mmacs_per_s(&self) -> f64 {
        self.median_rate(|s| s.macs) / 1e6
    }

    pub fn sim_mcycles_per_s(&self) -> f64 {
        self.median_rate(|s| s.sim_cycles) / 1e6
    }
}

/// In-memory span recorder for the traced run. Each span has a name
/// (`<layer>.<what>`), a start, an end, its parent and the op it belongs
/// to; the file is written once the run ends.
#[derive(Debug)]
pub struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
    op: u64,
}

#[derive(Debug)]
struct Span {
    name: &'static str,
    start_ns: u64,
    end_ns: u64,
    parent: Option<usize>,
    op: u64,
}

impl Span {
    fn dur_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }

    /// The layer a span belongs to: the name up to the first `.`.
    fn layer(&self) -> &'static str {
        self.name.split('.').next().unwrap_or(self.name)
    }
}

impl Tracer {
    pub fn new() -> Tracer {
        Tracer {
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
            op: 0,
        }
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Opens the root span of the next op.
    pub fn begin_op(&mut self) {
        self.op += 1;
        self.begin("op");
    }

    pub fn begin(&mut self, name: &'static str) {
        let span = Span {
            name,
            start_ns: self.now_ns(),
            end_ns: 0,
            parent: self.open.last().copied(),
            op: self.op,
        };
        self.open.push(self.spans.len());
        self.spans.push(span);
    }

    pub fn end(&mut self) {
        let now = self.now_ns();
        let id = self.open.pop().expect("end without begin");
        self.spans[id].end_ns = now;
    }

    /// Median over traced ops of the summed duration of spans named `name`.
    pub fn per_op_ms(&self, name: &str) -> f64 {
        let mut per_op: BTreeMap<u64, u64> = BTreeMap::new();
        for s in self.spans.iter().filter(|s| s.name == name) {
            *per_op.entry(s.op).or_default() += s.dur_ns();
        }
        let v: Vec<f64> = per_op.values().map(|&ns| ns as f64 / 1e6).collect();
        median(&v)
    }

    /// Mean per-op self time by layer (ms) and the mean op wall time (ms).
    /// Self time is a span's duration minus its direct children's.
    fn self_times(&self) -> (BTreeMap<&'static str, f64>, f64) {
        let mut child_ns = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child_ns[p] += s.dur_ns();
            }
        }
        let mut by_layer: BTreeMap<&'static str, f64> = BTreeMap::new();
        let mut op_ns = 0u64;
        let mut ops = 0u64;
        for (s, &c) in self.spans.iter().zip(&child_ns) {
            if s.parent.is_none() {
                op_ns += s.dur_ns();
                ops += 1;
            }
            *by_layer.entry(s.layer()).or_default() += (s.dur_ns() - c) as f64 / 1e6;
        }
        let ops = ops.max(1) as f64;
        by_layer.values_mut().for_each(|v| *v /= ops);
        (by_layer, op_ns as f64 / 1e6 / ops)
    }

    /// Writes every span as a JSON array (`name`, `op`, `start_ns`,
    /// `end_ns`, `parent`) to `path`.
    pub fn write(&self, path: &std::path::Path) -> std::io::Result<()> {
        use std::fmt::Write as _;
        let mut out = String::from("[\n");
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_owned(), |p| p.to_string());
            let _ = write!(
                out,
                "{{\"id\":{i},\"name\":\"{}\",\"op\":{},\"start_ns\":{},\"end_ns\":{},\"parent\":{parent}}}",
                s.name, s.op, s.start_ns, s.end_ns
            );
            out.push_str(if i + 1 < self.spans.len() {
                ",\n"
            } else {
                "\n"
            });
        }
        out.push_str("]\n");
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        std::fs::write(path, out)
    }

    /// Reports per-layer self time per op and its coverage of op wall time.
    pub fn report(&self, m: &mut Metrics) {
        let (by_layer, op_ms) = self.self_times();
        let mut covered = 0.0;
        for (layer, ms) in &by_layer {
            println!("  self time {layer:<10} {ms:>10.3} ms/op");
            if *layer != "op" {
                covered += ms;
            }
            let key = match *layer {
                "fp16" => "fp16.self_ms",
                "functional" => "functional.self_ms",
                "nn" => "nn.self_ms",
                "batch" => "batch.self_ms",
                "redmule" => "redmule.self_ms",
                "runtime" => "runtime.self_ms",
                _ => continue,
            };
            m.set(key, *ms);
        }
        let coverage = if op_ms > 0.0 { covered / op_ms } else { 0.0 };
        println!(
            "  layer self time covers {:.2}% of {op_ms:.3} ms/op",
            100.0 * coverage
        );
        m.set("trace.self_coverage", coverage);
        m.set("trace.spans", self.spans.len() as f64);
    }
}

/// Reports the tracing overhead (traced against untraced op medians) and
/// the per-layer self times, and writes the spans.
pub fn report_trace(
    cfg: &crate::Config,
    m: &mut Metrics,
    log: &OpLog,
    tracer: &Tracer,
    traced_log: &OpLog,
) -> Result<(), String> {
    println!(
        "traced op p50 {:.3} ms vs untraced {:.3} ms over {} pairs",
        traced_log.p50_ms(),
        log.p50_ms(),
        traced_log.samples.len()
    );
    m.set(
        "trace.overhead_share",
        traced_log.p50_ms() / log.p50_ms() - 1.0,
    );
    tracer.report(m);
    let path = crate::trace_path(cfg);
    tracer
        .write(&path)
        .map_err(|e| format!("{}: {e}", path.display()))?;
    println!("spans written to {}", path.display());
    Ok(())
}

/// Host fingerprint printed with every result.
#[derive(Debug, Clone, Copy)]
pub struct Host {
    pub parallelism: usize,
    pub avx2: bool,
    pub release: bool,
}

impl Host {
    pub fn detect() -> Host {
        #[cfg(target_arch = "x86_64")]
        let avx2 = is_x86_feature_detected!("avx2");
        #[cfg(not(target_arch = "x86_64"))]
        let avx2 = false;
        Host {
            parallelism: std::thread::available_parallelism().map_or(1, |n| n.get()),
            avx2,
            release: !cfg!(debug_assertions),
        }
    }

    pub fn report(&self, workers: usize, m: &mut Metrics) {
        println!(
            "host: available_parallelism={} avx2={} profile={} workers={}",
            self.parallelism,
            self.avx2,
            if self.release { "release" } else { "debug" },
            workers
        );
        m.set("host.available_parallelism", self.parallelism as f64);
        m.set("host.avx2", f64::from(u8::from(self.avx2)));
        m.set("host.workers", workers as f64);
    }
}

/// Peak resident set size of this process in MB (`VmHWM`).
pub fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("cannot read /proc/self/status: {e}"))?;
    let kb: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .ok_or("no VmHWM line in /proc/self/status")?;
    Ok(kb / 1024.0)
}

/// Named metric values of one run.
#[derive(Debug, Default)]
pub struct Metrics {
    pub values: BTreeMap<&'static str, f64>,
}

impl Metrics {
    pub fn set(&mut self, name: &'static str, value: f64) {
        self.values.insert(name, value);
    }

    pub fn add(&mut self, name: &'static str, value: f64) {
        *self.values.entry(name).or_default() += value;
    }
}

/// Counts one call into a layer, and a failure when `ok` is false.
pub fn count_call(m: &mut Metrics, layer: &'static str, ok: bool) {
    let (calls, failures) = match layer {
        "fp16" => ("fp16.calls", "fp16.failures"),
        "functional" => ("functional.calls", "functional.failures"),
        "nn" => ("nn.calls", "nn.failures"),
        "batch" => ("batch.calls", "batch.failures"),
        "redmule" => ("redmule.calls", "redmule.failures"),
        "runtime" => ("runtime.calls", "runtime.failures"),
        other => panic!("unknown layer {other}"),
    };
    m.add(calls, 1.0);
    m.add(failures, f64::from(u8::from(!ok)));
}

/// Outcome counters of a run: ops attempted and ops failed (errored or
/// failed an output check). The one-off checks before the timed loop
/// count as one op.
#[derive(Debug, Default)]
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    pub problems: Vec<String>,
}

impl Outcome {
    /// Records one op with the problems its checks found.
    pub fn op(&mut self, problems: Vec<String>) {
        self.attempted += 1;
        if !problems.is_empty() {
            self.failed += 1;
            for p in problems {
                if self.problems.len() < 16 {
                    self.problems.push(p);
                }
            }
        }
    }
}

/// Appends `what` to `problems` unless `ok`.
pub fn expect(problems: &mut Vec<String>, ok: bool, what: impl FnOnce() -> String) {
    if !ok {
        problems.push(what());
    }
}

/// Reports the end-to-end metrics of a closed-loop run. `macs` and
/// `sim_cycles` are per op; their ratio is deterministic.
pub fn report_end_to_end(m: &mut Metrics, log: &OpLog, setup_s: f64, macs: u64, sim_cycles: u64) {
    let (tail, pct, per_window, windows) = log.tail_ms();
    let macs_per_cycle = macs as f64 / sim_cycles as f64;
    println!(
        "ops {}: p50 {:.3} ms, tail {tail:.3} ms (p{pct:.1} of {per_window} samples, \
         median of {windows} windows)",
        log.samples.len(),
        log.p50_ms(),
    );
    println!(
        "sim_macs_per_cycle {macs_per_cycle:.4} (paper peak {})",
        crate::PAPER_PEAK_MACS_PER_CYCLE
    );
    m.set("mmacs_per_s", log.mmacs_per_s());
    m.set("op_p50_ms", log.p50_ms());
    m.set("op_tail_ms", tail);
    m.set("sim_mcycles_per_s", log.sim_mcycles_per_s());
    m.set("sim_macs_per_cycle", macs_per_cycle);
    m.set("setup_s", setup_s);
}

/// Simulated-cycle phase attribution summed over engine runs.
#[derive(Debug, Default)]
pub struct Phases {
    compute: u64,
    stall: u64,
    fill_drain: u64,
    total: u64,
}

impl Phases {
    pub fn add(&mut self, report: &RunReport) {
        let p = &report.phases;
        self.compute += p.compute;
        self.stall += p.refill + p.stall;
        self.fill_drain += p.fill + p.drain;
        self.total += report.cycles.count();
    }

    pub fn report(&self, m: &mut Metrics) {
        let t = self.total.max(1) as f64;
        println!(
            "sim phases over {} cycles: compute {:.4}, stall {:.4}, fill/drain {:.4}",
            self.total,
            self.compute as f64 / t,
            self.stall as f64 / t,
            self.fill_drain as f64 / t
        );
        m.set("sim.phase.compute_share", self.compute as f64 / t);
        m.set("sim.phase.stall_share", self.stall as f64 / t);
        m.set("sim.phase.fill_drain_share", self.fill_drain as f64 / t);
    }
}

/// One GEMM on the cycle-accurate engine: staged workspace, raw
/// `Engine::run`, Z read back.
pub fn engine_gemm(
    engine: &Engine,
    shape: GemmShape,
    format: Format,
    x: &[F16],
    w: &[F16],
) -> Result<(Vec<F16>, RunReport), String> {
    let (job, mut mem, mut hci) =
        stage_gemm_workspace_in(shape, format, x, w, None).map_err(|e| e.to_string())?;
    let report = engine
        .run(job, &mut mem, &mut hci)
        .map_err(|e| e.to_string())?;
    let z = cast::castin_slice(&mem, format, job.z_addr, shape.z_len())
        .map_err(|e| format!("{e:?}"))?;
    Ok((z, report))
}

/// One GEMM through `FunctionalGemm::plan` and
/// `FunctionalPlan::compute_band_into` on this thread, as the executor's
/// functional path runs it. Returns Z and the plan and compute seconds.
pub fn plan_compute(
    model: &FunctionalGemm,
    shape: GemmShape,
    format: Format,
    x: &[F16],
    w: &[F16],
) -> Result<(Vec<F16>, f64, f64), String> {
    let t = Instant::now();
    let plan = model.plan(shape, format, x, w, None);
    let plan_s = t.elapsed().as_secs_f64();
    let plan = plan.map_err(|e| e.to_string())?;
    let mut z = vec![F16::ZERO; shape.z_len()];
    let t = Instant::now();
    for (band, chunk) in z.chunks_mut(plan.band_stride()).enumerate() {
        plan.compute_band_into(band, chunk);
    }
    Ok((z, plan_s, t.elapsed().as_secs_f64()))
}

/// Bitwise equality of two FP16 slices (NaN payloads included).
pub fn same_bits(a: &[F16], b: &[F16]) -> bool {
    a.len() == b.len() && a.iter().zip(b).all(|(x, y)| x.to_bits() == y.to_bits())
}
