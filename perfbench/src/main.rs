//! Repository benchmark for the RedMulE reproduction.
//!
//! ```text
//! cargo run --release --offline -q --manifest-path perfbench/Cargo.toml -- \
//!     --workload ae-train --seed 1 --seconds 30 --trace 0
//! ```
//!
//! Each workload is a closed loop with one client. `--trace 0` measures
//! the end-to-end metrics; `--trace 1` is a separate run that records
//! spans around the calls into each layer and reports the per-layer
//! metrics. The last line of standard output is the JSON result; see
//! `README.md` beside this file for what every workload and metric is for.

mod ae_train;
mod batch_loop;
mod common;
mod engine_batch;
mod gemm_batch;
mod kernel_probe;

use common::{Host, Metrics, Outcome};

/// End-to-end metrics (`--trace 0`): name and unit.
const END_TO_END: &[(&str, &str)] = &[
    ("mmacs_per_s", "MMAC/s"),
    ("op_p50_ms", "ms"),
    ("op_tail_ms", "ms"),
    ("sim_mcycles_per_s", "Mcycle/s"),
    ("sim_macs_per_cycle", "MAC/cycle"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
];

/// Per-layer metrics (`--trace 1`): name and unit. A layer a workload
/// does not exercise reports zero calls and zero values.
const PER_LAYER: &[(&str, &str)] = &[
    ("fp16.kernel.fast_ns_per_step", "ns"),
    ("fp16.kernel.special_ns_per_step", "ns"),
    ("fp16.scalar.ns_per_step", "ns"),
    ("fp16.kernel.speedup_vs_scalar", "ratio"),
    ("fp16.self_ms", "ms"),
    ("fp16.calls", "count"),
    ("fp16.failures", "count"),
    ("functional.plan.ns_per_mac", "ns"),
    ("functional.compute.ns_per_mac", "ns"),
    ("functional.plan.share", "ratio"),
    ("functional.self_ms", "ms"),
    ("functional.calls", "count"),
    ("functional.failures", "count"),
    ("nn.forward_ms", "ms"),
    ("nn.backward_ms", "ms"),
    ("nn.update_ms", "ms"),
    ("nn.gemm_ns_per_mac", "ns"),
    ("nn.grad_subnormal_frac", "ratio"),
    ("nn.act_subnormal_frac", "ratio"),
    ("nn.self_ms", "ms"),
    ("nn.calls", "count"),
    ("nn.failures", "count"),
    ("batch.overhead_share", "ratio"),
    ("batch.scaling_eff", "ratio"),
    ("batch.report_render_ms", "ms"),
    ("batch.self_ms", "ms"),
    ("batch.calls", "count"),
    ("batch.failures", "count"),
    ("redmule.stage_us", "us"),
    ("redmule.engine.mcycles_per_s", "Mcycle/s"),
    ("redmule.self_ms", "ms"),
    ("redmule.calls", "count"),
    ("redmule.failures", "count"),
    ("runtime.supervisor.overhead_share", "ratio"),
    ("runtime.checkpoint.capture_us", "us"),
    ("runtime.checkpoint.restore_us", "us"),
    ("runtime.checkpoint.bytes", "bytes"),
    ("runtime.self_ms", "ms"),
    ("runtime.calls", "count"),
    ("runtime.failures", "count"),
    ("sim.phase.compute_share", "ratio"),
    ("sim.phase.stall_share", "ratio"),
    ("sim.phase.fill_drain_share", "ratio"),
    ("workload.subnormal_frac", "ratio"),
    ("workload.zero_frac", "ratio"),
    ("workload.nonfinite_frac", "ratio"),
    ("trace.overhead_share", "ratio"),
    ("trace.self_coverage", "ratio"),
    ("trace.spans", "count"),
    ("host.available_parallelism", "count"),
    ("host.avx2", "flag"),
    ("host.workers", "count"),
];

/// The paper's peak FP16 throughput of the `H=4, L=8, P=3` instance, the
/// reference printed beside `sim_macs_per_cycle`.
pub const PAPER_PEAK_MACS_PER_CYCLE: f64 = 31.6;

/// Parsed command line.
#[derive(Debug, Clone)]
pub struct Config {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub host: Host,
}

/// Where a traced run writes its spans: `out/` beside this package.
pub fn trace_path(cfg: &Config) -> std::path::PathBuf {
    std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("out")
        .join(format!("spans-{}-seed{}.json", cfg.workload, cfg.seed))
}

fn parse_args() -> Result<Config, String> {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                seconds = Some(
                    value
                        .parse::<f64>()
                        .map_err(|e| format!("--seconds: {e}"))?,
                )
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other}")),
                })
            }
            other => return Err(format!("unknown argument {other}")),
        }
    }
    let seconds = seconds.unwrap_or(30.0);
    if !(seconds > 0.0 && seconds <= 120.0) {
        return Err(format!("--seconds must be in (0, 120], got {seconds}"));
    }
    Ok(Config {
        workload: workload.ok_or("--workload is required (ae-train, gemm-batch, engine-batch)")?,
        seed: seed.unwrap_or(1),
        seconds,
        trace: trace.unwrap_or(false),
        host: Host::detect(),
    })
}

/// Runs the workload, then prints the result table and, last, the JSON
/// result line. Errors that prevent measuring return `Err`.
fn run(cfg: &Config) -> Result<(), String> {
    let mut m = Metrics::default();
    let mut out = Outcome::default();
    println!(
        "workload {} seed {} seconds {} trace {}",
        cfg.workload,
        cfg.seed,
        cfg.seconds,
        u8::from(cfg.trace)
    );
    match cfg.workload.as_str() {
        "ae-train" => ae_train::run(cfg, &mut m, &mut out)?,
        "gemm-batch" => gemm_batch::run(cfg, &mut m, &mut out)?,
        "engine-batch" => engine_batch::run(cfg, &mut m, &mut out)?,
        other => return Err(format!("unknown workload {other}")),
    }
    m.set("peak_rss_mb", common::peak_rss_mb()?);

    let table = if cfg.trace { PER_LAYER } else { END_TO_END };
    let mut fields = Vec::with_capacity(table.len());
    for &(name, unit) in table {
        let value = match m.values.get(name) {
            Some(v) => *v,
            None if cfg.trace => 0.0,
            None => return Err(format!("workload did not measure {name}")),
        };
        if !value.is_finite() {
            return Err(format!("{name} is not finite: {value}"));
        }
        println!("{name:<36} {value:>16.6} {unit}");
        fields.push(format!(
            "\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}"
        ));
    }
    let failed_frac = out.failed as f64 / out.attempted.max(1) as f64;
    println!(
        "failed_frac {failed_frac} ({} of {} ops)",
        out.failed, out.attempted
    );
    for p in &out.problems {
        println!("problem: {p}");
    }
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        out.failed == 0 && out.attempted > 0,
        out.attempted.max(1),
        out.failed,
        fields.join(", ")
    );
    Ok(())
}

fn main() {
    let result = parse_args().and_then(|cfg| run(&cfg));
    if let Err(e) = result {
        eprintln!("perfbench: {e}");
        std::process::exit(2);
    }
}
