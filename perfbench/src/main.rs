//! The repository benchmark.
//!
//! ```sh
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload probed-exec --seed 1 --seconds 12 --trace 0
//! ```
//!
//! Run from the repository root. `--trace 0` prints every end-to-end
//! metric; `--trace 1` measures half the time untraced and half traced and
//! prints every per-layer metric, writing the spans to
//! `perfbench/out/spans-<workload>.tsv`. The last line of standard output
//! is one JSON object: `correct`, `attempted`, `failed` and `metrics`.
//! `--regen-reference` rewrites `perfbench/reference.tsv`. See
//! `perfbench/README.md` for the workloads and metrics.

mod closed;
mod gen;
mod probe_churn;
mod probed_exec;
mod programs;
mod reference;
mod serve_mixed;
mod spans;
mod stats;

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

use programs::{churn_corpus, probed_exec_programs, Analysis};
use spans::Tracer;

/// End-to-end metrics `(name, unit)`: printed by `--trace 0` on every
/// workload.
const END_TO_END: [(&str, &str); 5] = [
    ("setup_s", "s"),
    ("jobs_per_s", "1/s"),
    ("job_p50_ms", "ms"),
    ("job_p90_ms", "ms"),
    ("peak_rss_mb", "MB"),
];

/// Per-layer metrics `(name, unit)`: printed by `--trace 1` on every
/// workload; a layer a workload does not reach reads 0.
const PER_LAYER: [(&str, &str); 60] = [
    ("wasm.decode_us", "us"),
    ("wasm.decode_mb_s", "MB/s"),
    ("core.artifact_build_us", "us"),
    ("core.instantiate_us", "us"),
    ("core.functions_lowered", "count"),
    ("core.functions_reg_lowered", "count"),
    ("core.attach_us", "us"),
    ("core.apply_batch_us", "us"),
    ("core.detach_us", "us"),
    ("core.probes_inserted", "count"),
    ("core.probes_removed", "count"),
    ("core.invalidation_passes", "count"),
    ("core.overlay_copies", "count"),
    ("core.deopts", "count"),
    ("core.relower_passes", "count"),
    ("core.exec_ms.none", "ms"),
    ("core.exec_ms.hotness", "ms"),
    ("core.exec_ms.branch", "ms"),
    ("core.exec_ms.calltree", "ms"),
    ("core.exec_ms.trace", "ms"),
    ("core.probe_fire_ns.count", "ns"),
    ("core.probe_fire_ns.operand", "ns"),
    ("core.probe_fire_ns.generic", "ns"),
    ("core.probe_fire_ns.trace", "ns"),
    ("core.overhead_x.hotness", "x"),
    ("core.overhead_x.branch", "x"),
    ("core.overhead_x.calltree", "x"),
    ("core.overhead_x.trace", "x"),
    ("core.tier_ups", "count"),
    ("core.compiles", "count"),
    ("core.reg_demotions", "count"),
    ("core.probe_fires", "count"),
    ("core.fuel_consumed", "count"),
    ("core.suspensions", "count"),
    ("monitors.report_us", "us"),
    ("trace.bytes_per_branch", "B"),
    ("trace.capture_overhead_x", "x"),
    ("pool.admit_us", "us"),
    ("pool.cache_hit_ratio", "ratio"),
    ("pool.queue_delay_p50_ms", "ms"),
    ("pool.queue_delay_p99_ms", "ms"),
    ("pool.service_p50_ms", "ms"),
    ("pool.service_p99_ms", "ms"),
    ("pool.slices_per_job", "count"),
    ("pool.migrations_per_job", "count"),
    ("pool.steals", "count"),
    ("pool.budget_throttles", "count"),
    ("pool.rejected", "count"),
    ("pool.queue_depth_max", "count"),
    ("pool.cpu_parallelism", "ratio"),
    ("serve_lo_p50_ms", "ms"),
    ("serve_lo_p99_ms", "ms"),
    ("serve_hi_p50_ms", "ms"),
    ("serve_hi_p99_ms", "ms"),
    ("serve_interactive_p99_ms", "ms"),
    ("serve_max_rate_jobs_s", "1/s"),
    ("bench.generator_lag_ms", "ms"),
    ("bench.trace_overhead", "ratio"),
    ("bench.front_and_write_share", "ratio"),
    ("bench.failed_share", "ratio"),
];

/// Set-ups per run; `setup_s` is their median.
const SETUPS: usize = 5;

/// Unmeasured work after set-up, so the first measured jobs do not pay
/// for cold caches and a CPU waking from idle.
const WARM_UP_S: f64 = 1.0;

/// Named metric values, plus the sample count behind each percentile.
#[derive(Debug, Default)]
pub struct Metrics {
    values: BTreeMap<String, f64>,
    samples: BTreeMap<String, (usize, usize)>,
}

impl Metrics {
    /// Sets a metric.
    pub fn put(&mut self, name: &str, value: f64) {
        self.values.insert(name.to_string(), value);
    }

    /// Sets a percentile metric and records its sample counts.
    pub fn pct(&mut self, name: &str, p: stats::Pct) {
        self.put(name, p.value);
        self.samples.insert(name.to_string(), (p.n, p.beyond));
    }
}

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Option<Args>, String> {
    let mut it = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace) = (None, 1, 10.0_f64, false);
    while let Some(flag) = it.next() {
        if flag == "--regen-reference" {
            return Ok(None);
        }
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = || format!("bad value for {flag}: {value}");
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = value.parse().map_err(|_| bad())?,
            "--seconds" => seconds = value.parse().map_err(|_| bad())?,
            "--trace" => trace = value.parse::<u8>().map_err(|_| bad())? != 0,
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !seconds.is_finite() || seconds <= 0.0 {
        return Err("--seconds must be positive".into());
    }
    Ok(Some(Args { workload, seed, seconds, trace }))
}

/// Peak resident set size from `/proc/self/status`, in MB.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Runs `setup` [`SETUPS`] times and keeps the last state; returns the
/// median set-up time.
fn timed_setup<S>(setup: impl Fn() -> Result<S, String>) -> Result<(S, f64), String> {
    let mut times = Vec::new();
    let mut state = None;
    for _ in 0..SETUPS {
        // The previous state is dropped (engines stopped) before the
        // next set-up starts.
        drop(state.take());
        let t = Instant::now();
        let s = setup()?;
        times.push(t.elapsed().as_secs_f64());
        state = Some(s);
    }
    Ok((state.expect("at least one set-up"), stats::median(&times)))
}

/// The outcome of one invocation.
struct Outcome {
    attempted: u64,
    failed: u64,
    metrics: Metrics,
    spans: Option<String>,
}

/// Set-up, warm-up, the untraced window and, with `--trace 1`, the traced
/// one, for a closed-loop workload.
fn closed_loop<S>(
    args: &Args,
    seconds: f64,
    traced: &mut Tracer,
    setup: impl Fn(u64) -> Result<S, String>,
    measure: impl Fn(&mut S, f64, &mut Tracer, u64) -> closed::Closed,
) -> Result<(S, f64, closed::Closed, Option<closed::Closed>), String> {
    let (mut st, setup_s) = timed_setup(|| setup(args.seed))?;
    measure(&mut st, WARM_UP_S, &mut Tracer::new(false), 0);
    let untraced = measure(&mut st, seconds, &mut Tracer::new(false), 0);
    let traced_run = args.trace.then(|| measure(&mut st, seconds, traced, 1 << 32));
    Ok((st, setup_s, untraced, traced_run))
}

fn run(args: &Args) -> Result<Outcome, String> {
    let mut m = Metrics::default();
    let seconds = if args.trace { args.seconds / 2.0 } else { args.seconds };
    let mut traced = Tracer::new(true);
    let (attempted, failed) = match args.workload.as_str() {
        "probed-exec" | "probe-churn" => {
            let (setup_s, untraced, traced_run, names) = if args.workload == "probed-exec" {
                let (st, setup_s, u, t) = closed_loop(
                    args,
                    seconds,
                    &mut traced,
                    probed_exec::setup,
                    probed_exec::measure,
                )?;
                (setup_s, u, t, Some(probed_exec::program_names(&st)))
            } else {
                let (_, setup_s, u, t) = closed_loop(
                    args,
                    seconds,
                    &mut traced,
                    probe_churn::setup,
                    probe_churn::measure,
                )?;
                (setup_s, u, t, None)
            };
            m.put("setup_s", setup_s);
            untraced.end_to_end(&mut m);
            let mut attempted = untraced.jobs.len() as u64;
            let mut failed = untraced.failed();
            if let Some(t) = &traced_run {
                t.per_layer(&untraced, &traced, &mut m);
                if let Some(names) = &names {
                    t.exec_metrics(&traced, &mut m);
                    t.print_exec_breakdown(&traced, names);
                }
                attempted += t.jobs.len() as u64;
                failed += t.failed();
            }
            (attempted, failed)
        }
        "serve-mixed" => {
            let (mut st, setup_s) = timed_setup(|| serve_mixed::setup(args.seed))?;
            let workers = serve_mixed::workers(&st);
            m.put("setup_s", setup_s);
            serve_mixed::warm_up(&mut st, WARM_UP_S);
            let u = serve_mixed::measure(&mut st, seconds, &mut Tracer::new(false), 0);
            // Closed-loop names, open-loop meanings (see README).
            m.put("jobs_per_s", u.throughput());
            m.pct("job_p50_ms", u.solo_latency(0.50));
            m.pct("job_p90_ms", u.solo_latency(0.90));
            m.put("peak_rss_mb", u.peak_rss_mb);
            let (mut attempted, mut failed) = u.counts();
            if args.trace {
                let t = serve_mixed::measure(&mut st, seconds, &mut traced, 1 << 32);
                serve_mixed::per_layer(&t, &u, &traced, workers, &mut m);
                let (a, f) = t.counts();
                attempted += a;
                failed += f;
            }
            (attempted, failed)
        }
        other => return Err(format!("unknown workload {other:?}")),
    };
    if !m.values.contains_key("peak_rss_mb") {
        m.put("peak_rss_mb", peak_rss_mb());
    }
    let spans = args.trace.then(|| spans::to_tsv(traced.spans()));
    Ok(Outcome { attempted, failed, metrics: m, spans })
}

/// Where the run came from: host, toolchain and commit.
fn provenance(args: &Args, m: &Metrics) -> String {
    let rustc = std::process::Command::new("rustc")
        .arg("--version")
        .output()
        .ok()
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .unwrap_or_else(|| "unknown".into());
    let commit = std::fs::read_to_string(".git/HEAD")
        .ok()
        .and_then(|head| match head.trim().strip_prefix("ref: ") {
            Some(r) => std::fs::read_to_string(format!(".git/{r}")).ok(),
            None => Some(head),
        })
        .map_or_else(|| "unknown (not a git checkout)".into(), |c| c.trim().to_string());
    let mut samples = String::new();
    for (name, (n, beyond)) in &m.samples {
        let _ = write!(
            samples,
            "{}\"{name}\": {{\"n\": {n}, \"beyond\": {beyond}}}",
            if samples.is_empty() { "" } else { ", " }
        );
    }
    format!(
        "{{\"workload\": \"{}\", \"seed\": {}, \"seconds\": {}, \"trace\": {}, \"nproc\": {}, \
         \"rustc\": \"{rustc}\", \"commit\": \"{commit}\", \"samples\": {{{samples}}}}}",
        args.workload,
        args.seed,
        args.seconds,
        u8::from(args.trace),
        std::thread::available_parallelism().map_or(1, |n| n.get()),
    )
}

/// A finite JSON number: an infinite latency (a failed request) prints
/// as 1e12.
fn num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "1e12".into()
    }
}

fn result_json(o: &Outcome, trace: bool) -> String {
    let list: &[(&str, &str)] = if trace { &PER_LAYER } else { &END_TO_END };
    let mut metrics = String::new();
    for (name, unit) in list {
        let v = o.metrics.values.get(*name).copied().unwrap_or(0.0);
        let sep = if metrics.is_empty() { "" } else { ", " };
        let _ = write!(metrics, "{sep}\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}", num(v));
    }
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{metrics}}}}}",
        o.failed == 0 && o.attempted > 0,
        o.attempted,
        o.failed
    )
}

fn regen_reference() -> Result<(), String> {
    let probed: Vec<Analysis> = Analysis::PROBED.to_vec();
    let r = reference::generate(&[
        (probed_exec_programs(), probed),
        (churn_corpus(), vec![Analysis::Coverage, Analysis::Hotness]),
        (serve_mixed::programs(), vec![Analysis::Hotness]),
    ])?;
    std::fs::write(reference::PATH, r.render()).map_err(|e| format!("{}: {e}", reference::PATH))
}

fn main() {
    let args = match parse_args() {
        Ok(Some(a)) => a,
        Ok(None) => {
            if let Err(e) = regen_reference() {
                eprintln!("perfbench: {e}");
                std::process::exit(1);
            }
            return;
        }
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    };
    let outcome = match run(&args) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(1);
        }
    };
    let o = outcome;
    if let Some(tsv) = &o.spans {
        let path = format!("perfbench/out/spans-{}.tsv", args.workload);
        let written =
            std::fs::create_dir_all("perfbench/out").and_then(|()| std::fs::write(&path, tsv));
        if let Err(e) = written {
            eprintln!("perfbench: {path}: {e}");
            std::process::exit(1);
        }
    }
    println!("{}", provenance(&args, &o.metrics));
    println!("{}", result_json(&o, args.trace));
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn benchmark_json_lists_every_metric_with_its_unit() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json beside the benchmark");
        for (name, unit) in END_TO_END.iter().chain(&PER_LAYER) {
            let at = text.find(&format!("\"name\": \"{name}\"")).expect(name);
            let rest = &text[at..];
            let unit_at = rest.find("\"unit\": \"").expect("unit follows name") + 9;
            assert!(rest[unit_at..].starts_with(&format!("{unit}\"")), "{name}: unit {unit}");
        }
        let listed = text.matches("\"unit\":").count();
        assert_eq!(listed, END_TO_END.len() + PER_LAYER.len());
    }

    #[test]
    fn result_line_has_the_four_keys_and_every_metric() {
        let mut metrics = Metrics::default();
        metrics.put("setup_s", 0.5);
        metrics.put("job_p90_ms", f64::INFINITY);
        let o = Outcome { attempted: 3, failed: 1, metrics, spans: None };
        let line = result_json(&o, false);
        assert!(line
            .starts_with("{\"correct\": false, \"attempted\": 3, \"failed\": 1, \"metrics\": {"));
        for (name, unit) in END_TO_END {
            assert!(line.contains(&format!("\"{name}\": {{\"value\": ")), "{name}");
            assert!(line.contains(&format!("\"unit\": \"{unit}\"")));
        }
        assert!(line.contains("\"job_p90_ms\": {\"value\": 1e12"));
        assert_eq!(result_json(&o, true).matches("\"value\"").count(), PER_LAYER.len());
    }
}
