//! What the two closed-loop workloads share: per-job records and the
//! metrics derived from them and from the traced run's spans.

use std::collections::BTreeMap;
use std::time::Duration;

use crate::programs::{Analysis, JobCounts};
use crate::spans::{self, Tracer};
use crate::stats::{self, geomean, median, Pct};
use crate::Metrics;

/// One finished job.
#[derive(Debug, Clone)]
pub struct JobRecord {
    /// Index into the workload's program table.
    pub program: usize,
    /// Analysis the job ran under.
    pub analysis: Analysis,
    /// Job id (the span job id in the traced run).
    pub id: u64,
    /// Bytes → checked report, in milliseconds.
    pub ms: f64,
    /// Whether the output matched the reference.
    pub ok: bool,
    /// Encoded module size.
    pub bytes: usize,
    /// Engine and probe counts.
    pub counts: JobCounts,
}

/// Execution-time samples (ms), probe fires and job-time samples (ms) of
/// one `(program, analysis)` pair.
type Cell = (Vec<f64>, u64, Vec<f64>);

/// A measured closed-loop window, made of whole rounds: every input once.
#[derive(Debug, Default)]
pub struct Closed {
    /// Every job run in the window.
    pub jobs: Vec<JobRecord>,
    /// Each round's end index into `jobs` and its wall time.
    pub rounds: Vec<(usize, Duration)>,
}

impl Closed {
    /// Closes the current round.
    pub fn end_round(&mut self, wall: Duration) {
        self.rounds.push((self.jobs.len(), wall));
    }

    /// The jobs and wall time of each round.
    fn by_round(&self) -> impl Iterator<Item = (&[JobRecord], Duration)> {
        let starts = std::iter::once(0).chain(self.rounds.iter().map(|(end, _)| *end));
        starts.zip(&self.rounds).map(|(start, (end, wall))| (&self.jobs[start..*end], *wall))
    }

    /// Failed jobs.
    pub fn failed(&self) -> u64 {
        self.jobs.iter().filter(|j| !j.ok).count() as u64
    }

    /// Correctly checked jobs per second of wall time: the median over
    /// rounds.
    pub fn jobs_per_s(&self) -> f64 {
        let rates: Vec<f64> = self
            .by_round()
            .map(|(jobs, wall)| jobs.iter().filter(|j| j.ok).count() as f64 / wall.as_secs_f64())
            .collect();
        median(&rates)
    }

    /// Job-time percentile, the median over rounds of each round's; a
    /// failed job counts as slower than any limit.
    pub fn job_pct(&self, q: f64) -> Pct {
        let groups: Vec<Vec<f64>> = self
            .by_round()
            .map(|(jobs, _)| jobs.iter().map(|j| if j.ok { j.ms } else { f64::INFINITY }).collect())
            .collect();
        stats::grouped_pct(&groups, q)
    }

    /// The end-to-end metrics a closed loop reports (besides set-up time
    /// and memory, which `main` adds).
    pub fn end_to_end(&self, m: &mut Metrics) {
        m.put("jobs_per_s", self.jobs_per_s());
        m.pct("job_p50_ms", self.job_pct(0.50));
        m.pct("job_p90_ms", self.job_pct(0.90));
    }

    /// Mean of `f` over every job.
    fn mean(&self, f: impl Fn(&JobRecord) -> u64) -> f64 {
        if self.jobs.is_empty() {
            return 0.0;
        }
        self.jobs.iter().map(f).sum::<u64>() as f64 / self.jobs.len() as f64
    }

    /// Per-layer metrics from the traced window and its spans, plus the
    /// tracing overhead against the untraced window.
    pub fn per_layer(&self, untraced: &Closed, tracer: &Tracer, m: &mut Metrics) {
        let sp = tracer.spans();
        let by_name = spans::totals(sp);
        let t = |name: &str| by_name.get(name).copied().unwrap_or_default();

        let decode = t("wasm.decode");
        m.put("wasm.decode_us", decode.mean_self_us());
        let bytes: usize = self.jobs.iter().map(|j| j.bytes).sum();
        if decode.self_time > Duration::ZERO {
            m.put("wasm.decode_mb_s", bytes as f64 / 1e6 / decode.self_time.as_secs_f64());
        }
        for (metric, span) in [
            ("core.artifact_build_us", "core.artifact_build"),
            ("core.instantiate_us", "core.instantiate"),
            ("core.attach_us", "core.attach"),
            ("core.apply_batch_us", "core.apply_batch"),
            ("core.detach_us", "core.detach"),
            ("monitors.report_us", "monitors.report"),
        ] {
            m.put(metric, t(span).mean_self_us());
        }

        m.put("core.functions_lowered", self.mean(|j| j.counts.stats.functions_lowered));
        m.put("core.functions_reg_lowered", self.mean(|j| j.counts.stats.functions_reg_lowered));
        m.put("core.probes_inserted", self.mean(|j| j.counts.probes_inserted));
        m.put("core.probes_removed", self.mean(|j| j.counts.probes_removed));
        m.put("core.invalidation_passes", self.mean(|j| j.counts.stats.invalidation_passes));
        m.put("core.overlay_copies", self.mean(|j| j.counts.stats.overlay_copies));
        m.put("core.deopts", self.mean(|j| j.counts.stats.deopts));
        m.put("core.relower_passes", self.mean(|j| j.counts.stats.relower_passes));
        m.put("core.tier_ups", self.mean(|j| j.counts.stats.tier_ups));
        m.put("core.compiles", self.mean(|j| j.counts.stats.compiles));
        m.put("core.reg_demotions", self.mean(|j| j.counts.stats.reg_demotions));
        m.put("core.probe_fires", self.mean(|j| j.counts.stats.probe_fires));
        m.put("core.fuel_consumed", self.mean(|j| j.counts.stats.fuel_consumed));
        m.put("core.suspensions", self.mean(|j| j.counts.stats.suspensions));

        // Share of job time spent in the front end and the probe write
        // path: well under 1% on probed-exec, the bulk of probe-churn.
        let front: Duration = [
            "wasm.decode",
            "core.artifact_build",
            "core.instantiate",
            "core.attach",
            "core.apply_batch",
            "core.detach",
        ]
        .iter()
        .map(|n| t(n).self_time)
        .sum();
        let job_time = t("job").total;
        if job_time > Duration::ZERO {
            m.put("bench.front_and_write_share", front.as_secs_f64() / job_time.as_secs_f64());
        }

        let traced = self.jobs_per_s();
        if traced > 0.0 {
            m.put("bench.trace_overhead", untraced.jobs_per_s() / traced - 1.0);
        }
        m.put("bench.failed_share", self.failed() as f64 / self.jobs.len().max(1) as f64);
    }

    /// Per `(program, analysis)` of the correctly checked jobs: execution
    /// times (ms, from the `core.exec.*` spans), probe fires, and job times.
    fn exec_cells(&self, tracer: &Tracer) -> BTreeMap<(usize, Analysis), Cell> {
        let mut exec_ms: BTreeMap<u64, f64> = BTreeMap::new();
        for s in tracer.spans() {
            if s.name.starts_with("core.exec.") {
                exec_ms.insert(s.job, (s.end - s.start).as_secs_f64() * 1e3);
            }
        }
        let mut cells: BTreeMap<(usize, Analysis), Cell> = BTreeMap::new();
        for j in self.jobs.iter().filter(|j| j.ok) {
            let Some(ms) = exec_ms.get(&j.id) else { continue };
            let c = cells.entry((j.program, j.analysis)).or_default();
            c.0.push(*ms);
            c.1 = j.counts.fires;
            c.2.push(j.ms);
        }
        cells
    }

    /// Prints each program's median execution time per analysis on
    /// standard error: the detail behind `core.exec_ms.*`.
    pub fn print_exec_breakdown(&self, tracer: &Tracer, names: &[String]) {
        let cells = self.exec_cells(tracer);
        eprintln!("median exec ms: program, then none hotness branch calltree trace");
        for (p, name) in names.iter().enumerate() {
            let mut line = format!("  {name:<16}");
            for a in Analysis::PROBED {
                let v = cells.get(&(p, a)).map_or(0.0, |c| median(&c.0));
                line.push_str(&format!(" {v:>9.3}"));
            }
            eprintln!("{line}");
        }
    }

    /// `probed-exec`'s execution and firing metrics: per program, the
    /// median execution time under each analysis, compared with `none`.
    pub fn exec_metrics(&self, tracer: &Tracer, m: &mut Metrics) {
        let cells = self.exec_cells(tracer);
        let programs: Vec<usize> = {
            let mut v: Vec<usize> = cells.keys().map(|(p, _)| *p).collect();
            v.dedup();
            v
        };
        for a in Analysis::PROBED {
            let mut sum = 0.0;
            let mut ratios = Vec::new();
            let mut job_ratios = Vec::new();
            let (mut extra_ns, mut fires) = (0.0, 0u64);
            for p in &programs {
                let (Some(base), Some(cell)) =
                    (cells.get(&(*p, Analysis::None)), cells.get(&(*p, a)))
                else {
                    continue;
                };
                let (exec, base_exec) = (median(&cell.0), median(&base.0));
                sum += exec;
                if a != Analysis::None && base_exec > 0.0 {
                    ratios.push(exec / base_exec);
                    job_ratios.push(median(&cell.2) / median(&base.2));
                    extra_ns += (exec - base_exec) * 1e6;
                    fires += cell.1;
                }
            }
            m.put(&format!("core.exec_ms.{}", a.name()), sum);
            if a == Analysis::None {
                continue;
            }
            m.put(&format!("core.overhead_x.{}", a.name()), geomean(&ratios));
            let kind = match a {
                Analysis::Hotness => "count",
                Analysis::Branch => "operand",
                Analysis::CallTree => "generic",
                _ => "trace",
            };
            if fires > 0 {
                m.put(&format!("core.probe_fire_ns.{kind}"), extra_ns / fires as f64);
            }
            if a == Analysis::Trace {
                m.put("trace.capture_overhead_x", geomean(&job_ratios));
            }
        }
        let (bytes, branches) = self
            .jobs
            .iter()
            .fold((0, 0), |(b, n), j| (b + j.counts.trace_bytes, n + j.counts.trace_branches));
        if branches > 0 {
            m.put("trace.bytes_per_branch", bytes as f64 / branches as f64);
        }
    }
}
