//! The programs the workloads run, the analyses they run under, and the
//! one job shape every closed-loop workload shares: module bytes in,
//! checked report out.

use std::sync::Arc;

use wizard_engine::store::Linker;
use wizard_engine::{EngineConfig, EngineStats, ModuleArtifact, Monitor, Process, Shims, Value};
use wizard_monitors::{BranchMonitor, CallTreeMonitor, CoverageMonitor, HotnessMonitor};
use wizard_suites::{corpus, polybench_suite, richards_benchmark, Scale};
use wizard_trace::StreamingTraceMonitor;
use wizard_wasm::encode::encode;
use wizard_wasm::module::Module;

use crate::spans::Tracer;

/// A program as the user hands it over: encoded module bytes plus the
/// argument of its exported `run(n) -> checksum`.
#[derive(Debug, Clone)]
pub struct Program {
    /// Unique name; keys the reference table.
    pub name: String,
    /// The encoded `.wasm` binary.
    pub bytes: Vec<u8>,
    /// The `run` argument.
    pub n: i32,
    /// Whether the module imports host functions or globals, linked
    /// through the standard shims.
    pub imports: bool,
}

impl Program {
    /// A program from a built module.
    pub fn from_module(name: impl Into<String>, module: &Module, n: i32) -> Program {
        Program { name: name.into(), bytes: encode(module), n, imports: !module.imports.is_empty() }
    }
}

/// The analysis a job runs under.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Analysis {
    /// No monitor.
    None,
    /// `CountProbe` on every instruction.
    Hotness,
    /// Operand probes on every branch.
    Branch,
    /// Generic entry/exit probes that read the FrameAccessor.
    CallTree,
    /// `StreamingTraceMonitor` into a `MemorySink`.
    Trace,
    /// Self-removing probe on every instruction.
    Coverage,
}

impl Analysis {
    /// The analyses of the `probed-exec` workload, in report order.
    pub const PROBED: [Analysis; 5] =
        [Analysis::None, Analysis::Hotness, Analysis::Branch, Analysis::CallTree, Analysis::Trace];

    /// Name used in the reference table and metric names.
    pub fn name(self) -> &'static str {
        match self {
            Analysis::None => "none",
            Analysis::Hotness => "hotness",
            Analysis::Branch => "branch",
            Analysis::CallTree => "calltree",
            Analysis::Trace => "trace",
            Analysis::Coverage => "coverage",
        }
    }

    /// Parses [`Analysis::name`].
    pub fn parse(s: &str) -> Option<Analysis> {
        [Analysis::Coverage].into_iter().chain(Analysis::PROBED).find(|a| a.name() == s)
    }

    /// Span name of the execution step under this analysis.
    pub fn exec_span(self) -> &'static str {
        match self {
            Analysis::None => "core.exec.none",
            Analysis::Hotness => "core.exec.hotness",
            Analysis::Branch => "core.exec.branch",
            Analysis::CallTree => "core.exec.calltree",
            Analysis::Trace => "core.exec.trace",
            Analysis::Coverage => "core.exec.coverage",
        }
    }
}

/// What a job's output must match: the checksum and up to two counts that
/// depend on the analysis (see the benchmark's README for each one).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct Observed {
    /// `run(n)`'s result.
    pub checksum: i64,
    /// First analysis count.
    pub a: u64,
    /// Second analysis count.
    pub b: u64,
}

/// Counts a job leaves behind for the per-layer metrics.
#[derive(Debug, Clone, Copy, Default)]
pub struct JobCounts {
    /// The process's engine counters at the end of the job.
    pub stats: EngineStats,
    /// Probe fires of the job's analysis.
    pub fires: u64,
    /// Probes inserted, by the monitor and by the job's own batches.
    pub probes_inserted: u64,
    /// Probes removed, including self-removals.
    pub probes_removed: u64,
    /// Trace stream bytes and branch events (trace analysis only).
    pub trace_bytes: u64,
    /// Branch events in the trace stream.
    pub trace_branches: u64,
}

/// FNV-1a, 64 bit: the trace stream's hash in the reference table.
pub fn fnv1a(bytes: &[u8]) -> u64 {
    bytes
        .iter()
        .fold(0xcbf2_9ce4_8422_2325, |h, b| (h ^ u64::from(*b)).wrapping_mul(0x100_0000_01b3))
}

/// Decodes, builds the artifact and instantiates `p`, each step in its
/// own span.
pub fn load(
    p: &Program,
    config: &EngineConfig,
    tr: &mut Tracer,
    job: u64,
) -> Result<Process, String> {
    let module = tr
        .span("wasm.decode", job, || wizard_wasm::decode::decode(&p.bytes))
        .map_err(|e| format!("{}: decode: {e}", p.name))?;
    let artifact = tr
        .span("core.artifact_build", job, || ModuleArtifact::new(module))
        .map_err(|e| format!("{}: validate: {e}", p.name))?;
    let artifact = Arc::new(artifact);
    tr.span("core.instantiate", job, || {
        let linker = if p.imports {
            Shims::standard().linker_for(artifact.module()).map_err(|e| e.to_string())?
        } else {
            Linker::new()
        };
        Process::instantiate(artifact, config.clone(), &linker).map_err(|e| e.to_string())
    })
    .map_err(|e| format!("{}: instantiate: {e}", p.name))
}

/// The single result of `run(n)` as a bit pattern (floats compare
/// bit-exactly).
pub fn result_bits(p: &Program, values: &[Value]) -> Result<i64, String> {
    match values {
        [Value::I32(x)] => Ok(i64::from(*x)),
        [Value::I64(x)] => Ok(*x),
        [Value::F32(x)] => Ok(i64::from(x.to_bits())),
        [Value::F64(x)] => Ok(x.to_bits() as i64),
        other => Err(format!("{}: unexpected result {other:?}", p.name)),
    }
}

fn checksum(p: &Program, r: Result<Vec<Value>, wizard_engine::Trap>) -> Result<i64, String> {
    match r {
        Ok(v) => result_bits(p, &v),
        Err(t) => Err(format!("{}: trap: {t}", p.name)),
    }
}

/// Attaches `monitor`, runs `p` to completion, detaches, renders the
/// report and reads the analysis counts with `read`.
fn monitored<M: Monitor + 'static>(
    proc: &mut Process,
    monitor: M,
    p: &Program,
    analysis: Analysis,
    tr: &mut Tracer,
    job: u64,
    read: impl FnOnce(&M, &mut JobCounts) -> (u64, u64),
) -> Result<(Observed, JobCounts), String> {
    let mut counts = JobCounts::default();
    let before = proc.probed_location_count() as u64;
    let m = tr
        .span("core.attach", job, || proc.attach_monitor(monitor))
        .map_err(|e| format!("{}: attach: {e}", p.name))?;
    counts.probes_inserted = proc.probed_location_count() as u64 - before;
    let r = tr.span(analysis.exec_span(), job, || proc.invoke_export("run", &[Value::I32(p.n)]));
    let sum = checksum(p, r)?;
    tr.span("core.detach", job, || proc.detach_monitor(m.handle()))
        .map_err(|e| format!("{}: detach: {e}", p.name))?;
    counts.probes_removed = counts.probes_inserted;
    let report = tr.span("monitors.report", job, || m.report());
    if report.title.is_empty() {
        return Err(format!("{}: empty report", p.name));
    }
    let (a, b) = read(&m.borrow(), &mut counts);
    counts.stats = proc.stats();
    Ok((Observed { checksum: sum, a, b }, counts))
}

/// One job: bytes → process → analysis → checked-ready output.
///
/// The counts each analysis reports: hotness — instructions executed;
/// branch — taken and not-taken totals; calltree — calls recorded;
/// trace — stream length and FNV-1a hash; coverage — instructions
/// covered.
pub fn run_job(
    p: &Program,
    analysis: Analysis,
    config: &EngineConfig,
    tr: &mut Tracer,
    job: u64,
) -> Result<(Observed, JobCounts), String> {
    let mut proc = load(p, config, tr, job)?;
    match analysis {
        Analysis::None => {
            let r = tr
                .span(analysis.exec_span(), job, || proc.invoke_export("run", &[Value::I32(p.n)]));
            let sum = checksum(p, r)?;
            Ok((
                Observed { checksum: sum, a: 0, b: 0 },
                JobCounts { stats: proc.stats(), ..JobCounts::default() },
            ))
        }
        Analysis::Hotness => {
            monitored(&mut proc, HotnessMonitor::new(), p, analysis, tr, job, |m, c| {
                c.fires = m.total();
                (m.total(), 0)
            })
        }
        Analysis::Branch => {
            monitored(&mut proc, BranchMonitor::new(), p, analysis, tr, job, |m, c| {
                c.fires = m.total_fires();
                m.site_stats().iter().fold((0, 0), |(t, n), (_, a, b)| (t + a, n + b))
            })
        }
        Analysis::CallTree => {
            let r = monitored(&mut proc, CallTreeMonitor::new(), p, analysis, tr, job, |m, _| {
                (m.rows().iter().map(|r| r.1).sum(), 0)
            });
            r.map(|(o, mut c)| {
                c.fires = c.stats.probe_fires;
                (o, c)
            })
        }
        Analysis::Trace => monitored(
            &mut proc,
            StreamingTraceMonitor::in_memory(),
            p,
            analysis,
            tr,
            job,
            |m, c| {
                let data = m.trace_data().unwrap_or_default();
                let k = m.counters();
                c.fires = k.events;
                c.trace_bytes = k.bytes;
                c.trace_branches = k.branches;
                (data.len() as u64, fnv1a(&data))
            },
        ),
        Analysis::Coverage => {
            monitored(&mut proc, CoverageMonitor::new(), p, analysis, tr, job, |m, _| {
                (m.covered().len() as u64, 0)
            })
        }
    }
}

/// `probed-exec`'s fixed program set: Richards with a large loop count,
/// five medium PolyBench kernels, and the corpus keccak and crc32 at a
/// large `n`.
pub fn probed_exec_programs() -> Vec<Program> {
    let mut out = vec![{
        let b = richards_benchmark(RICHARDS_LOOPS);
        Program::from_module("richards", &b.module, b.n)
    }];
    for b in polybench_suite(Scale::Medium) {
        if let Some((_, n)) = PROBED_POLYBENCH.iter().find(|(name, _)| *name == b.name) {
            out.push(Program::from_module(b.name, &b.module, *n));
        }
    }
    for e in corpus::corpus(Scale::Medium) {
        if let Some((_, n)) = PROBED_CORPUS.iter().find(|(name, _)| *name == e.name) {
            out.push(Program {
                name: e.name.into(),
                bytes: e.bytes,
                n: *n,
                imports: e.uses_imports,
            });
        }
    }
    out
}

// Sizes put every `probed-exec` job at roughly 25–40 ms uninstrumented
// on a 2-core x86-64 host, so the per-job front end and probe writes stay
// near 1% of job time.

/// Richards loop count in `probed-exec`.
const RICHARDS_LOOPS: i32 = 50_000;
/// The PolyBench kernels of `probed-exec` and their `n`.
const PROBED_POLYBENCH: [(&str, i32); 5] =
    [("gemm", 60), ("3mm", 46), ("jacobi-2d", 70), ("seidel-2d", 70), ("floyd-warshall", 50)];
/// The corpus programs of `probed-exec` and their `n`.
const PROBED_CORPUS: [(&str, i32); 2] = [("keccak", 600), ("crc32", 400)];

/// The ingestion corpus at small scale, as `probe-churn` and the
/// reference table see it.
pub fn churn_corpus() -> Vec<Program> {
    corpus::corpus(Scale::Small)
        .into_iter()
        .map(|e| Program {
            name: format!("corpus-{}", e.name),
            bytes: e.bytes,
            n: e.n,
            imports: e.uses_imports,
        })
        .collect()
}
