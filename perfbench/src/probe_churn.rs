//! `probe-churn`: one client thread works through a stream of distinct
//! modules delivered as bytes. Each job decodes, builds the artifact,
//! instantiates, attaches the self-removing `CoverageMonitor`, runs in
//! fuel-bounded slices while a breakpoint-style `ProbeBatch` between
//! slices inserts a new generic-probe set and removes the previous one,
//! then detaches and reports. Execution stays short, so the front end and
//! the probe write path dominate.

use std::cell::Cell;
use std::rc::Rc;
use std::time::{Duration, Instant};

use wizard_engine::{ClosureProbe, EngineConfig, ProbeBatch, ProbeId, RunOutcome, Value};
use wizard_monitors::util::all_sites;
use wizard_monitors::CoverageMonitor;
use wizard_suites::randgen::{random_module, Rng};
use wizard_wasm::module::FuncIdx;

use crate::closed::{Closed, JobRecord};
use crate::gen::churn_module;
use crate::programs::{churn_corpus, load, result_bits, Analysis, JobCounts, Observed, Program};
use crate::reference::{oracle, Reference};
use crate::spans::Tracer;

/// Seeded modules per run; jobs cycle through them in a seeded order.
const GENERATED: usize = 128;
/// Breakpoints per batch: between 1 and this many.
const MAX_BREAKPOINTS: u64 = 8;
/// Fuel slices per job, roughly: each job's slice is its reference
/// instruction count divided by a seeded value in `SLICES`.
const SLICES: std::ops::Range<u64> = 3..9;

/// One input of the stream.
struct Input {
    program: Program,
    expect: Observed,
    /// Instructions the job executes (from the reference run).
    instrs: u64,
    /// Every instruction location: the breakpoint candidates.
    sites: Vec<(FuncIdx, u32)>,
}

/// Inputs of one run.
pub struct State {
    inputs: Vec<Input>,
    rng: Rng,
}

/// Generates the seeded modules and computes their expected outputs on
/// the reference dispatch; the corpus programs take theirs from the
/// committed table. Generated modules that trap are skipped.
pub fn setup(seed: u64) -> Result<State, String> {
    let reference = Reference::load()?;
    let mut rng = Rng::new(seed);
    let mut inputs = Vec::new();
    for p in churn_corpus() {
        let cov = reference.row(&p.name, Analysis::Coverage)?;
        let hot = reference.row(&p.name, Analysis::Hotness)?;
        inputs.push(input(p, cov, hot.a));
    }
    let corpus = inputs.len();
    let mut k = 0;
    while inputs.len() < corpus + GENERATED {
        k += 1;
        let s = rng.next();
        let (module, n) =
            if k % 4 == 0 { (random_module(s), 1 + (s % 4) as i32) } else { (churn_module(s), 1) };
        let p = Program::from_module(format!("gen-{k}"), &module, n);
        let (Ok(cov), Ok(hot)) = (oracle(&p, Analysis::Coverage), oracle(&p, Analysis::Hotness))
        else {
            continue;
        };
        inputs.push(input(p, cov, hot.a));
    }
    Ok(State { inputs, rng })
}

fn input(program: Program, expect: Observed, instrs: u64) -> Input {
    let module = wizard_wasm::decode::decode(&program.bytes).expect("generated bytes decode");
    let sites = all_sites(&module).iter().map(|(f, i)| (*f, i.pc)).collect();
    Input { program, expect, instrs, sites }
}

/// One job; returns the output to check and the job's counts.
fn job(
    inp: &Input,
    rng: &mut Rng,
    config: &EngineConfig,
    tr: &mut Tracer,
    id: u64,
) -> Result<(Observed, JobCounts), String> {
    let p = &inp.program;
    let mut proc = load(p, config, tr, id)?;
    let mut counts = JobCounts::default();
    let cov = tr
        .span("core.attach", id, || proc.attach_monitor(CoverageMonitor::new()))
        .map_err(|e| format!("{}: attach: {e}", p.name))?;
    counts.probes_inserted = inp.sites.len() as u64;
    counts.probes_removed = inp.sites.len() as u64;

    let fuel = (inp.instrs / (SLICES.start + rng.below(SLICES.end - SLICES.start))).max(64);
    let hits = Rc::new(Cell::new(0u64));
    let mut live: Vec<ProbeId> = Vec::new();
    let span = tr.begin("core.exec.coverage", id);
    let mut r = proc.run_export_bounded("run", &[Value::I32(p.n)], fuel);
    tr.end(span);
    let values = loop {
        match r {
            Ok(RunOutcome::OutOfFuel) => {
                let mut batch = ProbeBatch::new();
                counts.probes_removed += live.len() as u64;
                for old in live.drain(..) {
                    batch.remove(old);
                }
                for _ in 0..1 + rng.below(MAX_BREAKPOINTS) {
                    let (func, pc) = inp.sites[rng.below(inp.sites.len() as u64) as usize];
                    let hits = Rc::clone(&hits);
                    batch.add_local(
                        func,
                        pc,
                        ClosureProbe::shared(move |_| {
                            hits.set(hits.get() + 1);
                        }),
                    );
                }
                live = tr
                    .span("core.apply_batch", id, || proc.apply_batch(batch))
                    .map_err(|e| format!("{}: apply_batch: {e}", p.name))?;
                counts.probes_inserted += live.len() as u64;
                let span = tr.begin("core.exec.coverage", id);
                r = proc.resume(fuel);
                tr.end(span);
            }
            Ok(RunOutcome::Done(v)) => break v,
            Err(t) => return Err(format!("{}: trap: {t}", p.name)),
        }
    };
    if !live.is_empty() {
        let mut batch = ProbeBatch::new();
        for old in live.drain(..) {
            batch.remove(old);
            counts.probes_removed += 1;
        }
        tr.span("core.apply_batch", id, || proc.apply_batch(batch))
            .map_err(|e| format!("{}: apply_batch: {e}", p.name))?;
    }
    tr.span("core.detach", id, || proc.detach_monitor(cov.handle()))
        .map_err(|e| format!("{}: detach: {e}", p.name))?;
    let report = tr.span("monitors.report", id, || cov.report());
    if report.title.is_empty() || proc.probed_location_count() != 0 {
        return Err(format!("{}: probes left behind after detach", p.name));
    }
    let checksum = result_bits(p, &values)?;
    counts.stats = proc.stats();
    counts.fires = hits.get();
    let covered = cov.borrow().covered().len() as u64;
    Ok((Observed { checksum, a: covered, b: 0 }, counts))
}

/// Runs jobs over the inputs in a seeded order until `seconds` have
/// passed, cycling the order so every input runs equally often.
pub fn measure(st: &mut State, seconds: f64, tr: &mut Tracer, first_id: u64) -> Closed {
    let config = EngineConfig::default();
    let mut order: Vec<usize> = (0..st.inputs.len()).collect();
    let mut out = Closed::default();
    let mut id = first_id;
    let start = Instant::now();
    while start.elapsed() < Duration::from_secs_f64(seconds) {
        let round = Instant::now();
        crate::probed_exec::shuffle(&mut order, &mut st.rng);
        for &k in &order {
            let inp = &st.inputs[k];
            id += 1;
            let t0 = Instant::now();
            let span = tr.begin("job", id);
            let result = job(inp, &mut st.rng, &config, tr, id);
            let ok = match &result {
                Ok((o, _)) if *o == inp.expect => Ok(()),
                Ok((o, _)) => {
                    Err(format!("{}: got {o:?}, want {:?}", inp.program.name, inp.expect))
                }
                Err(e) => Err(e.clone()),
            };
            tr.end(span);
            if let Err(e) = &ok {
                eprintln!("probe-churn: job {id} failed: {e}");
            }
            out.jobs.push(JobRecord {
                program: k,
                analysis: Analysis::Coverage,
                id,
                ms: t0.elapsed().as_secs_f64() * 1e3,
                ok: ok.is_ok(),
                bytes: inp.program.bytes.len(),
                counts: result.map(|(_, c)| c).unwrap_or_default(),
            });
        }
        out.end_round(round.elapsed());
    }
    out
}
