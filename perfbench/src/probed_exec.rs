//! `probed-exec`: one client thread runs a fixed program set under every
//! analysis, in a seeded interleaved order. Tiered execution and probe
//! firing do nearly all the work; the front end and the probe write path
//! are predicted to stay well under 1% of job time.

use std::time::{Duration, Instant};

use wizard_engine::EngineConfig;
use wizard_suites::randgen::Rng;

use crate::closed::{Closed, JobRecord};
use crate::programs::{probed_exec_programs, run_job, Analysis, Program};
use crate::reference::Reference;
use crate::spans::Tracer;

/// Inputs of one run.
pub struct State {
    programs: Vec<Program>,
    reference: Reference,
    rng: Rng,
}

/// Builds the program set and loads the reference table.
pub fn setup(seed: u64) -> Result<State, String> {
    let programs = probed_exec_programs();
    let reference = Reference::load()?;
    Ok(State { programs, reference, rng: Rng::new(seed) })
}

/// Seeded Fisher–Yates shuffle.
pub fn shuffle<T>(xs: &mut [T], rng: &mut Rng) {
    for i in (1..xs.len()).rev() {
        xs.swap(i, rng.below(i as u64 + 1) as usize);
    }
}

/// Runs whole rounds (every program under every analysis once, in a
/// fresh seeded order) until `seconds` have passed.
pub fn measure(st: &mut State, seconds: f64, tr: &mut Tracer, first_id: u64) -> Closed {
    let config = EngineConfig::default();
    let mut pairs: Vec<(usize, Analysis)> = (0..st.programs.len())
        .flat_map(|p| Analysis::PROBED.into_iter().map(move |a| (p, a)))
        .collect();
    let mut out = Closed::default();
    let mut id = first_id;
    let start = Instant::now();
    while start.elapsed() < Duration::from_secs_f64(seconds) {
        let round = Instant::now();
        shuffle(&mut pairs, &mut st.rng);
        for &(pi, a) in &pairs {
            let p = &st.programs[pi];
            id += 1;
            let t0 = Instant::now();
            let span = tr.begin("job", id);
            let result = run_job(p, a, &config, tr, id);
            let ok = match &result {
                Ok((o, _)) => tr.span("bench.check", id, || st.reference.check(&p.name, a, o)),
                Err(e) => Err(e.clone()),
            };
            tr.end(span);
            let ms = t0.elapsed().as_secs_f64() * 1e3;
            if let Err(e) = &ok {
                eprintln!("probed-exec: job {id} failed: {e}");
            }
            out.jobs.push(JobRecord {
                program: pi,
                analysis: a,
                id,
                ms,
                ok: ok.is_ok(),
                bytes: p.bytes.len(),
                counts: result.map(|(_, c)| c).unwrap_or_default(),
            });
        }
        out.end_round(round.elapsed());
    }
    out
}

/// Program names, for the per-program breakdown.
pub fn program_names(st: &State) -> Vec<String> {
    st.programs.iter().map(|p| p.name.clone()).collect()
}
