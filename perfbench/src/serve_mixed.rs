//! `serve-mixed`: an open loop. The main thread sends seeded Poisson
//! arrivals into one `ServeEngine` with a worker per core, and does
//! nothing else but sleep and submit. Traffic is weighted toward short
//! High-priority `interactive` requests, with Normal `batch` PolyBench
//! jobs and Low `background` Richards and cubic-kernel jobs; every job
//! carries a hotness monitor. Modules repeat, so the artifact cache is
//! warm. This is the only workload that exercises admission, queueing,
//! fuel slicing, stealing, migration and tenant budgets.

use std::time::{Duration, Instant};

use wizard_engine::{Shims, Value};
use wizard_monitors::HotnessMonitor;
use wizard_pool::{Job, JobHandle, Priority, ServeConfig, ServeEngine, ServeOutcome, Submit};
use wizard_suites::randgen::Rng;
use wizard_suites::{corpus, polybench_suite, richards_benchmark, Scale};

use crate::programs::{result_bits, Analysis, Observed, Program};
use crate::reference::Reference;
use crate::spans::Tracer;
use crate::stats::{self, Pct};
use crate::Metrics;

/// Offered rate at `lo`, jobs/s: about half of what the engine sustained
/// (800–1000 jobs/s) on a 2-core x86-64 host when the benchmark was
/// defined.
pub const LO_RATE: f64 = 450.0;
/// Offered rate at `hi`: about 85% of that capacity.
pub const HI_RATE: f64 = 750.0;
/// The capacity ladder, jobs/s, extending above that capacity.
pub const LADDER: [f64; 9] = [600.0, 700.0, 800.0, 900.0, 1000.0, 1100.0, 1200.0, 1350.0, 1500.0];
/// An offered rate well above capacity: the engine runs flat out, and its
/// completions per second measure its throughput.
pub const SATURATING_RATE: f64 = 3000.0;
/// A ladder rate is sustained only while interactive p99 stays under
/// this limit.
pub const INTERACTIVE_P99_LIMIT_MS: f64 = 50.0;

/// Richards loop count of the `background` class.
const BACKGROUND_RICHARDS_LOOPS: i32 = 5000;
/// Fuel the `background` tenant may burn per fairness round (a round is
/// `ServeConfig::default().round_fuel`, one million units).
const BACKGROUND_QUANTUM: u64 = 200_000;

/// One traffic class: its tenant, priority, share of arrivals and
/// programs.
struct Class {
    tenant: &'static str,
    priority: Priority,
    weight: u64,
    programs: Vec<(Program, Observed)>,
}

/// The three classes' program sets, for the reference table.
pub fn programs() -> Vec<Program> {
    class_programs().into_iter().flat_map(|(_, _, _, ps)| ps).collect()
}

/// `(tenant, priority, weight, programs)` of each traffic class.
fn class_programs() -> Vec<(&'static str, Priority, u64, Vec<Program>)> {
    let interactive = corpus::corpus(Scale::Test)
        .into_iter()
        .filter(|e| matches!(e.name, "crc32" | "base64" | "hashtable"))
        .map(|e| Program {
            name: format!("test-{}", e.name),
            bytes: e.bytes,
            n: e.n,
            imports: e.uses_imports,
        })
        .collect();
    let pb = polybench_suite(Scale::Small);
    let batch = pb
        .iter()
        .filter(|b| matches!(b.name, "gemm" | "atax" | "bicg" | "mvt" | "jacobi-1d" | "trisolv"))
        .map(|b| Program::from_module(format!("small-{}", b.name), &b.module, b.n))
        .collect();
    let mut background: Vec<Program> = pb
        .iter()
        .filter(|b| wizard_suites::polybench::is_cubic(b.name))
        .map(|b| Program::from_module(format!("small-{}", b.name), &b.module, b.n))
        .collect();
    let r = richards_benchmark(BACKGROUND_RICHARDS_LOOPS);
    background.push(Program::from_module("richards-bg", &r.module, r.n));
    vec![
        ("interactive", Priority::High, 80, interactive),
        ("batch", Priority::Normal, 15, batch),
        ("background", Priority::Low, 5, background),
    ]
}

/// Inputs and the running engine of one run.
pub struct State {
    engine: ServeEngine,
    classes: Vec<Class>,
    rng: Rng,
}

/// Builds the programs, starts the engine and warms its artifact cache
/// with one checked request per program.
pub fn setup(seed: u64) -> Result<State, String> {
    let reference = Reference::load()?;
    let mut classes = Vec::new();
    for (tenant, priority, weight, ps) in class_programs() {
        let mut programs = Vec::new();
        for p in ps {
            let want = reference.row(&p.name, Analysis::Hotness)?;
            programs.push((p, want));
        }
        classes.push(Class { tenant, priority, weight, programs });
    }
    // Workers default to one per core. The queue holds a whole saturating
    // chunk, so no request is refused; the background tenant runs under a
    // fuel budget, so tenant throttling is exercised.
    let config = ServeConfig { queue_capacity: 1 << 16, ..ServeConfig::default() }
        .tenant_budget("background", BACKGROUND_QUANTUM);
    let engine = ServeEngine::new(config);
    let st = State { engine, classes, rng: Rng::new(seed) };
    let mut off = Tracer::new(false);
    for c in 0..st.classes.len() {
        for k in 0..st.classes[c].programs.len() {
            let h = submit(&st, c, k, &mut off, 0)
                .handle()
                .ok_or_else(|| "warm-up request refused".to_string())?;
            let out = h.wait_timeout(Duration::from_secs(60));
            check(&st.classes[c].programs[k], out.as_ref())?;
        }
    }
    Ok(st)
}

/// Decodes the request's bytes into a job and submits it.
fn submit(st: &State, class: usize, k: usize, tr: &mut Tracer, id: u64) -> Submit {
    let c = &st.classes[class];
    let p = &c.programs[k].0;
    let module = tr
        .span("wasm.decode", id, || wizard_wasm::decode::decode(&p.bytes))
        .expect("benchmark programs decode");
    let mut job = Job::new(p.name.clone(), module.clone(), "run", vec![Value::I32(p.n)])
        .for_tenant(c.tenant)
        .at_priority(c.priority)
        .with_monitor(HotnessMonitor::new);
    if p.imports {
        job = job.with_linker(move || {
            Shims::standard().linker_for(&module).expect("corpus module links against shims")
        });
    }
    tr.span("pool.try_submit", id, || st.engine.try_submit(job))
}

/// Checks an outcome against the program's reference row.
fn check(p: &(Program, Observed), out: Option<&ServeOutcome>) -> Result<(), String> {
    let out = out.ok_or_else(|| format!("{}: no outcome", p.0.name))?;
    let values = out.status.values().ok_or_else(|| format!("{}: {:?}", p.0.name, out.status))?;
    let total = out
        .report
        .as_ref()
        .and_then(|r| r.get("summary"))
        .and_then(|s| s.count_of("total instruction executions"));
    let total = total.ok_or_else(|| format!("{}: report lacks the total", p.0.name))?;
    let got = Observed { checksum: result_bits(&p.0, values)?, a: total, b: 0 };
    if got == p.1 {
        Ok(())
    } else {
        Err(format!("{}: got {got:?}, reference {:?}", p.0.name, p.1))
    }
}

/// One finished (or failed) request.
#[derive(Debug, Clone)]
pub struct Request {
    /// Traffic class index (0 = interactive).
    pub class: usize,
    /// Scheduled send time → outcome, ms; infinite when failed.
    pub latency_ms: f64,
    /// Admission → first slice, ms.
    pub queue_ms: f64,
    /// Latency minus queue delay, ms.
    pub service_ms: f64,
    /// Fuel slices and cross-worker migrations.
    pub slices: u64,
    /// Migrations.
    pub migrations: u64,
    /// Whether the outcome arrived and matched the reference.
    pub ok: bool,
}

/// One open-loop window at a fixed offered rate.
#[derive(Debug, Default, Clone)]
pub struct Window {
    /// Offered rate, jobs/s.
    pub rate: f64,
    /// Every request sent.
    pub requests: Vec<Request>,
    /// How late each send was against its schedule, ms.
    pub lag_ms: Vec<f64>,
    /// Jobs admitted but unfinished, sampled across the window.
    pub backlog: Vec<u64>,
    /// Submissions the engine did not accept.
    pub rejected: u64,
    /// From the window's start to the last job's finalization (summed over
    /// merged windows).
    pub busy: Duration,
}

impl Window {
    /// Windows at the same rate pooled into one.
    pub fn merged(chunks: &[Window]) -> Window {
        let mut all = Window::default();
        for w in chunks {
            all.rate = w.rate;
            all.requests.extend_from_slice(&w.requests);
            all.lag_ms.extend_from_slice(&w.lag_ms);
            all.backlog.extend_from_slice(&w.backlog);
            all.rejected += w.rejected;
            all.busy += w.busy;
        }
        all
    }

    /// Correctly checked jobs per second of [`Window::busy`].
    pub fn throughput(&self) -> f64 {
        let ok = self.requests.len() as u64 - self.failed();
        ok as f64 / self.busy.as_secs_f64().max(1e-9)
    }

    /// Failed requests.
    pub fn failed(&self) -> u64 {
        self.requests.iter().filter(|r| !r.ok).count() as u64
    }

    /// Latency percentile over the requests `keep` selects.
    pub fn latency(&self, q: f64, keep: impl Fn(&Request) -> bool) -> Pct {
        let xs = self.requests.iter().filter(|r| keep(r)).map(|r| r.latency_ms).collect();
        stats::pct(&stats::sorted(xs), q)
    }

    /// Backlog growth across the window, scaled so that 1 is the limit:
    /// the mean backlog over the second half against twice that of the
    /// first half, with slack for the jobs the workers hold.
    pub fn backlog_growth(&self, workers: usize) -> f64 {
        let half = self.backlog.len() / 2;
        if half == 0 {
            return 0.0;
        }
        let mean = |xs: &[u64]| xs.iter().sum::<u64>() as f64 / xs.len() as f64;
        mean(&self.backlog[half..]) / (2.0 * mean(&self.backlog[..half]) + 4.0 * workers as f64)
    }

    /// How close the window came to the sustained-rate limits, where 1 is
    /// the limit: interactive p99 against [`INTERACTIVE_P99_LIMIT_MS`] and
    /// backlog growth, whichever is worse; infinite once a request fails.
    pub fn load_score(&self, workers: usize) -> f64 {
        if self.failed() > 0 {
            return f64::INFINITY;
        }
        let p99 = self.latency(0.99, |r| r.class == 0).value / INTERACTIVE_P99_LIMIT_MS;
        p99.max(self.backlog_growth(workers))
    }
}

/// The highest sustained rate: between the last ladder rate whose load
/// score is under 1 and the first one at or over it, interpolated where
/// the log of the score crosses 0. `ladder` is `(rate, score)` ascending.
pub fn max_rate(ladder: &[(f64, f64)]) -> f64 {
    let Some(fail) = ladder.iter().position(|(_, s)| *s >= 1.0) else {
        return ladder.last().map_or(0.0, |(r, _)| *r);
    };
    let (r2, s2) = ladder[fail];
    if fail == 0 {
        return r2 / s2;
    }
    let (r1, s1) = ladder[fail - 1];
    if !s2.is_finite() {
        return r1;
    }
    let (l1, l2) = (s1.max(1e-9).ln(), s2.ln());
    r1 + (r2 - r1) * (-l1 / (l2 - l1)).clamp(0.0, 1.0)
}

/// A request's latency from its scheduled send time `due`: the delay
/// until `try_submit` returned plus the engine's latency, which starts at
/// admission inside `try_submit` (so that call's tail is counted twice; it
/// is a few microseconds).
pub fn scheduled_latency(due: Instant, returned: Instant, engine: Duration) -> Duration {
    returned.saturating_duration_since(due) + engine
}

/// Exponential inter-arrival gap for `rate`.
fn gap(rng: &mut Rng, rate: f64) -> f64 {
    let u = (rng.next() >> 11) as f64 / (1u64 << 53) as f64;
    -(1.0 - u).ln() / rate
}

/// Picks a class by weight, then a program uniformly.
fn pick(st: &mut State) -> (usize, usize) {
    let total: u64 = st.classes.iter().map(|c| c.weight).sum();
    let mut x = st.rng.below(total);
    let mut c = 0;
    while x >= st.classes[c].weight {
        x -= st.classes[c].weight;
        c += 1;
    }
    let k = st.rng.below(st.classes[c].programs.len() as u64) as usize;
    (c, k)
}

/// A submitted request awaiting its outcome.
struct Sent {
    class: usize,
    k: usize,
    /// When it was due to be sent.
    due: Instant,
    /// When `try_submit` returned.
    returned: Instant,
    handle: Option<JobHandle>,
    id: u64,
}

/// Picks and submits one request due at `due`.
fn send(st: &mut State, due: Instant, tr: &mut Tracer, id: &mut u64) -> Sent {
    let (class, k) = pick(st);
    *id += 1;
    let handle = submit(st, class, k, tr, *id).handle();
    Sent { class, k, due, returned: Instant::now(), handle, id: *id }
}

/// Waits (through `JobHandle::wait_timeout` only, until `deadline`) for
/// the outcome of `s`, checks it and records it in `w`, whose sending
/// started at `start`.
fn collect(
    st: &State,
    s: Sent,
    w: &mut Window,
    start: Instant,
    deadline: Instant,
    tr: &mut Tracer,
) {
    w.rejected += u64::from(s.handle.is_none());
    let out = s.handle.as_ref().and_then(|h| {
        tr.span("pool.wait_timeout", s.id, || {
            h.wait_timeout(deadline.saturating_duration_since(Instant::now()))
        })
    });
    if let Some(o) = &out {
        w.busy = w.busy.max((s.returned + o.latency).saturating_duration_since(start));
    }
    let ok = check(&st.classes[s.class].programs[s.k], out.as_ref());
    if let Err(e) = &ok {
        eprintln!("serve-mixed: request {} failed: {e}", s.id);
    }
    let (latency, queue, slices, migrations) = match &out {
        Some(o) => {
            (scheduled_latency(s.due, s.returned, o.latency), o.queue_delay, o.slices, o.migrations)
        }
        None => (Duration::MAX, Duration::ZERO, 0, 0),
    };
    let ms = |d: Duration| d.as_secs_f64() * 1e3;
    let ok = ok.is_ok();
    w.requests.push(Request {
        class: s.class,
        latency_ms: if ok { ms(latency) } else { f64::INFINITY },
        queue_ms: ms(queue),
        service_ms: ms(latency.saturating_sub(queue)),
        slices,
        migrations,
        ok,
    });
}

/// How long a window waits for its outcomes once sending has stopped.
const COLLECT_TIMEOUT: Duration = Duration::from_secs(60);

/// Sends Poisson arrivals at `rate` for `seconds`, then collects every
/// outcome.
pub fn window(st: &mut State, rate: f64, seconds: f64, tr: &mut Tracer, id: &mut u64) -> Window {
    let mut w = Window { rate, ..Window::default() };
    let mut sent: Vec<Sent> = Vec::new();
    let start = Instant::now();
    let mut due = gap(&mut st.rng, rate);
    let mut next_sample = 0.0;
    while due < seconds {
        let at = start + Duration::from_secs_f64(due);
        let now = Instant::now();
        if at > now {
            std::thread::sleep(at - now);
        }
        w.lag_ms.push(Instant::now().saturating_duration_since(at).as_secs_f64() * 1e3);
        sent.push(send(st, at, tr, id));
        if due >= next_sample {
            w.backlog.push(st.engine.in_flight());
            next_sample = due + 0.01;
        }
        due += gap(&mut st.rng, rate);
    }
    let deadline = Instant::now() + COLLECT_TIMEOUT;
    for s in sent {
        collect(st, s, &mut w, start, deadline, tr);
    }
    w
}

/// One client for `seconds`: each request is sent as soon as the previous
/// one's outcome arrived, so no request queues behind another.
pub fn solo(st: &mut State, seconds: f64, tr: &mut Tracer, id: &mut u64) -> Window {
    let mut w = Window::default();
    let start = Instant::now();
    while start.elapsed().as_secs_f64() < seconds {
        let s = send(st, Instant::now(), tr, id);
        collect(st, s, &mut w, start, Instant::now() + COLLECT_TIMEOUT, tr);
    }
    w
}

/// Everything one measured run of the open loop produced.
#[derive(Debug, Default)]
pub struct Measured {
    /// The one-client chunks.
    pub solo: Vec<Window>,
    /// The chunks at `lo`.
    pub lo: Vec<Window>,
    /// The chunks at `hi`.
    pub hi: Vec<Window>,
    /// The chunks at [`SATURATING_RATE`].
    pub saturated: Vec<Window>,
    /// Ladder windows, ascending, up to the first unsustained rate.
    pub ladder: Vec<Window>,
    /// Process CPU time ÷ wall time over all windows.
    pub cpu_parallelism: f64,
    /// Engine counters over the run.
    pub stats: wizard_engine::EngineStats,
    /// Peak resident set size at the end of the interleaved chunks, in MB:
    /// the ladder's overload backlog, whose size depends on where the
    /// ladder stops, is left out.
    pub peak_rss_mb: f64,
}

impl Measured {
    /// Every window of the run.
    fn windows(&self) -> impl Iterator<Item = &Window> {
        let chunks = self.solo.iter().chain(&self.lo).chain(&self.hi).chain(&self.saturated);
        chunks.chain(&self.ladder)
    }

    /// Requests sent and failed, over every window.
    pub fn counts(&self) -> (u64, u64) {
        (
            self.windows().map(|w| w.requests.len() as u64).sum(),
            self.windows().map(Window::failed).sum(),
        )
    }

    /// Saturated throughput: the median over the saturating chunks.
    pub fn throughput(&self) -> f64 {
        stats::median(&self.saturated.iter().map(Window::throughput).collect::<Vec<_>>())
    }

    /// Latency percentile of the one-client chunks: the median over the
    /// chunks of each chunk's percentile.
    pub fn solo_latency(&self, q: f64) -> Pct {
        let groups: Vec<Vec<f64>> =
            self.solo.iter().map(|w| w.requests.iter().map(|r| r.latency_ms).collect()).collect();
        stats::grouped_pct(&groups, q)
    }

    /// The highest sustained rate; see [`max_rate`].
    pub fn max_rate(&self, workers: usize) -> f64 {
        let scores: Vec<(f64, f64)> =
            self.ladder.iter().map(|w| (w.rate, w.load_score(workers))).collect();
        max_rate(&scores)
    }
}

/// Sends unmeasured traffic at `lo` for `seconds`.
pub fn warm_up(st: &mut State, seconds: f64) {
    window(st, LO_RATE, seconds, &mut Tracer::new(false), &mut 0);
}

/// Interleaved one-client, `lo`, `hi` and saturating chunks per run, so
/// that each of them samples the whole run rather than a few seconds of a
/// host whose speed drifts.
const CYCLES: usize = 10;

/// Spends 20% of `seconds` with one client, 20% at `lo`, 15% at `hi` and
/// 10% at [`SATURATING_RATE`], interleaved in [`CYCLES`] chunks each, then
/// climbs the ladder, 5% per rate, up to the first rate over the limit.
pub fn measure(st: &mut State, seconds: f64, tr: &mut Tracer, first_id: u64) -> Measured {
    let mut id = first_id;
    let workers = st.engine.workers();
    let before = st.engine.stats();
    let cpu0 = cpu_seconds();
    let start = Instant::now();
    let chunk = seconds / CYCLES as f64;
    let (mut solo_w, mut lo, mut hi, mut saturated) =
        (Vec::new(), Vec::new(), Vec::new(), Vec::new());
    for _ in 0..CYCLES {
        solo_w.push(solo(st, chunk * 0.2, tr, &mut id));
        lo.push(window(st, LO_RATE, chunk * 0.2, tr, &mut id));
        hi.push(window(st, HI_RATE, chunk * 0.15, tr, &mut id));
        saturated.push(window(st, SATURATING_RATE, chunk * 0.1, tr, &mut id));
    }
    let peak_rss_mb = crate::peak_rss_mb();
    let mut ladder = Vec::new();
    for rate in LADDER {
        let w = window(st, rate, seconds * 0.05, tr, &mut id);
        let stop = w.load_score(workers) >= 1.0;
        ladder.push(w);
        if stop {
            break;
        }
    }
    let pooled = [Window::merged(&solo_w), Window::merged(&lo), Window::merged(&hi)];
    let sat: Vec<f64> = saturated.iter().map(Window::throughput).collect();
    eprintln!("serve-mixed: saturated throughput {:.1} jobs/s (median chunk)", stats::median(&sat));
    for w in pooled.iter().chain(&ladder) {
        eprintln!(
            "serve-mixed: {:6.0} jobs/s offered, {} sent: p50/p90/p99 {:.3}/{:.3}/{:.3} ms, \
             interactive p50/p90/p99 {:.3}/{:.3}/{:.3} ms, load score {:.2}",
            w.rate,
            w.requests.len(),
            w.latency(0.5, |_| true).value,
            w.latency(0.9, |_| true).value,
            w.latency(0.99, |_| true).value,
            w.latency(0.5, |q| q.class == 0).value,
            w.latency(0.9, |q| q.class == 0).value,
            w.latency(0.99, |q| q.class == 0).value,
            w.load_score(workers),
        );
    }
    let wall = start.elapsed();
    let cpu = cpu_seconds() - cpu0;
    let after = st.engine.stats();
    let stats = wizard_engine::EngineStats {
        steals: after.steals - before.steals,
        budget_throttles: after.budget_throttles - before.budget_throttles,
        artifact_cache_hits: after.artifact_cache_hits - before.artifact_cache_hits,
        artifact_cache_misses: after.artifact_cache_misses - before.artifact_cache_misses,
        queue_depth_max: after.queue_depth_max,
        tier_ups: after.tier_ups - before.tier_ups,
        compiles: after.compiles - before.compiles,
        reg_demotions: after.reg_demotions - before.reg_demotions,
        probe_fires: after.probe_fires - before.probe_fires,
        fuel_consumed: after.fuel_consumed - before.fuel_consumed,
        suspensions: after.suspensions - before.suspensions,
        functions_lowered: after.functions_lowered - before.functions_lowered,
        functions_reg_lowered: after.functions_reg_lowered - before.functions_reg_lowered,
        invalidation_passes: after.invalidation_passes - before.invalidation_passes,
        overlay_copies: after.overlay_copies - before.overlay_copies,
        deopts: after.deopts - before.deopts,
        relower_passes: after.relower_passes - before.relower_passes,
        ..wizard_engine::EngineStats::default()
    };
    Measured {
        solo: solo_w,
        lo,
        hi,
        saturated,
        ladder,
        cpu_parallelism: cpu / wall.as_secs_f64(),
        stats,
        peak_rss_mb,
    }
}

/// Worker count of the running engine.
pub fn workers(st: &State) -> usize {
    st.engine.workers()
}

/// Process CPU time (user + system) from `/proc/self/stat`, in seconds;
/// 0 where that file does not exist.
pub fn cpu_seconds() -> f64 {
    let Ok(stat) = std::fs::read_to_string("/proc/self/stat") else { return 0.0 };
    // Fields after the parenthesised command name; utime and stime are
    // fields 14 and 15 of the whole line, in clock ticks (100 per second
    // on Linux).
    let Some(rest) = stat.rsplit(')').next() else { return 0.0 };
    let f: Vec<&str> = rest.split_whitespace().collect();
    let ticks = |i: usize| f.get(i).and_then(|x| x.parse::<u64>().ok()).unwrap_or(0);
    (ticks(11) + ticks(12)) as f64 / 100.0
}

/// The serve metrics shared by both runs.
pub fn serve_metrics(r: &Measured, workers: usize, m: &mut Metrics) {
    let all = |_: &Request| true;
    let (lo, hi) = (Window::merged(&r.lo), Window::merged(&r.hi));
    m.pct("serve_lo_p50_ms", lo.latency(0.50, all));
    m.pct("serve_lo_p99_ms", lo.latency(0.99, all));
    m.pct("serve_hi_p50_ms", hi.latency(0.50, all));
    m.pct("serve_hi_p99_ms", hi.latency(0.99, all));
    m.pct("serve_interactive_p99_ms", hi.latency(0.99, |q| q.class == 0));
    m.put("serve_max_rate_jobs_s", r.max_rate(workers));
}

/// Per-layer metrics of the traced run.
pub fn per_layer(r: &Measured, untraced: &Measured, tr: &Tracer, workers: usize, m: &mut Metrics) {
    let by_name = crate::spans::totals(tr.spans());
    let t = |name: &str| by_name.get(name).copied().unwrap_or_default();
    m.put("wasm.decode_us", t("wasm.decode").mean_self_us());
    m.put("pool.admit_us", t("pool.try_submit").mean_self_us());
    let s = &r.stats;
    let lookups = s.artifact_cache_hits + s.artifact_cache_misses;
    if lookups > 0 {
        m.put("pool.cache_hit_ratio", s.artifact_cache_hits as f64 / lookups as f64);
    }
    let sorted = |f: &dyn Fn(&Request) -> f64, w: &Window| {
        stats::sorted(w.requests.iter().filter(|q| q.ok).map(f).collect())
    };
    let (lo, hi) = (Window::merged(&r.lo), Window::merged(&r.hi));
    let queue = sorted(&|q| q.queue_ms, &hi);
    m.pct("pool.queue_delay_p50_ms", stats::pct(&queue, 0.50));
    m.pct("pool.queue_delay_p99_ms", stats::pct(&queue, 0.99));
    let service = sorted(&|q| q.service_ms, &lo);
    m.pct("pool.service_p50_ms", stats::pct(&service, 0.50));
    m.pct("pool.service_p99_ms", stats::pct(&service, 0.99));
    let jobs: Vec<&Request> = lo.requests.iter().chain(&hi.requests).collect();
    let per_job = |f: &dyn Fn(&Request) -> u64| {
        jobs.iter().map(|q| f(q)).sum::<u64>() as f64 / jobs.len().max(1) as f64
    };
    m.put("pool.slices_per_job", per_job(&|q| q.slices));
    m.put("pool.migrations_per_job", per_job(&|q| q.migrations));
    m.put("pool.steals", s.steals as f64);
    m.put("pool.budget_throttles", s.budget_throttles as f64);
    m.put("pool.queue_depth_max", s.queue_depth_max as f64);
    m.put("pool.rejected", r.windows().map(|w| w.rejected).sum::<u64>() as f64);
    m.put("pool.cpu_parallelism", r.cpu_parallelism);
    let lags = stats::sorted(r.windows().flat_map(|w| w.lag_ms.clone()).collect());
    m.pct("bench.generator_lag_ms", stats::pct(&lags, 0.99));

    let (sent, failed) = r.counts();
    let n = sent.max(1) as f64;
    m.put("core.tier_ups", s.tier_ups as f64 / n);
    m.put("core.compiles", s.compiles as f64 / n);
    m.put("core.reg_demotions", s.reg_demotions as f64 / n);
    m.put("core.probe_fires", s.probe_fires as f64 / n);
    m.put("core.fuel_consumed", s.fuel_consumed as f64 / n);
    m.put("core.suspensions", s.suspensions as f64 / n);
    m.put("core.functions_lowered", s.functions_lowered as f64 / n);
    m.put("core.functions_reg_lowered", s.functions_reg_lowered as f64 / n);
    m.put("core.invalidation_passes", s.invalidation_passes as f64 / n);
    m.put("core.overlay_copies", s.overlay_copies as f64 / n);
    m.put("core.deopts", s.deopts as f64 / n);
    m.put("core.relower_passes", s.relower_passes as f64 / n);
    m.put("bench.failed_share", failed as f64 / n);
    let (traced_p50, untraced_p50) = (r.solo_latency(0.5).value, untraced.solo_latency(0.5).value);
    if untraced_p50 > 0.0 {
        m.put("bench.trace_overhead", traced_p50 / untraced_p50 - 1.0);
    }
    serve_metrics(untraced, workers, m);
}

#[cfg(test)]
mod tests {
    use super::*;

    fn req(class: usize, latency_ms: f64, ok: bool) -> Request {
        Request { class, latency_ms, queue_ms: 0.0, service_ms: 0.0, slices: 1, migrations: 0, ok }
    }

    #[test]
    fn failed_requests_miss_every_limit() {
        let mut w = Window { rate: 1.0, ..Window::default() };
        for k in 0..99 {
            w.requests.push(req(0, 1.0 + k as f64 / 100.0, true));
        }
        assert!(w.load_score(2) < 1.0);
        w.requests.push(req(0, f64::INFINITY, false));
        assert_eq!(w.load_score(2), f64::INFINITY);
        assert_eq!(w.latency(1.0, |_| true).value, f64::INFINITY);
        assert!(w.latency(0.99, |_| true).value < 2.0);
    }

    #[test]
    fn backlog_growth_is_detected() {
        let steady = Window { backlog: vec![5, 7, 4, 6, 5, 8, 6, 5], ..Window::default() };
        assert!(steady.backlog_growth(2) < 1.0);
        let growing = Window { backlog: (0..40).map(|k| k * 3).collect(), ..Window::default() };
        assert!(growing.backlog_growth(2) > 1.0);
    }

    #[test]
    fn max_rate_interpolates_between_ladder_rates() {
        assert_eq!(max_rate(&[(100.0, 0.5), (200.0, 0.9)]), 200.0);
        assert_eq!(max_rate(&[(100.0, 0.5), (200.0, f64::INFINITY)]), 100.0);
        assert_eq!(max_rate(&[(100.0, 2.0)]), 50.0);
        // ln 0.5 = -ln 2: the score crosses 1 halfway in log space.
        let r = max_rate(&[(100.0, 0.5), (200.0, 2.0), (300.0, 9.0)]);
        assert!((r - 150.0).abs() < 1e-9, "{r}");
    }

    #[test]
    fn latency_runs_from_the_scheduled_send_time() {
        let due = Instant::now();
        let returned = due + Duration::from_millis(5);
        let engine = Duration::from_millis(2);
        assert_eq!(scheduled_latency(due, returned, engine), Duration::from_millis(7));
        // A send ahead of schedule never shortens the latency below the
        // engine's own.
        assert_eq!(scheduled_latency(returned, due, engine), engine);
    }

    #[test]
    fn poisson_gaps_have_the_offered_mean() {
        let mut rng = Rng::new(9);
        let n = 20_000;
        let mean = (0..n).map(|_| gap(&mut rng, 500.0)).sum::<f64>() / n as f64;
        assert!((mean * 500.0 - 1.0).abs() < 0.03, "mean gap {mean}");
    }
}
