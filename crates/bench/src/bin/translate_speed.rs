//! Translation-pipeline speed over the real-module corpus: per-module
//! decode, validate, artifact-build, and lower time from raw `.wasm`
//! bytes, plus cold vs warm instantiation through `wizard-pool`'s
//! `ArtifactCache`.
//!
//! Where `instantiate_throughput` isolates what a *shared artifact* buys
//! a fleet on synthetic workloads, this bench walks the checked-in
//! ingestion corpus (`wizard_suites::corpus`) — production-shaped modules
//! with imports, start functions, tables, and data segments — and times
//! each stage of the frontend the way an embedder pays for it:
//!
//! * `decode`   — raw bytes → `Module` (`wizard_wasm::decode`);
//! * `validate` — type/stack checking alone (`wizard_wasm::validate`);
//! * `artifact` — `ModuleArtifact::new`, i.e. validate + shared-code
//!   build, the cache-miss cost inside `ArtifactCache::lookup`;
//! * `lower`    — `lower_all()` on a pre-built artifact (pre-decoded
//!   sidetable form the JIT compiles from);
//! * `cold`/`warm` — `Process::new` from scratch vs `ArtifactCache`
//!   hit + `Process::instantiate` (link-only), imports resolved through
//!   the standard host shims.
//!
//! Emits `BENCH_translate.json` (schema in `EXPERIMENTS.md`) with the
//! shared metadata block. Outside smoke mode the corpus-total cold
//! instantiation time is asserted slower than the warm path — the warm
//! path skips validation and shares code, so if this ever inverts, the
//! cache is not actually amortizing the frontend.
//!
//! Environment: `WIZARD_SCALE`, `WIZARD_RUNS`, `WIZARD_SMOKE`.

use std::sync::Arc;
use std::time::{Duration, Instant};

use wizard_bench::json::Json;
use wizard_bench::metadata;
use wizard_engine::store::Linker;
use wizard_engine::{EngineConfig, ModuleArtifact, Process, Shims};
use wizard_pool::ArtifactCache;
use wizard_suites::corpus::{corpus, CorpusEntry};
use wizard_wasm::decode::decode;
use wizard_wasm::validate::validate;

/// Best-of-3 batches, mean within a batch (same discipline as the other
/// figure emitters).
fn time_per_iter(iters: u32, mut work: impl FnMut()) -> Duration {
    let mut best = Duration::MAX;
    for _ in 0..3 {
        let start = Instant::now();
        for _ in 0..iters {
            work();
        }
        best = best.min(start.elapsed() / iters);
    }
    best
}

struct Row {
    name: &'static str,
    input_bytes: usize,
    decode: Duration,
    validate: Duration,
    artifact: Duration,
    lower: Duration,
    cold: Duration,
    warm: Duration,
    cache_hits: u64,
    cache_misses: u64,
    uses_imports: bool,
}

fn measure(e: &CorpusEntry, iters: u32) -> Row {
    let config = EngineConfig::default();
    let shims = Shims::standard();
    let linker = if e.uses_imports {
        shims.linker_for(&e.module).expect("standard shims satisfy the corpus")
    } else {
        Linker::new()
    };

    let dec = time_per_iter(iters, || {
        let m = decode(&e.bytes).expect("corpus binary decodes");
        std::hint::black_box(&m);
    });
    let module = decode(&e.bytes).expect("corpus binary decodes");

    let val = time_per_iter(iters, || {
        let meta = validate(&module).expect("corpus module validates");
        std::hint::black_box(&meta);
    });

    let art = time_per_iter(iters, || {
        let a = ModuleArtifact::new(module.clone()).expect("corpus module validates");
        std::hint::black_box(&a);
    });

    // Lowering memoizes into the artifact, so each timed call needs a
    // fresh artifact; those are pre-built OUTSIDE the timed region, with
    // the iteration count capped to bound the pre-build pool.
    let lower_iters = iters.min(16);
    let mut pool: Vec<ModuleArtifact> = (0..3 * lower_iters)
        .map(|_| ModuleArtifact::new(module.clone()).expect("corpus module validates"))
        .collect();
    let low = time_per_iter(lower_iters, || {
        let a = pool.pop().expect("pre-built artifact available");
        a.lower_all();
        std::hint::black_box(&a);
    });

    // Cold: the whole pipeline per instantiation (what an embedder pays
    // without the cache).
    let cold = time_per_iter(iters, || {
        let p = Process::new(module.clone(), config.clone(), &linker).expect("instantiates");
        std::hint::black_box(&p);
    });

    // Warm: every instantiation goes through the pool's content-addressed
    // cache — one miss up front (primed here, with lowering forced), then
    // hit + link-only `Process::instantiate` per iteration.
    let cache = ArtifactCache::new();
    let (primed, hit) = cache.lookup(&module).expect("corpus module validates");
    assert!(!hit, "{}: first cache lookup must miss", e.name);
    primed.lower_all();
    let warm = time_per_iter(iters, || {
        let (artifact, hit) = cache.lookup(&module).expect("corpus module validates");
        assert!(hit, "warm lookups must hit the primed cache");
        let p = Process::instantiate(Arc::clone(&artifact), config.clone(), &linker)
            .expect("instantiates");
        std::hint::black_box(&p);
    });
    assert_eq!(cache.misses(), 1, "{}: only the priming lookup may miss", e.name);

    Row {
        name: e.name,
        input_bytes: e.bytes.len(),
        decode: dec,
        validate: val,
        artifact: art,
        lower: low,
        cold,
        warm,
        cache_hits: cache.hits(),
        cache_misses: cache.misses(),
        uses_imports: e.uses_imports,
    }
}

fn us(d: Duration) -> f64 {
    d.as_secs_f64() * 1e6
}

fn main() {
    let scale = wizard_bench::scale();
    let iters = match scale {
        wizard_suites::Scale::Test => 8,
        wizard_suites::Scale::Small => 60,
        wizard_suites::Scale::Medium => 200,
    } * wizard_bench::runs();

    let entries = corpus(scale);

    println!("=== translation speed over the ingestion corpus ===");
    println!(
        "{:<12} {:>7} {:>10} {:>10} {:>10} {:>10} {:>10} {:>10} {:>8}",
        "module", "bytes", "decode", "validate", "artifact", "lower", "cold", "warm", "speedup"
    );

    let rows: Vec<Row> = entries.iter().map(|e| measure(e, iters)).collect();

    let mut series = Vec::new();
    let mut cold_total = Duration::ZERO;
    let mut warm_total = Duration::ZERO;
    let mut pipeline_total = Duration::ZERO;
    for r in &rows {
        let speedup = r.cold.as_secs_f64() / r.warm.as_secs_f64().max(1e-12);
        cold_total += r.cold;
        warm_total += r.warm;
        pipeline_total += r.decode + r.validate + r.lower;
        println!(
            "{:<12} {:>7} {:>8.1}us {:>8.1}us {:>8.1}us {:>8.1}us {:>8.1}us {:>8.1}us {:>7.1}x",
            r.name,
            r.input_bytes,
            us(r.decode),
            us(r.validate),
            us(r.artifact),
            us(r.lower),
            us(r.cold),
            us(r.warm),
            speedup
        );
        series.push(Json::object([
            ("module", Json::str(r.name)),
            ("input_bytes", Json::num(r.input_bytes as f64)),
            ("decode_us", Json::num(us(r.decode))),
            ("validate_us", Json::num(us(r.validate))),
            ("artifact_build_us", Json::num(us(r.artifact))),
            ("lower_us", Json::num(us(r.lower))),
            ("cold_inst_us", Json::num(us(r.cold))),
            ("warm_inst_us", Json::num(us(r.warm))),
            ("warm_speedup", Json::num(speedup)),
            ("cache_hits", Json::num(r.cache_hits as f64)),
            ("cache_misses", Json::num(r.cache_misses as f64)),
            ("uses_imports", Json::num(f64::from(u8::from(r.uses_imports)))),
        ]));
    }

    let total_speedup = cold_total.as_secs_f64() / warm_total.as_secs_f64().max(1e-12);
    println!(
        "\ncorpus totals: cold {:.1}us, warm {:.1}us ({total_speedup:.2}x), \
         decode+validate+lower {:.1}us",
        us(cold_total),
        us(warm_total),
        us(pipeline_total)
    );

    // Assert before writing (matching the other emitters): a regression
    // run must not leave a failing row for trajectory tooling to ingest.
    if wizard_bench::smoke() {
        println!("(smoke mode: skipping the warm-faster-than-cold assertion)");
    } else {
        assert!(
            total_speedup >= 1.05,
            "cache-warm instantiation must beat the cold pipeline across the corpus \
             (got {total_speedup:.2}x)"
        );
    }

    let mut fields = metadata("translate_speed", &["corpus"], &EngineConfig::default());
    fields.push(("series".to_string(), Json::array(series)));
    fields.push((
        "summary".to_string(),
        Json::object([
            ("modules", Json::num(rows.len() as f64)),
            ("cold_total_us", Json::num(us(cold_total))),
            ("warm_total_us", Json::num(us(warm_total))),
            ("warm_speedup", Json::num(total_speedup)),
            ("pipeline_total_us", Json::num(us(pipeline_total))),
        ]),
    ));
    let doc = Json::Obj(fields);
    let path = "BENCH_translate.json";
    std::fs::write(path, format!("{doc}\n")).expect("write BENCH_translate.json");
    println!("wrote {path}");
}
