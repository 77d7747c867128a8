//! `apps-batch`: back-to-back passes over seven registry applications in a
//! closed loop, every run checked against a serial reference.

use std::time::{Duration, Instant};

use invector_harness::{registry, Kernel, RunRecord, RunSpec, Workload};
use invector_kernels::{ExecPolicy, Variant};

use crate::gen::Rng;
use crate::ladder::Stream;
use crate::metrics::Metrics;
use crate::stats::{median, summarize};
use crate::trace::Tracer;

/// The applications of one pass, in pass order.
pub const APPS: [&str; 7] = ["pagerank", "spmv", "sssp", "wcc", "euler", "moldyn", "agg"];

/// Graph scale factor: `higgs-twitter` at 2% of the paper's size (9,140
/// vertices, 300,000 edges), so one pass takes ~0.15 s on a 2-core host
/// and a 20 s run sees over a hundred passes (a p90 tail).
pub const SCALE: f64 = 0.02;

/// The run spec every application is prepared from. The seed picks the
/// SSSP source among the 64 lowest vertex ids, which the R-MAT generator
/// makes the hubs, so every source reaches the giant component.
pub fn spec(seed: u64) -> RunSpec {
    RunSpec {
        dataset: Some("higgs-twitter".into()),
        scale: SCALE,
        source: Rng::new(seed, 0x55).below(64) as i32,
        iters: 20,
        mesh: 64,
        lattice: 6,
        rows: 200_000,
        cardinality: 4096,
        dist: invector_agg::Distribution::Zipf,
    }
}

/// One prepared application and its serial reference.
pub struct App {
    kernel: &'static dyn Kernel,
    workload: Box<dyn Workload>,
    reference: RunRecord,
}

/// The prepared batch: every application plus the policy passes run under.
pub struct Batch {
    apps: Vec<App>,
    policy: ExecPolicy,
    /// Input descriptions, for the run's notes.
    pub inputs: Vec<String>,
}

/// Prepares every application and computes its serial single-thread
/// reference.
///
/// # Errors
///
/// Fails when an application rejects the spec.
pub fn setup(seed: u64, threads: usize, tr: &mut Tracer) -> Result<Batch, String> {
    let spec = spec(seed);
    let mut apps = Vec::with_capacity(APPS.len());
    let mut inputs = Vec::new();
    for name in APPS {
        let kernel = registry::lookup(name)?;
        let workload = tr.time("harness.Kernel::prepare", name, 0, || kernel.prepare(&spec))?;
        inputs.push(format!("{name}: {}", workload.describe()));
        let reference = workload.run(Variant::Serial, &ExecPolicy::with_threads(1));
        apps.push(App { kernel, workload, reference });
    }
    Ok(Batch { apps, policy: ExecPolicy::with_threads(threads), inputs })
}

/// What the pass loop observed.
#[derive(Debug, Default)]
pub struct Passes {
    /// Wall time of each full pass, milliseconds.
    pub pass_ms: Vec<f64>,
    /// Per application: wall time of each run, milliseconds.
    pub run_ms: Vec<Vec<f64>>,
    /// Updates the registry attributes to each pass.
    pub updates_per_pass: u64,
    /// Application runs attempted.
    pub attempted: u64,
    /// Runs that disagreed with the serial reference.
    pub failed: u64,
    /// Last record per application (statistics for the traced report).
    pub last: Vec<Option<RunRecord>>,
    /// First disagreement seen.
    pub first_error: Option<String>,
}

/// Runs full passes until `end` (at least `min_passes`).
pub fn run_passes(batch: &Batch, end: Instant, min_passes: usize, tr: &mut Tracer) -> Passes {
    let mut p = Passes {
        run_ms: vec![Vec::new(); batch.apps.len()],
        last: vec![None; batch.apps.len()],
        ..Passes::default()
    };
    let mut pass = 0u64;
    while Instant::now() < end || p.pass_ms.len() < min_passes {
        let mut wall = Duration::ZERO;
        let mut updates = 0;
        for (i, app) in batch.apps.iter().enumerate() {
            let name = APPS[i];
            let t = Instant::now();
            let record = tr.time("harness.Workload::run", name, pass, || {
                app.workload.run(Variant::Invec, &batch.policy)
            });
            let dt = t.elapsed();
            wall += dt;
            p.run_ms[i].push(dt.as_secs_f64() * 1e3);
            updates += record.updates;
            p.attempted += 1;
            if let Err(e) = record.agrees_with(&app.reference, app.kernel.tolerance()) {
                p.failed += 1;
                p.first_error.get_or_insert(format!("{name}: {e}"));
            }
            p.last[i] = Some(record);
        }
        p.pass_ms.push(wall.as_secs_f64() * 1e3);
        p.updates_per_pass = updates;
        pass += 1;
    }
    p
}

/// End-to-end metrics of a pass log.
pub fn end_to_end(p: &Passes, m: &mut Metrics) {
    let mut pass_ms = p.pass_ms.clone();
    if let Some(d) = summarize(&mut pass_ms) {
        m.put_dist_ms("pass_ms", &d);
    }
    let total_s: f64 = p.pass_ms.iter().sum::<f64>() / 1e3;
    m.put(
        "batch_mups",
        p.updates_per_pass as f64 * p.pass_ms.len() as f64 / total_s / 1e6,
        "Mup/s",
    );
}

/// Per-application layer metrics from a traced pass log, plus one serial
/// single-thread run of each application.
pub fn per_layer(batch: &Batch, p: &Passes, tr: &mut Tracer, m: &mut Metrics) {
    for (i, app) in batch.apps.iter().enumerate() {
        let name = APPS[i];
        let run_ms = median(&p.run_ms[i]);
        m.put(format!("kernels.{name}.run_ms"), run_ms, "ms");
        let t = Instant::now();
        tr.time("harness.Workload::run", name, u64::MAX, || {
            app.workload.run(Variant::Serial, &ExecPolicy::with_threads(1))
        });
        m.put(format!("kernels.{name}.serial_ms"), t.elapsed().as_secs_f64() * 1e3, "ms");
        let Some(r) = &p.last[i] else { continue };
        let inspector = r.timings.tiling + r.timings.grouping + r.timings.partition;
        m.put(format!("kernels.{name}.inspector_ms"), inspector.as_secs_f64() * 1e3, "ms");
        m.put(format!("kernels.{name}.compute_ms"), r.timings.compute.as_secs_f64() * 1e3, "ms");
        if r.updates > 0 {
            m.put(format!("kernels.{name}.mups"), r.updates as f64 / run_ms / 1e3, "Mup/s");
        } else {
            m.notes.push(format!("kernels.{name}.mups: the registry attributes no update count"));
        }
        match &r.depth {
            Some(d) => m.put(format!("kernels.{name}.conflict_depth"), d.mean(), "lanes"),
            None => m.notes.push(format!("kernels.{name}.conflict_depth: not reported by the app")),
        }
        m.put(format!("simd.{name}.instructions"), r.instructions as f64, "count");
    }
}

/// The ladder stream of `apps-batch`: PageRank's scatter-add, one update
/// per `higgs-twitter` edge into its destination vertex, with seeded
/// contributions.
pub fn ladder_stream(seed: u64) -> Result<Stream<f32>, String> {
    let graph = invector_graph::datasets::by_name("higgs-twitter", SCALE)?.graph;
    let mut rng = Rng::new(seed, 0x1add);
    Ok(Stream {
        slots: graph.num_vertices(),
        idx: graph.dst().to_vec(),
        vals: (0..graph.num_edges()).map(|_| rng.unit() as f32).collect(),
    })
}
