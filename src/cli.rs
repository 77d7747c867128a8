//! Command-line interface: parse-and-dispatch for the `invector` binary.
//!
//! Hand-rolled argument parsing (no external dependencies) split from
//! `main.rs` so it is unit-testable. Every application reaches execution
//! through the harness registry ([`invector_harness::registry`]) — the CLI
//! owns no kernel dispatch of its own.

use std::time::Instant;

use invector_agg::dist::Distribution;
use invector_core::BackendChoice;
use invector_harness::{driver, registry, RunRecord, RunSpec};
use invector_kernels::{ExecPolicy, Variant};
use invector_serve::{
    FollowStatus, Follower, LocalClient, OpKind, PolicyHandle, ReactorKind, ServeClient,
    ServeConfig, Server, ServerCore, SubmitOutcome, SyncPolicy, TableSpec, TcpClient, TuneConfig,
    TuneMode, Update, WalOptions,
};

/// Reactor front-end knobs shared by `serve` and `bench-serve`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct NetOpts {
    /// Reactor I/O threads.
    pub io_threads: usize,
    /// Concurrent-connection cap.
    pub max_conns: usize,
    /// Readiness backend selection.
    pub reactor: ReactorKind,
}

/// Execution knobs shared by `run`, `run-all`, `serve`, and `bench-serve`:
/// one struct, parsed once, so the commands cannot drift apart on
/// defaults or validation.
///
/// The quantum/shard fields only matter to the serving commands; batch
/// runs carry them inert. `tune` switches the serving epoch loop from the
/// static policy to the online controller
/// ([`TuneMode::Auto`]).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ExecOpts {
    /// Worker threads for kernel/epoch execution.
    pub threads: usize,
    /// Backend request.
    pub backend: BackendChoice,
    /// Ingest shard count (serving commands).
    pub shards: usize,
    /// Epoch batch quantum (serving commands).
    pub quantum: usize,
    /// Self-tune the execution policy between epochs (serving commands).
    pub tune: bool,
}

impl ExecOpts {
    fn parse(opts: &Opts) -> Result<ExecOpts, String> {
        let threads = lookup(opts, "threads", 1)?;
        if threads == 0 {
            return Err("--threads must be at least 1".into());
        }
        let backend = parse_backend(get(opts, "backend").unwrap_or("auto"))?;
        let shards = lookup(opts, "shards", 4)?;
        if shards == 0 {
            return Err("--shards must be at least 1".into());
        }
        let quantum = lookup(opts, "quantum", 4096)?;
        if quantum == 0 {
            return Err("--quantum must be at least 1".into());
        }
        Ok(ExecOpts { threads, backend, shards, quantum, tune: get(opts, "tune").is_some() })
    }

    /// The engine policy these options denote, behind the process's
    /// swappable policy route.
    fn policy_handle(&self) -> PolicyHandle {
        PolicyHandle::fixed(ExecPolicy::with_threads(self.threads).backend(self.backend))
    }
}

/// A parsed CLI invocation.
#[derive(Debug, Clone, PartialEq)]
pub enum Command {
    /// Print usage.
    Help,
    /// Print dataset registry and host capabilities.
    Info {
        /// Dataset scale factor.
        scale: f64,
    },
    /// Print the application registry.
    List,
    /// Run one application.
    Run {
        /// Registry name of the application.
        app: String,
        /// Variant selection (`all` resolves against the app's legal set).
        variants: Vec<Variant>,
        /// Workload sizing.
        spec: RunSpec,
        /// Shared execution knobs (threads/backend used here).
        exec: ExecOpts,
        /// Timed repetitions per variant (best run is reported).
        repeat: u32,
        /// Enable runtime observability: publish run statistics into the
        /// global registry, print the metrics table, dump a chrome trace.
        obs: bool,
    },
    /// Run every registered cell and cross-check against the serial
    /// reference.
    RunAll {
        /// Workload sizing.
        spec: RunSpec,
        /// Worker threads for the engine rows.
        threads: usize,
        /// Backend request: `None` covers the host's full backend matrix,
        /// a specific choice restricts the matrix to that request.
        backend: Option<BackendChoice>,
        /// Restrict the matrix to one registry application (`--app`);
        /// `None` runs the whole registry.
        app: Option<String>,
        /// Enable runtime observability (as for [`Command::Run`]).
        obs: bool,
    },
    /// Scrape a running server's Prometheus exposition over TCP.
    Metrics {
        /// Server address (`host:port`).
        addr: String,
    },
    /// Start the update-stream service (or its loopback smoke check).
    Serve {
        /// Listen address (`host:port`).
        addr: String,
        /// Stream sizing (rows = updates per table, cardinality = slots).
        spec: RunSpec,
        /// Shared execution knobs (threads/backend/shards/quantum/tune).
        exec: ExecOpts,
        /// Reactor front-end knobs.
        net: NetOpts,
        /// Run the self-checking loopback smoke instead of serving.
        smoke: bool,
        /// Concurrent TCP clients the smoke drives.
        clients: usize,
        /// Durability directory (`--wal-dir`): log admitted slices and
        /// publish checkpoints; restart recovers bitwise.
        wal_dir: Option<String>,
        /// WAL fsync cadence (`--wal-sync`).
        wal_sync: SyncPolicy,
        /// Follow a leader (`--follow <addr>`): bootstrap from its
        /// snapshot, tail its log, serve read-only snapshots.
        follow: Option<String>,
        /// Crash-recovery smoke: SIGKILL a child server mid-epoch, restart
        /// over its WAL, verify bitwise against an uninterrupted reference.
        smoke_recover: bool,
        /// Leader/follower loopback smoke: converge a follower over TCP
        /// and compare per-epoch checksums.
        smoke_follow: bool,
    },
    /// In-process serving throughput sweep over batch quanta.
    BenchServe {
        /// Stream sizing.
        spec: RunSpec,
        /// Shared execution knobs (threads/backend/shards/tune).
        exec: ExecOpts,
        /// Reactor front-end knobs (carried into the serve config).
        net: NetOpts,
    },
}

/// The usage text shown by `invector help`.
pub const USAGE: &str = "\
invector — conflict-free SIMD vectorization of irregular reductions (CGO'18)

USAGE:
  invector <command> [options]

COMMANDS:
  list                 registered applications, variants, and datasets
  run --app <name>     run one application (or use the app name directly:
                       pagerank | spmv | sssp | sswp | bfs | wcc |
                       euler | moldyn | agg | stream-graph | stream-window;
                       'run --app serve' runs the serving workload through
                       the harness)
  run-all              every app x variant x backend, checked against the
                       serial reference (smoke matrix); --backend restricts
                       the matrix to one request, --app to one application;
                       the summary reports per-app Mup/s for every app
                       that counts updates (including the serve-backed ones)
  serve                start the TCP update-stream service; with --smoke,
                       run a self-checking loopback workload and exit
  bench-serve          in-process serving throughput sweep over batch quanta
  metrics              scrape a running server's Prometheus exposition
  info                 dataset registry and host SIMD capabilities
  help                 this text

OPTIONS:
  --scale <s>          tiny | small | factor in (0, 1]     [small; run-all: tiny]
  --variant <v>        serial | tiled | grouped | masked | invec | all   [all]
  --threads <n>        worker threads                            [1]
  --backend <b>        auto | portable | avx512 | avx2 | neon
                       (auto = widest ISA the host supports)      [auto]
  --repeat <n>         timed repetitions per variant (best shown) [1]
  --dataset <name>     higgs-twitter | soc-Pokec | amazon0312
  --source <v>         source vertex for sssp/sswp/bfs           [0]
  --iters <n>          iteration budget                          [per scale]
  --mesh <n>           euler mesh side (n x n nodes)             [per scale]
  --lattice <n>        moldyn FCC cells per side                 [per scale]
  --dist <d>           heavy-hitter | zipf | moving-cluster      [zipf]
  --rows <n>           aggregation/serving input rows            [per scale]
  --cardinality <n>    aggregation/serving group count           [per scale]
  --obs                run / run-all: enable runtime observability — print
                       the metric registry after the run and write a
                       chrome://tracing dump to invector-trace.json

SERVING OPTIONS (serve / bench-serve / metrics):
  --addr <host:port>   listen / scrape address          [127.0.0.1:7411]
  --shards <n>         ingest shard count                        [4]
  --quantum <n>        epoch batch quantum                       [4096]
  --io-threads <n>     reactor I/O event-loop threads            [2]
  --max-conns <n>      concurrent connection cap                 [4096]
  --reactor <r>        auto | epoll | poll                       [auto]
  --smoke              serve: loopback self-check, then exit
  --clients <n>        serve --smoke: racing TCP clients         [2]
  --tune               serve / bench-serve: self-tune the epoch quantum and
                       execution policy online from completed-epoch metrics
                       (snapshots stay bitwise-deterministic; the policy
                       trace is replayable)

DURABILITY & REPLICATION (serve):
  --wal-dir <path>     log admitted slices to a write-ahead log + periodic
                       snapshot checkpoints; restart recovers bitwise
  --wal-sync <mode>    always | epoch | os — fsync cadence        [epoch]
  --follow <addr>      replicate a durable leader: bootstrap from its
                       chunked snapshot, tail its log, serve read-only
                       snapshots with per-epoch checksum verification
  --smoke-recover      crash smoke: SIGKILL a durable child mid-epoch,
                       restart over its WAL, verify bitwise recovery
  --smoke-follow       replication smoke: converge a loopback follower
                       under concurrent ingest, compare epoch checksums
";

fn parse_dist(s: &str) -> Result<Distribution, String> {
    Ok(match s {
        "heavy-hitter" => Distribution::HeavyHitter,
        "zipf" => Distribution::Zipf,
        "moving-cluster" => Distribution::MovingCluster,
        other => return Err(format!("unknown distribution '{other}'")),
    })
}

fn parse_backend(s: &str) -> Result<BackendChoice, String> {
    BackendChoice::parse(s)
}

/// `--key value` pairs in command order.
type Opts = Vec<(String, String)>;

fn get<'a>(opts: &'a Opts, key: &str) -> Option<&'a str> {
    opts.iter().find(|(k, _)| k == key).map(|(_, v)| v.as_str())
}

fn lookup<T: std::str::FromStr>(opts: &Opts, key: &str, default: T) -> Result<T, String> {
    match get(opts, key) {
        None => Ok(default),
        Some(v) => v.parse().map_err(|_| format!("invalid value '{v}' for --{key}")),
    }
}

/// Builds the workload spec: the `--scale` preset, then every explicit
/// per-field override on top.
fn build_spec(opts: &Opts, default_scale: &str) -> Result<RunSpec, String> {
    let mut spec = RunSpec::parse(get(opts, "scale").unwrap_or(default_scale))?;
    if let Some(name) = get(opts, "dataset") {
        spec.dataset = Some(name.to_string());
    }
    spec.source = lookup(opts, "source", spec.source)?;
    spec.iters = lookup(opts, "iters", spec.iters)?;
    spec.mesh = lookup(opts, "mesh", spec.mesh)?;
    spec.lattice = lookup(opts, "lattice", spec.lattice)?;
    spec.rows = lookup(opts, "rows", spec.rows)?;
    spec.cardinality = lookup(opts, "cardinality", spec.cardinality)?;
    if let Some(d) = get(opts, "dist") {
        spec.dist = parse_dist(d)?;
    }
    Ok(spec)
}

/// Parses a full argument list (without the program name).
///
/// # Errors
///
/// Returns a human-readable message on unknown commands, options, or
/// malformed values — including a nearest-name suggestion for application
/// typos.
pub fn parse(args: &[String]) -> Result<Command, String> {
    let Some(command) = args.first() else {
        return Ok(Command::Help);
    };
    // Options that are flags: present or absent, no value.
    const FLAGS: [&str; 5] = ["smoke", "obs", "tune", "smoke-recover", "smoke-follow"];
    let mut opts: Opts = Vec::new();
    let mut i = 1;
    while i < args.len() {
        let key = args[i]
            .strip_prefix("--")
            .ok_or_else(|| format!("expected an option, got '{}'", args[i]))?;
        if FLAGS.contains(&key) {
            opts.push((key.to_string(), "true".to_string()));
            i += 1;
            continue;
        }
        let value = args.get(i + 1).ok_or_else(|| format!("--{key} needs a value"))?;
        opts.push((key.to_string(), value.clone()));
        i += 2;
    }
    const KNOWN: [&str; 29] = [
        "app",
        "dataset",
        "variant",
        "scale",
        "source",
        "iters",
        "mesh",
        "lattice",
        "dist",
        "rows",
        "cardinality",
        "threads",
        "backend",
        "repeat",
        "addr",
        "shards",
        "quantum",
        "io-threads",
        "max-conns",
        "reactor",
        "smoke",
        "clients",
        "obs",
        "tune",
        "wal-dir",
        "wal-sync",
        "follow",
        "smoke-recover",
        "smoke-follow",
    ];
    if let Some((k, _)) = opts.iter().find(|(k, _)| !KNOWN.contains(&k.as_str())) {
        return Err(format!("unknown option --{k}"));
    }

    let exec = ExecOpts::parse(&opts)?;
    let io_threads = lookup(&opts, "io-threads", 2)?;
    if io_threads == 0 {
        return Err("--io-threads must be at least 1".into());
    }
    let max_conns = lookup(&opts, "max-conns", 4096)?;
    if max_conns == 0 {
        return Err("--max-conns must be at least 1".into());
    }
    let reactor: ReactorKind = get(&opts, "reactor").unwrap_or("auto").parse()?;
    let net = NetOpts { io_threads, max_conns, reactor };

    let app = match command.as_str() {
        "help" | "--help" | "-h" => return Ok(Command::Help),
        "list" => return Ok(Command::List),
        "info" => {
            let scale = build_spec(&opts, "small")?.scale;
            return Ok(Command::Info { scale });
        }
        "run-all" => {
            // Resolve the filter eagerly so a typo'd `--app` dies with the
            // registry's suggestion instead of silently running nothing.
            let app = match get(&opts, "app") {
                Some(name) => Some(registry::lookup(name)?.name().to_string()),
                None => None,
            };
            return Ok(Command::RunAll {
                spec: build_spec(&opts, "tiny")?,
                threads: exec.threads,
                backend: get(&opts, "backend").map(parse_backend).transpose()?,
                app,
                obs: get(&opts, "obs").is_some(),
            });
        }
        "metrics" => {
            return Ok(Command::Metrics {
                addr: get(&opts, "addr").unwrap_or("127.0.0.1:7411").to_string(),
            })
        }
        // The service command shadows the registry shorthand for the
        // `serve` app; the harness workload stays reachable via
        // `run --app serve`.
        "serve" => {
            let clients = lookup(&opts, "clients", 2)?;
            if clients == 0 {
                return Err("--clients must be at least 1".into());
            }
            let wal_sync = match get(&opts, "wal-sync").unwrap_or("epoch") {
                "always" => SyncPolicy::Always,
                "epoch" => SyncPolicy::Epoch,
                "os" => SyncPolicy::Os,
                other => return Err(format!("unknown --wal-sync '{other}' (always | epoch | os)")),
            };
            let follow = get(&opts, "follow").map(str::to_string);
            if follow.is_some() && get(&opts, "wal-dir").is_some() {
                return Err("--follow and --wal-dir are exclusive: a follower \
                            replicates the leader's log instead of writing its own"
                    .into());
            }
            return Ok(Command::Serve {
                addr: get(&opts, "addr").unwrap_or("127.0.0.1:7411").to_string(),
                spec: build_spec(&opts, "tiny")?,
                exec,
                net,
                smoke: get(&opts, "smoke").is_some(),
                clients,
                wal_dir: get(&opts, "wal-dir").map(str::to_string),
                wal_sync,
                follow,
                smoke_recover: get(&opts, "smoke-recover").is_some(),
                smoke_follow: get(&opts, "smoke-follow").is_some(),
            });
        }
        "bench-serve" => {
            return Ok(Command::BenchServe { spec: build_spec(&opts, "small")?, exec, net });
        }
        "run" => get(&opts, "app")
            .ok_or_else(|| "run needs --app <name> (see 'invector list')".to_string())?
            .to_string(),
        // An application name used as the command is shorthand for
        // `run --app <name>`; unknown names get the registry's suggestion.
        other => registry::lookup(other)
            .map_err(|e| format!("{e}; try 'invector help'"))?
            .name()
            .to_string(),
    };

    let app_entry = registry::lookup(&app)?;
    let variants = match get(&opts, "variant") {
        None | Some("all") => app_entry.variants().to_vec(),
        Some(v) => {
            let variant = Variant::parse(v)?;
            if !app_entry.variants().contains(&variant) {
                return Err(format!(
                    "variant '{}' is not legal for {} (one of: {})",
                    variant.short_name(),
                    app_entry.name(),
                    app_entry
                        .variants()
                        .iter()
                        .map(|v| v.short_name())
                        .collect::<Vec<_>>()
                        .join(" | ")
                ));
            }
            vec![variant]
        }
    };
    let repeat = lookup(&opts, "repeat", 1)?;
    if repeat == 0 {
        return Err("--repeat must be at least 1".into());
    }
    Ok(Command::Run {
        app,
        variants,
        spec: build_spec(&opts, "small")?,
        exec,
        repeat,
        obs: get(&opts, "obs").is_some(),
    })
}

/// Executes a parsed command, printing results to stdout.
///
/// # Errors
///
/// Returns a message for invalid names or sizes, and for `run-all` cells
/// that disagree with the serial reference.
pub fn run(command: Command) -> Result<(), String> {
    match command {
        Command::Help => println!("{USAGE}"),
        Command::Info { scale } => run_info(scale),
        Command::List => run_list(),
        Command::Run { app, variants, spec, exec, repeat, obs } => {
            run_app(&app, &variants, &spec, exec, repeat, obs)?
        }
        Command::RunAll { spec, threads, backend, app, obs } => {
            run_all(&spec, threads, backend, app.as_deref(), obs)?
        }
        Command::Metrics { addr } => run_metrics(&addr)?,
        Command::Serve {
            addr,
            spec,
            exec,
            net,
            smoke,
            clients,
            wal_dir,
            wal_sync,
            follow,
            smoke_recover,
            smoke_follow,
        } => {
            let durability = Durability { wal_dir, wal_sync };
            if smoke_recover {
                serve_smoke_recover(&spec, exec, net, durability)?
            } else if smoke_follow {
                serve_smoke_follow(&spec, exec, net, durability)?
            } else if let Some(leader) = follow {
                run_follow(&addr, &leader, exec, net)?
            } else {
                run_serve(&addr, &spec, exec, net, smoke, clients, durability)?
            }
        }
        Command::BenchServe { spec, exec, net } => run_bench_serve(&spec, exec, net)?,
    }
    Ok(())
}

fn run_info(scale: f64) {
    use invector_core::Backend;
    println!("host SIMD backends (auto resolves to {}):", BackendChoice::Auto.resolve().name());
    for b in Backend::ALL {
        println!(
            "  {:<9} {:>2} lanes  {}",
            b.name(),
            b.lanes(),
            if b.available() { "available" } else { "not available on this host" }
        );
    }
    println!("\ndatasets at scale {scale}:");
    for d in invector_graph::datasets::all(scale) {
        println!(
            "  {:<16} {:>9} vertices {:>11} edges (paper: {}x{}, {} NNZ)",
            d.name,
            d.graph.num_vertices(),
            d.graph.num_edges(),
            d.paper_vertices,
            d.paper_vertices,
            d.paper_edges
        );
    }
}

fn run_list() {
    println!("{:<10} {:<28} {:<24} summary", "app", "variants", "datasets");
    for app in registry::all() {
        let variants = app.variants().iter().map(|v| v.short_name()).collect::<Vec<_>>().join(",");
        let datasets = if app.datasets().is_empty() {
            "(synthesized)".to_string()
        } else {
            app.datasets().join(",")
        };
        println!("{:<10} {:<28} {:<24} {}", app.name(), variants, datasets, app.summary());
    }
}

fn print_record(r: &RunRecord) {
    let util =
        r.utilization.map(|u| format!("{:.2}%", u.ratio() * 100.0)).unwrap_or_else(|| "-".into());
    let throughput = r.mupdates_per_sec().map(|m| format!("{m:.2}")).unwrap_or_else(|| "-".into());
    println!(
        "{:<24} {:>8}  tiling {:>8.2}ms  grouping {:>8.2}ms  compute {:>8.2}ms  iters {:>5}  {:>10.2} Minstr  util {:>7}  {:>9} Mup/s  checksum {:.6}",
        r.label,
        r.backend.name(),
        r.timings.tiling.as_secs_f64() * 1e3,
        r.timings.grouping.as_secs_f64() * 1e3,
        r.timings.compute.as_secs_f64() * 1e3,
        r.iterations,
        r.instructions as f64 / 1e6,
        util,
        throughput,
        r.checksum()
    );
}

fn run_app(
    app: &str,
    variants: &[Variant],
    spec: &RunSpec,
    exec: ExecOpts,
    repeat: u32,
    obs: bool,
) -> Result<(), String> {
    let entry = registry::lookup(app)?;
    let workload = entry.prepare(spec)?;
    println!("{}: {}", entry.name(), workload.describe());
    if repeat > 1 {
        println!("(best of {repeat} runs per variant)");
    }
    if obs {
        invector_obs::set_enabled(true);
    }
    // Batch runs hold the policy fixed, but read it through the same
    // swappable handle the serving layer tunes through.
    let handle = exec.policy_handle();
    for &variant in variants {
        let policy = handle.exec();
        let mut best = workload.run(variant, &policy);
        for _ in 1..repeat {
            let r = workload.run(variant, &policy);
            if r.elapsed() < best.elapsed() {
                best = r;
            }
        }
        best.publish_obs();
        print_record(&best);
    }
    if obs {
        obs_report(TRACE_PATH)?;
    }
    Ok(())
}

fn run_all(
    spec: &RunSpec,
    threads: usize,
    backend: Option<BackendChoice>,
    app: Option<&str>,
    obs: bool,
) -> Result<(), String> {
    if obs {
        invector_obs::set_enabled(true);
    }
    let matrix = match backend {
        None => driver::backend_matrix(),
        Some(choice) => vec![choice],
    };
    let report = match app {
        None => driver::run_all_matrix(spec, threads, &matrix),
        Some(name) => {
            let apps = [registry::lookup(name)?];
            driver::run_all_apps(&apps, spec, threads, &matrix)
        }
    };
    let mut current_app = "";
    for cell in &report.cells {
        if cell.app != current_app {
            current_app = cell.app;
            println!("{}: {}", cell.app, cell.input);
        }
        let throughput = cell.mupdates.map(|m| format!("{m:.2}")).unwrap_or_else(|| "-".into());
        println!(
            "  {:<24} {:>8}  t={}  {:>10.2}ms  {:>9} Mup/s  checksum {:>18.6}  {}",
            cell.variant.to_string(),
            cell.backend.name(),
            cell.threads,
            cell.elapsed.as_secs_f64() * 1e3,
            throughput,
            cell.checksum,
            match &cell.error {
                None => "ok".to_string(),
                Some(e) => format!("FAIL: {e}"),
            }
        );
    }
    let throughput = report.app_throughput();
    if !throughput.is_empty() {
        println!("\nper-app throughput (best cell):");
        for (app, mupdates) in throughput {
            println!("  {app:<16} {mupdates:>9.2} Mup/s");
        }
    }
    println!(
        "\n{} cells, {} failures, {:.2}ms total",
        report.cells.len(),
        report.failures().count(),
        report.total_elapsed().as_secs_f64() * 1e3
    );
    if obs {
        obs_report(TRACE_PATH)?;
    }
    run_all_verdict(&report)
}

/// The smoke matrix's process-exit verdict: `Err` — a non-zero exit —
/// whenever the failure summary is non-empty. The message restates each
/// failing cell with its wall time, so CI logs carry the full picture in
/// one place.
fn run_all_verdict(report: &driver::SmokeReport) -> Result<(), String> {
    let failures = report.failures().count();
    if failures == 0 {
        return Ok(());
    }
    let detail: Vec<String> = report
        .failures()
        .map(|c| {
            format!(
                "{} {} on {} t={} after {:.2}ms: {}",
                c.app,
                c.variant,
                c.backend.name(),
                c.threads,
                c.elapsed.as_secs_f64() * 1e3,
                c.error.as_deref().unwrap_or("unknown")
            )
        })
        .collect();
    Err(format!("{failures} cells disagree with the serial reference:\n  {}", detail.join("\n  ")))
}

// ---------------------------------------------------------------------------
// Observability
// ---------------------------------------------------------------------------

/// Where `--obs` runs dump their chrome://tracing document.
const TRACE_PATH: &str = "invector-trace.json";

/// Prints the global metric registry as a table, writes the span rings out
/// as a chrome trace, and switches runtime observability back off.
fn obs_report(trace_path: &str) -> Result<(), String> {
    use invector_obs::MetricValue;
    println!("\nobs: global metric registry");
    for m in invector_obs::Registry::global().snapshot() {
        match m.value {
            MetricValue::Counter(v) => println!("  {:<44} counter    {v}", m.name),
            MetricValue::Gauge(v) => println!("  {:<44} gauge      {v:.4}", m.name),
            MetricValue::Histogram(h) => println!(
                "  {:<44} histogram  count {} mean {:.2} p99 {:.2}",
                m.name,
                h.count,
                h.mean(),
                h.quantile(0.99)
            ),
        }
    }
    let trace = invector_obs::chrome_trace();
    std::fs::write(trace_path, &trace).map_err(|e| format!("write {trace_path}: {e}"))?;
    println!("obs: chrome trace written to {trace_path} (load at about:tracing)");
    invector_obs::set_enabled(false);
    Ok(())
}

/// Connects to a running server and prints its Prometheus exposition.
fn run_metrics(addr: &str) -> Result<(), String> {
    let mut client = TcpClient::connect(addr)?;
    let text = client.metrics()?;
    print!("{text}");
    Ok(())
}

// ---------------------------------------------------------------------------
// Serving
// ---------------------------------------------------------------------------

/// Seed for synthesized serving streams; matches the harness input seed so
/// `serve --smoke` and `run --app serve` fold the same data.
const SERVE_SEED: u64 = 0x1b_f2_9d;

/// The service's table registry for CLI-started servers: a count table and
/// a min table over the spec's key cardinality. Both operators are exact,
/// so every check below can demand bitwise agreement.
fn serve_tables(cardinality: usize) -> Vec<TableSpec> {
    vec![
        TableSpec::i32("counts", OpKind::Add, cardinality),
        TableSpec::f32("mins", OpKind::Min, cardinality),
    ]
}

/// Synthesizes the two logical update streams from the spec's distribution.
fn serve_streams(spec: &RunSpec) -> (Vec<Update>, Vec<Update>) {
    let input = invector_agg::dist::generate(
        spec.dist,
        spec.rows.max(1),
        spec.cardinality.max(1),
        SERVE_SEED,
    );
    let counts = input
        .keys
        .iter()
        .enumerate()
        .map(|(seq, &k)| Update::i32(seq as u64, k as u32, 1))
        .collect();
    let mins = input
        .keys
        .iter()
        .zip(&input.vals)
        .enumerate()
        .map(|(seq, (&k, &v))| Update::f32(seq as u64, k as u32, v))
        .collect();
    (counts, mins)
}

/// Serial reference fold of both streams, as bit patterns.
fn serve_reference(counts: &[Update], mins: &[Update], cardinality: usize) -> (Vec<u32>, Vec<u32>) {
    let mut count_slots = vec![0i32; cardinality];
    for u in counts {
        count_slots[u.idx as usize] += u.bits as i32;
    }
    let mut min_slots = vec![f32::INFINITY; cardinality];
    for u in mins {
        let v = f32::from_bits(u.bits);
        if v < min_slots[u.idx as usize] {
            min_slots[u.idx as usize] = v;
        }
    }
    (
        count_slots.into_iter().map(|v| v as u32).collect(),
        min_slots.into_iter().map(f32::to_bits).collect(),
    )
}

/// Parsed `--wal-dir` / `--wal-sync`: the serve command's durability
/// request, resolved to [`WalOptions`] when a directory was given.
#[derive(Debug, Clone)]
struct Durability {
    wal_dir: Option<String>,
    wal_sync: SyncPolicy,
}

impl Durability {
    fn options(&self) -> Option<WalOptions> {
        self.wal_dir.as_ref().map(|dir| {
            let mut wal = WalOptions::new(dir);
            wal.sync = self.wal_sync;
            wal
        })
    }
}

fn serve_config(spec: &RunSpec, exec: ExecOpts, net: NetOpts) -> ServeConfig {
    let mut config = ServeConfig::new(serve_tables(spec.cardinality.max(1)));
    config.shards = exec.shards;
    config.quantum = exec.quantum;
    config.threads = exec.threads;
    config.backend = exec.backend;
    config.io_threads = net.io_threads;
    config.max_connections = net.max_conns;
    config.reactor = net.reactor;
    if exec.tune {
        config.tune = TuneMode::Auto(TuneConfig::default());
    }
    config
}

fn run_serve(
    addr: &str,
    spec: &RunSpec,
    exec: ExecOpts,
    net: NetOpts,
    smoke: bool,
    clients: usize,
    durability: Durability,
) -> Result<(), String> {
    if smoke {
        return serve_smoke(spec, exec, net, clients);
    }
    let mut config = serve_config(spec, exec, net);
    config.wal = durability.options();
    let durable = config.wal.is_some();
    let server = Server::bind(config, addr).map_err(|e| format!("bind {addr}: {e}"))?;
    println!("invector-serve listening on {}", server.local_addr());
    if durable {
        println!(
            "  durability: WAL at {} (sync {:?}); restart recovers bitwise",
            durability.wal_dir.as_deref().unwrap_or("?"),
            durability.wal_sync
        );
    }
    println!("  tables: counts (i32 add), mins (f32 min) x {} slots", spec.cardinality.max(1));
    println!(
        "  shards {}, quantum {}, threads {}, tuning {}",
        exec.shards,
        exec.quantum,
        exec.threads,
        if exec.tune { "on" } else { "off" }
    );
    println!(
        "  reactor {} x {} io threads, {} connection cap",
        net.reactor, net.io_threads, net.max_conns
    );
    println!("  backend {}", exec.backend.resolve().name());
    println!("  stop with a Shutdown frame (protocol v{})", invector_serve::PROTOCOL_VERSION);
    server.join();
    Ok(())
}

/// Loopback self-check: `clients` racing TCP clients and one in-process
/// client drive a mixed workload against an ephemeral server; the drained
/// snapshots must match the serial fold bitwise, and shutdown must drain
/// cleanly.
fn serve_smoke(spec: &RunSpec, exec: ExecOpts, net: NetOpts, clients: usize) -> Result<(), String> {
    let cardinality = spec.cardinality.max(1);
    let config = serve_config(spec, exec, net);
    let server = Server::bind(config, "127.0.0.1:0").map_err(|e| format!("bind loopback: {e}"))?;
    let addr = server.local_addr();
    println!(
        "serve smoke on {addr}: shards {}, quantum {}, threads {}, tuning {}, \
         reactor {} x {} io threads, {clients} clients, backend {}",
        exec.shards,
        exec.quantum,
        exec.threads,
        if exec.tune { "on" } else { "off" },
        net.reactor,
        net.io_threads,
        exec.backend.resolve().name()
    );

    let (counts, mins) = serve_streams(spec);
    let (expect_counts, expect_mins) = serve_reference(&counts, &mins, cardinality);

    // Split the count stream across `clients` TCP connections on real
    // threads (their submissions genuinely race), keep the min stream in
    // process.
    const CHUNK: usize = 97;
    let mut split: Vec<Vec<Update>> = vec![Vec::new(); clients];
    for (i, chunk) in counts.chunks(CHUNK).enumerate() {
        split[i % clients].extend_from_slice(chunk);
    }
    let writers: Vec<std::thread::JoinHandle<Result<(), String>>> = split
        .into_iter()
        .map(|updates| {
            std::thread::spawn(move || {
                // A large client storm can outrun the listen backlog;
                // refused connects just need another try.
                let mut client = None;
                for _ in 0..200 {
                    match TcpClient::connect(addr) {
                        Ok(c) => {
                            client = Some(c);
                            break;
                        }
                        Err(_) => std::thread::sleep(std::time::Duration::from_millis(2)),
                    }
                }
                let mut client = client.ok_or_else(|| format!("could not connect to {addr}"))?;
                for chunk in updates.chunks(CHUNK) {
                    client.submit_all(0, chunk)?;
                }
                Ok(())
            })
        })
        .collect();
    let mut local = LocalClient::new(server.core());
    for chunk in mins.chunks(CHUNK) {
        local.submit_all(1, chunk)?;
    }
    for writer in writers {
        writer.join().map_err(|_| "TCP writer thread panicked".to_string())??;
    }
    local.flush()?;

    // Verify over the wire, then drain and stop.
    let mut check = TcpClient::connect(addr)?;
    let got_counts = check.snapshot(0)?;
    let got_mins = check.snapshot(1)?;
    if got_counts.bits() != expect_counts {
        return Err("count table diverged from the serial fold".into());
    }
    if got_mins.bits() != expect_mins {
        return Err("min table diverged from the serial fold".into());
    }
    let stats = check.stats()?;
    println!(
        "  applied {} in {} slices / {} epochs, occupancy {:.2}, depth {:.2}, {:.2} Mup/s, p50 {:.0}us p99 {:.0}us",
        stats.applied,
        stats.slices,
        stats.epochs,
        stats.occupancy,
        stats.conflict_depth,
        stats.updates_per_sec / 1e6,
        stats.p50_epoch_us,
        stats.p99_epoch_us
    );
    // The exposition must scrape over the wire and carry the service
    // series (registration is unconditional, so this holds with the obs
    // feature compiled out too — the values just read zero).
    let exposition = check.metrics()?;
    if !exposition.contains("invector_serve_epochs_total") {
        return Err("metrics scrape is missing the service series".into());
    }
    println!("  metrics scrape: {} bytes of exposition", exposition.len());
    // Reactor evidence: the connection and wakeup series must be present
    // in the scrape (registration is unconditional; with the obs feature
    // compiled out the values read zero).
    for series in [
        "invector_serve_open_connections",
        "invector_serve_wakeups_total",
        "invector_serve_accepted_total",
    ] {
        let line = exposition
            .lines()
            .find(|l| l.starts_with(series))
            .ok_or_else(|| format!("metrics scrape is missing {series}"))?;
        println!("  {line}");
    }
    let watermarks = check.shutdown()?;
    let rows = counts.len() as u64;
    if watermarks != vec![rows, rows] {
        return Err(format!("shutdown watermarks {watermarks:?}, expected [{rows}, {rows}]"));
    }
    if exec.tune {
        let core = server.core();
        println!(
            "  tuning: {} policy changes recorded, final quantum {}",
            core.policy_trace().len(),
            core.current_policy().quantum
        );
    }
    server.join();
    println!("  snapshots match the serial fold bitwise; drain clean");
    Ok(())
}

/// Follower mode: bootstrap from the leader's chunked snapshot, tail its
/// log, and serve read-only snapshots on `addr` until interrupted.
fn run_follow(addr: &str, leader: &str, exec: ExecOpts, net: NetOpts) -> Result<(), String> {
    let mut config = ServeConfig::new(Vec::new());
    config.threads = exec.threads;
    config.backend = exec.backend;
    config.io_threads = net.io_threads;
    config.max_connections = net.max_conns;
    config.reactor = net.reactor;
    let follower = Follower::start(leader, config)?;
    let server =
        Server::serve_core(follower.core(), addr).map_err(|e| format!("bind {addr}: {e}"))?;
    println!("invector-serve following {leader}, read-only on {}", server.local_addr());
    println!("  every epoch seal is checksum-verified; divergence stops the follower");
    loop {
        match follower.status() {
            FollowStatus::Diverged(m) => {
                server.shutdown();
                server.join();
                return Err(format!("follower diverged: {m}"));
            }
            FollowStatus::Stopped => {
                println!("  leader closed the stream; shutting down");
                server.shutdown();
                server.join();
                return Ok(());
            }
            _ => std::thread::sleep(std::time::Duration::from_millis(100)),
        }
    }
}

/// A scratch directory under the system tmpdir, unique per process.
fn smoke_dir(tag: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!("invector-{tag}-{}", std::process::id()));
    std::fs::create_dir_all(&dir).ok();
    dir
}

/// Crash-recovery smoke: run a durable child server, SIGKILL it mid-epoch,
/// restart over its WAL directory, and demand bitwise agreement with an
/// uninterrupted reference at the recovered watermark.
fn serve_smoke_recover(
    spec: &RunSpec,
    exec: ExecOpts,
    net: NetOpts,
    durability: Durability,
) -> Result<(), String> {
    let cardinality = spec.cardinality.max(1);
    let dir = durability
        .wal_dir
        .clone()
        .map(std::path::PathBuf::from)
        .unwrap_or_else(|| smoke_dir("smoke-recover"));
    std::fs::create_dir_all(&dir).map_err(|e| format!("create {}: {e}", dir.display()))?;
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    println!(
        "recover smoke: WAL at {}, sync {:?}, quantum {}",
        dir.display(),
        durability.wal_sync,
        exec.quantum
    );

    // A durable child server on an ephemeral port; its first stdout line
    // names the bound address.
    let mut child = std::process::Command::new(&exe)
        .args([
            "serve",
            "--addr",
            "127.0.0.1:0",
            "--wal-dir",
            dir.to_str().ok_or("non-UTF-8 tmp path")?,
            "--wal-sync",
            match durability.wal_sync {
                SyncPolicy::Always => "always",
                SyncPolicy::Epoch => "epoch",
                SyncPolicy::Os => "os",
            },
            "--quantum",
            &exec.quantum.to_string(),
            "--cardinality",
            &cardinality.to_string(),
        ])
        .stdout(std::process::Stdio::piped())
        .stderr(std::process::Stdio::null())
        .spawn()
        .map_err(|e| format!("spawn child server: {e}"))?;
    let addr = {
        use std::io::BufRead;
        let stdout = child.stdout.take().ok_or("child stdout")?;
        let mut lines = std::io::BufReader::new(stdout).lines();
        let first = lines
            .next()
            .ok_or("child exited before announcing its address")?
            .map_err(|e| format!("read child stdout: {e}"))?;
        // Drain the rest on a detached thread so the child never blocks on
        // a full pipe.
        std::thread::spawn(move || for _ in lines.by_ref() {});
        first
            .rsplit(' ')
            .next()
            .filter(|a| a.contains(':'))
            .ok_or_else(|| format!("unexpected child banner: {first}"))?
            .to_string()
    };
    println!("  child serving on {addr}");

    // Stream updates and kill the child mid-flight — between a submit and
    // the epoch that would apply it, with slices already logged.
    let (counts, mins) = serve_streams(spec);
    let mut client = TcpClient::connect(&addr)?;
    let kill_at = counts.len() / 2;
    let mut sent = 0usize;
    for (a, b) in counts.chunks(64).zip(mins.chunks(64)) {
        client.submit_all(0, a)?;
        client.submit_all(1, b)?;
        client.flush()?;
        sent += a.len();
        if sent >= kill_at {
            break;
        }
    }
    child.kill().map_err(|e| format!("SIGKILL child: {e}"))?;
    child.wait().ok();
    println!("  killed child after {sent} updates per table");

    // Restart over the WAL directory in-process and compare against an
    // uninterrupted reference run at the recovered watermark.
    let mut config = serve_config(spec, exec, net);
    config.wal = durability.options().or_else(|| Some(WalOptions::new(&dir)));
    let recovered = ServerCore::new(config).map_err(|e| format!("recovery failed: {e}"))?;
    let wm_counts = recovered.snapshot(0)?.watermark;
    let wm_mins = recovered.snapshot(1)?.watermark;
    println!("  recovered watermarks: counts {wm_counts}, mins {wm_mins}");

    let reference = {
        let mut config = serve_config(spec, exec, net);
        config.wal = None;
        let core = ServerCore::new(config)?;
        let mut local = LocalClient::new(core.clone());
        local.submit_all(0, &counts[..wm_counts as usize])?;
        local.submit_all(1, &mins[..wm_mins as usize])?;
        local.flush()?;
        core
    };
    for (t, name) in [(0u16, "counts"), (1u16, "mins")] {
        let got = recovered.snapshot(t)?;
        let expect = reference.snapshot(t)?;
        if got.checksum != expect.checksum || got.bits() != expect.bits() {
            return Err(format!(
                "table {name} diverged after crash recovery \
                 (checksum {:#010x} vs reference {:#010x})",
                got.checksum, expect.checksum
            ));
        }
        println!("  {name}: checksum {:#010x} matches the uninterrupted reference", got.checksum);
    }
    if durability.wal_dir.is_none() {
        std::fs::remove_dir_all(&dir).ok();
    }
    println!("  crash recovery is bitwise-exact");
    Ok(())
}

/// Leader/follower loopback smoke: a durable leader, a follower tailing it
/// over TCP under concurrent ingest, per-epoch checksum verification, and
/// a final bitwise compare.
fn serve_smoke_follow(
    spec: &RunSpec,
    exec: ExecOpts,
    net: NetOpts,
    durability: Durability,
) -> Result<(), String> {
    let dir = durability
        .wal_dir
        .clone()
        .map(std::path::PathBuf::from)
        .unwrap_or_else(|| smoke_dir("smoke-follow"));
    let mut config = serve_config(spec, exec, net);
    let mut wal = durability.options().unwrap_or_else(|| WalOptions::new(&dir));
    wal.dir = dir.clone();
    // Checkpoint aggressively so the smoke also crosses a generation
    // reset, not just the steady tail.
    wal.checkpoint_epochs = 16;
    config.wal = Some(wal);
    let leader = Server::bind(config, "127.0.0.1:0").map_err(|e| format!("bind leader: {e}"))?;
    let leader_addr = leader.local_addr().to_string();
    println!("follow smoke: leader on {leader_addr}, WAL at {}", dir.display());

    let follower = Follower::start(&leader_addr, ServeConfig::new(Vec::new()))?;
    let front = Server::serve_core(follower.core(), "127.0.0.1:0")
        .map_err(|e| format!("bind follower front end: {e}"))?;
    println!("  follower read-only on {}", front.local_addr());

    // Concurrent ingest: epoch-sized submissions with explicit flushes so
    // the run crosses many sealed epochs.
    let (counts, mins) = serve_streams(spec);
    let mut ingest = TcpClient::connect(&leader_addr)?;
    let quantum = exec.quantum.max(1);
    let mut epochs = 0usize;
    for (a, b) in counts.chunks(quantum).zip(mins.chunks(quantum)) {
        ingest.submit_all(0, a)?;
        ingest.submit_all(1, b)?;
        ingest.flush()?;
        epochs += 1;
        std::thread::sleep(std::time::Duration::from_millis(1));
    }
    println!("  ingested {} updates per table across {epochs} flushed epochs", counts.len());

    // Wait for convergence, then compare bitwise over the wire.
    let target = counts.len().min(mins.len()) as u64;
    let deadline = Instant::now() + std::time::Duration::from_secs(30);
    loop {
        let caught_up = (0..2u16)
            .all(|t| follower.core().snapshot(t).map(|s| s.watermark >= target).unwrap_or(false));
        if caught_up {
            break;
        }
        if let FollowStatus::Diverged(m) = follower.status() {
            return Err(format!("follower diverged: {m}"));
        }
        if Instant::now() >= deadline {
            return Err("follower failed to catch up within 30s".into());
        }
        std::thread::sleep(std::time::Duration::from_millis(5));
    }
    let mut check = TcpClient::connect(format!("{}", front.local_addr()))?;
    for (t, name) in [(0u16, "counts"), (1u16, "mins")] {
        let leader_snap = ingest.snapshot(t)?;
        let follow_snap = check.snapshot(t)?;
        if leader_snap.checksum != follow_snap.checksum || leader_snap.bits() != follow_snap.bits()
        {
            return Err(format!("table {name} diverged between leader and follower"));
        }
        println!(
            "  {name}: watermark {} checksum {:#010x} identical on both sides",
            follow_snap.watermark, follow_snap.checksum
        );
    }
    // A follower front end is read-only: submits must be refused.
    match check.submit(0, &[Update::i32(u64::MAX, 0, 1)]) {
        Ok(SubmitOutcome::Failed(m)) if m.contains("read-only") => {}
        other => return Err(format!("read-only follower accepted a submit: {other:?}")),
    }
    println!("  follower refused a direct submit (read-only)");
    follower.stop();
    front.shutdown();
    front.join();
    leader.shutdown();
    leader.join();
    if durability.wal_dir.is_none() {
        std::fs::remove_dir_all(&dir).ok();
    }
    println!("  leader/follower converge bitwise with per-epoch verification");
    Ok(())
}

/// In-process throughput sweep: the same stream folded under increasing
/// epoch quanta, showing what micro-batching buys over per-update epochs.
/// With `--tune`, a final row starts the controller at the worst quantum
/// and reports where it converges.
fn run_bench_serve(spec: &RunSpec, exec: ExecOpts, net: NetOpts) -> Result<(), String> {
    let (counts, _) = serve_streams(spec);
    println!(
        "bench-serve: {} updates, {} slots, shards {}, threads {}, backend {}",
        counts.len(),
        spec.cardinality.max(1),
        exec.shards,
        exec.threads,
        exec.backend.resolve().name()
    );
    println!("{:>8} {:>12} {:>12} {:>10}", "quantum", "elapsed_ms", "Mup/s", "slices");
    let mut baseline = None;
    let fold = |config: ServeConfig| -> Result<(f64, u64, std::sync::Arc<ServerCore>), String> {
        let core = ServerCore::new(config)?;
        let mut client = LocalClient::new(core.clone());
        let start = Instant::now();
        for chunk in counts.chunks(1024) {
            client.submit_all(0, chunk)?;
        }
        client.flush()?;
        let elapsed = start.elapsed().as_secs_f64();
        let slices = client.stats()?.slices;
        Ok((elapsed, slices, core))
    };
    for quantum in [1usize, 64, 1024, 4096] {
        let mut config = serve_config(spec, ExecOpts { quantum, tune: false, ..exec }, net);
        config.queue_capacity = quantum.max(4096) * 4;
        let (elapsed, slices, _) = fold(config)?;
        let mups = counts.len() as f64 / elapsed / 1e6;
        let speedup = match baseline {
            None => {
                baseline = Some(mups);
                String::new()
            }
            Some(b) => format!("  ({:.1}x vs quantum 1)", mups / b),
        };
        println!("{:>8} {:>12.2} {:>12.2} {:>10}{}", quantum, elapsed * 1e3, mups, slices, speedup);
    }
    if exec.tune {
        // Start the controller at the smallest rung so the row shows the
        // climb, not the starting guess.
        let ladder = TuneConfig::default().quantum_ladder;
        let mut config = serve_config(spec, ExecOpts { quantum: ladder[0], ..exec }, net);
        config.queue_capacity = ladder.last().copied().unwrap_or(4096) * 4;
        let (elapsed, slices, core) = fold(config)?;
        let mups = counts.len() as f64 / elapsed / 1e6;
        println!(
            "{:>8} {:>12.2} {:>12.2} {:>10}  (tuned from {}, {} policy changes, final quantum {})",
            "tuned",
            elapsed * 1e3,
            mups,
            slices,
            ladder[0],
            core.policy_trace().len(),
            core.current_policy().quantum
        );
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(s: &str) -> Vec<String> {
        s.split_whitespace().map(String::from).collect()
    }

    #[test]
    fn empty_args_show_help() {
        assert_eq!(parse(&[]).unwrap(), Command::Help);
        assert_eq!(parse(&args("help")).unwrap(), Command::Help);
        assert_eq!(parse(&args("list")).unwrap(), Command::List);
    }

    #[test]
    fn app_name_is_shorthand_for_run() {
        let direct = parse(&args("sssp --variant invec --source 3")).unwrap();
        let explicit = parse(&args("run --app sssp --variant invec --source 3")).unwrap();
        assert_eq!(direct, explicit);
        match direct {
            Command::Run { app, variants, spec, exec, repeat, obs } => {
                assert_eq!(app, "sssp");
                assert_eq!(variants, vec![Variant::Invec]);
                assert_eq!(spec.source, 3);
                assert_eq!(spec.scale, RunSpec::small().scale);
                assert_eq!(exec.threads, 1);
                assert_eq!(exec.backend, BackendChoice::Auto);
                assert_eq!(repeat, 1);
                assert!(!obs, "--obs defaults off");
                assert!(!exec.tune, "--tune defaults off");
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn repeat_is_parsed_and_validated() {
        match parse(&args("agg --repeat 5")).unwrap() {
            Command::Run { repeat, .. } => assert_eq!(repeat, 5),
            other => panic!("unexpected {other:?}"),
        }
        assert!(parse(&args("agg --repeat 0")).is_err());
    }

    #[test]
    fn serve_command_shadows_the_app_shorthand_and_takes_serving_options() {
        match parse(&args("serve --shards 8 --quantum 512 --smoke")).unwrap() {
            Command::Serve { addr, exec, smoke, .. } => {
                assert_eq!(addr, "127.0.0.1:7411");
                assert_eq!(exec.shards, 8);
                assert_eq!(exec.quantum, 512);
                assert!(smoke);
                assert!(!exec.tune);
            }
            other => panic!("unexpected {other:?}"),
        }
        // The harness workload stays reachable through run --app.
        match parse(&args("run --app serve")).unwrap() {
            Command::Run { app, .. } => assert_eq!(app, "serve"),
            other => panic!("unexpected {other:?}"),
        }
        assert!(parse(&args("serve --quantum 0")).is_err());
        assert!(parse(&args("serve --shards 0")).is_err());
    }

    #[test]
    fn serve_parses_reactor_knobs_and_validates_them() {
        match parse(&args("serve --io-threads 4 --max-conns 512 --reactor poll --clients 16"))
            .unwrap()
        {
            Command::Serve { net, clients, .. } => {
                assert_eq!(net.io_threads, 4);
                assert_eq!(net.max_conns, 512);
                assert_eq!(net.reactor, ReactorKind::Poll);
                assert_eq!(clients, 16);
            }
            other => panic!("unexpected {other:?}"),
        }
        match parse(&args("serve")).unwrap() {
            Command::Serve { net, clients, .. } => {
                assert_eq!(net.io_threads, 2);
                assert_eq!(net.max_conns, 4096);
                assert_eq!(net.reactor, ReactorKind::Auto);
                assert_eq!(clients, 2);
            }
            other => panic!("unexpected {other:?}"),
        }
        match parse(&args("bench-serve --reactor epoll")).unwrap() {
            Command::BenchServe { net, .. } => assert_eq!(net.reactor, ReactorKind::Epoll),
            other => panic!("unexpected {other:?}"),
        }
        assert!(parse(&args("serve --io-threads 0")).is_err());
        assert!(parse(&args("serve --max-conns 0")).is_err());
        assert!(parse(&args("serve --clients 0")).is_err());
        assert!(parse(&args("serve --reactor kqueue")).is_err());
    }

    #[test]
    fn bench_serve_parses_with_defaults() {
        match parse(&args("bench-serve --scale tiny")).unwrap() {
            Command::BenchServe { spec, exec, .. } => {
                assert_eq!(spec.rows, RunSpec::tiny().rows);
                assert_eq!(exec.threads, 1);
                assert_eq!(exec.shards, 4);
                assert_eq!(exec.quantum, 4096);
                assert!(!exec.tune);
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn tune_flag_parses_on_the_serving_commands() {
        match parse(&args("serve --tune --smoke")).unwrap() {
            Command::Serve { exec, .. } => assert!(exec.tune),
            other => panic!("unexpected {other:?}"),
        }
        match parse(&args("bench-serve --tune --scale tiny")).unwrap() {
            Command::BenchServe { exec, .. } => assert!(exec.tune),
            other => panic!("unexpected {other:?}"),
        }
        let config = serve_config(
            &RunSpec::tiny(),
            ExecOpts {
                threads: 1,
                backend: BackendChoice::Auto,
                shards: 2,
                quantum: 64,
                tune: true,
            },
            NetOpts { io_threads: 1, max_conns: 8, reactor: ReactorKind::Auto },
        );
        assert!(matches!(config.tune, TuneMode::Auto(_)), "--tune selects the controller");
    }

    #[test]
    fn serve_smoke_round_trips_on_loopback() {
        let spec = RunSpec { rows: 1200, cardinality: 32, ..RunSpec::tiny() };
        let net = NetOpts { io_threads: 2, max_conns: 64, reactor: ReactorKind::Auto };
        let exec = ExecOpts {
            threads: 1,
            backend: BackendChoice::Auto,
            shards: 3,
            quantum: 128,
            tune: false,
        };
        serve_smoke(&spec, exec, net, 4).expect("smoke must pass");
    }

    #[test]
    fn serve_smoke_stays_bitwise_correct_with_tuning_on() {
        let spec = RunSpec { rows: 1500, cardinality: 32, ..RunSpec::tiny() };
        let net = NetOpts { io_threads: 2, max_conns: 64, reactor: ReactorKind::Auto };
        let exec = ExecOpts {
            threads: 1,
            backend: BackendChoice::Auto,
            shards: 2,
            quantum: 64,
            tune: true,
        };
        serve_smoke(&spec, exec, net, 2).expect("tuned smoke must still match the serial fold");
    }

    #[test]
    fn variant_all_resolves_against_the_apps_legal_set() {
        match parse(&args("agg --variant all")).unwrap() {
            Command::Run { variants, .. } => {
                assert_eq!(variants, vec![Variant::Serial, Variant::Masked, Variant::Invec]);
            }
            other => panic!("unexpected {other:?}"),
        }
        match parse(&args("pagerank")).unwrap() {
            Command::Run { variants, .. } => assert_eq!(variants.len(), 5),
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn illegal_variant_for_app_is_rejected_with_the_legal_set() {
        let err = parse(&args("agg --variant tiled")).expect_err("tiled agg must not parse");
        assert!(err.contains("not legal for agg"), "{err}");
        assert!(err.contains("serial | masked | invec"), "{err}");
    }

    #[test]
    fn typo_in_app_name_gets_a_suggestion() {
        let err = parse(&args("pagernak")).expect_err("typo must not parse");
        assert!(err.contains("did you mean 'pagerank'"), "{err}");
        let err = parse(&args("run --app ssp")).expect_err("typo must not parse");
        assert!(err.contains("did you mean"), "{err}");
    }

    #[test]
    fn spec_overrides_compose_with_the_scale_preset() {
        match parse(&args("agg --scale tiny --rows 500 --dist moving-cluster")).unwrap() {
            Command::Run { spec, .. } => {
                assert_eq!(spec.rows, 500);
                assert_eq!(spec.dist, Distribution::MovingCluster);
                assert_eq!(spec.cardinality, RunSpec::tiny().cardinality);
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn run_all_defaults_to_tiny_and_accepts_threads() {
        assert_eq!(
            parse(&args("run-all")).unwrap(),
            Command::RunAll {
                spec: RunSpec::tiny(),
                threads: 1,
                backend: None,
                app: None,
                obs: false
            }
        );
        assert_eq!(
            parse(&args("run-all --scale tiny --threads 2 --obs")).unwrap(),
            Command::RunAll {
                spec: RunSpec::tiny(),
                threads: 2,
                backend: None,
                app: None,
                obs: true
            }
        );
        assert_eq!(
            parse(&args("run-all --backend portable")).unwrap(),
            Command::RunAll {
                spec: RunSpec::tiny(),
                threads: 1,
                backend: Some(BackendChoice::Portable),
                app: None,
                obs: false
            }
        );
    }

    #[test]
    fn run_all_app_filter_resolves_against_the_registry() {
        assert_eq!(
            parse(&args("run-all --app STREAM-GRAPH")).unwrap(),
            Command::RunAll {
                spec: RunSpec::tiny(),
                threads: 1,
                backend: None,
                app: Some("stream-graph".to_string()),
                obs: false
            }
        );
        let err = parse(&args("run-all --app stream-grpah")).unwrap_err();
        assert!(err.contains("did you mean 'stream-graph'"), "{err}");
    }

    #[test]
    fn obs_flag_and_metrics_command_parse() {
        match parse(&args("agg --scale tiny --obs")).unwrap() {
            Command::Run { obs, .. } => assert!(obs),
            other => panic!("unexpected {other:?}"),
        }
        assert_eq!(
            parse(&args("metrics")).unwrap(),
            Command::Metrics { addr: "127.0.0.1:7411".to_string() }
        );
        assert_eq!(
            parse(&args("metrics --addr 10.0.0.1:9000")).unwrap(),
            Command::Metrics { addr: "10.0.0.1:9000".to_string() }
        );
    }

    #[test]
    fn run_all_verdict_is_nonzero_exactly_when_failures_exist() {
        use std::time::Duration;

        use invector_core::Backend;
        use invector_harness::CellReport;

        let cell = |error: Option<String>| CellReport {
            app: "agg",
            input: "synthetic".to_string(),
            variant: Variant::Invec,
            backend: Backend::Portable,
            threads: 1,
            checksum: 0.0,
            elapsed: Duration::from_millis(3),
            mupdates: None,
            error,
        };
        let clean = driver::SmokeReport { cells: vec![cell(None), cell(None)] };
        assert!(run_all_verdict(&clean).is_ok());

        let broken = driver::SmokeReport {
            cells: vec![cell(None), cell(Some("value 7 diverged".to_string()))],
        };
        let err = run_all_verdict(&broken).expect_err("failures must exit non-zero");
        assert!(err.contains("1 cells disagree"), "{err}");
        assert!(err.contains(&format!("agg {} on portable t=1", Variant::Invec)), "{err}");
        assert!(err.contains("value 7 diverged"), "{err}");
    }

    #[test]
    fn obs_run_writes_a_parseable_chrome_trace() {
        let dir = std::env::temp_dir().join("invector-cli-obs-test");
        std::fs::create_dir_all(&dir).expect("temp dir");
        let path = dir.join("trace.json");
        let path = path.to_str().expect("utf8 path");

        invector_obs::set_enabled(true);
        let spec = RunSpec { rows: 400, cardinality: 16, ..RunSpec::tiny() };
        let exec = ExecOpts {
            threads: 2,
            backend: BackendChoice::Auto,
            shards: 4,
            quantum: 4096,
            tune: false,
        };
        run_app("agg", &[Variant::Invec], &spec, exec, 1, false).expect("agg run");
        obs_report(path).expect("obs report");

        let text = std::fs::read_to_string(path).expect("trace file");
        let doc = invector_obs::json::parse(&text).expect("trace parses as JSON");
        let events = doc.get("traceEvents").expect("traceEvents").as_array().expect("array");
        for e in events {
            assert!(e.get("name").unwrap().as_str().is_some());
            assert!(e.get("ts").unwrap().as_f64().is_some());
            assert!(e.get("dur").unwrap().as_f64().is_some());
        }
        std::fs::remove_file(path).ok();
    }

    #[test]
    fn rejects_unknown_command_option_and_values() {
        assert!(parse(&args("frobnicate")).is_err());
        assert!(parse(&args("sssp --bogus 1")).is_err());
        assert!(parse(&args("sssp --variant warp")).is_err());
        assert!(parse(&args("agg --dist normal")).is_err());
        assert!(parse(&args("sssp --scale 0")).is_err());
        assert!(parse(&args("sssp --scale")).is_err());
        assert!(parse(&args("sssp extra")).is_err());
        assert!(parse(&args("sssp --threads 0")).is_err());
        let err = parse(&args("sssp --backend gpu")).unwrap_err();
        assert!(err.contains("valid values"), "backend error lists valid names: {err}");
        assert!(err.contains("supported on this host"), "backend error lists host support: {err}");
        assert!(parse(&args("run")).is_err());
    }

    #[test]
    fn run_executes_small_commands() {
        run(Command::List).unwrap();
        run(Command::Info { scale: 0.001 }).unwrap();
        run(parse(&args("wcc --dataset amazon0312 --variant invec --scale tiny")).unwrap())
            .unwrap();
        run(parse(&args("agg --scale tiny --rows 2000 --cardinality 16")).unwrap()).unwrap();
        run(parse(&args("moldyn --scale tiny --iters 2 --variant serial")).unwrap()).unwrap();
        run(parse(&args("spmv --dataset soc-Pokec --variant invec --scale tiny")).unwrap())
            .unwrap();
        run(parse(&args("euler --mesh 6 --iters 2 --variant masked --scale tiny")).unwrap())
            .unwrap();
        run(parse(&args("bfs --scale tiny --backend portable --threads 2")).unwrap()).unwrap();
        run(parse(&args("agg --scale tiny --rows 1000 --repeat 2")).unwrap()).unwrap();
        run(parse(&args("run --app serve --scale tiny --variant invec")).unwrap()).unwrap();
        run(parse(&args("bench-serve --scale tiny --rows 3000 --cardinality 32")).unwrap())
            .unwrap();
    }

    #[test]
    fn run_rejects_bad_dataset_and_degenerate_mesh() {
        assert!(run(parse(&args("sssp --dataset nope --scale tiny")).unwrap()).is_err());
        assert!(run(parse(&args("euler --mesh 1 --scale tiny")).unwrap()).is_err());
    }
}
