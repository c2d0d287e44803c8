//! The traced run's layer calls.
//!
//! [`traced_compile`] compiles SLC along the same pass schedule as
//! `lslp::pipeline` (if-conversion, unrolling, two scalar rounds, the
//! vectorizer, a final DCE), calling each layer's public entry point inside
//! a span. It then probes the vectorizer's input phase by phase and the
//! analyses one by one. Every workload checks, after its timed phase, that
//! the traced compile printed what `Session` prints for the same source and
//! options, so a change to the pipeline's schedule that this file does not
//! follow fails the traced run. [`server_probe`] and [`daemon_probe`]
//! measure the daemon's layers on a workload's own request lines.

use std::collections::HashMap;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use lslp::api::CompileOptions;
use lslp::pm::{
    CsePass, DcePass, FoldPass, IfConvertPass, PassContext, PassManager, SimplifyPass,
    UnrollLoopsPass, VectorizePass,
};
use lslp::{AnalysisManager, GraphBuilder, Statistics, VectorizerConfig};
use lslp_analysis::{AddrInfo, MemDep};
use lslp_ir::Module;
use lslp_server::cache::{content_key, CachedResult, ResultCache};
use lslp_server::protocol::{parse_request, CompileRequest, Response};
use lslp_server::{Client, Server, ServerConfig};

use crate::trace::{Tracer, ROOT};
use crate::util::{inst_count, median, us_since};

/// Scalar clean-up rounds ahead of the vectorizer (as in `lslp::pipeline`).
const SCALAR_ROUNDS: usize = 2;

/// Compile `src` under `opts` with one span per layer call, under a span
/// named `compile` below `parent`, then probe the vectorizer's phases
/// under a root span named `probe`. Any error or guard incident is an
/// `Err`, and so are options without the full pipeline, whose schedule this
/// does not follow.
pub fn traced_compile(
    t: &mut Tracer,
    parent: u32,
    op: u32,
    src: &str,
    opts: &CompileOptions,
) -> Result<TracedCompile, String> {
    if !opts.pipeline() {
        return Err("the traced compile follows the full pipeline only".to_string());
    }
    let root = t.open("compile", parent, op);
    let out = compile_spans(t, root, op, src, opts);
    t.close(root);
    t.count("compiles", 1.0);
    let compile_us = t.spans[root as usize].us();
    let (module, ir, vec_inputs) = out?;
    let probe = t.open("probe", ROOT, op);
    for f in vec_inputs {
        probe_vectorizer(t, probe, op, f, opts);
    }
    t.close(probe);
    Ok(TracedCompile { module, ir, compile_us, probe_us: t.spans[probe as usize].us() })
}

/// What [`traced_compile`] produced and how long it took.
pub struct TracedCompile {
    pub module: Module,
    pub ir: String,
    /// The compile itself, along the spans.
    pub compile_us: f64,
    /// The phase probes that followed it.
    pub probe_us: f64,
}

type Compiled = (Module, String, Vec<lslp_ir::Function>);

fn compile_spans(
    t: &mut Tracer,
    root: u32,
    op: u32,
    src: &str,
    opts: &CompileOptions,
) -> Result<Compiled, String> {
    t.span("frontend.parse", root, op, || lslp_frontend::parse(src)).map_err(|e| e.to_string())?;
    let mut module = t
        .span("frontend.compile", root, op, || lslp_frontend::compile(src))
        .map_err(|e| e.to_string())?;
    let cfg = opts.config();
    let tm = opts.target();
    let mut am = AnalysisManager::new();
    let mut vec_inputs = Vec::new();
    for f in &mut module.functions {
        t.count("ir.insts_in", inst_count(f) as f64);
        let stats = Statistics::new();
        let cx = PassContext { cfg, tm, stats: &stats };
        let mut pm = PassManager::new(cfg.guard_policy());
        let mut run = |t: &mut Tracer,
                       name: &'static str,
                       pass: &mut dyn lslp::Pass,
                       f: &mut lslp_ir::Function| {
            t.span(name, root, op, || pm.run_pass(pass, f, &mut am, &cx)).map_err(|e| e.to_string())
        };
        run(t, "core.ifconv", &mut IfConvertPass, f)?;
        let unrolled = run(t, "core.unroll", &mut UnrollLoopsPass, f)?;
        let mut merged = 0;
        let mut removed = 0;
        for _ in 0..SCALAR_ROUNDS {
            run(t, "core.simplify", &mut SimplifyPass, f)?;
            run(t, "core.fold", &mut FoldPass, f)?;
            merged += run(t, "core.cse", &mut CsePass, f)?;
            removed += run(t, "core.dce", &mut DcePass, f)?;
        }
        if cfg.enabled {
            vec_inputs.push(f.clone());
        }
        let mut vp = VectorizePass::default();
        run(t, "core.vectorize", &mut vp, f)?;
        let report = vp.take_report().map_err(|e| e.to_string())?;
        removed += report.dce_removed + run(t, "core.dce", &mut DcePass, f)?;
        let incidents = pm.take_incidents().len() + report.incidents.len();
        if incidents > 0 {
            return Err(format!("@{}: {incidents} guard incident(s)", f.name()));
        }
        t.count("core.cse_merged", merged as f64);
        t.count("core.dce_removed", removed as f64);
        t.count("core.unrolled", unrolled as f64);
        t.count("vec.attempts", report.attempts.len() as f64);
        t.count("vec.trees", report.trees_vectorized as f64);
        t.count("ir.insts_out", inst_count(f) as f64);
        let cs = am.cache_stats();
        t.count("analysis.hits", cs.hits as f64);
        t.count("analysis.misses", cs.misses as f64);
    }
    let ir = t.span("ir.print", root, op, || lslp_ir::print_module(&module));
    Ok((module, ir, vec_inputs))
}

/// One pass of the vectorizer's phases over its input `f`: analyses, seed
/// collection, graph build (look-ahead and `SLP-NR`), costing, and for each
/// profitable graph codegen, verification and rollback inside a
/// transaction.
fn probe_vectorizer(
    t: &mut Tracer,
    parent: u32,
    op: u32,
    mut f: lslp_ir::Function,
    opts: &CompileOptions,
) {
    let cfg = opts.config();
    let tm = opts.target();
    let nr = VectorizerConfig::preset("SLP-NR").expect("SLP-NR preset");
    let addr = t.span("analysis.addr", parent, op, || AddrInfo::analyze(&f));
    t.span("analysis.memdep", parent, op, || MemDep::analyze(&f, &addr));
    let use_map = t.span("analysis.uses", parent, op, || f.use_map());
    let positions = t.span("analysis.positions", parent, op, || f.position_map());
    let vec = t.open("vec", parent, op);
    let chains = t.span("vec.seeds", vec, op, || lslp::seeds::collect_store_chains(&f, &addr));
    let mut bundles = Vec::new();
    for chain in &chains {
        let Some(elem) = f.ty(f.args_of(chain.stores[0])[0]).elem() else { continue };
        let max_vf = (tm.max_vf(elem) as usize).min(cfg.max_vf as usize).max(2);
        let mut i = 0;
        while chain.len() - i >= 2 {
            let vf = pow2_floor((chain.len() - i).min(max_vf));
            bundles.push(chain.stores[i..i + vf].to_vec());
            i += vf;
        }
    }
    let graphs: Vec<_> = t.span("vec.graph", vec, op, || {
        bundles
            .iter()
            .map(|b| GraphBuilder::new(&f, cfg, tm, &addr, &positions, &use_map).build(b))
            .collect()
    });
    t.span("vec.graph_nr", vec, op, || {
        for b in &bundles {
            GraphBuilder::new(&f, &nr, tm, &addr, &positions, &use_map).build(b);
        }
    });
    let costs: Vec<i64> = t.span("vec.cost", vec, op, || {
        graphs.iter().map(|g| lslp::graph_cost(&f, g, tm, &use_map).total).collect()
    });
    for g in &graphs {
        t.count("vec.graph_nodes", g.nodes().len() as f64);
        t.count("vec.gathers", g.nodes().iter().filter(|n| !n.is_vectorizable()).count() as f64);
    }
    for (g, cost) in graphs.iter().zip(costs) {
        if cost >= cfg.cost_threshold {
            continue;
        }
        let mark = f.begin_txn();
        t.span("vec.codegen", vec, op, || lslp::codegen::generate(&mut f, g, tm));
        let verdict = t.span("vec.verify", vec, op, || lslp_ir::verify_function(&f));
        assert!(verdict.is_ok(), "generated code does not verify: {verdict:?}");
        t.span("vec.rollback", vec, op, || f.rollback_txn(mark));
    }
    t.close(vec);
}

fn pow2_floor(n: usize) -> usize {
    1 << (usize::BITS - 1 - n.leading_zeros())
}

/// One request of a workload's stream, as the daemon would see it.
pub struct ProbeRequest<'a> {
    pub req: &'a CompileRequest,
    /// The artifact's printed IR (the response payload).
    pub payload: &'a str,
}

/// Decode, render, client parse and a standalone result cache at the
/// daemon's default capacity replaying the stream's keys, on the stream's
/// own lines. Compiles are not repeated here.
pub fn server_probe(t: &mut Tracer, stream: &[ProbeRequest<'_>]) {
    let defaults = ServerConfig::default();
    let cache = ResultCache::new(defaults.cache_capacity, defaults.cache_shards);
    let probe = t.open("server", ROOT, u32::MAX);
    for (i, p) in stream.iter().enumerate() {
        let op = i as u32;
        let line = p.req.to_line();
        let decoded = t.span("server.decode", probe, op, || parse_request(&line));
        assert!(decoded.is_ok(), "the workload's own line must decode");
        // The daemon's cache key material, field for field (source, preset,
        // target, pipeline, emit, guard, packing, budget).
        let budget = p.req.timeout_ms.unwrap_or(defaults.default_time_budget_ms).to_string();
        let parts = [
            p.req.src.as_str(),
            p.req.config.as_str(),
            p.req.target.as_deref().unwrap_or("-"),
            "1",
            "ir",
            "-",
            "-",
            budget.as_str(),
        ];
        let key = content_key(&parts);
        let material = parts.join("\0");
        let hit = t.span("server.cache_get", probe, op, || cache.get(key, &material));
        let result =
            CachedResult { output: p.payload.to_string(), trees: 0, cost: 0, incidents: 0 };
        if hit.is_none() {
            t.span("server.cache_insert", probe, op, || {
                cache.insert(key, &material, result.clone())
            });
        }
        let fields = [("key", format!("{key:016x}")), ("cached", "miss".to_string())];
        let rendered =
            t.span("server.render", probe, op, || Response::ok_line(&fields, &result.output));
        let parsed = t.span("server.client_parse", probe, op, || Response::parse(&rendered));
        assert!(parsed.is_ok(), "the rendered response must parse");
    }
    t.close(probe);
    let c = cache.counters();
    t.count("server.hits", c.hits as f64);
    t.count("server.misses", c.misses as f64);
    t.count("server.evictions", c.evictions as f64);
    t.count("server.replayed", stream.len() as f64);
}

/// For workloads without a daemon: serve `requests` from a fresh in-process
/// daemon once cold and once warm. Returns the transport share of each warm
/// hit (µs) and the daemon's own p50 (µs) from `STATS`.
pub fn daemon_probe(requests: &[CompileRequest]) -> Result<(Vec<f64>, f64), String> {
    let mut daemon = Daemon::spawn()?;
    let mut transport = Vec::new();
    for pass in 0..2 {
        for r in requests {
            let t0 = Instant::now();
            let resp = daemon.client.compile(r).map_err(|e| e.to_string())?;
            let us = us_since(t0);
            if !resp.ok {
                return Err(resp.payload);
            }
            if pass == 1 {
                transport.push(us - loop_side_us(r, &resp.payload));
            }
        }
    }
    let p50 = daemon_p50_us(&mut daemon.client)?;
    daemon.stop()?;
    Ok((transport, p50))
}

/// What the daemon's event loop spends on one warm hit, timed through the
/// same public functions: decode the line, probe a cache holding the
/// result, render the response. A hit's client-side latency minus this is
/// its transport share (socket and wake-up).
pub fn loop_side_us(req: &CompileRequest, payload: &str) -> f64 {
    let line = req.to_line();
    let cache = ResultCache::new(1, 1);
    let key = content_key(&[req.src.as_str()]);
    cache.insert(
        key,
        &req.src,
        CachedResult { output: payload.to_string(), trees: 0, cost: 0, incidents: 0 },
    );
    let t0 = Instant::now();
    let decoded = parse_request(&line);
    let hit = cache.get(key, &req.src);
    let fields = [("key", format!("{key:016x}")), ("cached", "hit".to_string())];
    let rendered = Response::ok_line(&fields, &hit.expect("just inserted").output);
    let us = us_since(t0);
    assert!(decoded.is_ok() && !rendered.is_empty());
    us
}

/// An in-process `lslpd` with one compile worker and a client that has
/// completed the `HELLO` handshake. Dropping it shuts the daemon down and
/// waits for it to exit.
pub struct Daemon {
    pub client: Client,
    handle: Option<JoinHandle<std::io::Result<()>>>,
}

impl Daemon {
    pub fn spawn() -> Result<Daemon, String> {
        let (addr, handle) = Server::spawn(ServerConfig { workers: 1, ..ServerConfig::default() })
            .map_err(|e| e.to_string())?;
        let mut daemon = Daemon {
            client: Client::connect(addr).map_err(|e| e.to_string())?,
            handle: Some(handle),
        };
        daemon.client.set_timeout(Some(Duration::from_secs(120))).map_err(|e| e.to_string())?;
        let hello = daemon.client.hello().map_err(|e| e.to_string())?;
        if !hello.ok {
            return Err(format!("HELLO refused: {}", hello.payload));
        }
        Ok(daemon)
    }

    /// `SHUTDOWN`, then wait for the daemon to drain and exit.
    pub fn stop(mut self) -> Result<(), String> {
        self.shutdown()
    }

    fn shutdown(&mut self) -> Result<(), String> {
        let Some(handle) = self.handle.take() else { return Ok(()) };
        self.client.shutdown().map_err(|e| e.to_string())?;
        handle.join().map_err(|_| "daemon thread panicked".to_string())?.map_err(|e| e.to_string())
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        let _ = self.shutdown();
    }
}

/// The daemon's own latency p50 (µs), from `STATS`.
pub fn daemon_p50_us(client: &mut Client) -> Result<f64, String> {
    let stats = client.stats().map_err(|e| e.to_string())?;
    stats
        .payload
        .lines()
        .find_map(|l| l.strip_prefix("latency: "))
        .and_then(|l| l.split(' ').find_map(|kv| kv.strip_prefix("p50_us=")))
        .and_then(|v| v.parse().ok())
        .ok_or_else(|| "STATS has no latency p50".to_string())
}

/// Per-layer metrics from a finished trace: compile-layer times and counts
/// per traced compile, interpreter figures per run, server figures per
/// replayed request. `transport_us` is the median transport share of a
/// warm hit and `daemon_p50` the daemon's own p50, both in µs.
pub fn layer_metrics(
    t: &Tracer,
    transport_us: f64,
    daemon_p50: f64,
) -> Vec<(String, f64, &'static str)> {
    let totals = t.totals_us();
    let count = |n: &str| t.counts.get(n).copied().unwrap_or(0.0);
    let compiles = count("compiles").max(1.0);
    let per = |n: &str| totals.get(n).copied().unwrap_or(0.0) / compiles;
    let mut m: Vec<(String, f64, &'static str)> = Vec::new();
    let mut push = |name: &str, v: f64, unit: &'static str| m.push((name.to_string(), v, unit));

    push("frontend.parse_us", per("frontend.parse"), "us");
    push("frontend.lower_us", (per("frontend.compile") - per("frontend.parse")).max(0.0), "us");
    for pass in ["ifconv", "unroll", "simplify", "fold", "cse", "dce", "vectorize"] {
        push(&format!("core.{pass}_us"), per(&format!("core.{pass}")), "us");
    }
    for c in ["core.cse_merged", "core.dce_removed", "core.unrolled"] {
        push(c, count(c) / compiles, "count");
    }
    let phases = [
        "vec.seeds",
        "vec.graph",
        "vec.graph_nr",
        "vec.cost",
        "vec.codegen",
        "vec.rollback",
        "vec.verify",
    ];
    for p in phases {
        push(&format!("{p}_us"), per(p), "us");
    }
    let attempts = count("vec.attempts");
    push("vec.attempts", attempts / compiles, "count");
    push("vec.trees", count("vec.trees") / compiles, "count");
    push(
        "vec.useful_ratio",
        if attempts > 0.0 { count("vec.trees") / attempts } else { 0.0 },
        "ratio",
    );
    push("vec.graph_nodes", count("vec.graph_nodes") / compiles, "count");
    push("vec.gathers", count("vec.gathers") / compiles, "count");
    // One pass over the phases, excluding the SLP-NR comparison build.
    let one_pass: f64 = phases.iter().filter(|p| **p != "vec.graph_nr").map(|p| per(p)).sum();
    push(
        "vec.rework_ratio",
        if one_pass > 0.0 { per("core.vectorize") / one_pass } else { 0.0 },
        "ratio",
    );
    for a in ["addr", "memdep", "uses", "positions"] {
        push(&format!("analysis.{a}_us"), per(&format!("analysis.{a}")), "us");
    }
    let (hits, misses) = (count("analysis.hits"), count("analysis.misses"));
    push("analysis.hits", hits / compiles, "count");
    push("analysis.misses", misses / compiles, "count");
    push("analysis.hit_ratio", hits / (hits + misses).max(1.0), "ratio");
    push("ir.print_us", per("ir.print"), "us");
    push("ir.insts_in", count("ir.insts_in") / compiles, "count");
    push("ir.insts_out", count("ir.insts_out") / compiles, "count");

    let exec_runs = count("interp.exec_runs").max(1.0);
    let exec_us = totals.get("interp.exec").copied().unwrap_or(0.0);
    push("interp.exec_us", exec_us / exec_runs, "us");
    let costed_runs = count("interp.costed_runs").max(1.0);
    push(
        "interp.costed_us",
        totals.get("interp.costed").copied().unwrap_or(0.0) / costed_runs,
        "us",
    );
    push("interp.dyn_insts", count("interp.dyn_insts") / exec_runs, "count");
    push(
        "interp.minsts_per_s",
        if exec_us > 0.0 { count("interp.dyn_insts") / exec_us } else { 0.0 },
        "Minst/s",
    );

    let replayed = count("server.replayed").max(1.0);
    let sper = |n: &str| totals.get(n).copied().unwrap_or(0.0) / replayed;
    push("server.decode_us", sper("server.decode"), "us");
    push("server.render_us", sper("server.render"), "us");
    push("server.client_parse_us", sper("server.client_parse"), "us");
    push("server.cache_get_us", sper("server.cache_get"), "us");
    let inserts = count("server.misses").max(1.0);
    push(
        "server.cache_insert_us",
        totals.get("server.cache_insert").copied().unwrap_or(0.0) / inserts,
        "us",
    );
    push("server.compile_us", totals.get("compile").copied().unwrap_or(0.0) / compiles, "us");
    push("server.transport_us", transport_us, "us");
    push("server.hits", count("server.hits"), "count");
    push("server.misses", count("server.misses"), "count");
    push("server.evictions", count("server.evictions"), "count");
    push("server.hit_ratio", count("server.hits") / replayed, "ratio");
    push("server.daemon_p50_us", daemon_p50, "us");
    push("trace.coverage", t.coverage("compile"), "ratio");
    m
}

/// Self time per layer, per traced compile.
pub fn self_times(t: &Tracer) -> HashMap<&'static str, f64> {
    let compiles = t.counts.get("compiles").copied().unwrap_or(1.0).max(1.0);
    t.self_us().into_iter().map(|(k, v)| (k, v / compiles)).collect()
}

/// Median, or 0 with no samples.
pub fn median_or_zero(v: &[f64]) -> f64 {
    if v.is_empty() {
        0.0
    } else {
        median(v)
    }
}
