//! The four workloads. Each sets up, runs whole rounds of operations for
//! at least the requested time (repeating its set-up between rounds for the
//! reported median), then checks every output against a computation made
//! apart from the optimizer.

use std::collections::HashMap;
use std::time::Instant;

use lslp::api::{CompileOptions, Session};
use lslp::{Artifact, Sabotage};
use lslp_interp::{measure_cycles, Value};
use lslp_ir::Function;
use lslp_kernels::Kernel;
use lslp_server::protocol::CompileRequest;
use lslp_target::{TargetSpec, TARGET_NAMES};

use crate::gen::GenKernel;
use crate::layers::{self, traced_compile, ProbeRequest};
use crate::trace::{Tracer, ROOT};
use crate::util::{
    build_memory, first_mismatch, geomean, inst_count, loglog_slope, median, peak_rss_mb,
    pointer_params, quantile, read_memory, seeded_arrays, sorted, us_since, ArraySpec, Rng,
};

/// Every run has at least this many operations, so the p90 has at least
/// ten samples beyond it.
const MIN_OPS: usize = 100;
/// Set-up repetitions; the median is reported.
const SETUP_REPEATS: usize = 21;
/// A compile budget no compile here comes near, so output never depends on
/// timing.
const AMPLE_BUDGET_MS: u64 = 600_000;

pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    /// Compile with a planted lane-swap miscompile (the checker's negative
    /// test).
    pub sabotage: bool,
}

pub type Metric = (String, f64, &'static str);

pub struct Outcome {
    pub attempted: usize,
    pub failed: usize,
    /// What failed, for the log (the first few).
    pub failures: Vec<String>,
    pub end_to_end: Vec<Metric>,
    /// The traced run's tracer, when there was one.
    pub tracer: Option<Tracer>,
    /// Transport share of a warm hit and the daemon's p50 (µs), for the
    /// server layer.
    pub transport_us: f64,
    pub daemon_p50_us: f64,
    /// Traced `suite` and `scaling` runs: one JSON row per input.
    pub rows: Vec<String>,
}

/// Per-operation bookkeeping shared by the workloads.
#[derive(Default)]
struct Ops {
    lat_ms: Vec<f64>,
    input: Vec<usize>,
    failed: Vec<bool>,
    failures: Vec<String>,
    /// `(operation, input size)` points for the growth fit.
    fit: Vec<(usize, f64)>,
    /// Each round's operations and wall-clock seconds, probes excluded.
    rounds: Vec<(std::ops::Range<usize>, f64)>,
}

impl Ops {
    fn record(&mut self, input: usize, ms: f64, err: Option<String>) {
        self.lat_ms.push(ms);
        self.input.push(input);
        self.failed.push(err.is_some());
        if let Some(e) = err {
            self.fail_note(e);
        }
    }

    fn fail_note(&mut self, e: String) {
        if self.failures.len() < 8 {
            self.failures.push(e);
        }
    }

    /// Mark every operation on `input` failed (a post-run check failed).
    fn fail_input(&mut self, input: usize, why: String) {
        for (i, &inp) in self.input.iter().enumerate() {
            if inp == input {
                self.failed[i] = true;
            }
        }
        self.fail_note(why);
    }

    /// The end-to-end figures, as measured.
    fn finish(self, setup_s: f64, speedup: f64) -> Outcome {
        let secs: f64 = self.rounds.iter().map(|r| r.1).sum();
        let mut timed = vec![false; self.lat_ms.len()];
        for (r, _) in &self.rounds {
            timed[r.clone()].iter_mut().for_each(|t| *t = true);
        }
        let lat: Vec<f64> =
            (0..timed.len()).filter(|&i| timed[i]).map(|i| self.lat_ms[i]).collect();
        let fit: Vec<(f64, f64)> = self
            .fit
            .iter()
            .filter(|p| timed[p.0])
            .map(|&(i, size)| (size, self.lat_ms[i]))
            .collect();
        let s = sorted(&lat);
        eprintln!("{} rounds, {} operations in {secs:.3} s", self.rounds.len(), s.len());
        let end_to_end: Vec<Metric> = vec![
            ("setup_s".to_string(), setup_s, "s"),
            ("throughput_ops_s".to_string(), lat.len() as f64 / secs, "1/s"),
            ("latency_p50_ms".to_string(), quantile(&s, 0.5), "ms"),
            ("latency_p90_ms".to_string(), quantile(&s, 0.9), "ms"),
            ("growth_exp".to_string(), loglog_slope(&fit), "exponent"),
            ("sim_speedup".to_string(), speedup, "ratio"),
            ("peak_rss_mb".to_string(), peak_rss_mb(), "MB"),
        ];
        Outcome {
            attempted: self.lat_ms.len(),
            failed: self.failed.iter().filter(|&&f| f).count(),
            failures: self.failures,
            end_to_end,
            tracer: None,
            transport_us: 0.0,
            daemon_p50_us: 0.0,
            rows: Vec::new(),
        }
    }
}

/// Whole rounds over `n` inputs until `seconds` have passed and at least
/// [`MIN_OPS`] operations ran. `op(ops, input)` returns the seconds of its
/// own time to leave out of the timed phase (tracing probes). After each
/// round, `between(measured seconds so far)` runs outside the timed phase.
fn rounds(
    seconds: f64,
    n: usize,
    ops: &mut Ops,
    mut between: impl FnMut(f64),
    mut op: impl FnMut(&mut Ops, usize) -> f64,
) {
    let start = Instant::now();
    let mut measured = 0.0;
    loop {
        let first = ops.lat_ms.len();
        let mut secs = 0.0;
        for input in 0..n {
            let t0 = Instant::now();
            let excluded = op(ops, input);
            secs += t0.elapsed().as_secs_f64() - excluded;
        }
        measured += secs;
        ops.rounds.push((first..ops.lat_ms.len(), secs));
        if measured >= seconds && ops.lat_ms.len() >= MIN_OPS
            || start.elapsed().as_secs_f64() > 6.0 * seconds
        {
            break;
        }
        between(measured);
    }
}

/// A workload's set-up, timed [`SETUP_REPEATS`] times in a run: once before
/// the timed phase, whose result is the state the run uses, and the rest
/// between rounds, evenly over the measured time. One set-up lasts 40-160
/// ms, so repetitions taken back to back all land in one phase of the host;
/// spread over the run, their median samples its phases as the timed
/// figures do.
struct Setup<F> {
    run: F,
    times: Vec<f64>,
}

impl<T, F: FnMut() -> T> Setup<F> {
    fn first(run: F) -> (Setup<F>, T) {
        let mut setup = Setup { run, times: Vec::new() };
        let state = setup.once();
        (setup, state)
    }

    /// Time one set-up; its result is dropped by the caller, untimed.
    fn once(&mut self) -> T {
        let t0 = Instant::now();
        let state = (self.run)();
        self.times.push(t0.elapsed().as_secs_f64());
        state
    }

    /// Repeat the set-up, discarding its result, when one is due after
    /// `measured` of `seconds`.
    fn between_rounds(&mut self, measured: f64, seconds: f64) {
        let due = seconds * self.times.len() as f64 / SETUP_REPEATS as f64;
        if self.times.len() < SETUP_REPEATS && measured >= due {
            drop(self.once());
        }
    }

    /// Complete the repetitions (a run shorter than planned) and report
    /// their median.
    fn median(mut self) -> f64 {
        while self.times.len() < SETUP_REPEATS {
            drop(self.once());
        }
        eprintln!("set-up repetitions (s): {:.4?}", self.times);
        median(&self.times)
    }
}

fn options(preset: &str, target: &str, sabotage: bool) -> CompileOptions {
    let mut b = CompileOptions::preset(preset).target(target).time_budget_ms(AMPLE_BUDGET_MS);
    if sabotage {
        b = b.sabotage(Sabotage::SwapShuffleMask);
    }
    b.build().expect("valid options")
}

fn incidents(a: &Artifact) -> usize {
    a.reports.iter().map(|r| r.incidents.len() + r.vectorize.incidents.len()).sum()
}

/// The IR with the function name cut off (everything from the first `(`),
/// so renamed compiles of one input compare equal.
fn unnamed(ir: &str) -> &str {
    ir.find('(').map_or(ir, |p| &ir[p..])
}

// ---------------------------------------------------------------------------
// Paper kernels
// ---------------------------------------------------------------------------

/// Every kernel of `lslp-kernels`: Table 2 and §3, the extension, narrow,
/// loop/branch and reduction kernels.
pub fn paper_kernels() -> Vec<Kernel> {
    let mut all = lslp_kernels::suite();
    all.extend(lslp_kernels::extended_kernels());
    all.extend(lslp_kernels::narrow_kernels());
    all.extend(lslp_kernels::loop_kernels());
    all.extend(lslp_kernels::reduction_kernels());
    all
}

/// A paper kernel with seeded arrays for its default iteration count.
struct KernelInput {
    k: Kernel,
    specs: Vec<ArraySpec>,
    init: Vec<Vec<Value>>,
    lowered: Function,
}

impl KernelInput {
    fn new(k: Kernel, rng: &mut Rng) -> KernelInput {
        let len = k.array_len(k.default_iters);
        let specs: Vec<ArraySpec> = pointer_params(k.src)
            .into_iter()
            .map(|(name, ty)| ArraySpec { name, ty, len })
            .collect();
        let init = seeded_arrays(&specs, rng);
        KernelInput { k, specs, init, lowered: k.compile() }
    }

    /// Interpret `f` for the kernel's default iteration count on fresh
    /// seeded arrays: final arrays, simulated cycles, dynamic instructions.
    fn simulate(&self, f: &Function, tm: &TargetSpec) -> Result<Sim, String> {
        let mut mem = build_memory(&self.specs, &self.init);
        let (cycles, insts) = self.costed(f, &mut mem, tm)?;
        Ok(Sim { arrays: read_memory(&self.specs, &mem), cycles, insts })
    }

    fn costed(
        &self,
        f: &Function,
        mem: &mut lslp_interp::Memory,
        tm: &TargetSpec,
    ) -> Result<(i64, u64), String> {
        let mut cycles = 0;
        let mut insts = 0;
        for it in 0..self.k.default_iters {
            let args = self.k.args(f, mem, it as i64 * self.k.i_step);
            let r = measure_cycles(f, &args, mem, tm).map_err(|e| e.to_string())?;
            cycles += r.cycles;
            insts += r.stats.insts;
        }
        Ok((cycles, insts))
    }

    /// The uncosted interpreter over the same iterations (traced runs).
    fn exec(&self, f: &Function) -> Result<u64, String> {
        let mut mem = build_memory(&self.specs, &self.init);
        let mut insts = 0;
        for it in 0..self.k.default_iters {
            let args = self.k.args(f, &mem, it as i64 * self.k.i_step);
            insts +=
                lslp_interp::run_function(f, &args, &mut mem).map_err(|e| e.to_string())?.insts;
        }
        Ok(insts)
    }
}

struct Sim {
    arrays: Vec<Vec<Value>>,
    cycles: i64,
    insts: u64,
}

/// Traced runs time the interpreter both ways on each checked artifact.
fn trace_interp(t: &mut Tracer, inp: &KernelInput, f: &Function, tm: &TargetSpec) {
    let insts = t.span("interp.exec", ROOT, u32::MAX, || inp.exec(f)).unwrap_or(0);
    t.count("interp.exec_runs", 1.0);
    t.count("interp.dyn_insts", insts as f64);
    t.span("interp.costed", ROOT, u32::MAX, || inp.simulate(f, tm)).ok();
    t.count("interp.costed_runs", 1.0);
}

/// `suite`: compile every (kernel, target) pair from SLC to printed IR with
/// a fresh `Session`, renaming the kernel on every operation.
pub fn suite(a: &Args) -> Outcome {
    let mut rng = Rng::derive(a.seed, "suite");
    let kernels: Vec<KernelInput> =
        paper_kernels().into_iter().map(|k| KernelInput::new(k, &mut rng)).collect();
    let mut pairs: Vec<(usize, usize)> =
        (0..kernels.len()).flat_map(|k| (0..TARGET_NAMES.len()).map(move |t| (k, t))).collect();
    rng.shuffle(&mut pairs);
    let sizes: Vec<f64> = kernels.iter().map(|k| inst_count(&k.lowered) as f64).collect();
    let sabotage = a.sabotage;

    let (mut setup, opts) = Setup::first(|| {
        let opts: Vec<CompileOptions> =
            TARGET_NAMES.iter().map(|t| options("LSLP", t, sabotage)).collect();
        for &(k, t) in &pairs {
            Session::new(opts[t].clone()).compile(kernels[k].k.src).ok();
        }
        opts
    });

    let mut tracer = a.trace.then(Tracer::new);
    let mut ops = Ops::default();
    let mut first: HashMap<usize, (Function, String)> = HashMap::new();
    let mut probe_reqs: Vec<(CompileRequest, String)> = Vec::new();
    let tag = format!("_s{}_", a.seed);
    let between = |measured| setup.between_rounds(measured, a.seconds);
    rounds(a.seconds, pairs.len(), &mut ops, between, |ops, p| {
        let (k, t) = pairs[p];
        let name = kernels[k].k.name;
        let opid = ops.lat_ms.len();
        let src = kernels[k].k.src.replacen(
            &format!("kernel {name}("),
            &format!("kernel {name}{tag}{opid}("),
            1,
        );
        let (ms, excluded, result) = compile_op(tracer.as_mut(), opid, &src, &opts[t]);
        if let (Some(_), Ok((_, ir))) = (&tracer, &result) {
            if opid % 4 == 0 {
                probe_reqs.push((request(&src, "LSLP", TARGET_NAMES[t]), ir.clone()));
            }
        }
        ops.fit.push((opid, sizes[k]));
        let err = keep_first(&mut first, p, result, |a, b| unnamed(a) == unnamed(b))
            .map(|e| format!("{name} on {}: {e}", TARGET_NAMES[t]));
        ops.record(p, ms, err);
        excluded
    });

    // Semantic preservation against the unoptimized lowering, and the
    // simulated speedup over O3 on the same target.
    let mut ratios = Vec::new();
    for (p, &(k, t)) in pairs.iter().enumerate() {
        let Some((f, ir)) = first.get(&p) else { continue };
        let inp = &kernels[k];
        if tracer.is_some() {
            if let Err(why) = session_agrees(inp.k.src, &opts[t], ir) {
                ops.fail_input(p, format!("{} on {}: {why}", inp.k.name, TARGET_NAMES[t]));
                continue;
            }
        }
        let tm = opts[t].target();
        let want = inp.simulate(&inp.lowered, tm);
        let got = inp.simulate(f, tm);
        if let Some(tr) = tracer.as_mut() {
            trace_interp(tr, inp, f, tm);
        }
        let verdict = match (&want, &got) {
            (Ok(w), Ok(g)) => first_mismatch(&inp.specs, &g.arrays, &w.arrays),
            (Err(e), _) | (_, Err(e)) => Some(e.clone()),
        };
        if let Some(why) = verdict {
            ops.fail_input(p, format!("{} on {}: {why}", inp.k.name, TARGET_NAMES[t]));
            continue;
        }
        let o3 = Session::new(options("O3", TARGET_NAMES[t], false)).compile(inp.k.src);
        if let (Ok(o3), Ok(g)) = (o3, got) {
            if let Ok(base) = inp.simulate(&o3.module.functions[0], tm) {
                ratios.push(base.cycles as f64 / g.cycles as f64);
            }
        }
    }
    let rows = tracer.as_ref().map(|tr| {
        let labels: Vec<String> = pairs
            .iter()
            .map(|&(k, t)| format!("{} {}", kernels[k].k.name, TARGET_NAMES[t]))
            .collect();
        let sizes: Vec<f64> = pairs.iter().map(|&(k, _)| sizes[k]).collect();
        input_rows(tr, &labels, &sizes, &ops)
    });
    let mut out = ops.finish(setup.median(), geomean(&ratios));
    out.rows = rows.unwrap_or_default();
    if let Some(mut tr) = tracer {
        let reqs: Vec<CompileRequest> = probe_reqs.iter().take(32).map(|r| r.0.clone()).collect();
        finish_trace_without_daemon(&mut tr, &probe_reqs, &reqs, &mut out);
        out.tracer = Some(tr);
    }
    out
}

/// Per-input rows of a traced compile workload: median latency and median
/// CSE and vectorizer time of the input's operations.
fn input_rows(tr: &Tracer, labels: &[String], sizes: &[f64], ops: &Ops) -> Vec<String> {
    let mut per_op: HashMap<u32, (f64, f64)> = HashMap::new();
    for s in &tr.spans {
        let slot = per_op.entry(s.op).or_default();
        match s.name {
            "core.cse" => slot.0 += s.us(),
            "core.vectorize" => slot.1 += s.us(),
            _ => {}
        }
    }
    (0..labels.len())
        .filter_map(|i| {
            let op_ids: Vec<usize> = (0..ops.input.len()).filter(|&o| ops.input[o] == i).collect();
            if op_ids.is_empty() {
                return None;
            }
            let lat: Vec<f64> = op_ids.iter().map(|&o| ops.lat_ms[o]).collect();
            let cse: Vec<f64> = op_ids.iter().map(|&o| per_op.get(&(o as u32)).map_or(0.0, |p| p.0)).collect();
            let vec: Vec<f64> = op_ids.iter().map(|&o| per_op.get(&(o as u32)).map_or(0.0, |p| p.1)).collect();
            Some(format!(
                "{{\"input\": \"{}\", \"insts\": {}, \"ops\": {}, \"latency_ms\": {}, \"cse_us\": {}, \"vectorize_us\": {}}}",
                labels[i],
                sizes[i],
                op_ids.len(),
                median(&lat),
                median(&cse),
                median(&vec)
            ))
        })
        .collect()
}

/// What one compile produced: the function and its printed IR.
type Compiled = Result<(Function, String), String>;

/// One compile operation: through `Session`, as `lslpc` does, or along the
/// traced path. Returns its latency (ms), the seconds of tracing probes to
/// leave out of the timed phase, and what it produced. An error or a guard
/// incident fails the operation.
fn compile_op(
    tracer: Option<&mut Tracer>,
    opid: usize,
    src: &str,
    opts: &CompileOptions,
) -> (f64, f64, Compiled) {
    let one = |m: lslp_ir::Module| m.functions.into_iter().next().ok_or("no function".to_string());
    match tracer {
        None => {
            let t0 = Instant::now();
            let r = Session::new(opts.clone()).compile(src).map_err(|e| e.to_string()).and_then(
                |art| match incidents(&art) {
                    0 => {
                        let ir = art.ir();
                        Ok((one(art.module)?, ir))
                    }
                    n => Err(format!("{n} guard incident(s)")),
                },
            );
            (t0.elapsed().as_secs_f64() * 1e3, 0.0, r)
        }
        Some(tr) => match traced_compile(tr, ROOT, opid as u32, src, opts) {
            Ok(c) => (c.compile_us / 1e3, c.probe_us / 1e6, one(c.module).map(|f| (f, c.ir))),
            Err(e) => (0.0, 0.0, Err(e)),
        },
    }
}

/// Traced runs: the traced compile's IR must equal what `Session` prints
/// for the same source and options (function names aside).
fn session_agrees(src: &str, opts: &CompileOptions, traced_ir: &str) -> Result<(), String> {
    let art = Session::new(opts.clone()).compile(src).map_err(|e| e.to_string())?;
    if unnamed(&art.ir()) == unnamed(traced_ir) {
        Ok(())
    } else {
        Err("traced compile and Session artifacts differ".to_string())
    }
}

/// Keep the first output of each input for the post-run checks; a later
/// output must match it (`same`). Returns why the operation failed.
fn keep_first(
    first: &mut HashMap<usize, (Function, String)>,
    input: usize,
    result: Compiled,
    same: impl Fn(&str, &str) -> bool,
) -> Option<String> {
    match result {
        Err(e) => Some(e),
        Ok((f, ir)) => match first.get(&input) {
            None => {
                first.insert(input, (f, ir));
                None
            }
            Some((_, want)) if same(want, &ir) => None,
            Some(_) => Some("output changed between compiles".to_string()),
        },
    }
}

fn request(src: &str, preset: &str, target: &str) -> CompileRequest {
    CompileRequest {
        config: preset.to_string(),
        target: Some(target.to_string()),
        timeout_ms: Some(AMPLE_BUDGET_MS),
        ..CompileRequest::new(src)
    }
}

/// The server layer for workloads that do not run the daemon: replay their
/// own request lines through the protocol and cache functions, and serve a
/// few of them from a fresh daemon for the transport share.
fn finish_trace_without_daemon(
    tr: &mut Tracer,
    stream: &[(CompileRequest, String)],
    daemon_reqs: &[CompileRequest],
    out: &mut Outcome,
) {
    let probe: Vec<ProbeRequest<'_>> =
        stream.iter().map(|(req, payload)| ProbeRequest { req, payload }).collect();
    layers::server_probe(tr, &probe);
    match layers::daemon_probe(daemon_reqs) {
        Ok((transport, p50)) => {
            out.transport_us = layers::median_or_zero(&transport);
            out.daemon_p50_us = p50;
        }
        Err(e) => {
            out.failures.push(format!("daemon probe: {e}"));
            out.failed += 1;
        }
    }
}

// ---------------------------------------------------------------------------
// Generated kernels
// ---------------------------------------------------------------------------

/// Store-group counts of one `scaling` round: a fixed ladder from 1 to 64
/// groups of four stores (4 to 256 stores), about log-uniform above 6, so
/// every seed and every round has the same size make-up. Fifteen sizes put
/// the p50 and the p90 in the middle of one size's samples, never on the
/// boundary between two sizes. Compiles of 512 stores ran 0.4-0.65 s each
/// and their latency moved by a quarter to a third from run to run on a
/// two-vCPU host, so the ladder stops at 256.
pub const SCALING_LADDER: [usize; 15] = [1, 2, 3, 4, 5, 6, 8, 10, 13, 17, 22, 29, 38, 50, 64];

/// Sizes from this many groups up enter the growth fit: below it, fixed
/// per-compile costs dominate.
pub const FIT_MIN_GROUPS: usize = 16;

/// A generated kernel with its seeded arrays and expected output.
struct GenInput {
    k: GenKernel,
    init: Vec<Vec<Value>>,
    want: Vec<Value>,
    insts: usize,
}

impl GenInput {
    fn new(name: &str, groups: usize, rng: &mut Rng) -> GenInput {
        let k = GenKernel::generate(name, groups, rng);
        let init = k.inputs(rng);
        let want = k.reference(&init);
        let lowered = lslp_frontend::compile(&k.src).expect("generated SLC compiles");
        let insts = inst_count(&lowered.functions[0]);
        GenInput { k, init, want, insts }
    }

    /// Check `f` against the generator's reference.
    fn check(&self, f: &Function, tr: Option<&mut Tracer>) -> Result<(), String> {
        let got = match tr {
            Some(t) => {
                let (got, stats) =
                    t.span("interp.exec", ROOT, u32::MAX, || self.k.run(f, &self.init))?;
                t.count("interp.exec_runs", 1.0);
                t.count("interp.dyn_insts", stats.insts as f64);
                got
            }
            None => self.k.run(f, &self.init)?.0,
        };
        let specs = &self.k.arrays()[..1];
        match first_mismatch(specs, &[got], std::slice::from_ref(&self.want)) {
            None => Ok(()),
            Some(why) => Err(format!("{}: {why}", self.k.name)),
        }
    }

    /// Simulated cycles of one call of `f`.
    fn cycles(
        &self,
        f: &Function,
        tm: &TargetSpec,
        tr: Option<&mut Tracer>,
    ) -> Result<i64, String> {
        let specs = self.k.arrays();
        let mut mem = build_memory(&specs, &self.init);
        let args = crate::gen::args(&mem);
        let mut run = || measure_cycles(f, &args, &mut mem, tm).map_err(|e| e.to_string());
        let r = match tr {
            Some(t) => {
                let r = t.span("interp.costed", ROOT, u32::MAX, &mut run);
                t.count("interp.costed_runs", 1.0);
                r
            }
            None => run(),
        }?;
        Ok(r.cycles)
    }
}

/// `scaling`: compile seeded generated functions of a fixed size ladder on
/// `skylake-avx2` under `LSLP`.
pub fn scaling(a: &Args) -> Outcome {
    const TARGET: &str = "skylake-avx2";
    let mut rng = Rng::derive(a.seed, "scaling");
    let inputs: Vec<GenInput> = SCALING_LADDER
        .into_iter()
        .enumerate()
        .map(|(i, g)| GenInput::new(&format!("scale{i}"), g, &mut rng))
        .collect();
    let sabotage = a.sabotage;
    let (mut setup, opts) = Setup::first(|| {
        let opts = options("LSLP", TARGET, sabotage);
        for inp in inputs.iter().filter(|i| i.k.groups < FIT_MIN_GROUPS) {
            Session::new(opts.clone()).compile(&inp.k.src).ok();
        }
        opts
    });

    let mut tracer = a.trace.then(Tracer::new);
    let mut ops = Ops::default();
    let mut first: HashMap<usize, (Function, String)> = HashMap::new();
    let mut probe_reqs: Vec<(CompileRequest, String)> = Vec::new();
    let between = |measured| setup.between_rounds(measured, a.seconds);
    rounds(a.seconds, inputs.len(), &mut ops, between, |ops, i| {
        let inp = &inputs[i];
        let opid = ops.lat_ms.len();
        let (ms, excluded, result) = compile_op(tracer.as_mut(), opid, &inp.k.src, &opts);
        if let (Some(_), Ok((_, ir))) = (&tracer, &result) {
            probe_reqs.push((request(&inp.k.src, "LSLP", TARGET), ir.clone()));
        }
        if inp.k.groups >= FIT_MIN_GROUPS {
            ops.fit.push((opid, inp.insts as f64));
        }
        let err = keep_first(&mut first, i, result, |a, b| a == b)
            .map(|e| format!("{}: {e}", inp.k.name));
        ops.record(i, ms, err);
        excluded
    });

    let mut ratios = Vec::new();
    let tm = opts.target().clone();
    for (i, inp) in inputs.iter().enumerate() {
        let Some((f, ir)) = first.get(&i) else { continue };
        if tracer.is_some() {
            if let Err(why) = session_agrees(&inp.k.src, &opts, ir) {
                ops.fail_input(i, format!("{}: {why}", inp.k.name));
                continue;
            }
        }
        if let Err(why) = inp.check(f, tracer.as_mut()) {
            ops.fail_input(i, why);
            continue;
        }
        let o3 = Session::new(options("O3", TARGET, false)).compile(&inp.k.src);
        let Ok(o3) = o3 else { continue };
        let base = inp.cycles(&o3.module.functions[0], &tm, tracer.as_mut());
        let got = inp.cycles(f, &tm, tracer.as_mut());
        if let (Ok(b), Ok(g)) = (base, got) {
            ratios.push(b as f64 / g as f64);
        }
    }
    let rows = tracer.as_ref().map(|tr| {
        let labels: Vec<String> =
            inputs.iter().map(|i| format!("{} stores", i.k.stores())).collect();
        let sizes: Vec<f64> = inputs.iter().map(|i| i.insts as f64).collect();
        input_rows(tr, &labels, &sizes, &ops)
    });
    let mut out = ops.finish(setup.median(), geomean(&ratios));
    out.rows = rows.unwrap_or_default();
    if let Some(mut tr) = tracer {
        let small: Vec<CompileRequest> = inputs
            .iter()
            .filter(|i| i.k.groups < FIT_MIN_GROUPS)
            .map(|i| request(&i.k.src, "LSLP", TARGET))
            .collect();
        finish_trace_without_daemon(&mut tr, &probe_reqs, &small, &mut out);
        out.tracer = Some(tr);
    }
    out
}

// ---------------------------------------------------------------------------
// serve
// ---------------------------------------------------------------------------

/// Generated kernels in the `serve` catalogue; crossed with four targets and
/// two presets this is 2000 entries, about twice the daemon's default cache
/// capacity of 1024, so about a fifth of requests keep missing (first
/// sightings and re-misses after eviction) all through a run and compile
/// work bounds throughput. The p50 then falls inside the hits and the p90
/// inside the misses, away from the boundary between them.
const SERVE_KERNELS: usize = 250;
const SERVE_PRESETS: [&str; 2] = ["LSLP", "SLP"];
/// Store groups of catalogue kernel `i`: `2 + i % 7`, the same size mix for
/// every seed.
const SERVE_GROUPS: usize = 7;
/// Zipf exponent of request popularity.
const ZIPF_S: f64 = 0.9;
/// Requests per round.
const SERVE_ROUND: usize = 64;
/// Requests served before the timed phase starts, so the cache is at its
/// steady state (hit ratio about 0.83) when timing begins and the mix of
/// hits and misses does not depend on how long a run lasts.
const SERVE_WARMUP: usize = 4096;

struct Entry {
    kernel: usize,
    target: usize,
    preset: usize,
}

/// `serve`: an in-process `lslpd` with one compile worker, driven in a
/// closed loop over one connection with one tagged request in flight. With
/// more in flight, a miss's latency includes queueing behind other misses
/// and three threads contend for two cores; one is steadier.
pub fn serve(a: &Args) -> Outcome {
    // Before the daemon's threads start, so they inherit it.
    crate::util::pin_to_current_cpu();
    let mut rng = Rng::derive(a.seed, "serve");
    let kernels: Vec<GenInput> = (0..SERVE_KERNELS)
        .map(|i| GenInput::new(&format!("svc{i}"), 2 + i % SERVE_GROUPS, &mut rng))
        .collect();
    let mut entries: Vec<Entry> = (0..SERVE_KERNELS)
        .flat_map(|kernel| {
            (0..TARGET_NAMES.len()).flat_map(move |target| {
                (0..SERVE_PRESETS.len()).map(move |preset| Entry { kernel, target, preset })
            })
        })
        .collect();
    rng.shuffle(&mut entries);
    let requests: Vec<CompileRequest> = entries
        .iter()
        .map(|e| request(&kernels[e.kernel].k.src, SERVE_PRESETS[e.preset], TARGET_NAMES[e.target]))
        .collect();
    let mut cdf = Vec::with_capacity(entries.len());
    let mut acc = 0.0;
    for r in 0..entries.len() {
        acc += 1.0 / ((r + 1) as f64).powf(ZIPF_S);
        cdf.push(acc);
    }
    let draw = |rng: &mut Rng| {
        let x = rng.unit() * acc;
        cdf.partition_point(|&c| c <= x).min(cdf.len() - 1)
    };
    // Set-up warms the daemon with one compile per (target, preset) of a
    // fixed kernel outside the catalogue, so its time is compile work rather
    // than thread start.
    let warm_src = GenKernel::generate("warmup", 8, &mut Rng::new(0)).src;
    let warm: Vec<CompileRequest> = TARGET_NAMES
        .iter()
        .flat_map(|t| SERVE_PRESETS.iter().map(|p| request(&warm_src, p, t)))
        .collect();

    let (mut setup, mut daemon) = Setup::first(|| {
        let mut daemon = layers::Daemon::spawn().expect("daemon binds and answers HELLO");
        for w in &warm {
            let r = daemon.client.compile(w).expect("warm-up compile");
            assert!(r.ok, "warm-up compile failed: {}", r.payload);
        }
        daemon
    });

    let mut tracer = a.trace.then(Tracer::new);
    let mut ops = Ops::default();
    let mut stream_rng = Rng::derive(a.seed, "serve-stream");
    let mut seen: HashMap<usize, String> = HashMap::new();
    let mut sent_before = vec![false; entries.len()];
    let mut hits: Vec<usize> = Vec::new();
    let mut line = String::new();
    let mut start = Instant::now();
    // Seconds of set-up repetitions, left out of the timed phase.
    let mut paused = 0.0;
    loop {
        let opid = ops.lat_ms.len();
        if opid == SERVE_WARMUP {
            start = Instant::now();
        }
        if opid > SERVE_WARMUP && opid.is_multiple_of(SERVE_ROUND) {
            let measured = start.elapsed().as_secs_f64() - paused;
            if opid >= SERVE_WARMUP + MIN_OPS && measured >= a.seconds {
                break;
            }
            let t = Instant::now();
            setup.between_rounds(measured, a.seconds);
            paused += t.elapsed().as_secs_f64();
        }
        let e = draw(&mut stream_rng);
        let first_sighting = !sent_before[e];
        sent_before[e] = true;
        let tag = format!("r{opid}");
        line.clear();
        let span = tracer.as_mut().map(|t| t.open("op", ROOT, opid as u32));
        let t0 = Instant::now();
        requests[e].line_into(Some(&tag), &mut line);
        let resp = daemon.client.roundtrip(&line);
        let ms = us_since(t0) / 1e3;
        if let (Some(t), Some(span)) = (tracer.as_mut(), span) {
            t.close(span);
        }
        let resp = match resp {
            Ok(r) => r,
            Err(err) => {
                ops.record(e, ms, Some(format!("{tag}: transport: {err}")));
                break;
            }
        };
        if first_sighting && opid >= SERVE_WARMUP {
            ops.fit.push((opid, kernels[entries[e].kernel].insts as f64));
        }
        let err = if !resp.ok {
            Some(format!("{tag}: {:?} {}", resp.error, resp.payload))
        } else if resp.tag() != Some(tag.as_str()) {
            Some(format!("{tag}: answered with tag {:?}", resp.tag()))
        } else if resp.field("incidents") != Some("0") {
            Some(format!("{tag}: guard incidents {:?}", resp.field("incidents")))
        } else {
            if resp.field("cached") == Some("hit") && opid >= SERVE_WARMUP {
                hits.push(opid);
            }
            match seen.get(&e) {
                None => {
                    seen.insert(e, resp.payload);
                    None
                }
                Some(p) if *p == resp.payload => None,
                Some(_) => Some(format!("{tag}: response changed for one request")),
            }
        };
        ops.record(e, ms, err);
    }
    let total = ops.lat_ms.len();
    let timed = total.saturating_sub(SERVE_WARMUP);
    ops.rounds.push((SERVE_WARMUP.min(total)..total, start.elapsed().as_secs_f64() - paused));
    let repeats = timed - ops.fit.len();
    eprintln!(
        "serve: {} warm-up and {timed} timed requests, {} distinct; timed: repeats {:.3}, cache hits {:.3}",
        total - timed,
        seen.len(),
        repeats as f64 / timed as f64,
        hits.len() as f64 / timed as f64
    );
    let daemon_p50 = layers::daemon_p50_us(&mut daemon.client).unwrap_or(0.0);
    if let Err(e) = daemon.stop() {
        ops.fail_note(format!("daemon stop: {e}"));
    }

    // Every response must equal a `Session` artifact for the same options and
    // compute what the generator says; speedup is over O3 on that target.
    let mut ratios = Vec::new();
    let mut o3_cycles: HashMap<(usize, usize), i64> = HashMap::new();
    let mut distinct: Vec<usize> = seen.keys().copied().collect();
    distinct.sort_unstable();
    for &e in &distinct {
        let ent = &entries[e];
        let inp = &kernels[ent.kernel];
        let target = TARGET_NAMES[ent.target];
        let opts = options(SERVE_PRESETS[ent.preset], target, false);
        let compiled = match tracer.as_mut() {
            None => Session::new(opts.clone())
                .compile(&inp.k.src)
                .map_err(|err| err.to_string())
                .map(|art| (art.ir(), art.module)),
            Some(t) => {
                traced_compile(t, ROOT, e as u32, &inp.k.src, &opts).map(|c| (c.ir, c.module))
            }
        };
        let verdict = compiled.and_then(|(ir, module)| {
            if ir != seen[&e] {
                return Err(format!("{}: daemon and Session artifacts differ", inp.k.name));
            }
            let f = &module.functions[0];
            inp.check(f, tracer.as_mut())?;
            let tm = opts.target();
            let base = match o3_cycles.get(&(ent.kernel, ent.target)) {
                Some(&c) => c,
                None => {
                    let o3 = Session::new(options("O3", target, false))
                        .compile(&inp.k.src)
                        .map_err(|err| err.to_string())?;
                    let c = inp.cycles(&o3.module.functions[0], tm, None)?;
                    o3_cycles.insert((ent.kernel, ent.target), c);
                    c
                }
            };
            let got = inp.cycles(f, tm, tracer.as_mut())?;
            ratios.push(base as f64 / got as f64);
            Ok(())
        });
        if let Err(why) = verdict {
            ops.fail_input(e, why);
        }
    }
    // The transport share of each timed warm hit: its latency minus what
    // the event loop spends on it.
    let mut loop_side: HashMap<usize, f64> = HashMap::new();
    let transport: Vec<f64> = hits
        .iter()
        .filter(|_| tracer.is_some())
        .map(|&opid| {
            let e = ops.input[opid];
            let side = *loop_side
                .entry(e)
                .or_insert_with(|| layers::loop_side_us(&requests[e], &seen[&e]));
            ops.lat_ms[opid] * 1e3 - side
        })
        .collect();
    let op_entries = ops.input.clone();
    let mut out = ops.finish(setup.median(), geomean(&ratios));
    out.daemon_p50_us = daemon_p50;
    if let Some(mut tr) = tracer {
        out.transport_us = layers::median_or_zero(&transport);
        let probe: Vec<ProbeRequest<'_>> = op_entries
            .iter()
            .filter(|e| seen.contains_key(e))
            .map(|&e| ProbeRequest { req: &requests[e], payload: &seen[&e] })
            .collect();
        layers::server_probe(&mut tr, &probe);
        out.tracer = Some(tr);
    }
    out
}

// ---------------------------------------------------------------------------
// simulate
// ---------------------------------------------------------------------------

/// `simulate`: interpret every paper kernel's `O3` and `LSLP` artifact on
/// `skylake-avx2` for its default iteration count.
pub fn simulate(a: &Args) -> Outcome {
    const TARGET: &str = "skylake-avx2";
    const PRESETS: [&str; 2] = ["O3", "LSLP"];
    let mut rng = Rng::derive(a.seed, "simulate");
    let kernels: Vec<KernelInput> =
        paper_kernels().into_iter().map(|k| KernelInput::new(k, &mut rng)).collect();
    let mut arts: Vec<(usize, usize)> =
        (0..kernels.len()).flat_map(|k| (0..PRESETS.len()).map(move |p| (k, p))).collect();
    rng.shuffle(&mut arts);
    let mut tracer = a.trace.then(Tracer::new);

    let (mut setup, (tm, funcs)) = Setup::first(|| {
        let opts: Vec<CompileOptions> = PRESETS.iter().map(|p| options(p, TARGET, false)).collect();
        let funcs: Vec<Result<Function, String>> = arts
            .iter()
            .map(|&(k, p)| {
                let art = Session::new(opts[p].clone())
                    .compile(kernels[k].k.src)
                    .map_err(|e| e.to_string())?;
                match incidents(&art) {
                    0 => Ok(art.module.functions.into_iter().next().expect("one function")),
                    n => Err(format!("{n} guard incident(s)")),
                }
            })
            .collect();
        let tm = opts[0].target().clone();
        for (i, f) in funcs.iter().enumerate() {
            if let Ok(f) = f {
                kernels[arts[i].0].simulate(f, &tm).ok();
            }
        }
        (tm, funcs)
    });
    // The compile layers, traced over the set-up's compiles; an artifact
    // whose traced compile fails or differs from `Session`'s fails.
    let mut untraceable = Vec::new();
    if let Some(t) = tracer.as_mut() {
        for (i, &(k, p)) in arts.iter().enumerate() {
            let src = kernels[k].k.src;
            let opts = options(PRESETS[p], TARGET, false);
            let verdict = traced_compile(t, ROOT, i as u32, src, &opts)
                .and_then(|c| session_agrees(src, &opts, &c.ir));
            if let Err(why) = verdict {
                untraceable.push((i, format!("{} {}: {why}", kernels[k].k.name, PRESETS[p])));
            }
        }
    }

    let mut ops = Ops::default();
    let mut first: HashMap<usize, Sim> = HashMap::new();
    let between = |measured| setup.between_rounds(measured, a.seconds);
    rounds(a.seconds, arts.len(), &mut ops, between, |ops, i| {
        let inp = &kernels[arts[i].0];
        let f = match &funcs[i] {
            Ok(f) => f,
            Err(e) => {
                ops.record(i, 0.0, Some(format!("{}: {e}", inp.k.name)));
                return 0.0;
            }
        };
        let mut mem = build_memory(&inp.specs, &inp.init);
        let opid = ops.lat_ms.len() as u32;
        let mut excluded = 0.0;
        let (us, r) = match tracer.as_mut() {
            None => {
                let t0 = Instant::now();
                let r = inp.costed(f, &mut mem, &tm);
                (us_since(t0), r)
            }
            Some(t) => {
                let root = t.open("op", ROOT, opid);
                let r = t.span("interp.costed", root, opid, || inp.costed(f, &mut mem, &tm));
                t.close(root);
                t.count("interp.costed_runs", 1.0);
                let us = t.spans[root as usize].us();
                let p0 = Instant::now();
                let insts = t.span("interp.exec", ROOT, opid, || inp.exec(f)).unwrap_or(0);
                t.count("interp.exec_runs", 1.0);
                t.count("interp.dyn_insts", insts as f64);
                excluded = p0.elapsed().as_secs_f64();
                (us, r)
            }
        };
        let err = match r {
            Err(e) => Some(format!("{}: {e}", inp.k.name)),
            Ok((cycles, insts)) => {
                ops.fit.push((opid as usize, insts as f64));
                let arrays = read_memory(&inp.specs, &mem);
                match first.get(&i) {
                    None => {
                        first.insert(i, Sim { arrays, cycles, insts });
                        None
                    }
                    Some(s) if s.arrays == arrays && s.cycles == cycles && s.insts == insts => None,
                    Some(_) => Some(format!("{}: simulation changed between runs", inp.k.name)),
                }
            }
        };
        ops.record(i, us / 1e3, err);
        excluded
    });

    for (i, why) in untraceable {
        ops.fail_input(i, why);
    }
    // Every artifact's arrays must match the unoptimized lowering's.
    let mut cycles: HashMap<(usize, usize), i64> = HashMap::new();
    for (i, &(k, p)) in arts.iter().enumerate() {
        let Some(got) = first.get(&i) else { continue };
        let inp = &kernels[k];
        let verdict = match inp.simulate(&inp.lowered, &tm) {
            Ok(want) => first_mismatch(&inp.specs, &got.arrays, &want.arrays),
            Err(e) => Some(e),
        };
        match verdict {
            Some(why) => ops.fail_input(i, format!("{} {}: {why}", inp.k.name, PRESETS[p])),
            None => {
                cycles.insert((k, p), got.cycles);
            }
        }
    }
    let ratios: Vec<f64> = (0..kernels.len())
        .filter_map(|k| Some(*cycles.get(&(k, 0))? as f64 / *cycles.get(&(k, 1))? as f64))
        .collect();
    let mut out = ops.finish(setup.median(), geomean(&ratios));
    if let Some(mut tr) = tracer {
        let stream: Vec<(CompileRequest, String)> = arts
            .iter()
            .zip(&funcs)
            .filter_map(|(&(k, p), f)| {
                let f = f.as_ref().ok()?;
                Some((request(kernels[k].k.src, PRESETS[p], TARGET), lslp_ir::print_function(f)))
            })
            .collect();
        let reqs: Vec<CompileRequest> = stream.iter().map(|s| s.0.clone()).collect();
        finish_trace_without_daemon(&mut tr, &stream, &reqs, &mut out);
        out.tracer = Some(tr);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(workload: &str, sabotage: bool) -> Args {
        Args { workload: workload.into(), seed: 3, seconds: 0.01, trace: false, sabotage }
    }

    /// The checker's negative test: a compiler that plants a lane-swap
    /// shuffle must make `suite` report failed operations.
    #[test]
    fn sabotaged_compiles_are_reported_failed() {
        let out = suite(&args("suite", true));
        assert!(out.failed > 0, "the planted miscompile went unnoticed");
        assert!(out.failed < out.attempted, "kernels that never vectorize still pass");
    }

    #[test]
    fn suite_passes_at_head() {
        let out = suite(&args("suite", false));
        assert_eq!(out.failed, 0, "{:?}", out.failures);
        assert!(out.attempted >= MIN_OPS);
    }

    #[test]
    fn scaling_ladder_spans_four_to_256_stores() {
        assert_eq!(SCALING_LADDER.first(), Some(&1));
        assert_eq!(SCALING_LADDER.last(), Some(&64));
        assert!(SCALING_LADDER.windows(2).all(|w| w[0] < w[1]));
    }
}
