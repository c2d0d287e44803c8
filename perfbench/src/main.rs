//! `perfbench`: the LSLP benchmark.
//!
//! ```text
//! perfbench --workload <suite|scaling|serve|simulate> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Runs one workload and prints, as the last line of standard output, one
//! JSON object with `correct`, `attempted`, `failed` and `metrics`: the
//! end-to-end metrics with `--trace 0`, the per-layer metrics with
//! `--trace 1`. A traced run also writes its spans and per-layer self
//! times to `perfbench/out/trace-<workload>-<seed>.json`. See
//! `perfbench/README.md`.

mod gen;
mod layers;
mod trace;
mod util;
mod work;

use std::fmt::Write as _;
use std::process::ExitCode;

use work::{Args, Metric, Outcome};

/// Spans written to the trace file at most (the per-layer figures use all).
const SPANS_WRITTEN: usize = 20_000;

fn usage() -> ExitCode {
    eprintln!(
        "usage: perfbench --workload <suite|scaling|serve|simulate> --seed <n> --seconds <s> --trace <0|1>"
    );
    ExitCode::from(2)
}

fn parse_args() -> Option<Args> {
    let mut args =
        Args { workload: String::new(), seed: 1, seconds: 20.0, trace: false, sabotage: false };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next()?;
        match flag.as_str() {
            "--workload" => args.workload = value,
            "--seed" => args.seed = value.parse().ok()?,
            "--seconds" => args.seconds = value.parse().ok()?,
            "--trace" => args.trace = value.parse::<u8>().ok()? == 1,
            _ => return None,
        }
    }
    Some(args)
}

fn main() -> ExitCode {
    let Some(args) = parse_args() else { return usage() };
    let outcome = match args.workload.as_str() {
        "suite" => work::suite(&args),
        "scaling" => work::scaling(&args),
        "serve" => work::serve(&args),
        "simulate" => work::simulate(&args),
        _ => return usage(),
    };
    for f in &outcome.failures {
        eprintln!("FAILED {f}");
    }
    let metrics = if args.trace {
        let m = traced_metrics(&outcome);
        let path = format!("perfbench/out/trace-{}-{}.json", args.workload, args.seed);
        if let Err(e) = write_trace(&path, &args, &outcome, &m) {
            eprintln!("cannot write {path}: {e}");
            return ExitCode::FAILURE;
        }
        m
    } else {
        outcome.end_to_end.clone()
    };
    if metrics.iter().any(|m| !m.1.is_finite()) {
        eprintln!("a metric is not a finite number: {metrics:?}");
        return ExitCode::FAILURE;
    }
    for (name, value, unit) in &metrics {
        eprintln!("{name:>26} {value:>14.4} {unit}");
    }
    eprintln!("attempted {} failed {}", outcome.attempted, outcome.failed);
    println!("{}", result_line(&outcome, &metrics));
    ExitCode::SUCCESS
}

fn traced_metrics(o: &Outcome) -> Vec<Metric> {
    let t = o.tracer.as_ref().expect("a traced run has a tracer");
    layers::layer_metrics(t, o.transport_us, o.daemon_p50_us)
}

fn metrics_json(metrics: &[Metric]) -> String {
    let mut out = String::from("{");
    for (i, (name, value, unit)) in metrics.iter().enumerate() {
        if i > 0 {
            out.push_str(", ");
        }
        let _ = write!(out, "\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}");
    }
    out.push('}');
    out
}

fn result_line(o: &Outcome, metrics: &[Metric]) -> String {
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {}}}",
        o.failed == 0,
        o.attempted,
        o.failed,
        metrics_json(metrics)
    )
}

/// The traced run's file: its end-to-end figures (for the tracing
/// overhead), per-layer metrics, self time per span name per compile, span
/// coverage of compile latency, and the spans themselves.
fn write_trace(path: &str, a: &Args, o: &Outcome, layer: &[Metric]) -> std::io::Result<()> {
    let t = o.tracer.as_ref().expect("a traced run has a tracer");
    let mut self_times: Vec<_> = layers::self_times(t).into_iter().collect();
    self_times.sort_by(|x, y| x.0.cmp(y.0));
    let self_json: Vec<String> = self_times.iter().map(|(k, v)| format!("\"{k}\": {v}")).collect();
    let body = format!(
        "{{\n\"workload\": \"{}\",\n\"seed\": {},\n\"attempted\": {},\n\"failed\": {},\n\
         \"end_to_end\": {},\n\"per_layer\": {},\n\"self_us_per_compile\": {{{}}},\n\
         \"span_coverage_of_compile\": {},\n\"per_input\": [{}],\n\"spans_total\": {},\n\"spans\": {}\n}}\n",
        a.workload,
        a.seed,
        o.attempted,
        o.failed,
        metrics_json(&o.end_to_end),
        metrics_json(layer),
        self_json.join(", "),
        t.coverage("compile"),
        o.rows.join(",\n"),
        t.spans.len(),
        t.spans_json(SPANS_WRITTEN),
    );
    if let Some(dir) = std::path::Path::new(path).parent() {
        std::fs::create_dir_all(dir)?;
    }
    std::fs::write(path, body)
}
