//! `vcfbench`: the repository's end-to-end benchmark.
//!
//! ```text
//! vcfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Prints provenance, one line per metric (name, value, unit, sample
//! count) and, last, one JSON object with `correct`, `attempted`,
//! `failed` and `metrics`. `--trace 0` reports the end-to-end metrics;
//! `--trace 1` runs the same workload, replays it through each layer's
//! public functions and reports the per-layer metrics. A broken
//! correctness gate makes the run exit non-zero. See `README.md`.

mod embedded;
mod util;
mod wire;

use std::io::Write as _;
use std::process::ExitCode;

use vcf_core::{CuckooConfig, VerticalCuckooFilter};

#[global_allocator]
static ALLOC: util::CountingAlloc = util::CountingAlloc;

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s = value
                    .parse::<f64>()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err("--seconds must be in (0, 600]".to_owned());
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace is 0 or 1".to_owned()),
                });
            }
            other => return Err(format!("unknown flag {other}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.unwrap_or(1),
        seconds: seconds.unwrap_or(10.0),
        trace: trace.unwrap_or(false),
    })
}

/// Writes the spans of a traced run as TSV into the build directory.
fn write_spans(args: &Args, spans: &[wire::Span]) -> std::io::Result<String> {
    let dir = std::env::var("CARGO_TARGET_DIR").unwrap_or_else(|_| "vcfbench/target".to_owned());
    let dir = std::path::Path::new(&dir).join("vcfbench-spans");
    std::fs::create_dir_all(&dir)?;
    let path = dir.join(format!("{}-{}.tsv", args.workload, args.seed));
    let mut out = std::io::BufWriter::new(std::fs::File::create(&path)?);
    writeln!(out, "conn\tframe\tlayer\tstart_ns\tdur_ns")?;
    for s in spans {
        writeln!(
            out,
            "{}\t{}\t{}\t{}\t{}",
            s.conn, s.frame, s.layer, s.start_ns, s.dur_ns
        )?;
    }
    out.flush()?;
    Ok(path.display().to_string())
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(err) => {
            eprintln!("vcfbench: {err}");
            return ExitCode::from(2);
        }
    };
    let kernel = VerticalCuckooFilter::new(CuckooConfig::new(64)).map_or_else(
        |e| format!("unavailable: {e}"),
        |f| f.kernel_kind().to_string(),
    );
    println!("provenance {}", util::provenance(args.seed, &kernel));
    // Every thread of the run (client, server, workers) inherits this
    // affinity. On the 2-vCPU VM the benchmark was built on, runs that
    // kept both vCPUs busy were throttled by the host for whole runs
    // (up to 4x slower); on one core the figures are steady.
    let pinned = util::pin_current_thread(&[0]);
    println!(
        "run workload={} seconds={} trace={} pinned_to_cpu0={pinned}",
        args.workload,
        args.seconds,
        u8::from(args.trace)
    );

    let mut report = util::Report::default();
    let spans = match args.workload.as_str() {
        "wire_small_frames" => wire::run(
            &wire::SMALL_FRAMES,
            args.seed,
            args.seconds,
            args.trace,
            &mut report,
        ),
        "wire_churn95" => wire::run(
            &wire::CHURN95,
            args.seed,
            args.seconds,
            args.trace,
            &mut report,
        ),
        "embedded_fill95" => embedded::run(args.seed, args.seconds, args.trace, &mut report)
            .map_err(|e| std::io::Error::other(e.to_string())),
        other => {
            eprintln!("vcfbench: unknown workload {other:?} (wire_small_frames, wire_churn95, embedded_fill95)");
            return ExitCode::from(2);
        }
    };
    let spans = match spans {
        Ok(spans) => spans,
        Err(err) => {
            eprintln!("vcfbench: {err}");
            return ExitCode::FAILURE;
        }
    };
    if args.trace {
        report.absent_layers();
        match write_spans(&args, &spans) {
            Ok(path) => println!("spans {} written to {path}", spans.len()),
            Err(err) => eprintln!("vcfbench: spans not written: {err}"),
        }
    }
    report.print(args.trace);
    if report.correct() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
