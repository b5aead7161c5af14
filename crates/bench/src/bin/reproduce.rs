//! Reproduction driver: regenerates every table and figure of the paper,
//! asserts the claims each one supports, and runs the fleet's invariant
//! gates.
//!
//! Usage:
//! ```text
//! reproduce [EXPERIMENT ...] [--scale quick|standard] [--out results]
//!           [--no-cache] [--quiet]
//! ```
//!
//! Bare names select experiments from `toppriv_bench::experiments::ALL`
//! (`reproduce fig2 tables`); with none, every experiment runs. Each
//! writes its tables as CSV under `--out` and checks named claims, and
//! those checks are the process exit status: 0 when every one passed, 1
//! after printing each failed `name: detail` (2 is a usage error).
//! `reproduce` asserts and tabulates; throughput and latency are
//! `benchmark/`'s to measure.

use std::path::PathBuf;
use std::time::Instant;
use toppriv_bench::experiments::{self, Experiment, ALL};
use toppriv_bench::{verdict, ExperimentContext, Scale};

struct Args {
    exps: Vec<&'static (&'static str, Experiment)>,
    scale: Scale,
    out: PathBuf,
    cache: bool,
    quiet: bool,
}

fn names() -> Vec<&'static str> {
    ALL.iter().map(|(name, _)| *name).collect()
}

fn parse_args() -> Result<Args, String> {
    let mut exps = Vec::new();
    let mut scale = Scale::standard();
    let mut out = PathBuf::from("results");
    let mut cache = true;
    let mut quiet = false;
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let mut i = 0;
    while i < argv.len() {
        match argv[i].as_str() {
            "--scale" => {
                i += 1;
                let value = argv.get(i).ok_or("--scale needs a value")?;
                scale = Scale::by_name(value)
                    .ok_or_else(|| format!("unknown scale '{value}' (quick|standard)"))?;
            }
            "--out" => {
                i += 1;
                out = PathBuf::from(argv.get(i).ok_or("--out needs a value")?);
            }
            "--no-cache" => cache = false,
            "--quiet" => quiet = true,
            "--help" | "-h" => {
                println!(
                    "reproduce [EXPERIMENT ...] — regenerate the paper's tables and figures\n\
                     Bare names select experiments from {:?} (default: all).\n\
                     Every experiment checks its claims: exit status 1 if any failed.\n\
                     --scale quick|standard (default standard)\n\
                     --out   output directory (default results/)\n\
                     --no-cache  retrain LDA models instead of loading cached ones\n\
                     --quiet     suppress table rendering",
                    names()
                );
                std::process::exit(0);
            }
            other if !other.starts_with('-') => {
                exps.push(ALL.iter().find(|(name, _)| *name == other).ok_or_else(|| {
                    format!("unknown experiment '{other}' (choose from {:?})", names())
                })?);
            }
            other => return Err(format!("unknown argument '{other}'")),
        }
        i += 1;
    }
    if exps.is_empty() {
        exps = ALL.iter().collect();
    }
    Ok(Args {
        exps,
        scale,
        out,
        cache,
        quiet,
    })
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}");
            std::process::exit(2);
        }
    };
    let cache_dir = args.cache.then(|| args.out.join("cache"));
    println!(
        "[reproduce] scale={} experiments={:?}",
        args.scale.name,
        args.exps.iter().map(|(name, _)| *name).collect::<Vec<_>>()
    );
    let t0 = Instant::now();
    let ctx = ExperimentContext::build(args.scale.clone(), cache_dir.as_deref());
    println!(
        "[reproduce] context ready in {:.1}s: {} docs, {} vocab, {} queries, models {:?}",
        t0.elapsed().as_secs_f64(),
        ctx.corpus.num_docs(),
        ctx.corpus.vocab.len(),
        ctx.queries.len(),
        ctx.models.iter().map(|(k, _)| *k).collect::<Vec<_>>()
    );

    let mut reports = Vec::new();
    for (exp, run) in &args.exps {
        let t = Instant::now();
        let (tables, checked) = run(&ctx);
        reports.extend(checked);
        experiments::emit(&tables, &args.out, args.quiet);
        println!(
            "[reproduce] {exp}: {} table(s) in {:.1}s",
            tables.len(),
            t.elapsed().as_secs_f64()
        );
    }
    println!("[reproduce] done in {:.1}s", t0.elapsed().as_secs_f64());
    let (status, failed) = verdict::exit_status(&reports);
    eprint!("{failed}");
    std::process::exit(status);
}
