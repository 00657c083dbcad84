//! `relcheck-perfbench --workload NAME --seed N --seconds S --trace 0|1
//! [--out DIR]`
//!
//! Runs one workload, prints its named figures, its labels and (traced)
//! the self time per span, then one JSON result line. Exits 1 on a wrong
//! verdict, drill-down or durability mismatch, 2 on a usage error.

use relcheck_perfbench::data::Sizes;
use relcheck_perfbench::{run_workload, Ctx};
use std::path::PathBuf;
use std::process::ExitCode;

fn arg<'a>(args: &'a [String], flag: &str) -> Option<&'a str> {
    args.iter()
        .position(|a| a == flag)
        .and_then(|i| args.get(i + 1))
        .map(String::as_str)
}

fn parse<T: std::str::FromStr>(
    args: &[String],
    flag: &str,
    default: Option<T>,
) -> Result<T, String> {
    match arg(args, flag) {
        Some(v) => v.parse().map_err(|_| format!("{flag}: cannot parse {v:?}")),
        None => default.ok_or_else(|| format!("{flag} is required")),
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let ctx = (|| -> Result<(Ctx, PathBuf), String> {
        let workload: String = parse(&args, "--workload", None)?;
        let trace: u8 = parse(&args, "--trace", Some(0))?;
        let out: PathBuf = parse(&args, "--out", Some(PathBuf::from("perfbench-out")))?;
        let seed: u64 = parse(&args, "--seed", None)?;
        let ctx = Ctx {
            work: out
                .join("work")
                .join(format!("{workload}-{}", std::process::id())),
            seconds: parse(&args, "--seconds", None)?,
            trace: trace == 1,
            workload,
            seed,
        };
        Ok((ctx, out))
    })();
    let (ctx, out) = match ctx {
        Ok(c) => c,
        Err(e) => {
            eprintln!("relcheck-perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let _ = std::fs::remove_dir_all(&ctx.work);
    let result = run_workload(&ctx, Sizes::full());
    let _ = std::fs::remove_dir_all(&ctx.work);
    let outcome = match result {
        Ok(o) => o,
        Err(e) => {
            eprintln!("relcheck-perfbench: {}: {e}", ctx.workload);
            return ExitCode::from(1);
        }
    };
    print!("{}", outcome.describe());
    if ctx.trace {
        let dir = out.join("trace");
        let stem = format!("{}-seed{}", ctx.workload, ctx.seed);
        let spans = outcome
            .spans
            .as_ref()
            .map(|t| t.to_jsonl())
            .unwrap_or_default();
        let written = std::fs::create_dir_all(&dir)
            .and_then(|()| std::fs::write(dir.join(format!("{stem}.spans.jsonl")), spans))
            .and_then(|()| {
                std::fs::write(
                    dir.join(format!("{stem}.summary.json")),
                    outcome.trace_summary(),
                )
            });
        if let Err(e) = written {
            eprintln!("relcheck-perfbench: writing the trace: {e}");
            return ExitCode::from(1);
        }
        println!("trace written to {}", dir.join(&stem).display());
    }
    println!("{}", outcome.result_line());
    ExitCode::SUCCESS
}
