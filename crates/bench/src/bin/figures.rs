//! Regenerates the paper's tables and figures from the registry
//! [`ladder_bench::figures::ALL`]: `figures <name> [flags]` runs one
//! figure (e.g. `figures fig15 --instructions 1000000`, `figures tables
//! table4`), `figures all [flags]` runs every figure with the flags given,
//! and `figures regen [--jobs N]` rewrites `results/<name>.txt` for every
//! figure with a documented scale. Figure data goes to stdout; runner
//! statistics and the `--trace` summary go to stderr.

use std::process::exit;

use ladder_bench::figures::{find, Figure, FigureError, ALL};
use ladder_bench::{report_runner, BenchArgs, USAGE};

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let mut args = BenchArgs::parse_from(&argv).unwrap_or_else(|e| usage_exit(&e));
    if args.positional.is_empty() {
        usage_exit("missing the figure name");
    }
    let name = args.positional.remove(0);
    let result = match name.as_str() {
        "all" => ALL.iter().try_for_each(|f| {
            eprintln!("figures: {}", f.name);
            print_figure(f, &args)
        }),
        "regen" => regen(&args, argv.len()),
        _ => match find(&name) {
            Some(f) => print_figure(f, &args),
            None => usage_exit(&format!("unknown figure `{name}`")),
        },
    };
    match result {
        Ok(()) => {}
        Err(FigureError::Usage(e)) => usage_exit(&e),
        Err(FigureError::Failed(e)) => {
            eprintln!("error: {e}");
            exit(1);
        }
    }
}

/// Runs `figure`, prints its output, then does what every figure shares:
/// the runner statistics and the optional traced run.
fn print_figure(figure: &Figure, args: &BenchArgs) -> Result<(), FigureError> {
    let runner = args.runner();
    print!("{}", (figure.run)(args, &runner)?);
    report_runner(&runner);
    args.emit_trace_if_requested();
    Ok(())
}

/// Rewrites `results/<name>.txt` for every figure with a documented
/// scale. The scale is each figure's own; only `--jobs` rides along.
fn regen(args: &BenchArgs, argc: usize) -> Result<(), FigureError> {
    if argc != 1 + 2 * usize::from(args.jobs.is_some()) {
        return Err(FigureError::Usage(
            "`regen` takes no flag but `--jobs`".into(),
        ));
    }
    for (figure, documented) in ALL.iter().filter_map(|f| Some((f, f.documented?))) {
        let argv: Vec<String> = documented.iter().map(|s| s.to_string()).collect();
        let mut fargs = BenchArgs::parse_from(&argv).map_err(FigureError::Failed)?;
        fargs.jobs = args.jobs;
        let runner = fargs.runner();
        let path = figure.results_path();
        std::fs::write(&path, (figure.run)(&fargs, &runner)?)
            .map_err(|e| FigureError::Failed(format!("cannot write `{path}`: {e}")))?;
        report_runner(&runner);
        eprintln!("figures: wrote {path}");
    }
    Ok(())
}

/// Prints `err` and the usage, with every figure name, to stderr and
/// exits with status 2.
fn usage_exit(err: &str) -> ! {
    let names: Vec<&str> = ALL.iter().map(|f| f.name).collect();
    eprintln!(
        "error: {err}\nusage: figures <figure|all|regen> [flags]\n  figures: {}\n  all: every figure with the flags given\n  regen: rewrite results/<figure>.txt at each documented scale (takes only --jobs)\n{USAGE}",
        names.join(", ")
    );
    exit(2)
}
