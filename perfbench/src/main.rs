//! `mpcp-perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>`
//!
//! Prints a provenance line and then, as the last line, the result:
//! `{"correct": true, "attempted": .., "failed": .., "metrics": {..}}`.
//! A failed output check prints the reason to stderr and exits 1
//! without a result. `--run-index <n>` is recorded in the provenance
//! line; `--record-golden` prints the golden digest lines of a table4
//! workload for the seed instead of benchmarking.

use std::process::ExitCode;

use mpcp_perfbench::golden;
use mpcp_perfbench::pipeline::{generate, model_stage, Prep};
use mpcp_perfbench::report::{host_steal_s, provenance_json, result_json};
use mpcp_perfbench::workload::{run, Options, Scale, Workload};

struct Cli {
    options: Options,
    run_index: u64,
    record_golden: bool,
}

fn parse(args: &[String]) -> Result<Cli, String> {
    let mut workload = None;
    let (mut seed, mut seconds, mut trace, mut run_index) = (None, None, false, 0);
    let mut record_golden = false;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        if flag == "--record-golden" {
            record_golden = true;
            continue;
        }
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let number = || {
            value
                .parse::<u64>()
                .map_err(|_| format!("{flag}: not a whole number: {value}"))
        };
        match flag.as_str() {
            "--workload" => {
                workload = Some(Workload::parse(value).ok_or_else(|| {
                    let names: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
                    format!("unknown workload {value}; known: {}", names.join(", "))
                })?)
            }
            "--seed" => seed = Some(number()?),
            "--seconds" => seconds = Some(number()? as f64),
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, not {value}")),
                }
            }
            "--run-index" => run_index = number()?,
            _ => return Err(format!("unknown argument {flag}")),
        }
    }
    let options = Options {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: if record_golden {
            0.0
        } else {
            seconds.ok_or("--seconds is required")?
        },
        trace,
        scale: Scale::Full,
    };
    Ok(Cli {
        options,
        run_index,
        record_golden,
    })
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let cli = match parse(&args) {
        Ok(c) => c,
        Err(e) => {
            eprintln!("mpcp-perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let o = cli.options;
    let result = if cli.record_golden {
        let prep = Prep::new(o.workload.spec(Scale::Full, o.seed));
        let gen = generate(&prep);
        model_stage(&prep, &gen.records, false).map(|m| {
            let s: Vec<f64> = m.entries.iter().map(|e| e.speedup).collect();
            print!("{}", golden::lines(o.seed, &gen.records, &s));
        })
    } else {
        let steal0 = host_steal_s();
        run(&o).and_then(|outcome| {
            let line = result_json(&outcome)?;
            println!(
                "{}",
                provenance_json(
                    o.workload.name(),
                    o.seed,
                    cli.run_index,
                    o.trace,
                    &outcome.samples,
                    host_steal_s() - steal0,
                )
            );
            println!("{line}");
            Ok(())
        })
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("mpcp-perfbench: {} failed: {e}", o.workload.name());
            ExitCode::FAILURE
        }
    }
}
