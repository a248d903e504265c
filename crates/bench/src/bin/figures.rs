//! Regenerates paper figures by name; see `lpbcast_bench::figures`.
//!
//! ```text
//! figures fig5b fig7a   # those figures, in that order
//! figures all           # every figure once, then the headline
//!                       # directional checks on what was just emitted
//! figures --list        # the known names, in `all` order
//! ```
//!
//! Each figure prints its table and writes `results/<name>.tsv`. Exit
//! status: 0 on success, 1 if a TSV could not be written or a headline
//! check failed (the remaining figures still run), 2 on an unknown name.
//! Set `LPBCAST_BENCH_SEEDS` to trade accuracy for speed.

use lpbcast_bench::figures::{headline_checks, select, FIGURES};

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.iter().any(|arg| arg == "--list") {
        for (name, _) in FIGURES {
            println!("{name}");
        }
        return;
    }
    let selected = select(&args).unwrap_or_else(|unknown| {
        for name in unknown {
            eprintln!("! unknown figure {name:?}");
        }
        Vec::new()
    });
    if selected.is_empty() {
        let names: Vec<&str> = FIGURES.iter().map(|&(name, _)| name).collect();
        eprintln!("usage: figures <name>... | all | --list");
        eprintln!("figures: {}", names.join(" "));
        std::process::exit(2);
    }

    let mut ok = true;
    let mut emitted = Vec::new();
    for (_, make) in selected {
        let figure = make();
        if let Err(e) = figure.emit() {
            eprintln!("  ! could not write results/{}.tsv: {e}", figure.id);
            ok = false;
        }
        emitted.push(figure);
    }
    if args.iter().any(|arg| arg == "all") {
        println!("\n=== headline directional checks ===");
        for (name, pass) in headline_checks(&emitted) {
            println!("[{}] {}", if pass { "PASS" } else { "FAIL" }, name);
            ok &= pass;
        }
    }
    if !ok {
        std::process::exit(1);
    }
}
